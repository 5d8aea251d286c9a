"""Open-loop load generation against the serve daemon.

* :func:`make_stream` turns a seed into the submission stream: arrivals
  at a fixed interval over the window and a seeded order of job
  configurations, half of them resubmissions of an earlier one.
* :func:`drive` replays the stream from one asyncio thread: every
  submission is sent at its due time whether or not earlier ones have
  finished, and its latency runs from the due time to the job's
  ``finished`` event as the client reads it from the event stream, so a
  stall also charges the requests queued behind it.  The daemon polls
  each event stream every 50 ms, so the moment the client receives that
  event falls on a 50 ms grid; that delivery delay is kept apart as
  ``notify_s``.
* :func:`percentile` reports a quantile only when at least ten samples
  lie beyond it.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass, field

#: small and mid-size registered designs the stream draws from.
SMALL_DESIGNS = ("s1196", "s1238")
MID_DESIGNS = ("s5378", "s9234")
#: offered load (submissions per second), well below saturation.
RATE = 3.4
#: fractions of distinct configurations that are mid-size designs,
#: carry ``sim_lanes: 64``, or carry ``verify: true``.
MID_SHARE = 0.04
LANES_SHARE = 0.10
VERIFY_SHARE = 0.10
#: fraction of each class's configurations whose resubmission is sent
#: right behind the first, while it is still queued or running
#: (single-flight dedup); the rest come at a later random time (a
#: warm-cache hit).
NEAR_SHARE = 0.5
#: how long after its first a near resubmission is due.
NEAR_LAG_S = 0.02
#: the style every job runs: the paper's flow.
STYLES = ("3p",)
#: simulated and activity-profiling cycles of every job.
SIM_CYCLES = 24
#: samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: stimulus seed of the warm-up jobs; no stream configuration uses it.
WARM_SEED = 1_000_000


@dataclass(frozen=True)
class Submission:
    due: float  # seconds after the window opens
    config: int  # index into ``Stream.configs``; -1 for a warm-up job
    body: dict


@dataclass(frozen=True)
class Stream:
    #: the distinct job configurations (``POST /jobs`` bodies).
    configs: list[dict]
    submissions: list[Submission]
    #: one unflagged configuration per design; their cold ff and 3p runs
    #: give the workload's power saving and latch ratio.
    references: tuple[int, ...]


def make_stream(seed: int, seconds: float) -> Stream:
    """The seeded submission stream for a ``seconds``-long window.

    Every configuration is submitted twice, so half of the submissions
    are resubmissions.  Designs and stimulus seeds are fixed per
    configuration index, so every run seed offers the same work; the run
    seed picks the flagged minority, the order and which resubmissions
    are near.  Class sizes and near counts are fixed,
    so the mix of cold, deduped and warm jobs is the same for every seed.
    """
    rng = random.Random(seed)
    distinct = math.ceil(RATE * seconds / 2)
    n_mid = max(len(MID_DESIGNS), round(distinct * MID_SHARE))
    designs = [MID_DESIGNS[i % len(MID_DESIGNS)] for i in range(n_mid)]
    designs += [SMALL_DESIGNS[i % len(SMALL_DESIGNS)]
                for i in range(distinct - n_mid)]
    configs = [
        {"design": design, "styles": list(STYLES),
         "options": {"sim_cycles": SIM_CYCLES, "profile_cycles": SIM_CYCLES,
                     "seed": index + 1}}
        for index, design in enumerate(designs)
    ]
    references = tuple(designs.index(d) for d in MID_DESIGNS + SMALL_DESIGNS)
    plain = [i for i in range(n_mid, distinct) if i not in references]
    rng.shuffle(plain)
    n_lanes = round(distinct * LANES_SHARE)
    n_verify = round(distinct * VERIFY_SHARE)
    for index in plain[:n_lanes]:
        configs[index]["options"]["sim_lanes"] = 64
    for index in plain[n_lanes:n_lanes + n_verify]:
        configs[index]["options"]["verify"] = True
    classes = [list(range(n_mid)), plain[:n_lanes],
               plain[n_lanes:n_lanes + n_verify], plain[n_lanes + n_verify:],
               [i for i in references if i >= n_mid]]
    near = set()
    for members in classes:
        near.update(rng.sample(members, round(NEAR_SHARE * len(members))))

    # firsts in shuffled order, each far resubmission at a uniformly
    # random later position, each near one right behind its first.
    # Arrivals come at a fixed interval: with Poisson arrivals the p90
    # was mostly a draw of the bursts (IQR/median 0.2-0.6 over ten
    # seeds), while the queueing behind slow jobs stays either way
    order = list(range(distinct))
    rng.shuffle(order)
    keyed = []
    for position, config in enumerate(order):
        keyed.append((float(position), config))
        if config not in near:
            keyed.append((rng.uniform(position + 0.5, distinct), config))
    keyed.sort()
    dues = [seconds * i / len(keyed) for i in range(len(keyed))]
    timed = [(due, config) for due, (_, config) in zip(dues, keyed)]
    firsts = {}
    for due, config in timed:
        firsts.setdefault(config, due)
    timed += [(firsts[config] + NEAR_LAG_S, config) for config in near]
    timed.sort()
    submissions = [Submission(due, config, configs[config])
                   for due, config in timed]
    return Stream(configs, submissions, references)


def warmup() -> list[Submission]:
    """One job per design, all due at once, run before the window.

    A daemon's first job of a design builds every seed-independent
    artifact cold; a long-running daemon pays that once, so the window
    measures the daemon after it."""
    return [
        Submission(0.0, -1, {
            "design": design, "styles": list(STYLES),
            "options": {"sim_cycles": SIM_CYCLES,
                        "profile_cycles": SIM_CYCLES, "seed": WARM_SEED}})
        for design in MID_DESIGNS + SMALL_DESIGNS
    ]


def samples_beyond(n: int, pct: int) -> int:
    """Samples strictly above the ``pct``-th percentile of ``n``."""
    return n - (pct * n + 99) // 100


def interpolate(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile by linear interpolation between order
    statistics (``statistics.quantiles``' inclusive method)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if rank == low or ordered[low] == ordered[high]:
        return ordered[low]  # also keeps inf - inf out of the sum
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile(values: list[float], pct: int) -> float | None:
    """:func:`interpolate`, or None when fewer than :data:`MIN_BEYOND`
    samples lie beyond the percentile.  Failed requests enter as
    ``math.inf``."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    if not values or samples_beyond(len(values), pct) < MIN_BEYOND:
        return None
    return interpolate(values, pct)


# -- the HTTP client ---------------------------------------------------------


async def _http(host: str, port: int, method: str, path: str,
                body: dict | None = None) -> tuple[int, bytes]:
    """One request on its own connection (the daemon closes every one);
    returns the status and the body read to end of stream."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n")
        writer.write(head.encode("ascii") + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


def get_json(host: str, port: int, path: str) -> dict:
    status, payload = asyncio.run(_http(host, port, "GET", path))
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}")
    return json.loads(payload)


@dataclass
class Reply:
    submission: Submission
    late_s: float = 0.0
    latency_s: float = math.inf
    #: from the job's finished event to the client receiving it.
    notify_s: float = 0.0
    job_id: str | None = None
    deduped: bool = False
    #: result payload (None unless the job finished and was fetched).
    result: dict | None = None
    error: str | None = None


@dataclass
class Report:
    replies: list[Reply] = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def late_max_s(self) -> float:
        return max((o.late_s for o in self.replies), default=0.0)


async def _one(host: str, port: int, sub: Submission, t0: float,
               wall0: float) -> Reply:
    """Submit ``sub`` when due and follow it to its result.  ``t0`` and
    ``wall0`` are the window's start on the performance counter and on
    the wall clock the daemon stamps its events with."""
    out = Reply(sub)
    due = t0 + sub.due
    out.late_s = max(0.0, time.perf_counter() - due)
    try:
        status, payload = await _http(host, port, "POST", "/jobs", sub.body)
        if status not in (200, 202):
            out.error = f"POST /jobs -> {status}"
            return out
        job = json.loads(payload)
        out.job_id, out.deduped = job["id"], job["deduped"]
        # the event stream ends when the job reaches a terminal state
        status, payload = await _http(
            host, port, "GET", f"/jobs/{out.job_id}/events")
        seen = time.perf_counter()
        last = json.loads(payload.splitlines()[-1])
        if last["state"] != "done":
            out.error = f"job {out.job_id} {last['state']}: {last.get('error')}"
            return out
        finished = t0 + last["ts"] - wall0
        out.latency_s = finished - due
        out.notify_s = seen - finished
        status, payload = await _http(
            host, port, "GET", f"/jobs/{out.job_id}/result")
        if status != 200:
            out.error = f"GET result -> {status}"
            out.latency_s = math.inf
            return out
        out.result = json.loads(payload)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
        out.latency_s = math.inf
    return out


async def _drive(host: str, port: int, stream: list[Submission]) -> Report:
    t0, wall0 = time.perf_counter(), time.time()
    tasks = []
    for sub in stream:
        delay = t0 + sub.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(_one(host, port, sub, t0, wall0)))
    replies = list(await asyncio.gather(*tasks))
    done = [t0 + o.submission.due + o.latency_s for o in replies
            if math.isfinite(o.latency_s)]
    makespan = (max(done) if done else time.perf_counter()) - t0
    return Report(replies, makespan)


def drive(host: str, port: int, stream: list[Submission]) -> Report:
    """Replay ``stream`` against the daemon at ``host:port``."""
    return asyncio.run(_drive(host, port, stream))


def result_core(payload: dict) -> dict:
    """Per-style registers, area and power of a result payload: the part
    that must not depend on which run produced it (job ids and stage
    timings or cache flags legitimately differ)."""
    return {
        style: {k: v for k, v in row.items() if k != "stages"}
        for style, row in payload["styles"].items()
    }
