"""Exact maximum independent set by branch-and-reduce.

The paper's conversion ILP reduces to a maximum independent set (MIS)
problem on the FF adjacency graph (see :mod:`repro.convert.phase_ilp` for
the proof sketch); FF graphs are sparse, which branch-and-reduce exploits:

* the graph first splits into connected components, solved independently;
* degree-0 vertices are always taken; for a degree-1 vertex, taking it is
  always at least as good as taking its neighbour (mirror argument);
* otherwise branch on a maximum-degree vertex ``v``: either ``v`` is
  excluded, or ``v`` is included and its whole neighbourhood excluded.

The solver is exact; a ``node_limit`` guards pathological instances by
finishing greedily (reported via ``exact=False``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

Node = Hashable
Adjacency = dict[Node, set[Node]]


@dataclass
class MisResult:
    chosen: set[Node]
    exact: bool
    nodes_explored: int


def _components(adj: Adjacency) -> Iterable[set[Node]]:
    seen: set[Node] = set()
    for start in adj:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop()
            for neighbour in adj[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    component.add(neighbour)
                    stack.append(neighbour)
        yield component


def _greedy(adj: Adjacency, alive: set[Node]) -> set[Node]:
    """Min-degree greedy independent set on the induced subgraph."""
    degree = {v: sum(1 for u in adj[v] if u in alive) for v in alive}
    remaining = set(alive)
    chosen: set[Node] = set()
    while remaining:
        node = min(remaining, key=lambda v: (degree[v], str(v)))
        chosen.add(node)
        removed = {node} | (adj[node] & remaining)
        remaining -= removed
        for gone in removed:
            for neighbour in adj[gone]:
                if neighbour in remaining:
                    degree[neighbour] -= 1
    return chosen


class _Search:
    def __init__(
        self,
        adj: Adjacency,
        node_limit: int,
        deadline: float | None = None,
        should_stop: Callable[[], bool] | None = None,
    ):
        self.adj = adj
        self.node_limit = node_limit
        self.deadline = deadline
        self.should_stop = should_stop
        self.nodes = 0
        self.exact = True
        # a fixed visiting order for the reductions: which endpoint of a
        # tied pendant edge is taken must not depend on set iteration
        # order, i.e. on the process's PYTHONHASHSEED
        self._rank = {v: i for i, v in enumerate(sorted(adj, key=str))}

    def _out_of_budget(self) -> bool:
        if self.nodes > self.node_limit:
            return True
        # poll the clock and the cancellation hook sparsely: both cost a
        # call per check, which adds up over hundreds of thousands of nodes
        if self.nodes % 64 == 0:
            if self.deadline is not None and time.monotonic() > self.deadline:
                return True
            if self.should_stop is not None and self.should_stop():
                return True
        return False

    def solve(self, alive: set[Node]) -> set[Node]:
        self.nodes += 1
        if self._out_of_budget():
            self.exact = False
            return _greedy(self.adj, alive)
        if not alive:
            return set()

        # Reductions: take isolated vertices; take one endpoint of pendants.
        chosen: set[Node] = set()
        alive = set(alive)
        changed = True
        while changed:
            changed = False
            for node in sorted(alive, key=self._rank.__getitem__):
                if node not in alive:
                    continue
                neighbours = self.adj[node] & alive
                if not neighbours:
                    chosen.add(node)
                    alive.discard(node)
                    changed = True
                elif len(neighbours) == 1:
                    chosen.add(node)
                    alive.discard(node)
                    alive -= neighbours
                    changed = True
        if not alive:
            return chosen

        # Decompose what is left.
        sub_adj = {v: self.adj[v] & alive for v in alive}
        components = list(_components(sub_adj))
        if len(components) > 1:
            for component in components:
                chosen |= self._branch(component)
            return chosen
        return chosen | self._branch(alive)

    def _branch(self, alive: set[Node]) -> set[Node]:
        pivot = max(alive, key=lambda v: (len(self.adj[v] & alive), str(v)))
        # Branch 1: include pivot, exclude its neighbourhood.
        with_pivot = {pivot} | self.solve(alive - {pivot} - self.adj[pivot])
        # Branch 2: exclude pivot.
        without_pivot = self.solve(alive - {pivot})
        return with_pivot if len(with_pivot) >= len(without_pivot) else without_pivot


def max_independent_set(
    adj: Adjacency,
    node_limit: int = 500_000,
    time_limit: float | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> MisResult:
    """Exact MIS of the undirected graph given as an adjacency dict.

    The adjacency must be symmetric and irreflexive (no self loops).
    ``time_limit``/``should_stop`` stop the search early (the result is
    then greedily completed and reported via ``exact=False``); a
    portfolio race passes ``should_stop`` to abandon a losing search.
    """
    for node, neighbours in adj.items():
        if node in neighbours:
            raise ValueError(f"self loop at {node!r}; remove self-loop nodes first")
        for other in neighbours:
            if node not in adj.get(other, ()):
                raise ValueError(f"asymmetric adjacency between {node!r} and {other!r}")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    search = _Search(adj, node_limit, deadline=deadline,
                     should_stop=should_stop)
    # The branch recursion removes at least one vertex per level, so its
    # depth is bounded by |V|; lift CPython's default 1000-frame cap for
    # the multi-thousand-vertex partitions the decomposition layer hands us.
    needed = 2 * len(adj) + 512
    previous = sys.getrecursionlimit()
    if needed > previous:
        sys.setrecursionlimit(needed)
    try:
        chosen = search.solve(set(adj))
    finally:
        if needed > previous:
            sys.setrecursionlimit(previous)
    return MisResult(chosen=chosen, exact=search.exact, nodes_explored=search.nodes)
