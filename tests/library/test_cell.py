"""Tests for the cell/library model."""

import pytest

from repro.library.cell import (
    Cell,
    CellKind,
    Library,
    PinDirection,
    PinSpec,
    comb_pins,
    dff_pins,
    icg_pins,
    latch_pins,
)


def make_and2() -> Cell:
    return Cell(name="AND2_T", op="AND", pins=comb_pins(2), drive=1)


class TestCell:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown cell op"):
            Cell(name="BAD", op="FROB", pins=comb_pins(2))

    def test_duplicate_pins_rejected(self):
        pins = (
            PinSpec("A", PinDirection.INPUT),
            PinSpec("A", PinDirection.INPUT),
            PinSpec("Y", PinDirection.OUTPUT),
        )
        with pytest.raises(ValueError, match="duplicate pin"):
            Cell(name="DUP", op="AND", pins=pins)

    def test_pin_roles_comb(self):
        cell = make_and2()
        assert cell.kind is CellKind.COMB
        assert not cell.is_sequential
        assert cell.input_pins == ("A", "B")
        assert cell.output_pin == "Y"
        assert cell.clock_pin is None
        assert cell.data_pins == ("A", "B")

    def test_pin_roles_dff(self):
        cell = Cell(name="DFF_T", op="DFF", pins=dff_pins(1.0, 1.2))
        assert cell.kind is CellKind.DFF
        assert cell.is_sequential
        assert cell.clock_pin == "CK"
        assert cell.data_pins == ("D",)
        assert cell.pin_capacitance("CK") == pytest.approx(1.2)

    def test_pin_roles_latch(self):
        cell = Cell(name="LAT_T", op="DLATCH", pins=latch_pins(0.9, 0.6))
        assert cell.kind is CellKind.LATCH
        assert cell.clock_pin == "G"

    def test_icg_kinds(self):
        plain = Cell(name="ICG_T", op="ICG", pins=icg_pins(1.0, 1.0))
        m1 = Cell(name="ICG_M1_T", op="ICG_M1", pins=icg_pins(1.0, 1.0, with_pb=True))
        assert plain.kind is CellKind.ICG
        assert not plain.is_sequential
        assert "PB" in m1.input_pins
        assert plain.output_pin == "GCK"

    def test_missing_pin_raises(self):
        with pytest.raises(KeyError):
            make_and2().pin("Z")


class TestPrecomputedViews:
    """Every derived pin view is built once per cell and matches a direct
    derivation from ``pins``."""

    @staticmethod
    def _cells():
        from repro.library.fdsoi28 import FDSOI28
        from repro.library.generic import GENERIC

        return [cell for lib in (GENERIC, FDSOI28)
                for cell in lib.cells.values()]

    def test_views_match_pins(self):
        cells = self._cells()
        assert cells
        for cell in cells:
            ins = tuple(p.name for p in cell.pins
                        if p.direction is PinDirection.INPUT)
            outs = tuple(p.name for p in cell.pins
                         if p.direction is PinDirection.OUTPUT)
            assert cell.input_pins == ins
            assert cell.output_pins == outs
            assert cell.data_pins == tuple(
                p.name for p in cell.pins
                if p.direction is PinDirection.INPUT and not p.is_clock)
            assert cell.clock_pin == next(
                (p.name for p in cell.pins if p.is_clock), None)
            want_kind = {
                "DFF": CellKind.DFF, "DLATCH": CellKind.LATCH,
                "ICG": CellKind.ICG, "ICG_M1": CellKind.ICG,
                "ICG_AND": CellKind.ICG, "TIE0": CellKind.TIE,
                "TIE1": CellKind.TIE,
            }.get(cell.op, CellKind.COMB)
            assert cell.kind is want_kind
            for pin in cell.pins:
                assert cell.pin(pin.name) is pin
                assert cell.pin_capacitance(pin.name) == pin.capacitance
            if len(outs) == 1:
                assert cell.output_pin == outs[0]

    def test_views_built_once(self):
        for cell in self._cells():
            for view in ("input_pins", "output_pins", "data_pins"):
                assert getattr(cell, view) is getattr(cell, view), view

    def test_views_survive_pickling(self):
        import pickle

        cell = make_and2()
        assert cell.input_pins == ("A", "B")  # built before pickling
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell
        assert clone.input_pins == ("A", "B")
        assert clone.pin("B").capacitance == cell.pin("B").capacitance

    @pytest.mark.parametrize("pins", [
        (PinSpec("A", PinDirection.INPUT),
         PinSpec("Y", PinDirection.OUTPUT),
         PinSpec("Z", PinDirection.OUTPUT)),
        (PinSpec("A", PinDirection.INPUT),),
    ], ids=["two-outputs", "no-output"])
    def test_output_pin_needs_exactly_one_output(self, pins):
        cell = Cell(name="ODD", op="BUF", pins=pins)
        for _ in range(2):  # the check is not cached away
            with pytest.raises(ValueError, match="outputs"):
                cell.output_pin


class TestLibrary:
    def test_add_and_lookup(self):
        lib = Library("t")
        cell = lib.add(make_and2())
        assert lib["AND2_T"] is cell
        assert "AND2_T" in lib

    def test_duplicate_rejected(self):
        lib = Library("t")
        lib.add(make_and2())
        with pytest.raises(ValueError, match="duplicate cell"):
            lib.add(make_and2())

    def test_cells_for_op_sorted_by_drive(self):
        lib = Library("t")
        for drive in (4, 1, 2):
            lib.add(Cell(name=f"AND2_X{drive}", op="AND",
                         pins=comb_pins(2), drive=drive))
        drives = [c.drive for c in lib.cells_for_op("AND", 2)]
        assert drives == [1, 2, 4]

    def test_cell_for_op_picks_closest_drive(self):
        lib = Library("t")
        for drive in (1, 4):
            lib.add(Cell(name=f"AND2_X{drive}", op="AND",
                         pins=comb_pins(2), drive=drive))
        assert lib.cell_for_op("AND", 2, drive=2).drive == 1
        assert lib.cell_for_op("AND", 2, drive=3).drive == 4

    def test_cell_for_op_missing_raises(self):
        lib = Library("t")
        with pytest.raises(KeyError, match="no cell for op"):
            lib.cell_for_op("XOR", 2)

    def test_arity_filter(self):
        lib = Library("t")
        lib.add(Cell(name="AND2", op="AND", pins=comb_pins(2)))
        lib.add(Cell(name="AND3", op="AND", pins=comb_pins(3)))
        assert lib.cell_for_op("AND", 3).name == "AND3"
        assert [c.name for c in lib.cells_for_op("AND")] == ["AND2", "AND3"]
