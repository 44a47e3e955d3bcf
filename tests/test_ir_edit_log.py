"""Regression tests: the ``DesignArrays`` edit-version contract.

Versions are monotonic per design object — ``restore`` is a *structural
edit* and must be observable through ``edits_since``: an observer holding
any pre-edit version gets a non-empty edit list or ``None`` (recompile),
never ``[]``.  Before the fix the call could rewind the version counter, so
a cached :class:`VectorizedElmoreEngine` would serve timing computed for the
*previous* structure.

Rows are append-only: :meth:`DesignArrays.remove_leaf` pops only the newest
row, and the edit log is a sliding window an old observer falls out of.

Also pins the duplicate-name index semantics of :meth:`DesignArrays.rename`
against the executable spec, :meth:`ClockTree.find` (first in *pre-order*
wins), with differential tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocktree import ClockTree, ClockTreeNode, NodeKind
from repro.geometry import Point
from repro.ir.design import KIND_BUFFER, KIND_SINK, DesignArrays
from repro.tech import asap7_backside
from repro.timing import ElmoreTimingEngine, VectorizedElmoreEngine


@pytest.fixture(scope="module")
def pdk():
    return asap7_backside()


def small_design(sinks: int = 6) -> DesignArrays:
    """A root with ``sinks`` sink children, flow-shaped and valid."""
    design = DesignArrays(name="clk")
    design.add_root("root", 0.0, 0.0)
    for i in range(sinks):
        design.add_child(
            0, f"s{i}", KIND_SINK, 10.0 * (i + 1), 5.0 * i, capacitance=1.0
        )
    design.touch()
    return design


# ----------------------------------------------------------------- restore
class TestRestoreVersionMonotonic:
    def test_confirmed_repro_restore_never_rewinds(self):
        # snapshot after touch -> edit + touch -> cache version -> restore:
        # edits_since(cached) used to return [] (the rewound counter matched).
        design = small_design()
        snap = design.snapshot()
        design.add_child(0, "extra", KIND_SINK, 99.0, 99.0, capacitance=1.0)
        design.touch()
        cached = design.version
        design.restore(snap)
        assert design.version > snap["version"]
        assert design.edits_since(cached) != []

    def test_restore_is_observable_from_any_older_version(self):
        design = small_design()
        observed = [design.version]
        snap = design.snapshot()
        design.add_child(0, "extra", KIND_SINK, 99.0, 99.0, capacitance=1.0)
        design.touch()
        observed.append(design.version)
        design.restore(snap)
        for version in observed:
            assert design.edits_since(version) != []
        # Only the *current* version legitimately reports "no edits".
        assert design.edits_since(design.version) == []

    def test_restore_restores_structure_and_counter(self):
        design = small_design()
        snap = design.snapshot()
        before = design.to_clock_tree()
        name = design.new_name("buf")
        design.add_child(0, name, KIND_SINK, 1.0, 2.0, capacitance=1.0)
        design.restore(snap)
        after = design.to_clock_tree()
        assert [n.name for n in after.nodes()] == [n.name for n in before.nodes()]
        # The name counter is part of the snapshot: fresh names replay.
        assert design.new_name("buf") == name

    def test_engine_after_restore_matches_fresh_engine(self, pdk):
        # snapshot -> edit -> engine sync -> restore -> re-query must be
        # bit-identical to a fresh engine on the restored design.
        design = small_design()
        engine = VectorizedElmoreEngine(pdk)
        engine.analyze(design)  # engine caches at the pre-snapshot version
        snap = design.snapshot()
        row = design.name_to_row["s0"]
        design.add_buffer(row, 5.0, 0.0, input_capacitance=0.8)
        engine.analyze(design)  # cache now tracks the edited structure
        design.restore(snap)
        stale = engine.analyze(design)
        fresh = VectorizedElmoreEngine(pdk).analyze(design)
        assert stale.arrivals == fresh.arrivals
        assert stale.slews == fresh.slews
        reference = ElmoreTimingEngine(pdk).analyze(design.to_clock_tree())
        for name, value in reference.arrivals.items():
            assert stale.arrivals[name] == pytest.approx(value, abs=1e-9)


# ----------------------------------------------------------- append-only
class TestAppendOnlyRows:
    def test_remove_leaf_rejects_any_row_but_the_newest(self):
        design = small_design()
        design.add_buffer(design.name_to_row["s0"], 5.0, 0.0, 0.8)
        before = design.snapshot()
        version = design.version
        for row in (design.name_to_row["s5"], 0, design.size):
            with pytest.raises(ValueError, match=f"row {row} is not the newest"):
                design.remove_leaf(row)
        # The newest row has a child: rejected too, and nothing moved.
        with pytest.raises(ValueError, match="still has children"):
            design.remove_leaf(design.size - 1)
        after = design.snapshot()
        assert design.version == version
        assert after["size"] == before["size"]
        assert after["names"] == before["names"]
        assert after["children_rows"] == before["children_rows"]
        assert after["edits"] == before["edits"]
        for column, values in before["columns"].items():
            assert np.array_equal(after["columns"][column], values), column
        assert design.name_to_row == {n: r for r, n in enumerate(design.names)}

    def test_remove_leaf_pops_the_newest_row(self):
        design = small_design()
        size = design.size
        row = design.add_child(0, "trial", KIND_BUFFER, 1.0, 1.0, capacitance=0.5)
        design.remove_leaf(row)
        assert design.size == size
        assert "trial" not in design.name_to_row
        assert design.children_rows[0] == list(range(1, size))
        # The freed row number is the next append's.
        assert design.add_child(0, "again", KIND_BUFFER, 1.0, 1.0) == row

    def test_engine_synced_before_a_sink_pop_is_not_staled(self, pdk):
        design = small_design()
        engine = VectorizedElmoreEngine(pdk)
        engine.analyze(design)
        # Pop the newest sink: the cached engine must observe it (via edits
        # or a recompile), not serve the popped row.
        design.remove_leaf(design.name_to_row["s5"])
        design.mark_rewire(0)
        result = engine.analyze(design)
        fresh = VectorizedElmoreEngine(pdk).analyze(design)
        assert "s5" not in result.arrivals
        assert result.arrivals == fresh.arrivals
        assert result.slews == fresh.slews

    def test_engine_synced_before_a_buffer_undo_is_not_staled(self, pdk):
        # The refiner's rejected trial: splice a buffer above a sink, time
        # it, move the sink back and pop the buffer.
        design = small_design()
        engine = VectorizedElmoreEngine(pdk)
        engine.analyze(design)
        sink = design.name_to_row["s0"]
        buffer = design.add_buffer(sink, 5.0, 0.0, input_capacitance=0.8)
        engine.analyze(design)
        design.move_child(sink, 0)
        design.remove_leaf(buffer)
        design.mark_rewire(0)
        result = engine.analyze(design)
        assert engine.full_compiles == 1  # the undo replays incrementally
        reference = ElmoreTimingEngine(pdk).analyze(design.to_clock_tree())
        assert result.arrivals.keys() == reference.arrivals.keys()
        for name, value in reference.arrivals.items():
            assert result.arrivals[name] == pytest.approx(value, abs=1e-9)
            assert result.slews[name] == pytest.approx(
                reference.slews[name], abs=1e-9
            )


class TestEditLogWindow:
    def test_log_drops_its_oldest_entries(self):
        design = small_design()
        start = design.version
        for _ in range(300):
            design.mark_rewire(0)
        log = design.edit_log
        assert len(log) == 256
        assert [version for version, _, _ in log] == list(
            range(design.version - 255, design.version + 1)
        )
        assert all(kind == "rewire" for _, kind, _ in log)
        # An observer inside the window replays; an older one recompiles.
        assert len(design.edits_since(design.version - 10)) == 10
        assert len(design.edits_since(design.version - 256)) == 256
        assert design.edits_since(design.version - 257) is None
        assert design.edits_since(start) is None


# ------------------------------------------------------------------ rename
def mirrored_pair() -> tuple[DesignArrays, ClockTree]:
    """The same tree as a design and as an object tree.

    Pre-order is root, p, c, q — while rows (append order) are root, p, q,
    c.  The two orders disagree on which duplicate comes "first", which is
    exactly what the differential pins down.
    """
    design = DesignArrays(name="clk")
    design.add_root("root", 0.0, 0.0)
    design.add_child(0, "p", KIND_BUFFER, 1.0, 0.0, capacitance=0.5)
    design.add_child(0, "q", KIND_SINK, 2.0, 0.0, capacitance=1.0)
    design.add_child(1, "c", KIND_SINK, 3.0, 0.0, capacitance=1.0)

    root = ClockTreeNode("root", NodeKind.ROOT, Point(0.0, 0.0))
    tree = ClockTree(root)
    p = ClockTreeNode("p", NodeKind.BUFFER, Point(1.0, 0.0), capacitance=0.5)
    q = ClockTreeNode("q", NodeKind.SINK, Point(2.0, 0.0), capacitance=1.0)
    c = ClockTreeNode("c", NodeKind.SINK, Point(3.0, 0.0), capacitance=1.0)
    root.add_child(p)
    root.add_child(q)
    p.add_child(c)
    return design, tree


class TestRenameDuplicateSemantics:
    def test_collision_keeps_first_in_preorder_like_find(self):
        design, tree = mirrored_pair()
        # Rename c -> "q": c precedes q in pre-order, so find("q") serves c.
        design.rename(design.name_to_row["c"], "q")
        tree.find("c").name = "q"
        node = tree.find("q")
        row = design.name_to_row["q"]
        assert design.names[row] == "q"
        assert design.location_of(row) == node.location

    def test_collision_where_existing_row_wins(self):
        design, tree = mirrored_pair()
        # Rename q -> "c": c (under p) still precedes q in pre-order.
        design.rename(design.name_to_row["q"], "c")
        tree.find("q").name = "c"
        node = tree.find("c")
        row = design.name_to_row["c"]
        assert design.location_of(row) == node.location

    def test_rename_away_releases_to_remaining_duplicate(self):
        design, tree = mirrored_pair()
        design.rename(design.name_to_row["c"], "q")
        tree.find("c").name = "q"
        # Two rows are now named "q"; rename the pre-order-first holder
        # away — the other must take the index entry over, as find's
        # pre-order scan does.
        design.rename(design.name_to_row["q"], "solo")
        tree.find("q").name = "solo"
        node = tree.find("q")
        row = design.name_to_row["q"]
        assert design.names[row] == "q"
        assert design.location_of(row) == node.location

    def test_plain_rename_is_exact(self):
        design, _ = mirrored_pair()
        row = design.name_to_row["c"]
        design.rename(row, "renamed")
        assert design.name_to_row["renamed"] == row
        assert "c" not in design.name_to_row


class TestRenameReachesEngineCaches:
    def test_analyze_reports_a_renamed_sink_under_its_new_name(self, pdk):
        # analyze() caches its name-keyed arrivals per design version; a
        # rename used to record no edit, so the old name was served.
        design = small_design()
        engine = VectorizedElmoreEngine(pdk)
        engine.analyze(design)
        version = design.version
        design.rename(design.name_to_row["s2"], "renamed_sink")
        assert design.edits_since(version) != []
        arrivals = engine.analyze(design).arrivals
        assert "renamed_sink" in arrivals and "s2" not in arrivals
        assert arrivals == ElmoreTimingEngine(pdk).analyze(design).arrivals
        (nominal,) = engine.analyze_corners(design).values()
        assert arrivals == nominal.arrivals


# ------------------------------------------------- version monotonicity law
_OPS = st.lists(
    st.sampled_from(("add", "buffer", "remove", "touch", "snapshot",
                     "restore", "rename")),
    min_size=1,
    max_size=24,
)


class TestVersionMonotonicityProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_version_never_decreases_and_no_silent_structural_change(self, ops):
        design = small_design(sinks=3)
        snap = design.snapshot()
        last = design.version
        serial = 0
        for op in ops:
            shape_before = (design.size,
                            tuple(tuple(c) for c in design.children_rows))
            version_before = design.version
            if op == "add":
                serial += 1
                design.add_child(0, f"x{serial}", KIND_SINK,
                                 float(serial), 1.0, capacitance=1.0)
                design.touch()
            elif op == "buffer":
                leaves = [r for r in range(design.size)
                          if not design.children_rows[r]
                          and design.parent_row[r] >= 0]
                if leaves:
                    design.add_buffer(leaves[0], 0.5, 0.5, 0.5)
            elif op == "remove":
                newest = design.size - 1
                leaves = [r for r in range(design.size)
                          if not design.children_rows[r]
                          and design.parent_row[r] >= 0]
                if len(leaves) > 1 and newest in leaves:
                    parent = int(design.parent_row[newest])
                    design.remove_leaf(newest)
                    design.mark_rewire(parent)
            elif op == "touch":
                design.touch()
            elif op == "snapshot":
                snap = design.snapshot()
            elif op == "restore":
                design.restore(snap)
            elif op == "rename":
                serial += 1
                rows = [r for r in range(design.size)
                        if design.parent_row[r] >= 0]
                if rows:
                    design.rename(rows[0], f"r{serial}")
            assert design.version >= last, f"{op} rewound the version"
            last = design.version
            shape_after = (design.size,
                           tuple(tuple(c) for c in design.children_rows))
            if shape_after != shape_before:
                # Structural change: every pre-change observer must see it.
                since = design.edits_since(version_before)
                assert since is None or since != [], (
                    f"{op} changed the structure invisibly"
                )
