"""Regression tests: the ``DesignArrays`` edit-version contract.

Every structural mutator records the edit that covers it, so callers do no
bookkeeping and a warm :class:`VectorizedElmoreEngine` never answers from a
stale cache.  Versions are monotonic per design object — ``restore`` is a
*structural edit* and must be observable through ``edits_since``: an
observer holding any pre-edit version gets a non-empty edit list or
``None`` (recompile), never ``[]``.  Before the fix the call could rewind
the version counter, so a cached engine would serve timing computed for the
*previous* structure.

Rows are append-only: :meth:`DesignArrays.remove_leaf` pops only the newest
row, and the edit log is a sliding window an old observer falls out of.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -------------------------------------------------------- self-recording
class TestMutatorsRecordTheirEdits:
    def test_warm_engine_sees_a_bare_add_child(self, pdk):
        # A sink appended with add_child alone used to record no edit: the
        # warm engine kept its two-sink state and timed the new sink at 0.
        design = small_design(sinks=2)
        engine = VectorizedElmoreEngine(pdk)
        engine.analyze(design)
        version = design.version
        design.add_child(0, "late", KIND_SINK, 200.0, 200.0, capacitance=5.0)
        assert design.edits_since(version) != []
        warm = engine.analyze(design)
        fresh = VectorizedElmoreEngine(pdk).analyze(design)
        reference = ElmoreTimingEngine(pdk).analyze(design)
        assert engine.full_compiles == 1  # served on the incremental path
        assert warm.arrivals == fresh.arrivals
        assert warm.arrivals.keys() == reference.arrivals.keys()
        for name, value in reference.arrivals.items():
            assert warm.arrivals[name] == pytest.approx(value, abs=1e-9)
        assert warm.skew == pytest.approx(reference.skew, abs=1e-9)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.add_child(0, "s1", KIND_SINK, 1.0, 1.0),
            lambda d: d.add_children(
                0, ["n0", "s3"], KIND_SINK, [1.0, 2.0], [1.0, 2.0]
            ),
            lambda d: d.add_children(
                0, ["n0", "n0"], KIND_SINK, [1.0, 2.0], [1.0, 2.0]
            ),
            lambda d: d.insert_on_edge(
                d.name_to_row["s2"], KIND_BUFFER, 1.0, 1.0, name="s0"
            ),
        ],
        ids=["add_child", "add_children", "add_children_batch", "insert_on_edge"],
    )
    def test_a_duplicate_name_changes_and_records_nothing(self, mutate):
        # Names are unique per design; a rejected mutator must leave no
        # partial row behind and log no edit.
        design = small_design()
        names, log = list(design.names), design.edit_log
        parents = design.parent_row[: design.size].copy()
        with pytest.raises(ValueError, match="duplicate node name"):
            mutate(design)
        assert design.names == names
        assert design.edit_log == log
        assert list(design.name_to_row) == names
        assert (design.parent_row[: design.size] == parents).all()
        assert design.children_rows[0] == list(range(1, len(names)))


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
            design.touch()
        log = design.edit_log
        assert len(log) == 256
        assert [version for version, _, _ in log] == list(
            range(design.version - 255, design.version + 1)
        )
        assert all(kind == "touch" for _, kind, _ in log)
        # An observer inside the window replays; an older one recompiles.
        assert len(design.edits_since(design.version - 10)) == 10
        assert len(design.edits_since(design.version - 256)) == 256
        assert design.edits_since(design.version - 257) is None
        assert design.edits_since(start) is None


# ------------------------------------------------- version monotonicity law
_OPS = st.lists(
    st.sampled_from(("add", "buffer", "remove", "touch", "snapshot",
                     "restore")),
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
                    design.remove_leaf(newest)
            elif op == "touch":
                design.touch()
            elif op == "snapshot":
                snap = design.snapshot()
            elif op == "restore":
                design.restore(snap)
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
