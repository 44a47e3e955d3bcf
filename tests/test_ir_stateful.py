"""State machine over the ``DesignArrays`` edit-version contract.

Hypothesis drives random sequences of the structural mutators —
``add_child``, ``add_children``, ``insert_on_edge``, ``move_child`` (with and
without a slot), ``remove_leaf`` of the newest row, and ``snapshot`` /
``restore`` — with no ``touch()`` or other bookkeeping between them: every
mutator must record the edit that covers it.  Two long-lived
:class:`VectorizedElmoreEngine` instances, nominal and ``tt,ss,ff``, are
queried after every step, so each step's edits reach them through the
incremental path (or a recompile the log asks for).  After every step:

* the warm arrivals (and, on the corner engine, slews) match a fresh engine
  and the reference engine to 1e-9 per corner, over the same sink names;
* ``edits_since(v)`` is never ``[]`` for a version ``v`` observed before a
  structural change, and the version never decreases;
* ``validate()`` passes;
* ``design_cache_key``, the counts and the wirelength match the design's
  own realisation, so none depends on how the rows are numbered.

The example count comes from the active hypothesis profile: tier-1 runs the
default, and the CI ``stateful`` job runs ``--hypothesis-profile=stateful``.
"""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.guard.validation import design_cache_key
from repro.ir.design import KIND_BUFFER, KIND_SINK, KIND_STEINER, DesignArrays
from repro.tech import CornerSet, asap7_backside
from repro.timing import ElmoreTimingEngine, VectorizedElmoreEngine

TOLERANCE = 1e-9
PDK = asap7_backside()
CORNER_SETS = (None, CornerSet.parse("tt,ss,ff"))

COORDINATE = st.integers(min_value=0, max_value=300).map(float)
CAPACITANCE = st.sampled_from((0.5, 1.0, 2.5, 5.0))
LEAF_KINDS = st.sampled_from((KIND_SINK, KIND_STEINER, KIND_BUFFER))


def structure(design: DesignArrays) -> tuple:
    """Everything a structural edit can change, for before/after checks."""
    n = design.size
    return (
        n,
        tuple(design.names),
        tuple(tuple(children) for children in design.children_rows),
        *(
            getattr(design, column)[:n].tobytes()
            for column in ("parent_row", "kind", "x", "y", "cap", "wire_front")
        ),
    )


def assert_close(served, other, context: str) -> None:
    """Same sinks, and arrivals and slews within :data:`TOLERANCE`."""
    assert sorted(served.arrivals) == sorted(other.arrivals), context
    for field in ("arrivals", "slews"):
        mine, theirs = getattr(served, field), getattr(other, field)
        worst = max((abs(mine[k] - v) for k, v in theirs.items()), default=0.0)
        assert worst <= TOLERANCE, (context, field, worst)


class DesignEditContract(RuleBasedStateMachine):
    """Random mutator sequences against warm, fresh and reference timing."""

    def __init__(self) -> None:
        super().__init__()
        self.design: DesignArrays | None = None
        # Per corner set: the long-lived warm engine, one invalidated before
        # every query (a fresh compile), and the reference engine.
        self.warm = [VectorizedElmoreEngine(PDK, corners=c) for c in CORNER_SETS]
        self.cold = [VectorizedElmoreEngine(PDK, corners=c) for c in CORNER_SETS]
        self.reference = [ElmoreTimingEngine(PDK, corners=c) for c in CORNER_SETS]
        self.snap: dict | None = None
        self.observed: list[int] = []
        self.before: tuple = ()

    # ---------------------------------------------------------------- setup
    @initialize(
        sinks=st.lists(
            st.tuples(COORDINATE, COORDINATE, CAPACITANCE), min_size=2, max_size=6
        )
    )
    def build(self, sinks) -> None:
        design = DesignArrays(name="clk")
        design.add_root("root", 0.0, 0.0)
        hub = design.add_child(0, "hub", KIND_STEINER, 100.0, 100.0)
        xs, ys, caps = zip(*sinks)
        names = [f"s{i}" for i in range(len(sinks))]
        design.add_children(hub, names, KIND_SINK, xs, ys, caps)
        self.design = design
        self.before = structure(design)

    # -------------------------------------------------------------- helpers
    def _non_sinks(self) -> list[int]:
        """Rows that may take a new child: every non-sink row (the machine
        builds front-side designs, so any of them may take a front wire)."""
        kinds = self.design.kind[: self.design.size]
        return [row for row, kind in enumerate(kinds) if kind != KIND_SINK]

    def _subtree(self, row: int) -> set[int]:
        """``row`` and every row below it."""
        rows, stack = set(), [row]
        while stack:
            current = stack.pop()
            rows.add(current)
            stack.extend(self.design.children_rows[current])
        return rows

    # ---------------------------------------------------------------- rules
    @rule(
        data=st.data(), kind=LEAF_KINDS, x=COORDINATE, y=COORDINATE, cap=CAPACITANCE
    )
    def add_child(self, data, kind, x, y, cap) -> None:
        design = self.design
        parent = data.draw(st.sampled_from(self._non_sinks()), label="parent")
        design.add_child(parent, design.new_name("n"), kind, x, y, capacitance=cap)

    @rule(
        data=st.data(),
        sinks=st.lists(
            st.tuples(COORDINATE, COORDINATE, CAPACITANCE), min_size=1, max_size=4
        ),
    )
    def add_children(self, data, sinks) -> None:
        design = self.design
        parent = data.draw(st.sampled_from(self._non_sinks()), label="parent")
        xs, ys, caps = zip(*sinks)
        names = [design.new_name("s") for _ in sinks]
        design.add_children(parent, names, KIND_SINK, xs, ys, caps)

    @rule(
        data=st.data(),
        kind=st.sampled_from((KIND_BUFFER, KIND_STEINER)),
        x=COORDINATE,
        y=COORDINATE,
    )
    def insert_on_edge(self, data, kind, x, y) -> None:
        design = self.design
        child = data.draw(st.integers(1, design.size - 1), label="child")
        design.insert_on_edge(child, kind, x, y, capacitance=0.8)

    @rule(data=st.data())
    def move_child(self, data) -> None:
        design = self.design
        row = data.draw(st.integers(1, design.size - 1), label="row")
        below = self._subtree(row)
        targets = [r for r in self._non_sinks() if r not in below]
        new_parent = data.draw(st.sampled_from(targets), label="new_parent")
        siblings = len(design.children_rows[new_parent])
        if int(design.parent_row[row]) == new_parent:
            siblings -= 1
        index = data.draw(st.none() | st.integers(0, siblings), label="index")
        design.move_child(row, new_parent, index)

    @rule(data=st.data(), splice=st.booleans())
    def reverted_trial(self, data, splice) -> None:
        """A trial buffer undone before any query, as a rejected refiner
        trial (``splice=False``) or a reverted serve ``insert_buffer``
        undoes it: the design must come back exactly."""
        design = self.design
        before = structure(design)
        if splice:
            child = data.draw(st.integers(1, design.size - 1), label="child")
            parent = int(design.parent_row[child])
            slots = [(design.children_rows[parent].index(child), child)]
            buffer = design.add_buffer(child, 1.0, 1.0, 0.8)
        else:
            parent = data.draw(st.sampled_from(self._non_sinks()), label="endpoint")
            children = list(design.children_rows[parent])
            adopted = data.draw(
                st.lists(st.booleans(), min_size=len(children), max_size=len(children)),
                label="adopted",
            )
            slots = [pair for pair, taken in zip(enumerate(children), adopted) if taken]
            x, y = float(design.x[parent]), float(design.y[parent])
            name = design.new_name("trial")
            buffer = design.add_child(parent, name, KIND_BUFFER, x, y, capacitance=0.8)
            for _slot, child in slots:
                design.move_child(child, buffer)
        for slot, child in slots:
            design.move_child(child, parent, slot)
        design.remove_leaf(buffer)
        assert structure(design) == before

    @precondition(lambda self: not self.design.children_rows[self.design.size - 1])
    @rule()
    def remove_leaf(self) -> None:
        design = self.design
        newest = design.size - 1
        if design.kind[newest] == KIND_SINK and design.sink_rows().size < 2:
            return  # keep at least one sink to time
        design.remove_leaf(newest)

    @rule()
    def snapshot(self) -> None:
        self.snap = self.design.snapshot()

    @precondition(lambda self: self.snap is not None)
    @rule()
    def restore(self) -> None:
        self.design.restore(self.snap)

    # ----------------------------------------------------------- invariants
    @invariant()
    def edits_are_recorded(self) -> None:
        design = self.design
        now = structure(design)
        if now != self.before:
            for version in self.observed:
                assert design.edits_since(version) != [], (
                    f"a structural change is invisible to version {version}"
                )
        assert not self.observed or design.version >= self.observed[-1]
        self.observed = [*self.observed[-30:], design.version]
        self.before = now

    @invariant()
    def design_validates_and_matches_its_realisation(self) -> None:
        design = self.design
        design.validate()
        realised = DesignArrays.from_clock_tree(design.to_clock_tree())
        assert design_cache_key(design) == design_cache_key(realised)
        assert design.counts() == realised.counts()
        assert math.isclose(design.wirelength(), realised.wirelength(), rel_tol=1e-12)

    @invariant()
    def warm_engines_match_fresh_and_reference(self) -> None:
        design = self.design
        engines = zip(self.warm, self.cold, self.reference, CORNER_SETS)
        for warm, cold, spec, corners in engines:
            with_slew = corners is not None
            served = warm.analyze_corners(design, with_slew=with_slew)
            cold.invalidate()
            fresh = cold.analyze_corners(design, with_slew=with_slew)
            reference = spec.analyze_corners(design, with_slew=with_slew)
            assert list(served) == list(fresh) == list(reference)
            for name, result in served.items():
                assert result.sink_names == fresh[name].sink_names, name
                for other in (fresh[name], reference[name]):
                    assert_close(result, other, name)


DesignEditContract.TestCase.settings = settings(deadline=None, stateful_step_count=15)
TestDesignEditContract = DesignEditContract.TestCase
