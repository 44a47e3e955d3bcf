"""Property tests: ``DesignArrays`` <-> ``ClockTree`` conversion round-trips.

The IR's sanctioned object boundaries — :meth:`DesignArrays.to_clock_tree`
and :meth:`DesignArrays.from_clock_tree` — must be *lossless* for everything
the flow decides on: node names, pre-order position, per-node children
order, kinds, sides, wire sides, capacitances, and coordinates are
bit-preserved, as are the tree name and the shared name counter.  Hypothesis
generates arbitrary rooted trees (not just flow-shaped ones) so the
conversion cannot silently rely on flow invariants.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocktree import ClockTree
from repro.clocktree.node import ClockTreeNode, NodeKind
from repro.geometry import Point
from repro.ir.design import DesignArrays
from repro.tech.layers import Side

_CHILD_KINDS = (
    NodeKind.STEINER,
    NodeKind.SINK,
    NodeKind.BUFFER,
    NodeKind.NTSV,
    NodeKind.TAP,
)

_coord = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
_cap = st.floats(min_value=0.0, max_value=64.0, allow_nan=False)
_side = st.sampled_from((Side.FRONT, Side.BACK))


@st.composite
def tree_strategy(draw, max_nodes: int = 40) -> ClockTree:
    """A random rooted tree; node ``i`` attaches under some earlier node."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    root = ClockTreeNode(
        name="n0",
        kind=NodeKind.ROOT,
        location=Point(draw(_coord), draw(_coord)),
        side=Side.FRONT,
    )
    nodes = [root]
    for i in range(1, count):
        kind = draw(st.sampled_from(_CHILD_KINDS))
        side = Side.FRONT if kind is NodeKind.BUFFER else draw(_side)
        node = ClockTreeNode(
            name=f"n{i}",
            kind=kind,
            location=Point(draw(_coord), draw(_coord)),
            side=side,
            capacitance=draw(_cap),
            wire_side=draw(_side),
        )
        parent = nodes[draw(st.integers(min_value=0, max_value=i - 1))]
        parent.add_child(node)
        nodes.append(node)
    tree = ClockTree(root, name=draw(st.sampled_from(("clk", "clk_a", "c"))))
    tree._counter = draw(st.integers(min_value=0, max_value=1000))
    return tree


def preorder_signature(tree: ClockTree) -> list[tuple]:
    """Pre-order node facts, children order included via the ordering."""
    return [
        (
            node.name,
            node.kind.value,
            node.side.value,
            node.wire_side.value,
            node.capacitance,
            node.location.x,
            node.location.y,
            tuple(child.name for child in node.children),
        )
        for node in tree.root.iter_subtree()
    ]


@settings(max_examples=120, deadline=None)
@given(tree=tree_strategy())
def test_roundtrip_preserves_everything(tree):
    design = DesignArrays.from_clock_tree(tree)
    rebuilt = design.to_clock_tree()
    assert preorder_signature(rebuilt) == preorder_signature(tree)
    assert rebuilt.name == tree.name
    assert rebuilt._counter == tree._counter


@settings(max_examples=60, deadline=None)
@given(tree=tree_strategy())
def test_double_roundtrip_is_stable(tree):
    once = DesignArrays.from_clock_tree(tree)
    twice = DesignArrays.from_clock_tree(once.to_clock_tree())
    assert preorder_signature(once.to_clock_tree()) == preorder_signature(
        twice.to_clock_tree()
    )
    assert once.counts() == twice.counts()


@settings(max_examples=60, deadline=None)
@given(tree=tree_strategy())
def test_roundtrip_preserves_edge_lengths_and_counts(tree):
    design = DesignArrays.from_clock_tree(tree)
    assert design.counts() == tree.counts()
    # Per-edge lengths are bit-preserved; the *totals* only agree to float
    # tolerance (np.sum is pairwise, the object walk sums sequentially).
    lengths = {
        design.names[int(row)]: float(design.edge_length[int(row)])
        for row in range(design.size)
    }
    for node in tree.root.iter_subtree():
        assert lengths[node.name] == node.edge_length()
    for side in (None, Side.FRONT, Side.BACK):
        assert math.isclose(
            design.wirelength(side), tree.wirelength(side), rel_tol=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(tree=tree_strategy(max_nodes=20))
def test_popping_the_newest_row_roundtrips(tree):
    """Popping the newest row, a leaf, still realises the remaining tree."""
    design = DesignArrays.from_clock_tree(tree)
    popped = None
    if design.size > 1:
        popped = design.names[design.size - 1]
        design.remove_leaf(design.size - 1)
    rebuilt = design.to_clock_tree()
    expected = [
        (*facts[:-1], tuple(child for child in facts[-1] if child != popped))
        for facts in preorder_signature(tree)
        if facts[0] != popped
    ]
    assert preorder_signature(rebuilt) == expected
    assert design.counts() == rebuilt.counts()


def test_counter_roundtrips_through_new_names():
    root = ClockTreeNode(name="src", kind=NodeKind.ROOT, location=Point(0.0, 0.0))
    tree = ClockTree(root, name="clk")
    design = DesignArrays.from_clock_tree(tree)
    first = design.new_name("buffer")
    rebuilt = DesignArrays.from_clock_tree(design.to_clock_tree())
    second = rebuilt.new_name("buffer")
    assert first != second  # the counter carried over, no name reuse
    assert second == design.new_name("buffer")  # the sequence continues
