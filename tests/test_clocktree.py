"""Unit tests for repro.clocktree: nodes, trees, and connectivity validation.

Object trees are read-only views, so trees with buffers or nTSVs are built
as designs and realised (:meth:`DesignArrays.to_clock_tree`).
"""

import pytest

from repro.clocktree import ClockTree, ClockTreeNode, ConnectivityError, NodeKind
from repro.geometry import Point
from repro.ir.design import KIND_SINK, KIND_STEINER, DesignArrays
from repro.tech.layers import Side


def simple_tree() -> ClockTree:
    """root -> steiner -> (sink_a, sink_b)."""
    root = ClockTreeNode("root", NodeKind.ROOT, Point(0, 0))
    tree = ClockTree(root, name="clk")
    steiner = ClockTreeNode("st1", NodeKind.STEINER, Point(10, 0))
    root.add_child(steiner)
    steiner.add_child(ClockTreeNode("a", NodeKind.SINK, Point(10, 10), capacitance=1.0))
    steiner.add_child(ClockTreeNode("b", NodeKind.SINK, Point(20, 0), capacitance=1.0))
    return tree


def simple_design() -> DesignArrays:
    """The design twin of :func:`simple_tree`, for trees that need edits."""
    design = DesignArrays(name="clk")
    root = design.add_root("root", 0.0, 0.0)
    steiner = design.add_child(root, "st1", KIND_STEINER, 10.0, 0.0)
    design.add_child(steiner, "a", KIND_SINK, 10.0, 10.0, capacitance=1.0)
    design.add_child(steiner, "b", KIND_SINK, 20.0, 0.0, capacitance=1.0)
    return design


def buffered_tree() -> ClockTree:
    """:func:`simple_tree` with a buffer on the edge above sink ``a``."""
    design = simple_design()
    design.add_buffer(design.name_to_row["a"], 10.0, 5.0, input_capacitance=0.8)
    return design.to_clock_tree()


def ntsv_tree() -> ClockTree:
    """:func:`simple_tree` with its trunk edge (root -> st1) on the back side."""
    design = simple_design()
    steiner = design.name_to_row["st1"]
    low = design.add_ntsv(steiner, 10.0, 0.0, 0.004, upstream_front=False)
    design.add_ntsv(low, 0.0, 0.0, 0.004, upstream_front=True)
    return design.to_clock_tree()


class TestNode:
    def test_add_child_sets_parent(self):
        parent = ClockTreeNode("p", NodeKind.STEINER, Point(0, 0))
        child = ClockTreeNode("c", NodeKind.SINK, Point(1, 0), capacitance=1)
        parent.add_child(child)
        assert child.parent is parent
        assert parent.children == [child]

    def test_add_child_twice_rejected(self):
        a = ClockTreeNode("a", NodeKind.STEINER, Point(0, 0))
        b = ClockTreeNode("b", NodeKind.STEINER, Point(1, 0))
        c = ClockTreeNode("c", NodeKind.SINK, Point(2, 0), capacitance=1)
        a.add_child(c)
        with pytest.raises(ValueError):
            b.add_child(c)

    def test_self_child_rejected(self):
        a = ClockTreeNode("a", NodeKind.STEINER, Point(0, 0))
        with pytest.raises(ValueError):
            a.add_child(a)

    def test_edge_length(self):
        tree = simple_tree()
        assert tree.find("st1").edge_length() == 10.0
        assert tree.find("a").edge_length() == 10.0
        assert tree.root.edge_length() == 0.0

    def test_buffer_must_be_front_side(self):
        with pytest.raises(ValueError):
            ClockTreeNode("buf", NodeKind.BUFFER, Point(0, 0), side=Side.BACK)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(ValueError):
            ClockTreeNode("x", NodeKind.SINK, Point(0, 0), capacitance=-1)


class TestTreeStructure:
    def test_root_must_be_root_kind(self):
        with pytest.raises(ValueError):
            ClockTree(ClockTreeNode("x", NodeKind.STEINER, Point(0, 0)))

    def test_root_with_parent_rejected(self):
        root = ClockTreeNode("r", NodeKind.ROOT, Point(0, 0))
        child = ClockTreeNode("r2", NodeKind.ROOT, Point(1, 1))
        root.add_child(child)
        with pytest.raises(ValueError):
            ClockTree(child)

    def test_counts(self):
        tree = simple_tree()
        assert tree.node_count() == 4
        assert tree.sink_count() == 2
        assert tree.buffer_count() == 0
        assert tree.ntsv_count() == 0

    def test_find_missing_raises(self):
        with pytest.raises(KeyError):
            simple_tree().find("nope")

    def test_wirelength(self):
        tree = simple_tree()
        assert tree.wirelength() == pytest.approx(10 + 10 + 10)
        assert tree.wirelength(Side.FRONT) == pytest.approx(30)
        assert tree.wirelength(Side.BACK) == 0.0

class TestValidation:
    def test_valid_tree_passes(self):
        simple_tree().validate()

    def test_valid_side_change_passes(self):
        tree = ntsv_tree()
        assert tree.ntsv_count() == 2
        tree.validate()

    def test_wire_side_mismatch_detected(self):
        tree = simple_tree()
        tree.find("a").wire_side = Side.BACK
        with pytest.raises(ConnectivityError):
            tree.validate()

    def test_back_side_sink_detected(self):
        tree = simple_tree()
        sink = tree.find("a")
        sink.side = Side.BACK
        sink.wire_side = Side.BACK
        with pytest.raises(ConnectivityError):
            tree.validate()

    def test_ntsv_with_wrong_downstream_side_detected(self):
        tree = ntsv_tree()
        # Break the invariant: the wire below the lower via must be on the
        # front.
        tree.find("st1").wire_side = Side.BACK
        with pytest.raises(ConnectivityError):
            tree.validate()

    def test_broken_parent_link_detected(self):
        tree = simple_tree()
        sink = tree.find("a")
        sink.parent = tree.root  # inconsistent with root.children
        with pytest.raises(ConnectivityError):
            tree.validate()

    def test_cycle_built_with_add_child_detected(self):
        tree = simple_tree()
        tree.find("st1").add_child(tree.root)  # root -> st1 -> root
        with pytest.raises(ConnectivityError, match="cycle detected"):
            DesignArrays.from_clock_tree(tree)
        with pytest.raises(ConnectivityError, match="cycle detected"):
            tree.validate()

    def test_child_shared_by_two_parents_detected(self):
        tree = simple_tree()
        tree.root.children.append(tree.find("a"))  # "a" also stays under st1
        with pytest.raises(ConnectivityError):
            DesignArrays.from_clock_tree(tree)
        with pytest.raises(ConnectivityError):
            tree.validate()

    def test_parent_outside_the_tree_is_a_broken_link(self):
        tree = simple_tree()
        tree.find("a").parent = ClockTreeNode("stray", NodeKind.STEINER, Point(0, 0))
        design = DesignArrays.from_clock_tree(tree)
        assert design.parent_row[design.name_to_row["a"]] == -1
        for checked in (design, tree):
            with pytest.raises(ConnectivityError, match="broken parent link"):
                checked.validate()

    def test_duplicate_node_name_detected(self):
        tree = simple_tree()
        tree.find("st1").name = "a"  # now collides with the sink
        with pytest.raises(ConnectivityError, match="duplicate node name"):
            tree.validate()

    def test_find_follows_renames_and_detaches(self):
        # Raw node edits the tree never sees: validate() stays clean and
        # find() answers from the current structure.
        tree = simple_tree()
        node_a = tree.find("a")
        node_b = tree.find("b")
        node_a.name = "renamed_a"  # stale by rename
        node_b.parent.children.remove(node_b)  # stale by detachment
        node_b.parent = None
        tree.validate()
        assert tree.find("renamed_a") is node_a


class TestRawEdits:
    def test_find_sees_unrecorded_edits(self):
        tree = simple_tree()
        steiner = tree.find("st1")
        extra = ClockTreeNode("late", NodeKind.SINK, Point(5, 5), capacitance=1.0)
        steiner.add_child(extra)  # raw edit the tree never saw
        assert tree.find("late") is extra
        steiner.children.remove(extra)
        extra.parent = None
        with pytest.raises(KeyError):
            tree.find("late")

    def test_counts_fast_path_matches_filters(self):
        tree = buffered_tree()
        nodes, sinks, buffers, ntsvs = tree.counts()
        assert nodes == sum(1 for _ in tree.nodes())
        assert sinks == len(tree.sinks())
        assert buffers == len(tree.buffers())
        assert ntsvs == len(tree.ntsvs())


class TestPickling:
    def test_pickle_roundtrip_preserves_structure(self):
        import pickle

        tree = buffered_tree()
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.node_count() == tree.node_count()
        assert clone.find("a").parent.name == tree.find("a").parent.name
        assert clone.find("b").capacitance == 1.0
        # The name counter survives, so a recompiled design continues it.
        assert DesignArrays.from_clock_tree(clone).new_name("x") == (
            DesignArrays.from_clock_tree(tree).new_name("x")
        )

    def test_pickle_survives_deep_chain(self):
        import pickle
        import sys

        depth = sys.getrecursionlimit() + 1000
        root = ClockTreeNode("root", NodeKind.ROOT, Point(0, 0))
        tree = ClockTree(root)
        node = root
        for i in range(depth):
            child = ClockTreeNode(f"st{i}", NodeKind.STEINER, Point(i + 1.0, 0))
            node.add_child(child)
            node = child
        node.add_child(ClockTreeNode("leaf", NodeKind.SINK, Point(0, 1), capacitance=1.0))
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.node_count() == tree.node_count()
        names = [n.name for n in tree.nodes()]
        assert [n.name for n in clone.nodes()] == names
