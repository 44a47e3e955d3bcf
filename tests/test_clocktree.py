"""Unit tests for repro.clocktree: nodes, trees, and connectivity validation."""

import pytest

from repro.clocktree import ClockTree, ClockTreeNode, ConnectivityError, NodeKind
from repro.geometry import Point
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

    def test_detach(self):
        tree = simple_tree()
        sink = tree.find("a")
        sink.detach()
        assert sink.parent is None
        assert tree.sink_count() == 1

    def test_detach_root_rejected(self):
        tree = simple_tree()
        with pytest.raises(ValueError):
            tree.root.detach()

    def test_edge_length(self):
        tree = simple_tree()
        assert tree.find("st1").edge_length() == 10.0
        assert tree.find("a").edge_length() == 10.0
        assert tree.root.edge_length() == 0.0

    def test_depth_and_ancestors(self):
        tree = simple_tree()
        sink = tree.find("a")
        assert sink.depth() == 2
        assert [n.name for n in sink.ancestors()] == ["st1", "root"]

    def test_sink_count(self):
        tree = simple_tree()
        assert tree.root.sink_count() == 2
        assert tree.find("st1").sink_count() == 2
        assert tree.find("a").sink_count() == 1

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

    def test_bottom_up_order(self):
        tree = simple_tree()
        order = tree.nodes_bottom_up()
        positions = {node.name: i for i, node in enumerate(order)}
        assert positions["a"] < positions["st1"]
        assert positions["b"] < positions["st1"]
        assert positions["st1"] < positions["root"]

    def test_edges(self):
        tree = simple_tree()
        assert len(tree.edges()) == 3

    def test_find_missing_raises(self):
        with pytest.raises(KeyError):
            simple_tree().find("nope")

    def test_wirelength(self):
        tree = simple_tree()
        assert tree.wirelength() == pytest.approx(10 + 10 + 10)
        assert tree.wirelength(Side.FRONT) == pytest.approx(30)
        assert tree.wirelength(Side.BACK) == 0.0

    def test_max_depth(self):
        assert simple_tree().max_depth() == 2

    def test_new_name_is_unique(self):
        tree = simple_tree()
        names = {tree.new_name("buf") for _ in range(50)}
        assert len(names) == 50


class TestTreeEditing:
    def test_insert_on_edge(self):
        tree = simple_tree()
        sink = tree.find("a")
        node = tree.insert_on_edge(sink, NodeKind.STEINER, Point(10, 5))
        assert sink.parent is node
        assert node.parent is tree.find("st1")
        assert tree.node_count() == 5

    def test_insert_above_root_rejected(self):
        tree = simple_tree()
        with pytest.raises(ValueError):
            tree.insert_on_edge(tree.root, NodeKind.STEINER, Point(0, 0))

    def test_add_buffer(self):
        tree = simple_tree()
        buf = tree.add_buffer(tree.find("a"), Point(10, 5), input_capacitance=0.8)
        assert buf.is_buffer
        assert buf.capacitance == 0.8
        assert tree.buffer_count() == 1
        tree.validate()

    def test_add_ntsv_creates_valid_side_change(self):
        tree = simple_tree()
        steiner = tree.find("st1")
        # Move the trunk edge (root->st1) to the back side with two nTSVs.
        low = tree.add_ntsv(steiner, steiner.location, 0.004, Side.BACK)
        tree.add_ntsv(low, tree.root.location, 0.004, Side.FRONT)
        assert tree.ntsv_count() == 2
        tree.validate()

    def test_copy_is_deep(self):
        tree = simple_tree()
        clone = tree.copy()
        assert clone.node_count() == tree.node_count()
        clone.find("a").detach()
        assert tree.sink_count() == 2
        assert clone.sink_count() == 1

    def test_apply_visits_all_nodes(self):
        tree = simple_tree()
        visited = []
        tree.apply(lambda n: visited.append(n.name))
        assert set(visited) == {"root", "st1", "a", "b"}


class TestValidation:
    def test_valid_tree_passes(self):
        simple_tree().validate()

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
        tree = simple_tree()
        steiner = tree.find("st1")
        ntsv = tree.add_ntsv(steiner, steiner.location, 0.004, Side.BACK)
        # Break the invariant: the wire below the via must be on the front.
        steiner.wire_side = Side.BACK
        del ntsv
        with pytest.raises(ConnectivityError):
            tree.validate()

    def test_broken_parent_link_detected(self):
        tree = simple_tree()
        sink = tree.find("a")
        sink.parent = tree.root  # inconsistent with root.children
        with pytest.raises(ConnectivityError):
            tree.validate()

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
        node_b.detach()  # stale by detachment
        tree.validate()
        assert tree.find("renamed_a") is node_a


class TestVersioning:
    def test_tree_api_edits_and_touch_bump_version(self):
        tree = simple_tree()
        v0 = tree.version
        tree.add_buffer(tree.find("a"), Point(10, 5), input_capacitance=0.8)
        assert tree.version == v0 + 1
        tree.touch()
        assert tree.version == v0 + 2

    def test_find_sees_unrecorded_edits(self):
        tree = simple_tree()
        steiner = tree.find("st1")
        extra = ClockTreeNode("late", NodeKind.SINK, Point(5, 5), capacitance=1.0)
        steiner.add_child(extra)  # raw edit the tree never saw
        assert tree.find("late") is extra
        extra.detach()
        with pytest.raises(KeyError):
            tree.find("late")

    def test_counts_fast_path_matches_filters(self):
        tree = simple_tree()
        tree.add_buffer(tree.find("a"), Point(10, 5), input_capacitance=0.8)
        nodes, sinks, buffers, ntsvs = tree.counts()
        assert nodes == sum(1 for _ in tree.nodes())
        assert sinks == len(tree.sinks())
        assert buffers == len(tree.buffers())
        assert ntsvs == len(tree.ntsvs())


class TestPickling:
    def test_pickle_roundtrip_preserves_structure(self):
        import pickle

        tree = simple_tree()
        tree.add_buffer(tree.find("a"), Point(10, 5), input_capacitance=0.8)
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.node_count() == tree.node_count()
        assert clone.find("a").parent.name == tree.find("a").parent.name
        assert clone.find("b").capacitance == 1.0
        assert clone.new_name("x") == tree.new_name("x")  # counter preserved

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
        assert clone.max_depth() == tree.max_depth()
