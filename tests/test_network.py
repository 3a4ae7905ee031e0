import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from poolblend import Network, NodeLayer
from poolblend.errors import (
    DuplicateEdge,
    DuplicateName,
    FrozenNetwork,
    InvalidBounds,
    ParseError,
    UnknownNode,
)


def test_add_node_stores_attributes():
    net = Network("t")
    node = net.add_node(
        0, "c1", capacity_lower=0.0, capacity_upper=85.0, cost=15.0,
        attr={"quality": {"q1": 0.5, "q2": 1.9, "q3": 1.3, "q4": 1.0}},
    )
    assert node.layer is NodeLayer.INPUT
    assert node.capacity_upper == 85.0
    assert node.quality["q2"] == 1.9


def test_add_pool_defaults():
    net = Network("t")
    node = net.add_node(1, "o1", capacity_lower=0.0, capacity_upper=85.0)
    assert node.cost == 0.0
    assert node.capacity_bounds() == (0.0, 85.0)


def test_add_node_rejects_inverted_bounds():
    net = Network("t")
    with pytest.raises(InvalidBounds):
        net.add_node(0, "bad", capacity_lower=5.0, capacity_upper=3.0)


def test_add_node_rejects_duplicates():
    net = Network("t")
    net.add_node(0, "a")
    with pytest.raises(DuplicateName):
        net.add_node(1, "a")


def test_add_edge_relevance_and_errors():
    net = Network("t")
    net.add_node(0, "c1")
    net.add_node(1, "o1")
    net.add_node(1, "o2")
    edge = net.add_edge("c1", "o1", capacity_upper=85.0)
    assert edge.pq_relevant
    ignored = net.add_edge("o1", "o2")  # pool -> pool
    assert not ignored.pq_relevant
    with pytest.raises(UnknownNode):
        net.add_edge("c1", "missing")
    with pytest.raises(DuplicateEdge):
        net.add_edge("c1", "o1")


def test_frozen_network_rejects_mutation(h1):
    with pytest.raises(FrozenNetwork):
        h1.add_node(0, "extra")
    with pytest.raises(FrozenNetwork):
        h1.add_edge("i1", "j1")


def test_successors_predecessors_h1(h1):
    assert [n.name for n in h1.successors("i3")] == ["j1", "j2"]
    assert [n.name for n in h1.predecessors("j1")] == ["i3", "l1"]
    # bypass-only input filter
    assert [n.name for n in h1.predecessors("j1", layer=NodeLayer.INPUT)] == ["i3"]
    assert [n.name for n in h1.predecessors("j2", layer=NodeLayer.INPUT)] == ["i3"]


def test_successors_of_unconnected_node():
    net = Network("t")
    net.add_node(0, "lonely")
    assert net.successors("lonely") == []
    with pytest.raises(UnknownNode):
        net.successors("ghost")


def test_mutual_consistency_h1(h1):
    for name in h1.nodes:
        for succ in h1.successors(name):
            assert name in [n.name for n in h1.predecessors(succ.name)]
        for pred in h1.predecessors(name):
            assert name in [n.name for n in h1.successors(pred.name)]


def test_layer_queries(h1):
    assert h1.inputs() == ["i1", "i2", "i3"]
    assert h1.pools() == ["l1"]
    assert h1.outputs() == ["j1", "j2"]
    assert h1.inputs_to_pool("l1") == ["i1", "i2"]
    assert h1.inputs_to_output("j2") == ["i3"]
    assert h1.quality_keys() == ["sulfur"]


def test_json_round_trip_h1(h1):
    data = h1.to_json()
    back = Network.from_json(data)
    assert back.structurally_equal(h1)
    assert back.to_json() == data


def test_json_preserves_absent_capacity(h1):
    doc = json.loads(h1.to_json())
    (pool_doc,) = [n for n in doc["nodes"] if n["name"] == "l1"]
    assert pool_doc["capacity"] == [None, None]
    back = Network.from_json(h1.to_json())
    assert back.nodes["l1"].capacity_lower is None
    assert back.nodes["l1"].capacity_upper is None


def test_parse_error_names_missing_field(h1):
    doc = json.loads(h1.to_json())
    del doc["nodes"][0]["layer"]
    with pytest.raises(ParseError, match=r"\$\.nodes\[0\].*layer"):
        Network.from_json(json.dumps(doc))


def test_parse_error_on_bad_document():
    with pytest.raises(ParseError):
        Network.from_json(b"not json at all")
    with pytest.raises(ParseError, match="name"):
        Network.from_json(json.dumps({"nodes": [], "edges": []}))


_name = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


@st.composite
def networks(draw):
    net = Network(draw(_name))
    n_inputs = draw(st.integers(1, 3))
    n_pools = draw(st.integers(1, 2))
    n_outputs = draw(st.integers(1, 2))
    inputs = [f"i{k}" for k in range(n_inputs)]
    pools = [f"l{k}" for k in range(n_pools)]
    outputs = [f"j{k}" for k in range(n_outputs)]
    caps = st.one_of(st.none(), st.floats(0, 100, allow_nan=False))
    for name in inputs:
        qual = {"k0": draw(st.floats(0, 5, allow_nan=False))}
        net.add_node(0, name, capacity_upper=draw(caps), cost=draw(st.floats(0, 20)),
                     attr={"quality": qual})
    for name in pools:
        net.add_node(1, name, capacity_upper=draw(caps))
    for name in outputs:
        net.add_node(
            2, name, capacity_upper=draw(caps), cost=draw(st.floats(0, 20)),
            attr={"quality_upper": {"k0": draw(st.floats(0, 5, allow_nan=False))}},
        )
    candidates = (
        [(i, l) for i in inputs for l in pools]
        + [(i, j) for i in inputs for j in outputs]
        + [(l, j) for l in pools for j in outputs]
    )
    for src, dst in candidates:
        if draw(st.booleans()):
            net.add_edge(src, dst, capacity_upper=draw(caps))
    return net.freeze()


@given(networks())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_property(net):
    back = Network.from_json(net.to_json())
    assert back.to_json() == net.to_json()


@given(networks())
@settings(max_examples=30, deadline=None)
def test_successor_predecessor_duality_property(net):
    for name in net.nodes:
        for succ in net.successors(name):
            assert name in [n.name for n in net.predecessors(succ.name)]


def test_parse_error_on_bad_attr(h1):
    doc = json.loads(h1.to_json())
    doc["nodes"][0]["attr"] = ["not", "a", "dict"]
    with pytest.raises(ParseError, match="attr"):
        Network.from_json(json.dumps(doc))


def test_nan_capacity_rejected(h1):
    net = Network("n")
    with pytest.raises(InvalidBounds, match="capacity_upper is NaN"):
        net.add_node(0, "i1", capacity_upper=math.nan)
    with pytest.raises(InvalidBounds, match="capacity_lower is NaN"):
        net.add_node(0, "i1", capacity_lower=math.nan)
    assert "i1" not in net.nodes
    # json.dumps writes NaN, and json.loads reads it back as a float
    doc = json.loads(h1.to_json())
    doc["nodes"][0]["capacity"] = [None, math.nan]
    with pytest.raises(InvalidBounds, match="i1"):
        Network.from_json(json.dumps(doc))


def test_infinite_lower_capacity_rejected(h1):
    net = Network("n")
    with pytest.raises(InvalidBounds, match="capacity_lower is infinite"):
        net.add_node(0, "i1", capacity_lower=math.inf)
    net.add_node(0, "i1")
    net.add_node(2, "j1")
    with pytest.raises(InvalidBounds, match="capacity_lower is infinite"):
        net.add_edge("i1", "j1", capacity_lower=math.inf)
    assert not net.edges
    # json.dumps writes Infinity, and json.loads reads it back as a float
    doc = json.loads(h1.to_json())
    doc["nodes"][0]["capacity"] = [math.inf, None]
    with pytest.raises(InvalidBounds, match="i1"):
        Network.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, match",
    [
        ("nodes.0.cost", math.nan, r"\$\.nodes\[0\]\.cost: expected a finite number"),
        ("nodes.0.cost", math.inf, r"\$\.nodes\[0\]\.cost: expected a finite number"),
        ("edges.0.fixed_cost", math.nan, r"\$\.edges\[0\]\.fixed_cost: expected a finite"),
        ("nodes.0.attr.quality.sulfur", "3.0", r"\.attr\.quality\.sulfur: expected number"),
        ("nodes.0.attr.quality.sulfur", True, r"\.attr\.quality\.sulfur: expected number"),
        ("nodes.0.attr.quality.sulfur", math.nan, r"\.attr\.quality\.sulfur: expected a finite"),
        ("nodes.3.attr.quality_upper.sulfur", -math.inf, r"\[3\]\.attr\.quality_upper\.sulfur"),
        ("nodes.3.attr.quality_upper.sulfur", None, r"quality_upper\.sulfur: expected number"),
        ("nodes.3.attr.quality_lower", {"sulfur": "low"}, r"quality_lower\.sulfur: expected"),
        ("nodes.0.attr.quality", [3.0], r"\$\.nodes\[0\]\.attr\.quality: expected object"),
    ],
)
def test_json_non_numbers_rejected_with_path(h1, path, value, match):
    doc = json.loads(h1.to_json())
    *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    with pytest.raises(ParseError, match=match):
        Network.from_json(json.dumps(doc))
