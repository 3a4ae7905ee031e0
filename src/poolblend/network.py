"""Layered pooling network: inputs feed pools and outputs, pools feed outputs.

The network is a plain data container.  Nodes live in one of three layers
(input, pool, output) and carry capacities, costs and free-form attributes;
inputs store their material qualities under ``attr["quality"]`` and outputs
store the acceptable composition range under ``attr["quality_upper"]`` (and
optionally ``attr["quality_lower"]``).  Edges between layers other than
input->pool, input->output and pool->output are kept but flagged as not
relevant to the flow formulation.

Absent capacity bounds stay absent here (``None``); they are normalized to
``[0, inf)`` only when an optimization model is built, so a JSON round-trip
preserves exactly what the user wrote.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator

from .errors import (
    DuplicateEdge,
    DuplicateName,
    FrozenNetwork,
    InvalidBounds,
    ParseError,
    UnknownNode,
)

__all__ = ["NodeLayer", "Node", "Edge", "Network"]

# layer pairs that take part in the flow formulation
_PQ_LAYER_PAIRS = {
    (0, 1),  # input -> pool
    (0, 2),  # input -> output (bypass)
    (1, 2),  # pool -> output
}


class NodeLayer(IntEnum):
    INPUT = 0
    POOL = 1
    OUTPUT = 2


@dataclass
class Node:
    name: str
    layer: NodeLayer
    capacity_lower: float | None = None
    capacity_upper: float | None = None
    cost: float = 0.0
    attr: dict = field(default_factory=dict)

    @property
    def quality(self) -> dict[str, float]:
        return self.attr.get("quality", {})

    @property
    def quality_upper(self) -> dict[str, float]:
        return self.attr.get("quality_upper", {})

    @property
    def quality_lower(self) -> dict[str, float]:
        return self.attr.get("quality_lower", {})

    def capacity_bounds(self) -> tuple[float, float]:
        """Capacity normalized to [0, inf) defaults."""
        lo = 0.0 if self.capacity_lower is None else self.capacity_lower
        hi = math.inf if self.capacity_upper is None else self.capacity_upper
        return lo, hi


@dataclass
class Edge:
    source: str
    destination: str
    cost: float = 0.0
    fixed_cost: float = 0.0
    capacity_lower: float | None = None
    capacity_upper: float | None = None
    attr: dict = field(default_factory=dict)
    pq_relevant: bool = True

    def capacity_bounds(self) -> tuple[float, float]:
        lo = 0.0 if self.capacity_lower is None else self.capacity_lower
        hi = math.inf if self.capacity_upper is None else self.capacity_upper
        return lo, hi


def _check_capacity(lower, upper, what: str) -> None:
    for label, value in (("capacity_lower", lower), ("capacity_upper", upper)):
        if value is not None and math.isnan(value):
            raise InvalidBounds(f"{what}: {label} is NaN")
    if lower is not None and lower < 0:
        raise InvalidBounds(f"{what}: capacity_lower {lower} is negative")
    if lower is not None and math.isinf(lower):
        raise InvalidBounds(f"{what}: capacity_lower is infinite")
    if upper is not None and upper < 0:
        raise InvalidBounds(f"{what}: capacity_upper {upper} is negative")
    if lower is not None and upper is not None and lower > upper:
        raise InvalidBounds(f"{what}: capacity_lower {lower} > capacity_upper {upper}")


class Network:
    """Named collection of nodes and edges with layer-aware queries.

    Mutation is only allowed before :meth:`freeze`; a frozen network is
    immutable and can be shared freely.
    """

    def __init__(self, name: str):
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.edges: dict[tuple[str, str], Edge] = {}
        self._frozen = False

    # -- construction -------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenNetwork(f"network {self.name!r} is frozen")

    def add_node(
        self,
        layer: int | NodeLayer,
        name: str,
        capacity_lower: float | None = None,
        capacity_upper: float | None = None,
        cost: float = 0.0,
        attr: dict | None = None,
    ) -> Node:
        self._check_mutable()
        if name in self.nodes:
            raise DuplicateName(f"node {name!r} already in network")
        _check_capacity(capacity_lower, capacity_upper, f"node {name!r}")
        node = Node(
            name=name,
            layer=NodeLayer(layer),
            capacity_lower=capacity_lower,
            capacity_upper=capacity_upper,
            cost=cost,
            attr=dict(attr) if attr else {},
        )
        self.nodes[name] = node
        return node

    def add_edge(
        self,
        source: str,
        destination: str,
        capacity_lower: float | None = None,
        capacity_upper: float | None = None,
        cost: float = 0.0,
        fixed_cost: float = 0.0,
        attr: dict | None = None,
    ) -> Edge:
        self._check_mutable()
        for endpoint in (source, destination):
            if endpoint not in self.nodes:
                raise UnknownNode(f"edge endpoint {endpoint!r} not in network")
        key = (source, destination)
        if key in self.edges:
            raise DuplicateEdge(f"edge {source!r} -> {destination!r} already in network")
        _check_capacity(capacity_lower, capacity_upper, f"edge {source!r}->{destination!r}")
        pair = (int(self.nodes[source].layer), int(self.nodes[destination].layer))
        edge = Edge(
            source=source,
            destination=destination,
            cost=cost,
            fixed_cost=fixed_cost,
            capacity_lower=capacity_lower,
            capacity_upper=capacity_upper,
            attr=dict(attr) if attr else {},
            pq_relevant=pair in _PQ_LAYER_PAIRS,
        )
        self.edges[key] = edge
        return edge

    def freeze(self) -> "Network":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- queries -------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise UnknownNode(f"node {name!r} not in network") from None

    def successors(self, name: str, layer: int | NodeLayer | None = None) -> list[Node]:
        self.node(name)
        out = [
            self.nodes[dst]
            for (src, dst) in self.edges
            if src == name and (layer is None or self.nodes[dst].layer == NodeLayer(layer))
        ]
        return sorted(out, key=lambda n: n.name)

    def predecessors(self, name: str, layer: int | NodeLayer | None = None) -> list[Node]:
        self.node(name)
        out = [
            self.nodes[src]
            for (src, dst) in self.edges
            if dst == name and (layer is None or self.nodes[src].layer == NodeLayer(layer))
        ]
        return sorted(out, key=lambda n: n.name)

    def layer_nodes(self, layer: int | NodeLayer) -> list[str]:
        layer = NodeLayer(layer)
        return sorted(n for n, node in self.nodes.items() if node.layer == layer)

    def inputs(self) -> list[str]:
        return self.layer_nodes(NodeLayer.INPUT)

    def pools(self) -> list[str]:
        return self.layer_nodes(NodeLayer.POOL)

    def outputs(self) -> list[str]:
        return self.layer_nodes(NodeLayer.OUTPUT)

    def pq_edges(self) -> Iterator[Edge]:
        for key in sorted(self.edges):
            edge = self.edges[key]
            if edge.pq_relevant:
                yield edge

    def inputs_to_pool(self, pool: str) -> list[str]:
        """I_l: input names feeding the pool."""
        return [n.name for n in self.predecessors(pool, NodeLayer.INPUT)]

    def inputs_to_output(self, output: str) -> list[str]:
        """I_j: input names with a bypass edge to the output."""
        return [n.name for n in self.predecessors(output, NodeLayer.INPUT)]

    def pools_to_output(self, output: str) -> list[str]:
        """L_j: pool names feeding the output."""
        return [n.name for n in self.predecessors(output, NodeLayer.POOL)]

    def outputs_of_pool(self, pool: str) -> list[str]:
        """J_l: output names fed by the pool."""
        return [n.name for n in self.successors(pool, NodeLayer.OUTPUT)]

    def quality_keys(self) -> list[str]:
        """K: sorted union of input quality keys."""
        keys: set[str] = set()
        for name in self.inputs():
            keys.update(self.nodes[name].quality.keys())
        return sorted(keys)

    # -- serialization -------------------------------------------------

    def to_json(self) -> bytes:
        doc = {
            "name": self.name,
            "nodes": [
                {
                    "name": node.name,
                    "layer": int(node.layer),
                    "capacity": [node.capacity_lower, node.capacity_upper],
                    "cost": node.cost,
                    "attr": node.attr,
                }
                for _, node in sorted(self.nodes.items())
            ],
            "edges": [
                {
                    "source": edge.source,
                    "destination": edge.destination,
                    "capacity": [edge.capacity_lower, edge.capacity_upper],
                    "cost": edge.cost,
                    "fixed_cost": edge.fixed_cost,
                    "attr": edge.attr,
                }
                for _, edge in sorted(self.edges.items())
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes | str) -> "Network":
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("top-level document must be an object")
        name = _require(doc, "name", str, "$")
        net = cls(name)
        for idx, node_doc in enumerate(_require(doc, "nodes", list, "$")):
            path = f"$.nodes[{idx}]"
            if not isinstance(node_doc, dict):
                raise ParseError(f"{path}: expected object")
            lo, hi = _parse_capacity(node_doc, path)
            net.add_node(
                layer=_require(node_doc, "layer", int, path),
                name=_require(node_doc, "name", str, path),
                capacity_lower=lo,
                capacity_upper=hi,
                cost=_finite(node_doc.get("cost", 0.0), f"{path}.cost"),
                attr=_parse_attr(node_doc, path),
            )
        for idx, edge_doc in enumerate(_require(doc, "edges", list, "$")):
            path = f"$.edges[{idx}]"
            if not isinstance(edge_doc, dict):
                raise ParseError(f"{path}: expected object")
            lo, hi = _parse_capacity(edge_doc, path)
            net.add_edge(
                source=_require(edge_doc, "source", str, path),
                destination=_require(edge_doc, "destination", str, path),
                capacity_lower=lo,
                capacity_upper=hi,
                cost=_finite(edge_doc.get("cost", 0.0), f"{path}.cost"),
                fixed_cost=_finite(edge_doc.get("fixed_cost", 0.0), f"{path}.fixed_cost"),
                attr=_parse_attr(edge_doc, path),
            )
        return net.freeze()

    def structurally_equal(self, other: "Network") -> bool:
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, {len(self.nodes)} nodes, {len(self.edges)} edges"
            f"{', frozen' if self._frozen else ''})"
        )


def _require(doc: dict, key: str, typ, path: str):
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    value = doc[key]
    if typ is int and isinstance(value, bool):
        raise ParseError(f"{path}.{key}: expected {typ.__name__}")
    if not isinstance(value, typ):
        raise ParseError(f"{path}.{key}: expected {typ.__name__}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected number")
    return float(value)


def _finite(value, path: str) -> float:
    number = _number(value, path)
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {number}")
    return number


def _parse_capacity(doc: dict, path: str) -> tuple[float | None, float | None]:
    cap = doc.get("capacity", [None, None])
    if not isinstance(cap, list) or len(cap) != 2:
        raise ParseError(f"{path}.capacity: expected [lower, upper]")
    lo = None if cap[0] is None else _number(cap[0], f"{path}.capacity[0]")
    hi = None if cap[1] is None else _number(cap[1], f"{path}.capacity[1]")
    return lo, hi


def _parse_attr(doc: dict, path: str) -> dict:
    attr = doc.get("attr") or {}
    if not isinstance(attr, dict):
        raise ParseError(f"{path}.attr: expected object")
    for key in ("quality", "quality_upper", "quality_lower"):
        table = attr.get(key, {})
        if not isinstance(table, dict):
            raise ParseError(f"{path}.attr.{key}: expected object")
        for k, value in table.items():
            _finite(value, f"{path}.attr.{key}.{k}")
    return attr
