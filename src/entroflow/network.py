"""Network problems: DAG topology, sessions, wiretaps, rates and capacities.

A problem bundles a directed acyclic network, a connection requirement
(sessions with rates, origins, sink sets, optionally a total incremental
order), a wiretapping pattern, and the per-edge capacities.  Edges marked
``forwards`` duplicate the message of another edge incident to their tail;
they carry no encoder of their own, which keeps the variable count of the
LP machinery equal to the number of distinct messages.

`NetworkProblem` also owns the variable namespace that codes, code search
and the Shannon LP share: a session is named by its id, a distinct message
by the id of its non-forwarding edge, and a node's randomness by
`V_<node>`.  What each encoder reads, what each sink decodes from and what
each wiretap observes are derived there once per problem.

Capacities are exact rationals or the explicit ``UNBOUNDED`` marker, which
is never approximated by a large number in the data model; only max-flow
replaces it locally by (sum of finite capacities + 1).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Container, Mapping, NamedTuple, Optional, Sequence, Union

from entroflow.entropy import as_fraction

__all__ = [
    "Capacity",
    "UNBOUNDED",
    "Edge",
    "Network",
    "Session",
    "ConnectionRequirement",
    "Wiretap",
    "WiretapPattern",
    "RateCapacityTuple",
    "NetworkProblem",
    "InputRef",
    "SchemaError",
    "randomness_variable",
    "validate",
    "name_clashes",
    "ancestral_order",
    "min_cut",
    "parse",
    "serialize",
    "problem_from_dict",
    "problem_to_dict",
]


class SchemaError(ValueError):
    """Raised when a problem document violates the JSON schema."""


@dataclass(frozen=True, order=True)
class Capacity:
    """An exact nonnegative rational capacity, or unbounded."""

    value: Optional[Fraction]  # None means unbounded

    def __post_init__(self) -> None:
        if self.value is not None and self.value < 0:
            raise ValueError("capacities must be nonnegative")

    @property
    def is_unbounded(self) -> bool:
        return self.value is None

    @classmethod
    def of(cls, value: Union["Capacity", Fraction, int, str]) -> "Capacity":
        if isinstance(value, Capacity):
            return value
        if isinstance(value, str) and value.strip().lower() == "unbounded":
            return UNBOUNDED
        return cls(as_fraction(value))

    def scale(self, factor: Fraction) -> "Capacity":
        if factor < 0:
            raise ValueError("capacity scale factors must be nonnegative")
        return self if self.is_unbounded else Capacity(self.value * factor)

    def add(self, other: "Capacity") -> "Capacity":
        if self.is_unbounded or other.is_unbounded:
            return UNBOUNDED
        return Capacity(self.value + other.value)

    def __str__(self) -> str:
        return "unbounded" if self.is_unbounded else str(self.value)


UNBOUNDED = Capacity(None)


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    capacity: Capacity
    forwards: Optional[str] = None  # id of the edge whose message this one copies


class _EdgeIndex(NamedTuple):
    by_id: dict[str, Edge]
    into: dict[str, tuple[Edge, ...]]
    out_of: dict[str, tuple[Edge, ...]]


@dataclass(frozen=True)
class Network:
    """Nodes and edges of a DAG.

    The lookups `edge`, `in_edges` and `out_edges` read one index that is
    built on first use and kept on the (immutable) instance.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def _index(self) -> _EdgeIndex:
        by_id: dict[str, Edge] = {}
        into: dict[str, list[Edge]] = {}
        out_of: dict[str, list[Edge]] = {}
        for e in self.edges:
            by_id.setdefault(e.id, e)  # the first edge with an id wins
            into.setdefault(e.head, []).append(e)
            out_of.setdefault(e.tail, []).append(e)
        return _EdgeIndex(
            by_id,
            {v: tuple(es) for v, es in into.items()},
            {v: tuple(es) for v, es in out_of.items()},
        )

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._index.by_id[edge_id]
        except KeyError:
            raise KeyError(f"unknown edge {edge_id!r}") from None

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return self._index.into.get(node, ())

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return self._index.out_of.get(node, ())

    def message_of(self, edge_id: str) -> str:
        """Resolve forwarding chains to the distinct message an edge carries."""
        seen = set()
        e = self.edge(edge_id)
        while e.forwards is not None:
            if e.id in seen:
                raise ValueError(f"forwarding cycle through {e.id!r}")
            seen.add(e.id)
            e = self.edge(e.forwards)
        return e.id


@dataclass(frozen=True)
class Session:
    id: str
    rate: Fraction
    origin: str
    sinks: tuple[str, ...]


@dataclass(frozen=True)
class ConnectionRequirement:
    sessions: tuple[Session, ...]
    incremental_order: Optional[tuple[str, ...]] = None

    def session(self, session_id: str) -> Session:
        for s in self.sessions:
            if s.id == session_id:
                return s
        raise KeyError(f"unknown session {session_id!r}")


@dataclass(frozen=True)
class Wiretap:
    sources: tuple[str, ...]  # session ids the adversary targets
    edges: tuple[str, ...]  # edge ids the adversary observes


@dataclass(frozen=True)
class WiretapPattern:
    taps: tuple[Wiretap, ...] = ()


@dataclass(frozen=True)
class RateCapacityTuple:
    """Session rates and capacities of the capacitated edges, as one value.

    Supports exact linear arithmetic so tuple identities can be tested
    componentwise.
    """

    rates: Mapping[str, Fraction]
    capacities: Mapping[str, Capacity]

    def scale(self, factor: Union[Fraction, int, str]) -> "RateCapacityTuple":
        f = as_fraction(factor)
        return RateCapacityTuple(
            {k: f * v for k, v in self.rates.items()},
            {k: c.scale(f) for k, c in self.capacities.items()},
        )

    def add(self, other: "RateCapacityTuple") -> "RateCapacityTuple":
        if set(self.rates) != set(other.rates) or set(self.capacities) != set(other.capacities):
            raise ValueError("tuples cover different sessions or edges")
        return RateCapacityTuple(
            {k: v + other.rates[k] for k, v in self.rates.items()},
            {k: c.add(other.capacities[k]) for k, c in self.capacities.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RateCapacityTuple):
            return NotImplemented
        return dict(self.rates) == dict(other.rates) and dict(self.capacities) == dict(
            other.capacities
        )


InputRef = tuple[str, str]  # ("session", id) | ("edge", id) | ("randomness", node)


def randomness_variable(node: str) -> str:
    """The variable name of a node's randomness."""
    return f"V_{node}"


@dataclass(frozen=True)
class NetworkProblem:
    """A network with its sessions, wiretaps and randomness nodes.

    `validate`, `ancestral_order` and the variable derivations (`messages`,
    `encoder_inputs`, `sink_inputs`, `wiretap_views`,
    `default_randomness_nodes`) work out their results once per
    (immutable) instance and keep them on it, on first use or all at once
    through `derive`; a failed derivation is not kept, so it fails again
    on the next call.
    """

    network: Network
    requirement: ConnectionRequirement
    wiretaps: WiretapPattern = WiretapPattern()
    randomness_nodes: tuple[str, ...] = ()

    @cached_property
    def _errors(self) -> tuple[str, ...]:
        return tuple(_structural_errors(self))

    @cached_property
    def _ancestral_order(self) -> tuple[str, ...]:
        return tuple(_derive_ancestral_order(self))

    @cached_property
    def messages(self) -> tuple[str, ...]:
        """The distinct messages (non-forwarding edge ids), in ancestral order."""
        net = self.network
        edge_order = self._ancestral_order[len(self.requirement.sessions) :]
        return tuple(eid for eid in edge_order if net.edge(eid).forwards is None)

    @cached_property
    def _tail_inputs(self) -> dict[str, tuple[InputRef, ...]]:
        position = {name: i for i, name in enumerate(self._ancestral_order)}
        net = self.network
        sessions = sorted(self.requirement.sessions, key=lambda s: s.id)
        out = {}
        for node in net.nodes:
            refs = [("session", s.id) for s in sessions if s.origin == node]
            into = sorted(net.in_edges(node), key=lambda e: position[e.id])
            out[node] = tuple(refs + [("edge", e.id) for e in into])
        return out

    def encoder_inputs(self, edge_id: str, randomized: Container[str]) -> tuple[InputRef, ...]:
        """The causal inputs of an edge's encoder, in canonical order.

        Sessions originating at the edge's tail (by id), the edges into the
        tail (in ancestral order), and last the tail's randomness when the
        tail is one of the `randomized` nodes.
        """
        tail = self.network.edge(edge_id).tail
        refs = self._tail_inputs[tail]
        return refs + (("randomness", tail),) if tail in randomized else refs

    def input_variable(self, ref: InputRef) -> str:
        """The variable an input ref names: a session id, the message an
        edge carries, or `V_<node>`."""
        kind, name = ref
        if kind == "session":
            return name
        if kind == "edge":
            return self.network.message_of(name)
        return randomness_variable(name)

    @cached_property
    def _sink_inputs(self) -> dict[str, tuple[str, ...]]:
        net = self.network
        out = {}
        for node in net.nodes:
            names = [net.message_of(e.id) for e in net.in_edges(node)]
            names += [s.id for s in self.requirement.sessions if s.origin == node]
            out[node] = tuple(dict.fromkeys(names))
        return out

    def sink_inputs(self, sink: str) -> tuple[str, ...]:
        """What a sink decodes from: the messages on its in-edges, then the
        sessions originating there, each once."""
        return self._sink_inputs[sink]

    @cached_property
    def wiretap_views(self) -> tuple[tuple[str, ...], ...]:
        """Per wiretap, the distinct messages it observes, in edge order."""
        net = self.network
        return tuple(
            tuple(dict.fromkeys(net.message_of(eid) for eid in tap.edges))
            for tap in self.wiretaps.taps
        )

    @cached_property
    def default_randomness_nodes(self) -> tuple[str, ...]:
        """Nodes that may hold randomness when a caller asks for it: the
        declared ones, or else every tail of a non-forwarding edge; sorted."""
        tails = {e.tail for e in self.network.edges if e.forwards is None}
        return tuple(sorted(self.randomness_nodes or tails))

    def derive(self) -> None:
        """Work out every kept derivation now, so that later callers
        (concurrent threads among them) only read them.  A problem that
        fails `validate` is left as it is: its derivations may raise."""
        if self._errors:
            return
        for name, attr in vars(NetworkProblem).items():
            if isinstance(attr, cached_property):
                getattr(self, name)

    @property
    def rate_capacity(self) -> RateCapacityTuple:
        return RateCapacityTuple(
            {s.id: s.rate for s in self.requirement.sessions},
            {e.id: e.capacity for e in self.network.edges if not e.capacity.is_unbounded},
        )

    def demands(self) -> dict[str, tuple[str, ...]]:
        """Per-sink demanded sessions, with the incremental order expanded."""
        order = self.requirement.incremental_order
        rank = {sid: i for i, sid in enumerate(order)} if order else None
        out: dict[str, set[str]] = {}
        for s in self.requirement.sessions:
            for sink in s.sinks:
                wanted = out.setdefault(sink, set())
                wanted.add(s.id)
                if rank is not None and s.id in rank:
                    for other, r in rank.items():
                        if r < rank[s.id]:
                            wanted.add(other)
        ordered = {}
        for sink in sorted(out):
            ordered[sink] = tuple(sorted(out[sink]))
        return ordered


def validate(problem: NetworkProblem) -> list[str]:
    """Structural validation; the returned list is empty iff the problem is sound.

    The errors are found once per problem instance; each call returns a
    fresh list.
    """
    return list(problem._errors)


def _structural_errors(problem: NetworkProblem) -> list[str]:
    errors: list[str] = []
    net = problem.network
    nodes = set(net.nodes)
    if len(nodes) != len(net.nodes):
        errors.append("duplicate node ids")
    edge_ids = [e.id for e in net.edges]
    if len(set(edge_ids)) != len(edge_ids):
        errors.append("duplicate edge ids")
    known_edges = set(edge_ids)
    for e in net.edges:
        if e.tail not in nodes:
            errors.append(f"unknown node {e.tail!r} (tail of {e.id})")
        if e.head not in nodes:
            errors.append(f"unknown node {e.head!r} (head of {e.id})")
        if e.forwards is not None:
            if e.forwards not in known_edges:
                errors.append(f"edge {e.id} forwards unknown edge {e.forwards!r}")
            else:
                parent = net.edge(e.forwards)
                if parent.head != e.tail:
                    errors.append(
                        f"edge {e.id} forwards {e.forwards}, which does not enter its tail"
                    )
    # Cycle detection on nodes (Kahn).
    if not errors:
        indeg = {v: 0 for v in net.nodes}
        for e in net.edges:
            indeg[e.head] += 1
        queue = deque(v for v, d in sorted(indeg.items()) if d == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for e in net.out_edges(v):
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    queue.append(e.head)
        if seen != len(net.nodes):
            stuck = sorted(v for v, d in indeg.items() if d > 0)
            errors.append("cycle detected: " + ",".join(stuck))
    seen_sessions = set()
    for s in problem.requirement.sessions:
        if s.id in seen_sessions:
            errors.append(f"duplicate session id {s.id!r}")
        seen_sessions.add(s.id)
        if s.rate < 0:
            errors.append(f"session {s.id} has a negative rate")
        if s.origin not in nodes:
            errors.append(f"unknown node {s.origin!r} (origin of session {s.id})")
        for sink in s.sinks:
            if sink not in nodes:
                errors.append(f"unknown node {sink!r} (sink of session {s.id})")
            elif sink == s.origin:
                errors.append(f"session {s.id}: sink {sink!r} coincides with its origin")
    order = problem.requirement.incremental_order
    if order is not None:
        if sorted(order) != sorted(seen_sessions):
            errors.append("incremental order must list every session exactly once")
    for i, tap in enumerate(problem.wiretaps.taps):
        for sid in tap.sources:
            if sid not in seen_sessions:
                errors.append(f"wiretap {i} references unknown session {sid!r}")
        for eid in tap.edges:
            if eid not in known_edges:
                errors.append(f"wiretap {i} references unknown edge {eid!r}")
    for node in problem.randomness_nodes:
        if node not in nodes:
            errors.append(f"randomness declared at unknown node {node!r}")
    if len(set(problem.randomness_nodes)) != len(problem.randomness_nodes):
        errors.append("duplicate randomness nodes")
    errors += name_clashes(problem, problem.randomness_nodes)
    return errors


def name_clashes(problem: NetworkProblem, randomized: Sequence[str]) -> list[str]:
    """Names shared by a session, an edge and the randomness of a node in
    `randomized`.

    Codes, the code search and the Shannon LP name sessions, messages (by
    edge id) and node randomness in one namespace.  `validate` checks the
    declared randomness nodes; a caller that models randomness at the
    `default_randomness_nodes` checks those too.
    """
    errors = []
    owners: dict[str, tuple[str, str]] = {}
    for name, kind, label in (
        [(s.id, "session", f"session {s.id!r}") for s in problem.requirement.sessions]
        + [(e.id, "edge", f"edge {e.id!r}") for e in problem.network.edges]
        + [
            (randomness_variable(v), "randomness", f"the randomness of node {v!r}")
            for v in randomized
        ]
    ):
        first_kind, first_label = owners.setdefault(name, (kind, label))
        if first_kind != kind:
            errors.append(f"name {name!r} is used by both {first_label} and {label}")
    return errors


def ancestral_order(problem: NetworkProblem) -> list[str]:
    """Sessions (by id), then edge ids in a deterministic topological order.

    Edges are layered by the longest chain of edges feeding them, so every
    edge appears after every session at its tail and after every edge into
    its tail; ties within a layer break by lexicographic edge id.

    The order is derived once per problem instance and each call returns
    a fresh list.  A problem with a cycle or an unknown reference raises
    ValueError on every call.
    """
    return list(problem._ancestral_order)


def _derive_ancestral_order(problem: NetworkProblem) -> list[str]:
    errors = validate(problem)
    if any("cycle" in e or "unknown" in e for e in errors):
        raise ValueError("; ".join(errors))
    net = problem.network
    order = [s.id for s in sorted(problem.requirement.sessions, key=lambda s: s.id)]
    indeg = {e.id: 0 for e in net.edges}
    # An edge depends on all edges into its tail.
    dependents: dict[str, list[str]] = {e.id: [] for e in net.edges}
    for e in net.edges:
        for upstream in net.in_edges(e.tail):
            indeg[e.id] += 1
            dependents[upstream.id].append(e.id)
    depth = {eid: 0 for eid, d in indeg.items() if d == 0}
    queue = deque(sorted(depth))
    placed = len(depth)
    while queue:
        eid = queue.popleft()
        for nxt in dependents[eid]:
            depth[nxt] = max(depth.get(nxt, 0), depth[eid] + 1)
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
                placed += 1
    if placed != len(net.edges):
        raise ValueError("cyclic edge structure")
    order.extend(sorted(depth, key=lambda eid: (depth[eid], eid)))
    return order


def min_cut(problem: NetworkProblem, source: str, sink: str) -> Capacity:
    """Exact max-flow value between two nodes (Edmonds-Karp on rationals).

    Unbounded edges are locally replaced by (sum of finite capacities + 1);
    if the computed flow reaches that surrogate, the cut is unbounded.
    """
    net = problem.network
    if source not in net.nodes or sink not in net.nodes:
        raise KeyError("min_cut endpoints must be nodes of the network")
    if source == sink:
        return UNBOUNDED
    finite_total = sum(
        (e.capacity.value for e in net.edges if not e.capacity.is_unbounded),
        Fraction(0),
    )
    surrogate = finite_total + 1
    # residual[u][v] accumulated over parallel edges
    residual: dict[str, dict[str, Fraction]] = {v: {} for v in net.nodes}
    for e in net.edges:
        cap = surrogate if e.capacity.is_unbounded else e.capacity.value
        residual[e.tail][e.head] = residual[e.tail].get(e.head, Fraction(0)) + cap
        residual[e.head].setdefault(e.tail, Fraction(0))
    flow = Fraction(0)
    while True:
        parent: dict[str, str] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in sorted(residual[u]):
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            r = residual[u][v]
            bottleneck = r if bottleneck is None else min(bottleneck, r)
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, Fraction(0)) + bottleneck
            v = u
        flow += bottleneck
    if flow >= surrogate:
        return UNBOUNDED
    return Capacity(flow)


def problem_to_dict(problem: NetworkProblem) -> dict:
    doc: dict = {
        "nodes": list(problem.network.nodes),
        "edges": [],
        "sessions": [],
    }
    for e in problem.network.edges:
        entry = {
            "id": e.id,
            "tail": e.tail,
            "head": e.head,
            "capacity": str(e.capacity),
        }
        if e.forwards is not None:
            entry["forwards"] = e.forwards
        doc["edges"].append(entry)
    for s in problem.requirement.sessions:
        doc["sessions"].append(
            {
                "id": s.id,
                "rate": str(s.rate),
                "origin": s.origin,
                "sinks": list(s.sinks),
            }
        )
    if problem.requirement.incremental_order is not None:
        doc["incremental_order"] = list(problem.requirement.incremental_order)
    if problem.wiretaps.taps:
        doc["wiretaps"] = [
            {"sources": list(t.sources), "edges": list(t.edges)}
            for t in problem.wiretaps.taps
        ]
    if problem.randomness_nodes:
        doc["randomness"] = list(problem.randomness_nodes)
    return doc


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _array(value, where: str) -> Sequence:
    """An array (a list or tuple; a string is not one)."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{where}: expected an array, found {value!r}")
    return value


def _objects(value, where: str) -> Sequence:
    """An array of objects (dicts, as `json.loads` makes them)."""
    if not all(isinstance(entry, dict) for entry in _array(value, where)):
        raise SchemaError(f"{where}: expected an array of objects, found {value!r}")
    return value


def problem_from_dict(doc: Mapping) -> NetworkProblem:
    _require(isinstance(doc, Mapping), "document", "expected an object")
    _require("nodes" in doc, "document", "missing field 'nodes'")
    _require("edges" in doc, "document", "missing field 'edges'")
    _require("sessions" in doc, "document", "missing field 'sessions'")
    nodes = tuple(_array(doc["nodes"], "nodes"))
    _require(all(isinstance(node, str) for node in nodes), "nodes", "expected an array of strings")
    edges = []
    for i, entry in enumerate(_objects(doc["edges"], "edges")):
        where = f"edges[{i}]"
        for fieldname in ("id", "tail", "head", "capacity"):
            _require(fieldname in entry, where, f"missing field '{fieldname}'")
        try:
            cap = Capacity.of(entry["capacity"])
        except ValueError as exc:
            raise SchemaError(f"{where}: bad capacity {entry['capacity']!r} ({exc})")
        edges.append(
            Edge(
                id=str(entry["id"]),
                tail=str(entry["tail"]),
                head=str(entry["head"]),
                capacity=cap,
                forwards=str(entry["forwards"]) if "forwards" in entry else None,
            )
        )
    sessions = []
    for i, entry in enumerate(_objects(doc["sessions"], "sessions")):
        where = f"sessions[{i}]"
        for fieldname in ("id", "rate", "origin", "sinks"):
            _require(fieldname in entry, where, f"missing field '{fieldname}'")
        try:
            rate = as_fraction(entry["rate"])
        except ValueError as exc:
            raise SchemaError(f"{where}: bad rate {entry['rate']!r} ({exc})")
        sessions.append(
            Session(
                id=str(entry["id"]),
                rate=rate,
                origin=str(entry["origin"]),
                sinks=tuple(str(x) for x in _array(entry["sinks"], f"{where}.sinks")),
            )
        )
    order = (
        tuple(str(x) for x in _array(doc["incremental_order"], "incremental_order"))
        if "incremental_order" in doc
        else None
    )
    taps = tuple(
        Wiretap(
            tuple(str(s) for s in _array(t.get("sources", []), f"wiretaps[{i}].sources")),
            tuple(str(e) for e in _array(t.get("edges", []), f"wiretaps[{i}].edges")),
        )
        for i, t in enumerate(_objects(doc.get("wiretaps", []), "wiretaps"))
    )
    randomness = tuple(str(x) for x in _array(doc.get("randomness", []), "randomness"))
    problem = NetworkProblem(
        network=Network(nodes, tuple(edges)),
        requirement=ConnectionRequirement(tuple(sessions), order),
        wiretaps=WiretapPattern(taps),
        randomness_nodes=randomness,
    )
    errors = validate(problem)
    if errors:
        raise SchemaError("; ".join(errors))
    return problem


def parse(text: str) -> NetworkProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}: {exc.msg}")
    return problem_from_dict(doc)


def serialize(problem: NetworkProblem) -> str:
    return json.dumps(problem_to_dict(problem), indent=2)
