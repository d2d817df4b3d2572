import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import network
from entroflow.network import (
    UNBOUNDED,
    Capacity,
    ConnectionRequirement,
    Edge,
    Network,
    NetworkProblem,
    SchemaError,
    Session,
    Wiretap,
    WiretapPattern,
    ancestral_order,
    min_cut,
    parse,
    problem_from_dict,
    serialize,
    validate,
)


def simple_problem(edges, sessions, nodes=None, **kw):
    if nodes is None:
        nodes = sorted({e[1] for e in edges} | {e[2] for e in edges})
    return NetworkProblem(
        network=Network(
            tuple(nodes),
            tuple(
                Edge(eid, tail, head, Capacity.of(cap), fwd)
                for eid, tail, head, cap, *rest in edges
                for fwd in [rest[0] if rest else None]
            ),
        ),
        requirement=ConnectionRequirement(
            tuple(Session(sid, Fraction(rate), origin, tuple(sinks)) for sid, rate, origin, sinks in sessions)
        ),
        **kw,
    )


def butterfly(rate=2):
    # Classic single-source two-sink structure; side edges forward the
    # source-adjacent messages, the middle edge is the coding point.
    edges = [
        ("e_s1", "s", "n1", 1),
        ("e_s2", "s", "n2", 1),
        ("e_13", "n1", "n3", 1, "e_s1"),
        ("e_1t1", "n1", "t1", 1, "e_s1"),
        ("e_23", "n2", "n3", 1, "e_s2"),
        ("e_2t2", "n2", "t2", 1, "e_s2"),
        ("e_34", "n3", "n4", 1),
        ("e_4t1", "n4", "t1", 1, "e_34"),
        ("e_4t2", "n4", "t2", 1, "e_34"),
    ]
    return simple_problem(edges, [("T", rate, "s", ("t1", "t2"))])


class TestValidate:
    def test_single_edge_ok(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        assert validate(p) == []

    def test_cycle(self):
        p = simple_problem(
            [("e1", "a", "b", 1), ("e2", "b", "a", 1)],
            [],
            nodes=("a", "b"),
        )
        errors = validate(p)
        assert any("cycle detected" in e for e in errors)

    def test_unknown_origin(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "ghost", ("t",))])
        assert any("unknown node" in e for e in validate(p))

    def test_sink_at_origin(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("s",))])
        assert any("coincides with its origin" in e for e in validate(p))

    def test_forward_must_enter_tail(self):
        p = simple_problem(
            [("e1", "s", "a", 1), ("e2", "s", "t", 1, "e1")],
            [("S", 1, "s", ("t",))],
        )
        assert any("does not enter its tail" in e for e in validate(p))

    def test_incremental_order_must_cover(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        p = NetworkProblem(p.network, ConnectionRequirement(p.requirement.sessions, ("S", "Z")))
        assert any("incremental order" in e for e in validate(p))

    def test_negative_capacity_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Capacity.of("-1")

    def test_session_and_edge_share_a_name(self):
        # Codes, the search and the LP would read the edge's message as the
        # session itself: the search used to find a "code" for rate 1 over
        # capacity 1/2, and the LP builder tripped over equal labels.
        from entroflow.codes import exhaustive_search
        from entroflow.lp import build_shannon_lp

        p = simple_problem([("X", "s", "t", "1/2")], [("X", 1, "s", ("t",))])
        assert validate(p) == ["name 'X' is used by both session 'X' and edge 'X'"]
        with pytest.raises(ValueError, match="invalid problem: name 'X'"):
            exhaustive_search(p, 2)
        with pytest.raises(ValueError, match="invalid problem: name 'X'"):
            build_shannon_lp(p)

    def test_edge_named_like_declared_randomness(self):
        edges = [("V_s", "s", "t", 1), ("e", "s", "t", 1)]
        p = simple_problem(edges, [("S", 1, "s", ("t",))], randomness_nodes=("s",))
        assert validate(p) == [
            "name 'V_s' is used by both edge 'V_s' and the randomness of node 's'"
        ]

    def test_edge_named_like_default_randomness(self):
        # With no declared randomness nodes the problem is sound, but search
        # and the LP model randomness at every tail of a non-forwarding edge
        # when asked to, and V_s then names both an edge and s's randomness.
        from entroflow.codes import exhaustive_search
        from entroflow.lp import build_shannon_lp

        clash = "invalid problem: name 'V_s' is used by both edge 'V_s' and the randomness of node 's'"
        p = simple_problem([("V_s", "s", "t", "1/2")], [("S", 1, "s", ("t",))])
        assert validate(p) == []
        assert exhaustive_search(p, 2).status == "exhausted"
        with pytest.raises(ValueError, match=re.escape(clash)):
            exhaustive_search(p, 2, allow_randomness=True)
        q = simple_problem([("V_s", "s", "t", 1), ("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        assert validate(q) == []
        build_shannon_lp(q)
        with pytest.raises(ValueError, match=re.escape(clash)):
            build_shannon_lp(q, include_randomness=True)

    def test_session_named_like_declared_randomness(self):
        p = simple_problem(
            [("e", "s", "t", 1)], [("V_t", 1, "s", ("t",))], randomness_nodes=("t",)
        )
        assert validate(p) == [
            "name 'V_t' is used by both session 'V_t' and the randomness of node 't'"
        ]

    def test_duplicate_randomness_nodes(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))], randomness_nodes=("s", "s"))
        assert validate(p) == ["duplicate randomness nodes"]

    def test_name_clash_rejected_on_parse(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"id": "X", "tail": "s", "head": "t", "capacity": "1/2"}],
            "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": ["t"]}],
        }
        with pytest.raises(SchemaError, match="is used by both session 'X' and edge 'X'"):
            problem_from_dict(doc)

    def test_gadgets_validate(self):
        from entroflow.entropy import EntropyVector
        from entroflow.gadgets import adhere, build_incremental, build_secure

        problems = [
            build_incremental(EntropyVector.from_tuple([Fraction(v) for v in h])).problem
            for h in [(1, 1, 2), (1, 2, 3), (2, 1, 2), (1, 1, 1)]
        ]
        problems += [build_secure(c, d).problem for c, d in [(1, 2), (1, 3), (2, 3)]]
        problems.append(adhere(butterfly()).problem)
        for p in problems:
            assert validate(p) == []


class TestDemands:
    def test_incremental_expansion(self):
        p = simple_problem(
            [("e", "s", "t", 1)],
            [("S0", 1, "s", ()), ("S1", 1, "s", ("t",))],
        )
        p = NetworkProblem(p.network, ConnectionRequirement(p.requirement.sessions, ("S0", "S1")))
        assert p.demands() == {"t": ("S0", "S1")}

    def test_plain_demands(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        assert p.demands() == {"t": ("S",)}


class TestAncestralOrder:
    def test_path(self):
        p = simple_problem(
            [("e1", "s", "a", 1), ("e2", "a", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        assert ancestral_order(p) == ["S", "e1", "e2"]

    def test_diamond(self):
        p = simple_problem(
            [("sa", "s", "a", 1), ("sb", "s", "b", 1), ("at", "a", "t", 1), ("bt", "b", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        order = ancestral_order(p)
        assert order.index("sa") < order.index("at")
        assert order.index("sb") < order.index("bt")
        assert {"sa", "sb"} == set(order[1:3])

    def test_parallel_edges_tie_break(self):
        p = simple_problem(
            [("e2", "s", "t", 1), ("e1", "s", "t", 1)],
            [("T", 1, "s", ("t",))],
        )
        assert ancestral_order(p) == ["T", "e1", "e2"]

    def test_edges_after_tail_inputs(self):
        p = butterfly()
        order = ancestral_order(p)
        for e in p.network.edges:
            for upstream in p.network.in_edges(e.tail):
                assert order.index(upstream.id) < order.index(e.id)


@st.composite
def random_networks(draw):
    """Small problems on n0..n(k-1): forward edges, optional back edges
    (which may close cycles), forwarding edges and shuffled edge ids."""
    k = draw(st.integers(2, 6))
    nodes = tuple(f"n{i}" for i in range(k))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 2), st.integers(1, k - 1)), max_size=9))
    pairs = sorted((a, b) for a, b in pairs if a < b)  # feeding edges first: more forwarding
    pairs += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=2))
    ids = draw(st.permutations([f"e{i}" for i in range(len(pairs))]))
    edges: list[Edge] = []
    for eid, (a, b) in zip(ids, pairs):
        feeding = [e.id for e in edges if e.head == nodes[a]]
        forwards = draw(st.sampled_from([None] + feeding))
        edges.append(Edge(eid, nodes[a], nodes[b], Capacity.of(1), forwards))
    sessions = [Session("S", Fraction(1), "n0", (nodes[-1],))]
    if draw(st.booleans()):
        sessions.append(Session("R", Fraction(1), nodes[draw(st.integers(0, k - 2))], (nodes[-1],)))
    return NetworkProblem(Network(nodes, tuple(edges)), ConnectionRequirement(tuple(sessions)))


def reference_stuck_nodes(net):
    """Nodes that Kahn's algorithm cannot place: those reachable from a cycle."""
    reach = {v: {e.head for e in net.edges if e.tail == v} for v in net.nodes}
    changed = True
    while changed:
        changed = False
        for v in net.nodes:
            wider = reach[v].union(*(reach[u] for u in reach[v]))
            if wider != reach[v]:
                reach[v], changed = wider, True
    on_cycle = {v for v in net.nodes if v in reach[v]}
    return sorted(on_cycle | {w for v in on_cycle for w in reach[v]})


def reference_order(problem):
    edges = problem.network.edges

    def depth(e):
        feeding = [u for u in edges if u.head == e.tail]
        return 1 + max(map(depth, feeding)) if feeding else 0

    return sorted(s.id for s in problem.requirement.sessions) + sorted(
        (e.id for e in edges), key=lambda eid: (depth(next(e for e in edges if e.id == eid)), eid)
    )


class TestDerivedTopology:
    """The indexed lookups and the memoized order against plain scans."""

    @settings(max_examples=150, deadline=None)
    @given(random_networks())
    def test_matches_brute_force(self, problem):
        net = problem.network
        for _ in range(2):  # the first call derives, the second reads the memo
            for v in net.nodes + ("ghost",):
                assert net.in_edges(v) == tuple(e for e in net.edges if e.head == v)
                assert net.out_edges(v) == tuple(e for e in net.edges if e.tail == v)
            for e in net.edges:
                assert net.edge(e.id) == e
            with pytest.raises(KeyError):
                net.edge("ghost")
            stuck = reference_stuck_nodes(net)
            if stuck:
                assert validate(problem) == ["cycle detected: " + ",".join(stuck)]
                with pytest.raises(ValueError):
                    ancestral_order(problem)
            else:
                assert validate(problem) == []
                assert ancestral_order(problem) == reference_order(problem)

    def test_edge_keeps_the_first_match(self):
        first, second = Edge("e", "s", "t", Capacity.of(1)), Edge("e", "t", "u", Capacity.of(2))
        net = Network(("s", "t", "u"), (first, second))
        assert net.edge("e") is first
        assert net.in_edges("t") == (first,) and net.out_edges("t") == (second,)

    def test_returned_lists_are_fresh(self):
        p = butterfly()
        order = ancestral_order(p)
        expected = list(order)
        order.reverse()
        order.append("junk")
        assert ancestral_order(p) == expected
        bad = simple_problem([("e", "s", "t", 1)], [("S", 1, "ghost", ("t",))])
        errors = validate(bad)
        errors.clear()
        assert validate(bad) != []

    def test_cyclic_problem_raises_on_every_call(self, monkeypatch):
        derive = network._derive_ancestral_order
        calls = []
        monkeypatch.setattr(
            network, "_derive_ancestral_order", lambda p: calls.append(p) or derive(p)
        )
        p = simple_problem([("e1", "a", "b", 1), ("e2", "b", "a", 1)], [], nodes=("a", "b"))
        for _ in range(3):
            with pytest.raises(ValueError, match="cycle detected"):
                ancestral_order(p)
        assert len(calls) == 3  # a failure is never memoized

    def test_order_derived_once(self, monkeypatch):
        derive = network._derive_ancestral_order
        calls = []
        monkeypatch.setattr(
            network, "_derive_ancestral_order", lambda p: calls.append(p) or derive(p)
        )
        p = butterfly()
        assert ancestral_order(p) == ancestral_order(p)
        assert calls == [p]
        # An equal problem is a different instance and derives its own order.
        ancestral_order(butterfly())
        assert len(calls) == 2


# Reference copies of the per-module derivations that `NetworkProblem` now
# owns: codes (canonical inputs, input ladders, sink inputs, wiretap views)
# and the Shannon LP (ground messages, causality and decode inputs, default
# randomness).


def reference_canonical_inputs(problem, edge_id, has_randomness):
    net = problem.network
    edge = net.edge(edge_id)
    refs = [("session", s.id) for s in sorted(problem.requirement.sessions, key=lambda s: s.id)
            if s.origin == edge.tail]
    order = {eid: i for i, eid in enumerate(ancestral_order(problem))}
    refs += [("edge", inc.id) for inc in sorted(net.in_edges(edge.tail), key=lambda e: order[e.id])]
    if has_randomness(edge.tail):
        refs.append(("randomness", edge.tail))
    return tuple(refs)


def reference_input_variable(problem, ref):
    kind, name = ref
    if kind == "session":
        return name
    if kind == "edge":
        return problem.network.message_of(name)
    return f"V_{name}"


def reference_lp_causality_inputs(problem, edge_id, randomized):
    net = problem.network
    edge = net.edge(edge_id)
    inputs = [s.id for s in problem.requirement.sessions if s.origin == edge.tail]
    inputs += [net.message_of(inc.id) for inc in net.in_edges(edge.tail)]
    if edge.tail in randomized:
        inputs.append(f"V_{edge.tail}")
    return set(inputs)


def reference_sink_inputs(problem, sink):
    net = problem.network
    incoming = tuple(net.message_of(e.id) for e in net.in_edges(sink))
    local = tuple(s.id for s in problem.requirement.sessions if s.origin == sink)
    seen = []
    for name in incoming + local:
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def reference_wiretap_view(problem, tap):
    observed = []
    for eid in tap.edges:
        msg = problem.network.message_of(eid)
        if msg not in observed:
            observed.append(msg)
    return tuple(observed)


def reference_default_randomness(problem):
    net = problem.network
    declared = problem.randomness_nodes
    if declared:
        return tuple(sorted(declared))
    return tuple(sorted({e.tail for e in net.edges if e.forwards is None}))


@st.composite
def random_problems(draw):
    """`random_networks` with drawn wiretaps and declared randomness nodes."""
    problem = draw(random_networks())
    edge_ids = [e.id for e in problem.network.edges]
    session_ids = [s.id for s in problem.requirement.sessions]
    taps = draw(
        st.lists(
            st.builds(
                Wiretap,
                st.lists(st.sampled_from(session_ids), max_size=2, unique=True).map(tuple),
                st.lists(st.sampled_from(edge_ids), max_size=3).map(tuple)
                if edge_ids
                else st.just(()),
            ),
            max_size=3,
        )
    )
    randomness = draw(st.lists(st.sampled_from(problem.network.nodes), max_size=2, unique=True))
    return NetworkProblem(
        problem.network, problem.requirement, WiretapPattern(tuple(taps)), tuple(randomness)
    )


class TestSharedVariables:
    """Each variable derivation on `NetworkProblem` against the copies it
    replaced in codes and the Shannon LP."""

    @settings(max_examples=200, deadline=None)
    @given(random_problems(), st.data())
    def test_matches_module_copies(self, problem, data):
        if validate(problem):
            return
        net = problem.network
        order = ancestral_order(problem)
        sessions = sorted(s.id for s in problem.requirement.sessions)
        distinct = {e.id for e in net.edges if e.forwards is None}
        assert problem.messages == tuple(n for n in order if n in distinct)  # codes
        assert problem.messages == tuple(  # lp
            n for n in order if n not in sessions and net.edge(n).forwards is None
        )
        default = problem.default_randomness_nodes
        assert default == reference_default_randomness(problem)
        randomized = data.draw(st.lists(st.sampled_from(net.nodes), unique=True), "randomized")
        for e in net.edges:
            for chosen in (randomized, default, ()):
                refs = problem.encoder_inputs(e.id, chosen)
                assert refs == reference_canonical_inputs(problem, e.id, lambda v: v in chosen)
                names = [problem.input_variable(r) for r in refs]
                assert names == [reference_input_variable(problem, r) for r in refs]
                assert set(names) == reference_lp_causality_inputs(problem, e.id, chosen)
        for node in net.nodes:
            assert problem.sink_inputs(node) == reference_sink_inputs(problem, node)
        assert problem.wiretap_views == tuple(
            reference_wiretap_view(problem, tap) for tap in problem.wiretaps.taps
        )

    @settings(max_examples=100, deadline=None)
    @given(random_problems(), st.data())
    def test_evaluate_matches_reference_pass(self, problem, data):
        # A code whose every encoder sums its inputs mod its alphabet,
        # evaluated against the input ladder it replaced.
        from entroflow.codes import CodeBuilder, evaluate

        if validate(problem):
            return
        net = problem.network
        builder = CodeBuilder(problem)
        for s in problem.requirement.sessions:
            builder.source(s.id, 2)
        rnodes = sorted(data.draw(st.lists(st.sampled_from(net.nodes), unique=True), "rnodes"))
        for node in rnodes:
            builder.randomness(node, 2)
        sizes = {e.id: data.draw(st.integers(1, 3), e.id) for e in net.edges if e.forwards is None}
        for eid, size in sizes.items():
            builder.edge(eid, size, lambda v, size=size: sum(v.values()) % size)
        code = builder.build()
        src = data.draw(st.tuples(*(st.integers(0, 1) for _ in code.session_order())), "src")
        rnd = data.draw(st.tuples(*(st.integers(0, 1) for _ in rnodes)), "rnd")
        got = evaluate(code, src, rnd)

        sources = dict(zip(code.session_order(), src))
        randomness = dict(zip(rnodes, rnd))
        values = {}
        for name in ancestral_order(problem):
            if name in sources:
                continue
            edge = net.edge(name)
            if edge.forwards is not None:
                values[name] = values[edge.forwards]
                continue
            enc = code.encoders[name]
            args = []
            for kind, ref in enc.inputs:
                if kind == "session":
                    args.append(sources[ref])
                elif kind == "edge":
                    args.append(values[ref])
                else:
                    args.append(randomness[ref])
            values[name] = enc.apply(args)
        assert got == values
        # A symbol for every edge, forwarding edges included, in ancestral order.
        assert list(got) == [n for n in ancestral_order(problem) if n not in sources]
        for e in net.edges:
            assert got[e.id] == got[net.message_of(e.id)]


class TestMinCut:
    def test_single_edge(self):
        p = simple_problem([("e", "s", "t", "3/2")], [("S", 1, "s", ("t",))])
        assert min_cut(p, "s", "t") == Capacity(Fraction(3, 2))

    def test_butterfly(self):
        p = butterfly()
        assert min_cut(p, "s", "t1") == Capacity(Fraction(2))
        assert min_cut(p, "s", "t2") == Capacity(Fraction(2))

    def test_disconnected(self):
        p = simple_problem(
            [("e", "s", "a", 1)],
            [("S", 1, "s", ("t",))],
            nodes=("s", "a", "t"),
        )
        assert min_cut(p, "s", "t") == Capacity(Fraction(0))

    def test_unbounded_path(self):
        p = simple_problem([("e", "s", "t", "unbounded")], [("S", 1, "s", ("t",))])
        assert min_cut(p, "s", "t").is_unbounded

    def test_unbounded_edge_not_binding(self):
        p = simple_problem(
            [("e1", "s", "a", "unbounded"), ("e2", "a", "t", "1/3")],
            [("S", 1, "s", ("t",))],
        )
        assert min_cut(p, "s", "t") == Capacity(Fraction(1, 3))

    def test_against_cut_enumeration(self):
        # Brute-force cut enumeration oracle on random small DAGs.
        rng = random.Random(7)
        for _ in range(40):
            n_mid = rng.randint(1, 3)
            nodes = ["s"] + [f"m{i}" for i in range(n_mid)] + ["t"]
            rank = {v: i for i, v in enumerate(nodes)}
            edges = []
            eid = 0
            for _ in range(rng.randint(1, 8)):
                a, b = rng.sample(nodes, 2)
                if rank[a] > rank[b]:
                    a, b = b, a
                cap = Fraction(rng.randint(0, 6), rng.randint(1, 3))
                edges.append((f"e{eid}", a, b, cap))
                eid += 1
            p = simple_problem(edges, [("S", 1, "s", ("t",))], nodes=nodes)
            got = min_cut(p, "s", "t")
            best = None
            inner = [v for v in nodes if v not in ("s", "t")]
            for r in range(len(inner) + 1):
                for combo in itertools.combinations(inner, r):
                    side = {"s", *combo}
                    value = sum(
                        (e.capacity.value for e in p.network.edges
                         if e.tail in side and e.head not in side),
                        Fraction(0),
                    )
                    best = value if best is None else min(best, value)
            assert got == Capacity(best)


class TestSerialization:
    def test_minimal_round_trip(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "1"}],
            "sessions": [{"id": "S", "rate": "1", "origin": "s", "sinks": ["t"]}],
        }
        p = problem_from_dict(doc)
        assert parse(serialize(p)) == p

    def test_rational_capacity(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "3/2"}],
            "sessions": [{"id": "S", "rate": "1", "origin": "s", "sinks": ["t"]}],
        }
        p = problem_from_dict(doc)
        assert p.network.edges[0].capacity == Capacity(Fraction(3, 2))

    def test_full_round_trip(self):
        p = simple_problem(
            [("e1", "s", "a", "2/3"), ("e2", "a", "t", "unbounded", "e1")],
            [("S0", "1/2", "s", ("t",)), ("S1", 1, "s", ("t",))],
        )
        p = NetworkProblem(
            p.network,
            ConnectionRequirement(p.requirement.sessions, ("S0", "S1")),
            WiretapPattern((Wiretap(("S0",), ("e1",)),)),
            randomness_nodes=("a",),
        )
        assert parse(serialize(p)) == p

    def test_schema_error_reports_field(self):
        with pytest.raises(SchemaError, match="edges\\[0\\]"):
            problem_from_dict(
                {
                    "nodes": ["s", "t"],
                    "edges": [{"id": "e", "tail": "s", "head": "t"}],
                    "sessions": [],
                }
            )

    def test_parse_error_line(self):
        with pytest.raises(SchemaError, match="line"):
            parse("{not json")

    def test_validation_runs_on_parse(self):
        with pytest.raises(SchemaError, match="unknown node"):
            problem_from_dict(
                {
                    "nodes": ["s"],
                    "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "1"}],
                    "sessions": [],
                }
            )


class TestRateCapacityTuple:
    def test_linear_ops(self):
        p = simple_problem([("e", "s", "t", "3/2")], [("S", 2, "s", ("t",))])
        rc = p.rate_capacity
        doubled = rc.scale(2)
        assert doubled.rates["S"] == 4
        assert doubled.capacities["e"] == Capacity(Fraction(3))
        assert rc.add(rc) == doubled

    def test_unbounded_edges_not_in_tuple(self):
        p = simple_problem(
            [("e1", "s", "a", 1), ("e2", "a", "t", "unbounded", "e1")],
            [("S", 1, "s", ("t",))],
        )
        assert set(p.rate_capacity.capacities) == {"e1"}
