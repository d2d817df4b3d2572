"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from entroflow.codes import (
    CodeBuilder,
    check_admissible,
    check_secrecy,
    check_zero_error,
    exhaustive_search,
    induced_joint_distribution,
)
from entroflow.entropy import (
    EntropyVector,
    GroundSet,
    check_independence,
    elemental_inequalities,
    entropy_vector_of,
    is_polymatroid,
    is_quasi_uniform,
    quasi_uniform_vector_of,
)
from entroflow.gadgets import (
    adhere,
    build_incremental,
    build_secure,
    compose_adhered_code,
    incremental_code,
    otp_code,
    quasi_uniform_library,
)
from entroflow.lp import (
    ShannonSolver,
    build_shannon_lp,
    verify_proof_chain,
)
from entroflow.network import Capacity, min_cut
from entroflow.simplex import verify_certificate

from conftest import random_rational_distribution
from test_network import butterfly, simple_problem
from test_codes import butterfly_code

F = Fraction
TOL = 1e-9


def report(number, name, detail, elapsed, limit):
    line = f"ACCEPT {number:>2} {name}: PASS ({detail}; {elapsed:.1f}s < {limit}s)"
    print(line)
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_c01_shannon_cone_soundness():
    t0 = time.time()
    rng = random.Random(101)
    cache = {}
    for trial in range(1000):
        d = random_rational_distribution(rng, rng.randint(1, 4), max_alphabet=4)
        vec = entropy_vector_of(d)
        assert is_polymatroid(vec, TOL), f"trial {trial}"
        n = vec.ground.size
        if n not in cache:
            cache[n] = elemental_inequalities(n)
        for ineq in cache[n]:
            assert float(ineq.evaluate(vec)) >= -TOL, f"trial {trial}"
    report(1, "Shannon-cone soundness", "1000 random rational pmfs", time.time() - t0, 30)


def test_c02_key_forcing_mechanization():
    t0 = time.time()
    gadget = build_secure(1, 2)
    lp = build_shannon_lp(gadget.problem)
    solver = ShannonSolver(lp)
    zero_claims = [
        "I(W1;W3)",
        "H(W5|X)",
        "H(W1|W3,W4)",
        "H(W1|K,W3)",
        "H(K|W1,W3)",
        "H(K|W4)",
    ]
    chain = verify_proof_chain(solver, [(e, e, "=", 0) for e in zero_claims])
    for verdict, expr in zip(chain.verdicts, zero_claims):
        assert verdict.status == "forced", expr
        assert verdict.lower == verdict.upper == F(0), expr
    value_claims = [
        ("H(W1)", F(1)),
        ("H(W2)", F(1)),
        ("H(W5)", F(1)),
        ("H(K)", F(1)),
        ("H(W4)", F(1)),
        ("H(K,W4)", F(1)),
    ]
    chain = verify_proof_chain(solver, [(e, e, "=", v) for e, v in value_claims])
    for verdict, (expr, v) in zip(chain.verdicts, value_claims):
        assert verdict.status == "forced", expr
        assert verdict.lower == verdict.upper == v, expr
    report(
        2,
        "key forcing on the secure gadget",
        "12 forced equalities at exact rational values",
        time.time() - t0,
        60,
    )


def test_c03_one_time_pad_converse():
    t0 = time.time()
    for c, d in ((1, 2), (2, 3)):
        code = otp_code(c, d)
        dist = induced_joint_distribution(code)
        ok, failures = check_zero_error(code)
        assert ok and not failures, (c, d)
        assert check_independence(dist, "X", "W3"), (c, d)
        assert check_admissible(code), (c, d)
    report(3, "one-time-pad witness", "exact P_e = 0 and leakage 0 for (1,2), (2,3)", time.time() - t0, 10)


def test_c04_randomness_necessity():
    """Deterministic search on the secure gadget must return none.

    Both the tapped channel W3 and the key edge K are wiretapped, so no
    deterministic code can route a source bit around the tapped channel
    along the key path.  If the search finds a code, it is checked
    exactly and reported as such a bypass; the analysis of that bypass
    and of the tap on K is in CHANGES.md.  The companion test below shows
    the same phenomenon on a minimal tapped bottleneck.
    """
    t0 = time.time()
    gadget = build_secure(1, 2)
    outcome = exhaustive_search(
        gadget.problem,
        alphabet_bounds={"edges": 2, "X": 4},
        allow_randomness=False,
    )
    elapsed = time.time() - t0
    assert elapsed < 300
    if outcome.status == "exhausted":
        report(4, "randomness necessity under secrecy", "search exhausted", elapsed, 300)
        return
    # The found code must itself be sound, or the failure is a tool bug.
    verdict = check_admissible(outcome.code)
    assert verdict, "search returned an inadmissible code: a genuine bug"
    dist = induced_joint_distribution(outcome.code)
    assert check_independence(dist, "X", "W3")
    print(
        "ACCEPT  4 randomness necessity under secrecy: FAIL "
        f"(deterministic bypass code found after {outcome.searched} candidates: "
        "the key path relays a source bit around the constant tapped channel; "
        f"{elapsed:.1f}s < 300s; see CHANGES.md)"
    )
    pytest.fail(
        "criterion 4 fails on the secure gadget: "
        "a deterministic admissible code exists (tapped channel constant, key "
        "path carries the masked source bit in the clear); verified exactly; "
        "see CHANGES.md"
    )


def test_c04_supplement_minimal_tapped_bottleneck():
    """The intended content of criterion 4, on an instance where it holds:
    when every source-to-sink route crosses the tapped edge, deterministic
    codes are exhaustively impossible and a randomized code exists."""
    t0 = time.time()
    from entroflow.network import problem_from_dict

    tapped = problem_from_dict(
        {
            "nodes": ["s", "t"],
            "edges": [
                {"id": "e1", "tail": "s", "head": "t", "capacity": "1"},
                {"id": "e2", "tail": "s", "head": "t", "capacity": "1"},
            ],
            "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": ["t"]}],
            "wiretaps": [
                {"sources": ["X"], "edges": ["e1"]},
                {"sources": ["X"], "edges": ["e2"]},
            ],
            "randomness": ["s"],
        }
    )
    det = exhaustive_search(tapped, alphabet_bounds=2, allow_randomness=False)
    assert det.status == "exhausted" and det.code is None
    assert det.searched == det.total
    rnd = exhaustive_search(tapped, alphabet_bounds=2, allow_randomness=True)
    assert rnd.status == "found"
    assert check_admissible(rnd.code)
    assert rnd.code.randomness["s"].size == 2
    report(
        "4s",
        "randomness necessity (supplement)",
        f"deterministic mode exhausted {det.total} candidates, randomized mode found a pad",
        time.time() - t0,
        300,
    )


def _library_codes():
    lib = quasi_uniform_library()
    for name, q in sorted(lib.items()):
        yield name, q, incremental_code(q)


def test_c05_uniform_witness_codes():
    t0 = time.time()
    count = 0
    for name, q, code in _library_codes():
        verdict = check_admissible(code)
        assert verdict, f"{name}: {verdict.describe()}"
        count += 1
    assert count >= 6
    report(5, "witness codes across the library", f"{count} quasi-uniform inputs admissible", time.time() - t0, 120)


def test_c06_witness_streams_match():
    t0 = time.time()
    for name, q, code in _library_codes():
        dist = induced_joint_distribution(code)
        names = q.names()
        marg = dist.marginal(names)
        from entroflow.entropy import JointDistribution

        v_joint = JointDistribution.of(
            tuple((n, code.edge_alphabets[n]) for n in names), marg
        )
        assert is_quasi_uniform(v_joint), name
        h_in = quasi_uniform_vector_of(q)
        vec = entropy_vector_of(dist, names)
        for mask in range(1, h_in.ground.full_mask + 1):
            assert abs(float(vec.values[mask]) - float(h_in.values[mask])) <= TOL, name
    # Falsification control: one tampered encoder breaks admissibility.
    q = quasi_uniform_library()["independent-bits"]
    good = incremental_code(q)
    builder = CodeBuilder(good.problem)
    for sid, size in good.source_alphabets.items():
        builder.source(sid, size)
    for eid, enc in good.encoders.items():
        if eid == "V2":
            builder.edge(eid, enc.output_size, lambda v: 0)
        else:
            builder.edge(
                eid,
                enc.output_size,
                lambda v, enc=enc: enc.apply(
                    [v[name if kind != "randomness" else "V"] for kind, name in enc.inputs]
                ),
            )
    assert not check_admissible(builder.build())
    report(6, "induced streams quasi-uniform", "6 codes match their input vectors; tamper control fails", time.time() - t0, 120)


def test_c07_incremental_forcing():
    t0 = time.time()
    h = EntropyVector.from_tuple([F(1), F(1), F(2)])
    gadget = build_incremental(h)
    problem = gadget.problem
    source_ground = ("S0", "S1", "U1", "U2", "B", "V1", "V2", "D1[12]", "M1[12]")
    solver = ShannonSolver(build_shannon_lp(problem, variables=source_ground))
    chain = verify_proof_chain(
        solver,
        [
            ("H(U1)=1", "H(U1)", "=", 1),
            ("H(U2)=1", "H(U2)", "=", 1),
            ("H(V1,V2)=2", "H(V1,V2)", "=", 2),
            ("H(V1,V2)>=2", "H(V1,V2)", ">=", 2),
        ],
    )
    assert chain.all_forced, chain.describe()
    for a, msgs in (("1", ("V1",)), ("2", ("V2",))):
        ground = ("S0", "S1", "U1", "U2", "B") + msgs + (f"D1[{a}]", f"M1[{a}]")
        sub = ShannonSolver(build_shannon_lp(problem, variables=ground))
        expr = "H(" + ",".join(msgs) + ")"
        rep = verify_proof_chain(sub, [(f"{expr}>=1", expr, ">=", 1)])
        assert rep.all_forced, rep.describe()
    type2_ground = (
        "S0", "S1", "U1", "U2", "V1", "V2",
        "W1[2.1]", "W2[2.1]", "W3[2.1]", "D2[2.1]",
    )
    sub = ShannonSolver(build_shannon_lp(problem, variables=type2_ground))
    rep = verify_proof_chain(sub, [("increment", "H(V1|V2)", "=", 1)])
    assert rep.all_forced, rep.describe()
    report(
        7,
        "incremental forcing via subnetwork LPs",
        "U rates, joint V entropy, per-subset lower bounds, and the V1|V2 increment all forced",
        time.time() - t0,
        120,
    )


def test_c08_adhesion_demonstration():
    t0 = time.time()
    # Unit relay: admissible by composed code, with exact checks.
    inner = simple_problem([("e", "u", "v", 1)], [("S", 1, "u", ("v",))])
    gadget = adhere(inner)
    inner_code = CodeBuilder(inner).source("S", 2).edge("e", 2, lambda v: v["S"]).build()
    code = compose_adhered_code(gadget, inner_code)
    assert check_admissible(code)
    # Half capacity: infeasible LP with an exactly verified Farkas combination.
    thin = simple_problem([("e", "u", "v", "1/2")], [("S", 1, "u", ("v",))])
    lp = build_shannon_lp(adhere(thin).problem)
    solver = ShannonSolver(lp)
    cert = solver.feasibility()
    assert cert.status == "infeasible"
    assert cert.farkas is not None
    from entroflow.simplex import SimplexCertificate

    verify_certificate(
        len(lp.coords),
        solver.all_rows,
        {},
        SimplexCertificate("infeasible", None, {}, None, cert.farkas, None, ()),
    )
    # Butterfly: XOR key multicast plus per-sink one-time pads.
    bf = butterfly()
    composed = compose_adhered_code(adhere(bf), butterfly_code())
    verdict = check_admissible(composed)
    assert verdict, verdict.describe()
    report(
        8,
        "adhesion demonstration",
        "relay composition admissible, half-capacity Farkas verified, butterfly composition admissible",
        time.time() - t0,
        120,
    )


def test_c09_derandomization_suite():
    t0 = time.time()
    from entroflow.codes import derandomize
    from entroflow.network import parse
    import json as _json

    rng = random.Random(909)
    doc = {
        "nodes": ["s", "t"],
        "edges": [
            {"id": "e1", "tail": "s", "head": "t", "capacity": "unbounded"},
            {"id": "e2", "tail": "s", "head": "t", "capacity": "unbounded"},
        ],
        "sessions": [{"id": "X", "rate": "0", "origin": "s", "sinks": []}],
        "randomness": ["s"],
    }
    problem = parse(_json.dumps(doc))
    premise_held = 0
    succeeded = 0
    for trial in range(500):
        xsize = rng.randint(2, 3)
        vsize = rng.randint(1, 3)
        weights = [rng.randint(0, 4) for _ in range(vsize)]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        pmf = [F(w, total) for w in weights]
        out_size = rng.randint(1, 3)
        if rng.random() < 0.5:
            base = [rng.randrange(out_size) for _ in range(xsize)]
            fn = lambda v, base=base: base[v["X"]]
        else:
            tbl = {
                (x, w): rng.randrange(out_size)
                for x in range(xsize)
                for w in range(vsize)
            }
            fn = lambda v, tbl=tbl: tbl[(v["X"], v["V"])]
        builder = CodeBuilder(problem).source("X", xsize).randomness("s", pmf)
        builder.edge("e1", out_size, fn)
        builder.edge("e2", 2, lambda v: v["X"] % 2)
        code = builder.build()
        dist = induced_joint_distribution(code)
        premise = check_independence(dist, ("X", "e1"), ("V_s",))
        res = derandomize(code, "e1")
        assert res.ok == premise, f"trial {trial}"
        if not premise:
            continue
        premise_held += 1
        names = dist.names()
        xi, ei = names.index("X"), names.index("e1")
        for outcome in dist.pmf:
            assert res.encoder.apply((outcome[xi],)) == outcome[ei], f"trial {trial}"
        # Distribution equality after swapping in the projected table.
        table = res.encoder.table
        b2 = CodeBuilder(problem).source("X", xsize).randomness("s", pmf)
        b2.edge("e1", out_size, lambda v, t=table: t[v["X"]])
        b2.edge("e2", 2, lambda v: v["X"] % 2)
        swapped = induced_joint_distribution(b2.build())
        assert swapped == dist, f"trial {trial}"
        succeeded += 1
    assert premise_held >= 100
    report(
        9,
        "derandomization property suite",
        f"500 trials, premise held {premise_held} times, all reproduced exactly",
        time.time() - t0,
        60,
    )


def _random_monotone_vector(rng, n):
    # Conic combination of uniform-matroid ranks and a modular part:
    # nonnegative, monotone, maximal at the full set, exactly rational.
    full = (1 << n) - 1
    coefs = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
    weights = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
    values = {}
    for mask in range(1, full + 1):
        size = bin(mask).count("1")
        v = sum((coefs[k - 1] * min(size, k) for k in range(1, n + 1)), F(0))
        v += sum((weights[i] for i in range(n) if mask >> i & 1), F(0))
        values[mask] = v
    return EntropyVector(GroundSet(tuple(f"X{i+1}" for i in range(n))), values)


def test_c10_delta_linearity():
    t0 = time.time()
    rng = random.Random(1010)
    for trial in range(100):
        n = rng.randint(2, 3)
        h1 = _random_monotone_vector(rng, n)
        h2 = _random_monotone_vector(rng, n)
        a = F(rng.randint(0, 3), rng.randint(1, 3))
        b = F(rng.randint(0, 3), rng.randint(1, 3))
        combo = h1.scale(a).add(h2.scale(b))
        left = build_incremental(combo).delta
        right = build_incremental(h1).delta.scale(a).add(
            build_incremental(h2).delta.scale(b)
        )
        assert left == right, f"trial {trial}"
    report(10, "tuple linearity", "100 random conic combinations, exact equality", time.time() - t0, 60)


def test_c11_lp_min_cut_agreement():
    t0 = time.time()
    rng = random.Random(1111)
    caps = ["1", "1/2", "2", "1/3", "3/2", "0"]
    done = 0
    while done < 50:
        n_mid = rng.randint(1, 3)
        nodes = ["s"] + [f"m{i}" for i in range(n_mid)] + ["t"]
        rank = {v: i for i, v in enumerate(nodes)}
        n_edges = rng.randint(3, 8)
        edges = []
        for k in range(n_edges):
            u, v = rng.sample(nodes, 2)
            if rank[u] > rank[v]:
                u, v = v, u
            edges.append((f"e{k}", u, v, rng.choice(caps)))
        problem = simple_problem(edges, [("S", 1, "s", ("t",))], nodes=nodes)
        lp = build_shannon_lp(problem, rate_sessions="none")
        got = ShannonSolver(lp).maximize("H(S)")
        assert got.status == "optimal"
        cut = min_cut(problem, "s", "t")
        assert got.value == cut.value, f"instance {done}: {got.value} vs {cut}"
        done += 1
    report(11, "LP equals min-cut", "50 random single-session networks, exact agreement", time.time() - t0, 300)
