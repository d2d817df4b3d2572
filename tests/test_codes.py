import dataclasses
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import entroflow
from entroflow import network
from entroflow.codes import (
    BudgetExceededError,
    CodeBuilder,
    NodeRandomness,
    alphabet_fits_capacity,
    alphabet_meets_rate,
    check_admissible,
    check_secrecy,
    check_zero_error,
    code_from_json,
    code_to_json,
    derandomize,
    evaluate,
    exhaustive_search,
    induced_joint_distribution,
    minimal_source_alphabet,
    Verdict,
)
from entroflow.entropy import EntropyVector, check_functional_dependency, check_independence
from entroflow.gadgets import incremental_code, quasi_uniform_library
from entroflow.network import Capacity, parse

from test_network import butterfly, simple_problem


def relay_problem(capacity="1", rate="1"):
    return simple_problem(
        [("e1", "s", "a", capacity), ("e2", "a", "t", capacity)],
        [("S", Fraction(rate), "s", ("t",))],
    )


def relay_code(problem=None):
    problem = problem or relay_problem()
    return (
        CodeBuilder(problem)
        .source("S", 2)
        .edge("e1", 2, lambda v: v["S"])
        .edge("e2", 2, lambda v: v["e1"])
        .build()
    )


def butterfly_code(rate=2):
    p = butterfly(rate)
    return (
        CodeBuilder(p)
        .source("T", 4)
        .edge("e_s1", 2, lambda v: v["T"] // 2)
        .edge("e_s2", 2, lambda v: v["T"] % 2)
        .edge("e_34", 2, lambda v: v["e_13"] ^ v["e_23"])
        .build()
    )


def pad_problem():
    # One secret bit over two parallel unit edges, each tapped separately.
    doc = {
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
    import json

    return parse(json.dumps(doc))


def pad_code():
    p = pad_problem()
    return (
        CodeBuilder(p)
        .source("X", 2)
        .randomness("s", 2)
        .edge("e1", 2, lambda v: v["V"])
        .edge("e2", 2, lambda v: v["X"] ^ v["V"])
        .build()
    )


class TestAlphabetChecks:
    def test_capacity_powers(self):
        assert alphabet_fits_capacity(2, Capacity.of("1"))
        assert not alphabet_fits_capacity(2, Capacity.of("1/2"))
        assert alphabet_fits_capacity(2, Capacity.of("unbounded"))
        assert alphabet_fits_capacity(1, Capacity.of("0"))
        assert not alphabet_fits_capacity(3, Capacity.of("3/2"))
        assert alphabet_fits_capacity(2, Capacity.of("3/2"))

    def test_rate_powers(self):
        assert alphabet_meets_rate(4, Fraction(2))
        assert not alphabet_meets_rate(3, Fraction(2))
        assert alphabet_meets_rate(3, Fraction(3, 2))
        assert not alphabet_meets_rate(2, Fraction(3, 2))

    def test_minimal_source(self):
        assert minimal_source_alphabet(Fraction(2)) == 4
        assert minimal_source_alphabet(Fraction(3, 2)) == 3
        assert minimal_source_alphabet(Fraction(0)) == 1


class TestEvaluate:
    def test_identity_relay(self):
        values = evaluate(relay_code(), (1,))
        assert values == {"e1": 1, "e2": 1}

    def test_butterfly_xor_middle_edge(self):
        code = butterfly_code()
        values = evaluate(code, (2,))  # (b1, b2) = (1, 0)
        assert values["e_34"] == 1
        assert values["e_4t1"] == 1  # forwarding copies the middle message

    def test_causality(self):
        # Changing the source changes only descendants of its origin.
        code = pad_code()
        a = evaluate(code, {"X": 0}, {"s": 1})
        b = evaluate(code, {"X": 1}, {"s": 1})
        assert a["e1"] == b["e1"]
        assert a["e2"] != b["e2"]

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            evaluate(relay_code(), (5,))


class TestInducedDistribution:
    def test_single_bit_relay(self):
        dist = induced_joint_distribution(relay_code())
        assert len(dist.pmf) == 2
        assert all(p == Fraction(1, 2) for p in dist.pmf.values())

    def test_pad_marginals(self):
        dist = induced_joint_distribution(pad_code())
        marg = dist.marginal(("e1",))
        assert marg == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        assert check_independence(dist, "X", "e1")
        assert check_independence(dist, "X", "e2")

    def test_deterministic_support(self):
        dist = induced_joint_distribution(butterfly_code())
        assert len(dist.pmf) == 4

    def test_budget(self):
        from entroflow.codes import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            induced_joint_distribution(butterfly_code(), budget=3)


class TestZeroError:
    def test_identity_relay(self):
        ok, failures = check_zero_error(relay_code())
        assert ok and failures == []

    def test_constant_encoder(self):
        p = relay_problem()
        code = (
            CodeBuilder(p)
            .source("S", 2)
            .edge("e1", 1, lambda v: 0)
            .edge("e2", 1, lambda v: 0)
            .build()
        )
        ok, failures = check_zero_error(code)
        assert not ok
        assert ("t", "S") in failures

    def test_butterfly_both_sinks(self):
        ok, failures = check_zero_error(butterfly_code())
        assert ok, failures


class TestSecrecy:
    def test_no_taps(self):
        ok, failures = check_secrecy(relay_code())
        assert ok and failures == []

    def test_pad_is_secret(self):
        ok, failures = check_secrecy(pad_code())
        assert ok, failures

    def test_plaintext_leaks(self):
        p = pad_problem()
        code = (
            CodeBuilder(p)
            .source("X", 2)
            .randomness("s", 2)
            .edge("e1", 2, lambda v: v["X"])
            .edge("e2", 2, lambda v: v["X"])
            .build()
        )
        ok, failures = check_secrecy(code)
        assert not ok
        assert failures == [0, 1]


class TestAdmissible:
    def test_identity_relay(self):
        assert check_admissible(relay_code())

    def test_capacity_violation(self):
        p = relay_problem(capacity="1/2")
        code = relay_code(p)
        verdict = check_admissible(code)
        assert not verdict
        assert any(r[0] == "capacity" for r in verdict.reasons)

    def test_rate_violation(self):
        p = relay_problem(rate="2")
        code = relay_code(p)
        verdict = check_admissible(code)
        assert not verdict
        assert any(r[0] == "rate" for r in verdict.reasons)

    def test_pad(self):
        assert check_admissible(pad_code())

    def test_verdict_equals_the_full_product(self):
        leaky = (
            CodeBuilder(pad_problem())
            .source("X", 2)
            .edge("e1", 2, lambda v: v["X"])
            .edge("e2", 2, lambda v: v["X"])
            .build()
        )
        assert not check_admissible(leaky)
        for code in (relay_code(), pad_code(), butterfly_code(), leaky):
            assert check_admissible(code) == full_product_verdict(code)


def full_product_verdict(code):
    """`check_admissible`'s verdict decided on the induced joint
    distribution over every source and randomness support: the reference
    the per-check engine must agree with, reason order included."""
    problem = code.problem
    net = problem.network
    reasons = []
    for e in net.edges:
        size = code.edge_alphabets[net.message_of(e.id)]
        if not alphabet_fits_capacity(size, e.capacity):
            reasons.append(("capacity", e.id, f"alphabet {size} exceeds 2^{e.capacity}"))
    for s in problem.requirement.sessions:
        size = code.source_alphabets[s.id]
        if not alphabet_meets_rate(size, s.rate):
            reasons.append(("rate", s.id, f"alphabet {size} below 2^{s.rate}"))
    if not reasons:
        dist = induced_joint_distribution(code)
        for sink, demanded in problem.demands().items():
            givens = problem.sink_inputs(sink)
            for sid in demanded:
                if sid not in givens and not check_functional_dependency(dist, sid, givens):
                    reasons.append(("decode", sink, sid))
        for i, (tap, observed) in enumerate(zip(problem.wiretaps.taps, problem.wiretap_views)):
            if tap.sources and observed and not check_independence(dist, tuple(tap.sources), observed):
                reasons.append(("leak", str(i)))
    return Verdict(not reasons, tuple(reasons))


def tampered(code, message, entry):
    """`code` with one entry of one encoder table moved to the next symbol."""
    enc = code.encoders[message]
    table = list(enc.table)
    table[entry] = (table[entry] + 1) % enc.output_size
    encoders = dict(code.encoders)
    encoders[message] = dataclasses.replace(enc, table=tuple(table))
    return dataclasses.replace(code, encoders=encoders)


def random_dag_problem(rng, randomness):
    """A small DAG with one or two sessions, random demands and wiretaps,
    and (with `randomness`) randomness at the source node and maybe one
    more."""
    relays = [f"m{i}" for i in range(rng.randint(1, 2))]
    sinks = [f"t{i + 1}" for i in range(rng.randint(1, 2))]
    tails = ["s"] + relays
    order = tails + sinks
    pairs = [(rng.choice(order[: order.index(v)][: len(tails)]), v) for v in relays + sinks]
    for _ in range(rng.randint(0, 2)):
        u = rng.choice(tails)
        pairs.append((u, rng.choice(order[order.index(u) + 1 :])))
    edges = [
        {"id": f"e{k}", "tail": u, "head": v, "capacity": "2"}
        for k, (u, v) in enumerate(pairs)
    ]
    sessions = [{"id": "X", "rate": "1", "origin": "s", "sinks": rng.sample(sinks, rng.randint(1, len(sinks)))}]
    if rng.random() < 0.5:
        sessions.append({"id": "Y", "rate": "1", "origin": rng.choice(tails), "sinks": [rng.choice(sinks)]})
    doc = {"nodes": order, "edges": edges, "sessions": sessions}
    taps = []
    for _ in range(rng.randint(0, 2)):
        sources = rng.sample([s["id"] for s in sessions], rng.randint(1, len(sessions)))
        taps.append({"sources": sources, "edges": rng.sample([e["id"] for e in edges], rng.randint(1, 2))})
    if taps:
        doc["wiretaps"] = taps
    if randomness:
        doc["randomness"] = sorted({"s", rng.choice(tails)})
    import json

    return parse(json.dumps(doc))


def random_code(rng, problem):
    """Random tables over `problem`, each a random function of a random
    subset of its inputs; randomness uniform or skewed 1/3-2/3."""
    builder = CodeBuilder(problem)
    for s in problem.requirement.sessions:
        builder.source(s.id, rng.choice([2, 2, 3]))
    for node in problem.randomness_nodes:
        builder.randomness(node, rng.choice([2, 3, ["1/3", "2/3"]]))
    for m in problem.messages:
        refs = problem.encoder_inputs(m, problem.randomness_nodes)
        names = ["V" if kind == "randomness" else name for kind, name in refs]
        read = [x for x in names if rng.random() < 0.7]
        size = rng.choice([1, 2, 2, 3])
        values = {}
        builder.edge(
            m,
            size,
            lambda v, read=read, size=size, values=values: values.setdefault(
                tuple(v[x] for x in read), rng.randrange(size)
            ),
        )
    return builder.build()


class TestPerCheckEngine:
    """`check_admissible` decides each zero-error and wiretap check on the
    product of the roots its own variables depend on; every verdict must
    equal the full-product reference."""

    def test_differential_on_the_checked_codes(self):
        from entroflow.gadgets import adhere, compose_adhered_code, otp_code

        single = simple_problem([("e", "u", "v", 1)], [("S", 1, "u", ("v",))])
        single_code = CodeBuilder(single).source("S", 2).edge("e", 2, lambda v: v["S"]).build()
        codes = [relay_code(), pad_code(), butterfly_code(), otp_code(1, 2), otp_code(2, 3)]
        codes += [incremental_code(q) for q in quasi_uniform_library().values()]
        codes.append(compose_adhered_code(adhere(single), single_code))
        codes.append(compose_adhered_code(adhere(butterfly()), butterfly_code()))
        codes.append(exhaustive_search(butterfly(), alphabet_bounds=2).code)
        codes.append(exhaustive_search(pad_problem(), alphabet_bounds=2, allow_randomness=True).code)
        for code in codes:
            verdict = check_admissible(code)
            assert verdict, verdict.describe()
            assert verdict == full_product_verdict(code)

    def test_differential_on_tampered_witnesses(self, rng):
        from entroflow.gadgets import otp_code

        rejected = 0
        for code in (
            incremental_code(quasi_uniform_library()["independent-bits"]),
            incremental_code(quasi_uniform_library()["xor-triple"]),
            otp_code(1, 2),
        ):
            for m, enc in code.encoders.items():
                if enc.output_size < 2:
                    continue
                bad = tampered(code, m, rng.randrange(len(enc.table)))
                verdict = check_admissible(bad)
                assert verdict == full_product_verdict(bad), m
                rejected += not verdict
        assert rejected >= 20

    @pytest.mark.parametrize("randomness", [False, True])
    def test_differential_on_random_tables(self, rng, randomness):
        verdicts = []
        skewed = 0
        for _ in range(150):
            code = random_code(rng, random_dag_problem(rng, randomness))
            skewed += any(len(set(r.pmf)) > 1 for r in code.randomness.values())
            verdict = check_admissible(code)
            assert verdict == full_product_verdict(code), code_to_json(code)
            verdicts.append(verdict)
        reasons = {r[0] for v in verdicts for r in v.reasons}
        # Both verdicts occur, and every kind of reason the engine decides.
        assert any(verdicts) and not all(verdicts)
        assert {"decode", "leak"} <= reasons
        assert skewed if randomness else not skewed

    def test_differential_on_search_outputs(self, rng):
        found = 0
        for k in range(20):
            p = random_dag_problem(rng, k % 2 == 1)
            out = exhaustive_search(p, 2, allow_randomness=k % 2 == 1, budget=3000)
            if out.code is not None:
                found += 1
                assert check_admissible(out.code) == full_product_verdict(out.code)
                assert check_admissible(out.code)
        assert found >= 3

    def test_a_skewed_pad_leaks(self):
        code = (
            CodeBuilder(pad_problem())
            .source("X", 2)
            .randomness("s", ["1/3", "2/3"])
            .edge("e1", 2, lambda v: v["V"])
            .edge("e2", 2, lambda v: v["X"] ^ v["V"])
            .build()
        )
        assert check_admissible(code).describe() == "leak:1"
        assert check_secrecy(code) == (False, [1])

    def test_an_ignored_input_adds_no_root(self):
        # e2's tail holds Y and receives e1, but e2 reads e1 only.
        p = simple_problem(
            [("e1", "s", "a", 1), ("e2", "a", "t", 1)],
            [("S", 1, "s", ("t",)), ("Y", 1, "a", ("t",))],
        )
        code = (
            CodeBuilder(p)
            .source("S", 2)
            .source("Y", 2)
            .edge("e1", 2, lambda v: v["S"])
            .edge("e2", 2, lambda v: v["e1"])
            .build()
        )
        assert code.encoders["e2"].inputs == (("session", "Y"), ("edge", "e1"))
        roots, reads, mask = code._dependence
        assert roots == ("S", "Y")
        assert reads == {"e1": (("S", 1),), "e2": (("e1", 1),)}
        assert mask == {"S": 1, "Y": 2, "e1": 1, "e2": 1}
        assert check_admissible(code).describe() == "decode:t:Y"
        reads_y = tampered(code, "e2", 2)  # (Y, e1) = (1, 0) now gives 1: e2 = S or Y
        assert reads_y._dependence[1]["e2"] == (("Y", 2), ("e1", 1))
        assert reads_y._dependence[2]["e2"] == 3
        assert check_admissible(reads_y).describe() == "decode:t:S; decode:t:Y"
        for c in (code, reads_y):
            assert check_admissible(c) == full_product_verdict(c)

    def test_the_budget_bounds_each_check_not_the_product(self):
        # Eight independent 3-bit relays: 8^8 outcomes in all, 8 per check.
        pairs = [(f"e{i}", f"s{i}", f"t{i}", 3) for i in range(8)]
        p = simple_problem(pairs, [(f"X{i}", 3, f"s{i}", (f"t{i}",)) for i in range(8)])
        builder = CodeBuilder(p)
        for i in range(8):
            builder.source(f"X{i}", 8).edge(f"e{i}", 8, lambda v, x=f"X{i}": v[x])
        code = builder.build()
        with pytest.raises(BudgetExceededError):
            induced_joint_distribution(code)
        assert check_admissible(code)

    def test_a_check_past_the_budget_is_no_verdict(self):
        code = two_wide_randomness_code()
        with pytest.raises(BudgetExceededError, match="50000000 outcome points exceed the budget of 10000000"):
            check_admissible(code)
        with pytest.raises(BudgetExceededError):
            check_zero_error(code)


def two_wide_randomness_code():
    """X masked by the parity of a 5,000-symbol randomness at s, then again
    at a: the sink's check depends on X and both, 2 * 5000^2 outcomes."""
    p = simple_problem(
        [("e1", "s", "a", 1), ("e2", "a", "t", 1)],
        [("X", 1, "s", ("t",))],
        randomness_nodes=("a", "s"),
    )
    return (
        CodeBuilder(p)
        .source("X", 2)
        .randomness("s", 5000)
        .randomness("a", 5000)
        .edge("e1", 2, lambda v: v["X"] ^ (v["V"] % 2))
        .edge("e2", 2, lambda v: v["e1"] ^ (v["V"] % 2))
        .build()
    )


class TestDerivedOnce:
    def test_order_derived_once_per_problem(self, monkeypatch):
        derived = {"order": [], "errors": []}
        order, errors = network._derive_ancestral_order, network._structural_errors
        monkeypatch.setattr(
            network, "_derive_ancestral_order", lambda p: derived["order"].append(p) or order(p)
        )
        monkeypatch.setattr(
            network, "_structural_errors", lambda p: derived["errors"].append(p) or errors(p)
        )
        q = quasi_uniform_library()["xor-triple"]
        code = incremental_code(q)
        assert check_admissible(code)
        # The list keeps every problem alive, so equal ids mean one instance.
        for kind, problems in derived.items():
            assert any(p is code.problem for p in problems), kind
            assert len({id(p) for p in problems}) == len(problems), kind

    def test_cli_import_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(entroflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import sys, entroflow.cli; print(sorted({'numpy', 'scipy', 'concurrent.futures', 'ctypes', "
            "'logging', 'entroflow.rows', 'entroflow.highs'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_combinatorial_commands_load_no_lp_layer(self, tmp_path):
        """Importing the command line and running `search-code`,
        `check-code` and `check-entropic` loads neither the gadgets nor
        the LP; `cli.<name>` of an LP or gadget name still resolves."""
        src = os.path.dirname(os.path.dirname(entroflow.__file__))
        problem = tmp_path / "relay.json"
        problem.write_text(network.serialize(relay_problem()), encoding="utf-8")
        h = tmp_path / "h.json"
        h.write_text(EntropyVector.from_tuple([1, 1, 2]).to_json(), encoding="utf-8")
        probe = (
            "import contextlib, io, sys\n"
            "from entroflow import cli\n"
            "layers = ('entroflow.gadgets', 'entroflow.lp', 'entroflow.simplex', 'numpy')\n"
            "loaded = lambda: sorted(set(layers) & set(sys.modules))\n"
            "print(loaded())\n"
            "p, code, h = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    exits = [cli.main(['--json', 'search-code', p, '--out', code]),\n"
            "             cli.main(['--json', 'check-code', p, code]),\n"
            "             cli.main(['--json', 'check-entropic', h])]\n"
            "print(exits, loaded())\n"
            "import entroflow.lp\n"
            "print(cli.build_shannon_lp is entroflow.lp.build_shannon_lp, hasattr(cli, 'no_such_name'))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", probe, str(problem), str(tmp_path / "code.json"), str(h)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.splitlines() == ["[]", "[0, 0, 0] []", "True False"]


class TestDerandomize:
    def test_ignoring_randomness(self):
        p = pad_problem()
        code = (
            CodeBuilder(p)
            .source("X", 2)
            .randomness("s", 2)
            .edge("e1", 1, lambda v: 0)
            .edge("e2", 2, lambda v: v["X"])
            .build()
        )
        res = derandomize(code, "e2")
        assert res.ok
        assert all(ref[0] != "randomness" for ref in res.encoder.inputs)
        assert res.encoder.apply((1,) * len(res.encoder.inputs)) in (0, 1)

    def test_xor_premise_violated(self):
        res = derandomize(pad_code(), "e2")
        assert not res.ok
        assert "not independent" in res.detail

    def test_constant_in_randomness(self):
        p = pad_problem()
        code = (
            CodeBuilder(p)
            .source("X", 2)
            .randomness("s", 2)
            .edge("e1", 1, lambda v: 0)
            .edge("e2", 2, lambda v: v["X"] if v["V"] in (0, 1) else 0)
            .build()
        )
        res = derandomize(code, "e2")
        assert res.ok
        # The projected table reproduces the message everywhere.
        for x in range(2):
            assert res.encoder.apply((0, x) if len(res.encoder.inputs) == 2 else (x,)) == x

    def test_success_preserves_joint(self):
        p = pad_problem()
        code = (
            CodeBuilder(p)
            .source("X", 2)
            .randomness("s", 2)
            .edge("e1", 2, lambda v: v["V"])
            .edge("e2", 2, lambda v: v["X"])
            .build()
        )
        res = derandomize(code, "e2")
        assert res.ok
        new_code = (
            CodeBuilder(p)
            .source("X", 2)
            .randomness("s", 2)
            .edge("e1", 2, lambda v: v["V"])
            .edge("e2", 2, lambda v: v["X"])
            .build()
        )
        before = induced_joint_distribution(code)
        after = induced_joint_distribution(new_code)
        assert before == after

    def test_lemma_property_sample(self, rng):
        hits = 0
        for _ in range(60):
            p = pad_problem()
            vsize = rng.randint(1, 3)
            xsize = 2
            constant_in_v = rng.random() < 0.5
            if constant_in_v:
                base = [rng.randrange(2) for _ in range(xsize)]
                fn2 = lambda v, base=base: base[v["X"]]
            else:
                tbl = {
                    (x, w): rng.randrange(2)
                    for x in range(xsize)
                    for w in range(vsize)
                }
                fn2 = lambda v, tbl=tbl: tbl[(v["X"], v["V"])]
            code = (
                CodeBuilder(p)
                .source("X", xsize)
                .randomness("s", vsize)
                .edge("e1", 1, lambda v: 0)
                .edge("e2", 2, fn2)
                .build()
            )
            dist = induced_joint_distribution(code)
            premise = check_independence(dist, ("X", "e2"), ("V_s",))
            res = derandomize(code, "e2")
            if premise:
                hits += 1
                assert res.ok
                # Reproduces the message on every support point.
                names = dist.names()
                xi, ei = names.index("X"), names.index("e2")
                for outcome in dist.pmf:
                    assert res.encoder.apply((outcome[xi],)) == outcome[ei]
            else:
                assert not res.ok
        assert hits > 10


class TestExhaustiveSearch:
    def test_single_edge_identity(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        out = exhaustive_search(p, alphabet_bounds=2)
        assert out.status == "found"
        assert check_admissible(out.code)
        assert out.code.edge_alphabets["e"] == 2

    def test_butterfly_xor_found(self):
        out = exhaustive_search(butterfly(), alphabet_bounds=2)
        assert out.status == "found"
        assert check_admissible(out.code)
        # The coding point must combine both streams: the middle message
        # cannot be a function of either source edge alone.
        dist = induced_joint_distribution(out.code)
        from entroflow.entropy import check_functional_dependency

        assert not check_functional_dependency(dist, "e_34", ("e_s1",))
        assert not check_functional_dependency(dist, "e_34", ("e_s2",))

    def test_deterministic_secrecy_impossible(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "1"}],
            "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": ["t"]}],
            "wiretaps": [{"sources": ["X"], "edges": ["e"]}],
        }
        import json

        p = parse(json.dumps(doc))
        out = exhaustive_search(p, alphabet_bounds=2, allow_randomness=False)
        assert out.status == "exhausted"
        assert out.code is None

    def test_randomized_mode_finds_pad(self):
        out = exhaustive_search(pad_problem(), alphabet_bounds=2, allow_randomness=True)
        assert out.status == "found"
        assert out.code.randomness["s"].size == 2
        assert check_admissible(out.code)

    def test_budget_exceeded(self):
        out = exhaustive_search(butterfly(), alphabet_bounds=2, budget=10)
        assert out.status == "budget-exceeded"
        assert out.searched == 10
        assert 0 < out.fraction_searched < 1
        # Butterfly blocks end at 1, 3, 19, 83, 99, ... candidates; a budget
        # that ends on a boundary still stops before the next block.
        for budget in (82, 83, 84):
            out = exhaustive_search(butterfly(), alphabet_bounds=2, budget=budget)
            assert (out.status, out.searched, out.total) == ("budget-exceeded", budget, 4515)
        # The tapped single edge has blocks of 1 and 4 candidates and no code.
        tapped = simple_problem([("e", "s", "t", 1)], [("X", 1, "s", ("t",))])
        tapped = network.NetworkProblem(
            tapped.network,
            tapped.requirement,
            network.WiretapPattern((network.Wiretap(("X",), ("e",)),)),
        )
        expected = {
            0: ("budget-exceeded", 0, 5),
            1: ("budget-exceeded", 1, 5),
            2: ("budget-exceeded", 2, 5),
            4: ("budget-exceeded", 4, 5),
            5: ("exhausted", 5, 5),
            6: ("exhausted", 5, 5),
        }
        for budget, pinned in expected.items():
            out = exhaustive_search(tapped, alphabet_bounds=2, budget=budget)
            assert (out.status, out.searched, out.total) == pinned

    def test_debug_record_per_search(self, caplog):
        with caplog.at_level("DEBUG", logger="entroflow.codes"):
            found = exhaustive_search(butterfly(), alphabet_bounds=2)
            cut = exhaustive_search(butterfly(), alphabet_bounds=2, budget=10)
        messages = [r.getMessage() for r in caplog.records if r.name == "entroflow.codes"]
        assert len(messages) == 2
        assert messages[0].startswith(f"search: found, {found.searched} of 4515 candidates, ")
        assert messages[1].startswith("search: budget-exceeded, 10 of 4515 candidates, ")
        assert all(m.endswith(" candidates/s") for m in messages)
        assert cut.searched == 10

    def test_deterministic_reproducible(self):
        a = exhaustive_search(butterfly(), alphabet_bounds=2)
        b = exhaustive_search(butterfly(), alphabet_bounds=2)
        assert code_to_json(a.code) == code_to_json(b.code)

    def test_against_randomized_restart_oracle(self, rng):
        # On tiny instances an independent random-sampling oracle must
        # agree with the exhaustive verdict about existence.
        for cap, rate, expect in (("1", "1", True), ("1/2", "1", False), ("1", "2", False)):
            p = simple_problem([("e", "s", "t", cap)], [("S", Fraction(rate), "s", ("t",))])
            out = exhaustive_search(p, alphabet_bounds=2)
            assert (out.status == "found") == expect
            oracle_found = False
            for _ in range(200):
                size = rng.randint(1, 2)
                if not alphabet_fits_capacity(size, Capacity.of(cap)):
                    continue
                src = minimal_source_alphabet(Fraction(rate))
                table = [rng.randrange(size) for _ in range(src)]
                code = (
                    CodeBuilder(p)
                    .source("S", src)
                    .edge("e", size, lambda v, t=table: t[v["S"]])
                    .build()
                )
                if check_admissible(code):
                    oracle_found = True
                    break
            assert oracle_found == expect


class TestCodeJson:
    def test_round_trip(self):
        code = pad_code()
        text = code_to_json(code)
        again = code_from_json(code.problem, text)
        assert again == code
        assert induced_joint_distribution(again) == induced_joint_distribution(code)

    def test_round_trip_butterfly(self):
        code = butterfly_code()
        again = code_from_json(code.problem, code_to_json(code))
        assert again == code


class TestDeterministicCodeInvariants:
    def test_messages_are_source_functions(self):
        from entroflow.entropy import check_functional_dependency

        for code in (relay_code(), butterfly_code()):
            dist = induced_joint_distribution(code)
            sessions = code.session_order()
            assert len(dist.pmf) == 1 * __import__("math").prod(
                code.source_alphabets[s] for s in sessions
            )
            for msg in code.edge_alphabets:
                assert check_functional_dependency(dist, msg, sessions)
