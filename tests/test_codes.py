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
)
from entroflow.entropy import EntropyVector, check_independence
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

    def test_given_distribution_gives_the_same_verdict(self):
        leaky = (
            CodeBuilder(pad_problem())
            .source("X", 2)
            .edge("e1", 2, lambda v: v["X"])
            .edge("e2", 2, lambda v: v["X"])
            .build()
        )
        assert not check_admissible(leaky)
        for code in (relay_code(), pad_code(), butterfly_code(), leaky):
            dist = induced_joint_distribution(code)
            assert check_admissible(code, dist=dist) == check_admissible(code)


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
