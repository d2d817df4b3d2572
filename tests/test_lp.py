import json
import random
import re
from fractions import Fraction

import pytest

from entroflow.entropy import GroundSet, elemental_inequalities
from entroflow.lp import (
    Certificate,
    Claim,
    GroundTooLargeError,
    ShannonSolver,
    build_shannon_lp,
    certificate_to_json,
    compile_expression,
    export_text,
    satisfies,
    verify_proof_chain,
)
from entroflow.codes import CodeBuilder, induced_joint_distribution
from entroflow.network import min_cut, parse

from test_gadgets import contract_pool
from test_network import butterfly, simple_problem
from test_codes import butterfly_code, pad_code, pad_problem, relay_code, relay_problem

F = Fraction


def row_tags(lp):
    """The provenance tag of every row of an LP, in row order."""
    return [lp.tag(i) for i in range(len(lp.rows))]


def mask_terms(lp, i):
    """Row i's (closed mask, coefficient) terms, masks ascending."""
    return tuple((lp.coords[j], c) for j, c in lp.rows[i].coeffs.items())


class TestExpressionCompiler:
    def setup_method(self):
        self.g = GroundSet(("A", "B", "C"))

    def mask(self, *labels):
        return self.g.mask_of(labels)

    def test_entropy(self):
        coeffs, const = compile_expression(self.g, "H(A)")
        assert coeffs == {self.mask("A"): 1} and const == 0

    def test_joint_and_conditional(self):
        coeffs, _ = compile_expression(self.g, "H(A,B|C)")
        assert coeffs == {self.mask("A", "B", "C"): 1, self.mask("C"): -1}

    def test_mutual_information(self):
        coeffs, _ = compile_expression(self.g, "I(A;B|C)")
        assert coeffs == {
            self.mask("A", "C"): 1,
            self.mask("B", "C"): 1,
            self.mask("A", "B", "C"): -1,
            self.mask("C"): -1,
        }

    def test_unconditional_information(self):
        coeffs, _ = compile_expression(self.g, "I(A;B)")
        assert coeffs == {
            self.mask("A"): 1,
            self.mask("B"): 1,
            self.mask("A", "B"): -1,
        }

    def test_combination_with_constants(self):
        coeffs, const = compile_expression(self.g, "2*H(A) - 1/2*H(B) + 3")
        assert coeffs == {self.mask("A"): F(2), self.mask("B"): F(-1, 2)}
        assert const == 3

    def test_cancellation(self):
        coeffs, _ = compile_expression(self.g, "H(A,B) - H(A,B)")
        assert coeffs == {}

    def test_bad_expression(self):
        with pytest.raises(ValueError):
            compile_expression(self.g, "H(A")
        with pytest.raises(KeyError):
            compile_expression(self.g, "H(Z)")


class TestBuild:
    def test_single_edge_feasible(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = ShannonSolver(lp).feasibility()
        assert cert.status == "feasible"

    def test_single_edge_infeasible_with_farkas(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = ShannonSolver(lp).feasibility()
        assert cert.status == "infeasible"
        assert cert.farkas is not None
        assert cert.farkas and all(cert.farkas.values())

    def test_elemental_family_matches_reference(self):
        # Unreduced generation must list exactly the classic elemental set.
        p = simple_problem(
            [("e1", "s", "a", 1), ("e2", "a", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        lp = build_shannon_lp(p, reduce=False)
        got = {
            frozenset(mask_terms(lp, i))
            for i, tag in enumerate(row_tags(lp))
            if tag[0] == "elemental"
        }
        want = set()
        for f in elemental_inequalities(GroundSet(lp.ground.labels)):
            want.add(frozenset((m, c) for m, c in f.coefficients.items()))
        assert got == want

    def test_ground_limit(self):
        edges = [(f"e{i}", "s", "t", 1) for i in range(16)]
        p = simple_problem(edges, [("S", 1, "s", ("t",))])
        with pytest.raises(GroundTooLargeError):
            build_shannon_lp(p)

    def test_rate_sessions_is_all_or_none(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])

        def rate_tags(**kwargs):
            return {tag for tag in row_tags(build_shannon_lp(p, **kwargs)) if tag[0] == "rate"}

        assert rate_tags() == {("rate", "S")}
        assert rate_tags(rate_sessions="none") == set()
        with pytest.raises(ValueError, match="rate_sessions"):
            build_shannon_lp(p, rate_sessions=("S",))

    def test_subnetwork_selection(self):
        p = butterfly()
        lp = build_shannon_lp(p, variables=("T", "e_s1", "e_s2"))
        assert lp.ground.labels == ("T", "e_s1", "e_s2")
        # Decode rules fall away (their inputs are outside the ground).
        assert all(tag[0] != "decode" for tag in row_tags(lp))

    def test_randomness_auto_included(self):
        lp = build_shannon_lp(pad_problem())
        assert "V_s" in lp.ground.labels

    def test_subnetwork_without_relay_randomness_keeps_it_in_causality(self):
        # K and W3 are functions of (W1, V_a); a subnetwork without V_a must
        # drop their causality rules, not assert K and W3 functions of W1.
        # With them, the one-time pad (an admissible code) reads infeasible.
        from entroflow.gadgets import build_secure

        problem = build_secure(1, 2).problem
        sub = ["X", "W1", "W2", "W3", "K", "W4", "W5"]
        assert ShannonSolver(build_shannon_lp(problem, variables=sub)).feasibility().status == "feasible"
        tags = set(row_tags(build_shannon_lp(problem, variables=sub, reduce=False)))
        assert ("causality", "K") not in tags and ("causality", "W3") not in tags
        assert ("causality", "W4") in tags
        full = set(row_tags(build_shannon_lp(problem, variables=sub + ["V_a"], reduce=False)))
        assert {("causality", "K"), ("causality", "W3")} <= full

    def test_export_mentions_tags(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        text = export_text(build_shannon_lp(p))
        assert "capacity:e" in text
        assert "rate:S" in text
        assert ">=" in text and "<=" in text


class TestOptima:
    def test_capacity_alone(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p, rate_sessions="none")
        cert = ShannonSolver(lp).maximize("H(e)")
        assert cert.value == 1

    def test_single_edge_rate(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p, rate_sessions="none")
        assert ShannonSolver(lp).maximize("H(S)").value == 1

    def test_butterfly_multicast_rate(self):
        p = butterfly()
        lp = build_shannon_lp(p, rate_sessions="none")
        cert = ShannonSolver(lp).maximize("H(T)")
        assert cert.value == 2

    def test_reduced_and_raw_agree(self):
        for edges, sessions in (
            ([("e", "s", "t", "3/2")], [("S", 1, "s", ("t",))]),
            (
                [("e1", "s", "a", 1), ("e2", "a", "t", "1/2")],
                [("S", 1, "s", ("t",))],
            ),
            (
                [("sa", "s", "a", 1), ("sb", "s", "b", 2), ("at", "a", "t", 1), ("bt", "b", "t", 1)],
                [("S", 1, "s", ("t",))],
            ),
        ):
            p = simple_problem(edges, sessions)
            reduced = ShannonSolver(build_shannon_lp(p, rate_sessions="none")).maximize("H(S)")
            raw = ShannonSolver(build_shannon_lp(p, rate_sessions="none", reduce=False)).maximize("H(S)")
            assert reduced.value == raw.value

    def test_min_cut_agreement_sample(self):
        rng = random.Random(5)
        for _ in range(6):
            nodes = ["s", "a", "b", "t"]
            rank = {v: i for i, v in enumerate(nodes)}
            edges = []
            for k in range(rng.randint(2, 6)):
                u, v = rng.sample(nodes, 2)
                if rank[u] > rank[v]:
                    u, v = v, u
                cap = F(rng.randint(0, 3), rng.randint(1, 2))
                edges.append((f"e{k}", u, v, cap))
            p = simple_problem(edges, [("S", 1, "s", ("t",))], nodes=nodes)
            lp = build_shannon_lp(p, rate_sessions="none")
            got = ShannonSolver(lp).maximize("H(S)").value
            cut = min_cut(p, "s", "t")
            assert got == cut.value

    def test_minimize(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = ShannonSolver(lp).minimize("H(S)")
        assert cert.value == 1  # the rate row forces at least 1

    def test_warm_solver_reuse(self):
        p = butterfly()
        solver = ShannonSolver(build_shannon_lp(p, rate_sessions="none"))
        first = solver.maximize("H(T)")
        second = solver.maximize("H(e_34)")
        third = solver.maximize("H(T)")
        assert first.value == third.value == 2
        assert second.value == 1


FALLBACK_CASES = pytest.mark.parametrize(
    "problem,kwargs,objective",
    [
        (simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))]), {}, "H(S)"),
        (simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))]), {}, "H(S)"),
        (butterfly(), {"rate_sessions": "none"}, "H(T)"),
    ],
    ids=["single-edge", "single-edge-infeasible", "butterfly"],
)


class TestLeanHighsLoad:
    def test_loads_only_the_extension(self):
        # A fresh interpreter: entroflow's float solve loads HiGHS's
        # extension by itself, and a later `import scipy.optimize` uses it.
        import os
        import subprocess
        import sys
        import textwrap

        import entroflow

        src = os.path.dirname(os.path.dirname(entroflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = textwrap.dedent(
            """
            import json, sys
            from entroflow.lp import ShannonSolver, build_shannon_lp
            from entroflow.network import parse

            net = {
                "nodes": ["s", "t"],
                "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "1"}],
                "sessions": [{"id": "S", "rate": "1", "origin": "s", "sinks": ["t"]}],
            }
            solver = ShannonSolver(build_shannon_lp(parse(json.dumps(net))))
            print(solver.maximize("H(S)").value, solver.stats.highs_runs)
            print(sorted({"scipy.optimize", "scipy.sparse"} & set(sys.modules)))
            import scipy.optimize
            print(scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], method="highs").fun)
            print(sys.modules["scipy.optimize._highspy._core"] is solver._highs.core)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.split("\n") == ["1 1", "[]", "1.0", "True", ""]


# certificate_to_json of the exact-simplex certificates on FALLBACK_CASES: the
# maximum, then feasibility on the same solver.  Recorded while certificates
# still held one multiplier per LP row; the sparse form prints the same bytes.
# A repeat solve of an infeasible LP makes no pivot, so it reports none.
FALLBACK_JSON = {
    "single-edge": [
        {"status": "optimal", "orientation": "max", "value": "1", "primal": {"{S,e}": "1"},
         "duals": {"capacity:e": "1"}, "pivots": 3},
        {"status": "feasible", "orientation": "feasibility", "value": None,
         "primal": {"{S,e}": "1"}, "duals": {}, "pivots": 0},
    ],
    "single-edge-infeasible": [
        {"status": "infeasible", "orientation": "max", "value": None,
         "farkas": {"capacity:e": "1", "rate:S": "-1"}, "pivots": 1},
        {"status": "infeasible", "orientation": "feasibility", "value": None,
         "farkas": {"capacity:e": "1", "rate:S": "-1"}, "pivots": 0},
    ],
    "butterfly": [
        {"status": "optimal", "orientation": "max", "value": "2",
         "primal": {"{e_s1}": "1", "{e_s2}": "1", "{e_34}": "1", "{T,e_s1,e_s2,e_34}": "2"},
         "duals": {"elemental:I(e_s1;e_s2|{})": "-1", "capacity:e_s1": "1", "capacity:e_s2": "1"},
         "pivots": 5},
        {"status": "feasible", "orientation": "feasibility", "value": None,
         "primal": {"{e_s1}": "1", "{e_s2}": "1", "{e_34}": "1", "{T,e_s1,e_s2,e_34}": "2"},
         "duals": {}, "pivots": 0},
    ],
}


class TestExactFallback:
    @FALLBACK_CASES
    def test_certificate_json_is_pinned(self, problem, kwargs, objective, monkeypatch, request):
        monkeypatch.setattr(ShannonSolver, "_float_solve", lambda self, objective, bases: None)
        lp = build_shannon_lp(problem, **kwargs)
        solver = ShannonSolver(lp)
        certs = [solver.maximize(objective), solver.feasibility()]
        assert solver.stats.exact == 2
        for cert in certs:
            for multipliers in filter(None, (cert.duals, cert.farkas)):
                assert all(multipliers.values())
                assert set(multipliers) <= set(range(len(lp.rows)))
        want = FALLBACK_JSON[request.node.callspec.id]
        assert [certificate_to_json(lp, c) for c in certs] == [json.dumps(d, indent=2) for d in want]

    def exact_path_agrees(self, problem, kwargs, objective, disable_proposals):
        lp = build_shannon_lp(problem, **kwargs)
        want = ShannonSolver(lp).maximize(objective)
        want_feasible = ShannonSolver(lp).feasibility().status
        disable_proposals()
        solver = ShannonSolver(lp)
        assert solver.simplex is None
        got = solver.maximize(objective)
        assert solver.simplex is not None
        assert (got.status, got.value) == (want.status, want.value)
        assert solver.feasibility().status == want_feasible
        return solver

    @FALLBACK_CASES
    def test_matches_float_path_without_proposal(self, problem, kwargs, objective, monkeypatch):
        # Without a float proposal (as without scipy) the lazy exact simplex
        # settles the LP; it must agree with the float-certified answer.
        def disable():
            monkeypatch.setattr(ShannonSolver, "_float_solve", lambda self, objective, bases: None)

        self.exact_path_agrees(problem, kwargs, objective, disable)

    @FALLBACK_CASES
    def test_matches_float_path_without_highs_bindings(self, problem, kwargs, objective, monkeypatch):
        # A scipy without its bundled HiGHS bindings makes no proposal either.
        import sys

        def disable():
            monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)

        solver = self.exact_path_agrees(problem, kwargs, objective, disable)
        assert (solver.stats.exact, solver.stats.highs_runs) == (2, 0)

    @FALLBACK_CASES
    def test_matches_float_path_with_rejected_proposal(self, problem, kwargs, objective, monkeypatch):
        # HiGHS proposes, but the proposal fails verification: the exact
        # simplex settles the LP, seeded with the rows on HiGHS's optimal face.
        import numpy as np

        lp = build_shannon_lp(problem, **kwargs)
        want = ShannonSolver(lp).maximize(objective)
        proposals = []

        def reject(self, objective, res):
            proposals.append(res)

        monkeypatch.setattr(ShannonSolver, "_float_certificate", reject)
        monkeypatch.setattr(ShannonSolver, "_float_farkas", lambda self: None)
        solver = ShannonSolver(lp)
        got = solver.maximize(objective)
        assert (got.status, got.value) == (want.status, want.value)
        assert (solver.stats.exact, solver.stats.highs_runs) == (1, 1)
        face = []
        if proposals:
            (res,) = proposals
            tight = (np.abs(res.row_dual) > 1e-9) | (np.abs(res.row_slack) < 1e-7)
            face = [i for i in lp.elemental_rows if tight[i]]
        assert sorted(set(solver.active) & set(lp.elemental_rows)) == face

    def test_exact_simplex_built_only_on_fallback(self):
        solver = ShannonSolver(build_shannon_lp(butterfly(), rate_sessions="none"))
        assert solver.maximize("H(T)").value == 2
        assert solver.feasibility().status == "feasible"
        assert solver.simplex is None


def chain_sequences(h):
    """(lp, steps) per chain-claim subnetwork of the incremental gadget on h.

    The steps are the solves `verify_proof_chain` makes, in its order: the
    feasibility check, then a maximize and a minimize per claim.
    """
    from entroflow.entropy import EntropyVector
    from entroflow.gadgets import build_incremental

    gadget = build_incremental(EntropyVector.from_tuple([F(v) for v in h]))
    groups = {}
    for ob in gadget.contract.obligations:
        if ob.kind == "chain-claim":
            groups.setdefault(ob.subnetwork, []).append(ob.expression)
    return [
        (
            build_shannon_lp(gadget.problem, variables=key),
            [("feasibility", None)] + [(sense, e) for e in expressions for sense in ("max", "min")],
        )
        for key, expressions in groups.items()
    ]


def solve_step(solver, sense, expression):
    if sense == "feasibility":
        return solver.feasibility()
    return solver.maximize(expression) if sense == "max" else solver.minimize(expression)


@pytest.fixture(scope="class", params=[(1, 1, 2), (1, 2, 3), (2, 2, 3)], ids=str)
def warm_chains(request):
    """Per LP: its steps, two fresh solvers' warm runs of them, and a cold
    solve (a fresh solver) per step."""
    out = []
    for lp, steps in chain_sequences(request.param):
        runs = []
        for _ in range(2):
            solver = ShannonSolver(lp)
            runs.append((solver, [solve_step(solver, *step) for step in steps]))
        cold = {step: solve_step(ShannonSolver(lp), *step) for step in dict.fromkeys(steps)}
        out.append((lp, steps, runs, [cold[step] for step in steps]))
    return out


class TestWarmStart:
    """One HiGHS handle per solver, re-solved from its last basis."""

    def test_same_status_and_optimum_as_cold(self, warm_chains):
        for _, steps, runs, cold in warm_chains:
            warm = runs[0][1]
            assert [(c.status, c.value) for c in warm] == [(c.status, c.value) for c in cold]
            assert all(c.status in ("optimal", "feasible") for c in warm)

    def test_every_certificate_verifies(self, warm_chains):
        from entroflow.simplex import SimplexCertificate, verify_certificate

        for lp, steps, runs, _ in warm_chains:
            solver, certs = runs[0]
            for (sense, expression), cert in zip(steps, certs):
                coeffs, constant = lp.compile(expression or "0")
                assert constant == 0
                sign = -1 if sense == "min" else 1
                objective = {j: sign * c for j, c in solver._to_cols(coeffs).items()}
                value = F(0) if cert.status == "feasible" else sign * cert.value
                x = {solver.index[m]: v for m, v in cert.primal.items()}
                column = SimplexCertificate("optimal", value, x, cert.duals, None, None, ())
                verify_certificate(len(lp.coords), lp.rows, objective, column)

    def test_fresh_solvers_agree_byte_for_byte(self, warm_chains):
        for lp, _, runs, _ in warm_chains:
            first, second = ([certificate_to_json(lp, c) for c in certs] for _, certs in runs)
            assert first == second

    def test_each_distinct_objective_costs_one_highs_run(self, warm_chains):
        for _, steps, runs, _ in warm_chains:
            stats = runs[0][0].stats
            distinct = len(set(steps))
            assert stats.highs_runs == stats.float_cert == distinct
            assert stats.memo_hits == len(steps) - distinct
            assert stats.warm_starts == distinct - 1
            assert stats.float_farkas == stats.exact == 0

    def test_repeated_objective_is_settled_once(self):
        lp, steps = chain_sequences((1, 1, 2))[0]
        expression = steps[1][1]
        solver = ShannonSolver(lp)
        solver.feasibility()
        assert (solver.stats.highs_runs, solver.stats.warm_starts) == (1, 0)
        first = solver.maximize(expression)
        assert (solver.stats.highs_runs, solver.stats.warm_starts) == (2, 1)
        again = solver.maximize(expression)
        assert again == first
        assert (solver.stats.highs_runs, solver.stats.memo_hits) == (2, 1)

    def test_debug_record_per_solve(self, caplog):
        solver = ShannonSolver(build_shannon_lp(butterfly(), rate_sessions="none"))
        with caplog.at_level("DEBUG", logger="entroflow.lp"):
            solver.maximize("H(T)")
            solver.maximize("H(T)")
        messages = [r.getMessage() for r in caplog.records if r.name == "entroflow.lp"]
        assert len(messages) == 2
        assert "settled by float_cert, 1 HiGHS runs (0 warm, 0 from stored bases)" in messages[0]
        assert messages[1] == "solve: optimal, settled by memo"


class TestBasisStore:
    """`highs.BASES`: optimal bases that proof chains on one matrix share."""

    def test_least_recently_used_bases_go_first(self):
        from entroflow.highs import LruStore

        store = LruStore(cap=10)
        for key in (b"a", b"b", b"c"):
            store.put(key, key.decode(), 3)
        assert store.get(b"a") == "a"  # a is now the most recently used
        store.put(b"d", "d", 3)  # 12 statuses: b, the least recently used, goes
        assert (store.get(b"b"), len(store), store.size) == (None, 3, 9)
        store.put(b"e", "e", 5)  # 14 statuses: c, then a, go
        assert [store.get(key) for key in (b"a", b"c", b"d", b"e")] == [None, None, "d", "e"]
        assert store.size == 8
        store.put(b"d", "d2", 2)  # a new basis under a stored key replaces it
        assert (store.get(b"d"), len(store), store.size) == ("d2", 2, 7)
        store.put(b"f", "f", 11)  # larger than the cap: not stored, the rest stays
        assert [store.get(key) for key in (b"d", b"e", b"f")] == ["d2", "e", None]
        assert store.size == 7

    def test_updates_are_not_lost(self):
        # More threads than cores each add their own items to the value
        # under one key, with a short switch interval: every item is there
        # at the end, which a read and a write in two steps would break.
        import sys
        import threading

        from entroflow.highs import LruStore

        store = LruStore(cap=1 << 20)

        def run(t):
            for i in range(200):
                store.update(b"k", lambda old: ((*(old or ()), (t, i)), 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(store.get(b"k")) == [(t, i) for t in range(6) for i in range(200)]
        assert (len(store), store.size) == (1, 1)

    def test_reads_and_writes_wait_for_the_lock(self):
        # While another thread holds the store's lock, no get, put or clear
        # completes; each does once the lock is free.
        import threading

        from entroflow.highs import LruStore

        store = LruStore(cap=10)
        store.put(b"a", "a", 3)
        got = []
        calls = [lambda: store.put(b"b", "b", 4), lambda: got.append(store.get(b"a")), store.clear]
        for call in calls:
            started, finished = threading.Event(), threading.Event()

            def run():
                started.set()
                call()
                finished.set()

            with store._lock:
                thread = threading.Thread(target=run, daemon=True)
                thread.start()
                assert started.wait(10)
                assert not finished.wait(0.2)
            assert finished.wait(10)
            thread.join(10)
            if call is calls[0]:
                assert (store.get(b"b"), store.size) == ("b", 7)
        assert got == ["a"]
        assert (len(store), store.size) == (0, 0)

    @staticmethod
    def smallest_chain(h):
        return min(chain_sequences(h), key=lambda chain: len(chain[0].rows))

    @staticmethod
    def chain(lp, steps):
        claims = [(f"c{i}", e, ">=", 0) for i, (sense, e) in enumerate(steps) if sense == "max"]
        solver = ShannonSolver(lp)
        return verify_proof_chain(solver, claims), solver.stats

    def test_chain_on_another_h_starts_from_stored_bases(self):
        from entroflow.highs import BASES

        first, second = self.smallest_chain((1, 1, 2)), self.smallest_chain((1, 2, 3))
        assert first[1] == second[1]  # one subnetwork, the same objectives
        cold_report, cold = self.chain(*second)
        BASES.clear()
        _, seeded = self.chain(*first)
        assert seeded.stored_starts == 0 and len(BASES) == seeded.highs_runs
        report, stats = self.chain(*second)
        assert report == cold_report
        assert stats.stored_starts == stats.highs_runs > 0
        assert stats.simplex_iterations < cold.simplex_iterations
        assert stats.exact == 0

    def test_direct_solves_neither_read_nor_write_the_store(self):
        from entroflow.highs import BASES

        lp, steps = self.smallest_chain((1, 1, 2))

        def direct():
            solver = ShannonSolver(lp)
            certs = [certificate_to_json(lp, solve_step(solver, *step)) for step in steps]
            assert solver.stats.stored_starts == 0
            return certs

        alone = direct()
        assert len(BASES) == 0
        self.chain(lp, steps)
        self.chain(*self.smallest_chain((1, 2, 3)))
        stored = len(BASES)
        assert stored > 0
        assert direct() == alone
        assert len(BASES) == stored

    def test_after_a_chain_only_certificates_can_depend_on_the_store(self):
        # A solver that ran a chain may answer later solves from stored
        # bases (and its memo); their statuses and optima stay the same.
        from entroflow.highs import BASES

        lp, steps = self.smallest_chain((1, 2, 3))
        claims = [(f"c{i}", e, ">=", 0) for i, (sense, e) in enumerate(steps) if sense == "max"]

        def after_chain():
            solver = ShannonSolver(lp)
            report = verify_proof_chain(solver, claims)
            optima = [(c.status, c.value) for c in (solve_step(solver, *step) for step in steps)]
            return report, optima, solver.stats.stored_starts

        *cold, none_stored = after_chain()
        BASES.clear()
        self.chain(*self.smallest_chain((1, 1, 2)))
        *warm, stored = after_chain()
        assert warm == cold
        assert none_stored == 0 < stored


def contract_chain(h, name):
    """(lp, claims) of the chain of the incremental gadget on h that proves
    the obligation `name`: every claim on that subnetwork."""
    from entroflow.entropy import EntropyVector
    from entroflow.gadgets import build_incremental

    gadget = build_incremental(EntropyVector.from_tuple([F(v) for v in h]))
    chains = [ob for ob in gadget.contract.obligations if ob.kind == "chain-claim"]
    (key,) = {ob.subnetwork for ob in chains if ob.name == name}
    claims = [(ob.name, ob.expression, ob.relation, ob.value) for ob in chains if ob.subnetwork == key]
    return build_shannon_lp(gadget.problem, variables=key), claims


class TestStoredDuals:
    """Chain claims settled from the duals stored in `highs.BASES`: each is
    verified again exactly, and a bad one costs only a HiGHS run."""

    @staticmethod
    def chain(lp, claims):
        solver = ShannonSolver(lp)
        return verify_proof_chain(solver, claims), solver

    def test_forced_claims_settle_without_highs(self, caplog):
        from entroflow.highs import BASES

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        BASES.clear()
        cold, solver = self.chain(lp, claims)
        assert solver.stats.stored_dual == 0
        with caplog.at_level("DEBUG", logger="entroflow.lp"):
            warm, solver = self.chain(lp, claims)
        assert warm == cold and warm.all_forced
        stats = solver.stats
        # No solve reaches HiGHS: the feasibility point is the stored one,
        # and both sides of the claim pair the stored dual with it.
        assert (stats.stored_point, stats.stored_dual, stats.highs_runs, stats.float_cert) == (1, 2, 0, 0)
        assert stats.solves == 3
        assert solver._highs is None  # no HiGHS run, so no handle either
        paths = [r.getMessage().split(", ")[1] for r in caplog.records if r.name == "entroflow.lp"]
        assert paths == ["settled by stored_point"] + ["settled by stored_dual"] * 2

    def test_every_path_returns_sparse_certificates_that_compare_as_maps(self, monkeypatch):
        from dataclasses import replace

        from entroflow.highs import BASES
        from entroflow.rows import Sparse

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        ((_, expression, _, _),) = claims
        BASES.clear()
        _, cold = self.chain(lp, claims)
        _, warm = self.chain(lp, claims)
        assert (warm.stats.stored_point, warm.stats.stored_dual) == (1, 2)
        # A chain reads no certificate as a mapping, so it builds no Fraction per entry.
        chained = [*cold._memo.values(), *warm._memo.values()]
        assert all(v._map is None for c in chained for v in (c.x, c.duals) if v is not None)
        stored = warm.maximize(expression)  # the chain's answer, from the memo
        solvers = [ShannonSolver(lp) for _ in range(2)]
        floats = [solver.maximize(expression) for solver in solvers]
        infeasible = ShannonSolver(build_shannon_lp(*infeasible_case("single-edge"))).feasibility()
        monkeypatch.setattr(ShannonSolver, "_float_solve", lambda self, objective, bases: None)
        exact = ShannonSolver(lp).maximize(expression)
        assert floats[0] == floats[1]
        # The solvers' own certificates (by column and LP row) compare too.
        assert list(solvers[0]._memo.values()) == list(solvers[1]._memo.values())
        assert stored.value == floats[0].value == exact.value
        assert infeasible.farkas
        for cert in (stored, *floats, exact, infeasible):
            vectors = {k: getattr(cert, k) for k in ("primal", "duals", "farkas", "ray")}
            assert all(v is None or isinstance(v, Sparse) for v in vectors.values())
            as_dicts = replace(cert, **{k: v if v is None else dict(v) for k, v in vectors.items()})
            assert cert == as_dicts and as_dicts == cert

    @staticmethod
    def corrupted(lp, entry, other, kind):
        """The stored dual of `entry` made wrong: one multiplier on a row with
        a nonzero right side flipped, doubled or moved by 1/2^20, or the dual
        stored for another cost (`other`)."""
        from entroflow.rows import Sparse

        if kind == "other-cost":
            return other.dual
        dual = entry.dual
        k = next(k for k, i in enumerate(dual.index.tolist()) if lp.rows.rhs[i] != 0)
        num, den = dual.num.copy(), dual.den
        if kind == "flip":
            num[k] = -num[k]
        elif kind == "scale":
            num[k] = 2 * num[k]
        else:
            num, den = num * 2**20, den * 2**20
            num[k] += dual.den
        return Sparse(dual.index, num, den)

    @pytest.mark.parametrize("kind", ["flip", "scale", "move", "other-cost"])
    def test_a_bad_stored_dual_falls_back_to_highs(self, kind):
        from entroflow.highs import BASES, Stored, entry_key

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        ((_, expression, _, value),) = claims
        assert value != 0  # so the bound of a dual for the minimum differs
        BASES.clear()
        cold, solver = self.chain(lp, claims)
        objective = solver._to_cols(lp.compile(expression)[0])
        digest = solver._store[0]
        keys = [entry_key(digest, solver._cost(side)) for side in (objective, {j: -c for j, c in objective.items()})]
        entry, other = (BASES.get(key) for key in keys)
        assert entry.dual is not None and other.dual is not None
        bad = self.corrupted(lp, entry, other, kind)
        BASES.put(keys[0], Stored(entry.basis, bad, entry.points), 1)
        report, solver = self.chain(lp, claims)
        assert report == cold  # the same verdicts and exact optima
        stats = solver.stats
        # The maximum fell back to HiGHS: no point pairs with the bad dual.
        # The feasibility solve settled from its stored point, the minimum
        # from its dual.
        assert (stats.stored_point, stats.stored_dual, stats.highs_runs, stats.float_cert) == (1, 1, 1, 1)
        assert BASES.get(keys[0]).dual is not bad  # the fallback stored its own verified dual

    def test_the_feasibility_point_takes_the_dual_half_alone(self, monkeypatch):
        # A warm chain: the feasibility solve settles from a stored point,
        # which takes both halves of the check; each claim pairs that
        # verified point with its stored dual, which takes the dual half
        # only.  So the chain makes one pass over every row, not three.
        from entroflow import lp as lp_module
        from entroflow.highs import BASES

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        BASES.clear()
        cold, _ = self.chain(lp, claims)
        calls = {"verify_point": 0, "verify_dual": 0}
        for name in calls:

            def counted(*args, original=getattr(lp_module, name), name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(lp_module, name, counted)
        warm, solver = self.chain(lp, claims)
        assert warm == cold
        assert (solver.stats.stored_point, solver.stats.stored_dual) == (1, 2)
        assert calls == {"verify_point": 1, "verify_dual": 3}

    def test_any_other_point_takes_the_row_pass(self):
        # The chain's verified feasibility point, moved on one coordinate
        # outside the objective so that it breaks a row but still attains
        # the stored dual's bound: paired with that dual it is refused,
        # because it is not the point that passed the row check.  A copy
        # equal to the verified point passes the full check.
        from entroflow.highs import BASES, entry_key
        from entroflow.rows import Sparse
        from entroflow.simplex import verify_dual

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        ((_, expression, _, _),) = claims
        BASES.clear()
        self.chain(lp, claims)
        _, solver = self.chain(lp, claims)
        x = solver._feasible
        objective = solver._to_cols(lp.compile(expression)[0])
        dual = BASES.get(entry_key(solver._store[0], solver._cost(objective))).dual
        assert solver._paired(objective, x, dual) is not None
        copy = Sparse(x.index.copy(), x.num.copy(), x.den)
        assert solver._paired(objective, copy, dual) is not None
        n = len(lp.coords)
        moved = []
        for j in sorted(set(range(n)) - set(objective)):
            values = dict(x)
            values[j] = values.get(j, 0) + 1
            moved.append(Sparse.of(values))
        bad = next(p for p in moved if lp.rows.violated(n, p).any())
        value = bad.dot(objective)
        verify_dual(n, lp.rows, objective, dual, value)  # the dual half alone would take it
        assert value == x.dot(objective)
        assert solver._paired(objective, bad, dual) is None

    def test_an_unverified_run_leaves_the_entry_it_read(self, monkeypatch):
        # The maximum's stored dual broken, and the proposal of its HiGHS
        # run from the stored basis rejected once: the exact simplex settles
        # the claim.  Nothing unverified is stored, so the entry stays the
        # one the solve read, and that solve reads the store once.
        from entroflow.highs import BASES, LruStore, entry_key

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        ((_, expression, _, _),) = claims
        BASES.clear()
        cold, solver = self.chain(lp, claims)
        objective = solver._to_cols(lp.compile(expression)[0])
        digest = solver._store[0]
        keys = [entry_key(digest, solver._cost(side)) for side in (objective, {j: -c for j, c in objective.items()})]
        entry, other = (BASES.get(key) for key in keys)
        broken = entry._replace(dual=self.corrupted(lp, entry, other, "flip"))
        BASES.put(keys[0], broken, 1)
        reads, writes = [], []
        for name, log in (("get", reads), ("update", writes)):

            def counted(store, key, *args, original=getattr(LruStore, name), log=log):
                if store is BASES and key == keys[0]:
                    log.append(key)
                return original(store, key, *args)

            monkeypatch.setattr(LruStore, name, counted)
        rejected = []
        certify = ShannonSolver._float_certificate

        def reject_once(self, objective, res):
            if rejected:
                return certify(self, objective, res)
            rejected.append(res)
            return None

        monkeypatch.setattr(ShannonSolver, "_float_certificate", reject_once)
        report, solver = self.chain(lp, claims)
        assert report == cold  # the same verdicts and exact optima
        stats = solver.stats
        assert (len(rejected), stats.highs_runs, stats.stored_starts, stats.exact) == (1, 1, 1, 1)
        assert (len(reads), len(writes)) == (1, 0)
        assert BASES.get(keys[0]) is broken

    @pytest.mark.parametrize("kind", ["point", "rhs"])
    def test_a_bad_stored_point_falls_back_to_highs(self, kind):
        # The feasibility entry's one generator made wrong: a coordinate of
        # its point moved by 1/2^20 (to one that breaks a row), or one entry
        # of its right sides changed.
        from entroflow.highs import BASES, entry_key
        from entroflow.rows import Sparse

        lp, claims = contract_chain((1, 1, 2), "v[1]-lower")
        BASES.clear()
        cold, solver = self.chain(lp, claims)
        key = entry_key(solver._store[0], solver._cost({}))
        entry = BASES.get(key)
        ((rhs, x),) = entry.points
        if kind == "point":
            n = len(lp.coords)
            moved = []
            for k in range(len(x.index)):
                num = x.num * 2**20
                num[k] += x.den
                moved.append(Sparse(x.index, num, x.den * 2**20))
            x = next(p for p in moved if lp.rows.violated(n, p).any())
        else:
            num = rhs.num.copy()
            num[0] += rhs.den
            rhs = Sparse(rhs.index, num, rhs.den)
        BASES.put(key, entry._replace(points=((rhs, x),)), 1)
        report, solver = self.chain(lp, claims)
        assert report == cold  # the same verdicts and exact optima
        stats = solver.stats
        # The feasibility solve fell back to HiGHS; the claim still settled
        # from its stored duals and the new feasibility point.
        assert (stats.stored_point, stats.highs_runs, stats.float_cert, stats.stored_dual) == (0, 1, 1, 2)
        assert BASES.get(key).points[-1][1] is not x  # the fallback stored its own verified point

    def test_concurrent_chains_share_the_stores(self):
        # More threads than cores run the chain of one obligation on three
        # vectors at once, with a short switch interval, reading and writing
        # the same bases, duals and points: every report equals the one a
        # cold store gives, and the store's size is the sum of what it
        # holds (a lost update in `LruStore.put` would break that).
        import sys
        import threading

        from entroflow.highs import BASES

        chains = [contract_chain(h, "v[1]-lower") for h in ((1, 1, 2), (1, 2, 3), (2, 2, 3))]
        cold = []
        for lp, claims in chains:
            BASES.clear()
            cold.append(self.chain(lp, claims)[0])
        BASES.clear()
        wrong = []

        def run(seed):
            for k in random.Random(seed).choices(range(len(chains)), k=6):
                if self.chain(*chains[k])[0] != cold[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert BASES.size == sum(size for _, size in BASES._values.values()) <= BASES.cap


class TestRationalize:
    def test_same_as_limit_denominator(self):
        import numpy as np

        solver = ShannonSolver(build_shannon_lp(butterfly(), rate_sessions="none"))
        rng = random.Random(26)
        edge = 2.0**-26
        values = [0.0, 1e-12, -1e-12, 1e-10, edge / 2, 2.0**60 + 2.0**10, -(2.0**40), 1 / 3]
        for _ in range(500):
            k = float(rng.randint(-1000, 1000))
            values += [
                k + rng.uniform(-1, 1),
                k + rng.uniform(-edge, edge),
                rng.randint(-50, 50) / rng.randint(1, 50) + rng.uniform(-1e-9, 1e-9),
            ]
            for inside in (k + edge, k - edge):
                values += [inside, np.nextafter(inside, k), np.nextafter(inside, 2 * inside - k)]
        values = np.array(values)
        rounded = {
            i: Fraction(float(v)).limit_denominator(1 << 24)
            for i, v in enumerate(values.tolist())
            if abs(v) > 1e-11
        }
        # An entry that rounds to 0 (1e-10 and 2^-27 among them) is left out.
        assert 0 in rounded.values()
        want = {i: f for i, f in rounded.items() if f}
        got = dict(solver._rational(values))
        assert got == want
        assert list(got) == list(want)


class TestForcedEquality:
    def test_trivial_forced(self):
        # Decoding pins the source to the pipe: H(S|e) = 0 is forced.
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        (v,) = verify_proof_chain(ShannonSolver(lp), [("pinned", "H(S|e)", "=", 0)]).verdicts
        assert v.status == "forced" and v.lower == v.upper == 0

    def test_not_forced(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p, rate_sessions="none")
        (v,) = verify_proof_chain(ShannonSolver(lp), [("zero", "H(S)", "=", 0)]).verdicts
        assert v.status == "consistent"
        assert v.upper == 1


class TestProofChain:
    def test_verdicts(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        report = verify_proof_chain(
            ShannonSolver(lp),
            [
                ("pinned-rate", "H(S)", "=", 1),
                ("pipe-carries-source", "H(S|e)", "=", 0),
                ("false", "H(S)", "=", 0),
                ("slack", "H(e)", ">=", "1/2"),
            ],
        )
        statuses = [v.status for v in report.verdicts]
        assert statuses == ["forced", "forced", "contradicted", "forced"]
        assert not report.all_forced

    def test_consistent_claim(self):
        p = simple_problem(
            [("e1", "s", "t", 1), ("e2", "s", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        lp = build_shannon_lp(p)
        report = verify_proof_chain(ShannonSolver(lp), [("maybe", "H(e1)", "=", 1)])
        assert report.verdicts[0].status == "consistent"
        assert report.verdicts[0].lower == 0
        assert report.verdicts[0].upper == 1

    def test_vacuous_on_infeasible(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))])
        lp = build_shannon_lp(p)
        report = verify_proof_chain(ShannonSolver(lp), [("anything", "H(S)", "=", 2)])
        assert report.verdicts[0].status == "vacuous"

    def test_axiom_import(self):
        p = simple_problem(
            [("e1", "s", "t", 1), ("e2", "s", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        lp = build_shannon_lp(p, axioms=[("pin-e1", "H(e1)", "=", "1")])
        report = verify_proof_chain(ShannonSolver(lp), [("now-forced", "H(e1)", "=", 1)])
        assert report.verdicts[0].status == "forced"


class TestSoundness:
    def test_codes_satisfy_their_lp(self):
        for code in (relay_code(), butterfly_code(), pad_code()):
            lp = build_shannon_lp(code.problem)
            ok, failures = satisfies(lp, induced_joint_distribution(code))
            assert ok, failures

    def test_satisfies_names_each_broken_row(self):
        # The relay carries one uniform bit, H(S) = 1: each sense fails off it.
        axioms = [("pin", "H(S)", "=", "2"), ("cap", "H(S)", "<=", "1/2"), ("floor", "H(S)", ">=", "3")]
        axioms += [(f"ok{k}", "H(S)", rel, "1") for k, rel in enumerate(["=", "<=", ">="])]
        lp = build_shannon_lp(relay_code().problem, axioms=axioms)
        assert satisfies(lp, induced_joint_distribution(relay_code())) == (
            False,
            ["axiom:pin", "axiom:cap", "axiom:floor"],
        )

    def test_pad_lp_feasible_with_randomness(self):
        lp = build_shannon_lp(pad_problem())
        assert ShannonSolver(lp).feasibility().status == "feasible"
        # Deterministic relaxation of the same problem is infeasible.
        lp_det = build_shannon_lp(pad_problem(), include_randomness=False)
        assert ShannonSolver(lp_det).feasibility().status == "infeasible"

    def test_certificate_json(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = ShannonSolver(lp).maximize("H(S)")
        doc = json.loads(certificate_to_json(lp, cert))
        assert doc["status"] == "optimal"
        assert doc["value"] == "1"


class TestDeterminism:
    def test_identical_runs(self):
        p = butterfly()
        a = ShannonSolver(build_shannon_lp(p, rate_sessions="none")).maximize("H(T)")
        b = ShannonSolver(build_shannon_lp(p, rate_sessions="none")).maximize("H(T)")
        assert a.pivots == b.pivots
        assert a.value == b.value


class TestNonShannonProbe:
    def test_shannon_cone_contains_zhang_yeung_violators(self):
        # The probe is non-trivial: maximizing the violation of the
        # non-Shannon inequality over the normalized Shannon cone is
        # strictly positive, so the cone admits points the probe rejects.
        from entroflow.entropy import GroundSet, elemental_inequalities, zhang_yeung_check
        from entroflow.entropy import EntropyVector
        from entroflow.simplex import ExactSimplex, LinearRow

        ground = GroundSet(("A", "B", "C", "D"))
        # Masks are 1-based coordinates; shift into 0-based columns.
        rows = []
        for f in elemental_inequalities(ground):
            rows.append(
                LinearRow({m - 1: c for m, c in f.coefficients.items()}, "ge", F(0))
            )
        rows.append(LinearRow({ground.full_mask - 1: F(1)}, "le", F(1)))
        # violation = 2 I(C;D) - I(A;B) - I(A;CD) - 3 I(C;D|A) - I(C;D|B)
        viol, _ = compile_expression(
            ground, "2*I(C;D) - I(A;B) - I(A;C,D) - 3*I(C;D|A) - I(C;D|B)"
        )
        cert = ExactSimplex(ground.full_mask, rows).maximize(
            {m - 1: c for m, c in viol.items()}
        )
        assert cert.status == "optimal"
        assert cert.value > 0
        point = {m: cert.x.get(m - 1, F(0)) for m in range(1, ground.full_mask + 1)}
        vec = EntropyVector(ground, point)
        assert is_polymatroid_exact(vec)
        assert not zhang_yeung_check(vec)


def is_polymatroid_exact(vec):
    from entroflow.entropy import is_polymatroid

    return bool(is_polymatroid(vec, 0))


def reference_closures(n, rules):
    """Dependency closure of every mask by the per-mask fixpoint loop."""
    out = []
    for mask in range(1 << n):
        m, changed = mask, True
        while changed:
            changed = False
            for p, t, _ in rules:
                if p & m == p and t & m != t:
                    m |= t
                    changed = True
        out.append(m)
    return tuple(out)


def reference_elemental(lp):
    """The closed elemental rows by a loop over the generator, as (coeffs, tag).

    Terms are mapped through the closure one by one, the empty set dropped,
    equal rows kept once (the first), exactly as the LP must list them.
    """
    from entroflow.entropy import _elemental_masks

    ground = lp.ground
    rows, seen = [], set()
    for i, j, k, *masks in zip(*_elemental_masks(ground.size)):
        coeffs = {}
        for mask, sign in zip(masks, (1, 1, -1, -1)):
            cl = lp.closures[mask]
            if cl:
                coeffs[cl] = coeffs.get(cl, 0) + sign
        terms = tuple(sorted((m, F(c)) for m, c in coeffs.items() if c))
        if not terms or terms in seen:
            continue
        seen.add(terms)
        if j < 0:
            tag = f"H({ground.labels[i]}|rest)"
        else:
            tag = f"I({ground.labels[i]};{ground.labels[j]}|{ground.format_subset(k)})"
        rows.append((terms, ("elemental", tag)))
    return rows


def reference_float_rows(lp, picks):
    """Dense float matrix and rhs of sign * row for each (row, sign) pick."""
    import numpy as np

    index = lp.coord_index()
    a = np.zeros((len(picks), len(lp.coords)))
    b = np.zeros(len(picks))
    for k, (i, sign) in enumerate(picks):
        for m, c in mask_terms(lp, i):
            a[k, index[m]] = sign * float(c)
        b[k] = sign * float(lp.rows[i].rhs)
    return a, b


def infeasible_case(name):
    """(problem, build_shannon_lp keywords) of an LP that has no feasible point."""
    from entroflow.gadgets import adhere, build_secure

    if name == "single-edge":
        return simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))]), {}
    if name == "adhered-half-relay":
        return adhere(simple_problem([("e", "u", "v", "1/2")], [("S", 1, "u", ("v",))])).problem, {}
    return build_secure(1, 2).problem, {"include_randomness": False}


def random_nets(count, seed=1111):
    rng = random.Random(seed)
    caps = ["1", "1/2", "2", "1/3", "3/2", "0"]
    for _ in range(count):
        nodes = ["s"] + [f"m{i}" for i in range(rng.randint(1, 3))] + ["t"]
        rank = {v: i for i, v in enumerate(nodes)}
        edges = []
        for e in range(rng.randint(3, 8)):
            u, v = rng.sample(nodes, 2)
            if rank[u] > rank[v]:
                u, v = v, u
            edges.append((f"e{e}", u, v, rng.choice(caps)))
        yield simple_problem(edges, [("S", 1, "s", ("t",))], nodes=nodes)


def contract_lps():
    from entroflow.entropy import EntropyVector
    from entroflow.gadgets import build_incremental

    gadget = build_incremental(EntropyVector.from_tuple([F(1), F(2), F(3)]))
    keys = dict.fromkeys(
        ob.subnetwork for ob in gadget.contract.obligations if ob.kind == "chain-claim"
    )
    return [build_shannon_lp(gadget.problem, variables=key) for key in keys]


def reference_lps():
    lps = contract_lps()
    for problem in list(random_nets(8)) + [butterfly(), pad_problem()]:
        lps.append(build_shannon_lp(problem))
        lps.append(build_shannon_lp(problem, rate_sessions="none", reduce=False))
    return lps


def reference_elemental_block(n, closure):
    """The elemental block with dedup by np.unique over the stacked rows."""
    import numpy as np

    from entroflow.entropy import _elemental_masks

    cols = np.array(_elemental_masks(n), dtype=np.int64)
    masks = closure[cols[3:].T]
    coef = np.where(masks == 0, 0, np.array([1, 1, -1, -1]))
    for _ in range(2):
        order = np.argsort(masks, axis=1, kind="stable")
        masks = np.take_along_axis(masks, order, axis=1)
        coef = np.take_along_axis(coef, order, axis=1)
        for b in range(1, 4):
            same = masks[:, b] == masks[:, b - 1]
            coef[same, b] += coef[same, b - 1]
            coef[same, b - 1] = 0
        masks = np.where(coef == 0, 1 << n, masks)
    _, first = np.unique(np.hstack([masks, coef]), axis=0, return_index=True)
    keep = np.zeros(len(masks), dtype=bool)
    keep[first] = True
    rows = np.flatnonzero(keep & (coef[:, 0] != 0))
    return cols[:3, rows], masks[rows], coef[rows]


class TestRowStoreBuild:
    def test_closures_match_fixpoint_loop(self):
        from entroflow.lp import _dependency_rules, _ground_of

        for problem in list(random_nets(8)) + [butterfly(), pad_problem()]:
            lp = build_shannon_lp(problem)
            ground = _ground_of(problem, bool(problem.randomness_nodes), None)
            rules = _dependency_rules(problem, ground)
            assert lp.closures == reference_closures(lp.ground.size, rules)

    def test_elemental_block_matches_loop(self):
        for lp in reference_lps():
            block = lp.elemental_rows
            got = [(mask_terms(lp, i), lp.tag(i)) for i in block]
            assert got == reference_elemental(lp)
            rest = [i for i in range(len(lp.rows)) if i not in block]
            assert all(lp.tag(i)[0] != "elemental" for i in rest)

    @pytest.mark.parametrize("n", [*range(1, 13), 14])
    def test_elemental_block_matches_unique_rows(self, n):
        # The packed uint64 key (all 64 bits used at n = 14) against
        # np.unique over the stacked rows, on an identity, a dependency
        # closure and an arbitrary mask map.
        import numpy as np

        from entroflow.lp import _closure_table, _elemental_block

        rng = random.Random(n)
        full = (1 << n) - 1
        rules = [(rng.randint(0, full), rng.randint(1, full), None) for _ in range(rng.randint(1, 4))]
        tables = [
            np.arange(1 << n, dtype=np.int64),
            _closure_table(n, rules),
            np.array([rng.randint(0, full) for _ in range(1 << n)], dtype=np.int64),
        ]
        for closure in tables:
            got = _elemental_block(n, closure)
            want = reference_elemental_block(n, closure)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [1, 3, 14])
    def test_equal_row_key_tells_coefficients_apart(self, n):
        # Every coefficient pattern over the same masks, each row twice in
        # random order: the packed key keeps the same first rows as
        # np.unique over the stacked rows.
        import itertools

        import numpy as np

        from entroflow.lp import _first_of_equal_rows

        rng = random.Random(n)
        pool = sorted({1, (1 << n) - 1, 1 << (n - 1)})
        rows = []
        for k in range(1, min(4, len(pool)) + 1):
            masks = pool[:k] + [1 << n] * (4 - k)
            for coef in itertools.product([-2, -1, 1, 2], repeat=k):
                rows.append(masks + list(coef) + [0] * (4 - k))
        rows += rows
        rng.shuffle(rows)
        table = np.array(rows, dtype=np.int64)
        got = _first_of_equal_rows(table[:, :4], table[:, 4:], n)
        want = np.unique(table, axis=0, return_index=True)[1]
        assert sorted(got.tolist()) == sorted(want.tolist())

    def test_block_membership_matches_term_set(self):
        from entroflow.lp import _closure_table, _elemental_block, _in_block

        rng = random.Random(5)
        for n in (1, 2, 3, 5, 7):
            full = (1 << n) - 1
            rules = [(rng.randint(0, full), rng.randint(1, full), None) for _ in range(2)]
            _, masks, coef = _elemental_block(n, _closure_table(n, rules))
            keys = {
                tuple((m, c) for m, c in zip(ms, cs) if c)
                for ms, cs in zip(masks.tolist(), coef.tolist())
            }
            candidates = [tuple((m, F(c)) for m, c in key) for key in keys]
            for terms in list(candidates):
                k = rng.randrange(len(terms))
                m, c = terms[k]
                for change in (1, -1, F(1, 2), 3 - c):
                    if c + change:
                        candidates.append(terms[:k] + ((m, c + change),) + terms[k + 1 :])
                candidates.append(terms[:k] + terms[k + 1 :])
            for _ in range(300):
                terms = {rng.randint(1, full): F(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(rng.randint(1, 5))}
                candidates.append(tuple(sorted(terms.items())))
            for terms in candidates:
                if terms:
                    assert _in_block(n, masks, coef, terms) == (terms in keys)

    def test_row_equal_to_an_elemental_row_is_dropped(self):
        p = simple_problem(
            [("e1", "s", "t", 1), ("e2", "s", "t", 1)], [("S", 1, "s", ("t",))]
        )
        plain = build_shannon_lp(p, reduce=False)
        lp = build_shannon_lp(
            p, reduce=False, axioms=[("dup", "I(e1;e2)", ">=", 0), ("new", "I(e1;e2)", "<=", 1)]
        )
        tags = row_tags(lp)
        assert ("axiom", "dup") not in tags and ("axiom", "new") in tags
        assert len(lp.rows) == len(plain.rows) + 1

    def test_float_model_matches_rows(self):
        # The HiGHS model keeps linprog's layout: the <= rows and the negated
        # >= rows in row order, with lower bound -inf, then the = rows.
        import numpy as np
        from scipy import sparse

        from entroflow.highs import Highs

        for lp in reference_lps():
            model = Highs(lp.rows, len(lp.coords)).highs.getLp()
            senses = [row.sense for row in lp.rows]
            picks = [(i, -1.0 if s == "ge" else 1.0) for i, s in enumerate(senses) if s != "eq"]
            picks += [(i, 1.0) for i, s in enumerate(senses) if s == "eq"]
            a, b = reference_float_rows(lp, picks)
            matrix = sparse.csc_array(
                (model.a_matrix_.value_, model.a_matrix_.index_, model.a_matrix_.start_),
                shape=a.shape,
            )
            assert np.array_equal(matrix.toarray(), a)
            assert np.array_equal(model.row_upper_, b)
            ub = sum(s != "eq" for s in senses)
            assert np.array_equal(model.row_lower_, np.concatenate((np.full(ub, -np.inf), b[ub:])))

    @pytest.mark.parametrize("name", ["single-edge", "adhered-half-relay", "secure-1-2"])
    def test_farkas_from_dual_ray(self, name):
        # One HiGHS run per solve, cold and warm: the Farkas certificate comes
        # from that run's dual ray, and it verifies exactly.
        from entroflow.simplex import SimplexCertificate, verify_certificate

        problem, kwargs = infeasible_case(name)
        lp = build_shannon_lp(problem, **kwargs)
        solver = ShannonSolver(lp)
        objective = f"H({lp.ground.labels[0]})"
        for runs, solve in enumerate((solver.feasibility, lambda: solver.maximize(objective)), 1):
            cert = solve()
            assert cert.status == "infeasible"
            assert solver.stats.float_farkas == solver.stats.highs_runs == runs
            assert solver.simplex is None
            column = SimplexCertificate("infeasible", None, {}, None, cert.farkas, None, ())
            verify_certificate(len(lp.coords), lp.rows, {}, column)

    def test_iterations_count_the_dual_ray_solve(self):
        # Presolve finds this infeasibility, so HiGHS solves the model once
        # more inside getDualRay; the stats count that solve's iterations.
        problem, kwargs = infeasible_case("single-edge")
        solver = ShannonSolver(build_shannon_lp(problem, **kwargs))
        assert solver.feasibility().status == "infeasible"
        iterations = solver._highs.highs.getInfo().simplex_iteration_count
        assert iterations > 0
        assert solver.stats.simplex_iterations == iterations


class TestIntegerChecks:
    """The exact checks on Shannon LP certificates, through the row store."""

    def column_certificate(self, solver, cert, objective):
        from entroflow.simplex import SimplexCertificate

        x = {solver.index[m]: v for m, v in (cert.primal or {}).items()}
        return SimplexCertificate(cert.status, cert.value, x, cert.duals, cert.farkas, None, ())

    def test_butterfly_certificate_tampering_rejected(self):
        from entroflow.simplex import CertificateError, SimplexCertificate, verify_certificate

        lp = build_shannon_lp(butterfly(), rate_sessions="none")
        solver = ShannonSolver(lp)
        objective = solver._to_cols(lp.compile("H(T)")[0])
        cert = self.column_certificate(solver, solver.maximize("H(T)"), objective)
        n = len(lp.coords)
        verify_certificate(n, lp.rows, objective, cert)
        (j,) = objective
        for step in (1, -1):
            x = dict(cert.x)
            x[j] += F(step, max(v.denominator for v in x.values()))
            bad = SimplexCertificate("optimal", cert.value, x, cert.duals, None, None, ())
            with pytest.raises(CertificateError):
                verify_certificate(n, lp.rows, objective, bad)
        assert cert.duals and all(cert.duals.values())
        for i, y in cert.duals.items():
            bad = SimplexCertificate("optimal", cert.value, cert.x, {**cert.duals, i: -y}, None, None, ())
            with pytest.raises(CertificateError, match="dual sign violated"):
                verify_certificate(n, lp.rows, objective, bad)

    def test_farkas_multiplier_dropped_rejected(self):
        from entroflow.simplex import CertificateError, SimplexCertificate, verify_certificate

        lp = build_shannon_lp(simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))]))
        cert = ShannonSolver(lp).feasibility()
        assert cert.status == "infeasible"
        assert cert.farkas and all(cert.farkas.values())
        for i in cert.farkas:
            dropped = {k: u for k, u in cert.farkas.items() if k != i}
            for farkas in (dropped, {**cert.farkas, i: F(0)}):
                bad = SimplexCertificate("infeasible", None, {}, None, farkas, None, ())
                with pytest.raises(CertificateError, match="Farkas combination"):
                    verify_certificate(len(lp.coords), lp.rows, {}, bad)


def _digest(text):
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _guard_outputs():
    """(label, text) for LP exports and certificates that must stay byte-identical.

    The h=(1,1,2) incremental contract LPs with a certificate per claim
    bound, one unreduced LP, and the first c11-style random nets.  Every
    certificate comes from a fresh solver, so from a cold HiGHS solve, as
    every certificate the command line prints does; certificates after
    warm starts are covered by `TestWarmStart`.
    """
    from entroflow.entropy import EntropyVector
    from entroflow.gadgets import build_incremental

    out = []
    gadget = build_incremental(EntropyVector.from_tuple([F(1), F(1), F(2)]))
    groups = {}
    for ob in gadget.contract.obligations:
        if ob.kind == "chain-claim":
            groups.setdefault(ob.subnetwork, []).append(ob.expression)
    for key, expressions in groups.items():
        lp = build_shannon_lp(gadget.problem, variables=key)
        name = ",".join(key)
        out.append((f"contract {name} text", export_text(lp)))
        out.append((f"contract {name} feasibility", certificate_to_json(lp, ShannonSolver(lp).feasibility())))
        for expr in expressions:
            for sense, solve in (("max", ShannonSolver.maximize), ("min", ShannonSolver.minimize)):
                cert = solve(ShannonSolver(lp), expr)
                out.append((f"contract {name} {sense} {expr}", certificate_to_json(lp, cert)))
    relay = simple_problem(
        [("e1", "s", "a", "3/2"), ("e2", "a", "t", 1), ("e3", "s", "t", "1/2")],
        [("S", 1, "s", ("t",))],
    )
    lp = build_shannon_lp(relay, reduce=False, axioms=[("half", "1/2*H(e1) + H(e3)", "<=", "5/3")])
    out.append(("unreduced text", export_text(lp)))
    out.append(("unreduced max H(S)", certificate_to_json(lp, ShannonSolver(lp).maximize("H(S)"))))
    out.append(("unreduced min H(e2)", certificate_to_json(lp, ShannonSolver(lp).minimize("H(e2)"))))
    rng = random.Random(1111)
    caps = ["1", "1/2", "2", "1/3", "3/2", "0"]
    for k in range(4):
        nodes = ["s"] + [f"m{i}" for i in range(rng.randint(1, 3))] + ["t"]
        rank = {v: i for i, v in enumerate(nodes)}
        edges = []
        for e in range(rng.randint(3, 8)):
            u, v = rng.sample(nodes, 2)
            if rank[u] > rank[v]:
                u, v = v, u
            edges.append((f"e{e}", u, v, rng.choice(caps)))
        problem = simple_problem(edges, [("S", 1, "s", ("t",))], nodes=nodes)
        lp = build_shannon_lp(problem, rate_sessions="none")
        out.append((f"net {k} text", export_text(lp)))
        out.append((f"net {k} max H(S)", certificate_to_json(lp, ShannonSolver(lp).maximize("H(S)"))))
    return out


# sha256 prefixes of _guard_outputs(), recorded before the LP rows moved to
# integer arrays; the exports and certificates must not change by a byte.
GUARD_DIGESTS = [
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] text', 'b90ec20431982b98'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] feasibility', 'e864f6437c3bd290'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] max H(U1)', 'c7b16c37c4472512'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] min H(U1)', 'bc92175c568654ed'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] max H(U2)', '72b67497915494f2'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] min H(U2)', '518e41a76cb417cc'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] max H(V1,V2)', '5ca9b850f2e5200a'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] min H(V1,V2)', 'a24e0762f1f96d55'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] max H(U1,U2,V1,V2)', 'f773afe28d4fcfce'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] min H(U1,U2,V1,V2)', '8298f40e560bdd0c'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] max H(V1,V2)', '5ca9b850f2e5200a'),
    ('contract S0,S1,U1,U2,B,V1,V2,D1[12],M1[12] min H(V1,V2)', 'a24e0762f1f96d55'),
    ('contract S0,S1,U1,U2,B,V1,D1[1],M1[1] text', 'ee0e722d13e6ee40'),
    ('contract S0,S1,U1,U2,B,V1,D1[1],M1[1] feasibility', '8ee9bcb67bc7ce40'),
    ('contract S0,S1,U1,U2,B,V1,D1[1],M1[1] max H(V1)', 'c92e047bc3cce9bc'),
    ('contract S0,S1,U1,U2,B,V1,D1[1],M1[1] min H(V1)', 'ec8b4311dd054118'),
    ('contract S0,S1,U1,U2,B,V2,D1[2],M1[2] text', '37ebc0c20f57a6d7'),
    ('contract S0,S1,U1,U2,B,V2,D1[2],M1[2] feasibility', '7e776e0e36eb12f2'),
    ('contract S0,S1,U1,U2,B,V2,D1[2],M1[2] max H(V2)', '1ab86f5002b73179'),
    ('contract S0,S1,U1,U2,B,V2,D1[2],M1[2] min H(V2)', '8ffe29a2e52ae342'),
    ('contract S0,S1,U1,U2,V1,V2,W1[1.2],W2[1.2],W3[1.2],D2[1.2] text', '144fba56c0857cac'),
    ('contract S0,S1,U1,U2,V1,V2,W1[1.2],W2[1.2],W3[1.2],D2[1.2] feasibility', 'ec0143440beb7698'),
    ('contract S0,S1,U1,U2,V1,V2,W1[1.2],W2[1.2],W3[1.2],D2[1.2] max H(V2|V1)', '2875550093123cb2'),
    ('contract S0,S1,U1,U2,V1,V2,W1[1.2],W2[1.2],W3[1.2],D2[1.2] min H(V2|V1)', '8631f9e19d77b4d9'),
    ('contract S0,S1,U1,U2,V1,V2,W1[1.2],W2[1.2],W3[1.2],D2[1.2] max H(U2|W3[1.2])', '2ca11c11e74ea562'),
    ('contract S0,S1,U1,U2,V1,V2,W1[1.2],W2[1.2],W3[1.2],D2[1.2] min H(U2|W3[1.2])', '653b56a35c406499'),
    ('contract S0,S1,U1,U2,V1,V2,W1[2.1],W2[2.1],W3[2.1],D2[2.1] text', '8269ca0965f62f70'),
    ('contract S0,S1,U1,U2,V1,V2,W1[2.1],W2[2.1],W3[2.1],D2[2.1] feasibility', '8c4a43cbc70dac3d'),
    ('contract S0,S1,U1,U2,V1,V2,W1[2.1],W2[2.1],W3[2.1],D2[2.1] max H(V1|V2)', 'a1ef8e4f1664ea75'),
    ('contract S0,S1,U1,U2,V1,V2,W1[2.1],W2[2.1],W3[2.1],D2[2.1] min H(V1|V2)', '543df8cd4d49ace7'),
    ('contract S0,S1,U1,U2,V1,V2,W1[2.1],W2[2.1],W3[2.1],D2[2.1] max H(U1|W3[2.1])', 'fd08108ffa92227e'),
    ('contract S0,S1,U1,U2,V1,V2,W1[2.1],W2[2.1],W3[2.1],D2[2.1] min H(U1|W3[2.1])', '66739aee8b034d8d'),
    ('unreduced text', '19bc28ae28de78d0'),
    ('unreduced max H(S)', 'a08acedd39838625'),
    ('unreduced min H(e2)', 'd8e3bf2df162fee9'),
    ('net 0 text', 'ad16467c71e50052'),
    ('net 0 max H(S)', 'a7f591a3090a27bd'),
    ('net 1 text', '6db650c2256000be'),
    ('net 1 max H(S)', '4fbe78344baf925f'),
    ('net 2 text', '3720e7298aab9317'),
    ('net 2 max H(S)', '8867c2f63ff21a99'),
    ('net 3 text', 'f2189ff5037d2940'),
    ('net 3 max H(S)', '04caa22e7ce13597'),
]


class TestByteIdentity:
    def test_exports_and_certificates_are_pinned(self):
        got = [(label, _digest(text)) for label, text in _guard_outputs()]
        assert got == GUARD_DIGESTS


def old_style_model(core, rows, n):
    """The HiGHS model of a row store built field by field in a `HighsLp`
    object: the reference that `highs.Highs`'s array load must match."""
    import numpy as np

    inequality = rows.sense != 0
    order = np.concatenate((np.flatnonzero(inequality), np.flatnonzero(~inequality)))
    flip = np.where(rows.sense[order] == -1, -1.0, 1.0)
    picked = rows.take(order)
    data, rhs = picked.floats()
    data = data * np.repeat(flip, np.diff(picked.indptr))
    by_col = np.argsort(picked.col, kind="stable")
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = len(rows)
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.bincount(picked.col, minlength=n))))
    model.a_matrix_.index_ = np.repeat(np.arange(len(rows)), np.diff(picked.indptr))[by_col]
    model.a_matrix_.value_ = data[by_col]
    model.col_cost_ = np.zeros(n)
    model.col_lower_ = np.zeros(n)
    model.col_upper_ = np.full(n, core.kHighsInf)
    lhs = rhs * flip
    lhs[: int(inequality.sum())] = -core.kHighsInf
    model.row_lower_ = lhs
    model.row_upper_ = rhs * flip
    return model


def boundary_lps():
    """The butterfly, the secure gadget and a 10-variable chain LP of the
    incremental gadget on h = (1, 2, 3)."""
    from entroflow.gadgets import build_secure

    chain = next(lp for lp, _ in chain_sequences((1, 2, 3)) if lp.ground.size == 10)
    return [
        build_shannon_lp(butterfly(), rate_sessions="none"),
        build_shannon_lp(build_secure(1, 2).problem, include_randomness=False),
        chain,
    ]


class TestHighsBoundary:
    """What `highs.Highs` hands HiGHS, and how it asks it to price."""

    def test_array_load_matches_a_model_object(self):
        import numpy as np

        from entroflow.highs import Highs

        for lp in boundary_lps():
            n = len(lp.coords)
            ours = Highs(lp.rows, n)
            theirs = ours.core._Highs()
            theirs.passOptions(ours.highs.getOptions())
            theirs.passModel(old_style_model(ours.core, lp.rows, n))
            a, b = ours.highs.getLp(), theirs.getLp()
            for name in ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            for name in ("start_", "index_", "value_"):
                assert np.array_equal(getattr(a.a_matrix_, name), getattr(b.a_matrix_, name)), name
            assert (a.num_col_, a.num_row_) == (b.num_col_, b.num_row_) == (n, len(lp.rows))
            # The first run: bit-identical point and duals.
            cost = np.zeros(n)
            cost[0] = -1.0
            ours.solve(cost)
            theirs.changeColsCost(n, np.arange(n, dtype=np.int32), cost)
            theirs.run()
            got, want = ours.highs.getSolution(), theirs.getSolution()
            assert np.array(got.col_value).tobytes() == np.array(want.col_value).tobytes()
            assert np.array(got.row_dual).tobytes() == np.array(want.row_dual).tobytes()

    def test_stored_basis_runs_price_with_devex(self):
        import numpy as np

        from entroflow.highs import Highs, _STORED_PRICING

        assert _STORED_PRICING in (0, 1)  # Dantzig or Devex: neither computes initial weights
        lp = boundary_lps()[0]
        n = len(lp.coords)

        def rule(handle):
            return handle.highs.getOptionValue("simplex_dual_edge_weight_strategy")[1]

        cost = np.zeros(n)
        cost[0] = -1.0
        first = Highs(lp.rows, n)
        res = first.solve(cost)  # no basis handed: a cold run
        assert (res.warm, rule(first)) == (False, -1)
        second = Highs(lp.rows, n)
        res = second.solve(cost, start=first.basis())
        assert (res.warm, rule(second)) == (True, _STORED_PRICING)
        res = second.solve(-cost)  # from the handle's own basis
        assert (res.warm, rule(second)) == (True, -1)

    def test_row_slack_is_read_on_demand(self):
        import numpy as np

        from entroflow.highs import Highs

        lp = boundary_lps()[0]
        n = len(lp.coords)
        handle = Highs(lp.rows, n)
        cost = np.zeros(n)
        cost[0] = -1.0
        res = handle.solve(cost)
        x = np.array(res.x)
        handle.solve(-cost)  # a later run leaves the first run's slack as it was
        rows = lp.rows
        data, rhs = rows.floats()
        activity = np.zeros(len(rows))
        np.add.at(activity, np.repeat(np.arange(len(rows)), np.diff(rows.indptr)), data * x[rows.col])
        want = np.where(rows.sense == -1, activity - rhs, rhs - activity)
        assert np.allclose(res.row_slack, want, atol=1e-9)


def lp_fields(lp):
    """What an LP is, field by field: each row array with its dtype, every
    row's tag, the coordinates, closures, matrix and its digest."""
    arrays = {
        name: (str(getattr(lp.rows, name).dtype), getattr(lp.rows, name).tolist())
        for name in ("indptr", "col", "data", "sense", "rhs", "scale")
    }
    return (
        arrays,
        row_tags(lp),
        lp.variables,
        lp.coords,
        lp.closures,
        lp.reduced,
        lp.elemental_rows,
        lp.matrix,
        lp.digest,
    )


def revalued(problem, rng):
    """`problem` with other finite capacities and session rates, drawn from
    `rng`: the same topology."""
    from dataclasses import replace

    from entroflow.network import Capacity, Network

    values = ["0", "1/3", "1/2", "1", "3/2", "2", "5/7"]
    net, req = problem.network, problem.requirement
    edges = tuple(
        e if e.capacity.is_unbounded else replace(e, capacity=Capacity.of(rng.choice(values)))
        for e in net.edges
    )
    sessions = tuple(replace(s, rate=F(rng.choice(values))) for s in req.sessions)
    return replace(problem, network=Network(net.nodes, edges), requirement=replace(req, sessions=sessions))


def warm_and_cold(build, first, then):
    """The LP `build(then)` makes from the template `build(first)` left in
    the store, and the one it makes from an empty store."""
    from entroflow.lp import _template_store

    store = _template_store()
    store.clear()
    made = build(first)
    held = len(store)
    warm = build(then)
    assert len(store) == held and warm.template is made.template
    store.clear()
    cold = build(then)
    assert cold.template is not warm.template
    return warm, cold


def incremental(h):
    from entroflow.entropy import EntropyVector
    from entroflow.gadgets import build_incremental

    gadget = build_incremental(EntropyVector.from_tuple([F(v) for v in h]))
    keys = dict.fromkeys(ob.subnetwork for ob in gadget.contract.obligations if ob.kind == "chain-claim")
    return gadget.problem, list(keys)


class TestTemplates:
    """An LP built from a stored template equals one built from nothing."""

    @pytest.mark.parametrize("h", contract_pool() + [(F(1, 2), 1, F(3, 2))], ids=str)
    def test_contract_chains_warm_equal_cold(self, h):
        other, keys = incremental((3, 3, 3) if tuple(h) != (3, 3, 3) else (1, 1, 2))
        problem, same_keys = incremental(h)
        assert keys == same_keys
        for key in keys:
            warm, cold = warm_and_cold(lambda p: build_shannon_lp(p, variables=key), other, problem)
            assert lp_fields(warm) == lp_fields(cold)

    def test_sweep_nets_warm_equal_cold(self):
        rng = random.Random(40)
        for k, problem in enumerate(random_nets(40, seed=77)):
            kwargs = [{}, {"include_randomness": True}, {}, {"reduce": False}][k % 4]
            if kwargs.get("include_randomness") and len(problem.network.edges) > 5:
                kwargs = {}  # its template would not fit the store
            warm, cold = warm_and_cold(lambda p: build_shannon_lp(p, **kwargs), revalued(problem, rng), problem)
            assert lp_fields(warm) == lp_fields(cold)

    def test_equal_capacities_on_one_chain_collapse_per_instance(self):
        def chain(a, b):
            return simple_problem([("e1", "s", "m", a), ("e2", "m", "t", b, "e1")], [("S", 1, "s", ("t",))])

        def capacity_rows(lp):
            return [tag for tag in row_tags(lp) if tag[0] == "capacity"]

        huge = "1/3000000000"  # its row's scale is past int64's 2^31 bound
        for first, then in (((1, 1), (1, 2)), ((1, 2), (1, 1)), ((1, 2), ("3/2", "3/2")), ((1, 2), (huge, 5))):
            warm, cold = warm_and_cold(build_shannon_lp, chain(*first), chain(*then))
            assert lp_fields(warm) == lp_fields(cold)
            want = [("capacity", "e1")] if then[0] == then[1] else [("capacity", "e1"), ("capacity", "e2")]
            assert capacity_rows(warm) == want
        assert warm.rows.scale.dtype == object

    def test_a_zero_rate_row_in_the_elemental_block_is_dropped_per_instance(self):
        def single(rate):
            return simple_problem([("e", "s", "t", 1)], [("S", rate, "s", ("t",))])

        for first, then in ((1, 0), (0, 1), (0, "1/2")):
            warm, cold = warm_and_cold(build_shannon_lp, single(first), single(then))
            assert lp_fields(warm) == lp_fields(cold)
            assert (("rate", "S") in row_tags(warm)) == (then != 0)

    def test_unchanged_scales_share_the_row_arrays(self):
        def parallel(a, rate):
            return simple_problem([("e1", "s", "t", a), ("e2", "s", "t", 2)], [("S", rate, "s", ("t",))])

        first = build_shannon_lp(parallel(1, 1))
        assert not first.template.ambiguous
        same = build_shannon_lp(parallel(3, 2))
        rational = build_shannon_lp(parallel("1/2", 2))
        assert same.template is rational.template is first.template
        assert same.rows.rhs.tolist() != first.rows.rhs.tolist()
        for lp in (first, same, rational):
            for name in ("indptr", "col", "sense"):
                assert getattr(lp.rows, name) is getattr(first.template.rows, name)
        assert same.rows.data is first.rows.data and same.rows.scale is first.rows.scale
        assert rational.rows.data is not first.rows.data and 2 in rational.rows.scale.tolist()
        assert same.matrix is first.matrix and same.tags is first.tags

    def test_templates_are_read_only_and_capped(self):
        from entroflow.lp import _template_store

        store = _template_store()
        lp = build_shannon_lp(butterfly())
        for name in ("indptr", "col", "data", "sense", "rhs", "scale"):
            assert not getattr(lp.template.rows, name).flags.writeable
        with pytest.raises(ValueError):
            lp.template.rows.data[0] = 0
        for problem in random_nets(30, seed=5):
            build_shannon_lp(problem)
            assert store.size <= store.cap
        assert len(store) > 1

    def test_template_past_the_cap_leaves_the_store_as_it_was(self):
        from entroflow.lp import _template_store

        store = _template_store()
        small = [build_shannon_lp(problem) for problem in random_nets(3, seed=8)]
        held = (len(store), store.size)
        # 11 messages and a session, unreduced: a template of some 5 MB.
        edges = [(f"e{k}", f"v{k}", f"v{k + 1}", 1) for k in range(11)]
        big = build_shannon_lp(simple_problem(edges, [("S", 1, "v0", ("v11",))]), reduce=False)
        assert big.template.nbytes > store.cap
        assert (len(store), store.size) == held
        again = [build_shannon_lp(problem) for problem in random_nets(3, seed=8)]
        assert all(a.template is b.template for a, b in zip(small, again))

    def test_compiled_expressions_are_kept_per_template(self):
        lp = build_shannon_lp(butterfly())
        coeffs, const = lp.compile("H(T|e_s1) + 2")
        coeffs[0] = F(7)  # the caller's copy
        again = build_shannon_lp(butterfly(rate=1))
        assert again.compile("H(T|e_s1) + 2") == lp.compile("H(T|e_s1) + 2") != (coeffs, const)
        assert list(lp.template.compiled) == ["H(T|e_s1) + 2"]
        assert dict(again.coord_index()) == {m: i for i, m in enumerate(lp.coords)}

    def test_debug_record_per_build(self, caplog):
        with caplog.at_level("DEBUG", logger="entroflow.lp"):
            first = build_shannon_lp(butterfly())
            second = build_shannon_lp(butterfly(rate=1))
        messages = [r.getMessage() for r in caplog.records if r.name == "entroflow.lp"]
        assert len(messages) == 2
        for lp, message, how in ((first, messages[0], "built"), (second, messages[1], "reused")):
            rows, coords = len(lp.rows), len(lp.coords)
            assert re.fullmatch(rf"build: {rows} rows, {coords} coordinates, template {how}, \d+\.\d{{4}} s", message)


def test_template_store_under_concurrent_builds():
    # More threads than cores build LPs of a few topologies under random
    # rates and capacities at once, with a short switch interval: every LP
    # equals the one built alone from an empty store, and the store's size
    # is the sum of what it holds (a lost update in `LruStore.put` would
    # break that).
    import sys
    import threading

    from entroflow.lp import _template_store

    store = _template_store()
    rng = random.Random(9)
    problems = [revalued(p, rng) for p in random_nets(4, seed=21) for _ in range(3)]
    alone = []
    for problem in problems:
        store.clear()
        alone.append(lp_fields(build_shannon_lp(problem)))
    store.clear()
    wrong = []

    def build(seed):
        order = random.Random(seed)
        for _ in range(20):
            k = order.randrange(len(problems))
            if lp_fields(build_shannon_lp(problems[k])) != alone[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(store) == 4
    assert store.size == sum(size for _, size in store._values.values()) <= store.cap


def verified_proposals():
    """(lp, objective, certificate) of float proposals that passed the exact
    check, their point and duals as Fraction maps: max and min of a few
    expressions on the butterfly and on the smallest contract chain LP of
    h = (1, 2, 3)."""
    from dataclasses import replace

    chain, steps = min(chain_sequences((1, 2, 3)), key=lambda c: len(c[0].rows))
    cases = [
        (build_shannon_lp(butterfly(), rate_sessions="none"), ["H(T)", "H(e_34)", "H(T|e_s1)", "I(e_s1;e_s2)"]),
        (chain, sorted({e for _, e in steps if e is not None})),
    ]
    out = []
    for lp, expressions in cases:
        solver = ShannonSolver(lp)
        for expression in expressions:
            coeffs, _ = lp.compile(expression)
            for sign in (1, -1):
                objective = {solver.index[m]: sign * c for m, c in coeffs.items()}
                res = solver._float_solve(solver._cost(objective))
                cert = solver._float_certificate(objective, res)
                if cert is not None:
                    out.append((lp, objective, replace(cert, x=dict(cert.x), duals=dict(cert.duals))))
    return out


class TestIntegerFormCheck:
    """The exact check on a proposal's integer sparse form agrees with the
    term-by-term Fraction check on perturbed verified proposals."""

    @pytest.fixture(scope="class")
    def proposals(self):
        return verified_proposals()

    def test_perturbed_proposals_match_the_reference(self, proposals):
        from dataclasses import replace

        from hypothesis import given, settings, strategies as st

        from entroflow.rows import Sparse
        from entroflow.simplex import CertificateError, verify_certificate
        from test_simplex import reference_verdict

        assert len(proposals) >= 8

        def passes(lp, objective, cert):
            try:
                verify_certificate(len(lp.coords), lp.rows, objective, cert)
            except CertificateError:
                return False
            return True

        @settings(max_examples=60, deadline=None)
        @given(data=st.data())
        def check(data):
            lp, objective, cert = data.draw(st.sampled_from(proposals))
            x, duals = dict(cert.x), dict(cert.duals)
            kind = data.draw(st.sampled_from(["none", "flip", "move", "drop", "zero", "fraction"]))
            if kind == "flip" and duals:
                i = data.draw(st.sampled_from(sorted(duals)))
                duals[i] = -duals[i]
            elif kind in ("move", "fraction"):
                target = data.draw(st.sampled_from([x, duals]))
                bound = len(lp.coords) if target is x else len(lp.rows)
                anywhere = st.integers(0, bound - 1)
                i = data.draw(st.sampled_from(sorted(target)) | anywhere if target else anywhere)
                step = F(1, 2**20) if kind == "move" else F(1, 3)
                target[i] = target.get(i, F(0)) + data.draw(st.sampled_from([step, -step]))
            elif kind == "drop" and duals:
                del duals[data.draw(st.sampled_from(sorted(duals)))]
            elif kind == "zero":
                ge = [i for i in range(len(lp.rows)) if lp.rows.sense[i] == -1 and i not in duals]
                duals[data.draw(st.sampled_from(ge))] = F(0)
            value = cert.value
            if data.draw(st.booleans()):
                value = sum((c * x.get(j, F(0)) for j, c in objective.items()), F(0))
            edited = replace(cert, value=value, x=x, duals=duals)
            want = reference_verdict(len(lp.coords), lp.rows, objective, edited)
            assert passes(lp, objective, edited) == want
            integer = replace(edited, x=Sparse.of(x), duals=Sparse.of(duals))
            assert passes(lp, objective, integer) == want
            if kind == "none":
                assert want

        check()
