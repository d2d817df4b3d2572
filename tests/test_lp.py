import json
import random
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
    expression_is_elemental_nonnegative,
    export_text,
    feasibility,
    maximize,
    minimize,
    prove_forced_equality,
    satisfies,
    verify_proof_chain,
)
from entroflow.codes import CodeBuilder, induced_joint_distribution
from entroflow.network import min_cut, parse

from test_network import butterfly, simple_problem
from test_codes import butterfly_code, pad_code, pad_problem, relay_code, relay_problem

F = Fraction


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

    def test_nonnegativity_recognition(self):
        assert expression_is_elemental_nonnegative(self.g, "H(A|B)")
        assert expression_is_elemental_nonnegative(self.g, "I(A;B|C) + 2*H(C)")
        assert not expression_is_elemental_nonnegative(self.g, "H(A) - H(B)")
        assert not expression_is_elemental_nonnegative(self.g, "H(A) + 1")

    def test_bad_expression(self):
        with pytest.raises(ValueError):
            compile_expression(self.g, "H(A")
        with pytest.raises(KeyError):
            compile_expression(self.g, "H(Z)")


class TestBuild:
    def test_single_edge_feasible(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = feasibility(lp)
        assert cert.status == "feasible"

    def test_single_edge_infeasible_with_farkas(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = feasibility(lp)
        assert cert.status == "infeasible"
        assert cert.farkas is not None
        assert any(y for y in cert.farkas)

    def test_elemental_family_matches_reference(self):
        # Unreduced generation must list exactly the classic elemental set.
        p = simple_problem(
            [("e1", "s", "a", 1), ("e2", "a", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        lp = build_shannon_lp(p, reduce=False)
        got = {
            frozenset(c.coeffs)
            for c in lp.constraints
            if c.tag[0] == "elemental"
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
            return {c.tag for c in build_shannon_lp(p, **kwargs).constraints if c.tag[0] == "rate"}

        assert rate_tags() == {("rate", "S")}
        assert rate_tags(rate_sessions="none") == set()
        with pytest.raises(ValueError, match="rate_sessions"):
            build_shannon_lp(p, rate_sessions=("S",))

    def test_subnetwork_selection(self):
        p = butterfly()
        lp = build_shannon_lp(p, variables=("T", "e_s1", "e_s2"))
        assert lp.ground.labels == ("T", "e_s1", "e_s2")
        # Decode rules fall away (their inputs are outside the ground).
        assert all(c.tag[0] != "decode" for c in lp.constraints)

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
        assert feasibility(build_shannon_lp(problem, variables=sub)).status == "feasible"
        tags = {c.tag for c in build_shannon_lp(problem, variables=sub, reduce=False).constraints}
        assert ("causality", "K") not in tags and ("causality", "W3") not in tags
        assert ("causality", "W4") in tags
        full = {c.tag for c in build_shannon_lp(problem, variables=sub + ["V_a"], reduce=False).constraints}
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
        cert = maximize(lp, "H(e)")
        assert cert.value == 1

    def test_single_edge_rate(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p, rate_sessions="none")
        assert maximize(lp, "H(S)").value == 1

    def test_butterfly_multicast_rate(self):
        p = butterfly()
        lp = build_shannon_lp(p, rate_sessions="none")
        cert = maximize(lp, "H(T)")
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
            reduced = maximize(build_shannon_lp(p, rate_sessions="none"), "H(S)")
            raw = maximize(build_shannon_lp(p, rate_sessions="none", reduce=False), "H(S)")
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
            got = maximize(lp, "H(S)").value
            cut = min_cut(p, "s", "t")
            assert got == cut.value

    def test_minimize(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = minimize(lp, "H(S)")
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


class TestExactFallback:
    def exact_path_agrees(self, problem, kwargs, objective, disable_proposals):
        lp = build_shannon_lp(problem, **kwargs)
        want = ShannonSolver(lp).maximize(objective)
        want_feasible = feasibility(lp).status
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
            monkeypatch.setattr(ShannonSolver, "_float_solve", lambda self, objective: None)

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
        assert "settled by float_cert, 1 HiGHS runs (0 warm)" in messages[0]
        assert messages[1] == "solve: optimal, settled by memo"


class TestForcedEquality:
    def test_trivial_forced(self):
        # Decoding pins the source to the pipe: H(S|e) = 0 is forced.
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        res = prove_forced_equality(lp, "H(S|e)")
        assert res.forced and res.optimum == 0

    def test_not_forced(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p, rate_sessions="none")
        res = prove_forced_equality(lp, "H(S)")
        assert not res.forced
        assert res.optimum == 1

    def test_rejects_signed_expression(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        with pytest.raises(ValueError):
            prove_forced_equality(lp, "H(S) - H(e)")


class TestProofChain:
    def test_verdicts(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        report = verify_proof_chain(
            lp,
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
        report = verify_proof_chain(lp, [("maybe", "H(e1)", "=", 1)])
        assert report.verdicts[0].status == "consistent"
        assert report.verdicts[0].lower == 0
        assert report.verdicts[0].upper == 1

    def test_vacuous_on_infeasible(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))])
        lp = build_shannon_lp(p)
        report = verify_proof_chain(lp, [("anything", "H(S)", "=", 2)])
        assert report.verdicts[0].status == "vacuous"

    def test_axiom_import(self):
        p = simple_problem(
            [("e1", "s", "t", 1), ("e2", "s", "t", 1)],
            [("S", 1, "s", ("t",))],
        )
        lp = build_shannon_lp(p, axioms=[("pin-e1", "H(e1)", "=", "1")])
        report = verify_proof_chain(lp, [("now-forced", "H(e1)", "=", 1)])
        assert report.verdicts[0].status == "forced"


class TestSoundness:
    def test_codes_satisfy_their_lp(self):
        for code in (relay_code(), butterfly_code(), pad_code()):
            lp = build_shannon_lp(code.problem)
            ok, failures = satisfies(lp, induced_joint_distribution(code))
            assert ok, failures

    def test_pad_lp_feasible_with_randomness(self):
        lp = build_shannon_lp(pad_problem())
        assert feasibility(lp).status == "feasible"
        # Deterministic relaxation of the same problem is infeasible.
        lp_det = build_shannon_lp(pad_problem(), include_randomness=False)
        assert feasibility(lp_det).status == "infeasible"

    def test_certificate_json(self):
        p = simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))])
        lp = build_shannon_lp(p)
        cert = maximize(lp, "H(S)")
        doc = json.loads(certificate_to_json(lp, cert))
        assert doc["status"] == "optimal"
        assert doc["value"] == "1"


class TestDeterminism:
    def test_identical_runs(self):
        p = butterfly()
        a = maximize(build_shannon_lp(p, rate_sessions="none"), "H(T)")
        b = maximize(build_shannon_lp(p, rate_sessions="none"), "H(T)")
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
        con = lp.constraints[i]
        for m, c in con.coeffs:
            a[k, index[m]] = sign * float(c)
        b[k] = sign * float(con.rhs)
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
            got = [(lp.constraints[i].coeffs, lp.constraints[i].tag) for i in block]
            assert got == reference_elemental(lp)
            rest = [i for i in range(len(lp.rows)) if i not in block]
            assert all(lp.constraints[i].tag[0] != "elemental" for i in rest)

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
        tags = [c.tag for c in lp.constraints]
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
            senses = [c.sense for c in lp.constraints]
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
        for i, y in enumerate(cert.duals):
            if y:
                duals = list(cert.duals)
                duals[i] = -y
                bad = SimplexCertificate("optimal", cert.value, cert.x, tuple(duals), None, None, ())
                with pytest.raises(CertificateError, match="dual sign violated"):
                    verify_certificate(n, lp.rows, objective, bad)

    def test_farkas_multiplier_dropped_rejected(self):
        from entroflow.simplex import CertificateError, SimplexCertificate, verify_certificate

        lp = build_shannon_lp(simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))]))
        cert = feasibility(lp)
        assert cert.status == "infeasible"
        support = [i for i, u in enumerate(cert.farkas) if u]
        assert support
        for i in support:
            farkas = list(cert.farkas)
            farkas[i] = F(0)
            bad = SimplexCertificate("infeasible", None, {}, None, tuple(farkas), None, ())
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
        out.append((f"contract {name} feasibility", certificate_to_json(lp, feasibility(lp))))
        for expr in expressions:
            for sense in ("max", "min"):
                cert = maximize(lp, expr) if sense == "max" else minimize(lp, expr)
                out.append((f"contract {name} {sense} {expr}", certificate_to_json(lp, cert)))
    relay = simple_problem(
        [("e1", "s", "a", "3/2"), ("e2", "a", "t", 1), ("e3", "s", "t", "1/2")],
        [("S", 1, "s", ("t",))],
    )
    lp = build_shannon_lp(relay, reduce=False, axioms=[("half", "1/2*H(e1) + H(e3)", "<=", "5/3")])
    out.append(("unreduced text", export_text(lp)))
    out.append(("unreduced max H(S)", certificate_to_json(lp, maximize(lp, "H(S)"))))
    out.append(("unreduced min H(e2)", certificate_to_json(lp, minimize(lp, "H(e2)"))))
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
        out.append((f"net {k} max H(S)", certificate_to_json(lp, maximize(lp, "H(S)"))))
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
