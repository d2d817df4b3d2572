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

    def test_subnetwork_selection(self):
        p = butterfly()
        lp = build_shannon_lp(p, variables=("T", "e_s1", "e_s2"))
        assert lp.ground.labels == ("T", "e_s1", "e_s2")
        # Decode rules fall away (their inputs are outside the ground).
        assert all(c.tag[0] != "decode" for c in lp.constraints)

    def test_randomness_auto_included(self):
        lp = build_shannon_lp(pad_problem())
        assert "V_s" in lp.ground.labels

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


class TestExactFallback:
    @pytest.mark.parametrize(
        "problem,kwargs,objective",
        [
            (simple_problem([("e", "s", "t", 1)], [("S", 1, "s", ("t",))]), {}, "H(S)"),
            (simple_problem([("e", "s", "t", 1)], [("S", 2, "s", ("t",))]), {}, "H(S)"),
            (butterfly(), {"rate_sessions": "none"}, "H(T)"),
        ],
        ids=["single-edge", "single-edge-infeasible", "butterfly"],
    )
    def test_matches_float_path_without_proposal(self, problem, kwargs, objective, monkeypatch):
        # Without a float proposal (as without scipy) the lazy exact simplex
        # settles the LP; it must agree with the float-certified answer.
        lp = build_shannon_lp(problem, **kwargs)
        want = ShannonSolver(lp).maximize(objective)
        want_feasible = feasibility(lp).status
        monkeypatch.setattr(ShannonSolver, "_float_solve", lambda self, objective: None)
        solver = ShannonSolver(lp)
        got = solver.maximize(objective)
        assert (got.status, got.value) == (want.status, want.value)
        assert solver.feasibility().status == want_feasible


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
