import itertools
from fractions import Fraction

import pytest

from entroflow.codes import (
    CodeBuilder,
    check_admissible,
    check_secrecy,
    check_zero_error,
    evaluate,
    induced_joint_distribution,
)
from entroflow.entropy import (
    EntropyVector,
    check_independence,
    entropy_vector_of,
    is_quasi_uniform,
    quasi_uniform_vector_of,
)
from entroflow.gadgets import (
    QuasiUniformSpec,
    adhere,
    build_incremental,
    build_secure,
    compose_adhered_code,
    incremental_code,
    otp_code,
    quasi_uniform_library,
    verify_contract,
)
from entroflow.lp import build_shannon_lp, feasibility, satisfies
from entroflow.network import Capacity, min_cut

from test_network import butterfly, simple_problem
from test_codes import butterfly_code

F = Fraction


def h112():
    return EntropyVector.from_tuple([F(1), F(1), F(2)])


class TestBuildIncremental:
    def test_rates(self):
        g = build_incremental(h112())
        rates = g.delta.rates
        assert rates == {"S0": 2, "S1": 2}

    def test_type1_capacities(self):
        g = build_incremental(h112())
        caps = g.delta.capacities
        # Per subset: (direct, via-intermediate) = (h(full)-h(a), h(a)).
        assert (caps["D1[1]"], caps["M1[1]"]) == (Capacity(F(1)), Capacity(F(1)))
        assert (caps["D1[2]"], caps["M1[2]"]) == (Capacity(F(1)), Capacity(F(1)))
        assert (caps["D1[12]"], caps["M1[12]"]) == (Capacity(F(0)), Capacity(F(2)))

    def test_type2_capacities(self):
        g = build_incremental(h112())
        caps = g.delta.capacities
        assert caps["W1[2.1]"] == caps["W2[2.1]"] == caps["W3[2.1]"] == Capacity(F(1))
        assert caps["D2[2.1]"] == Capacity(F(0))

    def test_monotonicity_violation_rejected(self):
        with pytest.raises(ValueError, match="negative capacity"):
            build_incremental(EntropyVector.from_tuple([F(1), F(2), F(1)]))

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="rational"):
            build_incremental(EntropyVector.from_tuple([1.0, 1.0, 2.0]))

    def test_topology_depends_only_on_size(self):
        a = build_incremental(h112())
        b = build_incremental(EntropyVector.from_tuple([F(2), F(3), F(4)]))
        ids_a = [(e.id, e.tail, e.head, e.forwards) for e in a.problem.network.edges]
        ids_b = [(e.id, e.tail, e.head, e.forwards) for e in b.problem.network.edges]
        assert ids_a == ids_b
        assert a.problem.network.nodes == b.problem.network.nodes

    def test_delta_linearity_sample(self):
        h1 = h112()
        h2 = EntropyVector.from_tuple([F(1), F(2), F(2)])
        a, b = F(2), F(3, 2)
        combo = h1.scale(a).add(h2.scale(b))
        left = build_incremental(combo).delta
        right = build_incremental(h1).delta.scale(a).add(build_incremental(h2).delta.scale(b))
        assert left == right

    def test_incremental_demands(self):
        g = build_incremental(h112())
        demands = g.problem.demands()
        assert demands["t1[12]"] == ("S0", "S1")
        assert demands["p1[2.1]"] == ("S0",)
        assert demands["tU"] == ("S0",)


class TestIncrementalContract:
    def test_h112_contract_certifies(self):
        g = build_incremental(h112())
        report = verify_contract(g.problem, g.contract)
        assert report.all_ok, report.describe()

    def test_non_entropic_vector_contradicted(self):
        # h = (1, 1, 3) violates subadditivity; the construction rejects
        # nothing (capacities stay nonnegative) but the increment claim
        # H(V1|V2) = h(12) - h(2) = 2 exceeds the V1 capacity of 1.
        g = build_incremental(EntropyVector.from_tuple([F(1), F(1), F(3)]))
        report = verify_contract(g.problem, g.contract)
        assert not report.all_ok
        failing = {r.name for r in report.results if not r.ok}
        assert any(name.startswith("increment[") for name in failing)


class TestIncrementalCode:
    def test_two_bits_admissible(self):
        lib = quasi_uniform_library()
        code = incremental_code(lib["independent-bits"])
        verdict = check_admissible(code)
        assert verdict, verdict.describe()

    def test_encoder_tables_are_pinned(self):
        # sha256 prefixes of code_to_json, recorded before the rank tables
        # were precomputed per member set: the encoders must not change.
        import hashlib

        from entroflow.codes import code_to_json

        got = {
            name: hashlib.sha256(code_to_json(incremental_code(q)).encode()).hexdigest()[:16]
            for name, q in quasi_uniform_library().items()
        }
        assert got == {
            "independent-bits": "b90587cd54613982",
            "duplicated-bit": "a31e8603e4a0e478",
            "bit-and-pair": "f005955a79e28800",
            "xor-triple": "75324278e56c1b3d",
            "three-independent-bits": "e9303b98486ddb79",
            "duplicated-plus-independent": "72a3c57ee7bf67d8",
        }

    def test_network_and_contract_are_pinned(self):
        # sha256 prefixes of the serialized network and the contract JSON,
        # recorded before the layout and the obligations came from one walk
        # over the probes: neither may change.
        import hashlib

        from entroflow.entropy import GroundSet
        from entroflow.network import serialize

        def vector(n, value):
            labels = tuple(f"X{i + 1}" for i in range(n))
            return EntropyVector(GroundSet(labels), {m: value(m) for m in range(1, 1 << n)})

        weights = (F(1), F(1, 2), F(2), F(1))
        cases = {
            "n2-h112": h112(),
            "n3-U23": vector(3, lambda m: F(min(bin(m).count("1"), 2))),
            "n4-capped": vector(
                4, lambda m: min(sum(w for i, w in enumerate(weights) if m >> i & 1), F(3))
            ),
        }

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        got = {}
        for name, h in cases.items():
            gadget = build_incremental(h)
            got[name] = (digest(serialize(gadget.problem)), digest(gadget.contract.to_json()))
        assert got == {
            "n2-h112": ("6db3b83de993e128", "b873d056ec4211af"),
            "n3-U23": ("413b701fca818d73", "f5bb1b08b48dab26"),
            "n4-capped": ("c51495476c91c9eb", "e3d4fa3cb94ff523"),
        }

    def test_duplicated_bit_admissible(self):
        code = incremental_code(quasi_uniform_library()["duplicated-bit"])
        assert check_admissible(code)

    def test_induced_v_marginal_matches(self):
        lib = quasi_uniform_library()
        q = lib["independent-bits"]
        code = incremental_code(q)
        dist = induced_joint_distribution(code)
        h_in = quasi_uniform_vector_of(q)
        vec = entropy_vector_of(dist, ("V1", "V2"))
        for mask in (1, 2, 3):
            assert abs(float(vec.values[mask]) - float(h_in.values[mask])) <= 1e-9

    def test_tampered_encoder_fails(self):
        q = quasi_uniform_library()["independent-bits"]
        good = incremental_code(q)
        problem = good.problem
        builder = CodeBuilder(problem)
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
        bad = builder.build()
        verdict = check_admissible(bad)
        assert not verdict
        assert any(r[0] == "decode" and r[1].startswith("t1[") for r in verdict.reasons)


class TestBuildSecure:
    def test_shape(self):
        g = build_secure(1, 2)
        assert len(g.problem.network.nodes) == 5
        assert len(g.problem.network.edges) == 6
        caps = sorted(str(e.capacity) for e in g.problem.network.edges)
        assert caps == ["1"] * 6
        assert min_cut(g.problem, "s", "t") == Capacity(F(2))

    def test_clear_branch_capacity(self):
        g = build_secure(1, 3)
        assert g.problem.network.edge("W2").capacity == Capacity(F(2))

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            build_secure(2, 1)
        with pytest.raises(ValueError):
            build_secure(0, 1)

    def test_contract_certifies(self):
        g = build_secure(1, 2)
        report = verify_contract(g.problem, g.contract)
        assert report.all_ok, report.describe()

    def test_deterministic_bypass_leaks_on_key_tap(self):
        # Relaying the upper stream along the key path keeps W3 constant
        # and decodes at the sink; only the separate tap on K rules it out.
        g = build_secure(1, 2)
        taps = [(t.sources, t.edges) for t in g.problem.wiretaps.taps]
        assert taps == [(("X",), ("W3",)), (("X",), ("K",))]
        b = CodeBuilder(g.problem)
        b.source("X", 4)
        b.edge("W1", 2, lambda v: v["X"] // 2)
        b.edge("W2", 2, lambda v: v["X"] % 2)
        b.edge("W3", 1, lambda v: 0)
        b.edge("K", 2, lambda v: v["W1"])
        b.edge("W4", 2, lambda v: v["K"])
        b.edge("W5", 2, lambda v: v["W4"])
        code = b.build()
        assert check_zero_error(code)[0]
        verdict = check_admissible(code)
        assert not verdict
        assert verdict.describe() == "leak:1"


class TestOtpCode:
    def test_unit_key(self):
        code = otp_code(1, 2)
        dist = induced_joint_distribution(code)
        assert len(dist.pmf) == 8
        assert check_independence(dist, "X", "W3")
        ok, failures = check_zero_error(code)
        assert ok
        assert check_admissible(code)

    def test_wide_key(self):
        code = otp_code(2, 3)
        assert code.edge_alphabets["K"] == 4
        assert code.edge_alphabets["W3"] == 4
        assert check_admissible(code)

    def test_regularity(self):
        with pytest.raises(ValueError, match="regularity"):
            otp_code("1/2", 2)

    def test_evaluate_roles(self):
        code = otp_code(1, 2)
        values = evaluate(code, {"X": 2}, {"a": 1})  # X = (hi, lo) = (1, 0)
        assert values["W1"] == 1
        assert values["W3"] == (1 + 1) % 2
        assert values["W4"] == 1
        assert values["W5"] == 1

    def test_satisfies_secure_lp(self):
        g = build_secure(1, 2)
        lp = build_shannon_lp(g.problem)
        ok, failures = satisfies(lp, induced_joint_distribution(otp_code(1, 2)))
        assert ok, failures


class TestAdhere:
    def test_single_edge_composition(self):
        inner = simple_problem([("e", "u", "v", 1)], [("S", 1, "u", ("v",))])
        gadget = adhere(inner)
        assert verify_contract(gadget.problem, gadget.contract).all_ok
        inner_code = (
            CodeBuilder(inner).source("S", 2).edge("e", 2, lambda v: v["S"]).build()
        )
        code = compose_adhered_code(gadget, inner_code)
        verdict = check_admissible(code)
        assert verdict, verdict.describe()

    def test_half_capacity_lp_infeasible(self):
        inner = simple_problem([("e", "u", "v", "1/2")], [("S", 1, "u", ("v",))])
        gadget = adhere(inner)
        cert = feasibility(build_shannon_lp(gadget.problem))
        assert cert.status == "infeasible"
        assert cert.farkas is not None

    def test_butterfly_composition(self):
        inner = butterfly()
        gadget = adhere(inner)
        code = compose_adhered_code(gadget, butterfly_code())
        verdict = check_admissible(code)
        assert verdict, verdict.describe()
        # Secrecy specifically: each tapped channel is independent of its
        # copy's source.
        ok, taps = check_secrecy(code)
        assert ok

    def test_rejects_wiretapped_inner(self):
        from test_codes import pad_problem

        with pytest.raises(ValueError, match="wiretaps"):
            adhere(pad_problem())


class TestQuasiUniformLibrary:
    def test_all_quasi_uniform(self):
        lib = quasi_uniform_library()
        assert len(lib) == 6
        for name, q in lib.items():
            assert is_quasi_uniform(q), name

    def test_expected_vectors(self):
        lib = quasi_uniform_library()
        v = quasi_uniform_vector_of(lib["bit-and-pair"])
        assert (v[("V1",)], v[("V2",)], v[("V1", "V2")]) == (1, 2, 2)
        v3 = quasi_uniform_vector_of(lib["duplicated-plus-independent"])
        assert v3[("V1", "V2")] == 1
        assert v3[("V1", "V2", "V3")] == 2

    def test_spec_rejects_non_quasi_uniform(self):
        from entroflow.entropy import JointDistribution

        skew = JointDistribution.of(
            [("V1", 2), ("V2", 2)],
            {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 1): F(1, 4)},
        )
        with pytest.raises(ValueError):
            QuasiUniformSpec(skew)


class TestCrossModuleInvariants:
    def test_rates_below_min_cut_on_gadget_instances(self):
        # Necessity of min-cut: every admissible instance in the suite
        # keeps each session rate within the cut to each of its sinks.
        from entroflow.gadgets import build_incremental, build_secure

        instances = [
            build_secure(1, 2).problem,
            build_secure(2, 3).problem,
            build_incremental(h112()).problem,
        ]
        for problem in instances:
            for s in problem.requirement.sessions:
                for sink, demanded in problem.demands().items():
                    if s.id not in demanded:
                        continue
                    cut = min_cut(problem, s.origin, sink)
                    if not cut.is_unbounded:
                        assert s.rate <= cut.value, (s.id, sink)

    def test_incremental_code_satisfies_subnetwork_lp(self):
        q = quasi_uniform_library()["independent-bits"]
        code = incremental_code(q)
        ground = ("S0", "S1", "U1", "U2", "B", "V1", "V2", "D1[12]", "M1[12]")
        lp = build_shannon_lp(code.problem, variables=ground)
        ok, failures = satisfies(lp, induced_joint_distribution(code))
        assert ok, failures
