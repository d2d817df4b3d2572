import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroflow.entropy import (
    EntropyVector,
    GroundSet,
    JointDistribution,
    LinearFunctional,
    check_functional_dependency,
    check_independence,
    elemental_inequalities,
    entropic_search,
    entropy_vector_of,
    is_polymatroid,
    is_quasi_uniform,
    quasi_uniform_vector_of,
    subset_entropy,
    zhang_yeung_check,
)

from conftest import random_rational_distribution

TOL = 1e-9


def two_fair_bits():
    return JointDistribution.uniform_over(
        [("X1", 2), ("X2", 2)], [(a, b) for a in range(2) for b in range(2)]
    )


def duplicated_bit():
    return JointDistribution.uniform_over([("X1", 2), ("X2", 2)], [(0, 0), (1, 1)])


def xor_triple():
    return JointDistribution.uniform_over(
        [("X1", 2), ("X2", 2), ("X3", 2)],
        [(a, b, a ^ b) for a in range(2) for b in range(2)],
    )


def one_time_pad():
    return JointDistribution.uniform_over(
        [("M", 2), ("K", 2), ("C", 2)],
        [(m, k, m ^ k) for m in range(2) for k in range(2)],
    )


class TestEntropyVectorOf:
    def test_two_independent_bits(self):
        vec = entropy_vector_of(two_fair_bits())
        assert vec[("X1",)] == pytest.approx(1.0, abs=TOL)
        assert vec[("X2",)] == pytest.approx(1.0, abs=TOL)
        assert vec[("X1", "X2")] == pytest.approx(2.0, abs=TOL)

    def test_duplicated_bit(self):
        vec = entropy_vector_of(duplicated_bit())
        assert vec[("X1",)] == pytest.approx(1.0, abs=TOL)
        assert vec[("X2",)] == pytest.approx(1.0, abs=TOL)
        assert vec[("X1", "X2")] == pytest.approx(1.0, abs=TOL)

    def test_xor_triple(self):
        # Direct summation over the 4-point uniform pmf: every marginal of
        # one variable is a fair bit, every pair is uniform on 4 points,
        # and the triple has only 4 support points.
        vec = entropy_vector_of(xor_triple())
        for single in ("X1", "X2", "X3"):
            assert vec[(single,)] == pytest.approx(1.0, abs=TOL)
        for pair in (("X1", "X2"), ("X1", "X3"), ("X2", "X3")):
            assert vec[pair] == pytest.approx(2.0, abs=TOL)
        assert vec[("X1", "X2", "X3")] == pytest.approx(2.0, abs=TOL)

    def test_support_sidecar_is_exact(self):
        vec = entropy_vector_of(xor_triple())
        g = vec.ground
        assert vec.support_sizes[g.mask_of(("X1",))] == 2
        assert vec.support_sizes[g.mask_of(("X1", "X2"))] == 4
        assert vec.support_sizes[g.full_mask] == 4

    def test_restricted_ground(self):
        vec = entropy_vector_of(xor_triple(), variables=("X1", "X3"))
        assert vec.ground.labels == ("X1", "X3")
        assert vec[("X1", "X3")] == pytest.approx(2.0, abs=TOL)

    def test_subset_entropy_matches(self):
        d = xor_triple()
        vec = entropy_vector_of(d)
        assert subset_entropy(d, ("X1", "X2")) == pytest.approx(
            float(vec[("X1", "X2")]), abs=1e-12
        )


class TestPolymatroid:
    def test_two_bits_vector_ok(self):
        assert is_polymatroid(EntropyVector.from_tuple([1, 1, 2]), TOL)

    def test_subadditivity_violation(self):
        report = is_polymatroid(EntropyVector.from_tuple([1, 1, 3]), TOL)
        assert not report
        assert any("submodularity" in v for v in report.violations)

    def test_monotonicity_violation(self):
        report = is_polymatroid(EntropyVector.from_tuple([1, 2, 1]), TOL)
        assert not report
        assert any("monotonicity" in v for v in report.violations)

    def test_exact_mode_on_rationals(self):
        # Rational coordinates are compared exactly, whatever the tolerance.
        h = EntropyVector.from_tuple([Fraction(1), Fraction(1), Fraction(2)])
        assert is_polymatroid(h)
        e = Fraction(1, 10**12)
        for bad in ([1, 1, 2 + 1000 * e], [1, 1, 2 + e], [-e, 1, 1], [1, 1 + e, 1]):
            assert not is_polymatroid(EntropyVector.from_tuple(bad))
            assert not is_polymatroid(EntropyVector.from_tuple(bad), 0)

    def test_tolerance_only_where_a_float_takes_part(self):
        assert is_polymatroid(EntropyVector.from_tuple([1.0, 1.0, 2 + 1e-12]))
        assert is_polymatroid(EntropyVector.from_tuple([-1e-12, 1.0, 1.0]))
        # One float coordinate in a sum makes that comparison a float one.
        assert is_polymatroid(EntropyVector.from_tuple([Fraction(1), 1.0, Fraction(2) + Fraction(1, 10**12)]))
        assert not is_polymatroid(EntropyVector.from_tuple([1.0, 1.0, 2 + 1e-12]), 0)
        assert not is_polymatroid(EntropyVector.from_tuple([1.0, 1.0, 2.001]))

    def test_evaluate_mixes_rationals_and_floats(self):
        g = GroundSet(("A", "B"))
        f = LinearFunctional.build(g, [(("A",), 1), (("B",), "1/3"), (("A", "B"), -1)], constant="1/7")
        exact = f.evaluate(EntropyVector.from_tuple([Fraction(1), Fraction(1), Fraction(2)]))
        assert exact == Fraction(1, 3) + Fraction(1, 7) - 1 and isinstance(exact, Fraction)
        mixed = f.evaluate(EntropyVector.from_tuple([Fraction(1), 0.5, Fraction(2)]))
        assert isinstance(mixed, float)
        assert mixed == float(Fraction(8, 7)) + float(Fraction(1, 3)) * 0.5 - 2.0


class TestElemental:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 9), (4, 28)])
    def test_counts(self, n, count):
        rows = elemental_inequalities(n)
        assert len(rows) == count
        assert len({frozenset(f.coefficients.items()) for f in rows}) == count

    def test_refuses_large_ground(self):
        with pytest.raises(ValueError):
            elemental_inequalities(15)

    def test_entropic_points_satisfy_all(self, rng):
        for _ in range(40):
            d = random_rational_distribution(rng, rng.randint(1, 3))
            vec = entropy_vector_of(d)
            for ineq in elemental_inequalities(vec.ground):
                assert float(ineq.evaluate(vec)) >= -TOL

    def test_equivalent_to_polymatroid_axioms(self, rng):
        # On random rational points the elemental set accepts exactly the
        # polymatroids (cross-check of the two implementations).
        for _ in range(300):
            n = rng.randint(2, 4)
            vals = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range((1 << n) - 1)]
            h = EntropyVector.from_tuple(vals)
            by_axioms = bool(is_polymatroid(h, 0))
            by_elemental = all(
                ineq.evaluate(h) >= 0 for ineq in elemental_inequalities(h.ground)
            )
            assert by_axioms == by_elemental


class TestFunctionalDependency:
    def test_duplicate(self):
        assert check_functional_dependency(duplicated_bit(), "X2", "X1")

    def test_independent_bits(self):
        assert not check_functional_dependency(two_fair_bits(), "X2", "X1")

    def test_one_time_pad(self):
        otp = one_time_pad()
        assert check_functional_dependency(otp, "M", ("K", "C"))
        assert not check_functional_dependency(otp, "M", ("C",))

    def test_fd_iff_conditional_entropy_zero(self, rng):
        for _ in range(60):
            d = random_rational_distribution(rng, 3)
            names = d.names()
            fd = check_functional_dependency(d, names[0], names[1:])
            h_joint = subset_entropy(d, names)
            h_given = subset_entropy(d, names[1:])
            assert fd == (abs(h_joint - h_given) <= 1e-9)


class TestIndependence:
    def test_product(self):
        assert check_independence(two_fair_bits(), "X1", "X2")

    def test_duplicate_not_independent(self):
        assert not check_independence(duplicated_bit(), "X1", "X2")

    def test_one_time_pad_masking(self):
        assert check_independence(one_time_pad(), "M", "C")

    def test_symmetry(self, rng):
        for _ in range(60):
            d = random_rational_distribution(rng, 3)
            a, b = ("X1",), ("X2", "X3")
            assert check_independence(d, a, b) == check_independence(d, b, a)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            check_independence(two_fair_bits(), ("X1",), ("X1", "X2"))


class TestQuasiUniform:
    def test_diagonal(self):
        assert is_quasi_uniform(duplicated_bit())

    def test_skewed(self):
        d = JointDistribution.of(
            [("X1", 2), ("X2", 2)],
            {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 1): Fraction(1, 4)},
        )
        assert not is_quasi_uniform(d)

    def test_xor_triple(self):
        assert is_quasi_uniform(xor_triple())

    def test_vector_of_diagonal(self):
        vec = quasi_uniform_vector_of(duplicated_bit())
        assert (vec[("X1",)], vec[("X2",)], vec[("X1", "X2")]) == (1, 1, 1)

    def test_vector_of_two_bits(self):
        vec = quasi_uniform_vector_of(two_fair_bits())
        assert (vec[("X1",)], vec[("X2",)], vec[("X1", "X2")]) == (1, 1, 2)

    def test_vector_of_xor_triple(self):
        vec = quasi_uniform_vector_of(xor_triple())
        got = [vec[(s,)] for s in ("X1", "X2", "X3")]
        got += [vec[p] for p in (("X1", "X2"), ("X1", "X3"), ("X2", "X3"))]
        got.append(vec[("X1", "X2", "X3")])
        assert got == [1, 1, 1, 2, 2, 2, 2]

    def test_rejects_non_quasi_uniform(self):
        with pytest.raises(ValueError):
            quasi_uniform_vector_of(
                JointDistribution.of(
                    [("X1", 2)], {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
                )
            )

    def test_matches_float_entropies(self, rng):
        # Quasi-uniform pmfs: support counts agree with float entropies.
        for d in (duplicated_bit(), two_fair_bits(), xor_triple()):
            qv = quasi_uniform_vector_of(d)
            ev = entropy_vector_of(d)
            for mask in range(1, qv.ground.full_mask + 1):
                assert abs(float(qv.values[mask]) - float(ev.values[mask])) <= TOL


class TestEntropicSearch:
    def test_two_bit_witness(self):
        res = entropic_search(EntropyVector.from_tuple([1, 1, 2]))
        assert res.status == "found"
        vec = entropy_vector_of(res.witness, res.witness.names())
        assert float(vec.values[3]) == pytest.approx(2.0, abs=TOL)

    def test_not_polymatroid_prefilter(self):
        res = entropic_search(EntropyVector.from_tuple([1, 1, 3]))
        assert res.status == "not-found"
        assert "polymatroid" in res.detail

    def test_duplicated_bit_witness(self):
        res = entropic_search(EntropyVector.from_tuple([1, 1, 1]))
        assert res.status == "found"
        assert res.witness.support_size(res.witness.names()) == 2

    def test_budget_exhaustion_is_distinct(self):
        h = EntropyVector.from_tuple([1, 1, 1, 2, 2, 2, 2])
        res = entropic_search(h, max_support=4, budget=3)
        assert res.status == "budget-exceeded"

    def test_found_witness_always_verified(self, rng):
        for vals in ([1, 1, 2], [1, 1, 1], [2, 1, 2]):
            res = entropic_search(EntropyVector.from_tuple([Fraction(v) for v in vals]))
            if res.status == "found":
                vec = entropy_vector_of(res.witness)
                target = EntropyVector.from_tuple([Fraction(v) for v in vals])
                for m in range(1, 4):
                    assert abs(float(vec.values[m]) - float(target.values[m])) <= TOL

    def test_rejects_large_ground(self):
        with pytest.raises(ValueError):
            entropic_search(EntropyVector.from_tuple([1] * 15))


class TestZhangYeung:
    def test_four_independent_bits(self):
        support = [tuple((x >> i) & 1 for i in range(4)) for x in range(16)]
        d = JointDistribution.uniform_over([(f"X{i}", 2) for i in range(1, 5)], support)
        assert zhang_yeung_check(entropy_vector_of(d))

    def test_all_zero(self):
        h = EntropyVector.from_tuple([Fraction(0)] * 15)
        assert zhang_yeung_check(h)

    def test_random_entropic_points(self, rng):
        for _ in range(120):
            d = random_rational_distribution(rng, 4, max_alphabet=3)
            assert zhang_yeung_check(entropy_vector_of(d))

    def test_needs_four_variables(self):
        with pytest.raises(ValueError):
            zhang_yeung_check(EntropyVector.from_tuple([1, 1, 2]))

    @staticmethod
    def violator():
        # Every singleton 2, {A,B} 4, every other pair 3, triples and the
        # whole set 4: a polymatroid with 2 I(C;D) = 2 > 1 = the right side.
        g = GroundSet(("A", "B", "C", "D"))
        sizes = {m: bin(m).count("1") for m in range(1, 16)}
        values = {m: Fraction({1: 2, 2: 4 if m == 0b0011 else 3}.get(k, 4)) for m, k in sizes.items()}
        bits = {m: Fraction(k) for m, k in sizes.items()}
        return EntropyVector(g, values), EntropyVector(g, bits)

    def test_rational_violation_is_exact(self):
        viol, bits = self.violator()
        assert is_polymatroid(viol) and not zhang_yeung_check(viol)
        assert zhang_yeung_check(bits)
        # ZY is linear, so this mix violates it by exactly 10^-12.
        e = Fraction(1, 10**12)
        mix = viol.scale(e).add(bits.scale(1 - e))
        assert is_polymatroid(mix)
        assert not zhang_yeung_check(mix)
        # As floats the same violation lies within the tolerance.
        assert zhang_yeung_check(EntropyVector(mix.ground, {m: float(v) for m, v in mix.values.items()}))


class TestSerialization:
    def test_entropy_vector_round_trip(self):
        h = EntropyVector.from_tuple([Fraction(1), Fraction(3, 2), Fraction(2)])
        again = EntropyVector.from_json(h.to_json())
        assert again == h

    def test_distribution_round_trip(self):
        d = one_time_pad()
        again = JointDistribution.from_json(d.to_json())
        assert again == d

    def test_functional_format(self):
        g = GroundSet(("A", "B"))
        f = LinearFunctional.build(g, [(("A",), 1), (("B",), 1), (("A", "B"), -1)])
        assert f.format() == "h{A} + h{B} - h{A,B} >= 0"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_distributions_are_shannon(seed):
    rng = random.Random(seed)
    d = random_rational_distribution(rng, rng.randint(1, 3))
    vec = entropy_vector_of(d)
    assert is_polymatroid(vec, TOL)
