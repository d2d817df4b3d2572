import random
from fractions import Fraction

import pytest

from entroflow.simplex import (
    CertificateError,
    ExactSimplex,
    LinearRow,
    SimplexCertificate,
    verify_certificate,
)

F = Fraction


def R(coeffs, sense, rhs):
    return LinearRow({j: F(c) for j, c in coeffs.items()}, sense, F(rhs))


class TestBasics:
    def test_box(self):
        # max x + y with x <= 1, y <= 2.
        s = ExactSimplex(2, [R({0: 1}, "le", 1), R({1: 1}, "le", 2)])
        cert = s.maximize({0: F(1), 1: F(1)})
        assert cert.status == "optimal"
        assert cert.value == 3
        assert cert.x == {0: F(1), 1: F(2)}

    def test_rational_data(self):
        s = ExactSimplex(1, [R({0: F(2, 3)}, "le", F(5, 7))])
        cert = s.maximize({0: F(1)})
        assert cert.value == F(15, 14)

    def test_equality_row(self):
        # max x with x + y = 2, y <= 1 => x can use y >= 0 freely: x = 2.
        s = ExactSimplex(2, [R({0: 1, 1: 1}, "eq", 2), R({1: 1}, "le", 1)])
        cert = s.maximize({0: F(1)})
        assert cert.value == 2
        cert2 = s.maximize({1: F(1)})
        assert cert2.value == 1

    def test_ge_row_needs_phase1(self):
        # max -x s.t. x >= 3 gives -3.
        s = ExactSimplex(1, [R({0: 1}, "ge", 3)])
        cert = s.maximize({0: F(-1)})
        assert cert.status == "optimal"
        assert cert.value == -3

    def test_infeasible(self):
        s = ExactSimplex(1, [R({0: 1}, "ge", 1), R({0: 1}, "le", 0)])
        cert = s.maximize({0: F(1)})
        assert cert.status == "infeasible"
        assert cert.farkas is not None

    def test_unbounded(self):
        s = ExactSimplex(2, [R({1: 1}, "le", 1)])
        cert = s.maximize({0: F(1)})
        assert cert.status == "unbounded"
        assert cert.ray.get(0, F(0)) > 0

    def test_degenerate_beale_terminates(self):
        # A classic cycling-prone instance; Bland's rule must terminate.
        rows = [
            R({0: F(1, 4), 1: -8, 2: -1, 3: 9}, "le", 0),
            R({0: F(1, 2), 1: -12, 2: F(-1, 2), 3: 3}, "le", 0),
            R({2: 1}, "le", 1),
        ]
        s = ExactSimplex(4, rows)
        cert = s.maximize({0: F(3, 4), 1: -20, 2: F(1, 2), 3: -6})
        assert cert.status == "optimal"
        assert cert.value == F(5, 4)

    def test_zero_objective(self):
        s = ExactSimplex(1, [R({0: 1}, "le", 1)])
        cert = s.maximize({})
        assert cert.status == "optimal"
        assert cert.value == 0


class TestWarmRestart:
    def test_multiple_objectives_share_basis(self):
        rows = [R({0: 1, 1: 1}, "le", 4), R({0: 1}, "le", 3), R({1: 1}, "le", 3)]
        s = ExactSimplex(2, rows)
        assert s.maximize({0: F(1)}).value == 3
        assert s.maximize({1: F(1)}).value == 3
        assert s.maximize({0: F(1), 1: F(1)}).value == 4
        assert s.maximize({0: F(-1), 1: F(-1)}).value == 0

    def test_infeasible_is_sticky(self):
        s = ExactSimplex(1, [R({0: 1}, "ge", 2), R({0: 1}, "le", 1)])
        assert s.maximize({0: F(1)}).status == "infeasible"
        assert s.maximize({0: F(-1)}).status == "infeasible"


class TestDeterminism:
    def test_identical_pivot_sequences(self):
        rows = [
            R({0: 2, 1: 1}, "le", 10),
            R({0: 1, 1: 3}, "le", 15),
            R({0: 1, 1: 1}, "ge", 1),
        ]
        a = ExactSimplex(2, rows).maximize({0: F(3), 1: F(2)})
        b = ExactSimplex(2, rows).maximize({0: F(3), 1: F(2)})
        assert a.pivots == b.pivots
        # Optimum sits at 2x+y = 10 meets x+3y = 15, i.e. (x, y) = (3, 4).
        assert a.value == b.value == F(17)
        assert a.x == {0: F(3), 1: F(4)}


class TestCertificates:
    def test_optimal_certificate_verifies(self):
        rows = [R({0: 1, 1: 2}, "le", 6), R({0: 1}, "ge", 1)]
        s = ExactSimplex(2, rows)
        cert = s.maximize({0: F(1), 1: F(1)})
        verify_certificate(2, rows, {0: F(1), 1: F(1)}, cert)

    def test_corrupted_value_rejected(self):
        rows = [R({0: 1}, "le", 1)]
        s = ExactSimplex(1, rows)
        cert = s.maximize({0: F(1)})
        bad = SimplexCertificate(
            "optimal", cert.value + 1, cert.x, cert.duals, None, None, cert.pivots
        )
        with pytest.raises(CertificateError):
            verify_certificate(1, rows, {0: F(1)}, bad)

    def test_corrupted_farkas_rejected(self):
        rows = [R({0: 1}, "ge", 1), R({0: 1}, "le", 0)]
        s = ExactSimplex(1, rows)
        cert = s.maximize({0: F(1)})
        bad = SimplexCertificate(
            "infeasible", None, {}, None, (F(0), F(0)), None, cert.pivots
        )
        with pytest.raises(CertificateError):
            verify_certificate(1, rows, {0: F(1)}, bad)

    @pytest.mark.parametrize("sense,rhs,bad", [("le", 1, 2), ("ge", 2, 1), ("eq", 1, 2)])
    def test_row_violations_rejected(self, sense, rhs, bad):
        # Row 0 is "x (sense) rhs" and x = bad breaks it.  The ray row is
        # "+-x (sense) 0", signed so that the ray along x breaks it.
        row = R({0: 1}, sense, rhs)
        point = SimplexCertificate(
            "optimal", F(bad), {0: F(bad)}, (F(1),), None, None, ()
        )
        with pytest.raises(CertificateError, match="primal point violates row 0"):
            verify_certificate(1, [row], {0: F(1)}, point)
        ray_row = R({0: 1 if sense != "ge" else -1}, sense, 0)
        escaping = SimplexCertificate("unbounded", None, {}, None, None, {0: F(1)}, ())
        with pytest.raises(CertificateError, match="ray escapes row 0"):
            verify_certificate(1, [ray_row], {0: F(1)}, escaping)
        # A ray that stays inside (along y) from a base point that does not.
        base = SimplexCertificate(
            "unbounded", None, {0: F(bad)}, None, None, {1: F(1)}, ()
        )
        with pytest.raises(CertificateError, match="ray base point violates row 0"):
            verify_certificate(2, [row], {1: F(1)}, base)

    def test_unbounded_certificate_verifies(self):
        rows = [R({0: 1, 1: -1}, "le", 1)]
        s = ExactSimplex(2, rows)
        cert = s.maximize({0: F(1)})
        verify_certificate(2, rows, {0: F(1)}, cert)


class TestAgainstFloatOracle:
    def test_random_lps(self):
        scipy = pytest.importorskip("scipy.optimize")
        rng = random.Random(99)
        for trial in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            rows = []
            for _ in range(m):
                coeffs = {
                    j: F(rng.randint(-3, 4)) for j in range(n) if rng.random() < 0.8
                }
                coeffs = {j: c for j, c in coeffs.items() if c} or {0: F(1)}
                rows.append(LinearRow(coeffs, "le", F(rng.randint(0, 6))))
            # Bound the feasible set so optima exist.
            for j in range(n):
                rows.append(LinearRow({j: F(1)}, "le", F(10)))
            obj = {j: F(rng.randint(-3, 3)) for j in range(n)}
            cert = ExactSimplex(n, rows).maximize(obj)
            assert cert.status == "optimal"
            import numpy as np

            A = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for i, row in enumerate(rows):
                for j, c in row.coeffs.items():
                    A[i, j] = float(c)
                b[i] = float(row.rhs)
            c = np.zeros(n)
            for j, v in obj.items():
                c[j] = -float(v)
            res = scipy.linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
            assert res.status == 0
            assert abs(float(cert.value) + res.fun) < 1e-7
