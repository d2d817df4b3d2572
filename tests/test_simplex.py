import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroflow.simplex import (
    CertificateError,
    ExactSimplex,
    LinearRow,
    SimplexCertificate,
    verify_certificate,
)
from entroflow.rows import RowStore, Sparse

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
            "infeasible", None, {}, None, {0: F(0), 1: F(0)}, None, cert.pivots
        )
        with pytest.raises(CertificateError):
            verify_certificate(1, rows, {0: F(1)}, bad)

    @pytest.mark.parametrize("sense,rhs,bad", [("le", 1, 2), ("ge", 2, 1), ("eq", 1, 2)])
    def test_row_violations_rejected(self, sense, rhs, bad):
        # Row 0 is "x (sense) rhs" and x = bad breaks it.  The ray row is
        # "+-x (sense) 0", signed so that the ray along x breaks it.
        row = R({0: 1}, sense, rhs)
        point = SimplexCertificate(
            "optimal", F(bad), {0: F(bad)}, {0: F(1)}, None, None, ()
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


# ----------------------------------------------------------------------
# the integer-exact verifier against plain Fraction substitution


def substituted(row, point, ray=False):
    """Reference row check by Fraction substitution: True when the row breaks."""
    v = sum((F(c) * F(point.get(j, 0)) for j, c in row.coeffs.items()), F(0))
    rhs = 0 if ray else F(row.rhs)
    return v > rhs if row.sense == "le" else v < rhs if row.sense == "ge" else v != rhs


def reference_verdict(n_vars, rows, objective, cert):
    """The certificate checks in Fractions, term by term; True when it holds."""

    def combined(mult):
        combo, bound = [F(0)] * n_vars, F(0)
        for i, y in mult.items():
            if not 0 <= i < len(rows):
                return None
            row = rows[i]
            if (row.sense == "le" and y < 0) or (row.sense == "ge" and y > 0):
                return None
            for j, c in row.coeffs.items():
                combo[j] += y * c
            bound += y * row.rhs
        return combo, bound

    def value(point):
        return sum((c * point.get(j, F(0)) for j, c in objective.items()), F(0))

    if cert.status == "optimal":
        if any(v < 0 for v in cert.x.values()) or any(substituted(r, cert.x) for r in rows):
            return False
        if value(cert.x) != cert.value or cert.duals is None:
            return False
        got = combined(cert.duals)
        return (
            got is not None
            and all(got[0][j] >= objective.get(j, F(0)) for j in range(n_vars))
            and got[1] == cert.value
        )
    if cert.status == "infeasible":
        if cert.farkas is None:
            return False
        got = combined(cert.farkas)
        return got is not None and all(v >= 0 for v in got[0]) and got[1] < 0
    ray = cert.ray
    return (
        all(v >= 0 for v in ray.values())
        and value(ray) > 0
        and not any(substituted(r, ray, ray=True) for r in rows)
        and not any(substituted(r, cert.x) for r in rows)
    )


def passes(n_vars, rows, objective, cert):
    try:
        verify_certificate(n_vars, rows, objective, cert)
    except CertificateError:
        return False
    return True


# Mostly small rationals, sometimes numerators and denominators past 2^64,
# so both the int64 path and the Python-int path run.
small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
huge = st.builds(
    F,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=1, max_value=2**70),
)
rational = st.one_of(small, small, small, huge)


@st.composite
def systems(draw, values=rational, max_vars=4, max_rows=5):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    rows = [
        LinearRow(
            draw(st.dictionaries(st.integers(0, n - 1), values, max_size=n)),
            draw(st.sampled_from(["le", "ge", "eq"])),
            draw(values),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=max_rows)))
    ]
    return n, rows


def points(n, values=rational):
    return st.dictionaries(st.integers(0, n - 1), values, max_size=n)


class TestIntegerVerifier:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_checks_match_substitution(self, data):
        n, rows = data.draw(systems())
        point = data.draw(points(n))
        store = RowStore.from_rows(rows)
        for ray in (False, True):
            got = store.violated(n, Sparse.of(point), ray).tolist()
            assert got == [substituted(r, point, ray) for r in rows]
        assert list(store) == [
            LinearRow({j: c for j, c in sorted(r.coeffs.items()) if c}, r.sense, r.rhs)
            for r in rows
        ]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_verdicts_match_substitution(self, data):
        n, rows = data.draw(systems())
        objective = data.draw(points(n, small))
        status = data.draw(st.sampled_from(["optimal", "infeasible", "unbounded"]))
        # Multipliers on the first rows, zeros among them.
        mult = dict(enumerate(data.draw(st.lists(rational, max_size=len(rows)))))
        x = data.draw(points(n, st.one_of(small.map(abs), huge.map(abs))))
        ray = data.draw(points(n, small.map(abs)))
        value = sum((c * x.get(j, F(0)) for j, c in objective.items()), F(0))
        cert = SimplexCertificate(
            status,
            value,
            x,
            mult if status == "optimal" else None,
            mult if status == "infeasible" else None,
            ray if status == "unbounded" else None,
            (),
        )
        assert passes(n, rows, objective, cert) == reference_verdict(n, rows, objective, cert)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_solver_certificates_match_substitution(self, data):
        # Certificates the exact simplex returns hold under both checks.
        n, rows = data.draw(systems())
        objective = data.draw(points(n, small))
        cert = ExactSimplex(n, rows, verify=False).maximize(objective)
        assert passes(n, rows, objective, cert)
        assert reference_verdict(n, rows, objective, cert)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_edited_solver_multipliers_match_substitution(self, data):
        # A verified certificate's duals or Farkas multipliers with zeros
        # added on other rows (a zero on a >= or <= row breaks no sign) and
        # entries dropped: both checks still agree.
        n, rows = data.draw(systems())
        objective = data.draw(points(n, small))
        cert = ExactSimplex(n, rows, verify=False).maximize(objective)
        field = "duals" if cert.status == "optimal" else "farkas"
        mult = getattr(cert, field)
        if mult is None:
            return
        dropped = data.draw(st.sets(st.sampled_from(sorted(mult)))) if mult else set()
        zeros = data.draw(st.sets(st.integers(0, len(rows) - 1))) if rows else set()
        edited = {i: y for i, y in mult.items() if i not in dropped}
        edited.update({i: F(0) for i in zeros if i not in edited})
        cert = replace(cert, **{field: edited})
        assert passes(n, rows, objective, cert) == reference_verdict(n, rows, objective, cert)

    def test_empty_rows_anywhere(self):
        rows = [R({}, "le", 0), R({0: 1}, "ge", 1), R({0: 1, 1: 1}, "le", 1), R({}, "eq", 0)]
        store = RowStore.from_rows(rows)
        assert store.violated(2, Sparse.of({0: F(1), 1: F(1)})).tolist() == [False, False, True, False]
        assert store.violated(2, Sparse.of({0: F(1, 2)})).tolist() == [False, True, False, False]
        assert store.violated(2, Sparse.of({})).tolist() == [False, True, False, False]
        assert RowStore.from_rows([R({}, "ge", 1)]).violated(1, Sparse.of({})).tolist() == [True]

    def tilted(self):
        # max x0 + x1 with x0 + x1 <= 1 and 7^15 x0 = x1: the optimum has
        # denominator D = 7^15 + 1, too fine for any float tolerance.
        rows = [R({0: 1, 1: 1}, "le", 1), R({0: 7**15, 1: -1}, "eq", 0)]
        objective = {0: F(1), 1: F(1)}
        cert = ExactSimplex(2, rows).maximize(objective)
        assert cert.x == {0: F(1, 7**15 + 1), 1: F(7**15, 7**15 + 1)}
        return rows, objective, cert

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("step", [1, -1])
    def test_primal_coordinate_off_by_one_over_d_rejected(self, j, step):
        rows, objective, cert = self.tilted()
        verify_certificate(2, rows, objective, cert)
        x = dict(cert.x)
        x[j] += F(step, 7**15 + 1)
        bad = SimplexCertificate("optimal", cert.value, x, cert.duals, None, None, ())
        with pytest.raises(CertificateError, match="primal point violates row"):
            verify_certificate(2, rows, objective, bad)

    def test_flipped_dual_sign_rejected(self):
        rows, objective, cert = self.tilted()
        for i, y in cert.duals.items():
            bad = SimplexCertificate("optimal", cert.value, cert.x, {**cert.duals, i: -y}, None, None, ())
            with pytest.raises(CertificateError):
                verify_certificate(2, rows, objective, bad)
        duals = {**cert.duals, 0: -cert.duals[0]}
        bad = SimplexCertificate("optimal", cert.value, cert.x, duals, None, None, ())
        with pytest.raises(CertificateError, match="dual sign violated on a <= row"):
            verify_certificate(2, rows, objective, bad)

    def test_dropped_farkas_multiplier_rejected(self):
        rows = [R({0: 1, 1: 1}, "ge", 3), R({0: 1}, "le", 1), R({1: 1}, "le", 1)]
        cert = ExactSimplex(2, rows).maximize({})
        assert cert.status == "infeasible"
        assert sorted(cert.farkas) == [0, 1, 2]
        for i in cert.farkas:
            dropped = {k: u for k, u in cert.farkas.items() if k != i}
            for farkas in (dropped, {**cert.farkas, i: F(0)}):
                bad = SimplexCertificate("infeasible", None, {}, None, farkas, None, ())
                with pytest.raises(CertificateError, match="Farkas combination"):
                    verify_certificate(2, rows, {}, bad)

    @pytest.mark.parametrize("row", [-1, 1])
    def test_dual_on_a_row_outside_the_store_rejected(self, row):
        # Row -1 would wrap to row 0 in a numpy index and pass; row 1 is past the end.
        rows = [R({0: 1}, "le", 1)]
        verify_certificate(1, rows, {0: F(1)}, ExactSimplex(1, rows).maximize({0: F(1)}))
        bad = SimplexCertificate("optimal", F(1), {0: F(1)}, {row: F(1)}, None, None, ())
        with pytest.raises(CertificateError, match=f"dual multiplier on row {row}, outside the 1 rows"):
            verify_certificate(1, rows, {0: F(1)}, bad)

    @pytest.mark.parametrize("row", [-1, 2])
    def test_farkas_on_a_row_outside_the_store_rejected(self, row):
        # Row -1 would wrap to row 1 in a numpy index and pass; row 2 is past the end.
        rows = [R({0: 1}, "ge", 1), R({0: 1}, "le", 0)]
        cert = ExactSimplex(1, rows).maximize({})
        assert cert.farkas == {0: F(-1), 1: F(1)}
        bad = SimplexCertificate("infeasible", None, {}, None, {0: F(-1), row: F(1)}, None, ())
        with pytest.raises(CertificateError, match=f"Farkas multiplier on row {row}, outside the 2 rows"):
            verify_certificate(1, rows, {}, bad)

    def test_zero_multipliers_keep_their_verdicts(self):
        # A zero on a >= row is no sign violation; a missing row reads as zero.
        rows = [R({0: 1}, "le", 1), R({0: 1}, "ge", 0)]
        for duals in ({0: F(1)}, {0: F(1), 1: F(0)}):
            cert = SimplexCertificate("optimal", F(1), {0: F(1)}, duals, None, None, ())
            verify_certificate(1, rows, {0: F(1)}, cert)
        zero = SimplexCertificate("optimal", F(0), {}, {}, None, None, ())
        verify_certificate(1, rows, {}, zero)
        # An empty Farkas map, like all-zero multipliers, witnesses nothing.
        infeasible = [R({0: 1}, "ge", 1), R({0: 1}, "le", 0)]
        for farkas in ({}, {0: F(0), 1: F(0)}):
            bad = SimplexCertificate("infeasible", None, {}, None, farkas, None, ())
            with pytest.raises(CertificateError, match="fails to witness infeasibility"):
                verify_certificate(1, infeasible, {}, bad)

    def test_denominators_past_two_to_the_64_verify_exactly(self):
        big = 2**64 + 13
        rows = [
            R({0: F(1, big), 1: F(1, 3**41)}, "le", F(5, 2**67 + 1)),
            R({0: 1, 1: F(-1, big)}, "ge", F(1, 3**45)),
        ]
        store = RowStore.from_rows(rows)
        assert store.data.dtype == object and store.scale.dtype == object
        objective = {0: F(1), 1: F(2, big)}
        cert = ExactSimplex(2, rows).maximize(objective)
        assert cert.status == "optimal"
        assert max(v.denominator for v in cert.x.values()) > 2**64
        verify_certificate(2, store, objective, cert)
        assert reference_verdict(2, rows, objective, cert)
        for j, v in cert.x.items():
            x = dict(cert.x)
            x[j] = v + F(1, v.denominator)
            bad = SimplexCertificate("optimal", cert.value, x, cert.duals, None, None, ())
            with pytest.raises(CertificateError):
                verify_certificate(2, store, objective, bad)


# ----------------------------------------------------------------------
# the int64 tableau against the same solver on Python ints


def solve_chain(n, rows, objectives, wide):
    """Certificates of one solver over a chain of objectives; with `wide`
    its tableau is turned to Python ints before the first solve."""
    s = ExactSimplex(n, rows, verify=False)
    if wide:
        s.T = s.T.astype(object)
    return [s.maximize(obj) for obj in objectives], s


# Mostly small rationals, sometimes integers up to 2^20, whose
# fraction-free subdeterminants pass 2^31 after a few pivots.
moderate = st.one_of(small, small, st.integers(-(2**20), 2**20).map(F))


def random_sweep_lp(rng):
    """The Shannon LP of a random single-session DAG (s, 1-3 relays, t)."""
    from entroflow.lp import build_shannon_lp
    from entroflow.network import problem_from_dict

    nodes = ["s"] + [f"m{i}" for i in range(rng.randint(1, 3))] + ["t"]
    edges = []
    for k in range(rng.randint(3, 6)):
        u, v = sorted(rng.sample(range(len(nodes)), 2))
        cap = rng.choice(["0", "1/3", "1/2", "1", "3/2", "2"])
        edges.append({"id": f"e{k}", "tail": nodes[u], "head": nodes[v], "capacity": cap})
    doc = {
        "nodes": nodes,
        "edges": edges,
        "sessions": [{"id": "S", "rate": "0", "origin": "s", "sinks": ["t"]}],
    }
    return build_shannon_lp(problem_from_dict(doc))


class TestInt64Tableau:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_python_ints_on_random_systems(self, data):
        n, rows = data.draw(systems(moderate, max_vars=5, max_rows=7))
        objectives = data.draw(st.lists(points(n, moderate), min_size=1, max_size=3))
        narrow, solver = solve_chain(n, rows, objectives, wide=False)
        assert not solver.stats.started_wide
        wide, _ = solve_chain(n, rows, objectives, wide=True)
        assert narrow == wide
        assert [repr(c) for c in narrow] == [repr(c) for c in wide]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_python_ints_on_shannon_lp_slices(self, seed, data):
        rng = random.Random(seed)
        lp = random_sweep_lp(rng)
        rows, n = lp.rows, len(lp.coords)
        picks = sorted(rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 80))))
        part = rows.take(picks)
        coeffs, _ = lp.compile("H(S)")
        index = lp.coord_index()
        objectives = [
            {index[m]: c for m, c in coeffs.items()},
            data.draw(points(n, small)),
            {j: F(-1) for j in range(n)},
        ]
        narrow, solver = solve_chain(n, part, objectives, wide=False)
        assert solver.T.dtype != object
        wide, _ = solve_chain(n, part, objectives, wide=True)
        assert narrow == wide
        for cert, objective in zip(narrow, objectives):
            verify_certificate(n, part, objective, cert)

    def test_widens_once_entries_pass_two_to_the_31(self):
        rows = [
            R({0: 1000003, 1: 999983}, "le", 1000000007),
            R({0: 999979, 1: 1000033}, "le", 999999937),
            R({0: 1, 1: 1}, "ge", 1),
        ]
        objectives = [{0: F(3), 1: F(2)}, {0: F(-1), 1: F(5)}]
        narrow, solver = solve_chain(2, rows, objectives, wide=False)
        assert not solver.stats.started_wide
        assert solver.stats.widened_at is not None and solver.T.dtype == object
        assert 0 < solver.stats.widened_at <= solver.stats.pivots
        wide, _ = solve_chain(2, rows, objectives, wide=True)
        assert narrow == wide
        for cert, objective in zip(narrow, objectives):
            assert cert.status == "optimal"
            verify_certificate(2, rows, objective, cert)

    def test_large_store_starts_on_python_ints(self):
        rows = [R({0: 2**40, 1: 1}, "le", 3), R({0: 1}, "le", 1)]
        s = ExactSimplex(2, rows)
        assert s.stats.started_wide and s.T.dtype == object
        assert s.maximize({0: F(1), 1: F(1)}).value == 3
        assert s.stats.widened_at is None

    def test_large_objective_widens_before_it_is_installed(self):
        rows = [R({0: 1, 1: 1}, "le", 1)]
        s = ExactSimplex(2, rows)
        cert = s.maximize({0: F(2**40), 1: F(1, 3)})
        assert cert.value == 2**40 and s.T.dtype == object
        assert s.stats.widened_at == 0


class TestStats:
    def test_counts_and_debug_record(self, caplog):
        import logging

        rows = [R({0: 1, 1: 1}, "ge", 1), R({0: 1}, "le", 3), R({1: 1}, "le", 3)]
        s = ExactSimplex(2, rows)
        with caplog.at_level(logging.DEBUG, logger="entroflow.simplex"):
            first = s.maximize({0: F(1)})
            second = s.maximize({1: F(1)})
        stats = s.stats
        assert stats.phase1_pivots >= 1
        assert stats.pivots == len(first.pivots) + len(second.pivots)
        assert stats.bland_switches == 0 and stats.widened_at is None
        records = [r.getMessage() for r in caplog.records if r.name == "entroflow.simplex"]
        assert len(records) == 2
        assert records[0].startswith("exact simplex: optimal, ")
        assert "int64 tableau" in records[0]

    def test_bland_switch_counted(self):
        # A degenerate vertex where many pivots leave the objective flat.
        n = 30
        rows = [R({j: 1, j + 1: -1}, "le", 0) for j in range(n - 1)]
        rows.append(R({n - 1: 1}, "le", 1))
        s = ExactSimplex(n, rows)
        cert = s.maximize({j: F(1) for j in range(n)})
        assert cert.value == n
        assert s.stats.bland_switches >= 1
        assert s.stats.pivots == len(cert.pivots)
