"""Exact rational simplex over nonnegative variables.

The solver works on ``max c.x  s.t.  a_i.x (<=|=|>=) b_i, x >= 0`` with
rational data.  Internally it keeps a fraction-free integer tableau (the
classic subdeterminant form: the rational tableau times a positive
integer denominator), so every pivot is integer multiply/subtract plus
one exact division.  Pricing is Dantzig's rule (most negative reduced
cost, lowest index on ties); after 24 consecutive degenerate pivots it
switches to Bland's rule until the objective moves again, which keeps the
pivot sequence deterministic and guarantees termination.

Every answer carries a certificate that is re-verified exactly against
the original rows before it is returned (`verify_certificate`: integer
matrix-vector products over the rows' integer form in a `rows.RowStore`):

- optimal: a primal point plus dual multipliers with matching objective,
- infeasible: a Farkas combination of the rows,
- unbounded: a feasible point plus an improving ray.

A solver instance may be re-used with new objectives; the basis persists
between calls, so proof chains over one constraint system stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:
    from entroflow.rows import RowStore

__all__ = [
    "LinearRow",
    "SimplexCertificate",
    "ExactSimplex",
    "verify_certificate",
    "CertificateError",
]


class CertificateError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinearRow:
    coeffs: Mapping[int, Fraction]
    sense: str  # "le" | "ge" | "eq"
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.sense not in ("le", "ge", "eq"):
            raise ValueError("row sense must be le, ge, or eq")


@dataclass(frozen=True)
class SimplexCertificate:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction]
    x: dict[int, Fraction]
    duals: Optional[tuple[Fraction, ...]]
    farkas: Optional[tuple[Fraction, ...]]
    ray: Optional[dict[int, Fraction]]
    pivots: tuple[tuple[int, int], ...]


def verify_certificate(
    n_vars: int,
    rows: Union[Sequence[LinearRow], "RowStore"],
    objective: Mapping[int, Fraction],
    cert: SimplexCertificate,
) -> None:
    """Re-verify a certificate exactly against every row; raises on failure.

    Points, rays and multipliers are scaled to a common denominator and
    checked by integer matrix-vector products against the rows' integer
    form (see `rows.RowStore`): no tolerance and no per-term fractions.
    """
    from entroflow.rows import RowStore

    store = RowStore.of(rows)
    for j in objective:
        if not 0 <= j < n_vars:
            raise CertificateError(f"objective references unknown variable {j}")
    if cert.status == "optimal":
        x = cert.x
        if any(v < 0 for v in x.values()):
            raise CertificateError("primal point has a negative coordinate")
        bad = store.first_violated(n_vars, x)
        if bad is not None:
            raise CertificateError(f"primal point violates row {bad}")
        got = sum((c * x.get(j, Fraction(0)) for j, c in objective.items()), Fraction(0))
        if got != cert.value:
            raise CertificateError("primal objective does not match the reported value")
        y = cert.duals
        if y is None or len(y) != len(store):
            raise CertificateError("optimal certificate lacks dual multipliers")
        combo, bound, e = store.combine(n_vars, y, "dual")
        short = combo < 0
        for j, c in objective.items():
            short[j] = int(combo[j]) < c * e
        bad = short.nonzero()[0]
        if bad.size:
            raise CertificateError(f"dual infeasible at variable {bad[0]}")
        if Fraction(bound, e) != cert.value:
            raise CertificateError("weak-duality bound does not match the value")
    elif cert.status == "infeasible":
        u = cert.farkas
        if u is None or len(u) != len(store):
            raise CertificateError("infeasibility certificate lacks multipliers")
        combo, bound, _ = store.combine(n_vars, u, "Farkas")
        if (combo < 0).any():
            raise CertificateError("Farkas combination is not componentwise nonnegative")
        if bound >= 0:
            raise CertificateError("Farkas combination fails to witness infeasibility")
    elif cert.status == "unbounded":
        ray = cert.ray
        if ray is None:
            raise CertificateError("unbounded certificate lacks a ray")
        if any(v < 0 for v in ray.values()):
            raise CertificateError("ray has a negative coordinate")
        gain = sum((c * ray.get(j, Fraction(0)) for j, c in objective.items()), Fraction(0))
        if gain <= 0:
            raise CertificateError("ray does not improve the objective")
        bad = store.first_violated(n_vars, ray, ray=True)
        if bad is not None:
            raise CertificateError(f"ray escapes row {bad}")
        # The current point must be feasible for the ray to matter.
        bad = store.first_violated(n_vars, cert.x)
        if bad is not None:
            raise CertificateError(f"ray base point violates row {bad}")
    else:
        raise CertificateError(f"unknown status {cert.status!r}")


class ExactSimplex:
    """Reusable exact solver bound to one constraint system."""

    def __init__(
        self, n_vars: int, rows: Union[Sequence[LinearRow], "RowStore"], verify: bool = True
    ):
        from entroflow.rows import RowStore

        self.n = n_vars
        self.rows = RowStore.of(rows)
        self.verify = verify
        self._status: Optional[str] = None
        self._farkas: Optional[tuple[Fraction, ...]] = None
        self._pivots: list[tuple[int, int]] = []
        self._build()

    # ------------------------------------------------------------------
    # construction

    def _build(self) -> None:
        rows = self.rows
        m = len(rows)
        n = self.n
        # The store already holds each row times its least common
        # denominator.  Normalize every inequality to <=-form, then flip
        # rows with a negative right side; a flipped or equality row needs
        # an artificial basic variable, everything else starts on its slack.
        indptr, cols, data = rows.indptr.tolist(), rows.col.tolist(), rows.data.tolist()
        prepared = []  # (int coeffs, slack sign or 0, int rhs, row multiplier)
        n_arts = 0
        for i, (code, b, scale) in enumerate(
            zip(rows.sense.tolist(), rows.rhs.tolist(), rows.scale.tolist())
        ):
            sign = -1 if code == -1 else 1
            rhs = b * sign
            slack = 0 if code == 0 else 1
            flip = -1 if rhs < 0 else 1
            lo, hi = indptr[i], indptr[i + 1]
            coeffs = {j: c * sign * flip for j, c in zip(cols[lo:hi], data[lo:hi])}
            prepared.append((coeffs, slack * flip, rhs * flip, Fraction(scale * sign * flip)))
            if slack * flip != 1:
                n_arts += 1
        self.n_slacks = sum(1 for _, s, _, _ in prepared if s != 0)
        art_at = n + self.n_slacks
        self.width = art_at + n_arts
        self.slack_col: list[Optional[int]] = []
        self.art_col: list[Optional[int]] = []
        self.row_scale: list[Fraction] = []
        # Witness column per row: a tableau column whose initial content is
        # e_i; it exposes the i-th dual multiplier at any basis.
        self._witness: list[tuple[int, int]] = []
        import numpy as np  # only the tableau needs numpy; keep it off the import path

        T = np.zeros((m + 1, self.width + 1), dtype=object)
        slack_at = n
        art_next = art_at
        self.basis: list[int] = []
        self.active = [True] * m
        for i, (coeffs, slack, rhs, mult) in enumerate(prepared):
            self.row_scale.append(mult)
            for j, c in coeffs.items():
                T[i, j] = c
            T[i, self.width] = rhs
            if slack != 0:
                s_col = slack_at
                slack_at += 1
                T[i, s_col] = slack
            else:
                s_col = None
            self.slack_col.append(s_col)
            if slack == 1:
                self.art_col.append(None)
                self.basis.append(s_col)
                self._witness.append((s_col, 1))
            else:
                a_col = art_next
                art_next += 1
                T[i, a_col] = 1
                self.art_col.append(a_col)
                self.basis.append(a_col)
                self._witness.append((a_col, 1))
        self.T = T
        self.den = 1
        self.obj_scale = Fraction(1)
        self._needs_phase1 = any(b >= art_at for b in self.basis)
        self._art_start = art_at

    # ------------------------------------------------------------------
    # pivoting

    def _pivot(self, r: int, c: int) -> None:
        T = self.T
        piv = T[r, c]
        if piv == 0:
            raise RuntimeError("zero pivot")
        den = self.den
        col = T[:, c].copy()
        row_r = T[r, :].copy()
        col[r] = 0  # keep the pivot row out of the bulk update
        if piv == 1 and den == 1:
            # Fast path (the common case on 0/±1 systems): only rows with
            # a nonzero entry in the pivot column change, by row - f*pivot.
            for k in range(T.shape[0]):
                f = col[k]
                if f != 0:
                    T[k, :] = T[k, :] - f * row_r
            self.den = 1
        elif piv > 0:
            # Fraction-free update, whole-matrix: every off-pivot row
            # becomes (row * piv - row[c] * pivot_row) / den, exactly.
            new_T = (T * piv - col[:, None] * row_r[None, :]) // den
            new_T[r, :] = row_r
            self.T = new_T
            self.den = int(piv)
        else:
            # Negative pivot (used only on degenerate rows): negate the
            # pivot row so the denominator stays positive.
            new_T = (T * (-piv) + col[:, None] * row_r[None, :]) // den
            new_T[r, :] = -row_r
            self.T = new_T
            self.den = int(-piv)
        self.basis[r] = c
        self._pivots.append((c, r))

    def _install_objective(self, c_int: dict[int, int]) -> None:
        T = self.T
        import numpy as np

        m = len(self.rows)
        obj = np.zeros(self.width + 1, dtype=object)
        for j, c in c_int.items():
            obj[j] = -c * self.den
        for i in range(m):
            cb = c_int.get(self.basis[i], 0)
            if cb:
                obj = obj + cb * T[i, :]
        T[m, :] = obj

    def _step(self, allow_cols: int, bland: bool) -> Optional[str]:
        """One primal step; returns 'optimal' | 'unbounded' | None (pivoted)."""
        T = self.T
        m = len(self.rows)
        enter = -1
        if bland:
            for j in range(allow_cols):
                if T[m, j] < 0:
                    enter = j
                    break
        else:
            # Dantzig pricing: most negative reduced cost, lowest index on ties.
            best = 0
            for j in range(allow_cols):
                v = T[m, j]
                if v < best:
                    best = v
                    enter = j
        if enter < 0:
            return "optimal"
        leave = -1
        best_num = best_den = None
        for i in range(m):
            if not self.active[i]:
                continue
            a = T[i, enter]
            if a > 0:
                num, den = T[i, self.width], a
                if (
                    leave < 0
                    or num * best_den < best_num * den
                    or (num * best_den == best_num * den and self.basis[i] < self.basis[leave])
                ):
                    leave, best_num, best_den = i, num, den
        if leave < 0:
            self._unbounded_col = enter
            return "unbounded"
        self._pivot(leave, enter)
        return None

    # After this many consecutive degenerate pivots the pricing rule
    # switches to Bland's (anti-cycling) until the objective moves again.
    DEGENERACY_STREAK = 24

    def _run(self, allow_cols: int) -> str:
        m = len(self.rows)
        streak = 0
        last = (int(self.T[m, self.width]), self.den)
        while True:
            out = self._step(allow_cols, bland=streak >= self.DEGENERACY_STREAK)
            if out is not None:
                return out
            now = (int(self.T[m, self.width]), self.den)
            if now[0] * last[1] == last[0] * now[1]:
                streak += 1
            else:
                streak = 0
                last = now

    # ------------------------------------------------------------------
    # phases

    def _phase1(self) -> bool:
        """Returns True when a feasible basis is reached."""
        m = len(self.rows)
        c1 = {
            self.art_col[i]: -1
            for i in range(m)
            if self.art_col[i] is not None
        }
        if not c1:
            self._needs_phase1 = False
            return True
        self._install_objective(c1)
        out = self._run(self.width)
        if out != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if self.T[m, self.width] != 0:
            # max of -(sum of artificials) < 0: infeasible.
            y = self._row_multipliers(c1)
            self._farkas = tuple(y)
            self._status = "infeasible"
            return False
        # Drive leftover basic artificials (level 0) out of the basis; a
        # row that cannot release one is redundant and goes inactive.
        for i in range(m):
            if self.basis[i] < self._art_start:
                continue
            pivot_col = -1
            for j in range(self._art_start):
                if self.T[i, j] != 0:
                    pivot_col = j
                    break
            if pivot_col < 0:
                self.active[i] = False
            else:
                self._pivot(i, pivot_col)
        if any(self.active[i] and self.basis[i] >= self._art_start for i in range(m)):
            raise RuntimeError("artificial variable stuck in the basis")
        self._needs_phase1 = False
        return True

    def _row_multipliers(self, c_int: dict[int, int]) -> list[Fraction]:
        """Multipliers for the original rows at the current basis.

        With witness column w of initial content tau * e_i, the solver-row
        multiplier is tau * (obj_row[w]/den + cost(w)); scaling back by the
        row's integer multiplier yields the original-row multiplier.
        """
        m = len(self.rows)
        y = []
        for i in range(m):
            if not self.active[i]:
                y.append(Fraction(0))
                continue
            w, tau = self._witness[i]
            yi = tau * (Fraction(int(self.T[m, w]), self.den) + Fraction(c_int.get(w, 0)))
            y.append(yi * self.row_scale[i])
        return y

    # ------------------------------------------------------------------
    # public API

    def maximize(self, objective: Mapping[int, Fraction]) -> SimplexCertificate:
        objective = {j: Fraction(c) for j, c in objective.items() if c != 0}
        for j in objective:
            if not 0 <= j < self.n:
                raise ValueError(f"objective references unknown variable {j}")
        if self._status == "infeasible":
            return self._certify(
                SimplexCertificate(
                    "infeasible", None, {}, None, self._farkas, None, tuple(self._pivots)
                ),
                objective,
            )
        self._pivots = []
        if self._needs_phase1 and not self._phase1():
            return self._certify(
                SimplexCertificate(
                    "infeasible", None, {}, None, self._farkas, None, tuple(self._pivots)
                ),
                objective,
            )
        scale = math.lcm(*(c.denominator for c in objective.values()))
        c_int = {j: int(c * scale) for j, c in objective.items()}
        self.obj_scale = Fraction(scale)
        self._install_objective(c_int)
        out = self._run(self._art_start)
        if out == "unbounded":
            cert = SimplexCertificate(
                "unbounded",
                None,
                self._primal(),
                None,
                None,
                self._ray(self._unbounded_col),
                tuple(self._pivots),
            )
            return self._certify(cert, objective)
        value = Fraction(int(self.T[len(self.rows), self.width]), self.den) / self.obj_scale
        duals = [
            y / self.obj_scale for y in self._row_multipliers({})
        ]
        cert = SimplexCertificate(
            "optimal",
            value,
            self._primal(),
            tuple(duals),
            None,
            None,
            tuple(self._pivots),
        )
        return self._certify(cert, objective)

    def _primal(self) -> dict[int, Fraction]:
        x: dict[int, Fraction] = {}
        for i, b in enumerate(self.basis):
            if b < self.n and self.active[i]:
                v = Fraction(int(self.T[i, self.width]), self.den)
                if v:
                    x[b] = v
        return x

    def _ray(self, col: int) -> dict[int, Fraction]:
        ray: dict[int, Fraction] = {}
        if col < self.n:
            ray[col] = Fraction(1)
        for i, b in enumerate(self.basis):
            if not self.active[i]:
                continue
            if b < self.n:
                v = -Fraction(int(self.T[i, col]), self.den)
                if v:
                    ray[b] = ray.get(b, Fraction(0)) + v
        return {j: v for j, v in ray.items() if v}

    def _certify(
        self, cert: SimplexCertificate, objective: Mapping[int, Fraction]
    ) -> SimplexCertificate:
        if self.verify:
            verify_certificate(self.n, self.rows, objective, cert)
        if cert.status == "infeasible":
            self._status = "infeasible"
        return cert
