"""Exact rational simplex over nonnegative variables.

The solver works on ``max c.x  s.t.  a_i.x (<=|=|>=) b_i, x >= 0`` with
rational data.  Internally it keeps a fraction-free integer tableau (the
classic subdeterminant form: the rational tableau times a positive
integer denominator), so every pivot is integer multiply/subtract plus
one exact division.  Pricing is Dantzig's rule (most negative reduced
cost, lowest index on ties); after 24 consecutive degenerate pivots it
switches to Bland's rule until the objective moves again, which keeps the
pivot sequence deterministic and guarantees termination.

The tableau is a numpy int64 array while that is provably safe: it is
built from the row store's CSR arrays when every stored integer is below
2^31 (`RowStore._small`), and after every pivot and every objective
install the solver checks that each entry is still below 2^31, so the
next update ``T * piv - col * row`` stays below 2^63.  Once an entry
reaches the bound, the tableau is converted once to Python ints (an
``object`` array) and the same code carries on; a store with larger
integers starts on Python ints.  Bareiss division is exact, so both
dtypes hold the same integers and give the same pivots and certificates.
The ratio test always compares in Python ints.  numpy is imported on the
first solve, so importing this module (and the command line) does not
load it.

Every answer carries a certificate that is re-verified exactly against
the original rows before it is returned (`verify_certificate`: integer
matrix-vector products over the rows' integer form in a `rows.RowStore`):

- optimal: a primal point plus dual multipliers with matching objective,
- infeasible: a Farkas combination of the rows,
- unbounded: a feasible point plus an improving ray.

A solver instance may be re-used with new objectives; the basis persists
between calls, so proof chains over one constraint system stay cheap.
`ExactSimplex.stats` counts each phase's pivots, the switches to Bland's
rule and whether (and after which pivot) the tableau widened, and the
`entroflow.simplex` logger writes one debug record per `maximize`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:
    from entroflow.rows import RowStore, Sparse

__all__ = [
    "LinearRow",
    "SimplexCertificate",
    "ExactSimplex",
    "SimplexStats",
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
    # Each vector is a `rows.Sparse`: Fractions by index, read as a mapping.
    x: Sparse  # by column (empty when infeasible)
    duals: Optional[Sparse]  # by LP row
    farkas: Optional[Sparse]  # by LP row
    ray: Optional[Sparse]  # by column
    pivots: tuple[tuple[int, int], ...]


def verify_certificate(
    n_vars: int,
    rows: Union[Sequence[LinearRow], "RowStore"],
    objective: Mapping[int, Fraction],
    cert: SimplexCertificate,
) -> None:
    """Re-verify a certificate exactly against every row; raises on failure.

    Points and rays map columns to values, dual and Farkas multipliers map
    LP rows to values; a missing entry reads as zero, a zero entry is
    ignored, and a row outside the store raises.  Each is a `rows.Sparse`
    (indices, integer numerators, one denominator) or, from a caller
    outside the solvers, a map of Fractions by index, turned into that
    form once.  Every check runs on the integer form: integer
    matrix-vector products against the rows' integer form (see
    `rows.RowStore`), no tolerance and no per-term fractions.
    """
    from entroflow.rows import RowStore, Sparse

    store = RowStore.of(rows)
    x, duals, farkas, ray = (
        None if v is None else Sparse.of(v) for v in (cert.x, cert.duals, cert.farkas, cert.ray)
    )
    for j in objective:
        if not 0 <= j < n_vars:
            raise CertificateError(f"objective references unknown variable {j}")
    if cert.status == "optimal":
        if (x.num < 0).any():
            raise CertificateError("primal point has a negative coordinate")
        bad = store.first_violated(n_vars, x)
        if bad is not None:
            raise CertificateError(f"primal point violates row {bad}")
        if x.dot(objective) != cert.value:
            raise CertificateError("primal objective does not match the reported value")
        if duals is None:
            raise CertificateError("optimal certificate lacks dual multipliers")
        combo, bound, e = store.combine(n_vars, duals, "dual")
        short = combo < 0
        for j, c in objective.items():
            short[j] = int(combo[j]) < c * e
        bad = short.nonzero()[0]
        if bad.size:
            raise CertificateError(f"dual infeasible at variable {bad[0]}")
        if Fraction(bound, e) != cert.value:
            raise CertificateError("weak-duality bound does not match the value")
    elif cert.status == "infeasible":
        if farkas is None:
            raise CertificateError("infeasibility certificate lacks multipliers")
        combo, bound, _ = store.combine(n_vars, farkas, "Farkas")
        if (combo < 0).any():
            raise CertificateError("Farkas combination is not componentwise nonnegative")
        if bound >= 0:
            raise CertificateError("Farkas combination fails to witness infeasibility")
    elif cert.status == "unbounded":
        if ray is None:
            raise CertificateError("unbounded certificate lacks a ray")
        if (ray.num < 0).any():
            raise CertificateError("ray has a negative coordinate")
        if ray.dot(objective) <= 0:
            raise CertificateError("ray does not improve the objective")
        bad = store.first_violated(n_vars, ray, ray=True)
        if bad is not None:
            raise CertificateError(f"ray escapes row {bad}")
        # The current point must be feasible for the ray to matter.
        bad = store.first_violated(n_vars, x)
        if bad is not None:
            raise CertificateError(f"ray base point violates row {bad}")
    else:
        raise CertificateError(f"unknown status {cert.status!r}")


# An int64 tableau keeps every entry below this bound, so one fraction-free
# update T * piv - col * row (two products below 2^62) cannot overflow.
_INT64_BOUND = 1 << 31


def _reaches_bound(a) -> bool:
    return a.size > 0 and (a.max() >= _INT64_BOUND or a.min() <= -_INT64_BOUND)


@dataclass
class SimplexStats:
    """Running counts of one ExactSimplex's work.

    `started_wide` is set when the row store's integers are too large for
    int64 (`RowStore._small` is false), so the tableau starts on Python
    ints; `widened_at` is the number of pivots made when an int64 tableau
    widened to Python ints (None while it has not).
    """

    phase1_pivots: int = 0
    phase2_pivots: int = 0
    bland_switches: int = 0
    started_wide: bool = False
    widened_at: Optional[int] = None

    @property
    def pivots(self) -> int:
        return self.phase1_pivots + self.phase2_pivots


class ExactSimplex:
    """Reusable exact solver bound to one constraint system.

    `stats` counts its work (a `SimplexStats`), and the `entroflow.simplex`
    logger writes one debug record per `maximize`.
    """

    def __init__(
        self, n_vars: int, rows: Union[Sequence[LinearRow], "RowStore"], verify: bool = True
    ):
        from entroflow.rows import RowStore

        self.n = n_vars
        self.rows = RowStore.of(rows)
        self.verify = verify
        self.stats = SimplexStats()
        self._status: Optional[str] = None
        self._farkas: Optional[Sparse] = None
        self._pivots: list[tuple[int, int]] = []
        self._build()

    # ------------------------------------------------------------------
    # construction

    def _build(self) -> None:
        import numpy as np  # only the tableau needs numpy; keep it off the import path

        rows = self.rows
        m, n = len(rows), self.n
        # The store already holds each row times its least common
        # denominator.  Normalize every inequality to <=-form, then flip
        # rows with a negative right side; a flipped or equality row needs
        # an artificial basic variable, everything else starts on its slack.
        sign = np.where(rows.sense == -1, -1, 1)
        flip = np.where(rows.rhs * sign < 0, -1, 1)
        turn = sign * flip
        slack = np.where(rows.sense == 0, 0, flip)
        with_slack = np.flatnonzero(slack != 0)
        with_art = np.flatnonzero(slack != 1)
        art_at = n + len(with_slack)
        self.width = art_at + len(with_art)
        slack_cols = np.arange(n, art_at)
        self._arts = list(range(art_at, self.width))
        basis = np.zeros(m, dtype=np.int64)
        basis[with_slack] = slack_cols
        basis[with_art] = self._arts
        # Python ints from the start when the store's integers are not
        # small; otherwise int64 until an entry reaches 2^31 (`_widen`).
        self.stats.started_wide = not rows._small
        T = np.zeros((m + 1, self.width + 1), dtype=object if self.stats.started_wide else np.int64)
        owner = np.repeat(np.arange(m), np.diff(rows.indptr))
        T[owner, rows.col] = rows.data * turn[owner]
        T[:m, self.width] = rows.rhs * turn
        T[with_slack, slack_cols] = slack[with_slack]
        T[with_art, self._arts] = 1
        self.T = T
        self.den = 1
        self.basis: list[int] = basis.tolist()
        self.active = [True] * m
        # Witness column per row: its initial basic column, whose content
        # e_i exposes the i-th dual multiplier at any basis.
        self._witness = list(self.basis)
        self.row_scale = [s * t for s, t in zip(rows.scale.tolist(), turn.tolist())]
        self._needs_phase1 = bool(self._arts)
        self._art_start = art_at

    def _widen(self) -> None:
        """Turn the int64 tableau into Python ints, once an entry reaches 2^31.

        Bareiss division is exact, so both dtypes hold the same integers.
        """
        self.T = self.T.astype(object)
        self.stats.widened_at = self.stats.pivots

    # ------------------------------------------------------------------
    # pivoting

    def _pivot(self, r: int, c: int) -> None:
        import numpy as np

        T = self.T
        piv = int(T[r, c])
        if piv == 0:
            raise RuntimeError("zero pivot")
        # A negative pivot (used only on degenerate rows) negates the pivot
        # row, so the denominator stays positive.
        sign = 1 if piv > 0 else -1
        piv *= sign
        den = self.den
        col = T[:, c] * sign
        col[r] = 0  # keep the pivot row out of the update
        row_r = T[r, :].copy()
        # Fraction-free update: every off-pivot row k becomes
        # (row_k * piv - col_k * pivot_row) / den, exactly.  When piv equals
        # den, a row with no entry in the pivot column stays as it is.
        if piv == den:
            hit = np.flatnonzero(col)
            changed = T[hit] * piv - col[hit, None] * row_r
            if den != 1:
                changed //= den
            T[hit] = changed
        else:
            T = self.T = changed = (T * piv - col[:, None] * row_r) // den
        T[r, :] = row_r * sign
        self.den = piv
        self.basis[r] = c
        self._pivots.append((c, r))
        if self._needs_phase1:
            self.stats.phase1_pivots += 1
        else:
            self.stats.phase2_pivots += 1
        if T.dtype != object and _reaches_bound(changed):
            self._widen()

    def _install_objective(self, c_int: dict[int, int]) -> None:
        import numpy as np

        m = len(self.rows)
        cost = np.zeros(self.width + 1, dtype=object)
        for j, c in c_int.items():
            cost[j] = c
        cb = cost[self.basis]
        hit = np.flatnonzero(cb)
        obj = cb[hit] @ self.T[hit].astype(object) - cost * self.den
        if self.T.dtype != object and _reaches_bound(obj):
            self._widen()
        self.T[m, :] = obj

    def _step(self, allow_cols: int, bland: bool) -> Optional[str]:
        """One primal step; returns 'optimal' | 'unbounded' | None (pivoted)."""
        import numpy as np

        T = self.T
        m = len(self.rows)
        reduced = T[m, :allow_cols]
        if bland:
            # Bland's rule: the first column with a negative reduced cost.
            negative = np.flatnonzero(reduced < 0)
            enter = int(negative[0]) if negative.size else -1
        else:
            # Dantzig pricing: most negative reduced cost; argmin keeps the
            # lowest index on ties.
            enter = int(reduced.argmin()) if allow_cols else -1
            if enter >= 0 and reduced[enter] >= 0:
                enter = -1
        if enter < 0:
            return "optimal"
        # Ratio test, exact: cross-multiplied in Python ints; ties go to the
        # row whose basic column is lower.
        rows = np.flatnonzero(T[:m, enter] > 0)
        coefs = T[rows, enter].tolist()
        rhs = T[rows, self.width].tolist()
        leave = -1
        best_num = best_den = 0
        for i, a, num in zip(rows.tolist(), coefs, rhs):
            if not self.active[i]:
                continue
            if (
                leave < 0
                or num * best_den < best_num * a
                or (num * best_den == best_num * a and self.basis[i] < self.basis[leave])
            ):
                leave, best_num, best_den = i, num, a
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
            if streak == self.DEGENERACY_STREAK:
                self.stats.bland_switches += 1
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
        import numpy as np

        m = len(self.rows)
        c1 = {a: -1 for a in self._arts}
        self._install_objective(c1)
        out = self._run(self.width)
        if out != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if self.T[m, self.width] != 0:
            # max of -(sum of artificials) < 0: infeasible.
            self._farkas = self._row_multipliers(c1)
            self._status = "infeasible"
            return False
        # Drive leftover basic artificials (level 0) out of the basis; a
        # row that cannot release one is redundant and goes inactive.
        for i in range(m):
            if self.basis[i] < self._art_start:
                continue
            nonzero = np.flatnonzero(self.T[i, : self._art_start])
            if nonzero.size:
                self._pivot(i, int(nonzero[0]))
            else:
                self.active[i] = False
        if any(self.active[i] and self.basis[i] >= self._art_start for i in range(m)):
            raise RuntimeError("artificial variable stuck in the basis")
        self._needs_phase1 = False
        return True

    def _row_multipliers(self, c_int: dict[int, int], scale: int = 1) -> Sparse:
        """The multipliers for the original rows at the current basis, by
        row, divided by `scale` (the objective's integer scale).

        With witness column w of initial content e_i, the solver-row
        multiplier is obj_row[w]/den + cost(w); scaling back by the row's
        integer multiplier yields the original-row multiplier.  An inactive
        (redundant) row has none.
        """
        from entroflow.rows import Sparse

        obj = self.T[len(self.rows), :].tolist()
        den = self.den
        y = {
            i: (obj[w] + c_int.get(w, 0) * den) * self.row_scale[i]
            for i, w in enumerate(self._witness)
            if self.active[i]
        }
        return Sparse.of(y, den * scale)

    # ------------------------------------------------------------------
    # public API

    def maximize(self, objective: Mapping[int, Fraction]) -> SimplexCertificate:
        import logging  # here, off the command line's import path

        stats = self.stats
        before, start = replace(stats), time.perf_counter()
        cert = self._maximize(objective)
        logging.getLogger(__name__).debug(
            "exact simplex: %s, %d phase-1 and %d phase-2 pivots, %d Bland switches, "
            "%s tableau, %.3f s",
            cert.status,
            stats.phase1_pivots - before.phase1_pivots,
            stats.phase2_pivots - before.phase2_pivots,
            stats.bland_switches - before.bland_switches,
            "int64" if self.T.dtype != object else "Python-int",
            time.perf_counter() - start,
        )
        return cert

    def _maximize(self, objective: Mapping[int, Fraction]) -> SimplexCertificate:
        from entroflow.rows import Sparse

        objective = {j: Fraction(c) for j, c in objective.items() if c != 0}
        for j in objective:
            if not 0 <= j < self.n:
                raise ValueError(f"objective references unknown variable {j}")
        self._pivots = []
        if self._status == "infeasible" or (self._needs_phase1 and not self._phase1()):
            cert = SimplexCertificate(
                "infeasible", None, Sparse.of({}), None, self._farkas, None, tuple(self._pivots)
            )
            return self._certify(cert, objective)
        scale = math.lcm(*(c.denominator for c in objective.values()))
        c_int = {j: int(c * scale) for j, c in objective.items()}
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
        value = Fraction(int(self.T[len(self.rows), self.width]), self.den * scale)
        cert = SimplexCertificate(
            "optimal",
            value,
            self._primal(),
            self._row_multipliers({}, scale),
            None,
            None,
            tuple(self._pivots),
        )
        return self._certify(cert, objective)

    def _basic(self, col: int) -> dict[int, int]:
        """Tableau column `col` by basic structural column (active rows only)."""
        entries = self.T[: len(self.rows), col].tolist()
        return {b: entries[i] for i, b in enumerate(self.basis) if b < self.n and self.active[i]}

    def _primal(self) -> Sparse:
        from entroflow.rows import Sparse

        return Sparse.of(self._basic(self.width), self.den)

    def _ray(self, col: int) -> Sparse:
        """The improving ray along nonbasic column `col`."""
        from entroflow.rows import Sparse

        ray = {b: -v for b, v in self._basic(col).items()}
        if col < self.n:
            ray[col] = self.den
        return Sparse.of(ray, self.den)

    def _certify(
        self, cert: SimplexCertificate, objective: Mapping[int, Fraction]
    ) -> SimplexCertificate:
        if self.verify:
            verify_certificate(self.n, self.rows, objective, cert)
        return cert
