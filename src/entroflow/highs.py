"""One HiGHS model per handle, built from a row store and answered per LP row.

The float proposals of `lp.ShannonSolver` come from here.  HiGHS is
reached through the bindings scipy bundles (`scipy.optimize._highspy`),
so no separate `highspy` install is needed; a missing binding raises
`ImportError` when a handle is made.  The module, with numpy and scipy,
is loaded on the first float solve: importing the command line loads
none of them.

`Highs` is the only place that knows the model's row layout.  What it
returns is indexed by the rows of the `rows.RowStore` it was built from,
each in that row's own sense, so callers never see the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from entroflow.rows import RowStore


@dataclass(frozen=True)
class FloatResult:
    """One HiGHS run of ``min cost . x``, read as a proposal for ``max -cost . x``.

    `row_dual` holds the multiplier of each LP row in that maximization:
    >= 0 on a <= row, <= 0 on a >= row, free on an = row.  `row_slack` is
    each row's distance from its right side, >= 0 when the row holds
    (b - a.x for a <= or = row, a.x - b for a >= row).  All three arrays
    are None unless the run was optimal.
    """

    status: int  # as linprog: 0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other
    x: Any
    row_dual: Any
    row_slack: Any
    nit: int  # simplex iterations
    warm: bool  # the run started from a basis an earlier run left


class Highs:
    """One HiGHS model of a row store, solved again from its last basis for each new cost.

    The model is the one `linprog(method="highs")` passes HiGHS for these
    rows: the <= rows and the negated >= rows, in row order, with lower
    bound -inf, then the = rows with equal bounds, every column >= 0, dual
    simplex, presolve on, no output.  Its first run is therefore
    `linprog`'s solve, bit for bit.  Each later run changes the costs only
    and starts from the basis the previous run left; a new cost keeps that
    basis primal feasible, so later runs let HiGHS choose the simplex
    variant (primal, then), and a valid basis skips presolve.
    """

    def __init__(self, rows: RowStore, n: int):
        import scipy.optimize._highspy._core as core

        self.core = core
        self.n = n
        self.m = len(rows)
        # Model row k is LP row order[k] times flip[k].
        inequality = rows.sense != 0
        self.order = np.concatenate((np.flatnonzero(inequality), np.flatnonzero(~inequality)))
        self.flip = np.where(rows.sense[self.order] == -1, -1.0, 1.0)
        picked = rows.take(self.order)
        data, rhs = picked.floats()
        data = data * np.repeat(self.flip, np.diff(picked.indptr))
        a = sparse.csc_array(sparse.csr_matrix((data, picked.col, picked.indptr), shape=(self.m, n)))
        self.rhs = rhs * self.flip
        lhs = self.rhs.copy()
        lhs[: int(inequality.sum())] = -core.kHighsInf
        model = core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = self.m
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.start_ = a.indptr
        model.a_matrix_.index_ = a.indices
        model.a_matrix_.value_ = a.data
        model.col_cost_ = np.zeros(n)
        model.col_lower_ = np.zeros(n)
        model.col_upper_ = np.full(n, core.kHighsInf)
        model.row_lower_ = lhs
        model.row_upper_ = self.rhs
        options = core.HighsOptions()
        options.presolve = "on"
        options.output_flag = False
        options.log_to_console = False
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self.highs = core._Highs()
        self.highs.passOptions(options)
        self.highs.passModel(model)
        self.columns = np.arange(n, dtype=np.int32)

    def _by_row(self, values):
        """Model-row values put back in LP row order."""
        out = np.empty(self.m)
        out[self.order] = values
        return out

    def solve(self, cost) -> FloatResult:
        """Minimize cost . x."""
        highs, core = self.highs, self.core
        highs.changeColsCost(self.n, self.columns, cost)
        warm = highs.getBasis().valid
        highs.run()
        if not warm:
            choose = core.simplex_constants.SimplexStrategy.kSimplexStrategyChoose
            highs.setOptionValue("simplex_strategy", int(choose))
        nit = highs.getInfo().simplex_iteration_count
        codes = core.HighsModelStatus
        status = {
            codes.kOptimal: 0,
            codes.kTimeLimit: 1,
            codes.kIterationLimit: 1,
            codes.kInfeasible: 2,
            codes.kModelError: 2,
            codes.kUnbounded: 3,
        }.get(highs.getModelStatus(), 4)
        if status != 0:
            return FloatResult(status, None, None, None, nit, warm)
        solution = highs.getSolution()
        return FloatResult(
            0,
            np.array(solution.col_value),
            self._by_row(-self.flip * np.array(solution.row_dual)),
            self._by_row(self.rhs - np.array(solution.row_value)),
            nit,
            warm,
        )

    def farkas(self):
        """Farkas multipliers per LP row after a run that found the model
        infeasible (None when HiGHS has no dual ray), and the simplex
        iterations this call made.

        The multipliers follow `FloatResult.row_dual`'s signs: the
        combination ``sum farkas_i * a_i`` is >= 0 in every column while
        ``sum farkas_i * b_i`` < 0, up to float error.  When presolve found
        the infeasibility, the run left no ray, and HiGHS solves the model
        once more, without presolve, inside this call to find one; the
        iterations are that solve's, 0 when there was none.
        """
        known = self.highs.getDualRayExist()[1]
        _, has_ray, ray = self.highs.getDualRay()
        nit = 0 if known else self.highs.getInfo().simplex_iteration_count
        if not has_ray:
            return None, nit
        return self._by_row(-self.flip * np.asarray(ray)), nit
