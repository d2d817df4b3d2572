"""One HiGHS model per handle, re-solved from its last basis for each new cost.

The float proposals of `lp.ShannonSolver` come from here.  HiGHS is
reached through the bindings scipy bundles (`scipy.optimize._highspy`),
so no separate `highspy` install is needed; a missing binding raises
`ImportError` when a handle is made.  The module, with numpy and scipy,
is loaded on the first float solve: importing the command line loads
none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class RowResult:
    marginals: Any  # row duals, HiGHS sign convention
    residual: Any  # rhs - row value


@dataclass(frozen=True)
class FloatResult:
    """One HiGHS run, read out in `scipy.optimize.linprog`'s layout."""

    status: int  # as linprog: 0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other
    x: Any  # None unless optimal
    fun: Optional[float]
    ineqlin: RowResult
    eqlin: RowResult
    nit: int  # simplex iterations
    warm: bool  # the run started from a basis an earlier run left


class Highs:
    """One HiGHS model, solved again from its last basis for each new cost.

    The model is the one `linprog(method="highs")` passes HiGHS: the <=
    rows with lower bound -inf, then the = rows with equal bounds, every
    column >= 0, dual simplex, presolve on, no output.  Its first run is
    therefore `linprog`'s solve, bit for bit.  Each later run changes the
    costs only and starts from the basis the previous run left; a new
    cost keeps that basis primal feasible, so later runs let HiGHS choose
    the simplex variant (primal, then), and a valid basis skips presolve.
    """

    def __init__(self, a_ub, b_ub, a_eq, b_eq, n: int):
        import scipy.optimize._highspy._core as core

        self.core = core
        parts = [(a, b) for a, b in ((a_ub, b_ub), (a_eq, b_eq)) if a is not None]
        a = sparse.csc_array(sparse.vstack([a for a, _ in parts], format="csr"))
        self.rhs = np.concatenate([np.asarray(b, dtype=float) for _, b in parts])
        self.n_ub = 0 if a_ub is None else len(b_ub)
        self.n = n
        lhs = self.rhs.copy()
        lhs[: self.n_ub] = -core.kHighsInf
        model = core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = len(lhs)
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

    def solve(self, cost) -> FloatResult:
        """Minimize cost . x."""
        highs, core = self.highs, self.core
        highs.changeColsCost(self.n, self.columns, cost)
        warm = highs.getBasis().valid
        highs.run()
        if not warm:
            choose = core.simplex_constants.SimplexStrategy.kSimplexStrategyChoose
            highs.setOptionValue("simplex_strategy", int(choose))
        info = highs.getInfo()
        nit = info.simplex_iteration_count
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
            empty = RowResult(None, None)
            return FloatResult(status, None, None, empty, empty, nit, warm)
        solution = highs.getSolution()
        slack = self.rhs - np.array(solution.row_value)
        duals = np.array(solution.row_dual)
        k = self.n_ub
        return FloatResult(
            0,
            np.array(solution.col_value),
            info.objective_function_value,
            RowResult(duals[:k], slack[:k]),
            RowResult(duals[k:], slack[k:]),
            nit,
            warm,
        )
