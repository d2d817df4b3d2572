"""One HiGHS model per handle, built from a row store and answered per LP row.

The float proposals of `lp.ShannonSolver` come from here.  HiGHS is
reached through the bindings scipy bundles (`scipy.optimize._highspy`),
so no separate `highspy` install is needed; a missing binding raises
`ImportError` when a handle is made.  The module is loaded on the first
float solve, with numpy and HiGHS's extension only: the extension file is
loaded by itself, so neither `scipy.optimize` nor `scipy.sparse` is
imported, and importing the command line loads none of them.

`Highs` is the only place that knows the model's row layout.  What it
returns is indexed by the rows of the `rows.RowStore` it was built from,
each in that row's own sense, so callers never see the layout.

`BASES` is the process-wide store of optimal bases (a `BasisStore`).  Its
key digests a model without its row bounds together with the cost
vector: the column count and the rows the model was built from without
their right sides, which fix the row layout and the matrix.  Models that
differ only in their right-hand sides share entries: one topology under
many rate and capacity tuples.  A handle makes that digest the first
time it uses the store, so a handle that never does pays nothing for it.
A stored basis stays dual feasible when only the right sides change, and
dual simplex starts from it at almost no cost.  A run asked to use the store (`Highs.solve(cost, BASES)`) starts
from the basis stored under its key, if any, and records its basis there
when it ends optimal.  The store is thread-safe and holds at most
`_BASIS_CAP` basis statuses (one per column and one per row of each
basis), dropping the least recently used bases first.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from entroflow.rows import RowStore

_CORE = "scipy.optimize._highspy._core"
_core_lock = threading.Lock()


def _core_file():
    """Where scipy keeps its HiGHS extension, or None."""
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    if scipy is None or not scipy.submodule_search_locations:
        return None
    folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_core():
    """scipy's HiGHS extension module, registered under its own name.

    The extension file is loaded directly, which skips the package
    `__init__` files above it (`scipy.optimize`'s imports most of scipy).
    A later `import scipy.optimize` finds the module in `sys.modules` and
    uses it.  What `sys.modules` already holds is used as it is (None
    raises `ImportError`); a file not where scipy keeps it falls back to
    the plain import.
    """
    with _core_lock:
        path = None if _CORE in sys.modules else _core_file()
        if path is not None:
            loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
            spec = importlib.util.spec_from_file_location(_CORE, path, loader=loader)
            core = importlib.util.module_from_spec(spec)
            loader.exec_module(core)
            sys.modules[_CORE] = core
        return importlib.import_module(_CORE)


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
    warm: bool  # the run started from a basis: an earlier run's, or a stored one
    stored: bool  # the run started from a basis in a `BasisStore`


# The most basis statuses `BASES` holds: about 4 MB of HiGHS basis arrays.
_BASIS_CAP = 1 << 22


class BasisStore:
    """Optimal HiGHS bases by key, thread-safe, least recently used first out.

    `cap` bounds the basis statuses held in total (one per column and one
    per row of each basis); storing past it drops the least recently used
    bases until the rest fit.  A basis is kept as HiGHS returns it
    (`HighsBasis`) and never changed after it is stored.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._lock = threading.Lock()
        self._bases: OrderedDict[bytes, tuple[Any, int]] = OrderedDict()  # key -> (basis, statuses)
        self.size = 0  # statuses held

    def __len__(self) -> int:
        return len(self._bases)

    def get(self, key: bytes):
        """The basis stored under `key`, now the most recently used, or None."""
        with self._lock:
            entry = self._bases.get(key)
            if entry is None:
                return None
            self._bases.move_to_end(key)
            return entry[0]

    def put(self, key: bytes, basis, statuses: int) -> None:
        """Store `basis`, of `statuses` statuses, under `key`, replacing what was there."""
        with self._lock:
            old = self._bases.pop(key, None)
            if old is not None:
                self.size -= old[1]
            self._bases[key] = (basis, statuses)
            self.size += statuses
            while self.size > self.cap:
                _, (_, dropped) = self._bases.popitem(last=False)
                self.size -= dropped

    def clear(self) -> None:
        with self._lock:
            self._bases.clear()
            self.size = 0


BASES = BasisStore(_BASIS_CAP)


class Highs:
    """One HiGHS model of a row store, solved again from its last basis for each new cost.

    The model is the one `linprog(method="highs")` passes HiGHS for these
    rows: the <= rows and the negated >= rows, in row order, with lower
    bound -inf, then the = rows with equal bounds, every column >= 0, dual
    simplex, presolve on, no output.  Its first run is therefore
    `linprog`'s solve, bit for bit.  Each later run changes the costs only
    and starts from the basis the previous run left; a new cost keeps that
    basis primal feasible, so later runs let HiGHS choose the simplex
    variant (primal, then), and a valid basis skips presolve.  A run given
    a `BasisStore` starts from the basis stored there for this matrix and
    cost instead, if there is one (dual simplex, then: the basis is dual
    feasible and only the right sides may differ).
    """

    def __init__(self, rows: RowStore, n: int):
        self.core = core = _load_core()
        self.n = n
        self.m = len(rows)
        # Model row k is LP row order[k] times flip[k].
        inequality = rows.sense != 0
        self.order = np.concatenate((np.flatnonzero(inequality), np.flatnonzero(~inequality)))
        self.flip = np.where(rows.sense[self.order] == -1, -1.0, 1.0)
        picked = rows.take(self.order)
        data, rhs = picked.floats()
        data = data * np.repeat(self.flip, np.diff(picked.indptr))
        # Column-wise, each column's entries in row order.
        by_col = np.argsort(picked.col, kind="stable")
        start = np.concatenate(([0], np.cumsum(np.bincount(picked.col, minlength=n))))
        self.rhs = rhs * self.flip
        lhs = self.rhs.copy()
        lhs[: int(inequality.sum())] = -core.kHighsInf
        model = core.HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = n
        model.num_row_ = model.a_matrix_.num_row_ = self.m
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.a_matrix_.start_ = start
        model.a_matrix_.index_ = np.repeat(np.arange(self.m), np.diff(picked.indptr))[by_col]
        model.a_matrix_.value_ = data[by_col]
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
        self._rows = rows
        self._matrix = None  # digest of the model without its row bounds, made by `_key`

    def _by_row(self, values):
        """Model-row values put back in LP row order."""
        out = np.empty(self.m)
        out[self.order] = values
        return out

    def _key(self, cost) -> bytes:
        """The `BasisStore` key of this model under `cost`."""
        if self._matrix is None:
            # The rows without their right sides fix the matrix and the row
            # layout; an array of Python ints is hashed by its digits.
            rows = self._rows
            self._matrix = hashlib.blake2b(np.array([self.n, self.m]).tobytes())
            for part in (rows.indptr, rows.col, rows.sense, rows.data, rows.scale):
                self._matrix.update(repr(part.tolist()).encode() if part.dtype == object else part.tobytes())
        key = self._matrix.copy()
        key.update((cost + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        return key.digest()

    def solve(self, cost, bases: Optional[BasisStore] = None) -> FloatResult:
        """Minimize cost . x; with `bases`, start from the basis stored there
        for this matrix and cost, if any, and store the basis of an optimal run."""
        highs, core = self.highs, self.core
        highs.changeColsCost(self.n, self.columns, cost)
        key = stored = None
        if bases is not None:
            key = self._key(cost)
            stored = bases.get(key)
            if stored is not None:
                highs.setBasis(stored)
        warm = highs.getBasis().valid
        highs.run()
        choose = core.simplex_constants.SimplexStrategy.kSimplexStrategyChoose
        highs.setOptionValue("simplex_strategy", int(choose))  # for every run after the first
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
            return FloatResult(status, None, None, None, nit, warm, stored is not None)
        if key is not None:
            bases.put(key, highs.getBasis(), self.n + self.m)
        solution = highs.getSolution()
        return FloatResult(
            0,
            np.array(solution.col_value),
            self._by_row(-self.flip * np.array(solution.row_dual)),
            self._by_row(self.rhs - np.array(solution.row_value)),
            nit,
            warm,
            stored is not None,
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
