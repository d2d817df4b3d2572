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

The model is loaded through the array form of HiGHS's `passModel`
(column-wise arrays in `linprog`'s layout, see `Highs`), which copies the
arrays once instead of through a `HighsLp` object's fields.

`BASES` is the process-wide store of what proof chains verified, one
`Stored` entry per matrix and objective.  Its key is the digest of
`lp.ShannonLP.matrix`, which fixes the rows without their right sides
(`matrix_digest`), with the objective's exact coefficients by column (the
solver's memo key, see `lp.ShannonSolver._entry_key`); a chain solver
finds its entries without a HiGHS handle or a float cost vector, and two
objectives whose float costs coincide keep separate entries.  Models
that differ only in their right sides share entries: one topology under
many rate and capacity tuples.  An entry holds an optimal basis of a
HiGHS run for its key, the verified rational row duals of the solve that
run settled, and the entry's generators: the right sides of the solves
settled there, as rationals on the rows where they are nonzero
(`right_sides`), each with the solve's verified point.
Each stays useful under new right sides.  A stored basis stays dual
feasible, and dual simplex starts from it at almost no cost; a dual
stays feasible, so it still bounds the optimum; and the right sides
enter the rows linearly, so a nonnegative combination of generators is
a point feasible for the same combination of their right sides
(`combination`).  `lp.ShannonSolver` is the store's only reader and
writer: it pairs such a point with the entry's dual, checks the pair
again exactly, and runs HiGHS from the stored basis only when that
fails; `join` then records the run's basis, verified dual and generator
in one write, or adds a new combination that settled a solve.  `Highs`
knows nothing of the store: it starts from a basis it is handed.
Entries are replaced, never changed, so a chain that reads one while
another chain writes it sees the old entry or the new one; each write
reads the entry and replaces it in one step (`LruStore.update`), so a
generator another chain adds is not lost.  The store is thread-safe and
holds at most `_BASIS_CAP` bytes (a basis status counts one byte, a
dual, right side or point its arrays' bytes), dropping the least
recently used entries first.

A run that starts from a basis it is handed prices with Devex.  HiGHS's
default rule, dual steepest edge, first computes an exact weight for
every row when its starting basis is not the slack basis ("Basis is not
logical, so compute steepest edge weights"), which on a chain LP of some
6,000 rows costs many times a run that needs no iteration.  A stored
basis is optimal for its cost and is usually optimal, or a few
iterations from it, for the new right sides, so Devex's unit starting
weights lose little.  Every other run (the first on a handle, and each
later one from the handle's own basis) keeps the default.
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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Hashable, NamedTuple, Optional

import numpy as np

from entroflow.rows import RowStore, Sparse
from entroflow.simplex import ExactSimplex, LinearRow

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


_trim = None  # glibc's malloc_trim once looked up, False where there is none


def release_free_memory() -> None:
    """Hand the free pages of the C heap back to the system, with glibc's
    `malloc_trim`; without glibc, do nothing.

    A HiGHS run frees its work memory when it ends, but glibc keeps the
    freed pages resident, in the heap of each thread that ran one, and a
    warm proof chain, which runs no HiGHS, never reuses them.
    `gadgets.verify_contract` calls this once its thread pool has shut
    down.
    """
    global _trim
    if _trim is None:
        import ctypes  # here, off the command line's import path

        try:
            _trim = ctypes.CDLL(None).malloc_trim
        except (OSError, AttributeError, TypeError):  # no C library to load, or not glibc
            _trim = False
    if _trim:
        _trim(0)


@dataclass(frozen=True)
class FloatResult:
    """One HiGHS run of ``min cost . x``, read as a proposal for ``max -cost . x``.

    `row_dual` holds the multiplier of each LP row in that maximization:
    >= 0 on a <= row, <= 0 on a >= row, free on an = row.  `row_slack` is
    each row's distance from its right side, >= 0 when the row holds
    (b - a.x for a <= or = row, a.x - b for a >= row); only the exact
    fallback reads it, so it is computed from the run's solution on
    demand.  `x`, `row_dual` and `row_slack` are None unless the run was
    optimal.
    """

    status: int  # as linprog: 0 optimal, 1 limit, 2 infeasible, 3 unbounded, 4 other
    x: Any
    row_dual: Any
    nit: int  # simplex iterations
    warm: bool  # the run started from a basis: an earlier run's, or one it was handed
    slack: Optional[Callable[[], Any]] = field(default=None, repr=False, compare=False)

    @property
    def row_slack(self):
        return None if self.slack is None else self.slack()


def _floats(values: list):
    """A list of floats as an array (`fromiter` makes it in one pass)."""
    return np.fromiter(values, dtype=float, count=len(values))


# The most bytes `BASES` holds: 4 MB of basis statuses, duals and generators.
_BASIS_CAP = 1 << 22
# The most generators one entry keeps, the latest: this bounds the exact
# solve `combination` makes (one column per generator).
_POINTS = 32


class LruStore:
    """Values by key, thread-safe, least recently used first out.

    Each value is stored with its size, in whatever unit the caller
    chooses; `cap` bounds the total, and storing past it drops the least
    recently used values until the rest fit.  A value larger than `cap` is
    not stored, and the store is left as it was.  A value is kept as given
    and never changed after it is stored (a template only fills in what it
    derives from itself: its compiled expressions and its matrix digest).
    Two stores are made, both sized in bytes: `BASES` holds the entries of
    proof chains, and `lp._template_store` the LP template of each
    topology and set of build arguments (`lp._Template`).
    """

    def __init__(self, cap: int):
        self.cap = cap
        self._lock = threading.Lock()
        self._values: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()  # key -> (value, size)
        self.size = 0  # total size held

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable):
        """The value stored under `key`, now the most recently used, or None."""
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                return None
            self._values.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value, size: int) -> None:
        """Store `value`, of size `size`, under `key`, replacing what was there."""
        self.update(key, lambda _: (value, size))

    def update(self, key: Hashable, change: Callable[[Any], Optional[tuple[Any, int]]]) -> None:
        """Store ``change(old)`` under `key`, `old` being the value stored
        there or None, in one step: no other thread's store falls between
        the read and the write.  `change` returns a (value, size) pair, or
        None to leave the store as it is."""
        with self._lock:
            old = self._values.get(key)
            new = change(None if old is None else old[0])
            if new is None or new[1] > self.cap:
                return
            if old is not None:
                del self._values[key]
                self.size -= old[1]
            self._values[key] = new
            self.size += new[1]
            while self.size > self.cap:
                _, (_, dropped) = self._values.popitem(last=False)
                self.size -= dropped

    def clear(self) -> None:
        with self._lock:
            self._values.clear()
            self.size = 0


BASES = LruStore(_BASIS_CAP)

# The dual pricing rule of a run that starts from a basis it is handed:
# Devex, which starts from unit weights.  HiGHS's default (-1, choose)
# picks dual steepest edge, which first computes an exact weight for every
# row from a basis that is not the slack basis; on a stored basis that is
# not optimal for the new right sides that costs more than the iterations
# themselves.  Cold and handle-warm runs keep the default.
_STORED_PRICING = 1  # kSimplexEdgeWeightStrategyDevex
_DEFAULT_PRICING = -1  # kSimplexEdgeWeightStrategyChoose


class Stored(NamedTuple):
    """A `BASES` entry, for one matrix and objective.

    `basis` is the optimal basis of the last HiGHS run for the key whose
    optimum verified, and `dual` the verified rational row duals of the
    solve that run settled (a `rows.Sparse` by LP row); both are written
    together.  `points` are the entry's generators, the latest last: one
    ``(rhs, x)`` pair per right side a solve was settled on (by HiGHS, or
    by a new combination of the generators), ``rhs`` the right sides as
    rationals on the rows where they are nonzero (`right_sides`) and ``x``
    the solve's verified point, both `rows.Sparse`.
    """

    basis: Any
    dual: Any
    points: tuple = ()


def matrix_digest(matrix: Hashable) -> bytes:
    """A digest of `lp.ShannonLP.matrix`, which fixes an LP's rows without
    their right sides."""
    return hashlib.blake2b(repr(matrix).encode()).digest()


def right_sides(rows: RowStore) -> Sparse:
    """The right sides of `rows` as rationals (``rhs / scale``, so two
    stores of one matrix compare however they scaled a row), by row, on
    the rows where they are nonzero."""
    at = np.flatnonzero(rows.rhs != 0).tolist()
    return Sparse.of({i: Fraction(int(rows.rhs[i]), int(rows.scale[i])) for i in at})


def _same(a: Sparse, b: Sparse) -> bool:
    """Whether two right sides made by `right_sides` are equal."""
    return a.den == b.den and np.array_equal(a.index, b.index) and np.array_equal(a.num, b.num)


def combination(points: tuple, rhs: Sparse) -> Optional[Sparse]:
    """A point for the right sides `rhs` from the generators `points` of an
    entry (see `Stored`), or None.

    The point is ``sum lambda_i x_i`` for some lambda >= 0 with ``sum
    lambda_i rhs_i = rhs``; each row is linear in the point and in its
    right side, so the point satisfies every row that each ``x_i``
    satisfies for ``rhs_i``.  A generator whose right sides equal `rhs` is
    returned as it is; otherwise one exact solve, with a column per
    generator and a row per row where some right side is nonzero, finds
    lambda.  The caller checks the point again against every row.
    """
    for b, x in points:
        if _same(b, rhs):
            return x
    # Row r of the system: sum_i lambda_i rhs_i[r] = rhs[r].  The values
    # are read from the arrays, so no stored right side builds its map.
    coeffs: dict[int, dict[int, Fraction]] = {}
    for i, (b, _) in enumerate(points):
        for r, v in zip(b.index.tolist(), b.num.tolist()):
            coeffs.setdefault(r, {})[i] = Fraction(v, b.den)
    want = dict(zip(rhs.index.tolist(), rhs.num.tolist()))
    if not points or not set(coeffs).issuperset(want):
        return None
    system = [LinearRow(c, "eq", Fraction(want.get(r, 0), rhs.den)) for r, c in sorted(coeffs.items())]
    weights = ExactSimplex(len(points), system).maximize({})
    if weights.status != "optimal":
        return None
    return Sparse.weighted([(w, points[i][1]) for i, w in weights.x.items()])


def _sized(entry: Stored, statuses: int) -> tuple[Stored, int]:
    """`entry` with its size in bytes: `statuses`, a byte per basis status
    (columns plus rows), and the arrays of its dual and generators."""
    vectors = [v for v in (entry.dual, *(v for point in entry.points for v in point)) if v is not None]
    return entry, statuses + sum(v.index.nbytes + v.num.nbytes for v in vectors)


def join(bases: LruStore, key: Hashable, statuses: int, rhs: Sparse, x: Sparse, basis=None, dual=None) -> None:
    """Add the generator ``(rhs, x)``, right sides and a point verified for
    them, to the entry under `key`: a new entry replaces the old one in one
    step (`LruStore.update`), so no generator another chain adds is lost.
    It replaces a generator with the same right sides, and the entry keeps
    the latest `_POINTS`.  With `basis`, the optimal basis of a HiGHS run,
    the entry also takes that basis and `dual`, the verified duals of the
    solve the run settled; without one, a missing entry stays missing.
    `statuses` is the size of a basis (see `_sized`)."""

    def joined(entry: Optional[Stored]):
        if basis is None and entry is None:
            return None
        kept = () if entry is None else tuple(p for p in entry.points if not _same(p[0], rhs))
        base = entry if basis is None else Stored(basis, dual)
        return _sized(base._replace(points=(*kept, (rhs, x))[-_POINTS:]), statuses)

    bases.update(key, joined)


class _Model(NamedTuple):
    """What a HiGHS model takes from its rows without their right sides.

    Model row k is LP row ``order[k]`` times ``flip[k]``: the <= rows and
    the negated >= rows in row order, then the = rows, so the first
    `inequalities` model rows are inequalities.  `start`, `index` and
    `value` are the matrix column-wise, as `passModel` takes it.
    """

    order: Any
    flip: Any
    inequalities: int
    start: Any
    index: Any
    value: Any


def _build_model(rows: RowStore, n: int) -> _Model:
    inequality = rows.sense != 0
    order = np.concatenate((np.flatnonzero(inequality), np.flatnonzero(~inequality)))
    flip = np.where(rows.sense[order] == -1, -1.0, 1.0)
    picked = rows.take(order)
    lengths = np.diff(picked.indptr)
    data = picked.floats()[0] * np.repeat(flip, lengths)
    # Column-wise, each column's entries in row order (a stable sort,
    # which numpy does by radix on 16-bit keys: columns are below 2^14,
    # as no LP has a ground past `ELEMENTAL_GROUND_LIMIT`).
    by_col = np.argsort(picked.col.astype(np.int16), kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(picked.col, minlength=n))))[:n]
    index = np.repeat(np.arange(len(rows), dtype=np.int32), lengths)[by_col]
    return _Model(order, flip, int(inequality.sum()), start.astype(np.int32), index, data[by_col])


class Highs:
    """One HiGHS model of a row store, solved again from its last basis for each new cost.

    The model is the one `linprog(method="highs")` passes HiGHS for these
    rows, loaded as arrays in `linprog`'s layout: column-wise, the <= rows
    and the negated >= rows in row order with lower bound -inf, then the =
    rows with equal bounds, every column >= 0, every column continuous;
    dual simplex, presolve on, no output.  Its first run is therefore
    `linprog`'s solve, bit for bit.  Each later run changes the costs only
    and starts from the basis the previous run left; a new cost keeps that
    basis primal feasible, so later runs let HiGHS choose the simplex
    variant (primal, then), and a valid basis skips presolve.  A run
    handed a basis (`start`, which `basis` returned on this handle or on
    another of the same rows) starts from it instead (dual simplex, then:
    the basis is dual feasible and only the right sides may differ), and
    prices with Devex (`_STORED_PRICING`) instead of steepest edge.
    """

    def __init__(self, rows: RowStore, n: int):
        self.core = core = _load_core()
        self.n = n
        self.m = len(rows)
        model = _build_model(rows, n)
        self.order, self.flip = model.order, model.flip
        self.rhs = rows.rhs_floats()[model.order] * model.flip
        lhs = self.rhs.copy()
        lhs[: model.inequalities] = -core.kHighsInf
        options = core.HighsOptions()
        options.presolve = "on"
        options.output_flag = False
        options.log_to_console = False
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self.highs = core._Highs()
        self.highs.passOptions(options)
        loaded = self.highs.passModel(
            n,
            self.m,
            len(model.index),
            int(core.MatrixFormat.kColwise),
            int(core.ObjSense.kMinimize),
            0.0,
            np.zeros(n),  # costs
            np.zeros(n),  # column lower bounds
            np.full(n, core.kHighsInf),  # column upper bounds
            lhs,
            self.rhs,
            model.start,
            model.index,
            model.value,
            np.full(n, int(core.HighsVarType.kContinuous), dtype=np.int32),
        )
        if loaded == core.HighsStatus.kError:
            raise RuntimeError("HiGHS did not accept the model")
        self.columns = np.arange(n, dtype=np.int32)
        self._pricing = _DEFAULT_PRICING

    def _by_row(self, values):
        """Model-row values put back in LP row order."""
        out = np.empty(self.m)
        out[self.order] = values
        return out

    def solve(self, cost, start=None) -> FloatResult:
        """Minimize cost . x, from the basis `start` when one is given (see
        `basis`) and from the handle's last basis otherwise."""
        highs, core = self.highs, self.core
        highs.changeColsCost(self.n, self.columns, cost)
        if start is not None:
            highs.setBasis(start)
        pricing = _DEFAULT_PRICING if start is None else _STORED_PRICING
        if pricing != self._pricing:
            highs.setOptionValue("simplex_dual_edge_weight_strategy", pricing)
            self._pricing = pricing
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
            return FloatResult(status, None, None, nit, warm)
        solution = highs.getSolution()  # a copy: later runs leave it as it is
        return FloatResult(
            0,
            _floats(solution.col_value),
            self._by_row(-self.flip * _floats(solution.row_dual)),
            nit,
            warm,
            lambda: self._by_row(self.rhs - _floats(solution.row_value)),
        )

    def basis(self):
        """The handle's current basis (a copy): after an optimal run, a basis
        that `solve` can start another handle of the same rows from."""
        return self.highs.getBasis()

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
        return self._by_row(-self.flip * _floats(ray)), nit
