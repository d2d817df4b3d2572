"""The integer row store: linear rows held once, as integer CSR arrays.

`RowStore` is where the Shannon LP writes its rows and what every reader
works from: the HiGHS model (`highs.Highs`), the exact certificate checks
(`simplex.verify_certificate`), the exact simplex and the LP exports.
The module, and numpy with it, is loaded on first use: importing the
command line loads neither.

Every point, ray and multiplier vector has one form, `Sparse`: ascending
indices, integer numerators and one positive denominator, read as a
mapping of Fractions by index that is built on first read.  The float
proposals (`lp.ShannonSolver._rational`) and the exact simplex make it,
every certificate, stored dual and stored generator holds it, and
`Sparse.weighted` combines stored points.  `RowStore.violated`
works on a point's numerators and `RowStore.combine` weighs the integer
rows with a multiplier's numerators, so no check makes a Fraction per
entry.  A map of Fractions from elsewhere is turned into it once
(`Sparse.of`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections.abc import Mapping as MappingABC
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from entroflow.simplex import CertificateError, LinearRow

# Exact checks run on int64 only while every partial sum stays below this
# bound; otherwise the same array code runs on Python ints.
_INT64_SAFE = 1 << 62
# Stored coefficients below this magnitude keep the arrays int64, so a
# row's absolute sum fits as well.
_SMALL = 1 << 31

_SENSE_CODE = {"le": 1, "ge": -1, "eq": 0}
_SENSE_NAME = {1: "le", -1: "ge", 0: "eq"}


def _int_array(values):
    """int64 array when every value is below 2^31 in magnitude, else Python ints."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if not values.size or int(np.abs(values).max()) < _SMALL:
            return values.astype(np.int64, copy=False)
        values = values.tolist()
    values = [int(v) for v in values]
    if all(-_SMALL < v < _SMALL for v in values):
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


class Sparse(MappingABC):
    """Rational values by index in integer form: entry k is ``num[k] / den``
    at index ``index[k]``; every other index holds 0.

    ``index`` is an ascending int64 array without repeats, ``num`` an int64
    array or an array of Python ints, and ``den`` a positive Python int.
    An entry may be 0.  As a read-only mapping, a `Sparse` holds its
    nonzero entries as Fractions by index, built on first read, so a
    caller that only checks or stores it makes no Fraction per entry.
    """

    __slots__ = ("index", "num", "den", "_map")

    def __init__(self, index, num, den: int):
        self.index, self.num, self.den = index, num, den
        self._map: Optional[dict[int, Fraction]] = None

    @classmethod
    def of(cls, values: "Mapping[int, Fraction]", den: int = 1) -> "Sparse":
        """A map of rationals (Fractions or ints) by index, each divided by
        `den`, over their least common denominator; a `Sparse` is returned
        as it is."""
        if isinstance(values, Sparse):
            return values
        items = sorted(values.items())
        lcm = math.lcm(*(v.denominator for _, v in items))
        nums = [v.numerator * (lcm // v.denominator) for _, v in items]
        g = math.gcd(lcm * den, *nums)
        index = np.array([j for j, _ in items], dtype=np.int64)
        return cls(index, _int_array([v // g for v in nums]), lcm * den // g)

    @classmethod
    def weighted(cls, terms: "Iterable[tuple[Fraction, Sparse]]") -> "Sparse":
        """The sum of ``w * v`` over (rational weight, `Sparse`) pairs, over
        the least common denominator of its entries."""
        terms = [(Fraction(w), v) for w, v in terms]
        den = math.lcm(*(w.denominator * v.den for w, v in terms))
        size = max((int(v.index[-1]) + 1 for _, v in terms if len(v.index)), default=0)
        total = np.zeros(size, dtype=object)
        for w, v in terms:
            total[v.index] += v.num.astype(object) * (w.numerator * (den // (w.denominator * v.den)))
        index = np.flatnonzero(total)
        g = math.gcd(den, *total[index].tolist())
        return cls(index.astype(np.int64), _int_array(total[index] // g), den // g)

    def _built(self) -> dict[int, Fraction]:
        # Threads that read a shared `Sparse` (a stored dual) at once may
        # each build the map; the maps are equal, so either one may stay.
        if self._map is None:
            pairs = zip(self.index.tolist(), self.num.tolist())
            self._map = {j: Fraction(v, self.den) for j, v in pairs if v}
        return self._map

    def __getitem__(self, key: int) -> Fraction:
        return self._built()[key]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())

    def __repr__(self) -> str:
        return f"Sparse({self._built()!r})"

    def rekey(self, keys: Sequence[int]) -> "Sparse":
        """The same values with index i moved to ``keys[i]`` (keys distinct)."""
        index = np.asarray(keys, dtype=np.int64)[self.index]
        order = np.argsort(index, kind="stable")
        return Sparse(index[order], self.num[order], self.den)

    def dot(self, coeffs: Mapping[int, Fraction]) -> Fraction:
        """The sum of coeff * value over a map of coefficients by index."""
        if not len(self.index):
            return Fraction(0)
        keys = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
        at = np.minimum(np.searchsorted(self.index, keys), len(self.index) - 1)
        hit = (self.index[at] == keys).tolist()
        terms = zip(coeffs.values(), self.num[at].tolist(), hit)
        return Fraction(sum((c * v for c, v, h in terms if h), Fraction(0)), self.den)

    def peak(self) -> int:
        """The largest numerator magnitude, as a Python int (0 when empty)."""
        return int(np.abs(self.num).max()) if len(self.num) else 0


class RowStore:
    """Linear rows ``a_i . x (sense_i) b_i`` held once, as integer arrays.

    Compressed sparse rows: row i has integer coefficients ``data[k]`` on
    columns ``col[k]`` for k in ``indptr[i]:indptr[i + 1]``, columns
    ascending, an integer right side ``rhs[i]`` and a sense code
    ``sense[i]`` (1 for <=, -1 for >=, 0 for =).  The row it stands for is
    that integer row divided by ``scale[i]``, the least common denominator
    of the row's rational data, so exact checks need no fractions and
    ``data / scale`` is the float row.  ``data``, ``rhs`` and ``scale`` are
    int64 arrays when every entry is below 2^31 in magnitude and arrays of
    Python ints otherwise.

    As a sequence the store yields its rows as `LinearRow` values.
    """

    def __init__(self, indptr, col, data, sense, rhs, scale):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.col = np.asarray(col, dtype=np.int64)
        self.sense = np.asarray(sense, dtype=np.int8)
        self.data = _int_array(data)
        self.rhs = _int_array(rhs)
        self.scale = _int_array(scale)
        self._small = object not in (self.data.dtype, self.rhs.dtype, self.scale.dtype)
        self._sums: Optional[tuple[int, int]] = None  # largest absolute row and column sums
        self._rhs_max: Optional[int] = None

    def with_right_sides(self, at: Sequence[int], rhs: Sequence[int], factor: Sequence[int]) -> "RowStore":
        """These rows with row ``at[k]`` multiplied by the integer
        ``factor[k]`` (its data and scale) and given the integer right side
        ``rhs[k]``; every other row as it is here.

        `indptr`, `col` and `sense` are this store's arrays, and so are
        `data` and `scale`, with their row and column sums, when every
        factor is 1: the rows stand for other right sides of the same
        matrix.
        """
        at = np.asarray(at, dtype=np.int64)
        values = _int_array(rhs)
        new_rhs = self.rhs.astype(object if object in (self.rhs.dtype, values.dtype) else np.int64)
        new_rhs[at] = values
        data, scale = self.data, self.scale
        if any(f != 1 for f in factor):
            factor = _int_array(factor)
            # int64 factors and entries are below 2^31, so their products fit.
            dtype = object if object in (data.dtype, scale.dtype, factor.dtype) else np.int64
            data, scale, factor = data.astype(dtype), scale.astype(dtype), factor.astype(dtype)
            data[self._entries(at)[0]] *= np.repeat(factor, np.diff(self.indptr)[at])
            scale[at] *= factor
        out = RowStore(self.indptr, self.col, data, self.sense, new_rhs, scale)
        if out.data is self.data:
            out._sums = self._row_col_sums()
        return out

    @classmethod
    def of(cls, rows: "Sequence[LinearRow] | RowStore") -> "RowStore":
        return rows if isinstance(rows, RowStore) else cls.from_rows(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[LinearRow]) -> "RowStore":
        indptr, col, data, sense, rhs, scale = [0], [], [], [], [], []
        for row in rows:
            items = sorted((j, c) for j, c in row.coeffs.items() if c)
            s = math.lcm(row.rhs.denominator, *(c.denominator for _, c in items))
            col += [j for j, _ in items]
            data += [int(c * s) for _, c in items]
            indptr.append(len(col))
            sense.append(_SENSE_CODE[row.sense])
            rhs.append(int(row.rhs * s))
            scale.append(s)
        return cls(indptr, col, data, sense, rhs, scale)

    @classmethod
    def concat(cls, parts: Sequence["RowStore"]) -> "RowStore":
        offsets = np.cumsum([0] + [len(p.col) for p in parts[:-1]])
        indptr = [np.zeros(1, dtype=np.int64)] + [p.indptr[1:] + o for p, o in zip(parts, offsets)]

        def joined(name):
            arrays = [getattr(p, name) for p in parts]
            if any(a.dtype == object for a in arrays):
                arrays = [a.astype(object) for a in arrays]
            return np.concatenate(arrays)

        return cls(
            np.concatenate(indptr),
            joined("col"),
            joined("data"),
            joined("sense"),
            joined("rhs"),
            joined("scale"),
        )

    def __len__(self) -> int:
        return len(self.sense)

    def __getitem__(self, i: int) -> LinearRow:
        i = range(len(self))[i]
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        s = int(self.scale[i])
        coeffs = {
            j: Fraction(c, s) for j, c in zip(self.col[lo:hi].tolist(), self.data[lo:hi].tolist())
        }
        return LinearRow(coeffs, _SENSE_NAME[int(self.sense[i])], Fraction(int(self.rhs[i]), s))

    def _entries(self, rows):
        """Entry positions of the given rows, row by row, and each row's length."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if len(ends) else 0
        return np.repeat(starts - (ends - lengths), lengths) + np.arange(total), lengths

    def take(self, rows: Sequence[int]) -> "RowStore":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        idx, lengths = self._entries(rows)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return RowStore(
            indptr,
            self.col[idx],
            self.data[idx],
            self.sense[rows],
            self.rhs[rows],
            self.scale[rows],
        )

    def floats(self):
        """(data / scale per entry, rhs / scale per row) as correctly rounded floats."""
        return _quotients(self.data, np.repeat(self.scale, np.diff(self.indptr))), self.rhs_floats()

    def rhs_floats(self):
        """rhs / scale per row as correctly rounded floats."""
        return _quotients(self.rhs, self.scale)

    # ------------------------------------------------------------------
    # exact checks

    def _row_col_sums(self) -> tuple[int, int]:
        if self._sums is None:
            if not len(self.col):
                row_sum = col_sum = 0
            else:
                mags = np.abs(self.data)
                row_sum = max(_row_sums(mags, self.indptr).tolist())
                by_col = np.zeros(int(self.col.max()) + 1, dtype=mags.dtype)
                np.add.at(by_col, self.col, mags)
                col_sum = max(by_col.tolist())
            self._sums = (int(row_sum), int(col_sum))
        return self._sums

    def limits(self) -> tuple[int, int, int]:
        """Largest absolute row sum, column sum and right side, as Python ints."""
        if self._rhs_max is None:
            self._rhs_max = int(max(np.abs(self.rhs).tolist(), default=0))
        return (*self._row_col_sums(), self._rhs_max)

    def _arrays(self, fast: bool):
        if fast:
            return self.data, self.rhs
        return self.data.astype(object), self.rhs.astype(object)

    def violated(self, n_vars: int, point: Sparse, ray: bool = False):
        """Boolean array: row i is broken by the point (for a ray, rhs is 0).

        The point's integer numerators are the scaled point D * x (D its
        denominator), and each row's integer dot product with them is
        compared with rhs * D.
        """
        index, num, d = point.index, point.num, point.den
        if len(index) and (index[0] < 0 or index[-1] >= n_vars):
            j = int(index[0] if index[0] < 0 else index[-1])
            raise CertificateError(f"point has coordinate {j} outside the {n_vars} variables")
        row_sum, _, rhs_max = self.limits()
        fast = (
            self._small
            and max(row_sum, 1) * point.peak() < _INT64_SAFE
            and max(rhs_max, 1) * d < _INT64_SAFE
        )
        data, rhs = self._arrays(fast)
        p = np.zeros(n_vars, dtype=np.int64 if fast else object)
        p[index] = num
        lhs = _row_sums(data * p[self.col], self.indptr)
        bound = 0 if ray else rhs * d
        return np.where(
            self.sense == 1, lhs > bound, np.where(self.sense == -1, lhs < bound, lhs != bound)
        )

    def first_violated(self, n_vars: int, point: Sparse, ray: bool = False) -> Optional[int]:
        hit = np.flatnonzero(self.violated(n_vars, point, ray))
        return int(hit[0]) if hit.size else None

    def combine(self, n_vars: int, mult: Sparse, kind: str):
        """Sum mult_i * row_i over multipliers by row, after checking each
        row index and each multiplier's sign on its row.

        An index outside the rows raises (numpy would wrap -1 silently), a
        zero multiplier is ignored, a <= row takes a nonnegative multiplier
        and a >= row a nonpositive one.  Multiplier i is ``num_i / den`` and
        row i the integer row over ``scale_i``, so with L the least common
        multiple of the used rows' scales, the integer weights
        ``num_i * (L / scale_i)`` over E = den * L combine the integer rows
        exactly.  Returns E times the combined coefficients (an integer
        array over the variables), E times the combined right side, and E.
        """
        index, num, den = mult.index, mult.num, mult.den
        outside = (index < 0) | (index >= len(self))
        if outside.any():
            i = int(index[outside][0])
            raise CertificateError(f"{kind} multiplier on row {i}, outside the {len(self)} rows")
        live = num != 0
        rows, num = index[live], num[live]
        senses = self.sense[rows]
        negative = num < 0
        wrong = np.flatnonzero(((senses == 1) & negative) | ((senses == -1) & ~negative))
        if wrong.size:
            side = "<=" if senses[wrong[0]] == 1 else ">="
            raise CertificateError(f"{kind} sign violated on a {side} row")
        scales = self.scale[rows]
        lcm = math.lcm(*set(scales.tolist()))  # not np.unique, which imports numpy.ma (1.3 MB)
        if object not in (scales.dtype, num.dtype) and lcm * mult.peak() < _INT64_SAFE:
            w = num * (lcm // scales)
        else:
            w = num.astype(object) * (lcm // scales.astype(object))
        peak = int(np.abs(w).max(initial=0))
        _, col_sum, rhs_max = self.limits()
        fast = (
            self._small
            and max(col_sum, 1) * peak < _INT64_SAFE
            and max(rhs_max, 1) * peak * len(w) < _INT64_SAFE
        )
        data, rhs = self._arrays(fast)
        w = w.astype(np.int64 if fast else object)
        idx, lengths = self._entries(rows)
        combo = np.zeros(n_vars, dtype=np.int64 if fast else object)
        np.add.at(combo, self.col[idx], data[idx] * np.repeat(w, lengths))
        return combo, int((w * rhs[rows]).sum()), den * lcm


def _quotients(num, den):
    """num / den elementwise, each quotient correctly rounded, as float(Fraction) rounds it."""
    if object not in (num.dtype, den.dtype):
        # Both operands are below 2^31, so exact in a double, and one IEEE
        # division rounds the rational value correctly.
        return num / den
    return np.array([a / b for a, b in zip(num.tolist(), den.tolist())], dtype=float)


def _row_sums(values, indptr):
    """Per-row sums of CSR entry values (zero for an empty row)."""
    out = np.zeros(len(indptr) - 1, dtype=values.dtype)
    nonempty = indptr[1:] > indptr[:-1]
    if nonempty.any():
        # Between the starts of two nonempty rows lie exactly the first one's entries.
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out
