"""Entropy vectors, Shannon-cone checks, and exact distribution analytics.

Probabilities are exact rationals (`fractions.Fraction`) and every
combinatorial decision (functional dependency, independence,
quasi-uniformity, support counts) is made exactly, never through
floating-point entropy.  Entropy values compare by one rule: two rationals
exactly, and within a tolerance (default ``1e-9``) only when a float
takes part, such as a logarithm from `entropy_vector_of`, whose
per-coordinate rounding error is far below that tolerance for the supports
this package targets (at most a few thousand outcomes).

Subsets of a ground set are handled as bitmasks internally; the public
API speaks in label collections only.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "DEFAULT_TOL",
    "GroundSet",
    "EntropyVector",
    "JointDistribution",
    "LinearFunctional",
    "PolymatroidReport",
    "EntropicSearchResult",
    "as_fraction",
    "entropy_vector_of",
    "subset_entropy",
    "is_polymatroid",
    "elemental_inequalities",
    "check_functional_dependency",
    "check_independence",
    "is_quasi_uniform",
    "quasi_uniform_vector_of",
    "entropic_search",
    "zhang_yeung_check",
]

DEFAULT_TOL = 1e-9

# elemental_inequalities and build_shannon_lp refuse larger grounds; the
# elemental list has N + C(N,2) * 2^(N-2) entries and grows too fast past
# this point.
ELEMENTAL_GROUND_LIMIT = 14

Number = Union[Fraction, int, float]

_LABEL_FORBIDDEN = set(" \t\n,;|(){}")


def as_fraction(value: Union[Fraction, int, str]) -> Fraction:
    """Parse an exact rational from an int, Fraction, or a string "p/q".

    Anything else (a bool, a float, None, ...) and a zero denominator raise
    ValueError, so a malformed document field reads as a parse error.
    """
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def _json_int(value, where: str) -> int:
    """An integer field of a JSON document (an integer, or a string or a
    float holding one); anything else raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{where}: expected an integer, found {value!r}")
    return int(value)


def _json_object(value, what: str, **fields: type) -> dict:
    """A JSON object whose named fields are arrays (list) or objects (dict);
    any other shape raises ValueError."""
    if not isinstance(value, dict) or not all(isinstance(value.get(k), t) for k, t in fields.items()):
        shape = "".join(f", {k!r} an {'array' if t is list else 'object'}" for k, t in fields.items())
        raise ValueError(f"{what} must be an object{shape}")
    return value


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label or any(ch in _LABEL_FORBIDDEN for ch in label):
        raise ValueError(f"invalid variable label {label!r}")


@dataclass(frozen=True)
class GroundSet:
    """An ordered set of variable labels; subsets are bitmasks over it."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("ground set must have at least one element")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ground set labels must be distinct")
        for lab in self.labels:
            _check_label(lab)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            try:
                mask |= 1 << self.labels.index(lab)
            except ValueError:
                raise KeyError(f"unknown variable {lab!r}") from None
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def format_subset(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"


def _sorted_masks(n: int) -> list[int]:
    """Nonempty masks ordered by (cardinality, numeric value)."""
    return sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m))


@dataclass(frozen=True)
class EntropyVector:
    """One value per nonempty subset of a ground set; value of {} is 0.

    Values may be exact rationals or floats.  `support_sizes` is an
    optional exact sidecar: the support cardinality of each subset
    marginal when the vector came from an actual distribution.
    """

    ground: GroundSet
    values: Mapping[int, Number]
    support_sizes: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        expected = set(range(1, self.ground.full_mask + 1))
        present = set(self.values)
        if present - expected - {0}:
            raise ValueError("entropy vector has coordinates outside the ground set")
        if expected - present:
            missing = sorted(expected - present)[0]
            raise ValueError(
                f"entropy vector is missing coordinate {self.ground.format_subset(missing)}"
            )
        if self.values.get(0, 0) != 0:
            raise ValueError("the empty set must carry value 0")

    @classmethod
    def from_tuple(
        cls,
        values: Sequence[Union[Fraction, int, float, str]],
        labels: Optional[Sequence[str]] = None,
    ) -> "EntropyVector":
        """Build from values listed by (cardinality, mask) subset order.

        For two variables the order is h(1), h(2), h(12); for three it is
        the three singletons, the three pairs, then the full set.
        """
        n = (len(values) + 1).bit_length() - 1
        if (1 << n) - 1 != len(values):
            raise ValueError("value count must be 2^n - 1 for some n")
        if labels is None:
            labels = tuple(f"X{i + 1}" for i in range(n))
        ground = GroundSet(tuple(labels))
        vals: dict[int, Number] = {}
        for mask, v in zip(_sorted_masks(n), values):
            vals[mask] = as_fraction(v) if isinstance(v, (int, Fraction, str)) else float(v)
        return cls(ground, vals)

    def value(self, labels: Iterable[str]) -> Number:
        mask = self.ground.mask_of(labels)
        return 0 if mask == 0 else self.values[mask]

    def __getitem__(self, labels: Iterable[str]) -> Number:
        if isinstance(labels, str):
            labels = (labels,)
        return self.value(labels)

    def value_of_mask(self, mask: int) -> Number:
        return 0 if mask == 0 else self.values[mask]

    def is_rational(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.values.values())

    def scale(self, factor: Union[Fraction, int, str]) -> "EntropyVector":
        f = as_fraction(factor)
        return EntropyVector(self.ground, {m: f * as_fraction(v) for m, v in self.values.items()})

    def add(self, other: "EntropyVector") -> "EntropyVector":
        if other.ground != self.ground:
            raise ValueError("entropy vectors live on different ground sets")
        return EntropyVector(
            self.ground,
            {m: as_fraction(v) + as_fraction(other.values[m]) for m, v in self.values.items()},
        )

    def to_json(self) -> str:
        vals = {}
        for mask in _sorted_masks(self.ground.size):
            v = self.values[mask]
            key = self.ground.format_subset(mask)
            vals[key] = str(v) if isinstance(v, (Fraction, int)) else repr(float(v))
        doc = {"n": self.ground.size, "labels": list(self.ground.labels), "values": vals}
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "EntropyVector":
        doc = _json_object(json.loads(text), "an entropy vector", labels=list, values=dict)
        ground = GroundSet(tuple(doc["labels"]))
        if _json_int(doc["n"], "n") != ground.size:
            raise ValueError("declared n does not match the label count")
        vals: dict[int, Number] = {}
        for key, raw in doc["values"].items():
            key = key.strip()
            if not (key.startswith("{") and key.endswith("}")):
                raise ValueError(f"bad subset key {key!r}")
            members = [p for p in key[1:-1].split(",") if p]
            mask = ground.mask_of(members)
            try:
                vals[mask] = as_fraction(raw)
            except ValueError:
                value = float(raw) if isinstance(raw, (float, str)) else math.nan
                if not math.isfinite(value):
                    raise ValueError(f"value of {key}: {raw!r} is not a finite number") from None
                vals[mask] = value
        return cls(ground, vals)


def _canonical_pmf(
    pmf: Mapping[tuple[int, ...], Union[Fraction, int, str]],
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for outcome, p in pmf.items():
        q = as_fraction(p)
        if q < 0:
            raise ValueError(f"negative probability at {outcome}")
        if q > 0:
            out[tuple(outcome)] = q
    return out


@dataclass(frozen=True)
class JointDistribution:
    """Exact rational pmf over a tuple of finite-alphabet variables.

    Only support points (positive probability) are stored; the
    constructor canonicalizes by dropping explicit zeros.
    """

    variables: tuple[tuple[str, int], ...]
    pmf: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name, size in self.variables:
            _check_label(name)
            if size < 1:
                raise ValueError(f"alphabet of {name} must have size >= 1")
        total = Fraction(0)
        for outcome, p in self.pmf.items():
            if len(outcome) != len(self.variables):
                raise ValueError(f"outcome {outcome} has the wrong arity")
            for sym, (name, size) in zip(outcome, self.variables):
                if not 0 <= sym < size:
                    raise ValueError(f"symbol {sym} outside the alphabet of {name}")
            if p <= 0:
                raise ValueError("stored pmf entries must be positive")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def of(
        cls,
        variables: Sequence[tuple[str, int]],
        pmf: Mapping[tuple[int, ...], Union[Fraction, int, str]],
    ) -> "JointDistribution":
        return cls(tuple((n, int(s)) for n, s in variables), _canonical_pmf(pmf))

    @classmethod
    def uniform_over(
        cls,
        variables: Sequence[tuple[str, int]],
        support: Iterable[tuple[int, ...]],
    ) -> "JointDistribution":
        pts = sorted(set(tuple(s) for s in support))
        if not pts:
            raise ValueError("support must be nonempty")
        p = Fraction(1, len(pts))
        return cls.of(variables, {pt: p for pt in pts})

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def ground(self) -> GroundSet:
        return GroundSet(self.names())

    def _indices(self, names: Iterable[str]) -> tuple[int, ...]:
        all_names = self.names()
        out = []
        for name in names:
            try:
                out.append(all_names.index(name))
            except ValueError:
                raise KeyError(f"unknown variable {name!r}") from None
        return tuple(out)

    def marginal(self, names: Iterable[str]) -> dict[tuple[int, ...], Fraction]:
        idx = self._indices(names)
        out: dict[tuple[int, ...], Fraction] = {}
        for outcome, p in self.pmf.items():
            key = tuple(outcome[i] for i in idx)
            out[key] = out.get(key, Fraction(0)) + p
        return out

    def support_size(self, names: Iterable[str]) -> int:
        idx = self._indices(names)
        return len({tuple(outcome[i] for i in idx) for outcome in self.pmf})

    def to_json(self) -> str:
        doc = {
            "variables": [{"name": n, "size": s} for n, s in self.variables],
            "pmf": [[list(outcome), str(p)] for outcome, p in sorted(self.pmf.items())],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        doc = _json_object(json.loads(text), "a distribution", variables=list, pmf=list)
        entries = [_json_object(v, "a variable") for v in doc["variables"]]
        variables = [(v["name"], _json_int(v["size"], "size")) for v in entries]
        for entry in doc["pmf"]:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
                raise ValueError(f"pmf entry {entry!r} is not an [outcome, probability] pair")
            if not all(isinstance(sym, int) for sym in entry[0]):
                raise ValueError(f"outcome {entry[0]!r} is not an array of integers")
        pmf = {tuple(outcome): as_fraction(p) for outcome, p in doc["pmf"]}
        return cls.of(variables, pmf)


def _signed_terms(ground: GroundSet, terms: Iterable[tuple[int, Fraction]]) -> list[str]:
    """`+ h{..}`, `- h{..}`, `+ c*h{..}` or `- c*h{..}` per (mask, coefficient) term."""
    out = []
    for mask, c in terms:
        factor = "" if abs(c) == 1 else f"{abs(c)}*"
        out.append(f"{'+' if c > 0 else '-'} {factor}h{ground.format_subset(mask)}")
    return out


@dataclass(frozen=True)
class LinearFunctional:
    """A linear expression over subset coordinates, with a comparison sense.

    Value at h is sum(coeff(a) * h(a)) + constant; sense "ge" asserts the
    value is >= 0, sense "eq" asserts it equals 0.
    """

    ground: GroundSet
    coefficients: Mapping[int, Fraction]
    constant: Fraction = Fraction(0)
    sense: str = "ge"

    def __post_init__(self) -> None:
        if self.sense not in ("ge", "eq"):
            raise ValueError("sense must be 'ge' or 'eq'")
        if 0 in self.coefficients:
            raise ValueError("the empty set carries no coordinate")
        if not any(c != 0 for c in self.coefficients.values()):
            raise ValueError("functional needs at least one nonzero coefficient")
        for mask in self.coefficients:
            if not 0 < mask <= self.ground.full_mask:
                raise ValueError("coefficient mask outside the ground set")

    @classmethod
    def build(
        cls,
        ground: GroundSet,
        terms: Mapping[frozenset, Union[Fraction, int, str]] | Iterable[tuple[Iterable[str], Union[Fraction, int, str]]],
        constant: Union[Fraction, int, str] = 0,
        sense: str = "ge",
    ) -> "LinearFunctional":
        items = terms.items() if isinstance(terms, Mapping) else terms
        coeffs: dict[int, Fraction] = {}
        for labels, c in items:
            mask = ground.mask_of(labels)
            coeffs[mask] = coeffs.get(mask, Fraction(0)) + as_fraction(c)
        coeffs = {m: c for m, c in coeffs.items() if c != 0 and m != 0}
        return cls(ground, coeffs, as_fraction(constant), sense)

    def evaluate(self, h: Union[EntropyVector, Mapping[int, Number]]) -> Number:
        lookup = h.value_of_mask if isinstance(h, EntropyVector) else lambda m: h[m]
        # A float term makes the sum a float from there on; rationals stay exact.
        return sum((coeff * lookup(mask) for mask, coeff in self.coefficients.items()), self.constant)

    def format(self) -> str:
        order = sorted(self.coefficients, key=lambda m: (bin(m).count("1"), m))
        parts = _signed_terms(self.ground, ((m, self.coefficients[m]) for m in order))
        if self.constant != 0:
            parts.append(f"+ {self.constant}" if self.constant > 0 else f"- {-self.constant}")
        body = " ".join(parts).lstrip("+ ").strip()
        op = ">=" if self.sense == "ge" else "="
        return f"{body} {op} 0"


def entropy_vector_of(
    dist: JointDistribution, variables: Optional[Sequence[str]] = None
) -> EntropyVector:
    """Entropy vector (base 2, floats) plus exact support-size sidecar.

    `variables` restricts and orders the ground set; by default all
    variables of the distribution are used.
    """
    names = tuple(variables) if variables is not None else dist.names()
    ground = GroundSet(names)
    values: dict[int, Number] = {}
    supports: dict[int, int] = {}
    for mask in range(1, ground.full_mask + 1):
        marg = dist.marginal(ground.labels_of(mask))
        values[mask] = -math.fsum(float(p) * math.log2(float(p)) for p in marg.values())
        supports[mask] = len(marg)
    return EntropyVector(ground, values, supports)


def subset_entropy(dist: JointDistribution, names: Iterable[str]) -> float:
    """Entropy (base 2) of one subset marginal without building the vector."""
    marg = dist.marginal(names)
    return -math.fsum(float(p) * math.log2(float(p)) for p in marg.values())


@dataclass(frozen=True)
class PolymatroidReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _at_least(a: Number, b: Number, tol: float = DEFAULT_TOL) -> bool:
    """a >= b: exactly when both are rational, within tol when a float takes part."""
    if isinstance(a, float) or isinstance(b, float):
        return a >= b - tol
    return a >= b


def is_polymatroid(h: EntropyVector, tol: float = DEFAULT_TOL) -> PolymatroidReport:
    """Check normalization, monotonicity, and submodularity.

    Rational coordinates are compared exactly; tol applies only where a
    float coordinate takes part.
    """
    ground = h.ground
    n = ground.size
    violations: list[str] = []
    for mask in range(1, ground.full_mask + 1):
        if bin(mask).count("1") == 1 and not _at_least(h.values[mask], 0, tol):
            violations.append(f"nonnegativity: h{ground.format_subset(mask)} < 0")
    # Monotonicity over cover relations implies the full partial order.
    for mask in range(1, ground.full_mask + 1):
        for i in range(n):
            if mask >> i & 1:
                sub = mask & ~(1 << i)
                if not _at_least(h.values[mask], h.value_of_mask(sub), tol):
                    violations.append(
                        "monotonicity: "
                        f"h{ground.format_subset(mask)} < h{ground.format_subset(sub)}"
                    )
    # Submodularity via the elemental triples h(iK)+h(jK) >= h(ijK)+h(K);
    # the H(Xi|rest) rows follow from monotonicity.
    for i, j, kmask, *masks in zip(*_elemental_masks(n)):
        if j < 0:
            continue
        lhs_a, lhs_b, rhs_a, rhs_b = (h.value_of_mask(m) for m in masks)
        if not _at_least(lhs_a + lhs_b, rhs_a + rhs_b, tol):
            li, lj = ground.labels[i], ground.labels[j]
            violations.append(
                f"submodularity: I({li};{lj}|{ground.format_subset(kmask)}) < 0"
            )
    return PolymatroidReport(not violations, tuple(violations))


def _elemental_masks(n: int) -> tuple[list[int], ...]:
    """The elemental inequalities over n variables, as seven columns.

    Returns (i, j, K, plus1, plus2, minus1, minus2); row r reads
    h(plus1) + h(plus2) >= h(minus1) + h(minus2).  First H(Xi | rest) >= 0
    for each i (j = -1, K is the rest, and plus2 = minus2 = 0 cancel), then
    I(Xi;Xj | XK) >= 0 for each pair i < j with K ascending.  Masks may be
    0 (the empty set); callers drop or map them.  The order fixes the row
    numbering of the Shannon LP.
    """
    full = (1 << n) - 1
    rests = [full & ~(1 << i) for i in range(n)]
    ii, jj, kk = list(range(n)), [-1] * n, list(rests)
    p1, p2, m1, m2 = [full] * n, [0] * n, list(rests), [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            others = full & ~(bi | bj)
            # Subsets of `others` in ascending order: 0, then each next one.
            ks = [0]
            while ks[-1] != others:
                ks.append((ks[-1] - others) & others)
            ii += [i] * len(ks)
            jj += [j] * len(ks)
            kk += ks
            p1 += [k | bi for k in ks]
            p2 += [k | bj for k in ks]
            m1 += [k | bi | bj for k in ks]
            m2 += ks
    return ii, jj, kk, p1, p2, m1, m2


def elemental_inequalities(ground: Union[int, GroundSet]) -> list[LinearFunctional]:
    """The minimal elemental generating set of the Shannon cone.

    One H(Xi | rest) >= 0 per variable and one I(Xi;Xj | XK) >= 0 per pair
    i < j and every K disjoint from {i, j}.
    """
    if isinstance(ground, int):
        ground = GroundSet(tuple(f"X{i + 1}" for i in range(ground)))
    n = ground.size
    if n > ELEMENTAL_GROUND_LIMIT:
        raise ValueError(
            f"ground of size {n} exceeds the elemental limit {ELEMENTAL_GROUND_LIMIT}"
        )
    one = Fraction(1)
    out: list[LinearFunctional] = []
    for _, _, _, plus1, plus2, minus1, minus2 in zip(*_elemental_masks(n)):
        coeffs = {m: one for m in (plus1, plus2) if m}
        coeffs.update({m: -one for m in (minus1, minus2) if m})
        out.append(LinearFunctional(ground, coeffs))
    return out


def check_functional_dependency(
    dist: JointDistribution,
    targets: Union[str, Iterable[str]],
    givens: Union[str, Iterable[str]],
) -> bool:
    """Exact decision of H(targets | givens) = 0 by support inspection."""
    if isinstance(targets, str):
        targets = (targets,)
    if isinstance(givens, str):
        givens = (givens,)
    t_idx = dist._indices(targets)
    g_idx = dist._indices(givens)
    if not t_idx:
        return True
    target = operator.itemgetter(*t_idx)
    given = operator.itemgetter(*g_idx) if g_idx else lambda outcome: ()
    seen: dict = {}
    for outcome in dist.pmf:
        t = target(outcome)
        if seen.setdefault(given(outcome), t) != t:
            return False
    return True


def check_independence(
    dist: JointDistribution,
    group_a: Union[str, Iterable[str]],
    group_b: Union[str, Iterable[str]],
) -> bool:
    """Exact decision of I(A;B) = 0 by rational factorization."""
    if isinstance(group_a, str):
        group_a = (group_a,)
    if isinstance(group_b, str):
        group_b = (group_b,)
    a = tuple(group_a)
    b = tuple(group_b)
    if not a or not b:
        raise ValueError("independence groups must be nonempty")
    if set(a) & set(b):
        raise ValueError("independence groups must be disjoint")
    joint = dist.marginal(a + b)
    marg_a = dist.marginal(a)
    marg_b = dist.marginal(b)
    if len(joint) != len(marg_a) * len(marg_b):
        return False
    ka = len(a)
    for outcome, p in joint.items():
        if p != marg_a[outcome[:ka]] * marg_b[outcome[ka:]]:
            return False
    return True


def is_quasi_uniform(dist: JointDistribution) -> bool:
    """True iff every nonempty subset marginal is uniform over its support."""
    names = dist.names()
    for r in range(1, len(names) + 1):
        for subset in itertools.combinations(names, r):
            marg = dist.marginal(subset)
            values = set(marg.values())
            if len(values) > 1:
                return False
    return True


def quasi_uniform_vector_of(dist: JointDistribution) -> EntropyVector:
    """Entropy vector of a quasi-uniform distribution, as log2 of support sizes.

    Coordinates whose support size is a power of two come out as exact
    rationals; other sizes fall back to floats.
    """
    if not is_quasi_uniform(dist):
        raise ValueError("distribution is not quasi-uniform")
    ground = dist.ground()
    values: dict[int, Number] = {}
    supports: dict[int, int] = {}
    for mask in range(1, ground.full_mask + 1):
        k = dist.support_size(ground.labels_of(mask))
        supports[mask] = k
        if k & (k - 1) == 0:
            values[mask] = Fraction(k.bit_length() - 1)
        else:
            values[mask] = math.log2(k)
    return EntropyVector(ground, values, supports)


@dataclass(frozen=True)
class EntropicSearchResult:
    status: str  # "found" | "not-found" | "budget-exceeded"
    witness: Optional[JointDistribution]
    candidates_tried: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == "found"


def _canonical_support(points: tuple[tuple[int, ...], ...], sizes: tuple[int, ...]) -> bool:
    """Accept only supports that use each alphabet surjectively and introduce
    symbols in first-use order, killing relabeling duplicates."""
    for var in range(len(sizes)):
        seen: list[int] = []
        for pt in points:
            s = pt[var]
            if s not in seen:
                if s != len(seen):
                    return False
                seen.append(s)
        if len(seen) != sizes[var]:
            return False
    return True


_SEARCH_GROUND_LIMIT = 3


def entropic_search(
    h: EntropyVector,
    max_support: int = 4,
    tol: float = DEFAULT_TOL,
    budget: int = 200_000,
) -> EntropicSearchResult:
    """Search for a distribution whose entropy vector matches h.

    A candidate matches h exactly on h's rational coordinates (see
    `_uniform_entropy_is`) and within tol on its float ones; the
    polymatroid precheck compares rational coordinates exactly too.

    This is a semi-decision with an explicit budget: "not-found" is a
    statement about the searched family only, never a proof that h is not
    entropic.  The family is uniform-over-support candidates, which covers
    all quasi-uniform vectors at these sizes, on at most three variables.
    """
    n = h.ground.size
    if n > _SEARCH_GROUND_LIMIT:
        raise ValueError(f"ground of size {n} exceeds the search limit {_SEARCH_GROUND_LIMIT}")
    pre = is_polymatroid(h, tol)
    if not pre:
        return EntropicSearchResult("not-found", None, 0, "not a polymatroid: " + pre.violations[0])

    tried = 0
    names = h.ground.labels
    # Uniform candidates: the joint support size is pinned by h(ground).
    target = float(h.value_of_mask(h.ground.full_mask))
    m_est = round(2.0 ** target)
    sizes_iter = itertools.product(*(range(1, max_support + 1) for _ in range(n)))
    # A prune only: each candidate below is matched by `_vector_matches`.
    if m_est >= 1 and abs(math.log2(m_est) - target) <= tol:
        for sizes in sizes_iter:
            cells = 1
            for s in sizes:
                cells *= s
            if cells < m_est:
                continue
            # Each marginal of a uniform support has entropy <= log2(alphabet).
            if any(
                float(h.values[1 << i]) > math.log2(sizes[i]) + tol for i in range(n)
            ):
                continue
            grid = list(itertools.product(*(range(s) for s in sizes)))
            for combo in itertools.combinations(grid, m_est):
                if tried >= budget:
                    return EntropicSearchResult(
                        "budget-exceeded", None, tried, "uniform-support sweep hit the budget"
                    )
                tried += 1
                if not _canonical_support(combo, sizes):
                    continue
                cand = JointDistribution.uniform_over(
                    tuple(zip(names, sizes)), combo
                )
                if _vector_matches(cand, h, tol):
                    return EntropicSearchResult("found", cand, tried)
    return EntropicSearchResult("not-found", None, tried, "search family exhausted")


def _vector_matches(dist: JointDistribution, h: EntropyVector, tol: float) -> bool:
    """Whether a uniform-over-support candidate has entropy vector h: exactly
    on h's rational coordinates, within tol on its float ones."""
    m = len(dist.pmf)
    for mask in range(1, h.ground.full_mask + 1):
        marg = dist.marginal(h.ground.labels_of(mask))
        want = h.values[mask]
        if isinstance(want, float):
            got = -math.fsum(float(p) * math.log2(float(p)) for p in marg.values())
            if not (_at_least(got, want, tol) and _at_least(want, got, tol)):
                return False
        elif not _uniform_entropy_is(m, [int(p * m) for p in marg.values()], want):
            return False
    return True


def _uniform_entropy_is(m: int, counts: Sequence[int], value: Union[Fraction, int]) -> bool:
    """Whether a marginal of the uniform law on m points, with these point
    counts c_i, has the rational entropy `value`, decided in integers.

    Its entropy is log2 m - (1/m) sum c_i log2 c_i, so it equals value iff
    2^(m * value) = m^m / prod c_i^c_i.  The right side is rational, so
    e = m * value must be an integer, and then m^m == 2^e * prod c_i^c_i.
    """
    e = Fraction(value) * m
    # The entropy lies in [0, log2 m], so 2^e <= m^m < 2^(m * bit_length(m)).
    if e.denominator != 1 or not 0 <= e < m * m.bit_length():
        return False
    return m**m == 2 ** int(e) * math.prod(c**c for c in counts)


def zhang_yeung_check(h: EntropyVector) -> bool:
    """Evaluate the Zhang-Yeung non-Shannon inequality on a 4-variable vector.

    With variables (A, B, C, D) taken in ground order the inequality reads
    2 I(C;D) <= I(A;B) + I(A;CD) + 3 I(C;D|A) + I(C;D|B).  True iff it
    holds: exactly on rational coordinates, within `DEFAULT_TOL` where a
    float takes part.  Entropic vectors always satisfy it; some
    polymatroids do not.
    """
    if h.ground.size != 4:
        raise ValueError("the Zhang-Yeung check needs exactly 4 variables")
    a, b, c, d = (1 << i for i in range(4))
    # weight * I(x;y|z) = weight * (h(xz) + h(yz) - h(xyz) - h(z)), summed.
    coeffs: dict[int, Fraction] = {}
    for x, y, z, weight in ((a, b, 0, 1), (a, c | d, 0, 1), (c, d, a, 3), (c, d, b, 1), (c, d, 0, -2)):
        for mask, sign in ((x | z, 1), (y | z, 1), (x | y | z, -1), (z, -1)):
            coeffs[mask] = coeffs.get(mask, Fraction(0)) + sign * weight
    form = LinearFunctional(h.ground, {m: v for m, v in coeffs.items() if m and v})
    return _at_least(form.evaluate(h), 0)
