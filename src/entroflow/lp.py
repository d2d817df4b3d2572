"""Shannon-type LP outer bounds over a problem's variables, exactly.

The LP lives in the entropy space of the problem's variables: sessions,
distinct edge messages (duplicator edges collapse onto their parent), and
optionally one randomness variable per node.  Constraint families:

- elemental Shannon inequalities over the ground,
- causality: every message is a function of its tail's incident variables,
- decodability: every demanded session is a function of its sink's inputs,
- capacity: h(message) bounded by each finite capacity on its edge chain,
- rates: h(session) at least the session rate,
- secrecy: zero mutual information per wiretap,
- independence: sessions and node randomness are mutually independent,
- caller-supplied axioms (for subnetwork analysis or extra inequalities).

Functional-dependency equalities (causality, decodability) let subsets be
merged: in the Shannon cone with h(W|inputs) = 0, every subset has the
same entropy as its dependency closure.  The LP is therefore built over
closed subsets only, which shrinks it by orders of magnitude without
changing the feasible set or any optimum (`reduce=False` keeps the raw
2^n - 1 coordinates for cross-checks on small grounds).

The rows are generated once, into one integer row store
(`rows.RowStore`: CSR arrays over the closed coordinates, a sense code
and an exact right side per row, rational rows scaled to integers by their
least common denominator).  The elemental block is generated with numpy
from the mask columns of `entropy._elemental_masks` (kept as one read-only
array per ground size), and equal rows are found through one packed
integer key per row; provenance tags stay compact and are formatted only
when `ShannonLP.tag`, `export_text` or `certificate_to_json` asks for
them.  Every reader works from the store: the HiGHS model, the exact
verifier, the exact simplex and the exports.

Rates, capacities and axiom values enter only the right sides (and the
two rules that drop a row: an equal earlier row, a >= 0 row that is an
elemental row).  So `build_shannon_lp` splits the work: a template
(`_Template`: ground, dependency rules, closure table, coordinates,
elemental block, every other row's terms, sense, tag and where its right
side comes from, the CSR arrays, `ShannonLP.matrix` with its digest, and
the compiled expressions) is built once per topology and build arguments
and kept, read-only, in a byte-capped store (`_template_store`); each
build reads it and fills in the right sides, sharing the row arrays with
it wherever no scale changes.

Solving is float-proposed and exactly verified: HiGHS (through the
bindings scipy bundles) proposes an optimum (a point and row duals) or,
for an infeasible LP, the Farkas multipliers of its dual ray.  The
proposal is rounded to rationals and accepted only when it passes the
exact check against every row.  When no proposal verifies, or scipy or
its HiGHS bindings are missing, the lazy exact rational simplex settles
the LP.  Every returned certificate has been re-verified exactly.

Every point, ray, dual and Farkas vector, whichever path made it, has one
form, `rows.Sparse`: ascending indices, integer numerators and one
denominator, read as a mapping of its nonzero entries as Fractions,
built on first read.  The point and ray of a `Certificate` are keyed by
closed mask, its row duals or Farkas multipliers by LP row.  The exact
check works on the integer form and compares integer matrix-vector
products with the scaled right sides (int64 under a checked no-overflow
bound, Python ints otherwise), so a solve that is only checked makes no
Fraction per entry.

Every question goes through a `ShannonSolver`: the exact maximum or
minimum of an expression string (`"H(K|W4)"`, `"I(A;B|C) - 2*H(A)"`), or
feasibility.  `verify_proof_chain` settles each `=`, `>=` or `<=` claim of
a chain by the exact minimum and maximum of its expression (forced,
consistent, contradicted, or vacuous on an infeasible LP), which needs no
sign condition on the expression.

A solver holds one HiGHS handle (`entroflow.highs.Highs`, made from the
row store before its first HiGHS run), which answers per LP row; each later
objective changes the costs only and is re-solved from the last basis,
and an objective already settled is answered from a memo.
`ShannonSolver.stats` counts the work and the `entroflow.lp` logger
writes one debug record per solve.

The solves of a proof chain, and only those, also use the process-wide
store `highs.BASES`, one entry per matrix and cost (the right-hand side is
not part of the key, so a chain on the same subnetwork under other rates
or capacities finds its entries).  The solver is the store's only reader
and writer.  It reads the matrix digest (`ShannonLP.digest`, worked out
once per template) and the rational right sides once per LP, and each
chain solve reads its entry once, without a HiGHS handle.  An entry
holds the optimal basis of a HiGHS run, the verified rational row duals
of the solve it settled, and its generators: the right sides of the
solves settled there, with their verified points.
The right sides enter every row linearly, so a nonnegative combination of
stored points is feasible for the same combination of their right sides.
Before HiGHS runs, a feasibility solve combines the stored points whose
right sides add up to its own (`highs.combination`); a claim pairs the
stored dual with the chain's feasibility point, then with such a
combination.  Each candidate goes through the exact check against the
current rows and objective: a dual stays feasible under new right sides,
so a feasible point that attains its bound is optimal.  The chain's
feasibility point passed the row check when it settled, so paired with a
dual it takes only the dual half of the check; every other point takes
both halves.  Only when every candidate fails does the solver build its
HiGHS handle and run it from the stored basis; once that run's optimum
verifies, the entry takes the new basis, dual and generator in one write.
A `ProofChain` runs a chain's solves only as far as its memo and the
store settle them, stopping before its first HiGHS run, and finishes
them later, perhaps on another thread.  The store holds at most
4 MB and drops the least recently used entries first.  A chain reports
only statuses and exact optima, which nothing stored changes.  Direct
`maximize`, `minimize` and `feasibility` calls never read or write the
store, so the certificates of a solver that has run no chain do not
depend on it (see `ShannonSolver` for one that has).
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional, Sequence, Union

from entroflow.entropy import (
    ELEMENTAL_GROUND_LIMIT,
    GroundSet,
    JointDistribution,
    _at_least,
    _elemental_masks,
    _signed_terms,
    as_fraction,
    subset_entropy,
)
from entroflow.network import NetworkProblem, name_clashes, randomness_variable, validate
from entroflow.simplex import (
    CertificateError,
    ExactSimplex,
    LinearRow,
    SimplexCertificate,
    verify_certificate,
    verify_dual,
    verify_point,
)

if TYPE_CHECKING:
    from entroflow.rows import RowStore, Sparse

__all__ = [
    "GroundTooLargeError",
    "VariableGround",
    "ShannonLP",
    "Certificate",
    "Claim",
    "ChainVerdict",
    "ChainReport",
    "ShannonSolver",
    "SolveStats",
    "compile_expression",
    "build_shannon_lp",
    "verify_proof_chain",
    "ProofChain",
    "export_text",
    "satisfies",
    "certificate_to_json",
]

class GroundTooLargeError(ValueError):
    def __init__(self, size: int, limit: int):
        super().__init__(
            f"variable ground of size {size} exceeds the limit {limit}; "
            "designate a subnetwork variable set instead"
        )
        self.size = size
        self.limit = limit


@dataclass(frozen=True)
class VariableGround:
    ground: GroundSet
    kinds: Mapping[str, str]  # label -> "session" | "message" | "randomness"
    # Nodes whose randomness the LP models, before any subnetwork restriction.
    randomized: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class _RowTags:
    """Provenance tags of an LP's rows, kept compact and formatted on demand.

    Rows `start` to `start + len(elemental[0])` are the elemental block,
    described by the columns (i, j, K) of `entropy._elemental_masks` (j = -1
    for H(Xi|rest)); every other row's tag is in `others`, in row order.
    """

    start: int
    elemental: Any  # int16 array of shape (3, rows in the block)
    others: tuple[tuple[str, ...], ...]

    @property
    def stop(self) -> int:
        return self.start + self.elemental.shape[1]

    def format(self, ground: GroundSet, row: int) -> tuple[str, ...]:
        if row < self.start:
            return self.others[row]
        if row >= self.stop:
            return self.others[row - self.stop + self.start]
        i, j, kmask = self.elemental[:, row - self.start].tolist()
        if j < 0:
            return ("elemental", f"H({ground.labels[i]}|rest)")
        return (
            "elemental",
            f"I({ground.labels[i]};{ground.labels[j]}|{ground.format_subset(kmask)})",
        )


@dataclass(frozen=True)
class ShannonLP:
    """A Shannon LP: every row once, as integer arrays over closed coordinates.

    Row i of `rows` is a constraint on the coordinate indices (positions
    in `coords`, whose entries are the closed masks) and `tag(i)` is its
    provenance.  `matrix` fixes the rows without their right sides: the
    ground size and closure table (which fix the elemental block and the
    coordinates), where the block starts, and every other row's terms and
    sense.  Two LPs with equal
    keys differ at most in their right sides.

    `template` is what the LP shares with every other LP of its topology
    and build arguments (see `build_shannon_lp`): the variables, closures,
    coordinates and, unless a value dropped a row, the row arrays apart
    from the right sides and scales, the tags and `matrix`.  It also keeps
    `coord_index`, the compiled expressions and the digest of `matrix`.
    """

    variables: VariableGround
    closures: tuple[int, ...]  # closure of every mask (index = mask)
    coords: tuple[int, ...]  # distinct closed masks, ascending
    rows: RowStore
    tags: _RowTags
    reduced: bool
    matrix: tuple = field(repr=False, compare=False)
    template: _Template = field(repr=False, compare=False)

    @property
    def constraints(self) -> RowStore:
        # The same rows: perfbench/tracing.py reads len(lp.constraints)
        # until the benchmark reads `rows` instead.
        return self.rows

    @property
    def elemental_rows(self) -> range:
        return range(self.tags.start, self.tags.stop)

    def tag(self, row: int) -> tuple[str, ...]:
        return self.tags.format(self.ground, range(len(self.rows))[row])

    @property
    def ground(self) -> GroundSet:
        return self.variables.ground

    def coord_index(self) -> Mapping[int, int]:
        """The coordinate index of each closed mask (read-only, the template's)."""
        return self.template.index

    def compile(self, expr: str) -> tuple[dict[int, Fraction], Fraction]:
        """Compile an expression to closed-coordinate coefficients."""
        return self.template.compile(expr)

    @functools.cached_property
    def digest(self) -> bytes:
        """The digest of `matrix` (`highs.matrix_digest`): the template's
        when the LP keeps every row of it."""
        if self.matrix is self.template.matrix:
            return self.template.digest
        from entroflow.highs import matrix_digest

        return matrix_digest(self.matrix)


# ----------------------------------------------------------------------
# expression mini-language

_DELIMS = set("+-*(),;|")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DELIMS:
            tokens.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _DELIMS:
            j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


def _is_rational(token: str) -> bool:
    try:
        Fraction(token)
        return True
    except (ValueError, ZeroDivisionError):
        return False


class _Parser:
    def __init__(self, ground: GroundSet, text: str):
        self.ground = ground
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def varlist(self) -> int:
        names = [self.take()]
        while self.peek() == ",":
            self.take(",")
            names.append(self.take())
        return self.ground.mask_of(names)

    def atom(self, sign: Fraction, coeffs: dict[int, Fraction]) -> Fraction:
        """Parses one H(...)/I(...) atom or a rational; returns added constant."""
        tok = self.take()
        if tok == "H":
            self.take("(")
            a = self.varlist()
            b = 0
            if self.peek() == "|":
                self.take("|")
                b = self.varlist()
            self.take(")")
            _add(coeffs, a | b, sign)
            _add(coeffs, b, -sign)
            return Fraction(0)
        if tok == "I":
            self.take("(")
            a = self.varlist()
            self.take(";")
            b = self.varlist()
            c = 0
            if self.peek() == "|":
                self.take("|")
                c = self.varlist()
            self.take(")")
            _add(coeffs, a | c, sign)
            _add(coeffs, b | c, sign)
            _add(coeffs, a | b | c, -sign)
            _add(coeffs, c, -sign)
            return Fraction(0)
        if _is_rational(tok):
            return sign * Fraction(tok)
        raise ValueError(f"unexpected token {tok!r} in expression")

    def term(self, sign: Fraction, coeffs: dict[int, Fraction]) -> Fraction:
        tok = self.peek()
        if tok is not None and _is_rational(tok) and self.pos + 1 < len(self.tokens) and self.tokens[self.pos + 1] == "*":
            factor = Fraction(self.take())
            self.take("*")
            return self.atom(sign * factor, coeffs)
        return self.atom(sign, coeffs)

    def parse(self) -> tuple[dict[int, Fraction], Fraction]:
        coeffs: dict[int, Fraction] = {}
        constant = Fraction(0)
        sign = Fraction(1)
        if self.peek() in ("+", "-"):
            sign = Fraction(-1) if self.take() == "-" else Fraction(1)
        constant += self.term(sign, coeffs)
        while self.peek() in ("+", "-"):
            sign = Fraction(-1) if self.take() == "-" else Fraction(1)
            constant += self.term(sign, coeffs)
        if self.peek() is not None:
            raise ValueError(f"trailing tokens at {self.peek()!r}")
        return coeffs, constant


def _add(coeffs: dict[int, Fraction], mask: int, c: Fraction) -> None:
    if mask == 0 or c == 0:
        return
    coeffs[mask] = coeffs.get(mask, Fraction(0)) + c


def compile_expression(
    ground: GroundSet, text: str
) -> tuple[dict[int, Fraction], Fraction]:
    """Compile "H(A|B)", "I(A;B|C)", and rational combinations of them.

    Returns raw-subset coefficients plus a constant term.
    """
    coeffs, constant = _Parser(ground, text).parse()
    return {m: c for m, c in coeffs.items() if c}, constant


# ----------------------------------------------------------------------
# LP construction


def _ground_of(
    problem: NetworkProblem,
    include_randomness: bool,
    variables: Optional[Sequence[str]],
) -> VariableGround:
    sessions = sorted(s.id for s in problem.requirement.sessions)
    messages = list(problem.messages)
    randomized = problem.default_randomness_nodes if include_randomness else ()
    randomness = [randomness_variable(node) for node in randomized]
    labels = sessions + messages + randomness
    kinds = {s: "session" for s in sessions}
    kinds.update({m: "message" for m in messages})
    kinds.update({v: "randomness" for v in randomness})
    if variables is not None:
        wanted = set(variables)
        unknown = wanted - set(labels)
        if unknown:
            raise KeyError(f"unknown subnetwork variables {sorted(unknown)}")
        labels = [lab for lab in labels if lab in wanted]
        kinds = {lab: kinds[lab] for lab in labels}
    return VariableGround(GroundSet(tuple(labels)), kinds, randomized)


def _dependency_rules(
    problem: NetworkProblem, vg: VariableGround
) -> list[tuple[int, int, tuple[str, ...]]]:
    """(premise mask, target mask, tag) rules over the LP ground.

    A rule is emitted only when the target and its entire input list are
    ground variables; anything else would weaken the premise unsoundly.
    An encoder's inputs include its tail's randomness whenever the LP models
    that randomness (`vg.randomized`), also when a subnetwork leaves it out.
    """
    ground = vg.ground
    labels = set(ground.labels)
    rules: list[tuple[int, int, tuple[str, ...]]] = []
    for name in problem.messages:
        if name not in labels:
            continue
        refs = problem.encoder_inputs(name, vg.randomized)
        inputs = dict.fromkeys(map(problem.input_variable, refs))
        if all(dep in labels for dep in inputs):
            rules.append((ground.mask_of(inputs), ground.mask_of([name]), ("causality", name)))
    for sink, demanded in problem.demands().items():
        inputs = problem.sink_inputs(sink)
        if any(dep not in labels for dep in inputs):
            continue
        premise = ground.mask_of(inputs)
        for sid in demanded:
            if sid in labels and sid not in inputs:
                rules.append((premise, ground.mask_of([sid]), ("decode", sink, sid)))
    return rules


def _closure_table(n: int, rules: Sequence[tuple[int, int, tuple]]):
    """Dependency closure of every mask (index = mask), as an int64 array.

    Every mask takes each rule whose premise it holds until none adds
    anything; the least closed superset does not depend on the order.
    """
    import numpy as np

    out = np.arange(1 << n, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for premise, target, _ in rules:
            hit = (out & premise == premise) & (out & target != target)
            if hit.any():
                out[hit] |= target
                changed = True
    return out


@functools.cache
def _elemental_columns(n: int):
    """The seven columns of `entropy._elemental_masks(n)`, as a read-only
    int64 array, kept for the process: one per ground size, at most
    `ELEMENTAL_GROUND_LIMIT` of them."""
    import numpy as np

    cols = np.array(_elemental_masks(n), dtype=np.int64)
    cols.setflags(write=False)
    return cols


def _first_of_equal_rows(masks, coef, n: int):
    """Index of the first of each set of equal (masks, coef) rows.

    A nonzero term's mask lies in 1..2^n - 1 and a dropped term's is 2^n,
    so a mask's low n bits (0 exactly for a dropped term) and a 2-bit code
    of a nonzero coefficient (-2, -1, 1 or 2) tell rows apart: 4n + 8 bits,
    at most 64 for n <= ELEMENTAL_GROUND_LIMIT, in one uint64 key per row.
    """
    import numpy as np

    low = masks & ((1 << n) - 1)
    code = 2 * (coef > 0) + (np.abs(coef) == 2)
    key = np.zeros(len(masks), dtype=np.uint64)
    for part, width in ((low, n), (code, 2)):
        for b in range(4):
            key = (key << np.uint64(width)) | part[:, b].astype(np.uint64)
    return np.unique(key, return_index=True)[1]


def _elemental_block(n: int, closure):
    """The elemental rows mapped through the closure.

    Each row's four masks (see `entropy._elemental_masks`) are closed,
    terms on the empty set dropped, equal masks merged and zero terms
    dropped; empty rows go, and of equal rows only the first stays.
    Returns the kept rows' (i, j, K) columns and their closed masks and
    coefficients, four per row: the nonzero terms first, masks ascending,
    a dropped term read as mask 2^n with coefficient 0, as read-only
    arrays: int16 columns and masks (n <= 14) and int8 coefficients.  The
    result depends on n and the closure table only; the template of a
    topology (`_Template`) builds it once.
    """
    import numpy as np

    cols = _elemental_columns(n)
    masks = closure[cols[3:].T]
    coef = np.where(masks == 0, 0, np.array([1, 1, -1, -1]))
    for _ in range(2):
        # Sort each row by mask and merge runs of equal masks into their
        # last term.  A zero term's mask then reads as past the end, so the
        # second pass moves it behind the live ones.
        order = np.argsort(masks, axis=1, kind="stable")
        masks = np.take_along_axis(masks, order, axis=1)
        coef = np.take_along_axis(coef, order, axis=1)
        for b in range(1, 4):
            same = masks[:, b] == masks[:, b - 1]
            coef[same, b] += coef[same, b - 1]
            coef[same, b - 1] = 0
        masks = np.where(coef == 0, 1 << n, masks)
    keep = np.zeros(len(masks), dtype=bool)
    keep[_first_of_equal_rows(masks, coef, n)] = True
    rows = np.flatnonzero(keep & (coef[:, 0] != 0))
    block = (cols[:3, rows].astype(np.int16), masks[rows].astype(np.int16), coef[rows].astype(np.int8))
    for part in block:
        part.setflags(write=False)
    return block


def _in_block(n: int, block_masks, block_coef, terms: tuple) -> bool:
    """Whether `terms` ((mask, coefficient) pairs, masks ascending) are the
    terms of a row of the elemental block (see `_elemental_block`)."""
    if len(terms) > 4 or any(c.denominator != 1 or abs(c) > 2 for _, c in terms):
        return False  # block rows have at most 4 terms, coefficients in -2..2
    masks, coef = zip(*terms, *[(1 << n, 0)] * (4 - len(terms)))
    hit = (block_masks == masks) & (block_coef == [int(c) for c in coef])
    return bool(hit.all(axis=1).any())


# The most bytes of templates `_template_store` holds: the five subnetwork
# templates of an n=2 incremental gadget take about 1.4 MB, the LP of a
# small network a few kilobytes.
_TEMPLATE_CAP = 1 << 21
# The most expressions one template keeps compiled (`_Template.compile`).
_COMPILED_CAP = 256


@functools.cache
def _template_store():
    """The process-wide store of LP templates by topology and build
    arguments (a `highs.LruStore` sized in bytes), made on first use."""
    from entroflow.highs import LruStore  # numpy with it, off the command line's import path

    return LruStore(_TEMPLATE_CAP)


class _Template:
    """Everything of a Shannon LP that no rate, capacity or axiom value
    changes, built once per topology and build arguments and then only
    read (by the chain threads of a contract at once, among others).

    `rows` holds the elemental block and every other row that some values
    keep (the candidates), each with right side 0 and at the least common
    denominator of its coefficients; `tags` and `matrix` are those of an
    LP that keeps every candidate.  A row whose right side is 0 whatever
    the values is no candidate when an elemental row or an earlier such
    row with its terms and sense always takes its place.  `sources` says
    where each other candidate's right side comes from: one (candidate,
    row, base, kind, at, constant) tuple each, `base` the row's scale here
    (its coefficients' least common denominator), and the value the finite
    capacity of edge `at` (its position in the network's edges, kind
    "capacity"), the rate of session `at` (its position in the sessions,
    "rate") or the value of axiom `at` less `constant`, its expression's
    constant term ("axiom").

    Two rules of `build_shannon_lp` depend on values and are applied per
    instance (`_kept`): a candidate equal to an earlier kept one in terms,
    sense and right side goes (`twins` holds each candidate's first one
    with its terms and sense), and so does a >= candidate with right side
    0 whose terms are an elemental row's (`droppable`).  `ambiguous` is
    False when neither rule can drop a candidate.
    """

    def __init__(self, variables, closures, coords, reduced, rows, tags, matrix, sources, twins, droppable):
        self.variables: VariableGround = variables
        self.closures: tuple[int, ...] = closures
        self.coords: tuple[int, ...] = coords
        self.reduced: bool = reduced
        self.rows: RowStore = rows
        self.tags: _RowTags = tags
        self.matrix: tuple = matrix
        self.sources: tuple[tuple, ...] = sources
        self.twins: tuple[int, ...] = twins
        self.droppable: tuple[bool, ...] = droppable
        self.ambiguous = len(set(twins)) < len(twins) or any(droppable)
        # The coordinate index of each closed mask, read-only.
        self.index: Mapping[int, int] = MappingProxyType({m: i for i, m in enumerate(coords)})
        arrays = (rows.indptr, rows.col, rows.data, rows.sense, rows.rhs, rows.scale, tags.elemental)
        self.nbytes = sum(a.nbytes for a in arrays) + 8 * len(closures)
        self.compiled: dict[str, tuple[dict[int, Fraction], Fraction]] = {}

    @functools.cached_property
    def digest(self) -> bytes:
        from entroflow.highs import matrix_digest

        return matrix_digest(self.matrix)

    def compile(self, expr: str) -> tuple[dict[int, Fraction], Fraction]:
        """`ShannonLP.compile`, kept for up to `_COMPILED_CAP` expressions."""
        hit = self.compiled.get(expr)
        if hit is None:
            raw, const = compile_expression(self.variables.ground, expr)
            out: dict[int, Fraction] = {}
            for mask, c in raw.items():
                cl = self.closures[mask]
                if cl:
                    out[cl] = out.get(cl, Fraction(0)) + c
            hit = {m: c for m, c in out.items() if c}, const
            # Threads that compile one expression at once store equal
            # values, and the cap is passed by at most one entry per thread.
            if len(self.compiled) < _COMPILED_CAP:
                self.compiled[expr] = hit
        return dict(hit[0]), hit[1]

    def instance(self, problem: NetworkProblem, axioms: Sequence[tuple]) -> ShannonLP:
        """The LP of `problem` (whose topology is this template's) under its
        rates and capacities and the values of `axioms`.

        Each valued row is scaled to the least common denominator of its
        coefficients and right side.  When no candidate is dropped, the
        rows share `indptr`, `col` and `sense` with the template, and
        `data` and `scale` too when no scale changes; `tags` and `matrix`
        are the template's.
        """
        edges, sessions = problem.network.edges, problem.requirement.sessions
        values: dict[int, Fraction] = {}
        at, rhs, factor = [], [], []
        for k, row, base, kind, where, constant in self.sources:
            if kind == "capacity":
                value = edges[where].capacity.value
            elif kind == "rate":
                value = sessions[where].rate
            else:
                value = as_fraction(axioms[where][3]) - constant
            values[k] = value
            scale = math.lcm(base, value.denominator)
            at.append(row)
            rhs.append(value.numerator * (scale // value.denominator))
            factor.append(scale // base)
        rows = self.rows.with_right_sides(at, rhs, factor)
        tags, matrix = self.tags, self.matrix
        kept = self._kept(values) if self.ambiguous else None
        if kept is not None:
            start, stop = tags.start, tags.stop
            head = [k for k in kept if k < start]
            tail = [k + stop - start for k in kept if k >= start]
            rows = rows.take([*head, *range(start, stop), *tail])
            tags = _RowTags(len(head), tags.elemental, tuple(tags.others[k] for k in kept))
            matrix = (*matrix[:2], len(head), tuple(matrix[3][k] for k in kept))
        return ShannonLP(self.variables, self.closures, self.coords, rows, tags, self.reduced, matrix, self)

    def _kept(self, values: Mapping[int, Fraction]) -> Optional[list[int]]:
        """The candidates kept under the right sides `values` (by
        candidate, 0 where absent), or None when every one is kept."""
        seen: set = set()
        kept = []
        for k, twin in enumerate(self.twins):
            value = values.get(k, 0)
            if (twin, value) in seen or (self.droppable[k] and value == 0):
                continue
            seen.add((twin, value))
            kept.append(k)
        return None if len(kept) == len(self.twins) else kept


def _template(
    problem: NetworkProblem,
    randomized: tuple[str, ...],
    variables: Optional[Sequence[str]],
    rate_sessions: str,
    axioms: Sequence[tuple],
    reduce: bool,
) -> _Template:
    """The template of `build_shannon_lp`'s LP (see `_Template`)."""
    import numpy as np

    from entroflow.rows import RowStore

    errors = name_clashes(problem, randomized)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    vg = _ground_of(problem, bool(randomized), variables)
    ground = vg.ground
    n = ground.size
    if n > ELEMENTAL_GROUND_LIMIT:
        raise GroundTooLargeError(n, ELEMENTAL_GROUND_LIMIT)
    rules = _dependency_rules(problem, vg)
    closure = _closure_table(n, rules) if reduce else np.arange(1 << n, dtype=np.int64)
    closures = tuple(closure.tolist())
    coords = sorted(set(closures[1:]) | ({closures[0]} if closures[0] else set()))
    col_of = np.full(1 << n, -1, dtype=np.int64)
    col_of[coords] = np.arange(len(coords))

    def cl(mask: int) -> int:
        return closures[mask]

    ijk, block_masks, block_coef = _elemental_block(n, closure)
    candidates: list[tuple] = []  # (terms, sense, tag, source, droppable) of every other row, in order
    zeros: set = set()

    def push(coeffs: dict[int, Fraction], sense: str, tag: tuple, source: Optional[tuple] = None) -> None:
        coeffs = {m: c for m, c in coeffs.items() if c and m}
        if not coeffs:
            return  # trivially 0 (sense) rhs; nothing to assert for rhs = 0
        terms = tuple(sorted(coeffs.items()))
        droppable = sense == "ge" and _in_block(n, block_masks, block_coef, terms)
        if source is None:
            # Right side 0 whatever the values: an elemental row, or an
            # equal row before it, takes its place every time.
            if droppable or (sense, terms) in zeros:
                return
            zeros.add((sense, terms))
        candidates.append((terms, sense, tag, source, droppable))

    one = Fraction(1)
    # The closure of the empty set is a constant tuple; pin it to zero.
    if cl(0):
        push({cl(0): one}, "eq", ("causality", "nullary"))
    # The elemental block goes here, after the pin.
    start = len(candidates)
    # Causality and decodability: folded into the closure when reducing,
    # explicit equalities otherwise.
    if not reduce:
        for premise, target, tag in rules:
            coeffs = {}
            _add(coeffs, premise | target, one)
            _add(coeffs, premise, -one)
            push(coeffs, "eq", tag)
    # Capacities: every finite capacity along a message's edge chain binds.
    net = problem.network
    labels = set(ground.labels)
    for at, e in enumerate(net.edges):
        if e.capacity.is_unbounded:
            continue
        msg = net.message_of(e.id)
        if msg in labels and vg.kinds[msg] == "message":
            push({cl(ground.mask_of([msg])): one}, "le", ("capacity", e.id), ("capacity", at, 0))
    # Rates.
    rated = problem.requirement.sessions if rate_sessions == "all" else ()
    for at, s in sorted(enumerate(rated), key=lambda item: item[1].id):
        if s.id in labels:
            push({cl(ground.mask_of([s.id])): one}, "ge", ("rate", s.id), ("rate", at, 0))
    # Secrecy.
    for r, (tap, observed) in enumerate(zip(problem.wiretaps.taps, problem.wiretap_views)):
        names = tuple(tap.sources) + observed
        if not tap.sources or not observed or any(x not in labels for x in names):
            continue
        a = ground.mask_of(tap.sources)
        b = ground.mask_of(observed)
        coeffs = {}
        _add(coeffs, cl(a), one)
        _add(coeffs, cl(b), one)
        _add(coeffs, cl(a | b), -one)
        push(coeffs, "eq", ("secrecy", str(r)))
    # Mutual independence of sessions and randomness (one equality; the
    # polymatroid axioms propagate it to every sub-grouping).
    indep = [
        lab
        for lab in ground.labels
        if vg.kinds[lab] in ("session", "randomness")
    ]
    if len(indep) >= 2:
        coeffs = {}
        for lab in indep:
            _add(coeffs, cl(ground.mask_of([lab])), one)
        _add(coeffs, cl(ground.mask_of(indep)), -one)
        push(coeffs, "eq", ("independence",))
    # Caller axioms.
    for at, (name, expr, relation, _) in enumerate(axioms):
        raw, const = compile_expression(ground, expr)
        coeffs = {}
        for mask, c in raw.items():
            _add(coeffs, cl(mask), c)
        sense = {"=": "eq", ">=": "ge", "<=": "le"}[relation]
        push(coeffs, sense, ("axiom", name), ("axiom", at, const))

    def stored(part: list[tuple]) -> RowStore:
        return RowStore.from_rows(
            LinearRow({int(col_of[m]): c for m, c in terms}, sense, Fraction(0))
            for terms, sense, *_ in part
        )

    live = block_coef != 0
    ones = np.ones(len(live), dtype=np.int64)
    elemental = RowStore(
        np.concatenate(([0], np.cumsum(live.sum(axis=1)))),
        col_of[block_masks[live]],
        block_coef[live],
        -ones,  # every elemental row reads >= 0
        0 * ones,
        ones,
    )
    rows = RowStore.concat([stored(candidates[:start]), elemental, stored(candidates[start:])])
    for array in (rows.indptr, rows.col, rows.data, rows.sense, rows.rhs, rows.scale):
        array.setflags(write=False)  # shared with every instance
    tags = _RowTags(start, ijk, tuple(tag for _, _, tag, _, _ in candidates))
    sources = []
    for k, (_, _, _, source, _) in enumerate(candidates):
        if source is not None:
            row = k if k < start else k + tags.stop - start
            sources.append((k, row, int(rows.scale[row]), *source))
    first: dict = {}
    twins = tuple(first.setdefault((sense, terms), k) for k, (terms, sense, *_) in enumerate(candidates))
    droppable = tuple(d for *_, d in candidates)
    matrix = (n, closure.tobytes(), start, tuple((terms, sense) for terms, sense, *_ in candidates))
    return _Template(vg, closures, tuple(coords), reduce, rows, tags, matrix, tuple(sources), twins, droppable)


def build_shannon_lp(
    problem: NetworkProblem,
    include_randomness: Optional[bool] = None,
    variables: Optional[Sequence[str]] = None,
    rate_sessions: str = "all",
    axioms: Sequence[tuple[str, str, str, Union[Fraction, int, str]]] = (),
    reduce: bool = True,
) -> ShannonLP:
    """Shannon outer-bound LP for a problem (feasibility form, no objective).

    `axioms` entries are (name, expression, relation, value) with relation
    one of "=", ">=", "<="; they are imported with provenance tag "axiom"
    (used for subnetwork analysis and for extra, e.g. non-Shannon,
    inequalities).  `rate_sessions` is "all" to make every session
    rate a constraint or "none" to drop them all.

    Rows come in family order (the nullary pin, elemental, dependency
    equalities when not reducing, capacities, rates, secrecy,
    independence, axioms); a row equal to an earlier one is dropped, and
    so is a >= row with right side 0 that is an elemental row.

    What does not depend on rates, capacities or axiom values (the
    `_Template`) is built once per topology (`NetworkProblem.topology`)
    and build arguments, and kept in a process-wide store of at most
    `_TEMPLATE_CAP` bytes that drops the least recently used first; each
    call fills in the right sides.  The LP is the same whether the
    template was built by this call or an earlier one.  The `entroflow.lp`
    logger writes one debug record per call.
    """
    if rate_sessions not in ("all", "none"):
        raise ValueError(f"rate_sessions must be 'all' or 'none', not {rate_sessions!r}")
    import logging  # here, off the command line's import path

    begin = time.perf_counter()
    if include_randomness is None:
        include_randomness = bool(problem.randomness_nodes)
    randomized = problem.default_randomness_nodes if include_randomness else ()
    errors = validate(problem)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    key = (
        problem.topology,
        None if variables is None else tuple(variables),
        randomized,
        rate_sessions,
        reduce,
        tuple((name, expr, relation) for name, expr, relation, _ in axioms),
    )
    store = _template_store()
    template = store.get(key)
    reused = template is not None
    if not reused:
        template = _template(problem, randomized, variables, rate_sessions, axioms, reduce)
        store.put(key, template, template.nbytes)
    lp = template.instance(problem, axioms)
    logging.getLogger(__name__).debug(
        "build: %d rows, %d coordinates, template %s, %.4f s",
        len(lp.rows),
        len(lp.coords),
        "reused" if reused else "built",
        time.perf_counter() - begin,
    )
    return lp


# ----------------------------------------------------------------------
# solving


@dataclass(frozen=True)
class Certificate:
    status: str  # "optimal" | "infeasible" | "unbounded" | "feasible"
    value: Optional[Fraction]
    orientation: str  # "max" | "min" | "feasibility"
    # Each vector is a `rows.Sparse`: Fractions by index, read as a mapping.
    primal: Optional[Sparse]  # by closed mask
    duals: Optional[Sparse]  # by LP row, solver orientation
    farkas: Optional[Sparse]  # by LP row
    ray: Optional[Sparse]  # by closed mask
    pivots: tuple[tuple[int, int], ...]


@dataclass
class SolveStats:
    """Running counts of one ShannonSolver's work.

    `highs_runs` counts HiGHS solves (at most one per solve, none without
    scipy's HiGHS bindings), `simplex_iterations` their simplex iterations
    together with those of the solve HiGHS repeats to find a dual ray,
    `warm_starts` the runs that started from a basis (a previous run's or
    a stored one) and `stored_starts` those that started from a basis read
    from the process-wide store `highs.BASES`.  `highs_seconds` is the wall
    time spent inside `Highs.solve` and `Highs.farkas`; the rest of a
    solve's time is interpreter work (the model build, rounding, the
    exact checks).  `memo_hits` counts objectives answered from the memo;
    every other solve is settled by exactly one of `stored_point` (a
    feasibility solve, by a combination of the points stored in
    `highs.BASES`, no HiGHS run), `stored_dual` (a claim, by the dual
    stored there with the chain's feasibility point or a combination of
    the stored points, no HiGHS run), `float_cert`, `float_farkas` or
    `exact`.  Stats add up field by field (the sums of a contract's
    chains, say).
    """

    highs_runs: int = 0
    simplex_iterations: int = 0
    warm_starts: int = 0
    stored_starts: int = 0
    highs_seconds: float = 0.0
    memo_hits: int = 0
    stored_point: int = 0
    stored_dual: int = 0
    float_cert: int = 0
    float_farkas: int = 0
    exact: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))

    @property
    def solves(self) -> int:
        """Every solve, memo answers included."""
        settled = self.stored_point + self.stored_dual + self.float_cert + self.float_farkas + self.exact
        return self.memo_hits + settled


def _memo_key(objective: Mapping[int, Fraction]) -> tuple:
    return tuple(sorted((j, c) for j, c in objective.items() if c))


class ShannonSolver:
    """Exact solver bound to one LP, and the only way to ask it a question:
    `maximize` or `minimize` an expression string, or `feasibility`.
    Re-use one solver for a chain of objectives.

    A float solve over every row proposes each answer (an optimum, or the
    Farkas multipliers of an infeasible run's dual ray), and the proposal
    stands only after exact verification against every row.  The float
    solves go through one HiGHS handle that holds the model: it is built
    before the first HiGHS run, and each later objective changes only the
    costs and starts from the basis the previous solve left.  Inside
    `verify_proof_chain` a solve reads the entry stored for its matrix and
    cost in `highs.BASES` once, found by the matrix digest without a
    handle, and tries it under the exact check with no HiGHS run: a
    feasibility solve a combination of the stored points (settled by
    `stored_point`), a claim the stored dual paired with the chain's
    feasibility point, then such a combination (settled by
    `stored_dual`); the feasibility point, checked against every row when
    it settled, takes only the dual half of the check (`_paired`).
    Otherwise its run starts from the optimal basis of that entry, if
    there is one, and once the run's optimum verifies the entry takes its
    basis, verified dual and point in one write.  Direct
    calls of `maximize`, `minimize` and `feasibility` never touch that
    store.  When no proposal verifies, the exact simplex takes over with
    elemental rows activated lazily: each solve runs on the active subset,
    the answer is checked exactly against every remaining row, violated
    rows join in bulk, and the loop repeats.  A returned optimum is therefore an optimum
    of the full LP (inactive rows carry zero dual multipliers), and the
    final certificate, its multipliers re-keyed from active positions to
    LP rows, is re-verified against the complete row list.  Every path
    gives its vectors as `rows.Sparse` values; `Certificate` re-keys the
    point and ray from columns to closed masks (`Sparse.rekey`).  An
    objective already settled returns the same certificate from a memo.

    The solver is stateful and not shareable (across threads or otherwise
    concurrent users).  It may pass from one thread to another between two
    solves, as a contract chain does when it goes to the thread pool, but
    two threads never use it at once.  It holds the HiGHS handle with its
    basis, the memo, the feasibility point its chain verified, the matrix
    digest and rational right sides of a chain's LP, `active` (the
    activated rows), `simplex` (the exact solver with its basis, built on
    the first solve that needs it) and `stats`, the counts of its work.  Which certificate
    a solve returns can depend on the solves before it, but never its
    status or optimum.  So once a solver has run a proof chain, its later
    certificates (memo answers for the chain's objectives among them) can
    depend on the bases, duals and points the store held; those of a
    solver that has run no chain cannot.  The command line prints no
    certificate from a solver that ran a chain.
    """

    def __init__(self, lp: ShannonLP):
        self.lp = lp
        self.index = lp.coord_index()
        elemental = lp.elemental_rows
        self.active: list[int] = [*range(elemental.start), *range(elemental.stop, len(lp.rows))]
        self._inactive: list[int] = list(elemental)
        self._highs = None  # a highs.Highs, made before the first HiGHS run
        # The digest of `lp.matrix` and the rational right sides, read on the first chain solve.
        self._store: Optional[tuple[bytes, Sparse]] = None
        self._memo: dict[tuple, SimplexCertificate] = {}
        self._feasible: Optional[Sparse] = None  # the verified point of the chain's feasibility solve
        # The entry that last failed to settle a solve of a `ProofChain`
        # run as far as the store settles it, and the memo key of a solve
        # that run settled ahead of the call that asks it (see `_ahead_of`).
        self._tried = None
        self._ahead: Optional[tuple] = None
        self.simplex: Optional[ExactSimplex] = None
        self.stats = SolveStats()

    @property
    def all_rows(self) -> RowStore:
        """Every row of the LP over coordinate indices (a sequence of LinearRow)."""
        return self.lp.rows

    # ------------------------------------------------------------------
    # float proposals
    #
    # HiGHS proposes each answer over the full row set; a proposal is
    # rounded to small rationals and stands only after exact verification
    # against every row, so no floating-point value is ever trusted.  When
    # no proposal verifies, the rows HiGHS found on the optimal face seed
    # the exact solve.  The seed has no bearing on correctness: the exact
    # lazy loop re-checks every answer against every row and activates
    # anything the seed missed.

    _RATIONALIZE_LIMIT = 1 << 24

    def _cost(self, objective: Mapping[int, Fraction]):
        """The HiGHS cost vector of `objective`: HiGHS minimizes."""
        import numpy as np

        cost = np.zeros(len(self.lp.coords))
        for j, v in objective.items():
            cost[j] = -float(v)
        return cost

    def _float_solve(self, cost, entry=None):
        """The HiGHS proposal for the cost vector `cost` (a
        `highs.FloatResult`), or None without scipy or its HiGHS bindings.
        With `entry`, the `highs.Stored` entry a chain solve read, the run
        starts from its basis."""
        if self._highs is None:
            from entroflow import highs

            try:
                self._highs = highs.Highs(self.lp.rows, len(self.lp.coords))
            except ImportError:
                return None
        basis = None if entry is None else entry.basis
        start = time.perf_counter()
        res = self._highs.solve(cost, basis)
        self.stats.highs_seconds += time.perf_counter() - start
        self.stats.highs_runs += 1
        self.stats.simplex_iterations += res.nit
        self.stats.warm_starts += res.warm
        self.stats.stored_starts += basis is not None
        return res

    def _rational(self, values) -> Sparse:
        """Each entry of a float array above 1e-11 in magnitude, by index,
        rounded to the nearest rational with denominator at most 2^24, in
        the integer sparse form `rows.Sparse` (indices ascending, integer
        numerators, one denominator); an entry that rounds to 0 is left out.

        An entry within 2^-26 of an integer k is k itself, without
        `limit_denominator`: every other fraction with denominator at most
        2^24 lies at least 2^-24 from k, so more than 2^-26 from the entry,
        and k is the nearest.  (The difference to the nearest integer is
        exact in floating point.)  Those entries are scaled with numpy;
        only the others go through `limit_denominator`.
        """
        import numpy as np

        from entroflow.rows import Sparse

        picked = np.flatnonzero(np.abs(values) > 1e-11)
        kept = values[picked]
        nearest = np.rint(kept)
        # Written so that a nan or an infinity goes to limit_denominator, which raises.
        rest = np.flatnonzero(~(np.abs(kept - nearest) <= 2.0**-26))
        parts = [Fraction(v).limit_denominator(self._RATIONALIZE_LIMIT) for v in kept[rest].tolist()]
        den = math.lcm(*(f.denominator for f in parts))
        # Every rounded entry lies within 1 of its nearest integer.
        if (int(np.abs(nearest).max(initial=0)) + 1) * den < 1 << 62:
            num = nearest.astype(np.int64) * den
        else:
            num = np.array([int(k) * den for k in nearest.tolist()], dtype=object)
        num[rest] = [f.numerator * (den // f.denominator) for f in parts]
        live = num != 0
        return Sparse(picked[live], num[live], den)

    def _verified(
        self, objective: Mapping[int, Fraction], cert: SimplexCertificate
    ) -> Optional[SimplexCertificate]:
        """The certificate, if it passes exact verification."""
        try:
            verify_certificate(len(self.lp.coords), self.lp.rows, dict(objective), cert)
        except CertificateError:
            return None
        return cert

    def _float_certificate(
        self, objective: Mapping[int, Fraction], res
    ) -> Optional[SimplexCertificate]:
        """The optimum HiGHS proposed (primal point and row duals), rationalized,
        if it passes exact verification."""
        x = self._rational(res.x)
        cert = SimplexCertificate("optimal", x.dot(objective), x, self._rational(res.row_dual), None, None, ())
        return self._verified(objective, cert)

    def _float_farkas(self) -> Optional[SimplexCertificate]:
        """The infeasibility HiGHS found (the dual ray of its last run, as
        Farkas multipliers), rationalized, if it passes exact verification."""
        start = time.perf_counter()
        farkas, nit = self._highs.farkas()
        self.stats.highs_seconds += time.perf_counter() - start
        self.stats.simplex_iterations += nit
        if farkas is None:
            return None
        from entroflow.rows import Sparse

        cert = SimplexCertificate(
            "infeasible", None, Sparse.of({}), None, self._rational(farkas), None, ()
        )
        return self._verified({}, cert)

    def _float_seed(self, res) -> list[int]:
        """Inactive rows on the optimal face HiGHS found: inequality rows in
        its dual support or tight at its vertex."""
        if res is None or res.status != 0:
            return []
        import numpy as np

        face = (self.lp.rows.sense != 0) & (
            (np.abs(res.row_dual) > 1e-9) | (np.abs(res.row_slack) < 1e-7)
        )
        inactive = np.zeros(len(face), dtype=bool)
        inactive[self._inactive] = True
        return np.flatnonzero(face & inactive).tolist()

    def _violated(self, x: Sparse, ray: bool = False) -> list[int]:
        import numpy as np

        inactive = np.array(self._inactive, dtype=np.int64)
        hit = self.lp.rows.violated(len(self.lp.coords), x, ray)
        return inactive[hit[inactive]].tolist()

    def _activate(self, rows: list[int]) -> None:
        self.active.extend(rows)
        taken = set(rows)
        self._inactive = [i for i in self._inactive if i not in taken]
        self.simplex = None

    def _solve_max(
        self, objective: Mapping[int, Fraction], bases=None, stored_only: bool = False
    ) -> Optional[SimplexCertificate]:
        """The verified maximum of `objective`, from the memo or settled
        (`_settle`); None when `stored_only` and the store cannot settle it."""
        import logging  # here, off the command line's import path

        log = logging.getLogger(__name__)
        key = _memo_key(objective)
        cert = self._memo.get(key)
        if cert is not None:
            if key == self._ahead:
                self._ahead = None  # settled ahead, and counted and logged then
                return cert
            self.stats.memo_hits += 1
            log.debug("solve: %s, settled by memo", cert.status)
            return cert
        stats, before, start = self.stats, replace(self.stats), time.perf_counter()
        settled = self._settle(objective, bases, stored_only)
        if settled is None:
            return None
        cert, path = settled
        setattr(stats, path, getattr(stats, path) + 1)
        self._memo[key] = cert
        if bases is not None and not objective and cert.status == "optimal":
            self._feasible = cert.x
        log.debug(
            "solve: %s, settled by %s, %d HiGHS runs (%d warm, %d from stored bases), "
            "%d simplex iterations, %.3f s",
            cert.status,
            path,
            stats.highs_runs - before.highs_runs,
            stats.warm_starts - before.warm_starts,
            stats.stored_starts - before.stored_starts,
            stats.simplex_iterations - before.simplex_iterations,
            time.perf_counter() - start,
        )
        return cert

    def _settle(
        self, objective: Mapping[int, Fraction], bases, stored_only: bool = False
    ) -> Optional[tuple[SimplexCertificate, str]]:
        """A verified certificate and the path that settled it (a `SolveStats`
        field).  With `bases`, the entry stored for this matrix and cost is
        read once and tried before HiGHS runs (`_stored`), the run starts
        from its basis, and a verified float optimum joins it: its basis,
        dual, right sides and point.  With `stored_only`, a solve the entry
        cannot settle returns None instead; asked again, that solve tries
        the entry only if another chain has replaced it since (entries are
        replaced, never changed)."""
        cost = self._cost(objective)
        entry = None
        if bases is not None:
            from entroflow import highs

            if self._store is None:
                self._store = self.lp.digest, highs.right_sides(self.lp.rows)
            key = highs.entry_key(self._store[0], cost)
            entry = bases.get(key)
            if entry is not None and entry is not self._tried:
                settled = self._stored(objective, entry, bases, key)
                if settled is not None:
                    return settled
            if stored_only:
                self._tried = entry
                return None
        res = self._float_solve(cost, entry)
        if res is not None:
            if res.status == 0:
                fast = self._float_certificate(objective, res)
                if fast is not None:
                    if bases is not None:
                        statuses = len(self.lp.coords) + len(self.lp.rows)
                        basis = self._highs.basis()  # the run's: nothing has run since
                        highs.join(bases, key, statuses, self._store[1], fast.x, basis, fast.duals)
                    return fast, "float_cert"
            elif res.status == 2:
                fast = self._float_farkas()
                if fast is not None:
                    return fast, "float_farkas"
        return self._exact(objective, res), "exact"

    def _stored(
        self, objective: Mapping[int, Fraction], entry, bases, key: bytes
    ) -> Optional[tuple[SimplexCertificate, str]]:
        """The optimum of `objective` from `entry`, the `highs.Stored` entry
        under `key` in `bases`, and the path that settled it; None when no
        pair passes exact verification (`_paired`).

        The dual is the entry's for a claim and the empty dual for the
        zero-cost feasibility objective.  A claim pairs it with the chain's
        feasibility point and then with a combination of the entry's
        generators (`highs.combination`); a feasibility solve with the
        combination only.  A dual's feasibility does not depend on the
        right sides, so a dual verified for other rates or capacities still
        bounds the maximum; a feasible point that attains the bound is
        optimal.  A new combination that settles the solve joins the entry,
        so the next solve on these right sides finds it as it is.
        """
        from entroflow import highs
        from entroflow.rows import Sparse

        path = "stored_dual" if objective else "stored_point"
        dual = entry.dual if objective else Sparse.of({})
        if objective:
            cert = self._paired(objective, self._feasible, dual)
            if cert is not None:
                return cert, path
        rhs = self._store[1]
        x = highs.combination(entry.points, rhs)
        cert = self._paired(objective, x, dual)
        if cert is None:
            return None
        if not any(x is point for _, point in entry.points):
            highs.join(bases, key, len(self.lp.coords) + len(self.lp.rows), rhs, x)
        return cert, path

    def _paired(
        self, objective: Mapping[int, Fraction], x: Optional[Sparse], dual: Sparse
    ) -> Optional[SimplexCertificate]:
        """The optimum that the point `x` and `dual` certify, if they pass
        exact verification; None without a point.

        The check is `verify_certificate`'s, in its two halves.  The
        chain's feasibility point has passed the point half against these
        rows already, and a solver's rows never change, so that point
        takes the dual half alone: objective indices, dual signs, the
        dual-feasibility combination, and the bound against its value.
        Every other point (a combination of stored points) takes both.
        """
        if x is None:
            return None
        value = x.dot(objective)
        n, rows = len(self.lp.coords), self.lp.rows
        try:
            if x is not self._feasible:
                verify_point(n, rows, objective, x, value)
            verify_dual(n, rows, objective, dual, value)
        except CertificateError:
            return None
        return SimplexCertificate("optimal", value, x, dual, None, None, ())

    def _exact(self, objective: Mapping[int, Fraction], res) -> SimplexCertificate:
        seed = self._float_seed(res)
        if seed:
            self._activate(seed)
        while True:
            if self.simplex is None:
                self.simplex = ExactSimplex(
                    len(self.lp.coords), self.lp.rows.take(self.active), verify=False
                )
            cert = self.simplex.maximize(objective)
            if cert.status == "optimal":
                grow = self._violated(cert.x)
            elif cert.status == "unbounded":
                grow = self._violated(cert.ray, ray=True)
                if not grow:
                    # The base point must clear the inactive rows too.
                    grow = self._violated(cert.x)
            else:
                grow = []
            if grow:
                self._activate(grow)
                continue
            # Multipliers by LP row, not by position in `active`.
            active = self.active
            out = replace(
                cert,
                duals=None if cert.duals is None else cert.duals.rekey(active),
                farkas=None if cert.farkas is None else cert.farkas.rekey(active),
            )
            verify_certificate(len(self.lp.coords), self.lp.rows, dict(objective), out)
            return out

    def _to_cols(self, coeffs: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Closed-mask coefficients (as `ShannonLP.compile` returns them) by column."""
        return {self.index[m]: c for m, c in coeffs.items()}

    def _wrap(
        self, cert: SimplexCertificate, orientation: str, constant: Fraction, negate: bool
    ) -> Certificate:
        value = None
        if cert.status == "optimal":
            value = (-cert.value if negate else cert.value) + constant
        coords = self.lp.coords
        return Certificate(
            status=cert.status,
            value=value,
            orientation=orientation,
            primal=cert.x.rekey(coords) if cert.status != "infeasible" else None,
            duals=cert.duals,
            farkas=cert.farkas,
            ray=None if cert.ray is None else cert.ray.rekey(coords),
            pivots=cert.pivots,
        )

    # `_bases` is the store (`highs.BASES`) the solve reads and writes;
    # only `verify_proof_chain` passes one.

    def _objective(
        self, orientation: str, expression: Optional[str]
    ) -> tuple[dict[int, Fraction], Fraction]:
        """The column objective that `maximize` ("max"), `minimize` ("min")
        or `feasibility` (no expression) maximizes, and the expression's
        constant."""
        if expression is None:
            return {}, Fraction(0)
        coeffs, const = self.lp.compile(expression)
        cols = self._to_cols(coeffs)
        return (cols if orientation == "max" else {j: -c for j, c in cols.items()}), const

    def _ahead_of(self, orientation: str, expression: Optional[str], bases) -> bool:
        """Whether the memo or the entry of `bases` settles the solve that
        `maximize`, `minimize` or `feasibility` would ask (no HiGHS run, no
        exact solve).  A solve this settles is counted, logged and kept in
        the memo now, and the call that asks it next answers from the memo
        without counting it again."""
        objective, _ = self._objective(orientation, expression)
        key = _memo_key(objective)
        if key in self._memo:
            return True
        if self._solve_max(objective, bases, stored_only=True) is None:
            return False
        self._ahead = key
        return True

    def maximize(self, objective: str, *, _bases=None) -> Certificate:
        """The exact maximum of an expression (see `compile_expression`)."""
        cols, const = self._objective("max", objective)
        return self._wrap(self._solve_max(cols, _bases), "max", const, negate=False)

    def minimize(self, objective: str, *, _bases=None) -> Certificate:
        """The exact minimum of an expression (see `compile_expression`)."""
        cols, const = self._objective("min", objective)
        return self._wrap(self._solve_max(cols, _bases), "min", const, negate=True)

    def feasibility(self, *, _bases=None) -> Certificate:
        """Status "feasible" with a point, or "infeasible" with Farkas multipliers."""
        cert = self._wrap(self._solve_max({}, _bases), "feasibility", Fraction(0), negate=False)
        if cert.status == "infeasible":
            return cert
        return replace(cert, status="feasible", value=None, farkas=None, ray=None)


@dataclass(frozen=True)
class Claim:
    name: str
    expression: str
    relation: str  # "=" | ">=" | "<="
    value: Fraction

    @classmethod
    def of(cls, name: str, expression: str, relation: str, value) -> "Claim":
        if relation not in ("=", ">=", "<="):
            raise ValueError(f"unknown relation {relation!r}")
        if not isinstance(expression, str):
            raise ValueError(f"claim {name!r}: the expression {expression!r} is not a string")
        return cls(name, expression, relation, as_fraction(value))


@dataclass(frozen=True)
class ChainVerdict:
    claim: Claim
    status: str  # "forced" | "consistent" | "contradicted" | "vacuous"
    lower: Optional[Fraction]  # exact min of the expression, None if unbounded/skipped
    upper: Optional[Fraction]  # exact max, None if unbounded/skipped

    @property
    def detail(self) -> str:
        """The claim, its verdict and the exact range, without the claim's name."""
        if self.status == "vacuous":
            rng = "(LP infeasible)"
        else:
            rng = f"[{self.lower}, {self.upper if self.upper is not None else 'unbounded'}]"
        return f"{self.claim.expression} {self.claim.relation} {self.claim.value} -> {self.status} {rng}"

    def describe(self) -> str:
        return f"{self.claim.name}: {self.detail}"


@dataclass(frozen=True)
class ChainReport:
    verdicts: tuple[ChainVerdict, ...]

    @property
    def all_forced(self) -> bool:
        return all(v.status == "forced" for v in self.verdicts)

    def describe(self) -> str:
        return "\n".join(v.describe() for v in self.verdicts)


def verify_proof_chain(
    solver: ShannonSolver, claims: Iterable[Union[Claim, tuple]]
) -> ChainReport:
    """Per-claim verdicts from the claim expression's exact min and max.

    "forced" means every feasible entropy point satisfies the claim (an
    "=" claim: min = max = value); "consistent" means some do and some do
    not; "contradicted" means none do; "vacuous" means the LP is
    infeasible.

    The chain's solves read and write the store `highs.BASES` (see the
    module docstring): each tries the points and dual stored for its
    matrix and cost, checked again exactly, before it runs HiGHS from the
    stored basis.  Nothing stored changes a status or an exact optimum,
    the only things a chain reports, and the chain reads only those: its
    certificates' Fraction maps are never built.  `ProofChain` runs the
    same solves in two parts.
    """
    return ProofChain(solver, claims).finish()


def _proof_steps(solver: ShannonSolver, claims: Iterable[Union[Claim, tuple]], bases):
    """The solves of `verify_proof_chain`, one at a time, on the store
    `bases`: before each, the generator yields its (orientation,
    expression) for `ShannonSolver._ahead_of`; it returns the report."""
    verdicts: list[ChainVerdict] = []
    yield "feasibility", None
    feas = solver.feasibility(_bases=bases)
    for claim in claims:
        if not isinstance(claim, Claim):
            claim = Claim.of(*claim)
        if feas.status == "infeasible":
            verdicts.append(ChainVerdict(claim, "vacuous", None, None))
            continue
        yield "max", claim.expression
        hi_cert = solver.maximize(claim.expression, _bases=bases)
        yield "min", claim.expression
        lo_cert = solver.minimize(claim.expression, _bases=bases)
        hi = hi_cert.value if hi_cert.status == "optimal" else None
        lo = lo_cert.value if lo_cert.status == "optimal" else None
        # An unbounded side reads as an infinite bound in the comparisons.
        low = -math.inf if lo is None else lo
        high = math.inf if hi is None else hi
        v = claim.value
        forced = {"=": low == high == v, ">=": low >= v, "<=": high <= v}[claim.relation]
        contradicted = {"=": not low <= v <= high, ">=": high < v, "<=": low > v}[claim.relation]
        status = "forced" if forced else "contradicted" if contradicted else "consistent"
        verdicts.append(ChainVerdict(claim, status, lo, hi))
    return ChainReport(tuple(verdicts))


class ProofChain:
    """The solves of `verify_proof_chain` on one solver, run in two parts.

    `settle_stored` asks them in order as long as the solver's memo and
    the entries of `highs.BASES` settle them, and stops just before the
    first one they cannot settle, so it runs no HiGHS and no exact solve.
    `finish` asks the rest, from the solve it stopped at, and sets
    `report`.  The two may run on different threads, one after the other;
    each solve is asked, counted and logged once.
    """

    def __init__(self, solver: ShannonSolver, claims: Iterable[Union[Claim, tuple]]):
        from entroflow.highs import BASES  # numpy with it, off the command line's import path

        self.solver = solver
        self.report: Optional[ChainReport] = None
        self._bases = BASES
        self._steps = _proof_steps(solver, claims, BASES)
        self._next: Optional[tuple] = None  # the solve the chain stopped before

    def _run(self, stored_only: bool) -> None:
        try:
            if self._next is None:
                self._next = next(self._steps)
            while not stored_only or self.solver._ahead_of(*self._next, self._bases):
                self._next = next(self._steps)
        except StopIteration as done:
            self.report = done.value

    def settle_stored(self) -> Optional[ChainReport]:
        """The report if the memo and the store settle every solve, else None."""
        self._run(stored_only=True)
        return self.report

    def finish(self) -> ChainReport:
        """The report, after asking every solve still to be asked."""
        if self.report is None:
            self._run(stored_only=False)
        return self.report


# ----------------------------------------------------------------------
# export and evaluation


def export_text(lp: ShannonLP) -> str:
    ground = lp.ground
    lines = [
        "# Shannon LP over " + ", ".join(ground.labels),
        f"# coordinates: {len(lp.coords)} closed subsets"
        + ("" if lp.reduced else " (unreduced)"),
    ]
    op = {"ge": ">=", "le": "<=", "eq": "="}
    for i, row in enumerate(lp.rows):
        terms = ((lp.coords[j], c) for j, c in row.coeffs.items())
        body = " ".join(_signed_terms(ground, terms)).lstrip("+ ").strip()
        lines.append(f"{body} {op[row.sense]} {row.rhs}  # {':'.join(lp.tag(i))}")
    return "\n".join(lines) + "\n"


def satisfies(lp: ShannonLP, dist: JointDistribution) -> tuple[bool, list[str]]:
    """Evaluate every constraint at a distribution's entropy point, within
    `entropy.DEFAULT_TOL` (the entropies are floats).

    Variable labels must name variables of the distribution (sessions,
    edge messages, and V_<node> randomness, as produced by
    `induced_joint_distribution`).
    """
    ground = lp.ground
    cache: dict[int, float] = {}

    def h(j: int) -> float:
        if j not in cache:
            cache[j] = subset_entropy(dist, ground.labels_of(lp.coords[j]))
        return cache[j]

    failures = []
    for i, row in enumerate(lp.rows):
        value = sum(c * h(j) for j, c in row.coeffs.items())
        above = row.sense == "le" or _at_least(value, row.rhs)
        below = row.sense == "ge" or _at_least(row.rhs, value)
        if not (above and below):
            failures.append(":".join(lp.tag(i)))
    return not failures, failures


def certificate_to_json(lp: ShannonLP, cert: Certificate) -> str:
    ground = lp.ground
    doc: dict = {
        "status": cert.status,
        "orientation": cert.orientation,
        "value": str(cert.value) if cert.value is not None else None,
    }
    if cert.primal is not None:
        doc["primal"] = {
            ground.format_subset(m): str(v) for m, v in sorted(cert.primal.items())
        }
    for key, multipliers in (("duals", cert.duals), ("farkas", cert.farkas)):
        if multipliers is not None:
            doc[key] = {":".join(lp.tag(i)): str(y) for i, y in sorted(multipliers.items())}
    if cert.ray is not None:
        doc["ray"] = {ground.format_subset(m): str(v) for m, v in sorted(cert.ray.items())}
    doc["pivots"] = len(cert.pivots)
    return json.dumps(doc, indent=2)
