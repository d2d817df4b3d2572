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
integer key per row.  A block depends only on the ground size and the
closure table, so it is kept, read-only, in a byte-capped store that every
later LP on the same topology reads (`_elemental_block`); provenance tags
stay compact and are formatted only when `ShannonLP.tag`, `export_text`
or `certificate_to_json` asks for them.  Every reader works from the
store: the HiGHS model, the exact verifier, the exact simplex and the
exports.

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
and writer.  It reads the matrix digest and the rational right sides once
per LP, and each chain solve reads its entry once, without a HiGHS
handle.  An entry holds the optimal basis of a HiGHS run, the verified
rational row duals of the solve it settled, and its generators: the
right sides of the solves settled there, with their verified points.
The right sides enter every row linearly, so a nonnegative combination of
stored points is feasible for the same combination of their right sides.
Before HiGHS runs, a feasibility solve combines the stored points whose
right sides add up to its own (`highs.combination`); a claim pairs the
stored dual with the chain's feasibility point, then with such a
combination.  Each candidate goes through the full exact check against
the current rows and objective: a dual stays feasible under new right
sides, so a feasible point that attains its bound is optimal.  Only when
every candidate fails does the solver build its HiGHS handle and run it
from the stored basis; once that run's optimum verifies, the entry takes
the new basis, dual and generator in one write.  The store holds at most
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
    """

    variables: VariableGround
    closures: tuple[int, ...]  # closure of every mask (index = mask)
    coords: tuple[int, ...]  # distinct closed masks, ascending
    rows: RowStore
    tags: _RowTags
    reduced: bool
    matrix: tuple = field(repr=False, compare=False)

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

    def coord_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.coords)}

    def compile(self, expr: str) -> tuple[dict[int, Fraction], Fraction]:
        """Compile an expression to closed-coordinate coefficients."""
        raw, const = compile_expression(self.ground, expr)
        out: dict[int, Fraction] = {}
        for mask, c in raw.items():
            cl = self.closures[mask]
            if cl:
                out[cl] = out.get(cl, Fraction(0)) + c
        return {m: c for m, c in out.items() if c}, const


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


# The most bytes of elemental blocks `_elemental_store` holds: enough for
# the few closure tables of one gadget (a 10-variable block is about
# 0.2 MB), small next to a process that builds LPs of many topologies.
_ELEMENTAL_CAP = 1 << 20


@functools.cache
def _elemental_store():
    """The process-wide store of elemental blocks by ground size and closure
    table (a `highs.LruStore` sized in bytes), made on first use."""
    from entroflow.highs import LruStore  # numpy with it, off the command line's import path

    return LruStore(_ELEMENTAL_CAP)


def _elemental_key(n: int, closure) -> tuple[int, bytes]:
    """What an elemental block depends on: the ground size and the closure table."""
    import numpy as np

    return n, np.asarray(closure, dtype=np.int64).tobytes()


def _elemental_block(n: int, closure):
    """The elemental rows mapped through the closure.

    Each row's four masks (see `entropy._elemental_masks`) are closed,
    terms on the empty set dropped, equal masks merged and zero terms
    dropped; empty rows go, and of equal rows only the first stays.
    Returns the kept rows' (i, j, K) columns and their closed masks and
    coefficients, four per row: the nonzero terms first, masks ascending,
    a dropped term read as mask 2^n with coefficient 0.

    The result depends on n and the closure table only, so it is kept in
    `_elemental_store` under both: read-only arrays, int16 columns and
    masks (n <= 14) and int8 coefficients.  Every LP on a topology seen
    before reuses it.
    """
    import numpy as np

    key = _elemental_key(n, closure)
    memo = _elemental_store()
    block = memo.get(key)
    if block is not None:
        return block
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
    memo.put(key, block, len(key[1]) + sum(part.nbytes for part in block))
    return block


def _in_block(n: int, block_masks, block_coef, terms: tuple) -> bool:
    """Whether `terms` ((mask, coefficient) pairs, masks ascending) are the
    terms of a row of the elemental block (see `_elemental_block`)."""
    if len(terms) > 4 or any(c.denominator != 1 or abs(c) > 2 for _, c in terms):
        return False  # block rows have at most 4 terms, coefficients in -2..2
    masks, coef = zip(*terms, *[(1 << n, 0)] * (4 - len(terms)))
    hit = (block_masks == masks) & (block_coef == [int(c) for c in coef])
    return bool(hit.all(axis=1).any())


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
    independence, axioms); a row equal to an earlier one is dropped.
    """
    if rate_sessions not in ("all", "none"):
        raise ValueError(f"rate_sessions must be 'all' or 'none', not {rate_sessions!r}")
    import numpy as np

    from entroflow.rows import RowStore

    if include_randomness is None:
        include_randomness = bool(problem.randomness_nodes)
    randomized = problem.default_randomness_nodes if include_randomness else ()
    errors = validate(problem) or name_clashes(problem, randomized)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    vg = _ground_of(problem, include_randomness, variables)
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
    rows: list[tuple] = []  # (terms, sense, rhs, tag) of every other row, in order
    seen: set = set()

    def push(coeffs: dict[int, Fraction], sense: str, rhs: Fraction, tag: tuple) -> None:
        coeffs = {m: c for m, c in coeffs.items() if c and m}
        if not coeffs:
            return  # trivially 0 (sense) rhs; nothing to assert for rhs = 0
        terms = tuple(sorted(coeffs.items()))
        key = (sense, rhs, terms)
        if key in seen:
            return
        if sense == "ge" and rhs == 0 and _in_block(n, block_masks, block_coef, terms):
            return
        seen.add(key)
        rows.append((terms, sense, rhs, tag))

    one = Fraction(1)
    # The closure of the empty set is a constant tuple; pin it to zero.
    if cl(0):
        push({cl(0): one}, "eq", Fraction(0), ("causality", "nullary"))
    # The elemental block goes here, after the pin.
    start = len(rows)
    # Causality and decodability: folded into the closure when reducing,
    # explicit equalities otherwise.
    if not reduce:
        for premise, target, tag in rules:
            coeffs = {}
            _add(coeffs, premise | target, one)
            _add(coeffs, premise, -one)
            push(coeffs, "eq", Fraction(0), tag)
    # Capacities: every finite capacity along a message's edge chain binds.
    net = problem.network
    labels = set(ground.labels)
    for e in net.edges:
        if e.capacity.is_unbounded:
            continue
        msg = net.message_of(e.id)
        if msg in labels and vg.kinds[msg] == "message":
            push(
                {cl(ground.mask_of([msg])): one},
                "le",
                e.capacity.value,
                ("capacity", e.id),
            )
    # Rates.
    rated = problem.requirement.sessions if rate_sessions == "all" else ()
    for s in sorted(rated, key=lambda s: s.id):
        if s.id in labels:
            push({cl(ground.mask_of([s.id])): one}, "ge", s.rate, ("rate", s.id))
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
        push(coeffs, "eq", Fraction(0), ("secrecy", str(r)))
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
        push(coeffs, "eq", Fraction(0), ("independence",))
    # Caller axioms.
    for name, expr, relation, value in axioms:
        raw, const = compile_expression(ground, expr)
        coeffs = {}
        for mask, c in raw.items():
            _add(coeffs, cl(mask), c)
        rhs = as_fraction(value) - const
        sense = {"=": "eq", ">=": "ge", "<=": "le"}[relation]
        push(coeffs, sense, rhs, ("axiom", name))

    def stored(part: list[tuple]) -> RowStore:
        return RowStore.from_rows(
            LinearRow({int(col_of[m]): c for m, c in terms}, sense, rhs)
            for terms, sense, rhs, _ in part
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
    return ShannonLP(
        variables=vg,
        closures=closures,
        coords=tuple(coords),
        rows=RowStore.concat([stored(rows[:start]), elemental, stored(rows[start:])]),
        tags=_RowTags(start, ijk, tuple(tag for *_, tag in rows)),
        reduced=reduce,
        matrix=(*_elemental_key(n, closure), start, tuple((terms, sense) for terms, sense, *_ in rows)),
    )


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
    handle, and tries it under the full exact check with no HiGHS run: a
    feasibility solve a combination of the stored points (settled by
    `stored_point`), a claim the stored dual paired with the chain's
    feasibility point, then such a combination (settled by
    `stored_dual`).  Otherwise its run starts from the optimal basis of
    that entry, if there is one, and once the run's optimum verifies the
    entry takes its basis, verified dual and point in one write.  Direct
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
    concurrent users): it holds the HiGHS handle with its basis, the memo,
    the feasibility point its chain verified, the matrix digest and
    rational right sides of a chain's LP, `active` (the activated rows),
    `simplex` (the exact solver with its basis, built on the first solve
    that needs it) and `stats`, the counts of its work.  Which certificate
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

    def _solve_max(self, objective: Mapping[int, Fraction], bases=None) -> SimplexCertificate:
        import logging  # here, off the command line's import path

        log = logging.getLogger(__name__)
        key = tuple(sorted((j, c) for j, c in objective.items() if c))
        cert = self._memo.get(key)
        if cert is not None:
            self.stats.memo_hits += 1
            log.debug("solve: %s, settled by memo", cert.status)
            return cert
        stats, before, start = self.stats, replace(self.stats), time.perf_counter()
        cert, path = self._settle(objective, bases)
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

    def _settle(self, objective: Mapping[int, Fraction], bases) -> tuple[SimplexCertificate, str]:
        """A verified certificate and the path that settled it (a `SolveStats`
        field).  With `bases`, the entry stored for this matrix and cost is
        read once and tried before HiGHS runs (`_stored`), the run starts
        from its basis, and a verified float optimum joins it: its basis,
        dual, right sides and point."""
        cost = self._cost(objective)
        entry = None
        if bases is not None:
            from entroflow import highs

            if self._store is None:
                self._store = highs.matrix_digest(self.lp.matrix), highs.right_sides(self.lp.rows)
            key = highs.entry_key(self._store[0], cost)
            entry = bases.get(key)
            if entry is not None:
                settled = self._stored(objective, entry, bases, key)
                if settled is not None:
                    return settled
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
        pair passes exact verification against every row and the objective.

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
        exact verification; None without a point."""
        if x is None:
            return None
        cert = SimplexCertificate("optimal", x.dot(objective), x, dual, None, None, ())
        return self._verified(objective, cert)

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

    def maximize(self, objective: str, *, _bases=None) -> Certificate:
        """The exact maximum of an expression (see `compile_expression`)."""
        coeffs, const = self.lp.compile(objective)
        cert = self._solve_max(self._to_cols(coeffs), _bases)
        return self._wrap(cert, "max", const, negate=False)

    def minimize(self, objective: str, *, _bases=None) -> Certificate:
        """The exact minimum of an expression (see `compile_expression`)."""
        coeffs, const = self.lp.compile(objective)
        cert = self._solve_max({m: -c for m, c in self._to_cols(coeffs).items()}, _bases)
        return self._wrap(cert, "min", const, negate=True)

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
    certificates' Fraction maps are never built.
    """
    from entroflow.highs import BASES  # numpy with it, off the command line's import path

    verdicts: list[ChainVerdict] = []
    feas = solver.feasibility(_bases=BASES)
    for claim in claims:
        if not isinstance(claim, Claim):
            claim = Claim.of(*claim)
        if feas.status == "infeasible":
            verdicts.append(ChainVerdict(claim, "vacuous", None, None))
            continue
        hi_cert = solver.maximize(claim.expression, _bases=BASES)
        lo_cert = solver.minimize(claim.expression, _bases=BASES)
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
