"""Network codes: exact evaluation, admissibility, and bounded search.

A code fixes a finite alphabet per source and per distinct edge message,
an optional rational randomness pmf per node, and one local encoder table
per non-forwarding edge.  Encoder inputs are exactly the variables
incident to the edge's tail (sessions originating there, incoming edges,
the tail's randomness if any), in a canonical order: sessions by id,
incoming edges by ancestral position, randomness last.

The variable namespace lives on `network.NetworkProblem`, which the
Shannon LP reads too: a session is named by its id, a distinct message by
its edge id, and a node's randomness by `V_<node>`.  The problem derives
each encoder's inputs, each sink's inputs and each wiretap's view once;
codes and the search look input values up by those names.

All admissibility decisions are exact.  Zero-error decoding and perfect
secrecy are decided check by check, each on the exact marginal of its own
variables: the product of the sources and randomness those variables
depend on, where a message depends on an encoder input only if its table
varies with that input.  `DEFAULT_OUTCOME_BUDGET` bounds each such
product, not the product of every source and randomness support, which
`induced_joint_distribution` enumerates.  The alphabet-versus-capacity and
rate checks compare integer powers, never logarithms.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Union

from entroflow.entropy import (
    JointDistribution,
    _json_object,
    _json_int,
    as_fraction,
    check_independence,
)
from entroflow.network import (
    Capacity,
    InputRef,
    NetworkProblem,
    ancestral_order,
    name_clashes,
    randomness_variable,
    validate,
)

__all__ = [
    "DEFAULT_OUTCOME_BUDGET",
    "DEFAULT_SEARCH_BUDGET",
    "BudgetExceededError",
    "NodeRandomness",
    "LocalEncoder",
    "NetworkCode",
    "Verdict",
    "CodeBuilder",
    "DerandomizeResult",
    "SearchOutcome",
    "alphabet_fits_capacity",
    "alphabet_meets_rate",
    "minimal_source_alphabet",
    "evaluate",
    "induced_joint_distribution",
    "check_zero_error",
    "check_secrecy",
    "check_admissible",
    "derandomize",
    "exhaustive_search",
    "code_to_json",
    "code_from_json",
]

DEFAULT_OUTCOME_BUDGET = 10 ** 7
DEFAULT_SEARCH_BUDGET = 10 ** 7


class BudgetExceededError(RuntimeError):
    pass


def alphabet_fits_capacity(size: int, capacity: Capacity) -> bool:
    """Exact check of size <= 2**capacity for a rational capacity p/q."""
    if size < 1:
        raise ValueError("alphabet sizes are at least 1")
    if capacity.is_unbounded:
        return True
    p, q = capacity.value.numerator, capacity.value.denominator
    return size ** q <= 2 ** p


def alphabet_meets_rate(size: int, rate: Fraction) -> bool:
    """Exact check of size >= 2**rate for a rational rate p/q."""
    if size < 1:
        raise ValueError("alphabet sizes are at least 1")
    p, q = rate.numerator, rate.denominator
    if p < 0:
        return True
    return size ** q >= 2 ** p


def minimal_source_alphabet(rate: Fraction) -> int:
    size = 1
    while not alphabet_meets_rate(size, rate):
        size += 1
    return size


@dataclass(frozen=True)
class NodeRandomness:
    node: str
    pmf: tuple[Fraction, ...]  # over symbols 0..len-1

    def __post_init__(self) -> None:
        if not self.pmf:
            raise ValueError("randomness needs a nonempty alphabet")
        if any(p < 0 for p in self.pmf):
            raise ValueError("randomness probabilities must be nonnegative")
        if sum(self.pmf, Fraction(0)) != 1:
            raise ValueError("randomness pmf must sum to 1")

    @property
    def size(self) -> int:
        return len(self.pmf)

    @classmethod
    def uniform(cls, node: str, size: int) -> "NodeRandomness":
        return cls(node, tuple([Fraction(1, size)] * size))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.pmf) if p > 0)


@dataclass(frozen=True)
class LocalEncoder:
    """A total function from the tail's incident variables to an edge symbol.

    The table is flat in row-major order over the inputs (last input
    varies fastest).
    """

    edge: str
    inputs: tuple[InputRef, ...]
    input_sizes: tuple[int, ...]
    table: tuple[int, ...]
    output_size: int

    def __post_init__(self) -> None:
        expected = math.prod(self.input_sizes) if self.input_sizes else 1
        if len(self.table) != expected:
            raise ValueError(
                f"encoder table of {self.edge} has {len(self.table)} entries, expected {expected}"
            )
        if any(not 0 <= v < self.output_size for v in self.table):
            raise ValueError(f"encoder table of {self.edge} leaves the output alphabet")

    def apply(self, values: Sequence[int]) -> int:
        idx = 0
        for v, size in zip(values, self.input_sizes):
            idx = idx * size + v
        return self.table[idx]


def _essential_inputs(enc: LocalEncoder) -> tuple[tuple[int, int], ...]:
    """(position, stride) of each input the table varies with, decided
    exactly.

    Input i of size n and stride k cuts the row-major table into blocks of
    n runs of k entries, run j holding the entries with input i at j; the
    table ignores input i iff every block is n equal runs.  Each block is
    compared with itself shifted by one run, or each run position is
    compared across all blocks with one strided slice per run, whichever
    takes fewer slices.
    """
    table = enc.table
    size = len(table)
    if table.count(table[0]) == size:
        return ()
    out = []
    block = size
    for i, n in enumerate(enc.input_sizes):
        stride = block // n
        if n > 1:
            if size // block <= (n - 1) * stride:
                for b in range(0, size, block):
                    if table[b + stride : b + block] != table[b : b + block - stride]:
                        out.append((i, stride))
                        break
            else:
                for r in range(stride):
                    first = table[r::block]
                    if any(table[r + j * stride :: block] != first for j in range(1, n)):
                        out.append((i, stride))
                        break
        block = stride
    return tuple(out)


def _variable_sizes(
    sources: Mapping[str, int],
    edges: Mapping[str, int],
    randomness: Mapping[str, NodeRandomness],
) -> dict[str, int]:
    """Alphabet size per variable name: session ids, message ids, `V_<node>`."""
    sizes = {**sources, **edges}
    sizes.update((randomness_variable(node), rnd.size) for node, rnd in randomness.items())
    return sizes


@dataclass(frozen=True)
class NetworkCode:
    problem: NetworkProblem
    source_alphabets: Mapping[str, int]
    edge_alphabets: Mapping[str, int]  # distinct messages: non-forwarding edges only
    randomness: Mapping[str, NodeRandomness]
    encoders: Mapping[str, LocalEncoder]

    def __post_init__(self) -> None:
        errors = validate(self.problem)
        if errors:
            raise ValueError("invalid problem: " + "; ".join(errors))
        net = self.problem.network
        sessions = {s.id for s in self.problem.requirement.sessions}
        if set(self.source_alphabets) != sessions:
            raise ValueError("source alphabets must cover exactly the sessions")
        messages = {e.id for e in net.edges if e.forwards is None}
        if set(self.edge_alphabets) != messages:
            raise ValueError("edge alphabets must cover exactly the non-forwarding edges")
        for node, rnd in self.randomness.items():
            if node not in net.nodes:
                raise ValueError(f"randomness at unknown node {node!r}")
            if rnd.node != node:
                raise ValueError("randomness entry bound to the wrong node")
        if set(self.encoders) != messages:
            raise ValueError("encoders must cover exactly the non-forwarding edges")
        alphabet = _variable_sizes(self.source_alphabets, self.edge_alphabets, self.randomness)
        for eid, enc in self.encoders.items():
            expected = self.problem.encoder_inputs(eid, self.randomness)
            if enc.inputs != expected:
                raise ValueError(
                    f"encoder of {eid} must take exactly its incident variables {expected}"
                )
            sizes = tuple(alphabet[self.problem.input_variable(ref)] for ref in enc.inputs)
            if enc.input_sizes != sizes:
                raise ValueError(f"encoder of {eid} disagrees with the input alphabets")
            if enc.output_size != self.edge_alphabets[eid]:
                raise ValueError(f"encoder of {eid} disagrees with the edge alphabet")

    @cached_property
    def _encoder_steps(self) -> tuple[tuple[str, LocalEncoder, tuple[str, ...]], ...]:
        """(message, encoder, input variables) per message, in ancestral order."""
        problem = self.problem
        return tuple(
            (m, self.encoders[m], tuple(map(problem.input_variable, self.encoders[m].inputs)))
            for m in problem.messages
        )

    @cached_property
    def _edge_messages(self) -> tuple[tuple[str, str], ...]:
        """(edge, message it carries) per edge, in ancestral order."""
        problem = self.problem
        sessions = set(self.session_order())
        return tuple(
            (name, problem.network.message_of(name))
            for name in ancestral_order(problem)
            if name not in sessions
        )

    @cached_property
    def _dependence(
        self,
    ) -> tuple[tuple[str, ...], dict[str, tuple[tuple[str, int], ...]], dict[str, int]]:
        """What each message depends on, read off the encoder tables.

        Returns the roots (sessions, then node randomness, each sorted),
        per message the inputs its table varies with as (variable, stride
        in the table), and per variable the bit mask of the roots it
        depends on through those inputs (bit i for root i).
        """
        roots = self.session_order() + tuple(map(randomness_variable, self.randomness_order()))
        mask = {r: 1 << i for i, r in enumerate(roots)}
        reads = {}
        for m, enc, names in self._encoder_steps:
            reads[m] = tuple((names[i], stride) for i, stride in _essential_inputs(enc))
            bits = 0
            for x, _ in reads[m]:
                bits |= mask[x]
            mask[m] = bits
        return roots, reads, mask

    def _encode(self, env: dict[str, int]) -> dict[str, int]:
        """Add every message to `env`, which holds the sessions and `V_<node>`."""
        for m, enc, names in self._encoder_steps:
            env[m] = enc.apply([env[x] for x in names])
        return env

    def session_order(self) -> tuple[str, ...]:
        return tuple(sorted(s.id for s in self.problem.requirement.sessions))

    def randomness_order(self) -> tuple[str, ...]:
        return tuple(sorted(self.randomness))


@dataclass(frozen=True)
class Verdict:
    admissible: bool
    reasons: tuple[tuple[str, ...], ...]

    def __bool__(self) -> bool:
        return self.admissible

    def describe(self) -> str:
        if self.admissible:
            return "admissible"
        return "; ".join(":".join(r) for r in self.reasons)


class CodeBuilder:
    """Tabulates encoder functions into a validated NetworkCode.

    Encoder callables receive a mapping from input names to symbols:
    session ids for co-located sources, edge ids for incoming edges, and
    "V" for the tail's randomness.
    """

    def __init__(self, problem: NetworkProblem) -> None:
        self.problem = problem
        self._sources: dict[str, int] = {}
        self._edges: dict[str, int] = {}
        self._randomness: dict[str, NodeRandomness] = {}
        self._functions: dict[str, Callable[[Mapping[str, int]], int]] = {}

    def source(self, session_id: str, size: int) -> "CodeBuilder":
        self._sources[session_id] = int(size)
        return self

    def randomness(self, node: str, pmf: Union[int, Sequence[Union[Fraction, int, str]]]) -> "CodeBuilder":
        if isinstance(pmf, int):
            self._randomness[node] = NodeRandomness.uniform(node, pmf)
        else:
            self._randomness[node] = NodeRandomness(node, tuple(as_fraction(p) for p in pmf))
        return self

    def edge(self, edge_id: str, size: int, fn: Callable[[Mapping[str, int]], int]) -> "CodeBuilder":
        self._edges[edge_id] = int(size)
        self._functions[edge_id] = fn
        return self

    def build(self) -> NetworkCode:
        problem = self.problem
        alphabet = _variable_sizes(self._sources, self._edges, self._randomness)
        encoders: dict[str, LocalEncoder] = {}
        for eid, fn in self._functions.items():
            refs = problem.encoder_inputs(eid, self._randomness)
            sizes = [alphabet[problem.input_variable(ref)] for ref in refs]
            names = ["V" if kind == "randomness" else name for kind, name in refs]
            table = []
            for combo in itertools.product(*(range(s) for s in sizes)):
                table.append(int(fn(dict(zip(names, combo)))))
            encoders[eid] = LocalEncoder(
                edge=eid,
                inputs=refs,
                input_sizes=tuple(sizes),
                table=tuple(table),
                output_size=self._edges[eid],
            )
        return NetworkCode(
            problem=problem,
            source_alphabets=dict(self._sources),
            edge_alphabets=dict(self._edges),
            randomness=dict(self._randomness),
            encoders=encoders,
        )


def _normalize_assignment(
    order: Sequence[str], values: Union[Mapping[str, int], Sequence[int]]
) -> dict[str, int]:
    if isinstance(values, Mapping):
        return {k: values[k] for k in order}
    values = tuple(values)
    if len(values) != len(order):
        raise ValueError(f"expected {len(order)} values for {order}")
    return dict(zip(order, values))


def evaluate(
    code: NetworkCode,
    source_tuple: Union[Mapping[str, int], Sequence[int]],
    randomness_tuple: Union[Mapping[str, int], Sequence[int]] = (),
) -> dict[str, int]:
    """Forward pass in ancestral order; returns a symbol for every edge."""
    sources = _normalize_assignment(code.session_order(), source_tuple)
    rnd = _normalize_assignment(code.randomness_order(), randomness_tuple)
    for sid, v in sources.items():
        if not 0 <= v < code.source_alphabets[sid]:
            raise ValueError(f"source symbol {v} outside the alphabet of {sid}")
    for node, v in rnd.items():
        if not 0 <= v < code.randomness[node].size:
            raise ValueError(f"randomness symbol {v} outside the alphabet at {node}")
    env = dict(sources)
    env.update((randomness_variable(node), v) for node, v in rnd.items())
    code._encode(env)
    return {eid: env[m] for eid, m in code._edge_messages}


def induced_joint_distribution(
    code: NetworkCode, budget: int = DEFAULT_OUTCOME_BUDGET
) -> JointDistribution:
    """Exact joint pmf of sessions, node randomness, and distinct messages.

    Sources are independent and uniform on their alphabets; randomness is
    independent across nodes with its declared pmf.  Variables are named
    by session id, "V_<node>", and edge id.
    """
    sessions = code.session_order()
    rnodes = code.randomness_order()
    messages = code.problem.messages
    total = math.prod(code.source_alphabets[s] for s in sessions) if sessions else 1
    supports = {node: code.randomness[node].support() for node in rnodes}
    for node in rnodes:
        total *= len(supports[node])
    if total > budget:
        raise BudgetExceededError(
            f"{total} outcome points exceed the budget of {budget}"
        )
    variables: list[tuple[str, int]] = []
    variables += [(s, code.source_alphabets[s]) for s in sessions]
    rvars = tuple(randomness_variable(node) for node in rnodes)
    variables += [(v, code.randomness[node].size) for v, node in zip(rvars, rnodes)]
    variables += [(m, code.edge_alphabets[m]) for m in messages]
    base = Fraction(1)
    for s in sessions:
        base /= code.source_alphabets[s]
    pmf: dict[tuple[int, ...], Fraction] = {}
    for src_combo in itertools.product(*(range(code.source_alphabets[s]) for s in sessions)):
        for rnd_combo in itertools.product(*(supports[node] for node in rnodes)):
            p = base
            for node, v in zip(rnodes, rnd_combo):
                p *= code.randomness[node].pmf[v]
            env = code._encode(dict(zip(sessions + rvars, src_combo + rnd_combo)))
            outcome = src_combo + rnd_combo + tuple(env[m] for m in messages)
            pmf[outcome] = pmf.get(outcome, Fraction(0)) + p
    return JointDistribution.of(tuple(variables), pmf)


def check_zero_error(code: NetworkCode) -> tuple[bool, list[tuple[str, str]]]:
    """Exact decodability at every sink for every demanded session.

    Each sink is decided on the joint marginal of its inputs and the
    demanded sessions, enumerated over the product of the sources and
    randomness its inputs depend on (see `_Marginals`).
    """
    return _zero_error(_Marginals(code))


def check_secrecy(code: NetworkCode) -> tuple[bool, list[int]]:
    """Exact zero-leakage check for every wiretap.

    Each wiretap is decided on the joint marginal of its sources and the
    messages it observes, enumerated over the product of the sources and
    randomness those messages depend on, by factorizing integer outcome
    weights (see `_Marginals`).
    """
    return _secrecy(_Marginals(code))


def check_admissible(code: NetworkCode) -> Verdict:
    """Alphabet-capacity, rate, zero-error, and secrecy checks, all exact.

    Zero-error and secrecy are decided check by check, each on the
    product of the sources and randomness its own variables depend on;
    checks over the same roots share one enumeration, and
    `DEFAULT_OUTCOME_BUDGET` bounds each of them (`BudgetExceededError`
    past it).  The engine shares no code with the search's
    `_SearchPlan.admissible_tables`, so it re-checks what the search finds
    independently.
    """
    problem = code.problem
    net = problem.network
    reasons: list[tuple[str, ...]] = []
    for e in net.edges:
        size = code.edge_alphabets[net.message_of(e.id)]
        if not alphabet_fits_capacity(size, e.capacity):
            reasons.append(
                ("capacity", e.id, f"alphabet {size} exceeds 2^{e.capacity}")
            )
    for s in problem.requirement.sessions:
        size = code.source_alphabets[s.id]
        if not alphabet_meets_rate(size, s.rate):
            reasons.append(("rate", s.id, f"alphabet {size} below 2^{s.rate}"))
    if not reasons:
        marginals = _Marginals(code)
        ok, failures = _zero_error(marginals)
        for sink, sid in failures:
            reasons.append(("decode", sink, sid))
        ok, taps = _secrecy(marginals)
        for i in taps:
            reasons.append(("leak", str(i)))
    return Verdict(not reasons, tuple(reasons))


def _zero_error(marginals: "_Marginals") -> tuple[bool, list[tuple[str, str]]]:
    """One enumeration per sink, over the roots its inputs depend on.  A
    demanded session outside those roots is independent of the inputs and
    uniform on its alphabet, so the sink decodes it iff the alphabet has
    one symbol."""
    code = marginals.code
    problem = code.problem
    failures: list[tuple[str, str]] = []
    for sink, demanded in problem.demands().items():
        givens = problem.sink_inputs(sink)
        k = len(givens)
        roots = marginals.mask(givens)
        inside = tuple(sid for sid in demanded if sid not in givens and marginals.mask((sid,)) & roots)
        if inside:
            cols = marginals.columns(givens + inside)[0]
            keys = cols[0] if k == 1 else list(zip(*cols[:k]))
            count = len(set(keys))
        for sid in demanded:
            if sid in givens:
                continue
            if sid in inside:
                # A function of the inputs iff pairing it with them splits
                # no input value.
                decodes = len(set(zip(keys, cols[k + inside.index(sid)]))) == count
            else:
                decodes = code.source_alphabets[sid] == 1
            if not decodes:
                failures.append((sink, sid))
    return not failures, failures


def _secrecy(marginals: "_Marginals") -> tuple[bool, list[int]]:
    """One enumeration per wiretap, over the roots its observed messages
    depend on.  A tapped source outside those roots is independent of them
    and of the other sources, so it adds nothing to the leakage."""
    problem = marginals.code.problem
    failures: list[int] = []
    for i, (tap, observed) in enumerate(zip(problem.wiretaps.taps, problem.wiretap_views)):
        roots = marginals.mask(observed)
        targets = tuple(sid for sid in tap.sources if marginals.mask((sid,)) & roots)
        if not targets:
            continue
        cols, weights, total = marginals.columns(targets + observed)
        a = list(zip(*cols[: len(targets)]))
        b = list(zip(*cols[len(targets) :]))
        if weights is None:
            joint, left, right = Counter(zip(a, b)), Counter(a), Counter(b)
        else:
            joint, left, right = Counter(), Counter(), Counter()
            for x, y, w in zip(a, b, weights):
                joint[x, y] += w
                left[x] += w
                right[y] += w
        # I(A;B) = 0 iff P(a, b) = P(a) P(b) everywhere, with every
        # probability a weight over `total`.
        if len(joint) != len(left) * len(right) or any(
            w * total != left[x] * right[y] for (x, y), w in joint.items()
        ):
            failures.append(i)
    return not failures, failures


class _Marginals:
    """Exact marginals of a code's variables, one enumeration per root set.

    A root is a session or a node's randomness.  Roots are mutually
    independent, and every message is a function of the roots it depends
    on (`NetworkCode._dependence`).  So the product of the roots that a
    group of variables depends on, each outcome weighted by its
    probability, gives the group's exact joint marginal.  One enumeration
    is kept per root set: a list of values per root and, computed from
    its inputs' lists in ancestral order, per message that depends on
    those roots only.  Outcome weights are integers over one common
    denominator: a source weighs 1 per symbol, a node's randomness the
    numerators of its pmf over their least common denominator; `weights`
    is None when every outcome weighs the same.  `DEFAULT_OUTCOME_BUDGET`
    bounds the outcomes of each root set.
    """

    def __init__(self, code: NetworkCode) -> None:
        self.code = code
        self._roots, self._reads, self._mask = code._dependence
        # root mask -> (value list per variable, weights, total weight)
        self._blocks: dict[int, tuple[dict[str, list[int]], Optional[list[int]], int]] = {}

    def mask(self, names: Sequence[str]) -> int:
        """The bit mask of the roots `names` depend on."""
        bits = 0
        for name in names:
            bits |= self._mask[name]
        return bits

    def columns(self, names: Sequence[str]) -> tuple[list[list[int]], Optional[list[int]], int]:
        """The value lists of `names` over the product of their roots, the
        outcome weights (None when all are equal) and their total."""
        mask = self.mask(names)
        block = self._blocks.get(mask)
        if block is None:
            block = self._blocks[mask] = self._enumerate(mask)
        values, weights, total = block
        return [values[name] for name in names], weights, total

    def _enumerate(self, mask: int) -> tuple[dict[str, list[int]], Optional[list[int]], int]:
        code = self.code
        by_variable = {randomness_variable(node): rnd for node, rnd in code.randomness.items()}
        roots = [r for i, r in enumerate(self._roots) if mask >> i & 1]
        supports: list[Sequence[int]] = []
        numerators: list[Optional[list[int]]] = []
        for r in roots:
            rnd = by_variable.get(r)
            if rnd is None:
                supports.append(range(code.source_alphabets[r]))
                numerators.append(None)
                continue
            support = rnd.support()
            den = math.lcm(*(rnd.pmf[v].denominator for v in support))
            nums = [rnd.pmf[v].numerator * (den // rnd.pmf[v].denominator) for v in support]
            supports.append(support)
            numerators.append(None if len(set(nums)) == 1 else nums)
        size = math.prod(map(len, supports))
        if size > DEFAULT_OUTCOME_BUDGET:
            raise BudgetExceededError(
                f"{size} outcome points exceed the budget of {DEFAULT_OUTCOME_BUDGET}"
            )
        values: dict[str, list[int]] = {}
        weights: Optional[list[int]] = None
        inner, outer = size, 1
        for r, support, nums in zip(roots, supports, numerators):
            inner //= len(support)
            values[r] = [v for v in support for _ in range(inner)] * outer
            if nums is not None:
                col = [w for w in nums for _ in range(inner)] * outer
                weights = col if weights is None else [a * b for a, b in zip(weights, col)]
            outer *= len(support)
        for m in code.problem.messages:
            if self._mask[m] & ~mask:
                continue
            table, index = code.encoders[m].table, None
            for x, stride in self._reads[m]:
                col = values[x]
                if index is None:
                    index = col if stride == 1 else [v * stride for v in col]
                else:
                    index = [i + v * stride for i, v in zip(index, col)]
            values[m] = [table[0]] * size if index is None else list(map(table.__getitem__, index))
        return values, weights, size if weights is None else sum(weights)


@dataclass(frozen=True)
class DerandomizeResult:
    ok: bool
    encoder: Optional[LocalEncoder]
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def derandomize(code: NetworkCode, target_edge: str) -> DerandomizeResult:
    """Strip randomness from one encoder when the message does not need it.

    The exact premise: the pair (non-randomness inputs, message) is
    jointly independent of all node randomness.  When it holds, the
    returned randomness-free table reproduces the message on every
    support point; when it fails, the premise violation is the outcome.
    """
    problem = code.problem
    msg = problem.network.message_of(target_edge)
    enc = code.encoders[msg]
    rand_pos: Optional[int] = None
    nonrand: list[str] = []
    for pos, ref in enumerate(enc.inputs):
        if ref[0] == "randomness":
            rand_pos = pos
        else:
            nonrand.append(problem.input_variable(ref))
    dist = induced_joint_distribution(code)
    rand_vars = tuple(randomness_variable(n) for n in code.randomness_order())
    group_a = tuple(dict.fromkeys(nonrand + [msg]))
    if rand_vars:
        if not check_independence(dist, group_a, rand_vars):
            return DerandomizeResult(
                False,
                None,
                f"({', '.join(group_a)}) is not independent of the node randomness",
            )
    if rand_pos is None:
        return DerandomizeResult(True, enc, "encoder takes no randomness input")
    # Any supported randomness symbol of the tail realizes the a.s. value.
    tail = enc.inputs[rand_pos][1]
    v0 = code.randomness[tail].support()[0]
    new_inputs = tuple(ref for i, ref in enumerate(enc.inputs) if i != rand_pos)
    new_sizes = tuple(s for i, s in enumerate(enc.input_sizes) if i != rand_pos)
    table = []
    for combo in itertools.product(*(range(s) for s in new_sizes)):
        args = list(combo)
        args.insert(rand_pos, v0)
        table.append(enc.apply(args))
    new_enc = LocalEncoder(msg, new_inputs, new_sizes, tuple(table), enc.output_size)
    # Belt: the projected table must agree with the message on the support.
    names = dist.names()
    in_idx = [names.index(problem.input_variable(ref)) for ref in new_inputs]
    m_idx = names.index(msg)
    for outcome in dist.pmf:
        args = [outcome[i] for i in in_idx]
        if new_enc.apply(args) != outcome[m_idx]:
            return DerandomizeResult(
                False, None, "projected table fails to reproduce the message"
            )
    return DerandomizeResult(True, new_enc, "")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "exhausted" | "budget-exceeded"
    code: Optional[NetworkCode]
    searched: int
    total: int

    def __bool__(self) -> bool:
        return self.status == "found"

    @property
    def fraction_searched(self) -> Fraction:
        return Fraction(self.searched, self.total) if self.total else Fraction(1)


class _SearchPlan:
    def __init__(
        self,
        problem: NetworkProblem,
        alphabet_bounds: Union[int, Mapping[str, int]],
        allow_randomness: bool,
    ) -> None:
        self.rnodes = problem.default_randomness_nodes if allow_randomness else ()
        errors = validate(problem) or name_clashes(problem, self.rnodes)
        if errors:
            raise ValueError("invalid problem: " + "; ".join(errors))
        self.problem = problem
        net = problem.network
        if isinstance(alphabet_bounds, int):
            bounds: dict[str, int] = {"edges": alphabet_bounds}
        else:
            bounds = dict(alphabet_bounds)
        edge_default = bounds.get("edges", 2)
        self.sessions = tuple(sorted(s.id for s in problem.requirement.sessions))
        self.messages = problem.messages
        self.rvars = tuple(map(randomness_variable, self.rnodes))
        # Per-variable candidate sizes, pruned by rate and by every capacity
        # on the message's forwarding chain.
        by_session = {s.id: s for s in problem.requirement.sessions}
        self.size_options: list[tuple[str, tuple[int, ...]]] = []
        for sid in self.sessions:
            minimal = minimal_source_alphabet(by_session[sid].rate)
            top = bounds.get(sid, minimal)
            opts = tuple(range(minimal, max(minimal, top) + 1))
            self.size_options.append((sid, opts))
        caps_by_message: dict[str, list[Capacity]] = {m: [] for m in self.messages}
        for e in net.edges:
            caps_by_message[net.message_of(e.id)].append(e.capacity)
        for m in self.messages:
            top = bounds.get(m, edge_default)
            opts = tuple(
                k
                for k in range(1, top + 1)
                if all(alphabet_fits_capacity(k, c) for c in caps_by_message[m])
            )
            self.size_options.append((m, opts))
        for var in self.rvars:
            top = bounds.get(var, edge_default)
            self.size_options.append((var, tuple(range(1, top + 1))))
        # Static evaluation plan over messages in ancestral order.
        self._input_vars = {
            m: tuple(map(problem.input_variable, problem.encoder_inputs(m, self.rnodes)))
            for m in self.messages
        }
        self.sink_plan: list[tuple[str, str, tuple[str, ...]]] = []
        for sink, demanded in problem.demands().items():
            givens = problem.sink_inputs(sink)
            for sid in demanded:
                if sid not in givens:
                    self.sink_plan.append((sink, sid, givens))
        self.tap_plan = [
            (tuple(tap.sources), observed)
            for tap, observed in zip(problem.wiretaps.taps, problem.wiretap_views)
            if tap.sources and observed
        ]

    def size_assignments(self):
        names = [name for name, _ in self.size_options]
        for combo in itertools.product(*(opts for _, opts in self.size_options)):
            yield dict(zip(names, combo))

    def table_space_size(self, sizes: Mapping[str, int], message: str) -> int:
        dims = self._table_dims(sizes, message)
        return sizes[message] ** math.prod(dims) if dims else sizes[message]

    def _table_dims(self, sizes: Mapping[str, int], message: str) -> tuple[int, ...]:
        return tuple(sizes[v] for v in self._input_vars[message])

    def candidates_for(self, sizes: Mapping[str, int]) -> int:
        total = 1
        for m in self.messages:
            total *= self.table_space_size(sizes, m)
        return total

    def total_candidates(self) -> int:
        return sum(self.candidates_for(s) for s in self.size_assignments())

    def admissible_tables(
        self, sizes: Mapping[str, int], tables: Sequence[tuple[int, ...]]
    ) -> bool:
        """Exact zero-error and secrecy on integer outcome counts.

        Search-mode randomness is uniform, so every (source, randomness)
        combination is one equally likely outcome and independence reduces
        to integer count factorization.
        """
        sessions, rvars = self.sessions, self.rvars
        src_ranges = [range(sizes[s]) for s in sessions]
        rnd_ranges = [range(sizes[v]) for v in rvars]
        steps = [
            (m, table, self._input_vars[m], self._table_dims(sizes, m))
            for m, table in zip(self.messages, tables)
        ]
        decode: dict[tuple[str, str], dict] = {(d, s): {} for d, s, _ in self.sink_plan}
        tap_counts = [
            (dict(), dict(), dict()) for _ in self.tap_plan
        ]  # joint, left, right
        n_outcomes = 0
        for src in itertools.product(*src_ranges):
            values = dict(zip(sessions, src))
            for rnd in itertools.product(*rnd_ranges):
                n_outcomes += 1
                values.update(zip(rvars, rnd))
                for m, table, names, dims in steps:
                    idx = 0
                    for name, dim in zip(names, dims):
                        idx = idx * dim + values[name]
                    values[m] = table[idx]
                for (sink, sid, givens) in self.sink_plan:
                    key = tuple(values[g] for g in givens)
                    got = decode[(sink, sid)].setdefault(key, values[sid])
                    if got != values[sid]:
                        return False
                for plan, counts in zip(self.tap_plan, tap_counts):
                    a = tuple(values[x] for x in plan[0])
                    b = tuple(values[x] for x in plan[1])
                    joint, left, right = counts
                    joint[(a, b)] = joint.get((a, b), 0) + 1
                    left[a] = left.get(a, 0) + 1
                    right[b] = right.get(b, 0) + 1
        for joint, left, right in tap_counts:
            for a, ca in left.items():
                for b, cb in right.items():
                    if joint.get((a, b), 0) * n_outcomes != ca * cb:
                        return False
        return True

    def realize(self, sizes: Mapping[str, int], tables: Sequence[tuple[int, ...]]) -> NetworkCode:
        encoders = {}
        for m, table in zip(self.messages, tables):
            encoders[m] = LocalEncoder(
                edge=m,
                inputs=self.problem.encoder_inputs(m, self.rnodes),
                input_sizes=self._table_dims(sizes, m),
                table=tuple(table),
                output_size=sizes[m],
            )
        return NetworkCode(
            problem=self.problem,
            source_alphabets={s: sizes[s] for s in self.sessions},
            edge_alphabets={m: sizes[m] for m in self.messages},
            randomness={
                node: NodeRandomness.uniform(node, sizes[var])
                for node, var in zip(self.rnodes, self.rvars)
            },
            encoders=encoders,
        )


def exhaustive_search(
    problem: NetworkProblem,
    alphabet_bounds: Union[int, Mapping[str, int]] = 2,
    allow_randomness: bool = False,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> SearchOutcome:
    """Enumerate encoder tables in lexicographic order; exact checks per code.

    The first admissible code in the deterministic enumeration order is
    returned.  If the candidate budget is consumed first, the outcome
    reports the fraction searched.  Each search writes one
    `entroflow.codes` debug record: its status, candidates searched and
    total, seconds and candidates per second.
    """
    import logging  # here, off the command line's import path

    start = time.perf_counter()
    outcome = _search(_SearchPlan(problem, alphabet_bounds, allow_randomness), budget)
    seconds = time.perf_counter() - start
    logging.getLogger(__name__).debug(
        "search: %s, %d of %d candidates, %.3f s, %.0f candidates/s",
        outcome.status,
        outcome.searched,
        outcome.total,
        seconds,
        outcome.searched / seconds if seconds else 0.0,
    )
    return outcome


def _search(plan: _SearchPlan, budget: int) -> SearchOutcome:
    total = plan.total_candidates()
    searched = 0
    for sizes in plan.size_assignments():
        block = plan.candidates_for(sizes)
        limit = min(block, budget - searched)  # a partial scan once the budget runs out
        found, scanned = _scan_block(plan, sizes, limit)
        searched += scanned
        if found is not None:
            return SearchOutcome("found", found, searched, total)
        if limit < block:
            return SearchOutcome("budget-exceeded", None, searched, total)
    return SearchOutcome("exhausted", None, searched, total)


def _scan_block(
    plan: _SearchPlan, sizes: Mapping[str, int], limit: int
) -> tuple[Optional[NetworkCode], int]:
    spaces = []
    for m in plan.messages:
        dims = plan._table_dims(sizes, m)
        entries = math.prod(dims) if dims else 0
        out = sizes[m]
        spaces.append([tuple(t) for t in itertools.product(range(out), repeat=entries)])
    scanned = 0
    for tables in itertools.product(*spaces):
        if scanned >= limit:
            return None, scanned
        scanned += 1
        if plan.admissible_tables(sizes, tables):
            return plan.realize(sizes, tables), scanned
    return None, scanned


def _nest(table: Sequence[int], dims: Sequence[int]):
    if not dims:
        return table[0]
    if len(dims) == 1:
        return list(table)
    step = len(table) // dims[0]
    return [_nest(table[i * step : (i + 1) * step], dims[1:]) for i in range(dims[0])]


def _flatten(nested, dims: Sequence[int]) -> list[int]:
    """A JSON table nested one array deep per input, in row-major order."""
    if not dims:
        return [_json_int(nested, "encoder table entry")]
    if not isinstance(nested, list):
        raise ValueError(f"encoder table: expected an array, found {nested!r}")
    return [v for sub in nested for v in _flatten(sub, dims[1:])]


def code_to_json(code: NetworkCode) -> str:
    doc = {
        "sources": {k: v for k, v in sorted(code.source_alphabets.items())},
        "edges": {k: v for k, v in sorted(code.edge_alphabets.items())},
        "randomness": {
            node: {"pmf": [str(p) for p in rnd.pmf]}
            for node, rnd in sorted(code.randomness.items())
        },
        "encoders": {
            eid: {
                "inputs": [list(ref) for ref in enc.inputs],
                "table": _nest(enc.table, enc.input_sizes),
            }
            for eid, enc in sorted(code.encoders.items())
        },
    }
    return json.dumps(doc, indent=2)


def code_from_json(problem: NetworkProblem, text: str) -> NetworkCode:
    doc = _json_object(json.loads(text), "a code", sources=dict, edges=dict, encoders=dict)
    randomness = {}
    for node, entry in _json_object(doc.get("randomness", {}), "randomness").items():
        pmf = _json_object(entry, f"the randomness of {node}", pmf=list)["pmf"]
        randomness[node] = NodeRandomness(node, tuple(as_fraction(p) for p in pmf))
    sources = {k: _json_int(v, k) for k, v in doc["sources"].items()}
    edges = {k: _json_int(v, k) for k, v in doc["edges"].items()}
    alphabet = _variable_sizes(sources, edges, randomness)
    encoders = {}
    for eid, entry in doc["encoders"].items():
        inputs = _json_object(entry, f"the encoder of {eid}", inputs=list)["inputs"]
        refs = tuple(tuple(ref) if isinstance(ref, list) else ref for ref in inputs)
        expected = problem.encoder_inputs(eid, randomness)
        if refs != expected:
            raise ValueError(f"encoder of {eid} lists inputs {refs}, expected {expected}")
        sizes = [alphabet[problem.input_variable(ref)] for ref in refs]
        table = tuple(_flatten(entry["table"], sizes))
        encoders[eid] = LocalEncoder(eid, refs, tuple(sizes), table, edges[eid])
    return NetworkCode(
        problem=problem,
        source_alphabets=sources,
        edge_alphabets=edges,
        randomness=randomness,
        encoders=encoders,
    )
