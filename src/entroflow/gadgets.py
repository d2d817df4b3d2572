"""Constructors for the two test-network families and their witness codes.

`build_incremental(h)` produces a two-session network with hierarchical
sink requirements whose rate-capacity tuple is the linear image of an
entropy vector h: a source part emits per-coordinate streams U_i (rate
h(i) each) and a bottleneck-fanned family V_i, one cut-probe subnetwork
per nonempty subset, and one increment-probe subnetwork per (nonempty
proper subset, fresh element) pair.  One generator lists those probes and
names their nodes and edges; `build_incremental` makes a single walk over
it that lays out each probe and writes its contract obligations, and
`incremental_code(q)`, the explicit code that realizes the tuple whenever
h comes from a quasi-uniform distribution q, walks the same list.

`build_secure(c, d)` produces the single-session secure network in which
any admissible code is forced to push a rate-c key onto the relay edge;
`otp_code(c, d)` is its explicit one-time-pad witness.  `adhere(inner)`
wires one copy of the secure network per (session, sink) pair of an
arbitrary multicast problem, sharing one key stream per session, so that
the secure problem is admissible exactly when the inner multicast is.

The drawings these networks come from are not part of the artifact;
every reconstruction choice is therefore recorded as a machine-checkable
obligation (exact min-cut values, forced-equality chains on subnetwork
LPs) inside a ReconstructionContract, and `verify_contract` runs them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from entroflow.codes import CodeBuilder, NetworkCode
from entroflow.entropy import (
    EntropyVector,
    JointDistribution,
    as_fraction,
    is_quasi_uniform,
    quasi_uniform_vector_of,
)
from entroflow.lp import ChainReport, ProofChain, ShannonSolver, SolveStats, build_shannon_lp
from entroflow.network import (
    UNBOUNDED,
    Capacity,
    ConnectionRequirement,
    Edge,
    Network,
    NetworkProblem,
    RateCapacityTuple,
    Session,
    Wiretap,
    WiretapPattern,
    min_cut,
    validate,
)

__all__ = [
    "Obligation",
    "ObligationResult",
    "ContractReport",
    "ReconstructionContract",
    "IncrementalGadget",
    "SecureGadget",
    "AdheredGadget",
    "QuasiUniformSpec",
    "build_incremental",
    "incremental_code",
    "build_secure",
    "otp_code",
    "adhere",
    "compose_adhered_code",
    "verify_contract",
    "quasi_uniform_library",
]


# ----------------------------------------------------------------------
# contracts


@dataclass(frozen=True)
class Obligation:
    name: str
    kind: str  # "chain-claim" | "min-cut"
    subnetwork: Optional[tuple[str, ...]] = None
    expression: Optional[str] = None
    relation: Optional[str] = None
    value: Optional[str] = None
    expected: str = "forced"  # for chain claims: "forced" | "contradicted"
    source: Optional[str] = None
    sink: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {"name": self.name, "kind": self.kind}
        if self.kind == "chain-claim":
            doc.update(
                subnetwork=list(self.subnetwork) if self.subnetwork else None,
                expression=self.expression,
                relation=self.relation,
                value=self.value,
                expected=self.expected,
            )
        else:
            doc.update(source=self.source, sink=self.sink, value=self.value)
        return doc


@dataclass(frozen=True)
class ObligationResult:
    name: str
    ok: bool
    detail: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ContractReport:
    results: tuple[ObligationResult, ...]
    # The work of the proof chains, summed; it depends on what the store
    # of bases held, so reports compare by their results alone.
    stats: SolveStats = field(default_factory=SolveStats, compare=False)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    def describe(self) -> str:
        return "\n".join(
            f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}" for r in self.results
        )


@dataclass(frozen=True)
class ReconstructionContract:
    obligations: tuple[Obligation, ...]
    notes: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "obligations": [o.to_dict() for o in self.obligations],
                "notes": list(self.notes),
            },
            indent=2,
        )


def _chain_workers(chains: int) -> int:
    """The most threads the pool of `verify_contract` may start for
    `chains` proof chains that may still be handed to it: one per CPU this
    process may run on, and no more than there are chains.  The pool starts
    a thread only when a chain is handed over and no thread is idle, so it
    never starts more threads than it takes chains."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(chains, cpus))


class _Chain:
    """One subnetwork's claims, on an LP and a solver of its own.

    It is made on the calling thread and runs there as far as the memo and
    the store settle it (`ProofChain.settle_stored`); `report` is None when
    it stopped before a HiGHS run, and `finish`, on the pool, runs the
    rest.  The solver passes to the pool's thread between two solves and
    is never used by two threads at once.
    """

    def __init__(self, problem: NetworkProblem, variables: Optional[tuple[str, ...]], obs: list[Obligation]):
        start = time.perf_counter()
        self.lp = build_shannon_lp(problem, variables=variables)
        self.solver = ShannonSolver(self.lp)
        self.proof = ProofChain(self.solver, [(ob.name, ob.expression, ob.relation, ob.value) for ob in obs])
        self.report = self.proof.settle_stored()
        self.seconds = time.perf_counter() - start
        self.settled = self.solver.stats.solves  # on the calling thread
        if self.report is not None:
            self._log("inline")

    def finish(self) -> tuple[ChainReport, SolveStats]:
        """The chain's report and its solver's `SolveStats`, going on from
        the solve the store could not settle."""
        start = time.perf_counter()
        self.report = self.proof.finish()
        self.seconds += time.perf_counter() - start
        self._log(f"in the pool after {self.settled} settled solves")
        return self.report, self.solver.stats

    def _log(self, where: str) -> None:
        """The chain's debug record: its counts, its own time (inline and on
        the pool, not the wait between) and where it finished."""
        import logging  # here, off the command line's import path

        stats = self.solver.stats
        logging.getLogger(__name__).debug(
            "chain on %d variables: %d rows, %d solves (%d settled from stored duals), "
            "%d HiGHS runs (%d from stored bases), %d simplex iterations, "
            "%d settled from stored points, %.3f s in HiGHS of %.3f s, finished %s",
            self.lp.ground.size,
            len(self.lp.rows),
            stats.solves,
            stats.stored_dual,
            stats.highs_runs,
            stats.stored_starts,
            stats.simplex_iterations,
            stats.stored_point,
            stats.highs_seconds,
            self.seconds,
            where,
        )


def verify_contract(problem: NetworkProblem, contract: ReconstructionContract) -> ContractReport:
    """Execute every obligation: min-cut values exactly, claim chains by LP.

    The chain claims are grouped by subnetwork, and one LP and solver serve
    each group.  The chains run on the calling thread, largest subnetwork
    first, each as far as its solver's memo and the stored entries of
    `highs.BASES` settle it.  A chain that reaches a solve they cannot
    settle is handed, with its LP, solver and memo, to a thread pool just
    before its first HiGHS run (HiGHS releases the GIL while it solves),
    where it goes on from that solve, and the calling thread goes on to
    the next chain.  The pool is made at the first handover, with
    `_chain_workers` threads at most for the chains left, so a contract
    that the store settles starts no thread, and each thread holds one
    live HiGHS model at a time; once the pool has shut down, the memory
    the HiGHS runs freed goes back to the system
    (`highs.release_free_memory`).  The report lists the results in the
    same order whatever the schedule, and the sums of the chains'
    `SolveStats`, which can depend on the schedule.
    """
    results: list[ObligationResult] = []
    groups: dict[Optional[tuple[str, ...]], list[Obligation]] = {}
    for ob in contract.obligations:
        if ob.kind == "min-cut":
            got = min_cut(problem, ob.source, ob.sink)
            want = Capacity.of(ob.value)
            ok = got == want
            results.append(
                ObligationResult(ob.name, ok, f"min_cut({ob.source},{ob.sink}) = {got}, expected {want}")
            )
        elif ob.kind == "chain-claim":
            groups.setdefault(ob.subnetwork, []).append(ob)
        else:
            results.append(ObligationResult(ob.name, False, f"unknown kind {ob.kind!r}"))
    # The pool's threads share the problem, so everything it derives and
    # keeps is derived here, once; the threads only read it.
    problem.derive()
    # A subnetwork of None is the whole network.
    largest_first = sorted(groups, key=lambda key: math.inf if key is None else len(key), reverse=True)
    done: dict[Optional[tuple[str, ...]], tuple[ChainReport, SolveStats]] = {}
    handed = {}
    pool = None
    try:
        # Only the reports and stats are kept: each chain's LP and solver
        # go once it has finished.
        for i, key in enumerate(largest_first):
            chain = _Chain(problem, key, groups[key])
            if chain.report is not None:
                done[key] = chain.report, chain.solver.stats
                continue
            if pool is None:
                from concurrent.futures import ThreadPoolExecutor  # here, off the command line's import path

                pool = ThreadPoolExecutor(_chain_workers(len(largest_first) - i))
            handed[key] = pool.submit(chain.finish)
        for key, future in handed.items():
            done[key] = future.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            from entroflow.highs import release_free_memory

            release_free_memory()
    stats = SolveStats()
    for key, obs in groups.items():
        report, chain_stats = done[key]
        stats += chain_stats
        for ob, verdict in zip(obs, report.verdicts):
            results.append(ObligationResult(ob.name, verdict.status == ob.expected, verdict.detail))
    return ContractReport(tuple(results), stats)


# ----------------------------------------------------------------------
# incremental-multicast network


@dataclass(frozen=True)
class IncrementalGadget:
    problem: NetworkProblem
    contract: ReconstructionContract
    delta: RateCapacityTuple


def _subset_name(members: Sequence[int]) -> str:
    return "".join(str(i + 1) for i in sorted(members))


class _Probe(NamedTuple):
    """One probe subnetwork of the incremental gadget.

    A cut probe tests a nonempty subset (`fresh` is None, tag "a"); an
    increment probe tests a nonempty proper subset plus a fresh element
    (tag "a.i").  Every node and edge of the probe is named `at(prefix)`.
    """

    members: tuple[int, ...]  # ascending
    mask: int
    tag: str
    fresh: Optional[int] = None

    def at(self, prefix: str) -> str:
        return f"{prefix}[{self.tag}]"

    @property
    def grown(self) -> tuple[int, ...]:
        """An increment probe's subset with its fresh element, ascending."""
        return tuple(sorted(self.members + (self.fresh,)))


def _probes(n: int):
    """Every probe on n coordinates once, in layout order: the cut probes
    by subset mask, then the increment probes by subset mask and fresh
    element."""
    subsets = [(mask, tuple(i for i in range(n) if mask >> i & 1)) for mask in range(1, 1 << n)]
    for mask, members in subsets:
        yield _Probe(members, mask, _subset_name(members))
    for mask, members in subsets[:-1]:
        for i in range(n):
            if not mask >> i & 1:
                yield _Probe(members, mask, f"{_subset_name(members)}.{i + 1}", i)


def _forward_id(parent: str, node: str) -> str:
    """The forwarding edge that carries message `parent` into `node`."""
    return f"{parent}>{node}"


def _claim(
    name: str, ground: Sequence[str], expression: str, relation: str, value: Union[Fraction, int]
) -> Obligation:
    return Obligation(
        name=name,
        kind="chain-claim",
        subnetwork=tuple(ground),
        expression=expression,
        relation=relation,
        value=str(value),
    )


def build_incremental(h: EntropyVector) -> IncrementalGadget:
    """The two-session incremental network whose tuple is linear in h.

    Requires exact rational coordinates with h(full) the maximum (every
    derived capacity must be nonnegative); the offending subset is named
    otherwise.  The topology depends only on the ground size; h only sets
    the rates and capacities.  One walk over the probes lays out each
    probe's nodes, edges and forwarding edges and writes its contract
    obligations.
    """
    if not h.is_rational():
        raise ValueError("the incremental construction needs exact rational coordinates")
    n = h.ground.size
    if n < 2:
        raise ValueError("need at least two coordinates")
    if n > 8:
        raise ValueError("ground sizes above 8 are outside desk scale")
    full = h.ground.full_mask

    def hv(mask: int) -> Fraction:
        return Fraction(h.value_of_mask(mask))

    for mask in range(1, full + 1):
        if hv(mask) < 0:
            raise ValueError(f"h{h.ground.format_subset(mask)} is negative")
        if hv(full) - hv(mask) < 0:
            raise ValueError(
                f"negative capacity: h(full) - h{h.ground.format_subset(mask)} < 0"
            )

    u_all = [f"U{i + 1}" for i in range(n)]
    v_all = [f"V{i + 1}" for i in range(n)]
    rate0 = sum((hv(1 << i) for i in range(n)), Fraction(0))
    nodes = ["src", "tU", "dB"]
    edges: list[Edge] = []
    forwards: list[tuple[str, str]] = [(u, "tU") for u in u_all]  # (parent, node)
    for i in range(n):
        nodes.append(f"dU{i + 1}")
        edges.append(Edge(u_all[i], "src", f"dU{i + 1}", Capacity(hv(1 << i))))
    edges.append(Edge("B", "src", "dB", Capacity(hv(full))))
    for i in range(n):
        nodes.append(f"dV{i + 1}")
        edges.append(Edge(v_all[i], "dB", f"dV{i + 1}", Capacity(hv(1 << i))))
    whole = next(p for p in _probes(n) if p.mask == full)  # the full set's cut probe
    source_ground = ["S0", "S1"] + u_all + ["B"] + v_all + [whole.at("D1"), whole.at("M1")]
    obligations = [
        _claim(f"u{i + 1}-rate-pinned", source_ground, f"H(U{i + 1})", "=", hv(1 << i))
        for i in range(n)
    ]
    obligations.append(
        _claim("v-joint-pinned", source_ground, f"H({','.join(v_all)})", "=", hv(full))
    )
    obligations.append(
        _claim(
            "streams-decompose",
            source_ground,
            f"H({','.join(u_all + v_all)})",
            "=",
            rate0 + hv(full),
        )
    )
    t1_sinks: list[str] = []
    p0_sinks: list[str] = []
    p1_sinks: list[str] = []
    for probe in _probes(n):
        v_sub = [v_all[j] for j in probe.members]
        if probe.fresh is None:
            m_node, t_node, d1, m1 = (probe.at(x) for x in ("m1", "t1", "D1", "M1"))
            nodes += [m_node, t_node]
            t1_sinks.append(t_node)
            edges.append(Edge(d1, "src", t_node, Capacity(hv(full) - hv(probe.mask))))
            forwards += [(v, m_node) for v in v_sub]
            edges.append(Edge(m1, m_node, t_node, Capacity(hv(probe.mask))))
            forwards += [(u, t_node) for u in u_all]
            ground = ["S0", "S1"] + u_all + ["B"] + v_sub + [d1, m1]
            obligations.append(
                _claim(
                    f"v[{probe.tag}]-lower", ground, f"H({','.join(v_sub)})", ">=", hv(probe.mask)
                )
            )
            continue
        i = probe.fresh
        g, p0, p1 = probe.at("g"), probe.at("p0"), probe.at("p1")
        w1, w2, w3, d2 = (probe.at(x) for x in ("W1", "W2", "W3", "D2"))
        nodes += [g, p0, p1]
        p0_sinks.append(p0)
        p1_sinks.append(p1)
        forwards += [(u_all[i], g), (v_all[i], g)]
        hi = hv(1 << i)
        edges.append(Edge(w1, g, p0, Capacity(hi)))
        edges.append(Edge(w2, g, p0, Capacity(hi)))
        edges.append(Edge(w3, g, p1, Capacity(hi)))
        edges.append(Edge(d2, "src", p0, Capacity(hv(full) - hv(probe.mask | 1 << i))))
        forwards += [(v, p0) for v in v_sub]
        forwards += [(u, p0) for u in u_all]
        forwards += [(u, p1) for j, u in enumerate(u_all) if j != i]
        ground = ["S0", "S1"] + u_all + [v_all[j] for j in probe.grown] + [w1, w2, w3, d2]
        obligations.append(
            _claim(
                f"increment[{probe.tag}]",
                ground,
                f"H(V{i + 1}|{','.join(v_sub)})",
                "=",
                hv(probe.mask | 1 << i) - hv(probe.mask),
            )
        )
        obligations.append(
            _claim(f"lower-receiver-gets-u[{probe.tag}]", ground, f"H(U{i + 1}|{w3})", "=", 0)
        )
    head = {e.id: e.head for e in edges}
    for parent, node in forwards:
        edges.append(Edge(_forward_id(parent, node), head[parent], node, UNBOUNDED, parent))
    sessions = (
        Session("S0", rate0, "src", tuple(sorted(["tU"] + p1_sinks))),
        Session("S1", hv(full), "src", tuple(sorted(t1_sinks + p0_sinks))),
    )
    problem = NetworkProblem(
        network=Network(tuple(nodes), tuple(edges)),
        requirement=ConnectionRequirement(sessions, ("S0", "S1")),
    )
    errors = validate(problem)
    if errors:
        raise AssertionError("construction bug: " + "; ".join(errors))
    notes = (
        "The topology depends only on the coordinate count; rates and "
        "capacities are linear in h.",
        "Cut-probe sinks demand both sessions (hierarchical order) and "
        "receive all U streams as side information, so the second session's "
        "cut arithmetic is unchanged.",
        "Increment-probe direct edges carry h(full) - h(subset+element); "
        "the obligations pin exactly the conclusions the construction needs.",
    )
    return IncrementalGadget(
        problem=problem,
        contract=ReconstructionContract(tuple(obligations), notes),
        delta=problem.rate_capacity,
    )


@dataclass(frozen=True)
class QuasiUniformSpec:
    """A distribution certified quasi-uniform, the basis for alphabets."""

    dist: JointDistribution

    def __post_init__(self) -> None:
        if not is_quasi_uniform(self.dist):
            raise ValueError("distribution is not quasi-uniform")

    @property
    def vector(self) -> EntropyVector:
        return quasi_uniform_vector_of(self.dist)


def incremental_code(q: Union[QuasiUniformSpec, JointDistribution]) -> NetworkCode:
    """The explicit admissible code for build_incremental(vector of q).

    The second session is uniform over q's joint support with the V
    streams as coordinate maps; the first session is a fresh tuple of
    independent uniforms matching the per-coordinate support sizes.
    Subset sinks decode from (marginal rank, within-class rank) pairs;
    increment probes send the fresh coordinate both in the clear and
    masked by its V partner.
    """
    if isinstance(q, QuasiUniformSpec):
        q = q.dist
    spec = QuasiUniformSpec(q)
    h = spec.vector
    if not h.is_rational():
        raise ValueError(
            "support sizes must be powers of two so capacities stay rational"
        )
    gadget = build_incremental(h)
    problem = gadget.problem
    n = q.ground().size
    points = sorted(q.pmf)  # joint support, the alphabet of S1
    supp = [sorted({pt[i] for pt in points}) for i in range(n)]
    sizes = [len(s) for s in supp]
    rank = [
        {sym: r for r, sym in enumerate(supp[i])} for i in range(n)
    ]

    def coord(s1: int, i: int) -> int:
        return rank[i][points[s1][i]]

    # Rank tables, each built once per members tuple with one pass over
    # the support: the rank of every support point within its class
    # (points agreeing on `members`), and the rank of every marginal value.
    @functools.cache
    def class_ranks(members: tuple[int, ...]) -> list[int]:
        counts: dict[tuple[int, ...], int] = {}
        table = []
        for p in points:
            key = tuple(p[j] for j in members)
            table.append(counts.get(key, 0))
            counts[key] = table[-1] + 1
        return table

    @functools.cache
    def marginal_ranks(members: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        seen = sorted({tuple(p[j] for j in members) for p in points})
        return {key: r for r, key in enumerate(seen)}

    def class_rank(s1: int, members: tuple[int, ...]) -> int:
        return class_ranks(members)[s1]

    def class_size(members: tuple[int, ...]) -> int:
        sizes_seen = {}
        for p in points:
            key = tuple(p[j] for j in members)
            sizes_seen[key] = sizes_seen.get(key, 0) + 1
        out = set(sizes_seen.values())
        assert len(out) == 1, "quasi-uniform classes must be balanced"
        return out.pop()

    def marginal_rank(values: Mapping[int, int]) -> int:
        members = tuple(sorted(values))
        key = tuple(supp[j][values[j]] for j in members)
        # An off-support input combination, never produced, maps to 0.
        return marginal_ranks(members).get(key, 0)

    builder = CodeBuilder(problem)
    s0_size = 1
    for k in sizes:
        s0_size *= k
    builder.source("S0", s0_size)
    builder.source("S1", len(points))

    def u_digit(s0: int, i: int) -> int:
        for j in range(n - 1, i, -1):
            s0 //= sizes[j]
        return s0 % sizes[i]

    for i in range(n):
        builder.edge(f"U{i + 1}", sizes[i], lambda v, i=i: u_digit(v["S0"], i))
    builder.edge("B", len(points), lambda v: v["S1"])
    for i in range(n):
        builder.edge(f"V{i + 1}", sizes[i], lambda v, i=i: coord(v["B"], i))
    for probe in _probes(n):
        if probe.fresh is None:
            members = probe.members
            builder.edge(
                probe.at("D1"), class_size(members), lambda v, m=members: class_rank(v["S1"], m)
            )
            ins = {j: _forward_id(f"V{j + 1}", probe.at("m1")) for j in members}
            builder.edge(
                probe.at("M1"),
                len(marginal_ranks(members)),
                lambda v, ins=ins: marginal_rank({j: v[e] for j, e in ins.items()}),
            )
            continue
        i = probe.fresh
        k = sizes[i]
        u_in = _forward_id(f"U{i + 1}", probe.at("g"))
        v_in = _forward_id(f"V{i + 1}", probe.at("g"))
        builder.edge(probe.at("W1"), k, lambda v, u=u_in: v[u])
        builder.edge(probe.at("W2"), k, lambda v, u=u_in, w=v_in, k=k: (v[u] + v[w]) % k)
        builder.edge(probe.at("W3"), k, lambda v, u=u_in: v[u])
        builder.edge(
            probe.at("D2"), class_size(probe.grown), lambda v, m=probe.grown: class_rank(v["S1"], m)
        )
    return builder.build()


# ----------------------------------------------------------------------
# secure-multicast network


@dataclass(frozen=True)
class SecureGadget:
    problem: NetworkProblem
    contract: ReconstructionContract
    c: Fraction
    d: Fraction


def build_secure(c: Union[Fraction, int, str], d: Union[Fraction, int, str]) -> SecureGadget:
    """Single-session secure network: rate-d source, parametrized by 0 < c < d.

    The side branch splits at the first relay into a tapped channel and a
    two-hop key path; the sink needs both the clear d-c stream and the
    unmasked c stream.  Two separate wiretaps, one on the tapped channel
    W3 and one on the key edge K, each observe nothing of the source, so
    every admissible code must draw the key from the relay's randomness.
    The contract pins every forced equality of the admissibility
    argument, ending with "the key is a function of the relayed key" in
    both directions.
    """
    c = as_fraction(c)
    d = as_fraction(d)
    if not 0 < c < d:
        raise ValueError("parameters must satisfy 0 < c < d")
    nodes = ("s", "a", "m", "b", "t")
    edges = (
        Edge("W1", "s", "a", Capacity(c)),
        Edge("W2", "s", "t", Capacity(d - c)),
        Edge("W3", "a", "b", Capacity(c)),
        Edge("K", "a", "m", Capacity(c)),
        Edge("W4", "m", "b", Capacity(c)),
        Edge("W5", "b", "t", Capacity(c)),
    )
    problem = NetworkProblem(
        network=Network(nodes, edges),
        requirement=ConnectionRequirement(
            (Session("X", d, "s", ("t",)),)
        ),
        wiretaps=WiretapPattern((Wiretap(("X",), ("W3",)), Wiretap(("X",), ("K",)))),
        randomness_nodes=("a",),
    )
    chain = [
        ("masked-channel-reveals-nothing", "I(W1;W3)", "=", "0"),
        ("key-independent-of-upper", "I(W1;K)", "=", "0"),
        ("upper-branch-pinned", "H(W1)", "=", str(c)),
        ("clear-branch-pinned", "H(W2)", "=", str(d - c)),
        ("unmasked-stream-pinned", "H(W5)", "=", str(c)),
        ("unmasked-stream-is-source-half", "H(W5|X)", "=", "0"),
        ("sink-side-recovers-upper", "H(W1|W3,W4)", "=", "0"),
        ("key-side-recovers-upper", "H(W1|K,W3)", "=", "0"),
        ("key-rate-pinned", "H(K)", "=", str(c)),
        ("relayed-key-pinned", "H(W4)", "=", str(c)),
        ("key-recoverable-from-tap-side", "H(K|W1,W3)", "=", "0"),
        ("key-pair-joint-pinned", "H(K,W4)", "=", str(c)),
        ("key-determined-by-relay", "H(K|W4)", "=", "0"),
        ("relay-determined-by-key", "H(W4|K)", "=", "0"),
    ]
    obligations = [
        Obligation(name="source-sink-min-cut", kind="min-cut", source="s", sink="t", value=str(d)),
        Obligation(name="key-path-min-cut", kind="min-cut", source="a", sink="b", value=str(2 * c)),
    ]
    for name, expr, rel, value in chain:
        obligations.append(
            Obligation(
                name=name,
                kind="chain-claim",
                subnetwork=None,
                expression=expr,
                relation=rel,
                value=value,
            )
        )
    # Probe flagging that the joint key entropy is c, not 2c: the doubled
    # target is refuted by the same LP.
    obligations.append(
        Obligation(
            name="key-pair-doubled-target-refuted",
            kind="chain-claim",
            subnetwork=None,
            expression="H(K,W4)",
            relation="=",
            value=str(2 * c),
            expected="contradicted",
        )
    )
    notes = (
        "The two-hop key path realizes key transport from the splitting "
        "relay to the merging relay; the relayed copy is the W4 role.",
        "Cuts {W1,W2} and {W2,W5} both carry exactly the source rate d.",
        "The key edge K carries a wiretap of its own, separate from the one "
        "on W3: without it a deterministic code may relay the upper stream "
        "along the key path while W3 stays constant, so the secrecy "
        "constraint would force nothing.  The tap sits on K, the first hop "
        "out of the randomness node (W4 would do as well); one joint tap on "
        "{W3, K} is not used, because the sink recovers W1 from those two "
        "edges and no code would be admissible.",
    )
    return SecureGadget(problem, ReconstructionContract(tuple(obligations), notes), c, d)


def otp_code(c: Union[Fraction, int, str], d: Union[Fraction, int, str]) -> NetworkCode:
    """One-time-pad witness code for the secure network.

    Regularity: 2**c and 2**d must be integers.  The source splits into a
    c-bit half (masked by a fresh uniform key on the tapped channel) and
    a (d-c)-bit half sent in the clear; the sink unmasks with the relayed
    key.
    """
    gadget = build_secure(c, d)
    c = gadget.c
    d = gadget.d
    if c.denominator != 1 or d.denominator != 1:
        raise ValueError("regularity violated: 2^c and 2^d must be integers")
    C = 2 ** int(c)
    D = 2 ** int(d)
    lo = D // C
    builder = CodeBuilder(gadget.problem)
    builder.source("X", D)
    builder.randomness("a", C)
    builder.edge("W1", C, lambda v: v["X"] // lo)
    builder.edge("W2", lo, lambda v: v["X"] % lo)
    builder.edge("W3", C, lambda v: (v["W1"] + v["V"]) % C)
    builder.edge("K", C, lambda v: v["V"])
    builder.edge("W4", C, lambda v: v["K"])
    builder.edge("W5", C, lambda v: (v["W3"] - v["W4"]) % C)
    return builder.build()


# ----------------------------------------------------------------------
# adhesion: one secure copy per (session, sink) of an inner multicast


@dataclass(frozen=True)
class AdheredGadget:
    problem: NetworkProblem
    contract: ReconstructionContract
    inner: NetworkProblem
    copies: tuple[tuple[str, str], ...]  # (session, sink)
    key_edges: Mapping[str, str]
    copy_sessions: Mapping[tuple[str, str], str]


def adhere(inner: NetworkProblem) -> AdheredGadget:
    """Wrap a multicast problem into an equivalent secure problem.

    Each inner session s of rate r and each sink d that demands it gets
    one copy of the secure network with c = r and source rate 2r, in order
    of session id, then sink.  The demands are `NetworkProblem.demands`:
    a session's own sinks and, under an incremental order, the sinks of
    every session after it.  In each copy the key path is replaced: one
    shared node per session emits the key into the inner network at the
    session's origin, and each inner sink feeds what it decodes into its
    copy's unmasking relay.  Copies of one session share the key; each
    copy's masked channel is tapped separately.
    """
    errors = validate(inner)
    if errors:
        raise ValueError("invalid inner problem: " + "; ".join(errors))
    if inner.wiretaps.taps:
        raise ValueError("the inner problem must have no wiretaps")
    nodes = list(inner.network.nodes)
    edges = list(inner.network.edges)
    sessions: list[Session] = []
    taps: list[Wiretap] = []
    randomness: list[str] = []
    copies: list[tuple[str, str]] = []
    key_edges: dict[str, str] = {}
    copy_sessions: dict[tuple[str, str], str] = {}
    demanders: dict[str, list[str]] = {}
    for sink, sids in inner.demands().items():
        for sid in sids:
            demanders.setdefault(sid, []).append(sink)
    for s in sorted(inner.requirement.sessions, key=lambda s: s.id):
        r = s.rate
        enc = f"enc[{s.id}]"
        if enc in nodes:
            raise ValueError(f"node name collision at {enc!r}")
        nodes.append(enc)
        randomness.append(enc)
        key_edges[s.id] = f"K[{s.id}]"
        edges.append(Edge(f"K[{s.id}]", enc, s.origin, Capacity(r)))
        for d in sorted(demanders.get(s.id, ())):
            tag = f"{s.id}.{d}"
            src, dec, snk = f"src[{tag}]", f"dec[{tag}]", f"snk[{tag}]"
            for name in (src, dec, snk):
                if name in nodes:
                    raise ValueError(f"node name collision at {name!r}")
                nodes.append(name)
            sid = f"X[{tag}]"
            sessions.append(Session(sid, 2 * r, src, (snk,)))
            copies.append((s.id, d))
            copy_sessions[(s.id, d)] = sid
            edges.append(Edge(f"W1[{tag}]", src, enc, Capacity(r)))
            edges.append(Edge(f"W2[{tag}]", src, snk, Capacity(r)))
            edges.append(Edge(f"W3[{tag}]", enc, dec, Capacity(r)))
            edges.append(Edge(f"W4[{tag}]", d, dec, Capacity(r)))
            edges.append(Edge(f"W5[{tag}]", dec, snk, Capacity(r)))
            taps.append(Wiretap((sid,), (f"W3[{tag}]",)))
    problem = NetworkProblem(
        network=Network(tuple(nodes), tuple(edges)),
        requirement=ConnectionRequirement(tuple(sessions)),
        wiretaps=WiretapPattern(tuple(taps)),
        randomness_nodes=tuple(randomness),
    )
    errors = validate(problem)
    if errors:
        raise AssertionError("construction bug: " + "; ".join(errors))
    rates = {s.id: s.rate for s in inner.requirement.sessions}
    obligations = []
    for sid, d in copies:
        tag = f"{sid}.{d}"
        obligations.append(
            Obligation(
                name=f"shell-cut[{tag}]",
                kind="min-cut",
                source=f"src[{tag}]",
                sink=f"enc[{sid}]",
                value=str(rates[sid]),
            )
        )
        obligations.append(
            Obligation(
                name=f"unmask-cut[{tag}]",
                kind="min-cut",
                source=f"dec[{tag}]",
                sink=f"snk[{tag}]",
                value=str(rates[sid]),
            )
        )
    notes = (
        "Admissible exactly when the inner multicast is admissible: keys "
        "must traverse the inner network from each session origin to every "
        "sink at the session rate.",
        "One copy per (session, sink) pair; copies of a session share the "
        "key stream, and each masked channel is tapped on its own.",
    )
    return AdheredGadget(
        problem=problem,
        contract=ReconstructionContract(tuple(obligations), notes),
        inner=inner,
        copies=tuple(copies),
        key_edges=key_edges,
        copy_sessions=copy_sessions,
    )


def compose_adhered_code(gadget: AdheredGadget, inner_code: NetworkCode) -> NetworkCode:
    """Compose an inner multicast code with per-copy one-time pads.

    The inner code must be deterministic, transport each session at
    exactly its minimal alphabet 2**rate (integer rates), and be given
    for the inner problem itself; its sessions become the key streams.
    """
    inner = gadget.inner
    if inner_code.problem != inner:
        raise ValueError("inner code was built for a different problem")
    if inner_code.randomness:
        raise ValueError("inner code must be deterministic")
    rates = {s.id: s.rate for s in inner.requirement.sessions}
    key_size: dict[str, int] = {}
    for sid, r in rates.items():
        if r.denominator != 1:
            raise ValueError("composition needs integer session rates")
        size = 2 ** int(r)
        if inner_code.source_alphabets[sid] != size:
            raise ValueError(f"inner code must carry {sid} on exactly {size} symbols")
        key_size[sid] = size
    # Decode tables: inner sink inputs -> session value, from the inner code.
    from entroflow.codes import evaluate as eval_code

    inner_sessions = inner_code.session_order()
    decode: dict[tuple[str, str], dict[tuple[int, ...], int]] = {copy: {} for copy in gadget.copies}
    for combo in itertools.product(
        *(range(inner_code.source_alphabets[s]) for s in inner_sessions)
    ):
        values = eval_code(inner_code, combo)
        values.update(zip(inner_sessions, combo))
        for (sid, d), table in decode.items():
            key = tuple(values[g] for g in inner.sink_inputs(d))
            table[key] = values[sid]
    problem = gadget.problem
    net = problem.network
    builder = CodeBuilder(problem)
    for (sid, d), xsid in gadget.copy_sessions.items():
        builder.source(xsid, key_size[sid] ** 2)
    for sid in rates:
        builder.randomness(f"enc[{sid}]", key_size[sid])
    # Copy shells.
    for (sid, d), xsid in gadget.copy_sessions.items():
        tag = f"{sid}.{d}"
        C = key_size[sid]
        builder.edge(f"W1[{tag}]", C, lambda v, x=xsid, C=C: v[x] // C)
        builder.edge(f"W2[{tag}]", C, lambda v, x=xsid, C=C: v[x] % C)
        builder.edge(
            f"W3[{tag}]", C, lambda v, tag=tag, C=C: (v[f"W1[{tag}]"] + v["V"]) % C
        )
        builder.edge(
            f"W5[{tag}]",
            C,
            lambda v, tag=tag, C=C: (v[f"W3[{tag}]"] - v[f"W4[{tag}]"]) % C,
        )
    for sid in rates:
        builder.edge(f"K[{sid}]", key_size[sid], lambda v: v["V"])
    # Inner edges reuse the inner encoders with sessions read off key edges.
    for e in inner.network.edges:
        if e.forwards is not None:
            continue
        enc = inner_code.encoders[e.id]

        def run_inner(v, enc=enc, tail=e.tail):
            args = []
            for kind, name in enc.inputs:
                if kind == "session":
                    args.append(v[gadget.key_edges[name]])
                else:
                    args.append(v[name])
            return enc.apply(args)

        builder.edge(e.id, inner_code.edge_alphabets[e.id], run_inner)
    # Unmask relays read the inner sink's decode.  The decode tables are
    # keyed by message values; translate them to the in-edge (or key-edge)
    # inputs that carry those messages at the adhered node.
    for (sid, d), xsid in gadget.copy_sessions.items():
        tag = f"{sid}.{d}"
        givens = inner.sink_inputs(d)
        table = decode[(sid, d)]
        carrier: dict[str, str] = {}
        for e in net.in_edges(d):
            if e.id.startswith("K["):
                continue
            carrier.setdefault(net.message_of(e.id), e.id)
        keys = []
        for g in givens:
            if g in carrier:
                keys.append(carrier[g])
            else:
                keys.append(gadget.key_edges[g])  # a session decoded at its origin

        # An input combination the inner code never produces maps to 0.
        def w4(v, keys=tuple(keys), table=table):
            return table.get(tuple(v[k] for k in keys), 0)

        builder.edge(f"W4[{tag}]", key_size[sid], w4)
    return builder.build()


# ----------------------------------------------------------------------
# quasi-uniform library


def quasi_uniform_library() -> dict[str, JointDistribution]:
    """Named quasi-uniform distributions used across the test suite."""
    lib: dict[str, JointDistribution] = {}
    lib["independent-bits"] = JointDistribution.uniform_over(
        [("V1", 2), ("V2", 2)], [(a, b) for a in range(2) for b in range(2)]
    )
    lib["duplicated-bit"] = JointDistribution.uniform_over(
        [("V1", 2), ("V2", 2)], [(a, a) for a in range(2)]
    )
    lib["bit-and-pair"] = JointDistribution.uniform_over(
        [("V1", 2), ("V2", 4)],
        [(a, 2 * a + b) for a in range(2) for b in range(2)],
    )
    lib["xor-triple"] = JointDistribution.uniform_over(
        [("V1", 2), ("V2", 2), ("V3", 2)],
        [(a, b, a ^ b) for a in range(2) for b in range(2)],
    )
    lib["three-independent-bits"] = JointDistribution.uniform_over(
        [("V1", 2), ("V2", 2), ("V3", 2)],
        [(a, b, c) for a in range(2) for b in range(2) for c in range(2)],
    )
    lib["duplicated-plus-independent"] = JointDistribution.uniform_over(
        [("V1", 2), ("V2", 2), ("V3", 2)],
        [(a, a, b) for a in range(2) for b in range(2)],
    )
    return lib
