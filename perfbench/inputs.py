"""Seeded input generators for the benchmark workloads.

Everything here is plain Python: the inputs are drawn from the seed alone,
never from the program under test, so a change to the program cannot
change what it is fed.  The one exception is the tampered witness of the
`witness` workload, which is the program's own witness code for a
generated distribution with one table entry flipped; `tampered_witness`
builds it through the public gadget API and says so.

Each generator returns plain JSON-ready documents; `write_json` fixes the
byte layout, so the same seed yields byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# ----------------------------------------------------------------------
# contract: integer polymatroids on two variables, coordinates 1..3.
#
# A zero coordinate is left out: it makes one stream constant, the gadget
# gets zero-capacity edges, and the op costs about half as much, so the
# per-run median would depend on whether a draw hit one.  A cycle is one
# op, about 7 s; cycles alternate between a modular (h12 = h1 + h2) and a
# non-modular vector, so a run holds both kinds, the modular one first.

CONTRACT_POOL = [
    (h1, h2, h12)
    for h1 in range(1, 4)
    for h2 in range(1, 4)
    for h12 in range(max(h1, h2), min(h1 + h2, 3) + 1)
]
MODULAR = [h for h in CONTRACT_POOL if h[2] == h[0] + h[1]]
NON_MODULAR = [h for h in CONTRACT_POOL if h[2] != h[0] + h[1]]


def entropy_vector_doc(h: tuple[int, int, int]) -> dict:
    return {
        "n": 2,
        "labels": ["X1", "X2"],
        "values": {"{X1}": str(h[0]), "{X2}": str(h[1]), "{X1,X2}": str(h[2])},
    }


def contract_h(rng: random.Random, cycle: int) -> tuple[int, int, int]:
    return rng.choice(NON_MODULAR if cycle % 2 else MODULAR)


# ----------------------------------------------------------------------
# sweep: random single-session DAGs, generated like acceptance check c11.
#
# LP size grows with the edge count, so each cycle holds the same mix of
# edge counts and the seed draws everything else.  Half of a cycle's ops
# are 3-edge LPs, so the median op lies well inside that class, where
# per-call overhead dominates, instead of at the edge between two size
# classes, where it would jump from seed to seed.  The larger LPs (4 to 8
# edges) take most of a cycle's time and so set ops_per_s.

SWEEP_CAPACITIES = ["0", "1/3", "1/2", "1", "3/2", "2"]
SWEEP_EDGE_COUNTS = [3, 3, 3, 3, 3, 4, 5, 6, 7, 8]


def sweep_network(rng: random.Random, n_edges: int) -> dict:
    n_mid = rng.randint(1, 3)
    nodes = ["s"] + [f"m{i}" for i in range(n_mid)] + ["t"]
    rank = {v: i for i, v in enumerate(nodes)}
    edges = []
    for k in range(n_edges):
        u, v = rng.sample(nodes, 2)
        if rank[u] > rank[v]:
            u, v = v, u
        edges.append({"id": f"e{k}", "tail": u, "head": v, "capacity": rng.choice(SWEEP_CAPACITIES)})
    return {
        "nodes": nodes,
        "edges": edges,
        "sessions": [{"id": "S", "rate": "0", "origin": "s", "sinks": ["t"]}],
    }


# ----------------------------------------------------------------------
# search: the secure gadget (c, d) = (1, 2) as a literal, seeded small
# multicast DAGs, and one degenerate relay-without-inputs instance.

SECURE_1_2 = {
    "nodes": ["s", "a", "m", "b", "t"],
    "edges": [
        {"id": "W1", "tail": "s", "head": "a", "capacity": "1"},
        {"id": "W2", "tail": "s", "head": "t", "capacity": "1"},
        {"id": "W3", "tail": "a", "head": "b", "capacity": "1"},
        {"id": "K", "tail": "a", "head": "m", "capacity": "1"},
        {"id": "W4", "tail": "m", "head": "b", "capacity": "1"},
        {"id": "W5", "tail": "b", "head": "t", "capacity": "1"},
    ],
    "sessions": [{"id": "X", "rate": "2", "origin": "s", "sinks": ["t"]}],
    "wiretaps": [{"sources": ["X"], "edges": ["W3"]}],
    "randomness": ["a"],
}

# Passes validation, but the search indexes a zero-entry table built for
# the input-less relay m0.  Run once per run as a known-defect probe.
INPUTLESS_RELAY = {
    "nodes": ["s", "m0", "m1", "t1", "t2"],
    "edges": [
        {"id": "e0", "tail": "m1", "head": "t2", "capacity": "unbounded"},
        {"id": "e1", "tail": "s", "head": "m1", "capacity": "2"},
        {"id": "e2", "tail": "s", "head": "t1", "capacity": "1"},
        {"id": "e3", "tail": "m0", "head": "m1", "capacity": "2"},
        {"id": "e4", "tail": "m0", "head": "m1", "capacity": "2"},
    ],
    "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": ["t1", "t2"]}],
}

SEARCH_CAPACITIES = ["1/2", "1", "2", "unbounded"]
SEARCH_ALPHABET = 2
# Candidates any one small-DAG op may scan.  Instances whose space exceeds
# it are redrawn (see `candidate_bound`), so no op of this workload ends
# budget-exceeded.  At 5,000 the few draws near the limit (a twentieth of
# the ops, half of the time) decide a run's ops_per_s, which then spreads
# by about a ninth from seed to seed; at 1,000 by about a twentieth.
SEARCH_BUDGET = 1_000
SEARCH_DAGS_PER_CYCLE = 8


def candidate_bound(doc: dict, randomized: bool) -> int:
    """Candidates in the space of `search-code --alphabet-max 2` on doc.

    Counted from the topology alone: each edge message takes an alphabet
    of size 1 or 2 that fits its capacity (size <= 2 ** capacity), each
    edge tail's randomness (randomized mode) a size of 1 or 2, and the
    rate-1 session the size 2.  For each choice of sizes, an edge's table
    has one entry per combination of its inputs (origin session, in-edge
    messages, tail randomness), so size ** entries fillings; the space is
    the sum over size choices of the product over edges.
    """
    def fits(size: int, cap: str) -> bool:
        if cap == "unbounded":
            return True
        c = Fraction(cap)
        return size ** c.denominator <= 2 ** c.numerator

    edges = doc["edges"]
    origins = {s["origin"] for s in doc["sessions"]}
    tails = sorted({e["tail"] for e in edges}) if randomized else []
    names = [e["id"] for e in edges] + [f"V_{t}" for t in tails]
    options = [[k for k in (1, 2) if fits(k, e["capacity"])] for e in edges]
    options += [[1, 2] for _ in tails]
    total = 0
    for combo in itertools.product(*options):
        size = dict(zip(names, combo))
        block = 1
        for e in edges:
            dims = [SEARCH_ALPHABET] if e["tail"] in origins else []
            dims += [size[f["id"]] for f in edges if f["head"] == e["tail"]]
            dims += [size[f"V_{e['tail']}"]] if randomized else []
            block *= size[e["id"]] ** math.prod(dims) if dims else size[e["id"]]
        total += block
    return total


def search_network(rng: random.Random) -> dict:
    """A small multicast DAG whose both search modes fit SEARCH_BUDGET."""
    while True:
        relays = [f"m{i}" for i in range(rng.randint(1, 2))]
        sinks = [f"t{i + 1}" for i in range(rng.randint(1, 2))]
        tails = ["s"] + relays
        order = tails + sinks
        pairs = []
        # Every non-origin node gets an in-edge from an earlier node.
        for v in relays + sinks:
            pairs.append((rng.choice([u for u in tails if order.index(u) < order.index(v)]), v))
        for _ in range(rng.randint(max(3, len(pairs)), 5) - len(pairs)):
            u = rng.choice(tails)
            pairs.append((u, rng.choice([v for v in order if order.index(v) > order.index(u)])))
        edges = [
            {"id": f"e{k}", "tail": u, "head": v, "capacity": rng.choice(SEARCH_CAPACITIES)}
            for k, (u, v) in enumerate(pairs)
        ]
        doc = {
            "nodes": order,
            "edges": edges,
            "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": sinks}],
        }
        if rng.random() < 0.5:
            doc["wiretaps"] = [{"sources": ["X"], "edges": [rng.choice(edges)["id"]]}]
        if candidate_bound(doc, randomized=True) <= SEARCH_BUDGET:
            return doc


# ----------------------------------------------------------------------
# witness: GF(2)-linear quasi-uniform distributions.
#
# k uniform bits b; stream i is the bit a_i . b for a nonzero a_i in
# GF(2)^k.  The joint law is uniform on the image of b, so every marginal
# is uniform on its support and every entropy is a rank, an integer.  The
# forms span GF(2)^k, so the support has exactly 2^k points and each
# (streams, bits) shape costs about the same whatever the draw; up to
# relabelling the seed picks among few laws, and picks the tampered entry.
# Streams are named V1..Vn: `verify thm2` looks the input's variable names
# up among the witness code's V streams and exits 64 on any other name.
# That defect stays visible through X_NAMED_LAW, a probe run once per run.

WITNESS_SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]  # (streams, bits)
# The last two ops of a cycle check a tampered witness of the cycle's
# (3, 1) and (3, 2) distribution.  Ops on 2 streams take about 0.02 s and
# ops on 3 streams 0.2 to 0.6 s; with two cheap and five dear ops a cycle,
# the median op lies well inside the dear class, not at its lower edge.
WITNESS_TAMPERED = (2, 3)


# X1 a uniform bit and X2 = X1: linear, so a witness exists, but
# `verify thm2` rejects the names (a known-defect probe).
X_NAMED_LAW = {
    "variables": [{"name": "X1", "size": 2}, {"name": "X2", "size": 2}],
    "pmf": [[[0, 0], "1/2"], [[1, 1], "1/2"]],
}


def _rank(forms: list[int]) -> int:
    basis: list[int] = []
    for f in forms:
        for b in basis:
            f = min(f, f ^ b)
        if f:
            basis.append(f)
    return len(basis)


def linear_distribution(rng: random.Random, streams: int, bits: int) -> dict:
    while True:
        forms = [rng.randrange(1, 1 << bits) for _ in range(streams)]
        if _rank(forms) == bits:
            break
    counts: dict[tuple[int, ...], int] = {}
    for b in range(1 << bits):
        point = tuple(bin(a & b).count("1") & 1 for a in forms)
        counts[point] = counts.get(point, 0) + 1
    return {
        "variables": [{"name": f"V{i + 1}", "size": 2} for i in range(streams)],
        "pmf": [[list(p), str(Fraction(c, 1 << bits))] for p, c in sorted(counts.items())],
    }


def witness_cycle(rng: random.Random) -> list[dict]:
    return [linear_distribution(rng, n, k) for n, k in WITNESS_SHAPES]


def tampered_witness(q_doc: dict, rng: random.Random) -> tuple[str, str, dict]:
    """Problem and code text of q's witness with one U-table entry flipped.

    U_i is the i-th digit of session S0 and the sink tU decodes S0 from
    all U streams, a bijection; changing one entry makes two values of S0
    collide there, so the tampered code is not zero-error at tU.  The
    returned dict records what was flipped.
    """
    problem_text, code_text = _witness_code(json.dumps(q_doc, sort_keys=True))
    doc = json.loads(code_text)
    u_edges = sorted(e for e in doc["encoders"] if e.startswith("U") and doc["edges"][e] >= 2)
    edge = rng.choice(u_edges)
    flat = _flat(doc["encoders"][edge]["table"])
    pos = rng.randrange(len(flat))
    flat[pos][0][flat[pos][1]] = (flat[pos][0][flat[pos][1]] + 1) % doc["edges"][edge]
    return problem_text, json.dumps(doc, indent=2), {"edge": edge, "entry": pos}


@functools.lru_cache(maxsize=None)
def _witness_code(q_text: str) -> tuple[str, str]:
    """Problem and code text of the program's witness code for one law.

    Cached per law: a run draws few distinct laws, and building each
    witness again every cycle would take about a fifth of the run's time.
    """
    from entroflow.codes import code_to_json
    from entroflow.entropy import JointDistribution
    from entroflow.gadgets import incremental_code
    from entroflow.network import serialize

    code = incremental_code(JointDistribution.from_json(q_text))
    return serialize(code.problem), code_to_json(code)


def _flat(table) -> list[tuple[list, int]]:
    """(container, index) of every leaf of a nested table, in order."""
    out = []
    for i, item in enumerate(table):
        if isinstance(item, list):
            out.extend(_flat(item))
        else:
            out.append((table, i))
    return out


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
