"""The four workloads: their ops, and the checks of every op's output.

An op is one user-visible verdict.  Ops call entroflow's public entry
points in-process (`entroflow.cli.main`, plus the library calls named
per workload) on files written by `inputs`.  Each op returns a plain
dict; the matching `check_*` function decides, after the timed loop,
whether that output is right, from what the benchmark knows about the
input by construction rather than from the program's own verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import inputs
from entroflow import cli, codes, lp, network, simplex
from tracing import paused


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _report(argv: list[str]) -> dict:
    code, text, err = run_cli(["--json"] + argv)
    return {"exit": code, "report": json.loads(text) if text.strip() else None, "stderr": err.strip()}


def _no_report(result: dict) -> str:
    return f"no report (exit {result['exit']}): {result['stderr']}"


class Op(NamedTuple):
    """One op: what it runs on, how to run it, and how to check its output.

    `known_defect` is set only on the fixed probes that reproduce a known
    defect of the program: a regular expression that the op's failure
    reason matches.  Reproducing it is reported and leaves the run
    correct; any other failure makes the run incorrect.  Once the defect
    is fixed, the probe's output is checked like any other op's.
    """

    kind: str
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], tuple[bool, str]]
    known_defect: str | None = None


# ----------------------------------------------------------------------
# contract: `verify thm1 --h <h.json>`

CHAIN_DETAIL = re.compile(r"^(?P<expr>.+) (?P<rel>=|>=|<=) (?P<value>\S+) -> (?P<status>\w+) \[(?P<lo>[^,\]]+), (?P<hi>[^\]]+)\]$")


def contract_expectations(h: tuple[int, int, int]) -> dict[str, Fraction]:
    """Obligation name -> the value its claim states, from h alone.

    Every integer polymatroid on two variables is GF(2)-linear, so a
    witness code realizes each value and every [lower, upper] range the
    LP prints must contain it.
    """
    h1, h2, h12 = (Fraction(v) for v in h)
    return {
        "u1-rate-pinned": h1,
        "u2-rate-pinned": h2,
        "v-joint-pinned": h12,
        "streams-decompose": h1 + h2 + h12,
        "v[1]-lower": h1,
        "v[2]-lower": h2,
        "v[12]-lower": h12,
        "increment[1.2]": h12 - h1,
        "lower-receiver-gets-u[1.2]": Fraction(0),
        "increment[2.1]": h12 - h2,
        "lower-receiver-gets-u[2.1]": Fraction(0),
    }


def check_contract(h: tuple[int, int, int], result: dict) -> tuple[bool, str]:
    report = result["report"]
    if report is None:
        return False, _no_report(result)
    want = contract_expectations(h)
    got = {v["name"]: v for v in report["verdicts"]}
    if set(got) != set(want):
        return False, f"obligations {sorted(got)} differ from {sorted(want)}"
    for name, value in want.items():
        m = CHAIN_DETAIL.match(got[name]["detail"])
        if m is None:
            return False, f"{name}: no range in {got[name]['detail']!r}"
        lo = Fraction(m["lo"])
        hi = None if m["hi"] == "unbounded" else Fraction(m["hi"])
        if Fraction(m["value"]) != value:
            return False, f"{name}: states {m['value']}, expected {value}"
        if value < lo or (hi is not None and value > hi):
            return False, f"{name}: range [{lo}, {m['hi']}] excludes the realizable {value}"
        if got[name]["pass"] != (m["status"] == "forced"):
            return False, f"{name}: verdict {got[name]['pass']} disagrees with status {m['status']}"
    all_pass = all(v["pass"] for v in got.values())
    if h[2] == h[0] + h[1] and not all_pass:
        return False, "modular h must force every obligation"
    if result["exit"] != (cli.EXIT_OK if all_pass else cli.EXIT_NEGATIVE):
        return False, f"exit {result['exit']} does not match the verdicts"
    forced = sum(1 for v in got.values() if v["pass"])
    return True, f"{forced}/{len(got)} forced, every range holds its value"


def contract_ops(rng: random.Random, workdir: Path, cycle: int) -> list[Op]:
    h = inputs.contract_h(rng, cycle)
    path = inputs.write_json(workdir / f"h{cycle}.json", inputs.entropy_vector_doc(h))
    return [
        Op(
            "verify-thm1",
            f"h={h}",
            lambda p=str(path): _report(["verify", "thm1", "--h", p]),
            lambda r: check_contract(h, r),
        )
    ]


# ----------------------------------------------------------------------
# sweep: `lp-bound --objective H(S)`, min_cut and an exact re-solve

# Exact re-solves take 0.05 s or less up to about 130 rows, 0.3 to 2 s at
# 300 to 500 rows and seconds to minutes beyond.  Up to 200 rows they
# leave a run's figures steady; with a cap of 500 a few slow draws decide
# ops_per_s, which then spreads by about a quarter from seed to seed.
EXACT_ROW_CAP = 200


def sweep_run(path: Path) -> dict:
    report = _report(["lp-bound", str(path), "--objective", "H(S)"])
    # The benchmark's own parse and rebuild of the LP the CLI just solved
    # are not program time; min_cut and the exact re-solve are.
    with paused():
        problem = network.parse(path.read_text(encoding="utf-8"))
        program = lp.build_shannon_lp(problem)
        rows = lp.ShannonSolver(program).all_rows
    cut = network.min_cut(problem, "s", "t")
    exact = None
    if len(rows) <= EXACT_ROW_CAP:
        coeffs, const = program.compile("H(S)")
        index = program.coord_index()
        cert = simplex.ExactSimplex(len(program.coords), rows).maximize(
            {index[m]: c for m, c in coeffs.items()}
        )
        exact = [cert.status, str(cert.value + const) if cert.status == "optimal" else None]
    return {
        **report,
        "rows": len(rows),
        "cut": None if cut.is_unbounded else str(cut.value),
        "exact": exact,
    }


def check_sweep(result: dict) -> tuple[bool, str]:
    report = result["report"]
    if report is None or not report["certificates"]:
        return False, f"no certificate (exit {result['exit']}): {result['stderr']}"
    cert = report["certificates"][0]
    if cert["status"] != "optimal" or result["exit"] != cli.EXIT_OK:
        return False, f"LP status {cert['status']}, exit {result['exit']}"
    if result["cut"] is None or Fraction(cert["value"]) != Fraction(result["cut"]):
        return False, f"LP optimum {cert['value']} != min cut {result['cut']}"
    if result["exact"] is None:
        return True, f"LP = min cut = {result['cut']} ({result['rows']} rows, exact re-solve skipped)"
    status, value = result["exact"]
    if status != "optimal" or Fraction(value) != Fraction(result["cut"]):
        return False, f"exact re-solve {status} {value} != min cut {result['cut']}"
    return True, f"LP = exact = min cut = {result['cut']} ({result['rows']} rows)"


def sweep_ops(rng: random.Random, workdir: Path, cycle: int) -> list[Op]:
    ops = []
    for k, n_edges in enumerate(inputs.SWEEP_EDGE_COUNTS):
        path = inputs.write_json(workdir / f"net{cycle}-{k}.json", inputs.sweep_network(rng, n_edges))
        ops.append(Op("lp-bound", path.name, lambda p=path: sweep_run(p), check_sweep))
    return ops


# ----------------------------------------------------------------------
# search: `search-code --alphabet-max 2 --threads 1`

# Covers the whole space of the secure gadget (395,981 candidates).
SECURE_BUDGET = 1_000_000
SEARCH_STATUS = re.compile(r"^(?P<status>[\w-]+): (?P<searched>\d+) of (?P<total>\d+) candidates$")


def search_run(path: Path, randomized: bool, budget: int) -> dict:
    argv = ["search-code", str(path), "--alphabet-max", str(inputs.SEARCH_ALPHABET)]
    argv += ["--randomness", "on" if randomized else "off", "--threads", "1", "--budget", str(budget)]
    return {**_report(argv), "problem": str(path), "randomized": randomized}


def check_search(result: dict) -> tuple[bool, str]:
    report = result["report"]
    if report is None:
        return False, _no_report(result)
    m = SEARCH_STATUS.match(report["verdicts"][0]["detail"])
    if m is None:
        return False, f"unreadable search verdict {report['verdicts'][0]['detail']!r}"
    status, searched, total = m["status"], int(m["searched"]), int(m["total"])
    if status == "exhausted":
        if searched != total or result["exit"] != cli.EXIT_NEGATIVE:
            return False, f"exhausted after {searched} of {total} (exit {result['exit']})"
        return True, f"exhausted all {total} candidates"
    if status != "found":
        return False, f"{status} after {searched} of {total}"
    problem = network.parse(Path(result["problem"]).read_text(encoding="utf-8"))
    code_doc = report["certificates"][0]
    if not result["randomized"] and code_doc["randomness"]:
        return False, "deterministic search returned a randomized code"
    verdict = codes.check_admissible(codes.code_from_json(problem, json.dumps(code_doc)))
    if not verdict.admissible:
        return False, f"found code is not admissible: {verdict.describe()}"
    for session in problem.requirement.sessions:
        for sink in session.sinks:
            cut = network.min_cut(problem, session.origin, sink)
            if not cut.is_unbounded and cut.value < session.rate:
                return False, f"found code beats the min cut {cut} to {sink}"
    return True, f"found after {searched} of {total}, admissible"


def search_ops(rng: random.Random, workdir: Path, cycle: int) -> list[Op]:
    """Small DAGs, both modes; the first cycle also runs the secure gadget."""
    ops = []
    for k in range(inputs.SEARCH_DAGS_PER_CYCLE):
        path = inputs.write_json(workdir / f"dag{cycle}-{k}.json", inputs.search_network(rng))
        for randomized in (False, True):
            ops.append(
                Op(
                    "search-dag",
                    f"{path.name} {'randomized' if randomized else 'deterministic'}",
                    lambda p=path, r=randomized: search_run(p, r, inputs.SEARCH_BUDGET),
                    check_search,
                )
            )
    if cycle == 0:
        secure = inputs.write_json(workdir / "secure.json", inputs.SECURE_1_2)
        ops.insert(
            0,
            Op(
                "search-secure",
                "secure (1,2) deterministic",
                lambda: search_run(secure, False, SECURE_BUDGET),
                check_search,
            ),
        )
    return ops


def search_probes(workdir: Path) -> list[Op]:
    relay = inputs.write_json(workdir / "inputless.json", inputs.INPUTLESS_RELAY)
    return [
        Op(
            "search-inputless",
            "relay without inputs deterministic",
            lambda: search_run(relay, False, inputs.SEARCH_BUDGET),
            check_search,
            known_defect=r"^IndexError: ",
        )
    ]


# ----------------------------------------------------------------------
# witness: `verify thm2 --q <q.json>`, and `check-code` on a tampered witness

WITNESS_VERDICTS = ["quasi-uniform", "witness-code", "induced-streams-match"]


def check_witness(result: dict) -> tuple[bool, str]:
    report = result["report"]
    if report is None:
        return False, _no_report(result)
    names = [v["name"] for v in report["verdicts"]]
    if names != WITNESS_VERDICTS:
        return False, f"verdicts {names}, expected {WITNESS_VERDICTS}"
    failed = [v["name"] for v in report["verdicts"] if v["pass"] is not True]
    if failed or result["exit"] != cli.EXIT_OK:
        return False, f"linear distribution rejected: {failed} (exit {result['exit']})"
    return True, "quasi-uniform, witness admissible, streams match"


def check_tampered(result: dict) -> tuple[bool, str]:
    report = result["report"]
    if report is None:
        return False, _no_report(result)
    verdict = report["verdicts"][0]
    if verdict["name"] != "admissible" or verdict["pass"] is not False:
        return False, f"tampered witness accepted: {verdict}"
    if result["exit"] != cli.EXIT_NEGATIVE:
        return False, f"exit {result['exit']} for a rejected code"
    return True, "tampered witness rejected"


def witness_ops(rng: random.Random, workdir: Path, cycle: int) -> list[Op]:
    ops = []
    dists = inputs.witness_cycle(rng)
    for k, q in enumerate(dists):
        path = inputs.write_json(workdir / f"q{cycle}-{k}.json", q)
        ops.append(
            Op(
                "verify-thm2",
                f"{len(q['variables'])} streams, support {len(q['pmf'])}",
                lambda p=str(path): _report(["verify", "thm2", "--q", p]),
                check_witness,
            )
        )
    for k in inputs.WITNESS_TAMPERED:
        problem_text, code_text, flip = inputs.tampered_witness(dists[k], rng)
        problem = workdir / f"tampered{cycle}-{k}.net.json"
        code = workdir / f"tampered{cycle}-{k}.code.json"
        problem.write_text(problem_text, encoding="utf-8")
        code.write_text(code_text, encoding="utf-8")
        ops.append(
            Op(
                "check-code-tampered",
                f"q{cycle}-{k} with {flip['edge']}[{flip['entry']}] flipped",
                lambda p=str(problem), c=str(code): _report(["check-code", p, c]),
                check_tampered,
            )
        )
    return ops


def witness_probes(workdir: Path) -> list[Op]:
    path = inputs.write_json(workdir / "q-x-named.json", inputs.X_NAMED_LAW)
    return [
        Op(
            "verify-thm2-named",
            "2 streams named X1, X2",
            lambda p=str(path): _report(["verify", "thm2", "--q", p]),
            check_witness,
            known_defect=r"exit 64\): .*unknown variable 'X1'",
        )
    ]


# ----------------------------------------------------------------------


class Workload(NamedTuple):
    imports: list[str]  # what a user's first op of this kind imports
    cycle: Callable[[random.Random, Path, int], list[Op]]  # (rng, workdir, cycle index)
    # A traced run does exactly this many cycles, about what an untraced
    # run of 25 s does, so both runs hold the same mix of ops.
    trace_cycles: int
    warmup: Callable[[Path], None]  # one untimed op on a fixed input
    # Fixed instances reproducing known defects, run once per run, untimed.
    probes: Callable[[Path], list[Op]] = lambda workdir: []


TINY_NET = {
    "nodes": ["s", "t"],
    "edges": [{"id": "e0", "tail": "s", "head": "t", "capacity": "1"}],
    "sessions": [{"id": "S", "rate": "1", "origin": "s", "sinks": ["t"]}],
}


def _warm_lp(workdir: Path) -> None:
    run_cli(["lp-bound", str(inputs.write_json(workdir / "warm.json", TINY_NET)), "--objective", "H(S)"])


def _warm_search(workdir: Path) -> None:
    run_cli(["search-code", str(inputs.write_json(workdir / "warm.json", TINY_NET))])


def _warm_witness(workdir: Path) -> None:
    q = inputs.linear_distribution(random.Random(0), 2, 1)
    run_cli(["verify", "thm2", "--q", str(inputs.write_json(workdir / "warm.json", q))])


WORKLOADS = {
    "contract": Workload(["entroflow.cli", "scipy.optimize"], contract_ops, 3, _warm_lp),
    "sweep": Workload(["entroflow.cli", "scipy.optimize"], sweep_ops, 40, _warm_lp),
    "search": Workload(["entroflow.cli"], search_ops, 120, _warm_search, search_probes),
    "witness": Workload(["entroflow.cli"], witness_ops, 14, _warm_witness, witness_probes),
}
