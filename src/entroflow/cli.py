"""Batch command-line surface.

Subcommands tie the modules together and emit human-readable reports or,
with --json, a machine-readable run report with a stable field order
(identical inputs give byte-identical JSON apart from the timing field,
and from the stats field of a `verify` command that ran proof chains:
the sums of their `lp.SolveStats`, which depend on what earlier chains
in the process stored).

Exit codes: 0 success / witness found; 1 definitive negative; 2
precondition failed (e.g. not a polymatroid); 3 budget exhausted; 64
usage or parse error; 65 variable ground too large.

Importing this module loads `entropy`, `network` and `codes` only, which
is all that `search-code`, `check-code` and `check-entropic` run.  The
names it calls from `gadgets` and `lp` (`_LAZY`) are bound into its
globals by the first command that needs them (`lp-bound`, `gadget`,
`verify`), or by the first `cli.<name>` lookup from outside.  A name that
is already bound is kept, so a monkeypatch or a tracer's wrapper set on
`cli.<name>` before the first command survives it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import sys
import time
from typing import Optional, Sequence

from entroflow import entropy as ent
from entroflow import network as net
from entroflow.codes import (
    check_admissible,
    code_from_json,
    code_to_json,
    exhaustive_search,
)
from entroflow.entropy import EntropyVector, JointDistribution

# The names the commands call from the LP and gadget layers, by module,
# bound on first use (see the module docstring).
_LAZY = {
    "entroflow.gadgets": (
        "adhere",
        "build_incremental",
        "build_secure",
        "compose_adhered_code",
        "incremental_code",
        "otp_code",
        "verify_contract",
    ),
    "entroflow.lp": (
        "Claim",
        "GroundTooLargeError",
        "ShannonSolver",
        "build_shannon_lp",
        "certificate_to_json",
        "verify_proof_chain",
    ),
}


def _bind(*modules: str) -> None:
    """Import `modules` and bind the names of `_LAZY` each provides, keeping
    a name already bound here."""
    scope = globals()
    for module in modules:
        owner = importlib.import_module(module)
        for name in _LAZY[module]:
            scope.setdefault(name, getattr(owner, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_CAPACITY = 65

_VERIFY_ALIASES = {
    "prop1": "key-forcing",
    "thm1": "incremental-forcing",
    "thm2": "uniform-witness",
    "thm4-demo": "adhesion-demo",
}


class _Report:
    """Accumulates verdicts; rendered as text lines or one JSON object."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: dict[str, str] = {}
        self.verdicts: list[dict] = []
        self.certificates: list = []
        self.stats = None  # the summed `SolveStats` of the proof chains run, if any
        self.started = time.perf_counter()

    def digest(self, name: str, text: str) -> None:
        self.inputs[name] = hashlib.sha256(text.encode()).hexdigest()

    def add(self, name: str, passed: Optional[bool], detail: str) -> None:
        self.verdicts.append({"name": name, "pass": passed, "detail": detail})

    def add_contract(self, prefix: str, contract) -> None:
        """The verdicts of a `gadgets.ContractReport`, each name after
        `prefix`, and the work of its proof chains."""
        for r in contract.results:
            self.add(prefix + r.name, r.ok, r.detail)
        self.stats = contract.stats if self.stats is None else self.stats + contract.stats

    def render(self, as_json: bool) -> str:
        if as_json:
            doc = {
                "command": self.command,
                "inputs": self.inputs,
                "verdicts": self.verdicts,
                "certificates": self.certificates,
                "timing": {"seconds": round(time.perf_counter() - self.started, 6)},
            }
            if self.stats is not None:
                doc["stats"] = {k: round(v, 6) for k, v in dataclasses.asdict(self.stats).items()}
            return json.dumps(doc, indent=2)
        lines = []
        for v in self.verdicts:
            mark = "PASS" if v["pass"] else ("FAIL" if v["pass"] is not None else "info")
            lines.append(f"{mark} {v['name']}: {v['detail']}")
        return "\n".join(lines)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _budget(args, default: int) -> int:
    """`--budget`, else `ENTROFLOW_BUDGET`, else `default`; ValueError
    unless the budget is an integer >= 0."""
    budget = args.budget
    if budget is None:
        env = os.environ.get("ENTROFLOW_BUDGET")
        if not env:
            return default
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"ENTROFLOW_BUDGET={env!r} is not an integer") from None
    if budget < 0:
        raise ValueError(f"the budget must be >= 0, got {budget}")
    return budget


def _emit(report: _Report, args, code: int) -> int:
    print(report.render(args.json))
    return code


def cmd_check_entropic(args) -> int:
    report = _Report("check-entropic")
    try:
        budget = _budget(args, 200_000)
        text = _read(args.h_file)
        h = EntropyVector.from_json(text)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.digest("h", text)
    poly = ent.is_polymatroid(h, args.tol)
    if not poly:
        report.add("polymatroid", False, poly.violations[0])
        return _emit(report, args, EXIT_PRECONDITION)
    report.add("polymatroid", True, "all Shannon axioms hold")
    try:
        result = ent.entropic_search(h, max_support=args.max_support, tol=args.tol, budget=budget)
    except ValueError as exc:  # a ground past the search limit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if result.status == "found":
        report.add("witness", True, f"found after {result.candidates_tried} candidates")
        report.certificates.append(json.loads(result.witness.to_json()))
        return _emit(report, args, EXIT_OK)
    if result.status == "budget-exceeded":
        report.add("witness", None, f"budget exhausted after {result.candidates_tried}")
        return _emit(report, args, EXIT_BUDGET)
    report.add("witness", False, result.detail)
    return _emit(report, args, EXIT_NEGATIVE)


def cmd_lp_bound(args) -> int:
    _bind("entroflow.lp")
    report = _Report("lp-bound")
    try:
        text = _read(args.problem_file)
        problem = net.parse(text)
    except (OSError, net.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.digest("problem", text)
    variables = args.subnetwork.split(",") if args.subnetwork else None
    try:
        lp = build_shannon_lp(problem, variables=variables, reduce=not args.no_reduce)
    except GroundTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (KeyError, ValueError) as exc:  # e.g. an unknown --subnetwork variable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    solver = ShannonSolver(lp)
    if args.dump_lp:
        from entroflow.lp import export_text

        print(export_text(lp))
    if args.verify_chain:
        try:
            chain_text = _read(args.verify_chain)
            doc = json.loads(chain_text)
            if not (isinstance(doc, list) and all(isinstance(entry, dict) for entry in doc)):
                raise ValueError("a proof chain is an array of claim objects")
            claims = [
                Claim.of(
                    entry.get("name", entry["claim"]),
                    entry["claim"],
                    entry["relation"],
                    entry["value"],
                )
                for entry in doc
            ]
            for claim in claims:
                lp.compile(claim.expression)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report.digest("chain", chain_text)
        chain = verify_proof_chain(solver, claims)
        for v in chain.verdicts:
            report.add(v.claim.name, v.status == "forced", v.describe())
        return _emit(report, args, EXIT_OK if chain.all_forced else EXIT_NEGATIVE)
    if args.objective:
        try:
            lp.compile(args.objective)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        cert = (
            solver.minimize(args.objective)
            if args.minimize
            else solver.maximize(args.objective)
        )
        report.certificates.append(json.loads(certificate_to_json(lp, cert)))
        if cert.status == "optimal":
            report.add("optimum", True, f"{args.objective} = {cert.value}")
            return _emit(report, args, EXIT_OK)
        report.add("optimum", False, cert.status)
        return _emit(report, args, EXIT_NEGATIVE)
    cert = solver.feasibility()
    report.certificates.append(json.loads(certificate_to_json(lp, cert)))
    report.add("feasibility", cert.status == "feasible", cert.status)
    return _emit(report, args, EXIT_OK if cert.status == "feasible" else EXIT_NEGATIVE)


def cmd_search_code(args) -> int:
    report = _Report("search-code")
    try:
        budget = _budget(args, 10_000_000)
        text = _read(args.problem_file)
        problem = net.parse(text)
    except (OSError, ValueError) as exc:  # net.SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.digest("problem", text)
    try:
        outcome = exhaustive_search(
            problem,
            alphabet_bounds=args.alphabet_max,
            allow_randomness=args.randomness == "on",
            budget=budget,
        )
    except ValueError as exc:  # e.g. an edge named like a modelled node randomness
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.add(
        "search",
        outcome.status == "found",
        f"{outcome.status}: {outcome.searched} of {outcome.total} candidates",
    )
    if outcome.status == "found":
        text = code_to_json(outcome.code)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        report.certificates.append(json.loads(text))
        return _emit(report, args, EXIT_OK)
    if outcome.status == "budget-exceeded":
        return _emit(report, args, EXIT_BUDGET)
    return _emit(report, args, EXIT_NEGATIVE)


def cmd_check_code(args) -> int:
    report = _Report("check-code")
    try:
        ptext = _read(args.problem_file)
        problem = net.parse(ptext)
        ctext = _read(args.code_file)
        code = code_from_json(problem, ctext)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.digest("problem", ptext)
    report.digest("code", ctext)
    verdict = check_admissible(code)
    report.add("admissible", verdict.admissible, verdict.describe())
    return _emit(report, args, EXIT_OK if verdict else EXIT_NEGATIVE)


def cmd_gadget(args) -> int:
    _bind("entroflow.gadgets")
    report = _Report(f"gadget-{args.kind}")
    try:
        if args.kind == "incremental":
            h = EntropyVector.from_json(_read(args.h))
            gadget = build_incremental(h)
        elif args.kind == "secure":
            gadget = build_secure(args.c, args.d)
        else:
            inner = net.parse(_read(args.inner))
            gadget = adhere(inner)
    except (OSError, ValueError, KeyError, net.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    problem_text = net.serialize(gadget.problem)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(problem_text)
        report.add("problem", True, f"written to {args.out}")
    else:
        print(problem_text)
    if args.contract:
        with open(args.contract, "w", encoding="utf-8") as fh:
            fh.write(gadget.contract.to_json())
        report.add("contract", True, f"written to {args.contract}")
    if args.out or args.contract:
        print(report.render(args.json))
    return EXIT_OK


def _verify_key_forcing(args, report: _Report) -> bool:
    gadget = build_secure(args.c, args.d)
    contract = verify_contract(gadget.problem, gadget.contract)
    report.add_contract("", contract)
    c = ent.as_fraction(args.c)
    d = ent.as_fraction(args.d)
    if c.denominator == 1 and d.denominator == 1:
        code = otp_code(c, d)
        verdict = check_admissible(code)
        report.add("one-time-pad-witness", verdict.admissible, verdict.describe())
        return contract.all_ok and verdict.admissible
    return contract.all_ok


def _verify_incremental(args, report: _Report) -> bool:
    """The contract of one entropy vector, or of each vector of an array (a
    region's points) in turn, in one process: every gadget of one ground
    size has the same topology, so the proof chains of a later vector start
    from the bases the earlier ones stored (`highs.BASES`).  With an array,
    vector k's verdicts are named `h<k>/<obligation>`, k from 1."""
    if not args.h:
        raise ValueError("incremental-forcing needs --h <entropy vector file>")
    text = _read(args.h)
    report.digest("h", text)
    doc = json.loads(text)
    if not isinstance(doc, list):
        gadgets = [("", build_incremental(EntropyVector.from_json(text)))]
    elif not doc:
        raise ValueError("the array of entropy vectors is empty")
    else:
        gadgets = []
        for k, entry in enumerate(doc, 1):
            try:
                gadgets.append((f"h{k}/", build_incremental(EntropyVector.from_json(json.dumps(entry)))))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"entropy vector {k}: {exc}") from None
    ok = True
    for prefix, gadget in gadgets:
        contract = verify_contract(gadget.problem, gadget.contract)
        report.add_contract(prefix, contract)
        ok &= contract.all_ok
    return ok


def _verify_uniform_witness(args, report: _Report) -> bool:
    if not args.q:
        raise ValueError("uniform-witness needs --q <distribution file>")
    text = _read(args.q)
    report.digest("q", text)
    q = JointDistribution.from_json(text)
    if not ent.is_quasi_uniform(q):
        report.add("quasi-uniform", False, "input distribution is not quasi-uniform")
        return False
    report.add("quasi-uniform", True, "all subset marginals uniform")
    code = incremental_code(q)
    from entroflow.codes import induced_joint_distribution

    dist = induced_joint_distribution(code)
    verdict = check_admissible(code, dist=dist)
    report.add("witness-code", verdict.admissible, verdict.describe())
    marginal = dist.marginal(q.names())  # the V streams, by q's names (KeyError on an unknown one)
    sizes = dict(dist.variables)
    streams = JointDistribution(tuple((n, sizes[n]) for n in q.names()), marginal)
    match = ent.is_quasi_uniform(streams) and ent.quasi_uniform_vector_of(streams) == ent.quasi_uniform_vector_of(q)
    report.add("induced-streams-match", match, "exact: V-stream marginal quasi-uniform with q's entropy vector")
    return verdict.admissible and match


def _verify_adhesion(args, report: _Report) -> bool:
    from entroflow.codes import CodeBuilder

    ok = True
    # Unit-capacity relay: composition with the identity code.
    inner = net.problem_from_dict(
        {
            "nodes": ["u", "v"],
            "edges": [{"id": "e", "tail": "u", "head": "v", "capacity": "1"}],
            "sessions": [{"id": "S", "rate": "1", "origin": "u", "sinks": ["v"]}],
        }
    )
    gadget = adhere(inner)
    inner_code = CodeBuilder(inner).source("S", 2).edge("e", 2, lambda v: v["S"]).build()
    verdict = check_admissible(compose_adhered_code(gadget, inner_code))
    report.add("unit-relay-composition", verdict.admissible, verdict.describe())
    ok &= verdict.admissible
    # Half-capacity relay: the wrapped problem is LP-infeasible.
    thin = net.problem_from_dict(
        {
            "nodes": ["u", "v"],
            "edges": [{"id": "e", "tail": "u", "head": "v", "capacity": "1/2"}],
            "sessions": [{"id": "S", "rate": "1", "origin": "u", "sinks": ["v"]}],
        }
    )
    cert = ShannonSolver(build_shannon_lp(adhere(thin).problem)).feasibility()
    report.add(
        "half-capacity-infeasible",
        cert.status == "infeasible",
        f"LP status {cert.status} with Farkas certificate",
    )
    ok &= cert.status == "infeasible"
    return bool(ok)


def cmd_verify(args) -> int:
    _bind("entroflow.gadgets", "entroflow.lp")
    name = _VERIFY_ALIASES.get(args.name, args.name)
    report = _Report(f"verify-{name}")
    runners = {
        "key-forcing": _verify_key_forcing,
        "incremental-forcing": _verify_incremental,
        "uniform-witness": _verify_uniform_witness,
        "adhesion-demo": _verify_adhesion,
    }
    runner = runners.get(name)
    if runner is None:
        print(f"error: unknown experiment {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        passed = runner(args, report)
    except (OSError, ValueError, KeyError, net.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(report, args, EXIT_OK if passed else EXIT_NEGATIVE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Exact analysis of network coding problems.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON run report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-entropic", help="polymatroid check plus witness search")
    p.add_argument("h_file")
    p.add_argument("--max-support", type=int, default=4)
    p.add_argument(
        "--tol",
        type=float,
        default=ent.DEFAULT_TOL,
        help="tolerance for float coordinates; rational ones are compared exactly",
    )
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_check_entropic)

    p = sub.add_parser("lp-bound", help="Shannon LP bound, feasibility, or proof chain")
    p.add_argument("problem_file")
    p.add_argument("--objective", help='expression, e.g. "H(T)" or "I(A;B|C)"')
    p.add_argument("--minimize", action="store_true")
    p.add_argument("--verify-chain", help="JSON file with claim/relation/value entries")
    p.add_argument("--subnetwork", help="comma-separated variable names")
    p.add_argument("--no-reduce", action="store_true", help="keep all 2^n-1 coordinates")
    p.add_argument("--dump-lp", action="store_true", help="print the constraint system")
    p.set_defaults(func=cmd_lp_bound)

    p = sub.add_parser("search-code", help="bounded exhaustive code search")
    p.add_argument("problem_file")
    p.add_argument("--alphabet-max", type=int, default=2)
    p.add_argument("--randomness", choices=("on", "off"), default="off")
    p.add_argument("--budget", type=int)
    # Accepted for old command lines and ignored: the search is single-threaded.
    p.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--out", help="write the found code as JSON")
    p.set_defaults(func=cmd_search_code)

    p = sub.add_parser("check-code", help="exact admissibility of an explicit code")
    p.add_argument("problem_file")
    p.add_argument("code_file")
    p.set_defaults(func=cmd_check_code)

    p = sub.add_parser("gadget", help="construct a test network")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("incremental")
    g.add_argument("--h", required=True, help="entropy vector JSON file")
    g.add_argument("--out")
    g.add_argument("--contract")
    g.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    g.set_defaults(func=cmd_gadget)
    g = gsub.add_parser("secure")
    g.add_argument("--c", required=True)
    g.add_argument("--d", required=True)
    g.add_argument("--out")
    g.add_argument("--contract")
    g.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    g.set_defaults(func=cmd_gadget)
    g = gsub.add_parser("adhere")
    g.add_argument("--inner", required=True, help="inner multicast problem JSON")
    g.add_argument("--out")
    g.add_argument("--contract")
    g.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    g.set_defaults(func=cmd_gadget)

    p = sub.add_parser(
        "verify",
        help="named verification experiments: key-forcing (prop1), "
        "incremental-forcing (thm1), uniform-witness (thm2), adhesion-demo (thm4-demo)",
    )
    p.add_argument("name")
    p.add_argument("--h", help="entropy vector file, or an array of vectors (incremental-forcing)")
    p.add_argument("--q", help="distribution file (uniform-witness)")
    p.add_argument("--c", default="1")
    p.add_argument("--d", default="2")
    p.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
