"""Tests of the benchmark itself: declarations, inputs, checks and baselines.

Run with `python -m pytest perfbench/tests -q` from the repository root.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from entroflow import codes, network  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_names_units_and_workloads():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in DECLARED["workloads"]] == run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    produced = {k: u for k, (_, u) in tracing.Tracer().layer_metrics().items()}
    produced.update({"bench.traced_ops": "count", "bench.traced_ops_per_s": "1/s"})
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == produced
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def _cycle_bytes(name: str, seed: int, where: Path) -> dict[str, bytes]:
    where.mkdir(parents=True)
    rng = random.Random(f"{name}:{seed}")
    for cycle in range(3):
        workloads.WORKLOADS[name].cycle(rng, where, cycle)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = _cycle_bytes(name, 7, tmp_path / "a")
    assert first == _cycle_bytes(name, 7, tmp_path / "b")
    assert first != _cycle_bytes(name, 8, tmp_path / "c")


def test_search_dags_fit_the_budget_and_match_the_program_count():
    rng = random.Random(3)
    for _ in range(40):
        doc = inputs.search_network(rng)
        fed = {e["head"] for e in doc["edges"]}
        assert set(doc["nodes"]) - {"s"} <= fed
        problem = network.parse(json.dumps(doc))
        for randomized in (False, True):
            bound = inputs.candidate_bound(doc, randomized)
            assert bound <= inputs.SEARCH_BUDGET
            outcome = codes.exhaustive_search(problem, 2, randomized, budget=0)
            assert outcome.total == bound


def test_witness_distributions_are_quasi_uniform_and_rational():
    from entroflow.entropy import JointDistribution, is_quasi_uniform, quasi_uniform_vector_of

    rng = random.Random(5)
    for _ in range(5):
        for q in inputs.witness_cycle(rng):
            dist = JointDistribution.from_json(json.dumps(q))
            assert is_quasi_uniform(dist)
            assert quasi_uniform_vector_of(dist).is_rational()


# ----------------------------------------------------------------------
# negative controls: each check must reject a deliberately wrong answer


def _contract_result(h, ranges=None, exit_code=None):
    want = workloads.contract_expectations(h)
    verdicts = []
    for name, value in want.items():
        lo, hi = (ranges or {}).get(name, (value, value))
        status = "forced" if lo == hi == value else "consistent"
        verdicts.append(
            {"name": name, "pass": status == "forced", "detail": f"H(.) = {value} -> {status} [{lo}, {hi}]"}
        )
    all_pass = all(v["pass"] for v in verdicts)
    code = exit_code if exit_code is not None else (0 if all_pass else 1)
    return {"exit": code, "report": {"verdicts": verdicts}}


def test_contract_check_controls():
    assert workloads.check_contract((1, 1, 2), _contract_result((1, 1, 2)))[0]
    # A non-modular h may leave obligations consistent, as long as every
    # range holds the realizable value.
    loose = {"increment[1.2]": (0, 1)}
    assert workloads.check_contract((1, 1, 1), _contract_result((1, 1, 1), loose))[0]
    # Modular h must force all eleven.
    assert not workloads.check_contract((1, 1, 2), _contract_result((1, 1, 2), {"increment[1.2]": (0, 1)}))[0]
    # A range that excludes the value, by 1/2.
    off = {"v-joint-pinned": ("3/2", "3/2")}
    assert not workloads.check_contract((1, 1, 1), _contract_result((1, 1, 1), off))[0]
    # An exit code that disagrees with the verdicts.
    assert not workloads.check_contract((1, 1, 2), _contract_result((1, 1, 2), exit_code=1))[0]
    # A missing obligation.
    short = _contract_result((1, 1, 2))
    short["report"]["verdicts"].pop()
    assert not workloads.check_contract((1, 1, 2), short)[0]


def _sweep_result(lp_value="3/2", cut="3/2", exact=("optimal", "3/2")):
    return {
        "exit": 0,
        "report": {"certificates": [{"status": "optimal", "value": lp_value}]},
        "rows": 10,
        "cut": cut,
        "exact": list(exact) if exact else None,
    }


def test_sweep_check_controls():
    assert workloads.check_sweep(_sweep_result())[0]
    assert workloads.check_sweep(_sweep_result(exact=None))[0]
    assert not workloads.check_sweep(_sweep_result(lp_value="2"))[0]
    assert not workloads.check_sweep(_sweep_result(exact=("optimal", "1")))[0]
    assert not workloads.check_sweep(_sweep_result(cut="1"))[0]


def test_sweep_op_agrees_on_a_real_network(tmp_path):
    path = inputs.write_json(tmp_path / "net.json", inputs.sweep_network(random.Random(2), 5))
    result = workloads.sweep_run(path)
    assert workloads.check_sweep(result)[0]
    result["report"]["certificates"][0]["value"] = str(
        Fraction(result["cut"]) + Fraction(1, 2)
    )
    assert not workloads.check_sweep(result)[0]


def test_search_check_controls(tmp_path):
    doc = {
        "nodes": ["s", "t"],
        "edges": [{"id": "e0", "tail": "s", "head": "t", "capacity": "1"}],
        "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": ["t"]}],
    }
    path = inputs.write_json(tmp_path / "net.json", doc)
    found = workloads.search_run(path, False, 1000)
    ok, reason = workloads.check_search(found)
    assert ok, reason
    # An inadmissible code: the only edge sends a constant.
    bad = json.loads(json.dumps(found))
    bad["report"]["certificates"][0]["encoders"]["e0"]["table"] = [0, 0]
    assert not workloads.check_search(bad)[0]
    # A randomized code claimed by a deterministic search.
    rnd = json.loads(json.dumps(found))
    rnd["report"]["certificates"][0]["randomness"] = {"s": {"pmf": ["1/2", "1/2"]}}
    assert not workloads.check_search(rnd)[0]
    # An exhaust that skipped candidates.
    short = json.loads(json.dumps(found))
    short["exit"] = 1
    short["report"]["verdicts"][0]["detail"] = "exhausted: 2 of 3 candidates"
    assert not workloads.check_search(short)[0]
    over = json.loads(json.dumps(found))
    over["report"]["verdicts"][0]["detail"] = "budget-exceeded: 2 of 3 candidates"
    assert not workloads.check_search(over)[0]


def test_witness_check_controls(tmp_path):
    rng = random.Random(4)
    q = inputs.linear_distribution(rng, 2, 2)
    path = inputs.write_json(tmp_path / "q.json", q)
    good = workloads._report(["verify", "thm2", "--q", str(path)])
    assert workloads.check_witness(good)[0]
    rejected = json.loads(json.dumps(good))
    rejected["report"]["verdicts"][1]["pass"] = False
    assert not workloads.check_witness(rejected)[0]
    problem_text, code_text, _ = inputs.tampered_witness(q, rng)
    (tmp_path / "p.json").write_text(problem_text)
    (tmp_path / "c.json").write_text(code_text)
    tampered = workloads._report(["check-code", str(tmp_path / "p.json"), str(tmp_path / "c.json")])
    assert workloads.check_tampered(tampered)[0]
    accepted = json.loads(json.dumps(tampered))
    accepted["report"]["verdicts"][0]["pass"] = True
    assert not workloads.check_tampered(accepted)[0]


# ----------------------------------------------------------------------
# grading: only a known defect may fail without making the run incorrect


def _op(check_ok=True, known_defect=None):
    return workloads.Op("kind", "label", None, lambda out: (check_ok, "why"), known_defect)


def test_grade_passes_checked_ops():
    correct, failures = run.grade([_op(), _op()], [(0.1, {}, None), (0.2, {}, None)])
    assert correct and failures == []


def test_grade_unexpected_exception_makes_the_run_incorrect():
    correct, failures = run.grade([_op(), _op()], [(0.1, {}, None), (0.01, None, "ZeroDivisionError: x")])
    assert not correct
    assert [(i, known) for i, _, _, known in failures] == [(1, False)]


def test_grade_failed_check_makes_the_run_incorrect():
    correct, failures = run.grade([_op(check_ok=False)], [(0.1, {}, None)])
    assert not correct and failures[0][2] == "check failed: why"


def test_grade_known_defect_is_reported_but_correct():
    op = _op(known_defect=r"^IndexError: ")
    correct, failures = run.grade([op], [(0.1, None, "IndexError: list index out of range")])
    assert correct and [(i, known) for i, _, _, known in failures] == [(0, True)]
    # The same op failing any other way is not the known defect.
    correct, _ = run.grade([op], [(0.1, None, "KeyError: 'e3'")])
    assert not correct
    correct, _ = run.grade([_op(check_ok=False, known_defect=r"^IndexError: ")], [(0.1, {}, None)])
    assert not correct
    # Once the defect is fixed, the op is checked like any other.
    correct, failures = run.grade([op], [(0.1, {}, None)])
    assert correct and failures == []


def _probe(name, kind, workdir):
    return next(op for op in workloads.WORKLOADS[name].probes(workdir) if op.kind == kind)


def test_probes_are_not_timed_ops(tmp_path):
    for name in run.WORKLOAD_NAMES:
        kinds = {op.kind for op in workloads.WORKLOADS[name].probes(tmp_path)}
        timed = workloads.WORKLOADS[name].cycle(random.Random(1), tmp_path, 0)
        assert not kinds & {op.kind for op in timed}
        assert all(op.known_defect is None for op in timed)


def test_inputless_relay_still_fails_as_known(tmp_path):
    op = _probe("search", "search-inputless", tmp_path)
    with pytest.raises(Exception) as exc:
        op.run()
    correct, failures = run.grade([op], [(0.0, None, f"{type(exc.value).__name__}: {exc.value}")])
    assert correct and failures[0][3]


def test_x_named_law_still_fails_as_known(tmp_path):
    op = _probe("witness", "verify-thm2-named", tmp_path)
    correct, failures = run.grade([op], [(0.0, op.run(), None)])
    assert correct and failures[0][3], failures


# ----------------------------------------------------------------------
# tracing


def test_tracer_wraps_only_loaded_modules():
    probe = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import entroflow.cli, tracing\n"
        "t = tracing.Tracer(); t.install(); t.uninstall()\n"
        "print('scipy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(BENCH), str(ROOT / "src")], capture_output=True, text=True, timeout=120
    )
    assert done.stdout.strip() == "False", done.stderr


def test_sweep_rebuild_is_not_traced(tmp_path):
    workloads.run_cli(["lp-bound", str(inputs.write_json(tmp_path / "w.json", workloads.TINY_NET)), "--objective", "H(S)"])
    path = inputs.write_json(tmp_path / "net.json", inputs.sweep_network(random.Random(2), 4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        result = workloads.sweep_run(path)
    finally:
        tracer.op = None
        tracer.uninstall()
    assert workloads.check_sweep(result)[0]
    m = {k: v for k, (v, _) in tracer.layer_metrics().items()}
    assert m["lp.builds"] == 1
    assert m["network.min_cut_s"] > 0
    assert m["simplex.exact_calls"] == 1
    assert m["lp.settled.exact"] == 0


# ----------------------------------------------------------------------
# first baseline, with its exact counts


def _traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        result = workloads._report(argv)
    finally:
        tracer.op = None
        tracer.uninstall()
    return result, {k: v for k, (v, _) in tracer.layer_metrics().items()}


def test_baseline_contract_counts(tmp_path):
    path = inputs.write_json(tmp_path / "h.json", inputs.entropy_vector_doc((1, 1, 2)))
    result, m = _traced(["verify", "thm1", "--h", str(path)])
    assert workloads.check_contract((1, 1, 2), result)[0]
    assert m["lp.rows"] == 15522
    assert m["lp.builds"] == 5
    assert m["lp.solves"] == 27
    assert m["lp.settled.exact"] == 0
    assert m["gadgets.obligations"] == 11
    assert m["gadgets.obligations_unforced"] == 0


def test_baseline_secure_gadget_candidates(tmp_path):
    path = inputs.write_json(tmp_path / "secure.json", inputs.SECURE_1_2)
    result, m = _traced(
        ["search-code", str(path), "--alphabet-max", "2", "--threads", "1", "--budget", str(workloads.SECURE_BUDGET)]
    )
    assert result["report"]["verdicts"][0]["detail"] == "found: 84003 of 395981 candidates"
    assert m["codes.candidates"] == 84003


def test_tracer_restores_every_binding():
    import importlib

    before = {(mod, attr): _lookup(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    after = {(mod, attr): _lookup(importlib.import_module(mod), attr) for mod, attr, _, _ in tracing.TRACED}
    assert before == after


def _lookup(owner, attr):
    for part in attr.split("."):
        owner = owner.__dict__[part] if isinstance(owner, type) else getattr(owner, part)
    return owner


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
