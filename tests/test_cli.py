import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from entroflow.cli import main
from entroflow.entropy import EntropyVector
from entroflow.gadgets import quasi_uniform_library
from entroflow.network import serialize

from test_network import simple_problem


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def h_file(tmp_path, values, name="h.json"):
    return write(
        tmp_path, name, EntropyVector.from_tuple([Fraction(v) for v in values]).to_json()
    )


def single_edge_file(tmp_path, rate="1", cap="1"):
    p = simple_problem([("e", "s", "t", cap)], [("S", Fraction(rate), "s", ("t",))])
    return write(tmp_path, "problem.json", serialize(p))


class TestCheckEntropic:
    def test_witness_found(self, tmp_path, capsys):
        assert main(["check-entropic", h_file(tmp_path, [1, 1, 2])]) == 0
        assert "PASS witness" in capsys.readouterr().out

    def test_not_polymatroid(self, tmp_path, capsys):
        assert main(["check-entropic", h_file(tmp_path, [1, 1, 3])]) == 2
        assert "FAIL polymatroid" in capsys.readouterr().out

    def test_duplicated_bit(self, tmp_path):
        assert main(["check-entropic", h_file(tmp_path, [1, 1, 1])]) == 0

    def test_budget(self, tmp_path):
        code = main(
            ["check-entropic", h_file(tmp_path, [1, 1, 1, 2, 2, 2, 2]), "--budget", "2"]
        )
        assert code == 3

    def test_parse_error(self, tmp_path):
        bad = write(tmp_path, "bad.json", "{not json")
        assert main(["check-entropic", bad]) == 64

    # A rational coordinate 10^-10 below nonnegativity or past submodularity
    # is a violation; written as a JSON float it lies within --tol.
    NEAR_VIOLATORS = [["-1/10000000000", "1", "1"], ["1", "1", "20000000001/10000000000"]]

    @pytest.mark.parametrize("values", NEAR_VIOLATORS, ids=["nonnegativity", "submodularity"])
    def test_rational_near_violator_is_not_a_polymatroid(self, tmp_path, capsys, values):
        assert main(["check-entropic", h_file(tmp_path, values)]) == 2
        assert "FAIL polymatroid" in capsys.readouterr().out

    @pytest.mark.parametrize("values", NEAR_VIOLATORS, ids=["nonnegativity", "submodularity"])
    def test_float_near_violator_is_within_tol(self, tmp_path, capsys, values):
        floats = dict(zip(["{X1}", "{X2}", "{X1,X2}"], (float(Fraction(v)) for v in values)))
        doc = {"n": 2, "labels": ["X1", "X2"], "values": floats}
        assert main(["check-entropic", write(tmp_path, "h.json", json.dumps(doc))]) == 0
        assert "PASS witness" in capsys.readouterr().out

    # A rational vector 10^-10 away from an entropic one: no witness has
    # exactly these entropies, so no witness is found.  Written as JSON
    # floats the same vectors lie within --tol of a witness.
    NEAR_WITNESSES = [["1", "1", "10000000001/10000000000"], ["1", "10000000001/10000000000", "2"]]

    @pytest.mark.parametrize("values", NEAR_WITNESSES, ids=["joint", "marginal"])
    def test_rational_near_witness_is_not_matched(self, tmp_path, capsys, values):
        assert main(["check-entropic", h_file(tmp_path, values)]) == 1
        out = capsys.readouterr().out
        assert "PASS polymatroid" in out and "PASS witness" not in out

    @pytest.mark.parametrize("values", NEAR_WITNESSES[:1], ids=["joint"])
    def test_float_near_witness_is_within_tol(self, tmp_path, capsys, values):
        floats = dict(zip(["{X1}", "{X2}", "{X1,X2}"], (float(Fraction(v)) for v in values)))
        doc = {"n": 2, "labels": ["X1", "X2"], "values": floats}
        assert main(["check-entropic", write(tmp_path, "h.json", json.dumps(doc))]) == 0
        assert "PASS witness" in capsys.readouterr().out

    def test_ground_past_the_search_limit_is_a_usage_error(self, tmp_path, capsys):
        # Four independent bits: a polymatroid the witness search cannot take.
        values = [bin(m).count("1") for m in sorted(range(1, 16), key=lambda m: (bin(m).count("1"), m))]
        assert main(["check-entropic", h_file(tmp_path, values)]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: ground of size 4 exceeds the search limit 3\n"


class TestLpBound:
    def test_objective(self, tmp_path, capsys):
        assert main(
            ["lp-bound", single_edge_file(tmp_path), "--objective", "H(S)"]
        ) == 0
        assert "H(S) = 1" in capsys.readouterr().out

    def test_infeasible(self, tmp_path, capsys):
        assert main(["lp-bound", single_edge_file(tmp_path, rate="2")]) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out

    def test_chain(self, tmp_path, capsys):
        chain = write(
            tmp_path,
            "chain.json",
            json.dumps(
                [
                    {"name": "rate", "claim": "H(S)", "relation": "=", "value": "1"},
                    {"claim": "H(S|e)", "relation": "=", "value": "0"},
                ]
            ),
        )
        assert main(
            ["lp-bound", single_edge_file(tmp_path), "--verify-chain", chain]
        ) == 0
        assert "forced" in capsys.readouterr().out

    @pytest.mark.parametrize("objective", ["H(Q)", "H(S", "2*", "H(S)+"])
    def test_bad_objective_is_a_usage_error(self, tmp_path, capsys, objective):
        assert main(["lp-bound", single_edge_file(tmp_path), "--objective", objective]) == 64
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("claim", ["H(Q)", "H(S"])
    def test_bad_chain_claim_is_a_usage_error(self, tmp_path, capsys, claim):
        chain = write(
            tmp_path,
            "chain.json",
            json.dumps(
                [
                    {"claim": "H(S)", "relation": "=", "value": "1"},
                    {"claim": claim, "relation": "=", "value": "0"},
                ]
            ),
        )
        assert main(["lp-bound", single_edge_file(tmp_path), "--verify-chain", chain]) == 64
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_subnetwork_variable_is_a_usage_error(self, tmp_path, capsys):
        assert main(["lp-bound", single_edge_file(tmp_path), "--subnetwork", "S,Q"]) == 64
        assert "unknown subnetwork variables" in capsys.readouterr().err

    def test_ground_too_large(self, tmp_path):
        p = simple_problem(
            [(f"e{i}", "s", "t", 1) for i in range(16)],
            [("S", 1, "s", ("t",))],
        )
        path = write(tmp_path, "big.json", serialize(p))
        assert main(["lp-bound", path, "--objective", "H(S)"]) == 65


ONE_EDGE = {
    "nodes": ["s", "t"],
    "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "1"}],
    "sessions": [{"id": "S", "rate": "1", "origin": "s", "sinks": ["t"]}],
}
ONE_EDGE_CODE = {
    "sources": {"S": 2},
    "edges": {"e": 2},
    "encoders": {"e": {"inputs": [["session", "S"]], "table": [0, 1]}},
}


# A wrongly shaped input file is a parse error (exit 64), never a verdict.
# "{net}" is replaced by the one-edge problem's file, "{doc}" by the case's.
@pytest.mark.parametrize(
    "argv, doc",
    [
        pytest.param(["lp-bound", "{doc}"], {**ONE_EDGE, "edges": [1]}, id="edge-not-an-object"),
        pytest.param(["lp-bound", "{doc}"], {**ONE_EDGE, "nodes": [["s"], "t"]}, id="node-not-a-string"),
        pytest.param(
            ["lp-bound", "{doc}"],
            {**ONE_EDGE, "edges": [{**ONE_EDGE["edges"][0], "capacity": None}]},
            id="null-capacity",
        ),
        pytest.param(["lp-bound", "{doc}"], {**ONE_EDGE, "randomness": "st"}, id="randomness-a-string"),
        pytest.param(["check-entropic", "{doc}"], [1], id="entropy-vector-an-array"),
        pytest.param(["check-entropic", "{doc}"], {"n": 1, "labels": ["A"], "values": []}, id="values-an-array"),
        pytest.param(
            ["check-entropic", "{doc}"], {"n": 1, "labels": ["A"], "values": {"{A}": None}}, id="null-value"
        ),
        pytest.param(
            ["check-entropic", "{doc}"], {"n": 1, "labels": ["A"], "values": {"{A}": "inf"}}, id="infinite-value"
        ),
        pytest.param(
            ["check-code", "{net}", "{doc}"],
            {**ONE_EDGE_CODE, "encoders": {"e": {"inputs": [["session", "S"]], "table": 5}}},
            id="table-a-number",
        ),
        pytest.param(
            ["check-code", "{net}", "{doc}"],
            {**ONE_EDGE_CODE, "sources": {"S": 2.5}},
            id="fractional-alphabet",
        ),
        pytest.param(
            ["check-code", "{net}", "{doc}"],
            {**ONE_EDGE_CODE, "encoders": {**ONE_EDGE_CODE["encoders"], "zz": {"inputs": [], "table": 0}}},
            id="encoder-of-an-unknown-edge",
        ),
        pytest.param(
            ["lp-bound", "{net}", "--verify-chain", "{doc}"],
            [{"claim": "H(S)", "relation": "=", "value": None}],
            id="null-claim-value",
        ),
        pytest.param(
            ["lp-bound", "{net}", "--verify-chain", "{doc}"],
            {"claim": "H(S)", "relation": "=", "value": "1"},
            id="chain-an-object",
        ),
        pytest.param(["verify", "thm2", "--q", "{doc}"], [1], id="distribution-an-array"),
    ],
)
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, argv, doc):
    files = {
        "{net}": write(tmp_path, "net.json", json.dumps(ONE_EDGE)),
        "{doc}": write(tmp_path, "doc.json", json.dumps(doc)),
    }
    assert main([files.get(arg, arg) for arg in argv]) == 64
    assert capsys.readouterr().err.startswith("error: ")


class TestSearchCode:
    def test_identity_found(self, tmp_path, capsys):
        out_file = str(tmp_path / "code.json")
        assert main(
            ["search-code", single_edge_file(tmp_path), "--out", out_file]
        ) == 0
        doc = json.loads((tmp_path / "code.json").read_text())
        assert doc["edges"] == {"e": 2}

    def test_secrecy_needs_randomness(self, tmp_path):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"id": "e", "tail": "s", "head": "t", "capacity": "1"}],
            "sessions": [{"id": "X", "rate": "1", "origin": "s", "sinks": ["t"]}],
            "wiretaps": [{"sources": ["X"], "edges": ["e"]}],
        }
        path = write(tmp_path, "tapped.json", json.dumps(doc))
        assert main(["search-code", path, "--randomness", "off"]) == 1

    def test_budget_exit(self, tmp_path):
        from test_network import butterfly

        path = write(tmp_path, "bf.json", serialize(butterfly()))
        assert main(["search-code", path, "--budget", "5"]) == 3

    def test_randomness_name_clash_is_a_usage_error(self, tmp_path, capsys):
        # The problem is sound, but with --randomness on V_s names both the
        # edge and the randomness of s.
        p = simple_problem([("V_s", "s", "t", "1/2")], [("S", 1, "s", ("t",))])
        path = write(tmp_path, "clash.json", serialize(p))
        assert main(["search-code", path, "--randomness", "on"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: invalid problem: name 'V_s' is used by both edge 'V_s' and the randomness of node 's'\n"
        )


class TestCheckCode:
    def test_round_trip(self, tmp_path):
        problem_file = single_edge_file(tmp_path)
        out_file = str(tmp_path / "code.json")
        assert main(["search-code", problem_file, "--out", out_file]) == 0
        assert main(["check-code", problem_file, out_file]) == 0


class TestGadget:
    def test_secure_writes_problem_and_contract(self, tmp_path):
        out = str(tmp_path / "sec.json")
        contract = str(tmp_path / "contract.json")
        assert main(
            ["gadget", "secure", "--c", "1", "--d", "2", "--out", out, "--contract", contract]
        ) == 0
        doc = json.loads((tmp_path / "sec.json").read_text())
        assert len(doc["edges"]) == 6
        cdoc = json.loads((tmp_path / "contract.json").read_text())
        assert any(o["name"] == "key-determined-by-relay" for o in cdoc["obligations"])

    def test_incremental(self, tmp_path, capsys):
        assert main(["gadget", "incremental", "--h", h_file(tmp_path, [1, 1, 2])]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"id", "tail", "head", "capacity"} <= set(doc["edges"][0])

    def test_bad_parameters(self, tmp_path):
        assert main(["gadget", "secure", "--c", "2", "--d", "1"]) == 64

    @pytest.mark.parametrize("where", ["before", "after", "absent"])
    def test_json_flag_in_either_position(self, tmp_path, capsys, where):
        argv = ["gadget", "secure", "--c", "1", "--d", "2", "--out", str(tmp_path / "sec.json")]
        argv = {"before": ["--json", *argv], "after": [*argv, "--json"], "absent": argv}[where]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if where == "absent":
            assert out.startswith("PASS problem: written to ")
        else:
            assert json.loads(out)["command"] == "gadget-secure"


class TestVerify:
    def test_key_forcing(self, capsys):
        assert main(["verify", "prop1"]) == 0
        out = capsys.readouterr().out
        assert "key-determined-by-relay" in out
        assert "FAIL" not in out

    def test_uniform_witness(self, tmp_path, capsys):
        q = quasi_uniform_library()["independent-bits"]
        path = write(tmp_path, "q.json", q.to_json())
        assert main(["verify", "thm2", "--q", path]) == 0

    @pytest.mark.parametrize("name", sorted(quasi_uniform_library()))
    def test_induced_streams_match_exactly(self, tmp_path, capsys, name):
        q = quasi_uniform_library()[name]
        assert main(["verify", "thm2", "--q", write(tmp_path, "q.json", q.to_json())]) == 0
        assert "PASS induced-streams-match: exact:" in capsys.readouterr().out

    def test_induced_streams_of_another_law_fail(self, tmp_path, capsys, monkeypatch):
        from entroflow import cli

        library = quasi_uniform_library()
        other = cli.incremental_code(library["duplicated-bit"])
        monkeypatch.setattr(cli, "incremental_code", lambda q: other)
        path = write(tmp_path, "q.json", library["independent-bits"].to_json())
        assert main(["verify", "thm2", "--q", path]) == 1
        assert "FAIL induced-streams-match" in capsys.readouterr().out

    def test_uniform_witness_induces_once(self, tmp_path, capsys, monkeypatch):
        from entroflow import codes

        induce = codes.induced_joint_distribution
        calls = []
        monkeypatch.setattr(
            codes, "induced_joint_distribution", lambda *a, **k: calls.append(1) or induce(*a, **k)
        )
        q = quasi_uniform_library()["xor-triple"]
        path = write(tmp_path, "q.json", q.to_json())
        assert main(["verify", "thm2", "--q", path]) == 0
        assert "PASS witness-code: admissible" in capsys.readouterr().out
        assert len(calls) == 1

    def test_incremental_forcing_negative(self, tmp_path, capsys):
        # A non-entropic vector: some subnetwork LP refutes it, either by
        # an outright infeasibility or by a contradicted claim.
        assert main(["verify", "thm1", "--h", h_file(tmp_path, [1, 1, 3])]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "contradicted" in out or "LP infeasible" in out

    def test_unknown_name(self):
        assert main(["verify", "nonsense"]) == 64


class TestReports:
    def test_json_reproducible(self, tmp_path, capsys):
        path = h_file(tmp_path, [1, 1, 2])
        assert main(["--json", "check-entropic", path]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["--json", "check-entropic", path]) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("timing")
        second.pop("timing")
        assert first == second
        assert list(first) == ["command", "inputs", "verdicts", "certificates"]

    def test_incremental_forcing_json_reproducible(self, tmp_path, capsys):
        # The second run finds what the first stored: its stats differ (no
        # HiGHS run at all), its verdicts and certificates do not.
        path = h_file(tmp_path, [1, 1, 2])
        docs = []
        for _ in range(2):
            assert main(["--json", "verify", "thm1", "--h", path]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        first, second = docs
        assert list(first) == ["command", "inputs", "verdicts", "certificates", "timing", "stats"]
        assert second["stats"]["highs_runs"] == 0
        assert second["stats"]["stored_point"] > 0
        for doc in docs:
            doc.pop("timing")
            doc.pop("stats")
        assert first == second

    @pytest.mark.parametrize("points", [[(1, 1, 2)], [(1, 1, 2), (1, 2, 3)]], ids=["vector", "array"])
    def test_incremental_forcing_digests_its_h_file(self, tmp_path, capsys, points):
        docs = [json.loads(EntropyVector.from_tuple([Fraction(v) for v in h]).to_json()) for h in points]
        path = write(tmp_path, "h.json", json.dumps(docs if len(docs) > 1 else docs[0]))
        assert main(["--json", "verify", "thm1", "--h", path]) == 0
        want = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert json.loads(capsys.readouterr().out)["inputs"] == {"h": want}

    def test_uniform_witness_digests_its_q_file(self, tmp_path, capsys):
        path = write(tmp_path, "q.json", quasi_uniform_library()["independent-bits"].to_json())
        assert main(["--json", "verify", "thm2", "--q", path]) == 0
        want = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert json.loads(capsys.readouterr().out)["inputs"] == {"q": want}


class TestBudgetEnv:
    def test_env_budget_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROFLOW_BUDGET", "2")
        code = main(["check-entropic", h_file(tmp_path, [1, 1, 1, 2, 2, 2, 2])])
        assert code == 3

    def test_zero_budget_searches_nothing(self, tmp_path, capsys):
        assert main(["search-code", single_edge_file(tmp_path), "--budget", "0"]) == 3
        assert "budget-exceeded: 0 of 5 candidates" in capsys.readouterr().out

    def test_zero_budget_finds_no_witness(self, tmp_path, capsys):
        assert main(["check-entropic", h_file(tmp_path, [1, 1, 2]), "--budget", "0"]) == 3
        assert "budget exhausted after 0" in capsys.readouterr().out

    def test_missing_file_args(self):
        assert main(["verify", "thm1"]) == 64
        assert main(["verify", "thm2"]) == 64

    @pytest.mark.parametrize("command", ["search-code", "check-entropic"])
    @pytest.mark.parametrize("env, flag", [("abc", None), ("-5", None), (None, "-5")])
    def test_bad_budget_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, env, flag):
        if env is not None:
            monkeypatch.setenv("ENTROFLOW_BUDGET", env)
        path = single_edge_file(tmp_path) if command == "search-code" else h_file(tmp_path, [1, 1, 2])
        argv = [command, path] + (["--budget", flag] if flag is not None else [])
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestMoreCliPaths:
    def test_verify_incremental_green(self, tmp_path, capsys):
        assert main(["verify", "thm1", "--h", h_file(tmp_path, [1, 1, 2])]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "increment[2.1]" in out

    def test_verify_incremental_region(self, tmp_path, capsys):
        # An array of vectors gives each vector's verdicts, as the command
        # gives them for that vector alone, named h<k>/<obligation>.
        region = [[1, 1, 2], [1, 2, 3]]
        alone = []
        for values in region:
            assert main(["--json", "verify", "thm1", "--h", h_file(tmp_path, values)]) == 0
            alone.append(json.loads(capsys.readouterr().out)["verdicts"])
        docs = [json.loads(EntropyVector.from_tuple([Fraction(v) for v in h]).to_json()) for h in region]
        path = write(tmp_path, "region.json", json.dumps(docs))
        assert main(["--json", "verify", "thm1", "--h", path]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts == [dict(v, name=f"h{k}/{v['name']}") for k, vs in enumerate(alone, 1) for v in vs]

    @pytest.mark.parametrize(
        "region",
        [[], [[1, 1, 2], [2, 1, 1]], [[1, 1, 2], "h"], [[1, 1, 2], {"labels": ["1", "2"], "values": {}}]],
        ids=["empty", "negative-capacity", "not-an-object", "no-n"],
    )
    def test_verify_incremental_bad_region(self, tmp_path, capsys, region):
        docs = [
            json.loads(EntropyVector.from_tuple([Fraction(v) for v in h]).to_json()) if isinstance(h, list) else h
            for h in region
        ]
        path = write(tmp_path, "region.json", json.dumps(docs))
        assert main(["verify", "thm1", "--h", path]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("entropy vector 2: " in err) == bool(region)

    def test_lp_bound_minimize(self, tmp_path, capsys):
        assert main(
            ["lp-bound", single_edge_file(tmp_path), "--objective", "H(S)", "--minimize"]
        ) == 0
        assert "H(S) = 1" in capsys.readouterr().out

    def test_lp_bound_dump_and_no_reduce(self, tmp_path, capsys):
        assert main(
            ["lp-bound", single_edge_file(tmp_path), "--dump-lp", "--no-reduce"]
        ) == 0
        out = capsys.readouterr().out
        assert "# Shannon LP over" in out
        assert "unreduced" in out

    def test_search_code_threads(self, tmp_path, capsys):
        # --threads still parses but is ignored: the output does not change.
        from test_network import butterfly
        from entroflow.network import serialize

        path = write(tmp_path, "bf.json", serialize(butterfly()))
        assert main(["search-code", path]) == 0
        plain = capsys.readouterr().out
        assert main(["search-code", path, "--threads", "2"]) == 0
        assert capsys.readouterr().out == plain

    def test_verify_adhesion_demo(self, capsys):
        assert main(["verify", "thm4-demo"]) == 0
        out = capsys.readouterr().out
        assert "unit-relay-composition" in out
        assert "half-capacity-infeasible" in out
