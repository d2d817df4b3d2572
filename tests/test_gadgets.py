import dataclasses
import itertools
import re
from fractions import Fraction

import pytest

from entroflow.codes import (
    BudgetExceededError,
    CodeBuilder,
    check_admissible,
    check_secrecy,
    check_zero_error,
    evaluate,
    induced_joint_distribution,
)
from entroflow.entropy import (
    EntropyVector,
    check_independence,
    entropy_vector_of,
    is_quasi_uniform,
    quasi_uniform_vector_of,
)
from entroflow.gadgets import (
    QuasiUniformSpec,
    adhere,
    build_incremental,
    build_secure,
    compose_adhered_code,
    incremental_code,
    otp_code,
    quasi_uniform_library,
    verify_contract,
)
from entroflow.lp import ShannonSolver, build_shannon_lp, satisfies
from entroflow.network import Capacity, min_cut

from test_network import butterfly, simple_problem
from test_codes import butterfly_code

F = Fraction


def h112():
    return EntropyVector.from_tuple([F(1), F(1), F(2)])


class TestBuildIncremental:
    def test_rates(self):
        g = build_incremental(h112())
        rates = g.delta.rates
        assert rates == {"S0": 2, "S1": 2}

    def test_type1_capacities(self):
        g = build_incremental(h112())
        caps = g.delta.capacities
        # Per subset: (direct, via-intermediate) = (h(full)-h(a), h(a)).
        assert (caps["D1[1]"], caps["M1[1]"]) == (Capacity(F(1)), Capacity(F(1)))
        assert (caps["D1[2]"], caps["M1[2]"]) == (Capacity(F(1)), Capacity(F(1)))
        assert (caps["D1[12]"], caps["M1[12]"]) == (Capacity(F(0)), Capacity(F(2)))

    def test_type2_capacities(self):
        g = build_incremental(h112())
        caps = g.delta.capacities
        assert caps["W1[2.1]"] == caps["W2[2.1]"] == caps["W3[2.1]"] == Capacity(F(1))
        assert caps["D2[2.1]"] == Capacity(F(0))

    def test_monotonicity_violation_rejected(self):
        with pytest.raises(ValueError, match="negative capacity"):
            build_incremental(EntropyVector.from_tuple([F(1), F(2), F(1)]))

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="rational"):
            build_incremental(EntropyVector.from_tuple([1.0, 1.0, 2.0]))

    def test_topology_depends_only_on_size(self):
        a = build_incremental(h112())
        b = build_incremental(EntropyVector.from_tuple([F(2), F(3), F(4)]))
        ids_a = [(e.id, e.tail, e.head, e.forwards) for e in a.problem.network.edges]
        ids_b = [(e.id, e.tail, e.head, e.forwards) for e in b.problem.network.edges]
        assert ids_a == ids_b
        assert a.problem.network.nodes == b.problem.network.nodes

    def test_delta_linearity_sample(self):
        h1 = h112()
        h2 = EntropyVector.from_tuple([F(1), F(2), F(2)])
        a, b = F(2), F(3, 2)
        combo = h1.scale(a).add(h2.scale(b))
        left = build_incremental(combo).delta
        right = build_incremental(h1).delta.scale(a).add(build_incremental(h2).delta.scale(b))
        assert left == right

    def test_incremental_demands(self):
        g = build_incremental(h112())
        demands = g.problem.demands()
        assert demands["t1[12]"] == ("S0", "S1")
        assert demands["p1[2.1]"] == ("S0",)
        assert demands["tU"] == ("S0",)


class TestIncrementalContract:
    def test_h112_contract_certifies(self):
        g = build_incremental(h112())
        report = verify_contract(g.problem, g.contract)
        assert report.all_ok, report.describe()

    def test_non_entropic_vector_contradicted(self):
        # h = (1, 1, 3) violates subadditivity; the construction rejects
        # nothing (capacities stay nonnegative) but the increment claim
        # H(V1|V2) = h(12) - h(2) = 2 exceeds the V1 capacity of 1.
        g = build_incremental(EntropyVector.from_tuple([F(1), F(1), F(3)]))
        report = verify_contract(g.problem, g.contract)
        assert not report.all_ok
        failing = {r.name for r in report.results if not r.ok}
        assert any(name.startswith("increment[") for name in failing)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: on non-modular h the increment and lower-receiver "
        "obligations of the probes [1.2] and [2.1] come out consistent, not forced",
    )
    def test_h111_contract_certifies(self):
        # (1, 1, 1) is entropic (X1 = X2, one uniform bit), so the theorem covers it.
        g = build_incremental(EntropyVector.from_tuple([F(1), F(1), F(1)]))
        report = verify_contract(g.problem, g.contract)
        assert report.all_ok, report.describe()


CONTRACT_CASES = {
    "thm1-112": lambda: build_incremental(EntropyVector.from_tuple([F(1), F(1), F(2)])),
    "thm1-223": lambda: build_incremental(EntropyVector.from_tuple([F(2), F(2), F(3)])),
    "thm1-122": lambda: build_incremental(EntropyVector.from_tuple([F(1), F(2), F(2)])),
    "prop1-c2-d3": lambda: build_secure(2, 3),
}


class TestConcurrentChains:
    """The contract's subnetwork chains run on a thread pool."""

    @staticmethod
    def in_thread(fn, timeout=120):
        """fn() in a thread joined with a timeout: (finished, result or exception)."""
        import threading

        out = []

        def run():
            try:
                out.append(fn())
            except Exception as exc:  # handed back to the test
                out.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout)
        return not thread.is_alive(), out[0] if out else None

    @pytest.mark.parametrize("case", list(CONTRACT_CASES))
    def test_report_does_not_depend_on_workers(self, case, monkeypatch):
        # One worker, then more workers than cores with threads switching
        # often.  Each run starts from empty stores, so that every chain
        # reaches HiGHS and is handed to the pool.
        import sys

        from entroflow import gadgets
        from entroflow.highs import BASES
        from entroflow.lp import _template_store

        g = CONTRACT_CASES[case]()
        reports = []
        switch = sys.getswitchinterval()
        for workers in (1, 4):
            BASES.clear()
            _template_store().clear()
            monkeypatch.setattr(gadgets, "_chain_workers", lambda chains, workers=workers: workers)
            sys.setswitchinterval(1e-5)
            try:
                finished, report = self.in_thread(lambda: verify_contract(g.problem, g.contract))
            finally:
                sys.setswitchinterval(switch)
            assert finished
            reports.append(report)
        assert reports[0] == reports[1]
        assert len(reports[0].results) == len(g.contract.obligations)

    def test_chain_error_reaches_caller(self, monkeypatch):
        import threading

        from entroflow import gadgets

        g = build_incremental(h112())
        failing = g.contract.obligations[-1].subnetwork
        build = gadgets.build_shannon_lp

        def build_or_fail(problem, variables=None):
            if variables == failing:
                raise RuntimeError("chain failed")
            return build(problem, variables=variables)

        monkeypatch.setattr(gadgets, "build_shannon_lp", build_or_fail)
        before = threading.active_count()
        finished, error = self.in_thread(lambda: verify_contract(g.problem, g.contract))
        assert finished
        assert isinstance(error, RuntimeError) and str(error) == "chain failed"
        assert threading.active_count() == before  # the pool's threads are gone

    def test_debug_record_per_chain(self, caplog):
        g = build_incremental(h112())
        chains = {ob.subnetwork for ob in g.contract.obligations if ob.kind == "chain-claim"}
        with caplog.at_level("DEBUG", logger="entroflow.gadgets"):
            verify_contract(g.problem, g.contract)
        messages = [r.getMessage() for r in caplog.records if r.name == "entroflow.gadgets"]
        pattern = re.compile(
            r"chain on (\d+) variables: \d+ rows, (\d+) solves \((\d+) settled from stored duals\), "
            r"\d+ HiGHS runs \(\d+ from stored bases\), \d+ simplex iterations, \d+ settled from stored points, "
            r"([\d.]+) s in HiGHS of ([\d.]+) s, finished (inline|in the pool after (\d+) settled solves)"
        )
        matches = [pattern.fullmatch(m) for m in messages]
        assert sorted(int(m[1]) for m in matches) == sorted(len(key) for key in chains)
        assert all(int(m[3]) <= int(m[2]) for m in matches)
        assert all(float(m[4]) <= float(m[5]) for m in matches)
        # Cold, every chain stops at its feasibility solve, which needs HiGHS.
        assert [m[6] for m in matches] == ["in the pool after 0 settled solves"] * len(chains)


class TestInlineChains:
    """A chain runs on the calling thread as far as the memo and the store
    settle it, and goes to the thread pool just before its first HiGHS run."""

    @staticmethod
    def count_releases(monkeypatch) -> list:
        """The calls of `highs.release_free_memory`, each still made."""
        from entroflow import highs

        calls = []
        release = highs.release_free_memory

        def counted():
            calls.append(1)
            release()

        monkeypatch.setattr(highs, "release_free_memory", counted)
        return calls

    def test_a_warm_pass_starts_no_thread(self, monkeypatch, caplog):
        import concurrent.futures
        import threading

        pool = contract_pool()
        cold = [TestStoredBases.contract(h).describe() for h in pool]
        made = []
        executor = concurrent.futures.ThreadPoolExecutor

        def counted(*args, **kwargs):
            made.append(args)
            return executor(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
        releases = self.count_releases(monkeypatch)
        before = threading.active_count()
        with caplog.at_level("DEBUG", logger="entroflow.gadgets"):
            warm = [TestStoredBases.contract(h) for h in pool]
        assert made == [] and releases == []
        assert threading.active_count() == before
        assert [report.describe() for report in warm] == cold
        assert sum(report.stats.highs_runs for report in warm) == 0
        records = [r.getMessage() for r in caplog.records if r.name == "entroflow.gadgets"]
        assert len(records) == 5 * len(pool)
        assert all(m.endswith(", finished inline") for m in records)

    def test_a_chain_handed_over_mid_way(self, caplog, monkeypatch):
        # The store seeded by a cold run, then the stored dual of one claim's
        # maximum spoiled (a multiplier's sign flipped): the chain settles
        # its feasibility solve and its first claim inline, and goes to the
        # pool at that maximum, which falls back to HiGHS.
        from entroflow.highs import BASES
        from entroflow.rows import Sparse

        g = build_incremental(h112())
        groups = {}
        for ob in g.contract.obligations:
            if ob.kind == "chain-claim":
                groups.setdefault(ob.subnetwork, []).append(ob)
        cold = verify_contract(g.problem, g.contract)
        key = g.contract.obligations[0].subnetwork
        spoiled = groups[key][1].expression
        lp = build_shannon_lp(g.problem, variables=key)
        solver = ShannonSolver(lp)
        stored_key = solver._entry_key(solver._to_cols(lp.compile(spoiled)[0]))
        entry = BASES.get(stored_key)
        dual = entry.dual
        k = next(k for k, i in enumerate(dual.index.tolist()) if lp.rows.sense[i] != 0 and dual.num[k] != 0)
        num = dual.num.copy()
        num[k] = -num[k]
        bad = Sparse(dual.index, num, dual.den)
        BASES.put(stored_key, entry._replace(dual=bad), 1)
        calls = []
        for name in ("feasibility", "maximize", "minimize"):

            def counted(*args, original=getattr(ShannonSolver, name), **kwargs):
                calls.append(args[1:])
                return original(*args, **kwargs)

            monkeypatch.setattr(ShannonSolver, name, counted)
        tried = []
        stored = ShannonSolver._stored

        def tried_stored(solver, objective, entry, bases, key):
            tried.append(key)
            return stored(solver, objective, entry, bases, key)

        monkeypatch.setattr(ShannonSolver, "_stored", tried_stored)
        releases = self.count_releases(monkeypatch)
        with caplog.at_level("DEBUG", logger="entroflow.gadgets"):
            warm = verify_contract(g.problem, g.contract)
        assert warm.results == cold.results
        assert warm.describe() == cold.describe()
        # Each chain asks one feasibility solve and two per claim, once each,
        # and each is counted once, also in the chain the pool finished.
        asked = sum(1 + 2 * len(obs) for obs in groups.values())
        assert len(calls) == asked
        assert warm.stats.solves == cold.stats.solves == asked
        assert (warm.stats.highs_runs, warm.stats.float_cert) == (1, 1)
        records = [r.getMessage() for r in caplog.records if r.name == "entroflow.gadgets"]
        assert len(records) == len(groups)
        where = sorted(m.rsplit(", finished ", 1)[1] for m in records)
        assert where == ["in the pool after 3 settled solves"] + ["inline"] * (len(groups) - 1)
        assert BASES.get(stored_key).dual is not bad  # the run stored its own verified dual
        # The spoiled entry was tried once, inline; the pool ran HiGHS at once.
        assert tried.count(stored_key) == 1
        assert releases == [1]  # once the pool had shut down


def contract_pool():
    """The vectors of the benchmark's contract workload (`perfbench/inputs.py`):
    every n=2 entropy vector with entries in 1..3 that is a polymatroid."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.CONTRACT_POOL


CHAIN_RECORD = re.compile(
    r"chain on \d+ variables: \d+ rows, \d+ solves \((\d+) settled from stored duals\), "
    r"\d+ HiGHS runs \((\d+) from stored bases\), (\d+) simplex iterations, .*"
)


def chain_counts(caplog):
    """Stored-dual settles, stored-basis starts and simplex iterations, summed
    over the chain records `caplog` holds."""
    per_chain = [
        CHAIN_RECORD.fullmatch(r.getMessage()).groups() for r in caplog.records if r.name == "entroflow.gadgets"
    ]
    return [sum(int(c[i]) for c in per_chain) for i in range(3)]


class TestStoredBases:
    """Contract chains start from the optimal bases earlier chains stored,
    and settle claims from the duals stored with them."""

    @staticmethod
    def contract(h):
        g = build_incremental(EntropyVector.from_tuple([F(v) for v in h]))
        return verify_contract(g.problem, g.contract)

    def test_reports_do_not_depend_on_the_store(self, caplog):
        # Each vector of the benchmark's pool cold (the store of bases and
        # duals cleared before it), then all of them as one warm sequence.
        from entroflow.highs import BASES
        from entroflow.lp import certificate_to_json

        pool = contract_pool()
        assert len(pool) == 13
        g = build_incremental(h112())
        (key, expression), *_ = ((ob.subnetwork, ob.expression) for ob in g.contract.obligations if ob.kind == "chain-claim")
        lp = build_shannon_lp(g.problem, variables=key)

        def direct():
            return certificate_to_json(lp, ShannonSolver(lp).maximize(expression))

        cold = []
        for h in pool:
            BASES.clear()
            cold.append(self.contract(h).describe())
        BASES.clear()
        alone = direct()
        with caplog.at_level("DEBUG", logger="entroflow.gadgets"):
            warm = [self.contract(h).describe() for h in pool]
        assert warm == cold
        stored_duals, _, _ = chain_counts(caplog)
        assert stored_duals > 0
        # Every vector's right sides are stored now, with points for them.
        again = [self.contract(h) for h in pool]
        assert [report.describe() for report in again] == cold
        assert sum(report.stats.highs_runs for report in again) == 0
        assert direct() == alone  # a direct solve neither reads nor writes the store

    def test_a_warm_pass_rekeys_no_vector_and_lists_no_rows(self, monkeypatch):
        # A warm chain solve reads only its status and value: no point is
        # re-keyed from columns to closed masks, and with no exact solve no
        # solver lists its active rows.
        from entroflow.rows import Sparse

        pool = contract_pool()
        cold = [self.contract(h) for h in pool]
        rekeyed, solvers = [], []
        rekey, init = Sparse.rekey, ShannonSolver.__init__

        def counted_rekey(vector, keys):
            rekeyed.append(keys)
            return rekey(vector, keys)

        def kept_init(solver, lp):
            solvers.append(solver)
            init(solver, lp)

        monkeypatch.setattr(Sparse, "rekey", counted_rekey)
        monkeypatch.setattr(ShannonSolver, "__init__", kept_init)
        warm = [self.contract(h) for h in pool]
        assert [r.describe() for r in warm] == [r.describe() for r in cold]
        assert [r.results for r in warm] == [r.results for r in cold]
        assert sum(r.stats.highs_runs for r in warm) == 0
        assert rekeyed == []
        assert solvers and all(s.active is None and s._inactive is None for s in solvers)

    def test_points_add_up(self):
        # (2,3,5) = (1,1,2) + (1,2,3) and (3,5,8) = (1,1,2) + 2 (1,2,3): each
        # chain's right sides are the same sums of the first two vectors'
        # chains' right sides, so their stored points give a feasible point.
        from entroflow.highs import BASES

        sums = ((2, 3, 5), (3, 5, 8))
        cold = {}
        for h in sums:
            BASES.clear()
            cold[h] = self.contract(h).describe()
        BASES.clear()
        for h in ((1, 1, 2), (1, 2, 3)):
            self.contract(h)
        for h in sums:
            g = build_incremental(EntropyVector.from_tuple([F(v) for v in h]))
            chains = {ob.subnetwork for ob in g.contract.obligations if ob.kind == "chain-claim"}
            report = verify_contract(g.problem, g.contract)
            assert report.describe() == cold[h]
            # Every chain's feasibility solve settled from stored points,
            # so none of them ran HiGHS.
            assert report.stats.stored_point == len(chains)

    def test_a_new_h_builds_no_template(self):
        # (2,3,5) after (1,1,2): the five chains reuse the five templates the
        # first vector made, and the report is the one of a cold run.
        from entroflow.highs import BASES
        from entroflow.lp import _template_store

        store = _template_store()
        self.contract((1, 1, 2))
        assert len(store) == 5
        warm = self.contract((2, 3, 5))
        assert len(store) == 5
        BASES.clear()
        store.clear()
        cold = self.contract((2, 3, 5))
        assert warm.results == cold.results
        assert warm.describe() == cold.describe()

    def test_second_h_starts_from_stored_bases(self, caplog):
        from entroflow.highs import BASES

        BASES.clear()  # the first h starts cold whatever ran before
        counts = []
        for h in ((1, 1, 2), (2, 2, 3)):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="entroflow.gadgets"):
                self.contract(h)
            counts.append(chain_counts(caplog)[1:])
        (_, iterations_first), (stored_second, iterations_second) = counts
        assert stored_second > 0
        assert iterations_second < iterations_first


class TestIncrementalCode:
    def test_two_bits_admissible(self):
        lib = quasi_uniform_library()
        code = incremental_code(lib["independent-bits"])
        verdict = check_admissible(code)
        assert verdict, verdict.describe()

    def test_encoder_tables_are_pinned(self):
        # sha256 prefixes of code_to_json, recorded before the rank tables
        # were precomputed per member set: the encoders must not change.
        import hashlib

        from entroflow.codes import code_to_json

        got = {
            name: hashlib.sha256(code_to_json(incremental_code(q)).encode()).hexdigest()[:16]
            for name, q in quasi_uniform_library().items()
        }
        assert got == {
            "independent-bits": "b90587cd54613982",
            "duplicated-bit": "a31e8603e4a0e478",
            "bit-and-pair": "f005955a79e28800",
            "xor-triple": "75324278e56c1b3d",
            "three-independent-bits": "e9303b98486ddb79",
            "duplicated-plus-independent": "72a3c57ee7bf67d8",
        }

    def test_network_and_contract_are_pinned(self):
        # sha256 prefixes of the serialized network and the contract JSON,
        # recorded before the layout and the obligations came from one walk
        # over the probes: neither may change.
        import hashlib

        from entroflow.entropy import GroundSet
        from entroflow.network import serialize

        def vector(n, value):
            labels = tuple(f"X{i + 1}" for i in range(n))
            return EntropyVector(GroundSet(labels), {m: value(m) for m in range(1, 1 << n)})

        weights = (F(1), F(1, 2), F(2), F(1))
        cases = {
            "n2-h112": h112(),
            "n3-U23": vector(3, lambda m: F(min(bin(m).count("1"), 2))),
            "n4-capped": vector(
                4, lambda m: min(sum(w for i, w in enumerate(weights) if m >> i & 1), F(3))
            ),
        }

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        got = {}
        for name, h in cases.items():
            gadget = build_incremental(h)
            got[name] = (digest(serialize(gadget.problem)), digest(gadget.contract.to_json()))
        assert got == {
            "n2-h112": ("6db3b83de993e128", "b873d056ec4211af"),
            "n3-U23": ("413b701fca818d73", "f5bb1b08b48dab26"),
            "n4-capped": ("c51495476c91c9eb", "e3d4fa3cb94ff523"),
        }

    def test_duplicated_bit_admissible(self):
        code = incremental_code(quasi_uniform_library()["duplicated-bit"])
        assert check_admissible(code)

    def test_induced_v_marginal_matches(self):
        lib = quasi_uniform_library()
        q = lib["independent-bits"]
        code = incremental_code(q)
        dist = induced_joint_distribution(code)
        h_in = quasi_uniform_vector_of(q)
        vec = entropy_vector_of(dist, ("V1", "V2"))
        for mask in (1, 2, 3):
            assert abs(float(vec.values[mask]) - float(h_in.values[mask])) <= 1e-9

    def test_tampered_encoder_fails(self):
        q = quasi_uniform_library()["independent-bits"]
        good = incremental_code(q)
        problem = good.problem
        builder = CodeBuilder(problem)
        for sid, size in good.source_alphabets.items():
            builder.source(sid, size)
        for eid, enc in good.encoders.items():
            if eid == "V2":
                builder.edge(eid, enc.output_size, lambda v: 0)
            else:
                builder.edge(
                    eid,
                    enc.output_size,
                    lambda v, enc=enc: enc.apply(
                        [v[name if kind != "randomness" else "V"] for kind, name in enc.inputs]
                    ),
                )
        bad = builder.build()
        verdict = check_admissible(bad)
        assert not verdict
        assert any(r[0] == "decode" and r[1].startswith("t1[") for r in verdict.reasons)


class TestBuildSecure:
    def test_shape(self):
        g = build_secure(1, 2)
        assert len(g.problem.network.nodes) == 5
        assert len(g.problem.network.edges) == 6
        caps = sorted(str(e.capacity) for e in g.problem.network.edges)
        assert caps == ["1"] * 6
        assert min_cut(g.problem, "s", "t") == Capacity(F(2))

    def test_clear_branch_capacity(self):
        g = build_secure(1, 3)
        assert g.problem.network.edge("W2").capacity == Capacity(F(2))

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            build_secure(2, 1)
        with pytest.raises(ValueError):
            build_secure(0, 1)

    def test_contract_certifies(self):
        g = build_secure(1, 2)
        report = verify_contract(g.problem, g.contract)
        assert report.all_ok, report.describe()

    def test_deterministic_bypass_leaks_on_key_tap(self):
        # Relaying the upper stream along the key path keeps W3 constant
        # and decodes at the sink; only the separate tap on K rules it out.
        g = build_secure(1, 2)
        taps = [(t.sources, t.edges) for t in g.problem.wiretaps.taps]
        assert taps == [(("X",), ("W3",)), (("X",), ("K",))]
        b = CodeBuilder(g.problem)
        b.source("X", 4)
        b.edge("W1", 2, lambda v: v["X"] // 2)
        b.edge("W2", 2, lambda v: v["X"] % 2)
        b.edge("W3", 1, lambda v: 0)
        b.edge("K", 2, lambda v: v["W1"])
        b.edge("W4", 2, lambda v: v["K"])
        b.edge("W5", 2, lambda v: v["W4"])
        code = b.build()
        assert check_zero_error(code)[0]
        verdict = check_admissible(code)
        assert not verdict
        assert verdict.describe() == "leak:1"


class TestOtpCode:
    def test_unit_key(self):
        code = otp_code(1, 2)
        dist = induced_joint_distribution(code)
        assert len(dist.pmf) == 8
        assert check_independence(dist, "X", "W3")
        ok, failures = check_zero_error(code)
        assert ok
        assert check_admissible(code)

    def test_wide_key(self):
        code = otp_code(2, 3)
        assert code.edge_alphabets["K"] == 4
        assert code.edge_alphabets["W3"] == 4
        assert check_admissible(code)

    def test_regularity(self):
        with pytest.raises(ValueError, match="regularity"):
            otp_code("1/2", 2)

    def test_evaluate_roles(self):
        code = otp_code(1, 2)
        values = evaluate(code, {"X": 2}, {"a": 1})  # X = (hi, lo) = (1, 0)
        assert values["W1"] == 1
        assert values["W3"] == (1 + 1) % 2
        assert values["W4"] == 1
        assert values["W5"] == 1

    def test_satisfies_secure_lp(self):
        g = build_secure(1, 2)
        lp = build_shannon_lp(g.problem)
        ok, failures = satisfies(lp, induced_joint_distribution(otp_code(1, 2)))
        assert ok, failures


def flipped_where_zero(code, edge, zero):
    """`code` with `edge`'s output moved to the next symbol wherever its
    inputs named in `zero` are all 0."""
    enc = code.encoders[edge]
    names = [code.problem.input_variable(ref) for ref in enc.inputs]
    at = [names.index(x) for x in zero]
    table = list(enc.table)
    for k, combo in enumerate(itertools.product(*map(range, enc.input_sizes))):
        if not any(combo[i] for i in at):
            table[k] = (table[k] + 1) % enc.output_size
    encoders = {**code.encoders, edge: dataclasses.replace(enc, table=tuple(table))}
    return dataclasses.replace(code, encoders=encoders)


class TestAdhere:
    def test_single_edge_composition(self):
        inner = simple_problem([("e", "u", "v", 1)], [("S", 1, "u", ("v",))])
        gadget = adhere(inner)
        assert verify_contract(gadget.problem, gadget.contract).all_ok
        inner_code = (
            CodeBuilder(inner).source("S", 2).edge("e", 2, lambda v: v["S"]).build()
        )
        code = compose_adhered_code(gadget, inner_code)
        verdict = check_admissible(code)
        assert verdict, verdict.describe()

    def test_half_capacity_lp_infeasible(self):
        inner = simple_problem([("e", "u", "v", "1/2")], [("S", 1, "u", ("v",))])
        gadget = adhere(inner)
        cert = ShannonSolver(build_shannon_lp(gadget.problem)).feasibility()
        assert cert.status == "infeasible"
        assert cert.farkas is not None

    def test_butterfly_composition(self):
        inner = butterfly()
        gadget = adhere(inner)
        code = compose_adhered_code(gadget, butterfly_code())
        verdict = check_admissible(code)
        assert verdict, verdict.describe()
        # Secrecy specifically: each tapped channel is independent of its
        # copy's source.
        ok, taps = check_secrecy(code)
        assert ok

    def test_one_copy_per_demand_of_an_incremental_inner(self):
        # The sinks of S1 also demand S0 (the incremental order), so each
        # gets a copy of S0 as well: 13 demands, where S1's sinks alone
        # would give 8 copies.
        inner = build_incremental(h112()).problem
        demands = sorted((sid, sink) for sink, sids in inner.demands().items() for sid in sids)
        gadget = adhere(inner)
        assert len(gadget.copies) == len(demands) == 13
        assert list(gadget.copies) == demands  # session id, then sink
        assert list(gadget.copy_sessions) == demands
        shells = [ob.name for ob in gadget.contract.obligations if ob.name.startswith("shell-cut")]
        assert shells == [f"shell-cut[{sid}.{sink}]" for sid, sink in demands]

    @pytest.mark.parametrize("law", ["independent-bits", "duplicated-bit"])
    def test_adhered_incremental_witness(self, law):
        # 13 copies of 16 symbols each and two 4-symbol keys: far past the
        # outcome budget as one product, but each check reads one copy's
        # source and the keys, because K[s] reads only the randomness of
        # enc[s] and not the W1 inputs its tail receives.
        inner = incremental_code(quasi_uniform_library()[law])
        gadget = adhere(inner.problem)
        code = compose_adhered_code(gadget, inner)
        with pytest.raises(BudgetExceededError):
            induced_joint_distribution(code)
        verdict = check_admissible(code)
        assert verdict, verdict.describe()
        # W3 = W1 + key of its own copy: flip its value at W1 = key = 0,
        # whatever the other copies' W1.  W4 relays the decoded key: flip
        # it where every input is 0.
        sid, sink = gadget.copies[0]
        tag = f"{sid}.{sink}"
        w4 = code.encoders[f"W4[{tag}]"]
        for edge, zero in (
            (f"W3[{tag}]", (f"W1[{tag}]", f"V_enc[{sid}]")),
            (f"W4[{tag}]", tuple(map(code.problem.input_variable, w4.inputs))),
        ):
            verdict = check_admissible(flipped_where_zero(code, edge, zero))
            assert ("decode", f"snk[{tag}]", f"X[{tag}]") in verdict.reasons, edge

    def test_rejects_wiretapped_inner(self):
        from test_codes import pad_problem

        with pytest.raises(ValueError, match="wiretaps"):
            adhere(pad_problem())


class TestQuasiUniformLibrary:
    def test_all_quasi_uniform(self):
        lib = quasi_uniform_library()
        assert len(lib) == 6
        for name, q in lib.items():
            assert is_quasi_uniform(q), name

    def test_expected_vectors(self):
        lib = quasi_uniform_library()
        v = quasi_uniform_vector_of(lib["bit-and-pair"])
        assert (v[("V1",)], v[("V2",)], v[("V1", "V2")]) == (1, 2, 2)
        v3 = quasi_uniform_vector_of(lib["duplicated-plus-independent"])
        assert v3[("V1", "V2")] == 1
        assert v3[("V1", "V2", "V3")] == 2

    def test_spec_rejects_non_quasi_uniform(self):
        from entroflow.entropy import JointDistribution

        skew = JointDistribution.of(
            [("V1", 2), ("V2", 2)],
            {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 1): F(1, 4)},
        )
        with pytest.raises(ValueError):
            QuasiUniformSpec(skew)


class TestCrossModuleInvariants:
    def test_rates_below_min_cut_on_gadget_instances(self):
        # Necessity of min-cut: every admissible instance in the suite
        # keeps each session rate within the cut to each of its sinks.
        from entroflow.gadgets import build_incremental, build_secure

        instances = [
            build_secure(1, 2).problem,
            build_secure(2, 3).problem,
            build_incremental(h112()).problem,
        ]
        for problem in instances:
            for s in problem.requirement.sessions:
                for sink, demanded in problem.demands().items():
                    if s.id not in demanded:
                        continue
                    cut = min_cut(problem, s.origin, sink)
                    if not cut.is_unbounded:
                        assert s.rate <= cut.value, (s.id, sink)

    def test_incremental_code_satisfies_subnetwork_lp(self):
        q = quasi_uniform_library()["independent-bits"]
        code = incremental_code(q)
        ground = ("S0", "S1", "U1", "U2", "B", "V1", "V2", "D1[12]", "M1[12]")
        lp = build_shannon_lp(code.problem, variables=ground)
        ok, failures = satisfies(lp, induced_joint_distribution(code))
        assert ok, failures
