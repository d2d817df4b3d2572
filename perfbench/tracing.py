"""Spans around the calls into each layer of entroflow, recorded from outside.

`Tracer.install()` replaces each traced function where its caller looks it
up (a module attribute, or a method on its class) by a wrapper that
records a span, and `Tracer.uninstall()` puts the originals back.  Only
modules already loaded are wrapped, so tracing imports nothing the
workload would not.  A span holds its name, start, end, parent span and
op id; spans stay in memory and are written out once, when the run ends.
Outside an op (set-up, warm-up, the benchmark's own output checks) and
inside `paused()` the wrappers record nothing.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "exact")

    def __init__(self, name: str, parent, op: int):
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.parent = parent
        self.op = op
        self.info: dict = {}
        self.exact = False  # an exact-simplex solve ran beneath this span


def _solve_info(cert) -> dict:
    return {"farkas": cert.farkas is not None}


def _lp_info(lp) -> dict:
    return {"rows": len(lp.constraints), "coords": len(lp.coords)}


def _contract_info(report) -> dict:
    # Details of chain obligations read "<claim> -> <status> [lo, hi]".
    unforced = sum(1 for r in report.results if "-> " in r.detail and "-> forced " not in r.detail)
    return {"obligations": len(report.results), "unforced": unforced}


# (module, attribute or "Class.method", span name, result -> info)
TRACED = [
    ("entroflow.cli", "main", "cli", None),
    ("entroflow.cli", "build_incremental", "gadgets.build_incremental", None),
    ("entroflow.gadgets", "build_incremental", "gadgets.build_incremental", None),
    ("entroflow.cli", "verify_contract", "gadgets.verify_contract", _contract_info),
    ("entroflow.cli", "incremental_code", "gadgets.incremental_code", None),
    ("entroflow.cli", "build_shannon_lp", "lp.build", _lp_info),
    ("entroflow.gadgets", "build_shannon_lp", "lp.build", _lp_info),
    ("entroflow.lp", "build_shannon_lp", "lp.build", _lp_info),
    ("entroflow.lp", "ShannonSolver.__init__", "lp.solver_init", None),
    ("entroflow.lp", "ShannonSolver.maximize", "lp.solve", _solve_info),
    ("entroflow.lp", "ShannonSolver.minimize", "lp.solve", _solve_info),
    ("entroflow.lp", "ShannonSolver.feasibility", "lp.solve", _solve_info),
    ("scipy.optimize", "linprog", "highs", None),
    ("entroflow.lp", "verify_certificate", "simplex.verify", None),
    ("entroflow.simplex", "verify_certificate", "simplex.verify", None),
    ("entroflow.simplex", "ExactSimplex.__init__", "simplex.exact_build", None),
    ("entroflow.simplex", "ExactSimplex.maximize", "simplex.exact", lambda c: {"pivots": len(c.pivots)}),
    ("entroflow.cli", "exhaustive_search", "codes.search", lambda o: {"candidates": o.searched}),
    ("entroflow.cli", "check_admissible", "codes.check_admissible", None),
    ("entroflow.codes", "induced_joint_distribution", "codes.induced", lambda d: {"outcomes": len(d.pmf)}),
    ("entroflow.entropy", "is_quasi_uniform", "entropy.quasi_uniform", None),
    ("entroflow.gadgets", "is_quasi_uniform", "entropy.quasi_uniform", None),
    ("entroflow.entropy", "entropy_vector_of", "entropy.entropy_vector", None),
    ("entroflow.entropy", "check_independence", "entropy.independence", None),
    ("entroflow.codes", "check_independence", "entropy.independence", None),
    ("entroflow.network", "parse", "network.parse", None),
    ("entroflow.network", "min_cut", "network.min_cut", None),
    ("entroflow.gadgets", "min_cut", "network.min_cut", None),
]


_active = None  # the installed Tracer, if any


@contextlib.contextmanager
def paused():
    """Record no spans inside the block: the benchmark's own work in an op."""
    tracer = _active
    if tracer is None:
        yield
        return
    op, tracer.op = tracer.op, None
    try:
        yield
    finally:
        tracer.op = op


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None  # id of the op in progress; None records nothing
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, info):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer.stack[-1] if tracer.stack else None, tracer.op)
            if name == "simplex.exact":
                for outer in tracer.stack:
                    outer.exact = True
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                out = fn(*args, **kwargs)
                if info is not None:
                    span.info = info(out)
                return out
            finally:
                tracer.stack.pop()
                span.end = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        global _active
        _active = self
        for module, attr, name, info in TRACED:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        global _active
        if _active is self:
            _active = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index[id(s.parent)] if s.parent is not None else None,
                "op": s.op,
                **s.info,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every recorded span."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                key = id(s.parent)
                child_time[key] = child_time.get(key, 0.0) + (s.end - s.start)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        for s in self.spans:
            d = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + d
            self_time[s.name] = self_time.get(s.name, 0.0) + d - child_time.get(id(s), 0.0)
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, value in s.info.items():
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + int(value)
        settled = {"float_cert": 0, "float_farkas": 0, "exact": 0}
        for s in self.spans:
            if s.name == "lp.solve":
                kind = "exact" if s.exact else "float_farkas" if s.info.get("farkas") else "float_cert"
                settled[kind] += 1

        def t(name):
            return (total.get(name, 0.0), "s")

        def n(value):
            return (value, "count")

        search_s = total.get("codes.search", 0.0)
        candidates = counts.get("codes.search.candidates", 0)
        return {
            "cli.self_s": (self_time.get("cli", 0.0), "s"),
            "gadgets.build_incremental_s": t("gadgets.build_incremental"),
            "gadgets.verify_contract_self_s": (self_time.get("gadgets.verify_contract", 0.0), "s"),
            "gadgets.obligations": n(counts.get("gadgets.verify_contract.obligations", 0)),
            "gadgets.obligations_unforced": n(counts.get("gadgets.verify_contract.unforced", 0)),
            "gadgets.incremental_code_s": t("gadgets.incremental_code"),
            "lp.build_s": t("lp.build"),
            "lp.builds": n(calls.get("lp.build", 0)),
            "lp.rows": n(counts.get("lp.build.rows", 0)),
            "lp.coords": n(counts.get("lp.build.coords", 0)),
            "lp.solver_init_s": t("lp.solver_init"),
            "lp.solve_s": t("lp.solve"),
            "lp.solves": n(calls.get("lp.solve", 0)),
            "lp.solve_self_s": (self_time.get("lp.solve", 0.0), "s"),
            "lp.settled.float_cert": n(settled["float_cert"]),
            "lp.settled.float_farkas": n(settled["float_farkas"]),
            "lp.settled.exact": n(settled["exact"]),
            "highs.calls": n(calls.get("highs", 0)),
            "highs.solve_s": t("highs"),
            "simplex.verify_calls": n(calls.get("simplex.verify", 0)),
            "simplex.verify_s": t("simplex.verify"),
            "simplex.exact_calls": n(calls.get("simplex.exact", 0)),
            "simplex.exact_build_s": t("simplex.exact_build"),
            "simplex.exact_s": t("simplex.exact"),
            "simplex.pivots": n(counts.get("simplex.exact.pivots", 0)),
            "codes.searches": n(calls.get("codes.search", 0)),
            "codes.search_s": (search_s, "s"),
            "codes.candidates": n(candidates),
            "codes.candidates_per_s": (candidates / search_s if search_s else 0.0, "1/s"),
            "codes.check_admissible_s": t("codes.check_admissible"),
            "codes.induced_s": t("codes.induced"),
            "codes.outcomes": n(counts.get("codes.induced.outcomes", 0)),
            "entropy.quasi_uniform_s": t("entropy.quasi_uniform"),
            "entropy.entropy_vector_s": t("entropy.entropy_vector"),
            "entropy.independence_s": t("entropy.independence"),
            "network.parse_s": t("network.parse"),
            "network.min_cut_s": t("network.min_cut"),
        }
