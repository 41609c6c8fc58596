"""Spans and counters recorded around calls into eotlab's public functions.

Tracing works from outside the package: each traced function is replaced, in
every eotlab module that looks it up by name, with a wrapper that records a
span (name, start, end, parent) and the counters its result carries.  Python
resolves a module-level name at call time, so calls made inside the package
(for example ``campanato_iterate`` calling ``local_energy``) are traced too.
``uninstall`` puts the original functions back.

Spans nest strictly because the benchmark pins ``EOTLAB_THREADS=1``; a span's
self time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# (defining module, function, layer metric prefix).  Each prefix names the
# module that defines the function.
TRACED = [
    ("eotlab.solvers", "sinkhorn", "solvers.sinkhorn"),
    ("eotlab.solvers", "exact_ot", "solvers.exact_ot"),
    ("eotlab.scalings", "apply_to_coupling", "scalings.apply_to_coupling"),
    ("eotlab.scalings", "apply_to_measures", "scalings.apply_to_measures"),
    ("eotlab.scalings", "compose", "scalings.compose"),
    ("eotlab.couplings", "local_energy", "couplings.local_energy"),
    ("eotlab.couplings", "affine_fit", "couplings.affine_fit"),
    ("eotlab.couplings", "long_trajectory_stats", "couplings.long_trajectory_stats"),
    ("eotlab.couplings", "radius_scan_rows", "couplings.radius_scan_rows"),
    ("eotlab.grids", "holder_seminorm", "grids.holder_seminorm"),
    ("eotlab.grids", "data_term", "grids.data_term"),
    ("eotlab.grids", "density_at", "grids.density_at"),
    ("eotlab.grids", "make_measure", "grids.make_measure"),
    ("eotlab.regularity", "campanato_iterate", "regularity.campanato_iterate"),
    ("eotlab.regularity", "one_step", "regularity.one_step"),
    ("eotlab.regularity", "quasimin_defect", "regularity.quasimin_defect"),
    ("eotlab.regularity", "harmonic_fit", "regularity.harmonic_fit"),
    ("eotlab.regularity", "expansion_experiment", "regularity.expansion_experiment"),
    ("eotlab.regularity", "soft_lemma_check", "regularity.soft_lemma_check"),
    ("eotlab.cli", "main", "cli.main"),
    ("eotlab.reports", "write_csv", "reports"),
    ("eotlab.reports", "write_json", "reports"),
]
# Methods are wrapped on their class: (module, class, method, prefix).
TRACED_METHODS = [("eotlab.reports", "RunManifest", "write", "reports")]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counters: dict = field(default_factory=dict)


def _counters(name: str, out) -> dict:
    """Work counts carried by a call's result; none of them is a time."""
    if name == "solvers.sinkhorn":
        n, m = out.plan.mass.shape
        # Computed, not measured: bytes of one dense n x m float64 array.
        return {"iterations": out.iterations, "dense_bytes": 8 * n * m}
    if name == "solvers.exact_ot":
        n, m = out.plan.mass.shape
        return {"variables": n * m, "method": out.method}
    if name == "regularity.campanato_iterate":
        return {"levels": len(out.levels)}
    return {}


class Tracer:
    """Wraps the traced functions and keeps the spans of one traced pass.

    ``with tracer:`` clears the spans, installs the wrappers and removes them
    on exit.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.counters = _counters(name, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        self._stack.clear()
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for mod_name, fn_name, prefix in TRACED:
            self._saved += swap(mod_name, fn_name, lambda fn, p=prefix: self._wrap(fn, p))
        for mod_name, cls_name, meth, prefix in TRACED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, prefix))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def swap(mod_name: str, fn_name: str, wrap) -> list[tuple[object, str, object]]:
    """Replace the function ``fn_name`` of ``mod_name`` with ``wrap(function)`` in
    every eotlab module that holds it under that name.  Returns the
    (module, name, original) triples that undo the swap."""
    original = getattr(sys.modules[mod_name], fn_name)
    replacement = wrap(original)
    saved = []
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "eotlab" and getattr(mod, fn_name, None) is original:
            saved.append((mod, fn_name, original))
            setattr(mod, fn_name, replacement)
    return saved


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - _union_length(children.get(i, [])) for i, s in enumerate(spans)
    ]


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    own = self_times(spans)
    prefixes = dict.fromkeys(p for _, _, p in TRACED)
    out: dict[str, float] = {}
    for p in prefixes:
        if p != "reports":
            out[f"{p}.calls"] = 0
        out[f"{p}.self_s"] = 0.0
    out.update({
        "solvers.sinkhorn.iterations": 0,
        "solvers.sinkhorn.dense_bytes": 0,
        "solvers.exact_ot.lp_s": 0.0,
        "solvers.exact_ot.monotone_s": 0.0,
        "solvers.exact_ot.variables": 0,
        "regularity.campanato_iterate.levels": 0,
    })
    for span, t in zip(spans, own):
        p = span.name
        if p != "reports":
            out[f"{p}.calls"] += 1
        out[f"{p}.self_s"] += t
        c = span.counters
        if p == "solvers.sinkhorn":
            out["solvers.sinkhorn.iterations"] += c["iterations"]
            out["solvers.sinkhorn.dense_bytes"] = max(
                out["solvers.sinkhorn.dense_bytes"], c["dense_bytes"]
            )
        elif p == "solvers.exact_ot":
            key = "lp_s" if c["method"].startswith("lp") else "monotone_s"
            out[f"solvers.exact_ot.{key}"] += span.end - span.start
            out["solvers.exact_ot.variables"] += c["variables"]
        elif p == "regularity.campanato_iterate":
            out["regularity.campanato_iterate.levels"] += c["levels"]
    iters = out["solvers.sinkhorn.iterations"]
    out["solvers.sinkhorn.s_per_iter"] = out["solvers.sinkhorn.self_s"] / iters if iters else 0.0
    out["unattributed_s"] = wall_s - sum(own)
    return out
