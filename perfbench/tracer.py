"""Run-time tracing of gmetric's layers from outside the package.

:func:`install` replaces, for the duration of a ``with`` block, the public
names that ``gmetric.cli``, ``gmetric.conditions`` and ``gmetric.dynamics``
import from other layers, the catalog, report and sampling entry points
the CLI calls through their modules, and (through the resolved space and
map) the space's G callable and the map's ``apply``.  Nothing in the
package itself changes.

Every wrapped call adds to a per-name call count and time; the time of a
name counts only its outermost call, so nesting never double-counts.  A
call's self time is its time minus the time of the wrapped calls it made,
and is credited to its layer (the name's first component).  Calls that
run more than about 10^4 times per command (G, ``apply``,
``normalize_point``, ``raw_g``, the triple stream) are only aggregated;
every other call is also kept as a span (name, start, end, parent).  The
benchmark writes the last traced pass's spans to
``.perfbench_runs/<workload>/spans.json``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "spaces", "sampling", "dynamics", "conditions", "oracle", "reports")


class Tracer:
    def __init__(self, measure_alloc: bool = False):
        self.measure_alloc = measure_alloc
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)      # per name
        self.layer_self = defaultdict(float)     # per layer
        self.counters = defaultdict(float)
        self.spans = []                          # (name, start, end, parent index)
        self._depth = defaultdict(int)
        self._stack = [[0.0]]                    # child-time accumulators
        self._span_stack = [-1]
        self.in_stream = False

    def wrap(self, fn, name: str, span: bool = True):
        """Return ``fn`` timed and counted under ``name``."""
        layer = name.split(".", 1)[0]
        stack, depth, pc = self._stack, self._depth, time.perf_counter
        calls, total, self_time, layer_self = (self.calls, self.total,
                                                self.self_time, self.layer_self)
        spans, span_stack = self.spans, self._span_stack

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            if span:
                index = len(spans)
                spans.append(None)
                span_stack.append(index)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                own = dt - frame[0]
                self_time[name] += own
                layer_self[layer] += own
                calls[name] += 1
                depth[name] -= 1
                if depth[name] == 0:
                    total[name] += dt
                if span:
                    span_stack.pop()
                    spans[index] = (name, t0, t1, span_stack[-1])

        timed.__wrapped__ = fn
        return timed

    def span_self_times(self):
        """Per span: (duration, duration minus its direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0, t1 - t0 - child[i])
                for i, (name, t0, t1, parent) in enumerate(self.spans)]


class _CountingRng:
    """numpy Generator proxy that counts point draws."""

    def __init__(self, rng, counters):
        self._rng = rng
        self._counters = counters

    def uniform(self, *args, **kwargs):
        self._counters["sampling.draws"] += 1
        return self._rng.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self._counters["sampling.draws"] += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


class _TimedStream:
    def __init__(self, gen, tracer, next_fn):
        self._gen = gen
        self._tracer = tracer
        self._next = next_fn

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.in_stream = True
        try:
            return self._next(self._gen)
        finally:
            self._tracer.in_stream = False


def _plan(tr: Tracer):
    """(module, attribute, replacement factory) for every traced name."""
    c = tr.counters

    def counting_raw_g(fn, name):
        """``fn`` wrapped under ``name``, also counting the raw_g calls it makes."""
        inner = tr.wrap(fn, name)

        def call(*args, **kwargs):
            before = tr.calls["spaces.raw_g"]
            result = inner(*args, **kwargs)
            c[f"{name}.raw_g"] += tr.calls["spaces.raw_g"] - before
            return result
        return call

    def resolve_space(fn):
        inner = tr.wrap(fn, "cli.resolve")

        def call(cfg):
            space = inner(cfg)
            return dataclasses.replace(space, g=tr.wrap(space.g, "spaces.g", span=False))
        return call

    def resolve_map(fn):
        inner = tr.wrap(fn, "cli.resolve")

        def call(cfg, space):
            smap = inner(cfg, space)
            return dataclasses.replace(
                smap, apply=tr.wrap(smap.apply, "dynamics.map_apply", span=False))
        return call

    def certify(fn):
        inner = counting_raw_g(fn, "conditions.certify_on_samples")

        def call(*args, **kwargs):
            if tr.measure_alloc:
                tracemalloc.start()
            try:
                cert = inner(*args, **kwargs)
            finally:
                if tr.measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    c["conditions.alloc_peak_bytes"] = max(
                        c["conditions.alloc_peak_bytes"], peak)
            c["conditions.verdicts"] += cert.checked
            c["conditions.fails"] += cert.fails
            return cert
        return call

    def oracle(fn):
        inner = counting_raw_g(fn, "oracle.exhaustive_theorem_check")

        def call(*args, **kwargs):
            report = inner(*args, **kwargs)
            c["oracle.maps_enumerated"] += report.maps_total
            c["oracle.maps_satisfying"] += report.maps_satisfying_hypothesis
            return report
        return call

    def solve(fn):
        inner = tr.wrap(fn, "dynamics.solve_picard")

        def call(*args, **kwargs):
            cert = inner(*args, **kwargs)
            c["dynamics.solve_picard.iterations"] += cert.iterations
            return cert
        return call

    def orbit(fn):
        inner = tr.wrap(fn, "dynamics.orbit")

        def call(*args, **kwargs):
            trace = inner(*args, **kwargs)
            c["dynamics.orbit.steps"] += len(trace.points) - 1
            return trace
        return call

    def write_trace(fn):
        inner = tr.wrap(fn, "dynamics.write_trace_csv")

        def call(trace, path, *args, **kwargs):
            inner(trace, path, *args, **kwargs)
            c["dynamics.write_trace_csv.bytes"] += os.path.getsize(path)
        return call

    def render(fn):
        inner = tr.wrap(fn, "reports.render_report")

        def call(*args, **kwargs):
            text = inner(*args, **kwargs)
            c["reports.report_bytes"] += len(text.encode())
            return text
        return call

    def triple_stream(fn):
        next_fn = tr.wrap(next, "sampling.triple_stream", span=False)

        def call(*args, **kwargs):
            return _TimedStream(fn(*args, **kwargs), tr, next_fn)
        return call

    def make_rng(fn):
        def call(*args, **kwargs):
            rng = fn(*args, **kwargs)
            return _CountingRng(rng, c) if tr.in_stream else rng
        return call

    def plain(name, span=True):
        return lambda fn: tr.wrap(fn, name, span=span)

    resolve = plain("cli.resolve")
    hot = {"normalize_point", "points_distinct", "raw_g", "scaled_tol"}

    def spaces_name(attr):
        return plain(f"spaces.{attr}", span=attr not in hot)

    return [
        ("gmetric.cli", "main", plain("cli.main")),
        ("gmetric.cli", "load_config", resolve),
        ("gmetric.cli", "resolve_space", resolve_space),
        ("gmetric.cli", "resolve_map", resolve_map),
        ("gmetric.cli", "resolve_condition_spec", resolve),
        ("gmetric.cli", "certify_on_samples", certify),
        ("gmetric.cli", "check_aux_bound", plain("conditions.check_aux_bound")),
        ("gmetric.cli", "check_gauge_admissible", plain("conditions.check_gauge_admissible")),
        ("gmetric.cli", "eval_condition", plain("conditions.eval_condition")),
        ("gmetric.cli", "orbit", orbit),
        ("gmetric.cli", "solve_picard", solve),
        ("gmetric.cli", "write_trace_csv", write_trace),
        ("gmetric.cli", "build_gmetric", plain("oracle.build_gmetric")),
        ("gmetric.cli", "exhaustive_theorem_check", oracle),
        ("gmetric.cli", "load_metric_table", plain("oracle.load_metric_table")),
        ("gmetric.cli", "check_axioms", spaces_name("check_axioms")),
        ("gmetric.cli", "normalize_point", spaces_name("normalize_point")),
        ("gmetric.catalog", "get_space", resolve),
        ("gmetric.catalog", "get_map", resolve),
        ("gmetric.catalog", "get_gauge", resolve),
        ("gmetric.catalog", "get_aux", resolve),
        ("gmetric.catalog", "standard_sample", resolve),
        ("gmetric.reports", "write_report", plain("reports.write_report")),
        ("gmetric.reports", "render_report", render),
        ("gmetric.sampling", "triple_stream", triple_stream),
        ("gmetric.sampling", "sample_points", plain("sampling.sample_points")),
        ("gmetric.sampling", "make_rng", make_rng),
        ("gmetric.conditions", "normalize_point", spaces_name("normalize_point")),
        ("gmetric.conditions", "points_distinct", spaces_name("points_distinct")),
        ("gmetric.conditions", "raw_g", spaces_name("raw_g")),
        ("gmetric.conditions", "scaled_tol", spaces_name("scaled_tol")),
        ("gmetric.dynamics", "normalize_point", spaces_name("normalize_point")),
        ("gmetric.dynamics", "raw_g", spaces_name("raw_g")),
    ]


@contextlib.contextmanager
def install(tr: Tracer):
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for module_name, attr, factory in _plan(tr):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield tr
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


MB = 1024 * 1024


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metric values of one traced pass (unit-free)."""
    c, calls, total = tr.counters, tr.calls, tr.total
    verdicts = c["conditions.verdicts"]
    triples = calls["sampling.triple_stream"]
    out = {
        "cli.resolve.s": total["cli.resolve"],
        "spaces.normalize_point.calls": calls["spaces.normalize_point"],
        "spaces.normalize_point.s": total["spaces.normalize_point"],
        "spaces.g.calls": calls["spaces.g"],
        "spaces.g.s": total["spaces.g"],
        "spaces.check_axioms.s": total["spaces.check_axioms"],
        "sampling.triple_stream.triples": triples,
        "sampling.triple_stream.s": total["sampling.triple_stream"],
        "sampling.draws_per_triple": c["sampling.draws"] / triples if triples else 0.0,
        "dynamics.solve_picard.s": total["dynamics.solve_picard"],
        "dynamics.solve_picard.iterations": c["dynamics.solve_picard.iterations"],
        "dynamics.orbit.s": total["dynamics.orbit"],
        "dynamics.orbit.steps": c["dynamics.orbit.steps"],
        "dynamics.map_steps": calls["dynamics.map_apply"],
        "dynamics.write_trace_csv.s": total["dynamics.write_trace_csv"],
        "dynamics.write_trace_csv.bytes": c["dynamics.write_trace_csv.bytes"],
        "conditions.certify_on_samples.s": total["conditions.certify_on_samples"],
        "conditions.verdicts": verdicts,
        "conditions.fails": c["conditions.fails"],
        "conditions.raw_g_per_verdict": (c["conditions.certify_on_samples.raw_g"] / verdicts
                                         if verdicts else 0.0),
        "oracle.exhaustive_theorem_check.s": total["oracle.exhaustive_theorem_check"],
        "oracle.maps_enumerated": c["oracle.maps_enumerated"],
        "oracle.maps_satisfying": c["oracle.maps_satisfying"],
        "oracle.raw_g_calls": c["oracle.exhaustive_theorem_check.raw_g"],
        "reports.render_report.s": total["reports.render_report"],
        "reports.write_report.s": total["reports.write_report"],
        "reports.report_bytes": c["reports.report_bytes"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tr.layer_self[layer]
    return out


def alloc_peak_mb(tr: Tracer) -> float:
    return tr.counters["conditions.alloc_peak_bytes"] / MB
