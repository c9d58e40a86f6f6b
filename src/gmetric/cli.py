"""Command-line entry point.

Subcommands: ``axioms``, ``condition``, ``solve``, ``gauge``, ``oracle``,
``violate``.  Each reads a single JSON config (``--config``), writes its
report files into ``--out`` (default: the config's "out" entry or the
working directory), and exits with:

  0  verified / converged / no counterexample
  1  violation, counterexample, or non-convergence
  2  usage or configuration error

Configs are fail-closed: unknown keys anywhere are rejected.  Reports are
canonical JSON with no timestamps, so a fixed seed reproduces files
byte for byte.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from itertools import chain, islice

from . import catalog, reports
from .errors import ConfigError, DomainError, GMetricError
from .spaces import (DEFAULT_TOL, FiniteCarrier, GMetricSpace, RealCarrier, build_gmetric,
                     check_axioms, load_metric_table, parse_rational)
# re-exported, not called: perfbench/tracer.py wraps this name in gmetric.cli
from .spaces import normalize_point  # noqa: F401

# Names from the dynamics, condition and oracle layers, bound in this
# module's globals by _bind when main starts a command that runs them, so a
# command imports only its own layers. The cmd_* handlers and
# resolve_condition_spec read them, so they run under main. orbit and
# write_trace_csv are never called here: perfbench/tracer.py wraps them in
# gmetric.cli.
_DEFERRED = {
    "DEFAULT_TRACE_MAX": "dynamics", "TraceWriter": "dynamics", "orbit": "dynamics",
    "solve_picard": "dynamics", "write_trace_csv": "dynamics",
    "MAJORANT_IDS": "conditions", "ConditionSpec": "conditions",
    "certify_on_samples": "conditions", "check_aux_bound": "conditions",
    "check_gauge_admissible": "conditions", "eval_condition": "conditions",
    "DEFAULT_MAP_CAP": "oracle", "exhaustive_theorem_check": "oracle",
}


def _bind(layers) -> None:
    """Bind the deferred names of ``layers``; a name already bound, such as
    one a caller replaced before :func:`main`, is kept."""
    names = globals()
    for name, layer in _DEFERRED.items():
        if layer in layers and name not in names:
            names[name] = getattr(importlib.import_module(f".{layer}", __package__), name)


def __getattr__(name: str):
    """A deferred name read from outside before a command bound it."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((_DEFERRED[name],))
    return globals()[name]

_TOP_KEYS = {"space", "map", "condition", "solver", "sampling", "gauge",
             "gauge_check", "theorem", "violate", "out"}
_SECTION_KEYS = {
    "condition": {"id", "q", "a", "gauge", "alpha", "beta", "delta"},
    "solver": {"x0", "eps_stop", "max_iter", "certified_q", "trace_max"},
    "sampling": {"count", "range", "seed"},
    "space": {"metric_table", "construction"},
    "gauge_check": {"grid", "n_max", "thresh"},
    "theorem": {"id", "q", "a", "gauge", "alpha", "beta", "delta", "scope", "cap"},
    "violate": {"q_grid", "scales"},
}

DEFAULT_GAUGE_GRID = (1e-3, 0.1, 1.0, 10.0, 1e3)


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def load_config(path) -> dict:
    if not path:
        raise ConfigError("a --config file is required")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except ValueError as e:  # a JSONDecodeError, bytes that are not UTF-8, an overlong int
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "\0" in _shaped(cfg.get("out"), str, "", "out"):  # os.makedirs raises ValueError
        raise ConfigError(f"malformed out: {cfg['out']!r} holds a NUL character")
    for section, allowed in _SECTION_KEYS.items():
        sub = cfg.get(section)
        if isinstance(sub, dict):
            _check_keys(sub, allowed, section)
    return cfg


def resolve_space(cfg: dict) -> GMetricSpace:
    sel = cfg.get("space")
    if sel is None:
        raise ConfigError("config is missing a space selector")
    if isinstance(sel, str):
        return catalog.get_space(sel)
    if isinstance(sel, dict):
        path = sel.get("metric_table")
        construction = sel.get("construction", "max")
        if not path or not isinstance(path, str):  # open() reads an int as a descriptor
            raise ConfigError("space object needs a metric_table path")
        return build_gmetric(load_metric_table(path), construction)
    raise ConfigError("space selector must be a name or an object")


def _catalog_entry(get, name, what: str, *args):
    """``get(name, *args)`` for a catalog name from the config; a name that
    is not a string is a ConfigError."""
    if not isinstance(name, str):
        raise ConfigError(f"{what} must be a catalog name, got {name!r}")
    return get(name, *args)


def resolve_map(cfg: dict, space: GMetricSpace):
    sel = cfg.get("map")
    if sel is None:
        raise ConfigError("config is missing a map selector")
    return _catalog_entry(catalog.get_map, sel, "map", space)


def _number(kind, value, what: str):
    """``kind(value)`` for a config value; a boolean, a malformed value, a
    float result that is not finite or a float that ``int`` would truncate
    (2.5, but not 1e6) is a ConfigError."""
    if not isinstance(value, bool):
        try:
            v = kind(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
        else:
            finite = not isinstance(v, float) or math.isfinite(v)
            truncated = kind is int and isinstance(value, float) and v != value
            if finite and not truncated:
                return v
    raise ConfigError(f"malformed {what}: {value!r}")


def _shaped(value, kind, default, what: str):
    """A config object, list or string: ``default`` when ``value`` is absent
    (None), and a ConfigError when it is not of ``kind``."""
    if value is None:
        return default
    if not isinstance(value, kind):
        raise ConfigError(f"malformed {what}: {value!r}")
    return value


def _param(value, exact: bool, what: str):
    if value is None:
        return None
    if exact:
        return _number(lambda v: parse_rational(str(v)), value, what)
    return _number(float, value, what)


def resolve_condition_spec(cfg: dict, space: GMetricSpace) -> ConditionSpec:
    section = cfg.get("condition")
    if not isinstance(section, dict):
        raise ConfigError("config is missing a condition section")
    cid = section.get("id")
    if cid is None:
        raise ConfigError("condition section is missing an id")
    exact = space.exact
    # a weight given to an extension condition is refused by ConditionSpec
    aux = (_catalog_entry(catalog.get_aux, section["a"], "condition.a")
           if "a" in section else None)
    # the float regime multiplies G values by float(c), so c must fit a float
    if cid in MAJORANT_IDS and not exact and aux is not None and aux.kind == "constant":
        _number(lambda _: float(aux.c), section["a"], "condition.a")
    gauge = (_catalog_entry(catalog.get_gauge, section["gauge"], "condition.gauge")
             if "gauge" in section else None)
    return ConditionSpec(
        id=cid,
        q=_param(section.get("q"), exact, "condition.q"),
        a=aux,
        h=gauge,
        alpha=_param(section.get("alpha"), exact, "condition.alpha"),
        beta=_param(section.get("beta"), exact, "condition.beta"),
        delta=_param(section.get("delta"), exact, "condition.delta"),
    )


def sampling_settings(cfg: dict, seed_override=None):
    from . import sampling
    section = _shaped(cfg.get("sampling"), dict, {}, "sampling")
    count = _number(int, section.get("count", sampling.DEFAULT_COUNT), "sampling.count")
    rng_range = section.get("range", list(sampling.DEFAULT_RANGE))
    if (not isinstance(rng_range, (list, tuple))) or len(rng_range) != 2:
        raise ConfigError("sampling.range must be [lo, hi]")
    seed = _number(int, section.get("seed", sampling.DEFAULT_SEED), "sampling.seed")
    if seed_override is not None:
        seed = int(seed_override)
    if seed < 0:
        raise ConfigError(f"malformed seed: {seed} is negative")
    if count < 1:
        raise ConfigError("sampling.count must be positive")
    if count > sampling.COUNT_MAX:
        raise ConfigError(f"malformed sampling.count: {count} draws, limit {sampling.COUNT_MAX}")
    lo = _number(float, rng_range[0], "sampling.range")
    hi = _number(float, rng_range[1], "sampling.range")
    return count, lo, hi, seed


def _space_label(cfg: dict) -> str:
    sel = cfg.get("space")
    if isinstance(sel, dict):
        return f"{sel.get('construction', 'max')}:{os.path.basename(sel.get('metric_table', ''))}"
    return str(sel)


def cmd_axioms(cfg: dict, out_dir: str, tol: float, seed_override=None) -> int:
    space = resolve_space(cfg)
    sample = None  # the whole of a finite carrier
    if not isinstance(space.carrier, FiniteCarrier):
        sample = catalog.standard_sample(space)
        if "sampling" in cfg:
            from . import sampling
            count, lo, hi, seed = sampling_settings(cfg, seed_override)
            sample = sample + sampling.sample_points(space, min(count, 16), seed, lo, hi)
    report = check_axioms(space, sample, tol=tol)
    payload = {"space": _space_label(cfg), "report": reports.axiom_report_dict(report)}
    reports.write_report(os.path.join(out_dir, "axioms.json"), payload)
    for key, verdict in report.verdicts.items():
        line = f"{key}: {verdict.status}"
        if verdict.witness is not None:
            line += f"  witness={verdict.witness} values={verdict.values}"
        print(line)
    return 0 if report.all_pass() else 1


def cmd_condition(cfg: dict, out_dir: str, tol: float, seed_override=None) -> int:
    space = resolve_space(cfg)
    smap = resolve_map(cfg, space)
    spec = resolve_condition_spec(cfg, space)
    count, lo, hi, seed = sampling_settings(cfg, seed_override)
    from . import sampling
    stream = sampling.triple_stream(space, seed=seed, lo=lo, hi=hi, tol=tol)
    head = list(islice(stream, min(count, 1000)))  # also the weight bound's triples
    cert = certify_on_samples(space, smap, spec, chain(head, stream), count, tol_base=tol)
    payload = {
        "space": _space_label(cfg),
        "map": smap.name,
        "sampling": {"count": count, "range": [lo, hi], "seed": seed},
        "certificate": reports.certificate_dict(cert),
    }
    if spec.a is not None and spec.a.kind != "zero":
        payload["aux_bound"] = reports.verdict_dict(
            check_aux_bound(space, smap, spec.a, head, tol_base=tol))
    reports.write_report(os.path.join(out_dir, "condition.json"), payload)
    print(f"{spec.id}[{spec.params_label()}] on {smap.name}: "
          f"checked={cert.checked} holds={cert.holds} fails={cert.fails} "
          f"vacuous={cert.vacuous}")
    for w in cert.worst[:3]:
        print(f"  violation: triple={w.triple} lhs={w.lhs} rhs={w.rhs}")
    return 0 if cert.fails == 0 else 1


def cmd_solve(cfg: dict, out_dir: str, tol: float, seed_override=None) -> int:
    space = resolve_space(cfg)
    smap = resolve_map(cfg, space)
    section = cfg.get("solver")
    if not isinstance(section, dict) or "x0" not in section:
        raise ConfigError("solver section with x0 is required")
    x0 = section["x0"]
    eps_stop = _number(float, section.get("eps_stop", 1e-6), "solver.eps_stop")
    max_iter = _number(int, section.get("max_iter", 100_000), "solver.max_iter")
    certified_q = section.get("certified_q")
    certified_q = None if certified_q is None else _number(float, certified_q,
                                                           "solver.certified_q")
    trace_max = _number(int, section.get("trace_max", DEFAULT_TRACE_MAX), "solver.trace_max")

    # A trace that fills while the loop goes on is written by a forked child
    # meanwhile; join writes any other inline, then publishes the file.
    with TraceWriter(os.path.join(out_dir, "trace.csv"), certified_q) as writer:
        cert = solve_picard(space, smap, x0, eps_stop, max_iter, certified_q, trace_max=trace_max,
                            on_trace=writer.fork)
        writer.join(cert.trace)
    payload = {
        "space": _space_label(cfg),
        "map": smap.name,
        "solver": {"x0": x0, "eps_stop": eps_stop, "max_iter": max_iter,
                   "certified_q": certified_q},
        "certificate": reports.fixed_point_dict(cert),
    }
    reports.write_report(os.path.join(out_dir, "solve.json"), payload)
    print(f"candidate={cert.candidate} residual={cert.residual} "
          f"iterations={cert.iterations} class={cert.convergence_class} "
          f"stop={cert.stop_reason}")
    return 0 if cert.residual <= eps_stop else 1


def cmd_gauge(cfg: dict, out_dir: str, tol: float, seed_override=None) -> int:
    name = cfg.get("gauge")
    if not name:
        raise ConfigError("config is missing a gauge name")
    gauge = _catalog_entry(catalog.get_gauge, name, "gauge")
    section = _shaped(cfg.get("gauge_check"), dict, {}, "gauge_check")
    grid = [_number(float, t, "gauge_check.grid")
            for t in _shaped(section.get("grid"), list, DEFAULT_GAUGE_GRID, "gauge_check.grid")]
    n_max = _number(int, section.get("n_max", 500), "gauge_check.n_max")
    thresh = _number(float, section.get("thresh", 1e-8), "gauge_check.thresh")
    report = check_gauge_admissible(gauge, grid, n_max=n_max, thresh=thresh, tol_base=tol)
    payload = {"gauge": name, "report": reports.gauge_report_dict(report)}
    reports.write_report(os.path.join(out_dir, "gauge.json"), payload)
    print(f"gauge {name}: monotone={report.monotone.status} "
          f"diagonal_strict={report.diagonal_strict.status} "
          f"iterates_vanish={report.iterates_vanish.status} "
          f"usc(heuristic)={report.usc_heuristic.status} "
          f"equivalence_consistent={report.equivalence_consistent}")
    return 0 if report.admissible() else 1


def cmd_oracle(cfg: dict, out_dir: str, tol: float, seed_override=None) -> int:
    space = resolve_space(cfg)
    if not space.exact:
        raise ConfigError("oracle runs need an exact finite space "
                          "(finite-uniform-<m> or a metric table)")
    section = cfg.get("theorem")
    if not isinstance(section, dict) or "id" not in section:
        raise ConfigError("theorem section with id is required")
    params = {}
    for key in ("q", "alpha", "beta", "delta", "scope"):
        if key in section:
            params[key] = section[key]
    if "a" in section:
        params["a"] = _catalog_entry(catalog.get_aux, section["a"], "theorem.a")
    if "gauge" in section:
        params["gauge"] = _catalog_entry(catalog.get_gauge, section["gauge"], "theorem.gauge")
    cap = _number(int, section.get("cap", DEFAULT_MAP_CAP), "theorem.cap")
    report = exhaustive_theorem_check(space, section["id"], params, cap=cap)
    payload = {"space": _space_label(cfg), "report": reports.theorem_report_dict(report)}
    reports.write_report(os.path.join(out_dir, "oracle.json"), payload)
    print(f"{report.theorem_id} on {_space_label(cfg)}: maps={report.maps_total} "
          f"hypothesis={report.maps_satisfying_hypothesis} "
          f"conclusion_holds={report.conclusion_holds} "
          f"counterexamples={len(report.counterexamples)}")
    for table, clause, witness in report.counterexamples[:3]:
        print(f"  counterexample map={table} clause={clause} witness={witness}")
    return 0 if not report.counterexamples else 1


_VIOLATE_SCALES = (100.0, 10.0, 1.0, 0.5, 0.1, 0.05, 0.01, 0.005,
                   1e-3, 1e-4, 1e-5, 1e-6)


def _violation_at(space, smap, spec, s, tol):
    """The first FAILS verdict among the candidate triples at scale s, or
    None; a triple outside the carrier is skipped."""
    for triple in ((0.0, s, s), (s, 2 * s, 2 * s), (s, s / 2, s / 2), (0.0, s, 2 * s),
                   (s, 0.0, 0.0)):
        try:
            v = eval_condition(space, smap, spec, *triple, tol_base=tol)
        except DomainError:
            continue
        if v.status == "FAILS":
            return v
    return None


def _search_violation(space, smap, spec, scales, tol):
    """Multi-scale grid search for a FAILS triple, then a bisection pass on
    the scale to estimate where violation stops."""
    found = None
    found_scale = None
    prev_scale = None
    for s in scales:
        hit = _violation_at(space, smap, spec, s, tol)
        if hit is not None:
            found, found_scale = hit, s
            break
        prev_scale = s
    if found is None:
        return None
    boundary = found_scale
    if prev_scale is not None and prev_scale > found_scale:
        lo_s, hi_s = found_scale, prev_scale
        for _ in range(40):
            mid = (lo_s + hi_s) / 2.0
            if _violation_at(space, smap, spec, mid, tol) is not None:
                lo_s = mid
            else:
                hi_s = mid
        boundary = lo_s
    return {"verdict": found, "scale": found_scale, "boundary_estimate": boundary}


def cmd_violate(cfg: dict, out_dir: str, tol: float, seed_override=None) -> int:
    space = resolve_space(cfg)
    smap = resolve_map(cfg, space)
    base_spec = resolve_condition_spec(cfg, space)
    if base_spec.id not in MAJORANT_IDS:
        raise ConfigError(f"violate searches the majorant conditions "
                          f"({', '.join(MAJORANT_IDS)}), not {base_spec.id}")
    if not (isinstance(space.carrier, RealCarrier) and space.carrier.dim == 1):
        raise ConfigError(f"violate searches a one-dimensional real carrier, "
                          f"not {_space_label(cfg)}")
    section = _shaped(cfg.get("violate"), dict, {}, "violate")
    raw_scales = _shaped(section.get("scales"), list, _VIOLATE_SCALES, "violate.scales")
    scales = [_number(float, s, "violate.scales") for s in raw_scales]
    if not scales or min(scales) <= 0:
        raise ConfigError(f"malformed violate.scales: {raw_scales!r} is not a nonempty "
                          f"list of positive scales")
    q_grid = _shaped(section.get("q_grid"), list, None, "violate.q_grid")
    if q_grid is not None and base_spec.id != "C-Q":
        raise ConfigError("q_grid only applies to the C-Q condition")

    specs = []
    if q_grid:
        for q in q_grid:
            specs.append(ConditionSpec(id="C-Q", q=_param(q, space.exact, "violate.q_grid"),
                                       a=base_spec.a))
    else:
        specs.append(base_spec)

    results = []
    all_found = True
    for spec in specs:
        hit = _search_violation(space, smap, spec, scales, tol)
        entry = {"condition": spec.id, "params": spec.params_label()}
        if hit is None:
            entry["found"] = False
            all_found = False
        else:
            verdict = hit["verdict"]
            recheck = eval_condition(space, smap, spec, *verdict.triple, tol_base=tol)
            entry.update({
                "found": True,
                "witness": reports.condition_verdict_dict(verdict),
                "reverified": recheck.status == "FAILS",
                "scale": hit["scale"],
                "boundary_estimate": hit["boundary_estimate"],
            })
            if recheck.status != "FAILS":
                all_found = False
        results.append(entry)
        label = entry.get("witness", {}).get("triple") if entry["found"] else None
        print(f"{spec.id}[{spec.params_label()}]: "
              + (f"witness {label}" if entry["found"] else "no witness at search resolution"))

    payload = {"space": _space_label(cfg), "map": smap.name, "results": results,
               "found_all": all_found}
    reports.write_report(os.path.join(out_dir, "violate.json"), payload)
    return 0 if all_found else 1


# name -> (handler, help, the layers of _DEFERRED it runs)
_COMMANDS = {
    "axioms": (cmd_axioms, "check the distance axioms of a space", ()),
    "condition": (cmd_condition, "certify a contractive condition on sampled triples",
                  ("conditions",)),
    "solve": (cmd_solve, "run the fixed-point iteration with a certificate", ("dynamics",)),
    "gauge": (cmd_gauge, "check gauge-function admissibility on a grid", ("conditions",)),
    "oracle": (cmd_oracle, "exhaustively check a theorem on a finite exact space",
               ("conditions", "oracle")),
    "violate": (cmd_violate, "search for a condition-violating triple", ("conditions",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmetric",
        description="Fixed-point verification toolkit for ternary-distance spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory for report files")
        p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="base comparison tolerance for float arithmetic "
                            "(finite, >= 0)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise ConfigError(f"malformed --tol: {args.tol!r} is not finite and nonnegative")
        cfg = load_config(args.config)
        out_dir = args.out or cfg.get("out") or "."
        os.makedirs(out_dir, exist_ok=True)
        handler, _, layers = _COMMANDS[args.command]
        _bind(layers)
        return handler(cfg, out_dir, args.tol, seed_override=args.seed)
    except (GMetricError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    # before numpy loads: gmetric calls no BLAS routine, and the OpenBLAS
    # threads numpy's import starts slow a short command; a user's value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
