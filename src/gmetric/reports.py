"""Deterministic report serialization.

Reports are canonical JSON: sorted keys, two-space indent, a trailing
newline, rationals rendered as "p/q" strings, and no timestamps or
environment-dependent content, so identical runs produce byte-identical
files.  Files are written atomically (temp file + rename).
"""
from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ParameterError
from .spaces import AxiomReport, ConditionVerdict, ConvergenceDiagnosis, Verdict

if TYPE_CHECKING:  # annotations only: a command loads the layers it runs
    from .conditions import Certificate, GaugeReport
    from .dynamics import FixedPointCertificate
    from .oracle import TheoremCheckReport


def jsonable(obj):
    """Recursively convert toolkit values into JSON-encodable structures."""
    if isinstance(obj, Fraction):
        try:
            return f"{obj.numerator}/{obj.denominator}"
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ParameterError("a rational in the report has too many digits to print; "
                                 "use parameters and tables with shorter rationals") from None
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Verdict):
        return verdict_dict(obj)
    if isinstance(obj, ConditionVerdict):
        return condition_verdict_dict(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def verdict_dict(v: Verdict) -> dict:
    out = {"status": v.status}
    if v.witness is not None:
        out["witness"] = jsonable(v.witness)
    if v.values is not None:
        out["values"] = jsonable(v.values)
    if v.note:
        out["note"] = v.note
    return out


def condition_verdict_dict(cv: ConditionVerdict) -> dict:
    return {
        "status": cv.status,
        "lhs": jsonable(cv.lhs),
        "rhs": jsonable(cv.rhs),
        "excluded_terms": list(cv.excluded_terms),
        "triple": jsonable(cv.triple),
    }


def axiom_report_dict(r: AxiomReport) -> dict:
    return {
        "verdicts": {k: verdict_dict(v) for k, v in r.verdicts.items()},
        "sample_size": r.sample_size,
        "quadruple_count": r.quadruple_count,
        "mode": r.mode,
        "all_pass": r.all_pass(),
    }


def certificate_dict(c: Certificate) -> dict:
    return {
        "condition": c.condition_id,
        "params": c.params,
        "checked": c.checked,
        "holds": c.holds,
        "holds_strict": c.holds_strict,
        "holds_weak": c.holds_weak,
        "vacuous": c.vacuous,
        "fails": c.fails,
        "excluded_term_count": c.excluded_term_count,
        "worst": [condition_verdict_dict(w) for w in c.worst],
    }


def fixed_point_dict(fp: FixedPointCertificate) -> dict:
    return {
        "candidate": jsonable(fp.candidate),
        "residual": jsonable(fp.residual),
        "iterations": fp.iterations,
        "convergence_class": str(fp.convergence_class),
        "apriori_bound": jsonable(fp.apriori_bound),
        "stop_reason": fp.stop_reason,
        "initial_gap": jsonable(fp.initial_gap),
        "certified_q": fp.certified_q,
        "space": fp.space_id,
        "map": fp.map_id,
    }


def gauge_report_dict(g: GaugeReport) -> dict:
    return {
        "monotone": verdict_dict(g.monotone),
        "usc_heuristic": verdict_dict(g.usc_heuristic),
        "diagonal_strict": verdict_dict(g.diagonal_strict),
        "iterates_vanish": verdict_dict(g.iterates_vanish),
        "equivalence_consistent": g.equivalence_consistent,
        "details": jsonable(g.details),
        "admissible": g.admissible(),
    }


def theorem_report_dict(t: TheoremCheckReport) -> dict:
    return {
        "theorem": t.theorem_id,
        "params": jsonable(t.params),
        "maps_total": t.maps_total,
        "maps_satisfying_hypothesis": t.maps_satisfying_hypothesis,
        "hypothesis_failing": t.hypothesis_failing,
        "conclusion_holds": t.conclusion_holds,
        "counterexamples": [
            {"map": list(table), "violated_clause": clause, "witness": jsonable(witness)}
            for table, clause, witness in t.counterexamples
        ],
        "notes": list(t.notes),
    }


def diagnosis_dict(d: ConvergenceDiagnosis) -> dict:
    return {
        "candidate": jsonable(d.candidate_limit),
        "indicators": jsonable(d.indicators),
        "thresholds_met": dict(d.thresholds_met),
        "eps": d.eps,
        "tail_start": d.tail_start,
    }


def render_report(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def write_report(path, payload: dict) -> None:
    """Atomically write a canonical JSON report."""
    text = render_report(payload)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
