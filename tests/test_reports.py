"""Report serialization: canonical JSON, rational rendering, atomic writes."""
import json
from fractions import Fraction

import pytest

import gmetric as gm
from gmetric import catalog, reports, sampling


def test_fractions_render_as_ratio_strings():
    assert reports.jsonable(Fraction(3, 4)) == "3/4"
    assert reports.jsonable({"v": (Fraction(1, 2), 2)}) == {"v": ["1/2", 2]}


def test_unserializable_object_raises():
    with pytest.raises(TypeError):
        reports.jsonable(object())


def test_render_is_canonical():
    payload = {"b": 1, "a": [Fraction(1, 3), 0.5], "c": {"y": None, "x": True}}
    text = reports.render_report(payload)
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": ["1/3", 0.5], "c": {"y": None, "x": True}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_write_report_atomic(tmp_path):
    path = tmp_path / "r.json"
    reports.write_report(path, {"k": 1})
    assert json.loads(path.read_text()) == {"k": 1}
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".report-")]
    assert leftovers == []


def test_axiom_report_roundtrip():
    sp = catalog.space_finite_uniform(3)
    rep = gm.exhaustive_axiom_check(sp)
    d = reports.axiom_report_dict(rep)
    assert d["all_pass"] is True
    assert set(d["verdicts"]) == {"G1", "G2", "G3", "G4", "G5", "symmetry"}


def test_certificate_dict_counts_add_up():
    sp = catalog.space_absmax()
    smap = catalog.get_map("moebius", sp)
    spec = gm.ConditionSpec(id="C-Q", q=0.9)
    stream = sampling.triple_stream(sp, seed=0, lo=0.0, hi=0.05)
    cert = gm.certify_on_samples(sp, smap, spec, stream, 300)
    d = reports.certificate_dict(cert)
    assert d["holds"] + d["fails"] == d["checked"]
    assert d["fails"] > 0
    for w in d["worst"]:
        assert w["status"] == "FAILS"


def test_fixed_point_dict_fields():
    sp = catalog.space_absmax()
    smap = catalog.get_map("scale-0.5", sp)
    cert = gm.solve_picard(sp, smap, 1.0, 1e-6, 100, certified_q=0.5)
    d = reports.fixed_point_dict(cert)
    assert d["convergence_class"].startswith("geometric")
    assert d["stop_reason"] == "gap-threshold"
    assert d["apriori_bound"] >= d["residual"]


def test_theorem_report_dict_exact_values():
    sp = catalog.space_finite_uniform(3)
    rep = gm.exhaustive_theorem_check(sp, "THM-2.2", {"q": "1/2"})
    d = reports.theorem_report_dict(rep)
    assert d["params"]["q"] == "1/2"
    assert d["maps_total"] == 27
    assert d["maps_satisfying_hypothesis"] + d["hypothesis_failing"] == 27


def test_diagnosis_dict():
    from gmetric.spaces import INDICATOR_KEYS

    sp = catalog.space_absmax()
    diag = gm.diagnose_sequence(sp, [1.0 / (1 + n) for n in range(50)],
                                candidate=0.0, eps=0.1)
    d = reports.diagnosis_dict(diag)
    assert set(d["thresholds_met"]) == set(INDICATOR_KEYS)
    assert d["candidate"] == 0.0
    assert d["eps"] == 0.1

