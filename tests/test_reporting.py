"""Check records, JSON reports, and the published schema."""

import json
import pathlib
from dataclasses import replace

import jsonschema
import pytest

from rkhskit.reporting import REPORT_SCHEMA, Report, make_record


def test_make_record_pass_rule():
    assert make_record("x", 1.0, 1.0, 0.0).passed
    assert make_record("x", 1.25, 1.0, 0.25).passed  # boundary counts as pass
    assert not make_record("x", 1.25, 1.0, 0.125).passed


def test_verdict_follows_the_numbers():
    rec = make_record("x", 0.0, 0.0, 1.0)
    assert rec.passed
    assert not replace(rec, measured=5.0).passed
    assert replace(rec, tolerance=5.0, measured=5.0).passed


def test_record_dict_shape():
    rec = make_record("slack", -2e-9, 0.0, 1e-8, detail="worst of 100")
    d = rec.to_dict()
    assert d["pass"] is True
    assert d["detail"] == "worst of 100"
    assert set(d) == {"name", "measured", "expected", "tolerance", "pass", "detail"}
    # detail is omitted when empty
    assert "detail" not in make_record("slack", 0.0, 0.0, 1e-8).to_dict()


def test_report_is_schema_valid():
    rep = Report("demo", 7, {"radius": 10.0})
    rep.add(make_record("a", 0.0, 0.0, 1e-9))
    rep.add(make_record("b", 5.0, 4.0, 0.5))
    assert not rep.passed
    data = json.loads(rep.to_json())
    jsonschema.validate(data, REPORT_SCHEMA)


def test_schema_rejects_extra_keys():
    rep = Report("demo", 7, {})
    rep.add(make_record("a", 0.0, 0.0, 1e-9))
    data = json.loads(rep.to_json())
    data["surprise"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, REPORT_SCHEMA)


def test_published_schema_file_is_in_sync():
    here = pathlib.Path(__file__).resolve().parent.parent
    published = json.loads((here / "docs" / "report.schema.json").read_text())
    assert published == REPORT_SCHEMA


def test_to_json_is_stable():
    rep = Report("demo", 7, {"b": 1, "a": 2})
    rep.add(make_record("a", 0.25, 0.25, 1e-12))
    first = rep.to_json()
    assert first == rep.to_json()
    assert '"seed": 7' in first
