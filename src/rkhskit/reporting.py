"""Uniform pass/fail records and JSON report serialization.

Every check reduces to one record with the same semantics: pass holds when
|measured - expected| <= tolerance.  One-sided checks (a quantity that must
stay below a bound, a violation that must not occur) encode measured as the
clamped violation against expected 0.  Reports serialize with sorted keys
so identical runs produce identical bytes apart from the timestamp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

__all__ = ["CheckRecord", "Report", "make_record", "REPORT_SCHEMA", "VERSION"]

VERSION = "0.1.0"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    measured: float
    expected: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(abs(self.measured - self.expected) <= self.tolerance)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def make_record(name: str, measured: float, expected: float, tolerance: float, detail: str = "") -> CheckRecord:
    return CheckRecord(name, float(measured), float(expected), float(tolerance), detail)


@dataclass
class Report:
    suite: str
    seed: int
    parameters: dict
    records: list = field(default_factory=list)
    version: str = VERSION
    timestamp: str = ""

    def __post_init__(self) -> None:
        if not self.timestamp:
            self.timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "version": self.version,
            "timestamp": self.timestamp,
            "parameters": self.parameters,
            "records": [r.to_dict() for r in self.records],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "verification report",
    "type": "object",
    "required": ["suite", "seed", "version", "timestamp", "parameters", "records", "pass"],
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "parameters": {"type": "object"},
        "pass": {"type": "boolean"},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "measured", "expected", "tolerance", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "measured": {"type": "number"},
                    "expected": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}
