"""Uniform pass/fail records for the verification commands."""

from __future__ import annotations

from dataclasses import dataclass, field


def record(check: str, parameters: dict, ok: bool, witness=None) -> dict:
    return {
        "check": check,
        "parameters": parameters,
        "status": "pass" if ok else "fail",
        "witness": witness,
    }


@dataclass
class Report:
    """The records of one check.  `run` holds the parameters every record of
    the run shares; `add` merges them into each record's own."""

    check: str
    run: dict = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)

    def add(self, parameters: dict, ok: bool, witness=None) -> None:
        self.records.append(record(self.check, {**self.run, **parameters}, ok, witness))

    @property
    def ok(self) -> bool:
        return all(r["status"] == "pass" for r in self.records)

    def failures(self) -> list[dict]:
        return [r for r in self.records if r["status"] != "pass"]
