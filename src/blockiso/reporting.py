"""Uniform pass/fail records for the verification commands."""


def record(check: str, parameters: dict, ok: bool, witness=None) -> dict:
    return {
        "check": check,
        "parameters": parameters,
        "status": "pass" if ok else "fail",
        "witness": witness,
    }


class Report:
    """The records of one check.  `run` holds the parameters every record of
    the run shares; `add` merges them into each record's own."""

    __slots__ = ("check", "run", "records")

    def __init__(self, check: str, run: dict | None = None):
        self.check = check
        self.run = {} if run is None else run
        self.records = []

    def add(self, parameters: dict, ok: bool, witness=None) -> None:
        self.records.append(record(self.check, {**self.run, **parameters}, ok, witness))

    @property
    def ok(self) -> bool:
        return all(r["status"] == "pass" for r in self.records)

    def failures(self) -> list[dict]:
        return [r for r in self.records if r["status"] != "pass"]
