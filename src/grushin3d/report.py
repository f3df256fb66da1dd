"""Structured run reports with deterministic serialisation.

A RunReport records the command, the full parameter echo, resolutions,
computed quantities, and pass/fail checks with signed margins.  The
``results`` and ``checks`` blocks are deterministic (bit-for-bit across
reruns in sequential mode); wall-clock time and library version live in
``meta`` and are excluded from that contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import __version__


@dataclass(frozen=True)
class Check:
    """One inequality flag: value OP threshold, with its signed margin.

    margin > 0 means the check passes with room to spare; the raw value and
    threshold are both carried so the flag is recomputable from the report.
    """

    name: str
    value: float
    threshold: float
    op: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold if self.op == "<=" else self.value >= self.threshold

    @property
    def margin(self) -> float:
        return self.threshold - self.value if self.op == "<=" else self.value - self.threshold

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "op": self.op,
            "passed": self.passed,
            "margin": self.margin,
        }


@dataclass
class RunReport:
    command: str
    params: dict
    resolutions: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time_s: Optional[float] = None

    def add_check(self, name, value, threshold, op) -> Check:
        chk = Check(name, float(value), float(threshold), op)
        self.checks.append(chk)
        return chk

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "resolutions": self.resolutions,
            "results": self.results,
            "checks": [c.as_dict() for c in self.checks],
            "all_passed": self.all_passed,
            "meta": {"version": __version__, "wall_time_s": self.wall_time_s},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2, allow_nan=False)


def write_csv(path, header, rows) -> None:
    """Plain CSV with 17-significant-digit floats (plot-ready, bit-stable)."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            )
