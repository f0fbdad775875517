"""Verification outcome records shared by all checking surfaces."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one exact or numeric check.

    status "pass"/"fail" records an adjudicated comparison; "error" records
    a check that could not run.  A fail always carries a witness: the first
    mismatching coefficient for exact mode, the worst grid point for numeric
    mode.
    """

    target: str
    mode: str  # "exact" | "numeric"
    status: str  # "pass" | "fail" | "error"
    settings: dict = field(default_factory=dict)
    duration: float = 0.0
    mismatch: dict | None = None  # exact fail: {m, n, lhs, rhs, diff}
    # numeric: {max_rel_error, worst_point, tolerance, quad_level}
    numeric: dict | None = None
    detail: str | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "numeric"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "fail" and self.mismatch is None and self.numeric is None:
            raise ValueError("a fail report must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {
            "target": self.target,
            "mode": self.mode,
            "status": self.status,
            "settings": self.settings,
            "duration": self.duration,
        }
        if self.mismatch is not None:
            out["mismatch"] = self.mismatch
        if self.numeric is not None:
            out["numeric"] = self.numeric
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _id_key(target: str) -> tuple:
    """Numeric order of dotted ids, so "2.2" comes before "2.10"; a part
    that is not a number sorts after the numbers, as text."""
    return tuple((0, int(part), "") if part.isdigit() else (1, 0, part)
                 for part in target.split("."))


def sort_reports(reports: list[VerificationReport]) -> list[VerificationReport]:
    """Deterministic emission order: by target id, then settings variant."""
    return sorted(
        reports,
        key=lambda r: (_id_key(r.target), str(r.settings.get("variant", ""))),
    )
