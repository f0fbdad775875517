"""Verification outcome records shared by all checking surfaces."""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import ArgumentError


class _Keyed:
    """Key access for a namedtuple that stands for a dict: record["field"],
    record.get(...), dict(record).  A tuple, a third of a dict's size,
    because repeated checks keep their reports by the thousand."""

    __slots__ = ()

    def __getitem__(self, key: str):
        if key not in self._fields:
            raise KeyError(key)
        return getattr(self, key)

    def get(self, key: str, default=None):
        return getattr(self, key) if key in self._fields else default

    def keys(self) -> tuple[str, ...]:
        return self._fields


class NumericResult(_Keyed, namedtuple("NumericResult", (
        "max_rel_error", "worst_point", "tolerance", "quad_level"))):
    """What a numeric check found: the max relative error over its grid,
    the worst point, the tolerance it was held to and the highest tanh-sinh
    level any point needed, read by key (`_Keyed`)."""

    __slots__ = ()


class Mismatch(_Keyed, namedtuple("Mismatch", ("m", "n", "lhs", "rhs",
                                               "diff"))):
    """An exact check's witness: the first mismatching cell (m, n), both
    sides' coefficients there and their difference, as text, read by key
    (`_Keyed`)."""

    __slots__ = ()


class VerificationReport:
    """Outcome of one exact or numeric check.

    status "pass"/"fail" records an adjudicated comparison; "error" records
    a check that could not run.  A fail always carries a witness: the first
    mismatching coefficient for exact mode, the worst grid point for numeric
    mode.

    Reports are kept by the thousand, so they are slotted and share what
    they can: exact reports made with equal N and variant, and numeric
    reports made with equal grid, spec and variant, share one settings
    dict, and the worst point is that grid's own tuple.
    Treat every field as read-only.  `mismatch` is a Mismatch and
    `numeric` a NumericResult, or either a dict with its keys.  Reports are
    equal when every field is; a report is not hashable.
    """

    __slots__ = ("target", "mode", "status", "settings", "duration",
                 "mismatch", "numeric", "detail")

    def __init__(self, target: str, mode: str, status: str,
                 settings: dict | None = None, duration: float = 0.0,
                 mismatch: Mismatch | dict | None = None,
                 numeric: NumericResult | dict | None = None,
                 detail: str | None = None):
        if mode not in ("exact", "numeric"):
            raise ArgumentError(f"unknown mode {mode!r}")
        if status not in ("pass", "fail", "error"):
            raise ArgumentError(f"unknown status {status!r}")
        if status == "fail" and mismatch is None and numeric is None:
            raise ArgumentError("a fail report must carry a witness")
        self.target = target
        self.mode = mode
        self.status = status
        self.settings = {} if settings is None else settings
        self.duration = duration
        self.mismatch = mismatch
        self.numeric = numeric
        self.detail = detail

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "VerificationReport(%s)" % ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._values()))

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
            out["mismatch"] = dict(self.mismatch)
        if self.numeric is not None:
            out["numeric"] = dict(self.numeric)
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
