"""The exact catalog: loader, validator and verifier.

Catalogs ship as JSON data, each entry holding a left side, a right side,
the symbols both bind, and notes.  The decomposition formulas are 35
entries with ids 2.36 through 2.70; one (id 2.47) carries the
out-of-sequence printed label "2.4", since ids are opaque catalog keys and
printed labels record the labels as published.  The operator identities
2.1 through 2.35 (identities.py) are entries of the same schema, loaded,
validated and verified by the same functions.

An optional errata overlay (same schema) may supply corrected entries keyed
by id; verification then reports the as-printed and corrected forms side by
side, never silently replacing the original.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .errors import HumbertError, SignatureError, UnknownFormula
from .expressions import assemble_expression, expression_symbols
from .reports import Mismatch, VerificationReport, sort_reports
from .scalars import check_path

DATA_DIR = Path(__file__).parent / "data"
CATALOG_ENV_VAR = "HUMBERT_CATALOG"

_REQUIRED_FIELDS = ("id", "printed_label", "lhs", "rhs", "symbols", "notes")


def catalog_path() -> Path:
    override = os.environ.get(CATALOG_ENV_VAR)
    if override:
        return Path(override)
    return DATA_DIR / "decompositions.json"


def _check_fields(entry: dict) -> None:
    if not isinstance(entry, dict):
        raise SignatureError(f"catalog entry must be an object, got {entry!r}")
    missing = [f for f in _REQUIRED_FIELDS if f not in entry]
    if missing:
        raise SignatureError(f"catalog entry missing fields {missing}")


def validate_entry(entry: dict) -> None:
    """Refuse an entry without its fields, with a malformed side, or whose
    `symbols` field differs from the symbols its sides bind."""
    _check_fields(entry)
    computed = sorted(
        expression_symbols(entry["lhs"]) | expression_symbols(entry["rhs"])
    )
    if computed != sorted(entry["symbols"]):
        raise SignatureError(
            f"entry {entry['id']}: symbols field {entry['symbols']} does not "
            f"match the expressions ({computed})"
        )


def _read_entries(path: str | Path | None, default: Path) -> list:
    path = check_path(path, default)
    with open(path) as f:
        try:
            entries = json.load(f)
        except json.JSONDecodeError as exc:
            raise SignatureError(f"catalog {path} is not JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise SignatureError(f"catalog {path} must be a JSON list")
    for entry in entries:
        validate_entry(entry)
    return entries


def load_catalog(path: str | Path | None = None) -> list[dict]:
    entries = _read_entries(path, catalog_path())
    seen = set()
    for entry in entries:
        if entry["id"] in seen:
            raise SignatureError(f"duplicate catalog id {entry['id']}")
        seen.add(entry["id"])
    return entries


def save_catalog(entries: list[dict], path: str | Path) -> None:
    with open(check_path(path), "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")


def load_errata(path: str | Path | None = None) -> dict[str, dict]:
    """Errata overlay: corrected entries keyed by id; an empty list means
    none.  Entries are validated as catalog entries."""
    entries = _read_entries(path, DATA_DIR / "errata.json")
    return {entry["id"]: entry for entry in entries}


def get_formula(formula_id: str, catalog: list[dict] | None = None) -> dict:
    entries = load_catalog() if catalog is None else catalog
    for entry in entries:
        if entry["id"] == formula_id:
            return entry
    raise UnknownFormula(f"no catalog entry with id {formula_id!r}")


@lru_cache(maxsize=256)
def _exact_settings(degree: int, variant: str) -> dict:
    """An exact report's settings, built once per distinct (degree,
    variant) and shared, read-only, by every report made with them."""
    return {"N": degree, "variant": variant}


def _verify_entry(
    entry: dict, params: dict, degree: int, variant: str
) -> VerificationReport:
    """Exact report of lhs == rhs on degree-`degree` triangles.  An entry
    without its fields or with a malformed side is an error (a
    caller-supplied catalog has not been through `load_catalog`;
    `assemble_expression` validates each side), and so is a parameter that
    is not an exact rational, which `assemble_expression` refuses first.
    A degree that is not an int (True, 2.0 and 2 are equal keys, and a
    list is no key) gets a dict of its own."""
    settings = (_exact_settings(degree, variant) if type(degree) is int
                else {"N": degree, "variant": variant})
    start = time.perf_counter()
    try:
        _check_fields(entry)
        lhs = assemble_expression(entry["lhs"], params, degree)
        rhs = assemble_expression(entry["rhs"], params, degree)
    except HumbertError as exc:
        return VerificationReport(
            target=entry["id"], mode="exact", status="error",
            settings=settings, duration=time.perf_counter() - start,
            detail=f"{type(exc).__name__}: {exc}",
        )
    mismatch = lhs.first_mismatch(rhs)
    duration = time.perf_counter() - start
    if mismatch is None:
        return VerificationReport(
            target=entry["id"], mode="exact", status="pass",
            settings=settings, duration=duration,
        )
    return VerificationReport(
        target=entry["id"], mode="exact", status="fail",
        settings=settings, duration=duration, mismatch=_witness(*mismatch),
    )


@lru_cache(maxsize=256)
def _witness(m: int, n: int, a: Fraction, b: Fraction) -> Mismatch:
    """An exact fail's witness, built once per distinct cell and values
    and shared, read-only, by every report that finds it."""
    return Mismatch(m, n, str(a), str(b), str(a - b))


def verify_formula(
    formula_id: str,
    params: dict,
    degree: int = 8,
    catalog: list[dict] | None = None,
) -> VerificationReport:
    """Exact coefficientwise comparison of one catalog entry's two sides."""
    entry = get_formula(formula_id, catalog)
    return _verify_entry(entry, params, degree, "as-printed")


def verify_all(
    params: dict,
    degree: int = 8,
    catalog: list[dict] | None = None,
    errata: dict[str, dict] | None = None,
) -> list[VerificationReport]:
    """Verify every catalog entry; failures are reported, never raised.

    With an errata overlay, ids that have corrected entries get a second
    report (settings variant "errata") next to the as-printed one.
    """
    entries = load_catalog() if catalog is None else catalog
    reports = []
    for entry in entries:
        reports.append(_verify_entry(entry, params, degree, "as-printed"))
        if errata and entry["id"] in errata:
            reports.append(
                _verify_entry(errata[entry["id"]], params, degree, "errata")
            )
    return sort_reports(reports)
