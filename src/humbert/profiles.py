"""Named parameter presets.

Verification sweeps need a dozen generic rational parameters at once;
profiles keep them in one shipped JSON config instead of command lines.
Per-target overrides adjust individual symbols where a representation's
validity constraints demand it (e.g. an ordering between two parameters
that the generic preset does not satisfy).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import SignatureError
from .scalars import SYMBOLS, as_scalar

DATA_PATH = Path(__file__).parent / "data" / "profiles.json"


def load_config(path: str | Path | None = None) -> dict:
    """Read a profiles config: {"profiles": {...}, "overrides": {...},
    "errata": path-or-null}.  Parameter values stay as strings here;
    resolution converts them."""
    with open(path or DATA_PATH, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SignatureError(f"profiles config is not JSON: {exc}") from exc
    if not isinstance(config, dict) or not _maps_to_maps(config.get("profiles")):
        raise SignatureError(
            "profiles config must map profile names to parameter maps"
        )
    if not _maps_to_maps(config.setdefault("overrides", {})):
        raise SignatureError(
            "profiles config overrides must map target ids to parameter maps"
        )
    errata = config.setdefault("errata", None)
    if errata is not None and not (isinstance(errata, str) and errata):
        raise SignatureError(
            f"profiles config errata must be null or a path, got {errata!r}"
        )
    return config


def _maps_to_maps(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(inner, dict) for inner in value.values()
    )


def profile_params(name: str, config: dict | None = None) -> dict:
    """Exact parameter map for one named profile."""
    config = config or load_config()
    try:
        raw = config["profiles"][name]
    except KeyError:
        known = ", ".join(sorted(config["profiles"]))
        raise SignatureError(f"unknown profile {name!r}; known: {known}")
    params = {}
    for sym, value in raw.items():
        if sym not in SYMBOLS:
            raise SignatureError(f"profile {name!r} sets unknown symbol {sym!r}")
        params[sym] = as_scalar(value)
    return params


def resolved_params(
    name: str, target_id: str | None = None, config: dict | None = None
) -> dict:
    """Profile parameters with the target's overrides applied on top."""
    config = config or load_config()
    params = profile_params(name, config)
    if target_id is not None:
        for sym, value in config["overrides"].get(target_id, {}).items():
            if sym not in SYMBOLS:
                raise SignatureError(
                    f"override for {target_id!r} sets unknown symbol {sym!r}"
                )
            params[sym] = as_scalar(value)
    return params
