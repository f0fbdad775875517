"""The refactor guard: digests of whole report groups, pinned so that a change
meant to keep every output can show that it did.

A change that moves a group on purpose re-pins that group's digest and says
which group moved and why.
"""

import hashlib
import json

from humbert.profiles import resolved_params
from humbert.quadrature import CORRECTED_BUILDERS, REP_IDS, cross_check


def _digest(reports) -> str:
    """SHA-256 over the reports' sorted-key JSON, each without `duration`."""
    h = hashlib.sha256()
    for report in reports:
        out = report.to_dict()
        del out["duration"]
        h.update(json.dumps(out, sort_keys=True).encode())
    return h.hexdigest()


# every representation as printed, then the corrected 4.14, on their default
# grids, for generic-A and then generic-B
NUMERIC_DIGEST = (
    "9cbc39a66a7a9c91b53b6721963fd4830497117993bf6112492fd0334e11c404")


def test_numeric_reports_are_kept(config):
    def reports():
        for profile in ("generic-A", "generic-B"):
            for rep_id in REP_IDS:
                yield cross_check(rep_id,
                                  resolved_params(profile, rep_id, config))
            yield cross_check("4.14", resolved_params(profile, "4.14", config),
                              builder=CORRECTED_BUILDERS["4.14"],
                              variant="corrected")

    assert _digest(reports()) == NUMERIC_DIGEST
