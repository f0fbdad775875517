"""Sweep the shipped catalog: every decomposition formula and every
operator identity, verified exactly in rational arithmetic.

Verification truncates both sides of each formula to a degree-N
coefficient triangle and compares entry by entry; a failure would carry
the first mismatching (m, n) pair and both rational values.  A deliberate
perturbation at the end shows what a catalog typo would look like: the
detector pinpoints it at low degree.
"""

import copy
import time

from humbert import verify_all, verify_all_identities, verify_formula
from humbert.catalog import load_catalog
from humbert.profiles import profile_params


def main() -> None:
    params = profile_params("generic-A")

    start = time.perf_counter()
    formula_reports = verify_all(params, degree=8)
    identity_reports = verify_all_identities(params, degree=8)
    elapsed = time.perf_counter() - start

    n_pass = sum(r.status == "pass"
                 for r in formula_reports + identity_reports)
    print(f"exact sweep at N=8: {len(formula_reports)} formulas + "
          f"{len(identity_reports)} identities in {elapsed:.1f}s")
    print(f"  {n_pass} pass, "
          f"{len(formula_reports) + len(identity_reports) - n_pass} fail\n")

    for report in formula_reports:
        if report.status != "pass":
            witness = report.mismatch and dict(report.mismatch)
            print(f"  {report.target}: {report.status} — {witness}")

    # what a typo would look like: perturb one Pochhammer factor by +1
    entry = copy.deepcopy(load_catalog()[0])
    entry["rhs"]["num"][0]["param"] += " + 1"
    report = verify_formula(entry["id"], params, degree=8, catalog=[entry])
    print(f"deliberately perturbed copy of {entry['id']}: {report.status}")
    print(f"  first mismatch at (m, n) = "
          f"({report.mismatch['m']}, {report.mismatch['n']})")
    print(f"  lhs coefficient: {report.mismatch['lhs']}")
    print(f"  rhs coefficient: {report.mismatch['rhs']}")


if __name__ == "__main__":
    main()
