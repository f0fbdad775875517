"""Cross-check every integral representation against series evaluation.

Each representation is integrated by tanh-sinh quadrature and compared
with the double series it claims to equal, on a grid of points.  Two
entries fail as shipped — the cross-check is an adjudicator, not a
rubber stamp — and for one of them a corrected integrand (a single
denominator parameter) brings the error from 1e-2 to machine precision,
which is as close as numerics gets to identifying a typo's exact
location.
"""

import time

from humbert import cross_check
from humbert.profiles import load_config, resolved_params
from humbert.quadrature import CORRECTED, REP_IDS


def main() -> None:
    config = load_config()
    start = time.perf_counter()
    print("rep     status  max rel err   worst point")
    for rep_id in REP_IDS:
        params = resolved_params("generic-A", rep_id, config)
        report = cross_check(rep_id, params)
        numeric = report.numeric or {}
        err = numeric.get("max_rel_error")
        worst = numeric.get("worst_point")
        print(f"  {rep_id:<5} {report.status:<6} "
              f"{'' if err is None else format(err, '.2e'):<13} "
              f"{worst if report.status == 'fail' else ''}")
    print(f"\ntotal: {time.perf_counter() - start:.1f}s")

    print("\ndiagnosis of the two failures:")
    params = resolved_params("generic-A", "4.14", config)
    healed = cross_check(CORRECTED["4.14"], params)
    print(f"  {healed.target} {healed.settings['variant']}, inner denominator "
          f"gamma - eps1 - eps2: {healed.status} "
          f"(err {healed.numeric['max_rel_error']:.1e}) — the inner "
          "factor needs the reduced parameter, not the full one")

    params = resolved_params("generic-A", "4.15", config)
    params["eps"] = params["gamma2"]
    closed = cross_check("4.15", params)
    print(f"  4.15 with eps set to gamma2: {closed.status} "
          f"(err {closed.numeric['max_rel_error']:.1e}) — the printed "
          "confluent correction factor only closes at that coincidence")


if __name__ == "__main__":
    main()
