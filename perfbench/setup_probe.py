"""Set-up time of the package in a fresh interpreter.

Run as `python3 setup_probe.py <src dir>`: times `import humbert`, loading
the formula catalog and loading the profiles config, and prints the three
times in seconds as one JSON object.

Run as `python3 setup_probe.py --reference`: times the import of NumPy and
of `fractions`, which the package builds on: the host-speed reference for
set-up.  The op-time calibration kernels do not track file and extension
loading, so set-up is calibrated by this import instead, timed in the
interpreter started next to each probe.
"""

import json
import sys
from time import perf_counter


def reference() -> None:
    t0 = perf_counter()
    import fractions  # noqa: F401

    import numpy  # noqa: F401

    print(json.dumps({"reference_s": perf_counter() - t0}))


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    t0 = perf_counter()
    import humbert

    t1 = perf_counter()
    humbert.load_catalog()
    t2 = perf_counter()
    humbert.load_config()
    t3 = perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "load_catalog_s": t2 - t1,
        "load_config_s": t3 - t2,
        "module": humbert.__file__,
    }))


if __name__ == "__main__":
    reference() if sys.argv[1:] == ["--reference"] else main()
