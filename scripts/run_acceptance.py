#!/usr/bin/env python3
"""Run the acceptance criteria and print one PASS/FAIL line per criterion.

Exit code 0 when everything passes, 1 otherwise. The same checks run under
pytest as tests/test_acceptance.py.
"""

import pathlib
import sys
import time

# run from a checkout: the package is imported from its src/
ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import CRITERIA  # noqa: E402


def main():
    failures = 0
    t0 = time.perf_counter()
    for name, fn in CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        took = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {name}: {status} - {detail}  [{took:.1f}s]")
        failures += not ok
    total = time.perf_counter() - t0
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed "
          f"in {total:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
