#!/usr/bin/env python3
"""Race the brute-force oracle against the closed forms on a small grid.

Prints one row per (s, T) with both values, the number of grid configurations
the oracle examined, and wall time.  Any disagreement is flagged loudly and
reflected in the exit code.
"""

import argparse
import sys
import time

from sybilcost import oracle, resources


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="pos-stake", help="preset name (default: pos-stake)")
    parser.add_argument("--max-s", type=int, default=4)
    parser.add_argument("--max-T", type=int, default=4)
    args = parser.parse_args(argv)

    spec = resources.preset(args.spec)
    print(f"spec: {spec.name} (r_min={spec.r_min})")
    print(f"{'s':>3} {'T':>3} {'oracle':>12} {'closed form':>12} {'plans':>8} {'seconds':>8}")
    mismatches = 0
    for s in range(0, args.max_s + 1):
        for T in range(1, args.max_T + 1):
            scenario = oracle.OracleScenario(s=s, T=T, spec=spec)
            start = time.perf_counter()
            result = oracle.min_cost(scenario)
            elapsed = time.perf_counter() - start
            expected = oracle.closed_form(scenario)
            mark = "" if result.min_cost == expected else "  <-- MISMATCH"
            if mark:
                mismatches += 1
            print(
                f"{s:>3} {T:>3} {result.min_cost:>12.4f} {expected:>12.4f} "
                f"{result.plans_examined:>8} {elapsed:>8.3f}{mark}"
            )
    print("no mismatches" if mismatches == 0 else f"{mismatches} MISMATCHES")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
