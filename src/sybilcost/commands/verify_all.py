"""`sybilcost verify-all`: the oracle against the closed forms over the small grid."""

import argparse

from .. import cli
from ..verification import verify_all


def run(args: argparse.Namespace) -> int:
    all_ok = True
    for group, count, failures in verify_all():
        if failures:
            all_ok = False
            print(f"FAIL {group}: {len(failures)} of {count} checks failed")
            for failure in failures[:8]:
                print(f"  {failure}")
        else:
            print(f"ok   {group}: {count} checks")
    print("all checks passed" if all_ok else "verification FAILED")
    return cli.EXIT_OK if all_ok else cli.EXIT_VERIFICATION
