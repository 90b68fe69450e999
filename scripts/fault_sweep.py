"""Measure how sharply the verifier reacts to seeded faults.

Generates a slice of batch instances once, cleanly, then verifies each
one clean and with each single fault active and counts how many flip
from verified to failing.  Instances must be generated clean: a fault
active during generation can suppress exactly the candidates it would
break, hiding the fault from the sweep.
"""

import argparse
import sys
import time

from quatwitt.batteries import FAULTS, SEED, SWEEP_SLICE, count_failures, sweep_rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--slice", type=int, default=SWEEP_SLICE, help="instances per scenario")
    ap.add_argument("--seed", type=int, default=SEED, help="generator seed")
    args = ap.parse_args(argv)

    start = time.monotonic()
    status = 0
    totals = dict.fromkeys(FAULTS, 0)
    for label, sc, ok in sweep_rows(args.seed):
        counts = count_failures(sc, ok, args.slice)
        clean = counts[None]
        line = f"{label:<9} clean {clean}/{args.slice}"
        if clean:
            status = 1
        for fault in FAULTS:
            bad = counts[fault]
            totals[fault] += bad
            line += f"  {fault} {bad}/{args.slice}"
        print(line)
    for fault, total in totals.items():
        mark = "detected" if total else "MISSED"
        print(f"{fault:<18} {total:>3} failures  {mark}")
        if not total:
            status = 1
    print(f"wall time {time.monotonic() - start:.1f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
