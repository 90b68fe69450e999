"""Run the randomized verification battery at desk scale.

Drives the same batches the acceptance tests freeze: four batches over
Gauss valuations whose residue algebra is division, then three batches
over p-adic valuations where the conic has a unit point.  Prints one
summary line per batch, with the batch's own wall time and its time per
instance, and exits nonzero if any instance fails.
"""

import argparse
import sys
import time

from quatwitt.batteries import (
    DIVISION_BATCHES,
    SEED,
    SPLIT_PRIMES,
    TRIALS,
    conic_scenario,
    point_scenario,
)
from quatwitt.cli import run_batch


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=TRIALS, help="instances per batch")
    ap.add_argument("--seed", type=int, default=SEED, help="generator seed")
    args = ap.parse_args(argv)

    batches = [
        (f"division branch p={p:<2} d={d:>2}", conic_scenario(p, d, args.trials, args.seed))
        for p, d in DIVISION_BATCHES
    ] + [
        (f"split branch    p={p:<2}      ", point_scenario(p, args.trials, args.seed))
        for p in SPLIT_PRIMES
    ]
    failures = 0
    start = time.monotonic()
    for label, sc in batches:
        batch_start = time.monotonic()
        _, counts, counterexample = run_batch(sc, args.trials)
        seconds = time.monotonic() - batch_start
        failures += 0 if counts["verified"] == args.trials else 1
        print(f"{label}: verified {counts['verified']}/{args.trials}"
              f"  ({seconds:.1f}s, {1000 * seconds / max(args.trials, 1):.1f} ms/instance)")
        if counterexample is not None:
            print(f"  counterexample at index {counterexample['index']}")
    print(f"total wall time {time.monotonic() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
