"""Print sha256 digests of the verifier's outputs, one per line.

Run it on two checkouts and diff what they print: equal lines mean
byte-identical outputs.

    PYTHONPATH=src python scripts/output_digests.py

For each of the seven batches of `quatwitt.batteries` it prints the
digest of the `run_instance` records of the first --trials instances,
clean and under each seeded fault, and the clean digests of point batches
at p = 11 and p = 101.  Then it prints the digest of
`verify-theorem --json` stdout for the division and split batches at
p = 3, at --jobs 1 and --jobs 2.  Last it prints the exit code and
digest of single-shot subcommands whose forms are not diagonal, so that
they run the congruence diagonalization: `witt-equal` on <1, 1, -2, -3>
over Q, whose search splits off a plane and diagonalizes the complement,
and `reduce`, `split-reduce` and `certify` on the skew-hermitian Gram
[[0, u], [-conj(u), 0]] with u = 1 + i + ij over (1, 1) at p = 3, whose
pivots all have reduced norm 0.  Three more `witt-equal` runs pin the
isotropy search: <1, 1, 1, 1> over Q at --budget 2000, which spends it
all, and <2, 3, 6, -1> over Q and <s, 1, 2, 4> over F_7(s), which find
an isotropic vector late and split off its plane.  Two more pin the
printer's lower levels: `reduce` over F_7(s) on the algebra (3, s),
whose entries are conic elements over F_7(s)(x), and `residue-forms`
over Q(s) at the Gauss 3-adic valuation on entries with denominators,
whose residues print over F_3(s).  Two last `witt-equal` runs, over Q
and over F_13, read entries that are plain literals (fractions, a
leading minus, leading zeros, surrounding whitespace), which the fields
decide from ints without the expression parser.  Five `residue` runs
over Q(s) at Gauss p-adic valuations pin the split decision over F_p(s)
on residue parameters with a p-th power factor, a factor shared by both
parameters, square factors and places of degree 2 and 3, and on two
algebras that split.  A last `residue-forms` run reduces conic entries
at the half-norm extension of the Gauss 3-adic valuation.  The command line
runs in this process through `cli.main`, so --jobs 2 forks one child
(none where only one CPU is usable): at most one extra process runs at
a time.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from quatwitt import cli, faults
from quatwitt.batteries import (
    DIVISION_BATCHES,
    FAULTS,
    SEED,
    SPLIT_PRIMES,
    TRIALS,
    conic_scenario,
    point_scenario,
)
from quatwitt.scenarios import run_instance

# point batches beyond the seven, clean only: primes above the coordinate
# bound 9, so every nonzero coordinate, d and numerator drawn is a unit
CLEAN_ONLY_POINT_PRIMES = (11, 101)

_Q = {"kind": "rationals"}
_F7S = {"kind": "function", "base": {"kind": "finite", "p": 7}, "variable": "s"}
_QS = {"kind": "function", "base": _Q, "variable": "s"}
SINGLE_SHOTS = [
    ("witt-equal", "Q <1, 1, -2, -3>", {"field": _Q, "first": {"entries": ["1", "1", "-2", "-3"]}}, []),
] + [
    (command, "(1, 1) gram p=3", {
        "field": _Q,
        "valuation": {"kind": "padic", "p": 3},
        "algebra": {"d": "1", "t": "1"},
        "form": {"gram": [
            [{}, {"w": "1", "a": "1", "c": "1"}],
            [{"w": "-1", "a": "1", "c": "1"}, {}],
        ]},
        "point": ["3/5", "4/5"],
    }, [])
    for command in ("reduce", "split-reduce", "certify")
] + [
    # the isotropy search: a definite form that spends the whole budget,
    # and forms whose isotropic vector comes after 1486 and 2451 candidates
    ("witt-equal", "Q <1,1,1,1> b2000", {"field": _Q, "first": {"entries": ["1", "1", "1", "1"]}}, ["--budget", "2000"]),
    ("witt-equal", "Q <2, 3, 6, -1>", {"field": _Q, "first": {"entries": ["2", "3", "6", "-1"]}}, []),
    ("witt-equal", "F7(s) <s, 1, 2, 4>", {"field": _F7S, "first": {"entries": ["s", "1", "2", "4"]}}, []),
    # the printer below Q(s)(x): conic elements over F_7(s)(x), and
    # residues over F_3(s) of Q(s) entries with shared denominators
    ("reduce", "F7(s) (3, s)", {
        "field": _F7S,
        "algebra": {"d": "3", "t": "s"},
        "form": {"diag": [{"a": "s", "b": "1", "c": "2"}, {"a": "2", "b": "s + 3", "c": "s"}]},
    }, []),
    ("residue-forms", "Q(s) gauss p=3", {
        "field": {"kind": "function", "base": _Q, "variable": "s"},
        "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}},
        "quad": {"entries": ["(3*s^2 - 1)/(s + 2)", "-(s^3 + 6)/(3*s + 3)", "9*s/(2*s^2 - 1)", "(s - 1/3)/(27*s + 6)"]},
    }, []),
    # plain literals, read without the expression parser: fractions,
    # a leading minus, leading zeros and surrounding whitespace
    ("witt-equal", "Q literals", {
        "field": _Q,
        "first": {"entries": [" -3/4", "12/9 ", "\t-007\n", "5/2"]},
        "second": {"entries": ["-7", " 10 "]},
    }, []),
    ("witt-equal", "F13 literals", {
        "field": {"kind": "finite", "p": 13},
        "first": {"entries": [" -3/4", "25/9 ", "\u00a0-0012 ", "7/2"]},
        "second": {"entries": ["1", " -1/4 "]},
    }, []),
] + [
    # the split decision over F_p(s): a p-th power and a place of degree
    # 2, a shared factor, squares and a place of degree 3, and two
    # algebras that split, so that every place is tested
    ("residue", label, {
        "field": _QS,
        "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": p}},
        "algebra": {"d": d, "t": t},
    }, [])
    for label, p, d, t in (
        ("Q(s) p=3 p-th pow", 3, "-1", "(s + 1)^3*(s^2 + 1)"),
        ("Q(s) p=5 shared", 5, "s^2 + 2", "(s^2 + 2)*(s^3 + s + 1)"),
        ("Q(s) p=7 squares", 7, "3", "s^2*(s + 2)^2*(s^3 + 2)"),
        ("Q(s) p=3 split", 3, "2*s + 1", "s^3 + 2"),
        ("Q(s) p=5 split", 5, "-1", "s^3 + s + 1"),
    )
] + [
    # residues at the half-norm extension of a Gauss valuation to a conic
    ("residue-forms", "conic (-1, s) p=3", {
        "field": {"kind": "conic", "base": _QS, "d": "-1", "t": "s"},
        "valuation": {"kind": "conic-half-norm", "inner": {"kind": "gauss", "inner": {"kind": "padic", "p": 3}}},
        "quad": {"entries": ["3*x", "y + 1", "9*(x - y)", "1/3"]},
    }, []),
]


def batches(trials, seed):
    return [
        (f"division p={p} d={d}", conic_scenario(p, d, trials, seed)) for p, d in DIVISION_BATCHES
    ] + [(f"split p={p}", point_scenario(p, trials, seed)) for p in SPLIT_PRIMES]


def records_digest(sc, trials):
    h = hashlib.sha256()
    for index in range(trials):
        record = run_instance(sc, index)
        h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def cli_digest(args):
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trials", type=int, default=TRIALS, help="instances per batch")
    ap.add_argument("--seed", type=int, default=SEED, help="generator seed")
    args = ap.parse_args(argv)

    every = batches(args.trials, args.seed)
    for label, sc in every:
        for fault in (None,) + FAULTS:
            with faults.injected(*((fault,) if fault else ())):
                digest = records_digest(sc, args.trials)
            print(f"records {label:<18} {fault or 'clean':<18} {digest}")
    for p in CLEAN_ONLY_POINT_PRIMES:
        digest = records_digest(point_scenario(p, args.trials, args.seed), args.trials)
        print(f"records {f'split p={p}':<18} {'clean':<18} {digest}")
    picked = [(label, sc) for label, sc in every if label in ("division p=3 d=-1", "split p=3")]
    with tempfile.TemporaryDirectory() as tmp:
        for label, sc in picked:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w", encoding="utf-8") as fp:
                json.dump(sc, fp)
            for jobs in (1, 2):
                code, digest = cli_digest([
                    "verify-theorem", "--scenario", path, "--json",
                    "--trials", str(args.trials), "--jobs", str(jobs),
                ])
                print(f"verify-theorem {label:<18} jobs {jobs} exit {code} {digest}")
        for command, label, sc, extra in SINGLE_SHOTS:
            path = os.path.join(tmp, "single.json")
            with open(path, "w", encoding="utf-8") as fp:
                json.dump(sc, fp)
            code, digest = cli_digest([command, "--scenario", path, "--json", *extra])
            print(f"{command:<14} {label:<18} exit {code} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
