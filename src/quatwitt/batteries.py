"""The randomized verification batteries, defined once.

Seven batches: four over Gauss valuations on Q(s) where the algebra
(d, s) has a division residue algebra (conic generator), and three over
p-adic valuations on Q where the conic has a unit point (point
generator).  A fault sweep generates the first instances of the p = 3
batch of each kind once, verifies them clean and with each seeded fault
active, and counts the instances that stop passing.  The acceptance
tests and the scripts build their batches from here.
"""

from __future__ import annotations

from . import faults
from .errors import QuatwittError
from .scenarios import generate_instance, load_scenario, verify_generated

TRIALS = 200
SEED = 42
DIVISION_BATCHES = ((3, "-1"), (5, "2"), (7, "3"), (13, "2"))
SPLIT_PRIMES = (3, 5, 7)
FAULTS = (faults.NEGATE_FAST_PATH, faults.DROP_UNIT_REP, faults.SKIP_EVEN_SCALING)
SWEEP_SLICE = 30


def conic_scenario(p, d, trials=TRIALS, seed=SEED):
    return load_scenario({
        "field": {"kind": "function", "base": {"kind": "rationals"}, "variable": "s"},
        "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": p}},
        "generator": "conic",
        "algebra": {"d": d, "t": "s"},
        "seed": seed,
        "trials": trials,
    })


def point_scenario(p, trials=TRIALS, seed=SEED):
    return load_scenario({
        "field": {"kind": "rationals"},
        "valuation": {"kind": "padic", "p": p},
        "generator": "point",
        "seed": seed,
        "trials": trials,
    })


def division_ok(rep):
    return (rep.verified and all(v == 0 for v in rep.quad_values)
            and rep.second_residue.rank == 0)


def split_ok(rep):
    return rep.verified


def sweep_rows(seed=SEED):
    """(label, scenario, predicate) for the two batches a fault sweep
    runs."""
    return (
        ("division", conic_scenario(3, "-1", SWEEP_SLICE, seed), division_ok),
        ("split", point_scenario(3, SWEEP_SLICE, seed), split_ok),
    )


def count_failures(sc, ok, slice_size):
    """How many of the first slice_size instances fail `ok`, keyed by
    fault: None for the clean run, then each name in FAULTS.

    Each instance is generated once, with no fault active, and verified
    clean and under each fault in turn: a fault active during generation
    can suppress exactly the candidates it would break, hiding the fault
    from the sweep.
    """
    instances = [generate_instance(sc, i) for i in range(slice_size)]
    return {
        fault: sum(not _passes(inst, ok, fault) for inst in instances)
        for fault in (None,) + FAULTS
    }


def _passes(inst, ok, fault):
    try:
        with faults.injected(*((fault,) if fault else ())):
            return ok(verify_generated(inst, None))
    except QuatwittError:
        return False
