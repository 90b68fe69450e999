"""Workload definitions and output checks for the quatwitt benchmark.

The battery scenarios repeat those of ``tests/test_acceptance.py`` and
``scripts/run_battery.py`` on purpose: the benchmark must not change
library, test or script code, and merging the three definitions into
one module is a separate change.

Every check here is computed from first principles in this file, never
by calling the library function that produced the value under check.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DIVISION_BATTERIES = ((3, "-1"), (5, "2"), (7, "3"), (13, "2"))
SPLIT_PRIMES = (3, 5, 7)
# the in-process division and split workloads pin each instance's rank,
# cycling through these
RANKS = (1, 2, 3)

# Witt decisions all run with this isotropy-search budget, so that one
# form the search cannot decide costs about 0.1 s instead of 1 s.
WITT_BUDGET = 2000

# One round of the witt workload, in order.  Each slot fixes the kind
# of form; the seed draws its entries.  A fixed round keeps the mix of
# kinds the same on every seed and at every speed.
WITT_SLOTS = ("fp", "fp", "fp", "fp", "norm_residue", "rec", "definite")

# Odd primes from small up to a few hundred for the random F_p forms.
FP_PRIMES = tuple(
    n for n in range(3, 400, 2) if all(n % k for k in range(3, int(n ** 0.5) + 1, 2))
)

# Every workload times one one-shot CLI command as cli_wall_s, on a
# fixed reference input (the acceptance seed), so that the figure
# measures the command and not the draw; division and split verify this
# many instances in it.
ONE_SHOT_SEED = 42
ONE_SHOT_TRIALS = 2


def division_scenario(p, d, seed):
    return {
        "field": {"kind": "function", "base": {"kind": "rationals"}, "variable": "s"},
        "valuation": {"kind": "gauss", "inner": {"kind": "padic", "p": p}},
        "generator": "conic",
        "algebra": {"d": d, "t": "s"},
        "seed": seed,
        "trials": 200,
    }


def split_scenario(p, seed):
    return {
        "field": {"kind": "rationals"},
        "valuation": {"kind": "padic", "p": p},
        "generator": "point",
        "seed": seed,
        "trials": 200,
    }


def battery_scenarios(workload, seed):
    """The scenario dicts a battery workload cycles through."""
    if workload == "division":
        return [division_scenario(p, d, seed) for p, d in DIVISION_BATTERIES]
    if workload == "split":
        return [split_scenario(p, seed) for p in SPLIT_PRIMES]
    raise ValueError(workload)


def digest(records) -> str:
    """sha256 of the records in canonical JSON, one per line."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps(r, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# battery checks


def check_division_record(record):
    """Empty string when the record meets every division-branch claim."""
    if record.get("status") != "ok":
        return f"status {record.get('status')}: {record.get('error')}"
    rep = record["report"]
    if rep["verdict"] != "true":
        return f"verdict {rep['verdict']}"
    if any(e["value"] != 0 for e in rep["quad_entries"]):
        return "a reduced entry has nonzero value"
    if rep["second_residue"] != []:
        return "second residue form is not empty"
    if rep["residue_division"] is not True:
        return "residue algebra is not division"
    return ""


def check_split_record(record):
    if record.get("status") != "ok":
        return f"status {record.get('status')}: {record.get('error')}"
    if record["report"]["verdict"] != "true":
        return f"verdict {record['report']['verdict']}"
    return ""


# ---------------------------------------------------------------------------
# the witt workload


def _vp(n, p):
    out = 0
    while n % p == 0:
        n //= p
        out += 1
    return out


def witt_input(seed, k):
    """The k-th witt instance as plain data: its slot, the field
    descriptor, the entries as integers or fractions, and whatever the
    check needs."""
    slot = WITT_SLOTS[k % len(WITT_SLOTS)]
    rng = random.Random(f"{seed}:witt:{k}")
    if slot == "fp":
        p = rng.choice(FP_PRIMES)
        entries = [rng.randint(1, p - 1) for _ in range(rng.randint(1, 6))]
        return {"slot": slot, "p": p, "entries": entries}
    if slot == "norm_residue":
        # as in the acceptance invariant suite: the second residue form of
        # the norm form <1, -d, -t, dt> of (d, t) at p
        p = rng.choice((3, 5, 7, 13))
        d = t = 0
        while d == 0:
            d = rng.randint(-9, 9)
        while t == 0:
            t = rng.randint(-9, 9)
        return {"slot": slot, "p": p, "entries": [1, -d, -t, d * t]}
    if slot == "rec":
        # q over Q with entries u*3^k; the workload decides q + (-rec(q))
        entries = []
        for _ in range(rng.randint(1, 4)):
            u = 0
            while u % 3 == 0:
                u = rng.randint(-9, 9)
            entries.append(u * 3 ** rng.randint(0, 2))
        return {"slot": slot, "p": 3, "entries": entries}
    # a definite form over Q: all entries of one sign, so it is anisotropic
    sign = rng.choice((1, -1))
    entries = [
        Fraction(sign * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)
    ]
    return {"slot": slot, "entries": entries}


def expected_second_residue(p, entries):
    """Second residue form at p of a diagonal integer form, computed
    directly: the entries of odd value, divided by p^value, mod p."""
    out = []
    for e in entries:
        m = _vp(e, p)
        if m % 2:
            out.append((e // p ** m) % p)
    return out


def fp_witt_trivial(p, entries):
    """Closed form over F_p (Lam, Ch. II): a nondegenerate form is
    hyperbolic iff its dimension n is even and (-1)^(n/2) * det is a
    square, decided here by Euler's criterion."""
    n = len(entries)
    if n % 2:
        return False
    disc = (-1) ** (n // 2)
    for e in entries:
        disc *= e
    return pow(disc % p, (p - 1) // 2, p) == 1


def check_witt(inp, form_entries, state):
    """Empty string when a witt verdict is right.

    `form_entries` are the entry strings of the decided form as the
    library printed them; for F_p forms they are parsed back here.
    `indeterminate` is never wrong: it counts as undecided instead.
    """
    slot = inp["slot"]
    if state == "indeterminate":
        return ""
    if slot in ("fp", "norm_residue"):
        p = inp["p"]
        if slot == "norm_residue":
            want_entries = expected_second_residue(p, inp["entries"])
            if [int(s) % p for s in form_entries] != want_entries:
                return f"second residue {form_entries} != {want_entries}"
        want = fp_witt_trivial(p, [int(s) % p for s in form_entries])
        if state != ("true" if want else "false"):
            return f"verdict {state} over F_{p}, closed form says {want}"
        return ""
    if slot == "rec":
        # rec(q) rescales u*3^m to u*3^(m mod 2), and q + (-rec(q)) pairs
        # u*3^m with -u*3^(m mod 2), whose product is minus a square
        rec = [e // 3 ** (2 * (_vp(e, 3) // 2)) for e in inp["entries"]]
        want_entries = inp["entries"] + [-e for e in rec]
        if [Fraction(s) for s in form_entries] != want_entries:
            return f"q + (-rec(q)) is {form_entries}, expected {want_entries}"
        return "" if state == "true" else f"verdict {state} on q + (-rec(q))"
    return "" if state == "false" else f"verdict {state} on a definite form"


def witt_cli_scenario():
    """Scenario of the witt workload's one-shot CLI command: the first
    definite form of the reference seed, which the search cannot decide."""
    k = WITT_SLOTS.index("definite")
    entries = witt_input(ONE_SHOT_SEED, k)["entries"]
    return {"field": {"kind": "rationals"}, "first": {"entries": [str(e) for e in entries]}}
