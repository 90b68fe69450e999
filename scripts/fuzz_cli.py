"""Feed the command line seeded random scenarios and report how it exits.

    PYTHONPATH=src python scripts/fuzz_cli.py [--seed 1] [--cases 400] [--deadline 5]
    PYTHONPATH=src python scripts/fuzz_cli.py --show K    # case K's input

Draws scenarios for the six single-shot subcommands (`residue`,
`certify`, `reduce`, `split-reduce`, `residue-forms`, `witt-equal`) from
one `random.Random(seed)` stream, sized to reach the input caps and
step past them: element degree, exponents up to fields.MAX_EXPONENT,
expression nesting up to fields.MAX_NESTING, JSON nesting far past what
the decoder reads, towers up to scenarios.MAX_TOWER_DEPTH levels,
primes up to fields.MAX_PRIME and ranks up to scenarios.MAX_RANK.  Each
case runs `cli.main` in this process, with no fork, under a
`signal.setitimer` deadline.  It prints the count of cases by exit code,
the slowest case, every exception that escaped `main` (an uncaught
exception would exit 1, which the CLI reserves for a violated
property), every `--json` answer that is not one canonical JSON
document, and every case that ran past its deadline.  It exits 1 if any
of the last three happened.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import signal
import sys
import tempfile
import time

from quatwitt import cli
from quatwitt.fields import MAX_EXPONENT, MAX_NESTING, MAX_PRIME, _is_prime
from quatwitt.scenarios import MAX_RANK, MAX_TOWER_DEPTH

COMMANDS = ("residue", "certify", "reduce", "split-reduce", "residue-forms", "witt-equal")
# a JSON value that stands for a nested list, spliced into the text
NEST = "@nest@"


class Deadline(BaseException):
    """Raised by the alarm; a BaseException, so no handler in main
    takes it for an input error."""


def _prime_near(n, step):
    while not _is_prime(n):
        n += step
    return n


def _primes():
    """Small primes, a 61-bit prime and the largest prime under the cap;
    then, drawn less often, the first prime over the cap and moduli that
    are not odd primes."""
    top = _prime_near(MAX_PRIME, -1)
    over = _prime_near(MAX_PRIME + 1, 1)
    return (3, 5, 7, 13, 101, 2**61 - 1, top), (over, 2, 9, 1, 0, -5)


class Drawer:
    def __init__(self, rng):
        self.rng = rng
        self.primes = _primes()

    def prime(self):
        return self.rng.choice(self.primes[self.rng.random() < 0.1])

    def integer(self):
        bits = self.rng.choice((3, 3, 8, 32, 128, 512))
        return str(self.rng.randrange(-(1 << bits), 1 << bits))

    def atom(self, syms):
        r = self.rng.random()
        if syms and r < 0.4:
            return self.rng.choice(syms)
        if r < 0.55:
            return f"{self.integer()}/{abs(int(self.integer())) or 1}"
        return self.integer()

    def poly(self, syms):
        """A polynomial in one symbol of degree up to 30."""
        var = self.rng.choice(syms) if syms else "1"
        deg = self.rng.choice((1, 2, 4, 11, 20, 30))
        terms = [f"{self.integer()}*{var}^{k}" for k in range(deg + 1) if self.rng.random() < 0.7]
        return "(" + ("+".join(terms) or "0") + ")"

    def nested(self, syms):
        """Parentheses and unary minus signs, together near MAX_NESTING."""
        depth = self.rng.choice((3, 10, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING, MAX_NESTING + 1, 3000))
        opens = [self.rng.choice(("(", "-")) for _ in range(depth)]
        closes = ")" * opens.count("(")
        return "".join(opens) + self.atom(syms) + closes

    def element(self, syms, depth=0):
        r = self.rng.random()
        if depth >= 3 or r < 0.3:
            return self.atom(syms)
        if r < 0.5:
            op = self.rng.choice("+-*/")
            return f"({self.element(syms, depth + 1)}){op}({self.element(syms, depth + 1)})"
        if r < 0.65:
            n = self.rng.choice((2, 3, 7, 30, 99, MAX_EXPONENT, MAX_EXPONENT + 1))
            sign = self.rng.choice(("", "", "-"))
            return f"({self.element(syms, depth + 1)})^{sign}{n}"
        if r < 0.9:
            return self.poly(syms)
        return self.nested(syms)

    def tower(self):
        """(field descriptor, its symbols, a valuation descriptor or None):
        function fields over Q or F_p, up to one level past the cap."""
        if self.rng.random() < 0.7:
            field, val = {"kind": "rationals"}, {"kind": "padic", "p": self.prime()}
        else:
            field, val = {"kind": "finite", "p": self.prime()}, None
        syms = []
        levels = self.rng.choice((0, 0, 0, 1, 1, 1, 1, 2, 2, MAX_TOWER_DEPTH, MAX_TOWER_DEPTH + 1))
        for i in range(levels):
            var = f"s{i}" if i else "s"
            field = {"kind": "function", "base": field, "variable": var}
            val = val and {"kind": "gauss", "inner": val}
            syms.append(var)
        return field, syms, val

    def conic_over(self, field, syms, val):
        conic = {"kind": "conic", "base": field, "d": self.element(syms), "t": self.element(syms)}
        if val is not None:
            val = {"kind": "conic-half-norm", "inner": val}
        return conic, syms + ["x", "y"], val

    def entries(self, syms):
        rank = self.rng.choice((1, 2, 3, 4, MAX_RANK, MAX_RANK + 2))
        return [self.element(syms) for _ in range(rank)]

    def quaternion(self, syms):
        return {k: self.element(syms) for k in "wabc" if self.rng.random() < 0.6}

    def form(self, syms):
        rank = self.rng.choice((1, 1, 2, 3, MAX_RANK))
        if self.rng.random() < 0.7:
            return {"diag": [self.quaternion(syms) for _ in range(rank)]}
        rank = min(rank, 4)
        return {"gram": [[self.quaternion(syms) for _ in range(rank)] for _ in range(rank)]}

    def scenario(self, command):
        field, syms, val = self.tower()
        sc = {"field": field}
        if command in ("residue-forms", "witt-equal") and self.rng.random() < 0.3:
            field, syms, val = self.conic_over(field, syms, val)
            sc["field"] = field
        if command == "witt-equal":
            sc["first"] = {"entries": self.entries(syms)}
            if self.rng.random() < 0.6:
                sc["second"] = {"entries": self.entries(syms)}
            return sc
        if val is not None or self.rng.random() < 0.2:
            sc["valuation"] = val or {"kind": "padic", "p": 3}
        if command == "residue-forms":
            sc["quad"] = {"entries": self.entries(syms)}
            return sc
        sc["algebra"] = {"d": self.element(syms), "t": self.element(syms)}
        if command != "residue":
            sc["form"] = self.form(syms)
        if command == "split-reduce":
            sc["point"] = [self.element(syms), self.element(syms)]
        return sc

    def text(self, sc):
        """The scenario's JSON text, sometimes with one value replaced by
        a nested list, deeper than the decoder reads in one case of
        three."""
        if self.rng.random() < 0.05:
            keys = sorted(sc)
            sc = dict(sc, **{self.rng.choice(keys): NEST})
            depth = self.rng.choice((50, 500, 100_000))
            return json.dumps(sc).replace(json.dumps(NEST), "[" * depth + "]" * depth)
        return json.dumps(sc)


def cases(seed):
    """The endless case stream of a seed: (command, JSON text, whether
    to pass --json)."""
    drawer = Drawer(random.Random(seed))
    while True:
        command = drawer.rng.choice(COMMANDS)
        text = drawer.text(drawer.scenario(command))
        yield command, text, drawer.rng.random() < 0.5


def _alarm(signum, frame):
    raise Deadline()


def run_case(argv, deadline):
    """(exit code, or None if main did not return; seconds; stdout; the
    text of an exception that escaped main, or None)."""
    out = io.StringIO()
    code, escaped = None, None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Deadline:
        pass
    except Exception as e:  # reported as escaping main, not handled
        escaped = f"{type(e).__name__}: {str(e)[:120]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, time.perf_counter() - start, out.getvalue(), escaped


def canonical(text):
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of the case stream")
    ap.add_argument("--cases", type=int, default=400, help="number of cases")
    ap.add_argument("--deadline", type=float, default=5.0, help="seconds per case")
    ap.add_argument("--show", type=int, default=None, metavar="K",
                    help="print case K's command and scenario instead of running")
    args = ap.parse_args(argv)

    stream = cases(args.seed)
    if args.show is not None:
        command, text, _as_json = next(itertools.islice(stream, args.show, None))
        print(command)
        print(text)
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    counts, escaped, bad_json, overdue = {}, [], [], []
    slowest = (0.0, None)
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        for k, (command, text, as_json) in zip(range(args.cases), stream):
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(text)
            argv_k = [command, "--scenario", path] + (["--json"] if as_json else [])
            code, seconds, out, exc = run_case(argv_k, args.deadline)
            label = f"case {k} {command} ({len(text)} bytes): {text[:100]}"
            if seconds > slowest[0]:
                slowest = (seconds, label)
            if exc is not None:
                escaped.append(f"{label} -> {exc}")
                outcome = "escaped main"
            elif code is None:
                overdue.append(label)
                outcome = "past deadline"
            else:
                outcome = f"exit {code}"
                if as_json and code != cli.EXIT_INPUT and not canonical(out):
                    bad_json.append(label)
            counts[outcome] = counts.get(outcome, 0) + 1
    print(f"seed {args.seed}, {args.cases} cases, deadline {args.deadline:g} s")
    for outcome in sorted(counts):
        print(f"  {outcome}: {counts[outcome]}")
    print(f"slowest {slowest[0]:.3f} s, {slowest[1]}")
    for title, rows in (("escaped main", escaped), ("not canonical JSON", bad_json),
                        ("past deadline", overdue)):
        print(f"{title}: {len(rows)}")
        for row in rows:
            print(f"  {row}")
    print(f"wall time {time.monotonic() - start:.1f}s")
    return 1 if escaped or bad_json or overdue else 0


if __name__ == "__main__":
    sys.exit(main())
