"""End-to-end acceptance battery.

Each test here exercises one headline guarantee of the package at desk
scale: the two randomized theorem batteries (division-residue branch and
split branch), exact conformance of the rank-one reduction against a
pinned entry table, the valuation-extension property suite, the exact
algebraic invariant suites, and fault-injection sensitivity.  Every
expected value is either an algebraic identity checked exactly or a
frozen constant computed independently beforehand.
"""

import random
import time
from fractions import Fraction

import pytest

import support
from quatwitt import faults
from quatwitt.batteries import (
    DIVISION_BATCHES,
    FAULTS,
    SPLIT_PRIMES,
    SWEEP_SLICE,
    TRIALS,
    conic_scenario,
    count_failures,
    point_scenario,
    sweep_rows,
)
from quatwitt.cli import run_batch
from quatwitt.errors import QuatwittError
from quatwitt.fields import ConicExtension, FunctionField, Rationals
from quatwitt.hermitian import SkewHermitianForm
from quatwitt.morita import extend_valuation, morita_reduce
from quatwitt.quadforms import QuadraticForm, reconstruction, residue_forms, witt_trivial
from quatwitt.quaternions import QuaternionAlgebra, ramification
from quatwitt.scenarios import parse_element
from quatwitt.valuations import GaussValuation, PAdicValuation


def test_division_branch_batches():
    """Randomized batches over Gauss valuations with a division residue
    algebra: every certified form verifies, every reduced entry has
    extended value exactly zero, and the second residue form is empty."""
    start = time.monotonic()
    for p, d in DIVISION_BATCHES:
        records, counts, counterexample = run_batch(conic_scenario(p, d), TRIALS)
        assert counts["verified"] == TRIALS, (p, counts)
        assert counterexample is None
        for r in records:
            rep = r["report"]
            assert rep["verdict"] == "true", (p, r["index"])
            assert all(e["value"] == 0 for e in rep["quad_entries"]), (p, r["index"])
            assert rep["second_residue"] == [], (p, r["index"])
            assert rep["residue_division"] is True, (p, r["index"])
    assert time.monotonic() - start <= 60.0


def test_split_branch_batches():
    """Randomized batches over p-adic valuations with unit conic points:
    the specialized residue form is Witt-trivial on every instance."""
    start = time.monotonic()
    for p in SPLIT_PRIMES:
        records, counts, counterexample = run_batch(point_scenario(p), TRIALS)
        assert counts["verified"] == TRIALS, (p, counts)
        assert counterexample is None
        for r in records:
            assert r["report"]["verdict"] == "true", (p, r["index"])
    assert time.monotonic() - start <= 30.0


def test_exact_reduction_conformance():
    """Entrywise conformance of the rank-one reduction against a pinned
    entry table, with zero tolerance.

    The table pins each rank-one block <delta>, delta = a*i + b*j + c*ij,
    to the pair <L, N/L> with L = a*y - b*x - c the moment coordinate and
    N = nrd(delta) = -a^2*d - b^2*t + c^2*d*t, derived by hand from these
    two formulas.  Morita equivalence keeps the discriminant: that of the
    adjoint involution of <delta> is -N, and over the splitting conic
    field it is -det of the binary quadratic form, so each pinned pair
    must multiply to N.  The table is held to this exactly (L*R == N and
    L built from delta's coordinates) before it is compared with the
    reduction, so a bad table fails as a table error.  A pair <L, -L*N>
    multiplies to -L^2*N instead, which is not N up to squares because
    -1 is not a square in these conic function fields.
    """
    Q = Rationals()
    A = QuaternionAlgebra(Q, Q(2), Q(3))
    C = ConicExtension(Q, Q(2), Q(3))
    K = FunctionField(Q, "s")
    B = QuaternionAlgebra(K, K(-1), K("s"))
    CB = ConicExtension(K, K(-1), K("s"))

    # entries written as L and N/L: (2, 3): i -> L = y, N = -2;
    # ij -> L = -1, N = 6.  (-1, s): i -> L = y, N = 1; j -> L = -x, N = -s
    cases = [
        (A, [A.i()], C, ["y", "-2/y"]),
        (A, [A.i() * A.j()], C, ["-1", "-6"]),
        (B, [B.i(), B.j()], CB, ["y", "1/y", "-x", "s/x"]),
    ]
    for alg, diag, conic, pinned in cases:
        want = [parse_element(conic, t) for t in pinned]
        assert len(want) == 2 * len(diag), pinned
        for k, delta in enumerate(diag):
            lin, rest = want[2 * k], want[2 * k + 1]
            _, a, b, c = delta.coeffs
            assert lin == conic(a) * conic.y_gen() - conic(b) * conic.x_gen() - conic(c), (
                f"table error: pinned L = {pinned[2 * k]} for {delta!r} is not "
                "a*y - b*x - c")
            assert lin * rest == conic(delta.nrd()), (
                f"table error: pinned pair <{pinned[2 * k]}, {pinned[2 * k + 1]}> "
                f"for {delta!r} does not multiply to N = nrd(delta) = {delta.nrd()!r}")
        zero = alg.zero()
        gram = [[diag[i] if i == j else zero for j in range(len(diag))]
                for i in range(len(diag))]
        got = morita_reduce(SkewHermitianForm(alg, gram)).entries
        assert list(got) == want, (
            f"computed {[str(e) for e in got]} vs pinned {pinned}: each "
            "rank-one block of the reduction must be <L, N/L>, the pair whose "
            "product is the Gram determinant N = nrd(delta)"
        )


def test_valuation_extension_suite():
    """Properties of the extended valuation on the conic function field
    in a division-residue configuration: the second generator is a unit,
    values of lifted inner elements agree with the Gauss value, a linear
    combination of 1, x, y is a unit exactly when some coefficient is,
    and the minimum-of-pair value matches half the norm value."""
    Q = Rationals()
    K = FunctionField(Q, "s")
    g3 = GaussValuation(PAdicValuation(3), K)
    vt = extend_valuation(g3, QuaternionAlgebra(K, K(-1), K("s")))
    C = vt.domain
    F = C.inner
    inner = vt.inner

    assert vt.value(C.y_gen()) == 0

    def draw_k(rng):
        return (K("s") * rng.randint(-3, 3) + rng.randint(-3, 3)) * K(3) ** rng.randint(0, 2)

    def draw_k_nonzero(rng):
        while True:
            a = draw_k(rng)
            if not a.is_zero():
                return a

    def draw_poly(rng):
        xg = F.gen()
        while True:
            num = F(0)
            for k in range(rng.randint(1, 3)):
                num = num + xg ** k * F(draw_k(rng))
            if not num.is_zero():
                return num

    def draw_inner(rng):
        while True:
            num = draw_poly(rng)
            den = draw_poly(rng)
            if not den.is_zero():
                return num / den

    rng = random.Random(402)
    for _ in range(1000):
        f = draw_inner(rng)
        assert vt.value(C.from_inner(f.value)) == inner.value(f)

    for _ in range(200):
        trip = [draw_k_nonzero(rng) for _ in range(3)]
        xi = (C.y_gen() * C(F(trip[0])) + C.x_gen() * C(F(trip[1]))
              + C(F(trip[2])))
        assert (vt.value(xi) == 0) == (min(g3.value(a) for a in trip) == 0), trip

    # rational-function draws with general denominators make the exact
    # norm computation blow up in the coefficient tower; the half-norm
    # comparison therefore samples polynomial elements only
    rng = random.Random(406)
    for _ in range(1000):
        a = draw_poly(rng)
        if rng.random() < 0.8:
            b = draw_poly(rng)
            xi = C.from_inner(a.value) + C.from_inner(b.value) * C.y_gen()
        else:
            xi = C.from_inner(a.value)
        assert vt.value(xi) == support.half_norm_value(vt, xi)


def test_algebraic_invariant_suites():
    """Exact algebraic identities at scale: reduced-norm
    multiplicativity, the standard involution laws, compatibility of
    reduction with scalar rescaling, Witt-equivalence of a form with its
    residue reconstruction, and agreement of the ramification test with
    Witt-nontriviality of the norm form's second residue form."""
    start = time.monotonic()
    Q = Rationals()
    alg = QuaternionAlgebra(Q, Q(2), Q(3))

    def draw_elt(rng):
        return alg.from_coeffs(
            [Q(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(4)])

    rng = random.Random(501)
    for _ in range(500):
        u, w = draw_elt(rng), draw_elt(rng)
        assert (u * w).nrd() == u.nrd() * w.nrd()
    for _ in range(500):
        u, w = draw_elt(rng), draw_elt(rng)
        assert (u * w).conj() == w.conj() * u.conj()
        assert u.conj().conj() == u
        assert (u + w).conj() == u.conj() + w.conj()

    def draw_pure(rng):
        return alg.from_coeffs(
            [Q(0)] + [Q(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3)])

    rng = random.Random(502)
    built = 0
    while built < 100:
        rank = rng.randint(1, 2)
        zero = alg.zero()
        diag = [draw_pure(rng) for _ in range(rank)]
        gram = [[diag[i] if i == j else zero for j in range(rank)] for i in range(rank)]
        try:
            h = SkewHermitianForm(alg, gram)
        except QuatwittError:
            continue
        except ValueError:
            continue
        built += 1
        lam = Q(Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 4)))
        assert morita_reduce(h.scale(lam)) == morita_reduce(h).scaled(lam)

    v3 = PAdicValuation(3)
    rng = random.Random(503)
    for _ in range(200):
        rank = rng.randint(1, 4)
        entries = []
        for _ in range(rank):
            u = 0
            while u % 3 == 0:
                u = rng.randint(-9, 9)
            entries.append(Q(u * 3 ** rng.randint(0, 2)))
        q = QuadraticForm(Q, entries)
        rec = reconstruction(q, v3)
        assert witt_trivial(q.perp(rec.neg()), budget=20000).state == "true"

    rng = random.Random(504)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 13])
        vp = PAdicValuation(p)
        d = 0
        while d == 0:
            d = rng.randint(-9, 9)
        t = 0
        while t == 0:
            t = rng.randint(-9, 9)
        a2 = QuaternionAlgebra(Q, Q(d), Q(t))
        norm_form = QuadraticForm(Q, [Q(1), Q(-d), Q(-t), Q(d * t)])
        second = residue_forms(norm_form, vp).second
        assert ramification(a2, vp).ramified == (
            witt_trivial(second, budget=20000).state == "false")
    assert time.monotonic() - start <= 60.0


def test_fault_injection_sensitivity():
    """Each seeded fault flips at least one batch instance from verified
    to failing, and the same instances all verify with no fault active.

    Instances are generated clean and only the verification runs under
    the fault: a fault active during generation can suppress exactly the
    instances it would break (dropping the unit representative makes the
    generator discard twisted candidates at certification), which would
    mask the fault instead of exposing it."""
    counts = [count_failures(sc, ok, SWEEP_SLICE) for _label, sc, ok in sweep_rows()]
    assert faults.active_names() == ()
    for row in counts:
        assert row[None] == 0
    for fault in FAULTS:
        assert sum(row[fault] for row in counts) >= 1, fault
