"""Reduction of skew-hermitian forms over a quaternion algebra to
quadratic forms over the function field of the associated conic, with a
split-case shortcut through a rational point, valuation extension to the
conic function field, and the end-to-end verification pipeline.

Both reductions first diagonalize the form with
hermitian.diagonalized_entries (a diagonal form gives its own entries,
with no basis change built): Morita equivalence maps isometry classes
to isometry classes, so any diagonalization serves.  The algebra (d, t)
acts on the conic d*x^2 + t*y^2 = 1; over its function field F the
algebra splits, and an explicit pair of 2x2 images turns each diagonal
skew-hermitian entry delta = a*i + b*j + c*ij into the binary quadratic
form <L, N/L> over F with

    L = a*y - b*x - c          (a corner of the symmetrized Gram)
    N = nrd(delta) = -a^2*d - b^2*t + c^2*d*t

whose determinant identity det = N holds exactly.  Over the conic, with

    D(x) = (t*b^2 + a^2*d)*x^2 + 2*t*b*c*x + (t*c^2 - a^2) = t*norm(L),

the second entry is N/L = -N*t*((b*x + c) + a*y)/D.  L is written as a
payload directly.  When a != 0, t*b^2 + a^2*d != 0 and (b = 0 or
d*c^2 != b^2), D is coprime to b*x + c and the canonical payload of N/L
is written directly too; otherwise (a = 0, D of lower degree, or
d*c^2 = b^2) the entry falls back to field division.
When the conic has a rational point the same recipe specializes to a
form over the base field itself; that route computes e and N/e with the
base field's operations on payloads and wraps only the 2n entries.
verify_instance checks each level once against its valuation and values
the payloads of the certified coordinates and of the reduced entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional, Tuple

from .errors import (
    DegenerateSpecialization,
    HypothesisNotCertified,
    NotOnConic,
    RamifiedAlgebra,
    RamifiedParameters,
    ZeroEntry,
)
from .fields import ConicExtension, FieldElement, poly_const, poly_trim
from .hermitian import (
    SkewHermitianForm,
    diagonalized_entries,
    good_reduction_certificate,
)
from .quadforms import (
    DEFAULT_BUDGET,
    QuadraticForm,
    Verdict,
    second_residue_form,
    witt_trivial,
)
from .quaternions import MEMO_SIZE, QuaternionAlgebra, QuaternionElement, ramification
from .valuations import (
    ConicValuation,
    GaussValuation,
    TransportedConicValuation,
)


@lru_cache(maxsize=MEMO_SIZE)
def conic_field(alg: QuaternionAlgebra) -> ConicExtension:
    """The function field of the conic d*x^2 + t*y^2 = 1, built once
    per algebra."""
    return ConicExtension(alg.base, alg.d, alg.t)


# ---------------------------------------------------------------------------
# reduction to quadratic forms


def _entry_payloads(u: QuaternionElement):
    """The payloads (N, a, b, c) of a diagonal entry a*i + b*j + c*ij
    with N = nrd(u); ZeroEntry when the entry has no reduction."""
    if u.is_zero():
        raise ZeroEntry("zero diagonal entry has no reduction")
    iz = u.algebra.base.is_zero
    n = u.nrd().value
    if iz(n):
        raise ZeroEntry("diagonal entry with zero reduced norm has no reduction")
    w, a, b, c = u.coeffs
    if not iz(w.value):
        raise ZeroEntry("diagonal entries of a skew form must be pure quaternions")
    return n, a.value, b.value, c.value


def _reduce_entry(field, u: QuaternionElement, x, y):
    """The binary form <L, N/L> of one diagonal entry over the conic
    function field `field`, with L = a*y - b*x - c at its generators
    (x, y).

    Both entries have closed forms.  L is the payload (A, B) with
    A = -c - b*x, a polynomial in x, and B = a, written without any
    field arithmetic (_conic_linear).  With
    D(x) = (t*b^2 + a^2*d)*x^2 + 2*t*b*c*x + (t*c^2 - a^2) = t*norm(L),

        N/L = -N*t*((b*x + c) + a*y) / D.

    When a != 0, D2 = t*b^2 + a^2*d != 0, and b = 0 or d*c^2 != b^2, D
    has degree 2 and no root in common with b*x + c (D(-c/b) =
    a^2*(d*c^2 - b^2)/b^2), so the canonical payload is written directly:
    both denominators D/D2, numerators k*(c + b*x) and k*a with
    k = -N*t/D2.  Every other N/L goes through field division.
    """
    n, a, b, c = _entry_payloads(u)
    lin = field.el(_conic_linear(field, a, b, c))
    if lin.is_zero():
        raise DegenerateSpecialization(
            "linear entry vanished at the point; choose another point"
        )
    quotient = _conic_quotient(field, n, a, b, c)
    if quotient is not None:
        return lin, field.el(quotient)
    return lin, field(u.nrd()) / lin


def _conic_linear(C: ConicExtension, a, b, c):
    """The payload of L = a*y - b*x - c over the conic: A = -c - b*x with
    denominator 1, B = a."""
    base, inner = C.base, C.inner
    A = poly_trim(base, (base.neg(c), base.neg(b)))
    return (inner.from_reduced(A, (base.one(),)), inner.constant(a))


def _conic_quotient(C: ConicExtension, n, a, b, c):
    """The payload of N/L over the conic from its closed form (see
    _reduce_entry), or None where the closed form does not apply."""
    base = C.base
    add, mul = base.add, base.mul
    if base.is_zero(a):
        return None
    a2 = mul(a, a)
    b2 = mul(b, b)
    d2 = add(mul(C.t, b2), mul(a2, C.d))
    if base.is_zero(d2):
        return None
    b_zero = base.is_zero(b)
    if not b_zero and mul(C.d, mul(c, c)) == b2:
        return None
    tc = mul(C.t, c)
    d2_inv = base.inv(d2)
    k = base.neg(mul(mul(n, C.t), d2_inv))
    den = (
        mul(base.sub(mul(tc, c), a2), d2_inv),
        mul(mul(add(tc, tc), b), d2_inv),
        base.one(),
    )
    if b_zero:
        num = poly_const(base, mul(k, c))
    else:
        num = (mul(k, c), mul(k, b))
    inner = C.inner
    return (inner.from_reduced(num, den), inner.from_reduced((mul(k, a),), den))


def morita_reduce(h: SkewHermitianForm) -> QuadraticForm:
    """Quadratic form over the conic function field attached to a
    skew-hermitian form.  The form is diagonalized first
    (diagonalized_entries); each diagonal entry delta then contributes
    <L, N/L>.

    The pair multiplies to N = nrd(delta) exactly, and <L, N/L>
    is exactly the first-pivot diagonalization of the symmetrized Gram
    of the 2x2 image of delta.
    """
    return _reduce_diagonal(h.algebra, diagonalized_entries(h))


def _reduce_diagonal(alg: QuaternionAlgebra, entries) -> QuadraticForm:
    C = conic_field(alg)
    x, y = C.x_gen(), C.y_gen()
    out = []
    for u in entries:
        out.extend(_reduce_entry(C, u, x, y))
    return QuadraticForm(C, out)


def split_reduce_at_point(h: SkewHermitianForm, point) -> QuadraticForm:
    """Specialize the reduction at a rational point of the conic.

    The form is diagonalized first (diagonalized_entries).  The point
    (x0, y0) must satisfy d*x0^2 + t*y0^2 = 1; each diagonal entry delta
    contributes <e, N/e> over the base field with e = a*y0 - b*x0 - c.
    A vanishing e is a degenerate specialization: the form itself is
    fine, the point is not, so another point must be chosen.
    """
    return _split_reduce_entries(h.algebra, diagonalized_entries(h), point)


def _split_reduce_entries(alg: QuaternionAlgebra, entries, point) -> QuadraticForm:
    """The pairs <e, N/e> of the entries at the point, computed with the
    base field's operations on payloads; only the pairs are wrapped."""
    base = alg.base
    x0 = base(point[0])
    y0 = base(point[1])
    sub, mul, div = base.sub, base.mul, base.div
    x, y = x0.value, y0.value
    if base.eval_diagonal((alg.d.value, alg.t.value), (x, y)) != base.one():
        raise NotOnConic(f"({x0!r}, {y0!r}) does not satisfy the conic equation")
    out = []
    for u in entries:
        n, a, b, c = _entry_payloads(u)
        e = sub(sub(mul(a, y), mul(b, x)), c)
        if base.is_zero(e):
            raise DegenerateSpecialization(
                "linear entry vanished at the point; choose another point"
            )
        out.append(FieldElement(base, e))
        out.append(FieldElement(base, div(n, e)))
    return QuadraticForm(base, out)


def conic_point_search(alg: QuaternionAlgebra, v=None, bound: int = 8):
    """Small rational point on d*x^2 + t*y^2 = 1, or None.

    Scans x0 over small fractions and solves for y0 by an exact square
    test.  With a valuation given, only points with both coordinates of
    value >= 0 qualify.
    """
    base = alg.base
    # 0, then each nonzero num/den in lowest terms, by denominator
    candidates = [(0, 1)] + [
        (num, den)
        for den in range(1, bound + 1)
        for num in range(-bound, bound + 1)
        if num and gcd(num, den) == 1
    ]
    for num, den in candidates:
        x0 = base(num) / den
        w = (base(1) - alg.d * x0 * x0) / alg.t
        if not base.is_square(w.value):
            continue
        y0 = base.el(base.sqrt(w.value))
        if v is not None and (v.value(x0) < 0 or v.value(y0) < 0):
            continue
        return x0, y0
    return None


@lru_cache(maxsize=MEMO_SIZE)
def extend_valuation(v, alg: QuaternionAlgebra):
    """Extension of a base valuation to the conic function field of an
    algebra unramified at v, computed once per (v, alg).

    Unit parameters give the half-norm valuation directly; even nonzero
    values are transported through the unit-parameter model.  Either way
    the algebra has unit parameters up to squares, so it is unramified.
    A parameter of odd value leaves no unit conic model: the algebra is
    then ramified, or it splits over the completion and the reduction
    should run through a rational point instead.  Exceptions are not
    memoized, so that branch runs every time.
    """
    vd = v.value(alg.d)
    vt = v.value(alg.t)
    if vd % 2 or vt % 2:
        if ramification(alg, v).ramified:
            raise RamifiedAlgebra(f"{alg!r} is ramified at {v!r}")
        raise RamifiedParameters(
            "a parameter has odd value; no unit conic model exists, use "
            "the rational-point reduction instead"
        )
    C = conic_field(alg)
    if vd == 0 and vt == 0:
        return ConicValuation(GaussValuation(v, C.inner), C)
    alpha = vd // 2
    beta = vt // 2
    pi = v.uniformizer
    d0 = alg.d * pi ** (-2 * alpha)
    t0 = alg.t * pi ** (-2 * beta)
    C0 = ConicExtension(alg.base, d0, t0)
    target = ConicValuation(GaussValuation(v, C0.inner), C0)
    return TransportedConicValuation(C, target, alpha, beta)


# ---------------------------------------------------------------------------
# end-to-end verification


class VerificationReport(NamedTuple):
    algebra: QuaternionAlgebra
    scaling: int
    extvals: Tuple[Fraction, ...]
    certified_diagonal: Tuple[QuaternionElement, ...]
    entry_min_values: Tuple[int, ...]
    route: str
    point: Optional[Tuple[FieldElement, FieldElement]]
    quad: QuadraticForm
    quad_values: Tuple[int, ...]
    second_residue: QuadraticForm
    residue_division: bool
    verdict: Verdict

    @property
    def verified(self) -> bool:
        return self.verdict.state == "true"


def verify_instance(
    h: SkewHermitianForm,
    v,
    route: str = "conic",
    point=None,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Run the whole pipeline on one instance: certify good reduction,
    reduce the certified diagonal, extend the valuation, and test the
    second residue form for Witt triviality.

    The hypothesis must certify; an uncertified form is a precondition
    failure, not a refutation.  Route "conic" reduces over the conic
    function field; route "point" specializes at a rational point of the
    conic and tests residues at the base valuation.
    """
    cert = good_reduction_certificate(h, v)
    if not cert.certified:
        raise HypothesisNotCertified(
            f"no unimodular scaling found; entry values {cert.extvals}"
        )
    # the certificate checked the base level and valued the entries'
    # coordinates; each level is checked once, and payloads valued directly
    entries = cert.scaled_diagonal
    if route == "conic":
        vtil = extend_valuation(v, h.algebra)
        quad = _reduce_diagonal(h.algebra, entries)
        vtil.check_field(quad.base)
        values = tuple([vtil._value(u.value) for u in quad.entries])
        second = second_residue_form(quad, vtil, values)
        used_point = None
    elif route == "point":
        if point is None:
            point = conic_point_search(h.algebra, v)
            if point is None:
                raise NotOnConic(
                    "no small rational point found; supply one explicitly"
                )
        quad = _split_reduce_entries(h.algebra, entries, point)
        values = tuple([v._value(u.value) for u in quad.entries])
        second = second_residue_form(quad, v, values)
        used_point = (h.algebra.base(point[0]), h.algebra.base(point[1]))
    else:
        raise ValueError(f"unknown route {route!r}; use 'conic' or 'point'")
    verdict = witt_trivial(second, budget)
    return VerificationReport(
        algebra=h.algebra,
        scaling=cert.scaling,
        extvals=cert.extvals,
        certified_diagonal=entries,
        entry_min_values=cert.entry_min_values,
        route=route,
        point=used_point,
        quad=quad,
        quad_values=values,
        second_residue=second,
        residue_division=not cert.ramification_report.split_over_residue,
        verdict=verdict,
    )
