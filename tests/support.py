"""Shared strategies and small builders for the test suite."""

import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from quatwitt.errors import AlgebraMismatch, CertificateFailed
from quatwitt.fields import (
    ConicExtension,
    FiniteField,
    FunctionField,
    Rationals,
    poly_deg,
    poly_mul,
)
from quatwitt.morita import conic_field
from quatwitt.quadforms import DEFAULT_BUDGET, diagonalize, mat_mul
from quatwitt.valuations import INF


def fractions(max_num=60, max_den=12):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def nonzero_fractions(max_num=60, max_den=12):
    return fractions(max_num, max_den).filter(lambda f: f != 0)


def rational_functions(field: FunctionField, max_deg=3, coeffs=None):
    """Elements of a rational function field built from coefficient lists."""
    if coeffs is None:
        coeffs = fractions(max_num=9, max_den=4)

    def build(num, den):
        gen = field.gen()
        top = field(0)
        for k, c in enumerate(num):
            top = top + field(c) * gen**k
        bottom = field(0)
        for k, c in enumerate(den):
            bottom = bottom + field(c) * gen**k
        if bottom.is_zero():
            bottom = field(1)
        return top / bottom

    return st.builds(
        build,
        st.lists(coeffs, min_size=1, max_size=max_deg + 1),
        st.lists(coeffs, min_size=1, max_size=max_deg + 1),
    )


def nonzero_rational_functions(field, max_deg=3, coeffs=None):
    return rational_functions(field, max_deg, coeffs).filter(
        lambda f: not f.is_zero()
    )


# primes of the F_p(s) oracles: small ones, where p-th powers fit the
# degree bound, and one above 1000
FP_S_PRIMES = (3, 5, 7, 13, 1009)


@st.composite
def fp_products(draw, count, max_deg=12):
    """(p, polys): `count` polynomials over F_p, lowest degree first, each
    a nonzero constant times powers 1, 2, 3 or p of monic factors of
    degree 1 to 4 from one shared pool, and of degree at most max_deg, so
    that repeated, shared and p-th-power factors occur."""
    p = draw(st.sampled_from(FP_S_PRIMES))
    F = FiniteField(p)
    coeffs = st.integers(1, 4).flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    )
    pool = [tuple(cs) + (1,) for cs in draw(st.lists(coeffs, min_size=1, max_size=4))]
    polys = []
    for _ in range(count):
        f = (draw(st.integers(1, p - 1)),)
        for _ in range(draw(st.integers(0, 4))):
            g, e = draw(st.sampled_from(pool)), draw(st.sampled_from((1, 2, 3, p)))
            if poly_deg(f) + e * poly_deg(g) <= max_deg:
                for _ in range(e):
                    f = poly_mul(F, f, g)
        polys.append(f)
    return p, polys


def sympy_fp_poly(p, f):
    """The sympy Poly over F_p of a coefficient tuple, lowest degree first."""
    import sympy

    return sympy.Poly(list(reversed(f)), sympy.Symbol("s"), modulus=p)


def from_sympy_fp_poly(p, P):
    """The coefficient tuple, lowest degree first, of a sympy Poly over F_p."""
    return tuple(int(c) % p for c in reversed(P.all_coeffs()))


def finite_elements(field: FiniteField):
    return st.integers(0, field.p - 1).map(field)


def conic_elements(conic: ConicExtension, coord=None):
    """Elements A + B*y of a conic extension with rational-function coords."""
    inner = conic.inner
    if coord is None:
        coord = rational_functions(inner, max_deg=2)

    def build(a, b):
        return conic.from_inner(a.value) + conic.from_inner(b.value) * conic.y_gen()

    return st.builds(build, coord, coord)


def half_norm_value(vt, a):
    """(1/2) v'(A^2 - B^2*theta) for a ConicValuation vt: the half-norm
    formula, an independent oracle for vt.value.  Over unit conic
    parameters the norm value is even."""
    n = vt.domain.norm(a.value)
    vn = vt.inner.value(vt.domain.inner.el(n))
    if vn is INF:
        return INF
    assert vn % 2 == 0, f"odd norm value {vn} over unit conic parameters"
    return vn // 2


def quaternions(alg, coeffs=None):
    if coeffs is None:
        coeffs = fractions(max_num=9, max_den=3)
    return st.builds(
        lambda w, a, b, c: alg.el(alg.base(w), alg.base(a), alg.base(b), alg.base(c)),
        coeffs,
        coeffs,
        coeffs,
        coeffs,
    )


def pure_quaternions(alg, coeffs=None):
    if coeffs is None:
        coeffs = st.integers(-9, 9)
    return st.builds(
        lambda a, b, c: alg.el(alg.base(0), alg.base(a), alg.base(b), alg.base(c)),
        coeffs,
        coeffs,
        coeffs,
    ).filter(lambda u: not u.is_zero())


def is_skew_by_all_pairs(gram):
    """conj(G[l][k]) == -G[k][l] for all n^2 index pairs: the
    skew-hermitian condition as stated."""
    n = len(gram)
    return all(gram[l][k].conj() == -gram[k][l] for k in range(n) for l in range(n))


def corrupted_congruence_record(setattr_):
    """run_instance on a split battery instance made non-diagonal by a
    unimodular base change, with a corrupted quaternion matrix product
    installed through setattr_(owner, name, value); the corruption breaks
    the congruence re-check that diagonalize_h runs in
    quadforms.congruence_diagonalize."""
    from quatwitt import quadforms, scenarios

    sc = scenarios.load_scenario({
        "field": {"kind": "rationals"},
        "valuation": {"kind": "padic", "p": 3},
        "generator": "point",
        "seed": 42,
        "rank": 2,
        "trials": 1,
    })
    inst = scenarios.generate_instance(sc, 0)
    alg = inst.algebra
    moved = inst.form.transform([[alg.one(), alg.one()], [alg.zero(), alg.one()]])
    assert not moved.is_diagonal()
    product = quadforms.mat_mul

    def corrupted(m1, m2):
        out = product(m1, m2)
        out[0][0] = out[0][0] + alg.i()
        return out

    setattr_(scenarios, "generate_instance", lambda _sc, _index: inst._replace(form=moved))
    setattr_(quadforms, "mat_mul", corrupted)
    return scenarios.run_instance(sc, 0)


def witt_by_ternary_search(q):
    """Witt triviality over a finite field by splitting off hyperbolic
    planes: remove pairs <u, -u> up to squares, then find a zero of the
    first three entries by exhaustion (every ternary form over a finite
    field of odd order is isotropic), split off its plane and recurse.
    A reference for the rank-and-discriminant decision in witt_trivial;
    it searches no budget, so `searched` is 0."""
    from quatwitt.quadforms import (
        FALSE,
        TRUE,
        Verdict,
        _complement_gram,
        _pair_split,
        diagonalize,
    )

    base = q.base
    entries = [base.el(u) for u in _pair_split(base, [u.value for u in q.entries])]
    m = len(entries)
    if m == 0:
        return Verdict(TRUE)
    if m % 2 == 1 or m == 2:
        return Verdict(FALSE)
    u1, u2, u3 = (u.value for u in entries[:3])
    vec = next(
        [base(a), base(b), base(c)] + [base(0)] * (m - 3)
        for a in base.elements()
        for b in base.elements()
        for c in base.elements()
        if (a, b, c) != (0, 0, 0) and (u1 * a * a + u2 * b * b + u3 * c * c) % base.p == 0
    )
    sub, _p = diagonalize(base, _complement_gram(base, entries, vec))
    return witt_by_ternary_search(sub)


def _candidate_elements(base, rank):
    """The isotropy search's candidate stream on FieldElements, with the
    whole coordinate pool built first and every Q coordinate coerced per
    candidate."""
    import itertools

    if isinstance(base, Rationals):
        for radius in range(1, 8):
            span = range(-radius, radius + 1)
            for vec in itertools.product(span, repeat=rank):
                if max((abs(c) for c in vec), default=0) != radius:
                    continue
                yield [base(c) for c in vec]
        return
    if isinstance(base, FunctionField) and isinstance(base.base, FiniteField):
        consts = [base.el(base.constant(c)) for c in base.base.elements()]
        gen = base.gen()
        lin = [c0 + gen * c1 for c0 in consts for c1 in consts[1:]]
        pool = consts + lin
    elif isinstance(base, FunctionField) and isinstance(base.base, Rationals):
        gen = base.gen()
        pool = [base(c) for c in (-2, -1, 0, 1, 2)] + [gen, -gen, gen + 1, gen - 1]
    elif isinstance(base, ConicExtension):
        xg, yg = base.x_gen(), base.y_gen()
        pool = [base(c) for c in (0, 1, -1, 2, -2)] + [xg, -xg, yg, -yg, xg + 1, yg + 1, xg + yg]
    else:
        return
    for vec in itertools.product(pool, repeat=rank):
        if not all(c.is_zero() for c in vec):
            yield list(vec)


def witt_by_element_search(q, budget=DEFAULT_BUDGET):
    """witt_trivial's pair scan and isotropy search on FieldElements:
    each candidate's value u_1*c_1*c_1 + ... is summed with the element
    operators, not with the field's eval_diagonal, which the library
    search calls.  A reference for the payload search in quadforms, over
    fields that are not finite."""
    from quatwitt.quadforms import (
        FALSE,
        INDETERMINATE,
        TRUE,
        Verdict,
        _complement_gram,
    )

    base = q.base

    def pair_split(entries):
        entries = list(entries)
        while True:
            pair = next(
                (
                    (i, j)
                    for i in range(len(entries))
                    for j in range(i + 1, len(entries))
                    if base.is_square((-(entries[i] * entries[j])).value)
                ),
                None,
            )
            if pair is None:
                return entries
            del entries[pair[1]]
            del entries[pair[0]]

    def search(entries, spent):
        entries = pair_split(entries)
        m = len(entries)
        if m == 0:
            return TRUE, spent
        if m % 2 == 1 or m == 2:
            return FALSE, spent
        for vec in _candidate_elements(base, m):
            if spent >= budget:
                return INDETERMINATE, spent
            spent += 1
            if sum((u * c * c for u, c in zip(entries, vec)), base(0)).is_zero():
                sub, _p = diagonalize(base, _complement_gram(base, entries, vec))
                return search(list(sub.entries), spent)
        return INDETERMINATE, spent

    return Verdict(*search(q.entries, 0))


def certificate_by_window_scan(h, v):
    """good_reduction_certificate by scanning every central scaling pi^m
    with |m| at most the largest entry value and keeping the first that
    passes: a reference for the single scaling the library computes."""
    import math

    from quatwitt import faults
    from quatwitt.hermitian import (
        CERTIFIED,
        NO_CERTIFICATE,
        GoodReductionCertificate,
        diagonalize_h,
    )
    from quatwitt.quaternions import ramification

    report = ramification(h.algebra, v)
    entries, _p = diagonalize_h(h)
    evals = tuple(extval(v, u) for u in entries)
    window = max(math.ceil(abs(e)) for e in evals)
    for m in range(-window, window + 1):
        if faults.is_active(faults.DROP_UNIT_REP):
            scaled = entries
        else:
            scaled = tuple(u * v.uniformizer**m for u in entries)
        if any(extval(v, u) != 0 for u in scaled):
            continue
        if any(v.value(c) < 0 for u in scaled for c in u.coeffs):
            continue
        mins = tuple(min(v.value(c) for c in u.coeffs if not c.is_zero()) for u in scaled)
        return GoodReductionCertificate(CERTIFIED, m, evals, entries, scaled, report, mins)
    return GoodReductionCertificate(NO_CERTIFICATE, None, evals, entries, None, report, None)


def is_unramified(q, v, budget=DEFAULT_BUDGET):
    """Witt-triviality of the second residue form at v."""
    from quatwitt.quadforms import residue_forms, witt_trivial

    return witt_trivial(residue_forms(q, v).second, budget)


def residue_quaternion(alg, v):
    """The residue quaternion algebra at v; RamifiedAlgebra if none exists."""
    from quatwitt.errors import RamifiedAlgebra
    from quatwitt.quaternions import QuaternionAlgebra, ramification

    report = ramification(alg, v)
    if report.ramified:
        raise RamifiedAlgebra(f"{alg!r} is ramified at {v!r}")
    dbar, tbar = report.residue_params
    return QuaternionAlgebra(v.residue_field, dbar, tbar)


def nrd_formula(u):
    """w^2 - d*a^2 - t*b^2 + d*t*c^2 from u's coordinates, bypassing the
    memo in QuaternionElement.nrd."""
    w, a, b, c = u.coeffs
    d, t = u.algebra.d, u.algebra.t
    return w * w - d * a * a - t * b * b + d * t * c * c


def trd(u):
    """The reduced trace 2w of w + a*i + b*j + c*ij."""
    return u.coeffs[0] + u.coeffs[0]


def is_unit(v, a):
    """Whether the field element a has value 0 at v."""
    return v.value(a) == 0


def evaluate_form(h, xs, ys):
    """h(x, y) = sum conj(x_k) * h_kl * y_l, conjugate-linear in x and
    linear in y; entries of xs and ys go through the algebra's coercion."""
    from quatwitt.errors import DimensionMismatch
    from quatwitt.hermitian import _as_element

    n = h.rank
    if len(xs) != n or len(ys) != n:
        raise DimensionMismatch(f"vectors must have length {n}")
    alg = h.algebra
    acc = alg.zero()
    for k in range(n):
        xc = _as_element(alg, xs[k]).conj()
        for l in range(n):
            acc = acc + xc * h.gram[k][l] * _as_element(alg, ys[l])
    return acc


def general_product(u, w):
    """The 16-product formula for u*w, with no scalar shortcut."""
    from quatwitt.quaternions import QuaternionElement

    w1, a1, b1, c1 = u.coeffs
    w2, a2, b2, c2 = w.coeffs
    d, t = u.algebra.d, u.algebra.t
    return QuaternionElement(
        u.algebra,
        (
            w1 * w2 + a1 * a2 * d + b1 * b2 * t - c1 * c2 * d * t,
            w1 * a2 + a1 * w2 + t * (c1 * b2 - b1 * c2),
            w1 * b2 + b1 * w2 + d * (a1 * c2 - c1 * a2),
            w1 * c2 + c1 * w2 + (a1 * b2 - b1 * a2),
        ),
    )


def reduce_entry_by_division(field, u, x, y):
    """<L, N/L> for one pure entry with N/L taken by field division."""
    _w, a, b, c = u.coeffs
    lin = field(a) * y - field(b) * x - field(c)
    return lin, field(u.nrd()) / lin


# ---------------------------------------------------------------------------
# small functions that only the tests call


def form_det(q):
    """The product of a diagonal quadratic form's entries."""
    out = q.base(1)
    for e in q.entries:
        out = out * e
    return out


def form_apply(q, vec):
    """q(vec) for a diagonal quadratic form q, through eval_diagonal."""
    base = q.base
    return base.el(base.eval_diagonal([u.value for u in q.entries], [base(c).value for c in vec]))


def extval(v, u):
    """(1/2) v(nrd(u)), the extended value of one quaternion; INF on the
    zero element."""
    from quatwitt.quaternions import extvals

    return extvals(v, (u,))[0]


# ---------------------------------------------------------------------------
# the explicit splitting over the conic function field, and the 2n x 2n
# reduction built on it: an independent oracle for the library's
# diagonalize-then-<L, N/L> route


class SplittingData:
    """2x2 images of the quaternion basis over the conic function field.

    All defining identities (squares of generators, anticommutation, the
    product i*j = ij, and compatibility of conjugation with the adjugate)
    are checked exactly at construction time.
    """

    __slots__ = ("algebra", "field", "images")

    def __init__(self, alg):
        C = conic_field(alg)
        d = C(alg.d)
        t = C(alg.t)
        x = C.x_gen()
        y = C.y_gen()
        one = C(1)
        zero = C(0)
        img_one = ((one, zero), (zero, one))
        img_i = ((d * x, -y), (-d * t * y, -d * x))
        img_j = ((t * y, x), (d * t * x, -t * y))
        img_ij = ((zero, one), (-d * t, zero))
        self.algebra = alg
        self.field = C
        self.images = {"1": img_one, "i": img_i, "j": img_j, "ij": img_ij}
        identities = [
            _m2_eq(mat_mul(img_i, img_i), _m2_scale(img_one, d)),
            _m2_eq(mat_mul(img_j, img_j), _m2_scale(img_one, t)),
            _m2_eq(mat_mul(img_i, img_j), img_ij),
            _m2_eq(mat_mul(img_j, img_i), _m2_scale(img_ij, C(-1))),
        ] + [
            _m2_eq(_m2_adj(m), _m2_scale(m, C(-1)))
            for m in (img_i, img_j, img_ij)
        ]
        if not all(identities):
            raise CertificateFailed("splitting identity failed")

    def image(self, u):
        if u.algebra != self.algebra:
            raise AlgebraMismatch("element from a different algebra")
        C = self.field
        w, a, b, c = (C(coord) for coord in u.coeffs)
        acc = _m2_scale(self.images["1"], w)
        for coeff, name in ((a, "i"), (b, "j"), (c, "ij")):
            acc = _m2_add(acc, _m2_scale(self.images[name], coeff))
        return acc


def _m2_add(m1, m2):
    return tuple(
        tuple(m1[i][j] + m2[i][j] for j in range(2)) for i in range(2)
    )


def _m2_scale(m, c):
    return tuple(tuple(entry * c for entry in row) for row in m)


def _m2_adj(m):
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def _m2_eq(m1, m2):
    return all(m1[i][j] == m2[i][j] for i in range(2) for j in range(2))


def _sym_gram(m):
    """The symmetric matrix S * m, S = [[0,1],[-1,0]], conjugated by the
    coordinate swap so the (0,0) corner carries the linear entry L."""
    s_m = ((m[1][0], m[1][1]), (-m[0][0], -m[0][1]))
    return ((s_m[1][1], s_m[1][0]), (s_m[0][1], s_m[0][0]))


def split_gram(split, h):
    """The full 2n x 2n symmetrized Gram of the 2x2 images of h."""
    n = h.rank
    big = [[None] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        for l in range(n):
            block = _sym_gram(split.image(h.gram[k][l]))
            for r in range(2):
                for c in range(2):
                    big[2 * k + r][2 * l + c] = block[r][c]
    return big


def split_basis_change(split, p):
    """The 2n x 2n matrix M with split_gram(h.transform(p)) equal to
    M^t * split_gram(h) * M: the 2x2 images of p's entries with both
    coordinates swapped, as _sym_gram swaps them.  It holds because
    S * adj(m) = m^t * S for S = [[0,1],[-1,0]], and the image of conj(u)
    is adj of the image of u."""
    n = len(p)
    big = [[None] * (2 * n) for _ in range(2 * n)]
    for k in range(n):
        for l in range(n):
            block = split.image(p[k][l])
            for r in range(2):
                for c in range(2):
                    big[2 * k + r][2 * l + c] = block[1 - r][1 - c]
    return big


def general_reduction(h):
    """The quadratic form of any (not necessarily diagonal) form h: the
    full 2n x 2n symmetrized Gram of the 2x2 images, congruence-
    diagonalized over the conic function field.  On a diagonal form this
    reproduces morita_reduce entry for entry."""
    split = SplittingData(h.algebra)
    q, _p = diagonalize(split.field, split_gram(split, h))
    return q


# ---------------------------------------------------------------------------
# Q on Fraction payloads, and Q(s) by the generic polynomial path


class FractionRationals:
    """The raw-value protocol of Q on fractions.Fraction payloads, as far
    as the generic poly_* helpers use it: an oracle for the integer-pair
    Rationals that shares none of its arithmetic."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def q_fraction(payload):
    """The Fraction of a Rationals payload, which must be canonical: a
    pair of ints (n, d) with d > 0 and gcd(n, d) = 1."""
    assert type(payload) is tuple and len(payload) == 2, payload
    n, d = payload
    assert type(n) is int and type(d) is int, payload
    assert d > 0 and math.gcd(n, d) == 1, payload
    return Fraction(n, d)


def q_payloads(fracs):
    """A tuple of Fractions as a tuple of Rationals payloads."""
    return tuple((fr.numerator, fr.denominator) for fr in map(Fraction, fracs))


def q_fraction_form(pair):
    """A num_den pair of Rationals payload tuples as Fraction tuples."""
    return tuple(tuple(map(q_fraction, part)) for part in pair)


def euclid_make(num, den):
    """FunctionField.make over Q by the generic poly_* helpers over
    FractionRationals: Euclid's gcd on Fraction coefficients, in the
    monic Fraction form (num, den).  A reference for the integer kernel,
    whose num_den, as q_fraction_form gives it, must be the same pair."""
    from quatwitt.errors import DivisionByZero
    from quatwitt.fields import poly_deg, poly_divmod, poly_gcd, poly_scale, poly_trim

    Q = FractionRationals()
    num, den = poly_trim(Q, num), poly_trim(Q, den)
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return ((), (Q.one(),))
    if poly_deg(num) > 0 and poly_deg(den) > 0:
        g = poly_gcd(Q, num, den)
        num, den = poly_divmod(Q, num, g)[0], poly_divmod(Q, den, g)[0]
    ilc = Q.inv(den[-1])
    return poly_scale(Q, num, ilc), poly_scale(Q, den, ilc)


def to_str_by_num_den(field, payload):
    """An element of a FunctionField over Rationals printed from its
    num_den pair, as Fraction coefficient tuples, through poly_to_str over
    FractionRationals: the printing rule the integer renderer must
    reproduce byte for byte."""
    Q = FractionRationals()
    num, den = q_fraction_form(field.num_den(payload))
    ns = poly_to_str(Q, num, field.var)
    if den == (Q.one(),):
        return ns
    return f"({ns})/({poly_to_str(Q, den, field.var)})"


# A string printer: terms joined by their signs, each coefficient
# parenthesised by a scan of its text.  The library's one-pass printer,
# which reads shapes instead of text, must match it byte for byte.


def _join_terms(terms):
    out = terms[0]
    for s in terms[1:]:
        if s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


_SAFE_CHARS = frozenset("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_/^")


def _factor_safe(s: str) -> bool:
    body = s[1:] if s.startswith("-") else s
    return bool(body) and _SAFE_CHARS.issuperset(body)


def _term_safe(s: str) -> bool:
    body = s[1:] if s.startswith("-") else s
    return bool(body) and "+" not in body and "-" not in body


def poly_to_str(base, cs, var: str) -> str:
    return _poly_to_str(base, cs, var, base.to_str)


def _poly_to_str(base, cs, var: str, coeff_str) -> str:
    """poly_to_str printing each nonzero coefficient by coeff_str."""
    if not cs:
        return "0"
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if base.is_zero(c):
            continue
        cstr = coeff_str(c)
        if k == 0:
            terms.append(cstr if _term_safe(cstr) else "(" + cstr + ")")
            continue
        vp = var if k == 1 else f"{var}^{k}"
        if cstr == "1":
            terms.append(vp)
        elif cstr == "-1":
            terms.append("-" + vp)
        elif _factor_safe(cstr):
            terms.append(cstr + "*" + vp)
        else:
            terms.append("(" + cstr + ")*" + vp)
    return _join_terms(terms)


def str_by_reference(field, payload):
    """A payload of any tower level printed by the string printer above,
    each coefficient and each part written out anew, down to str of a
    Fraction over Q: a reference for the one-pass printer at every
    level."""
    if isinstance(field, Rationals):
        return str(q_fraction(payload))
    if isinstance(field, FiniteField):
        return str(payload % field.p)
    if isinstance(field, ConicExtension):
        # A + B*y: the y-term, then A as a term
        inner = field.inner
        A, B = payload
        if inner.is_zero(B):
            return str_by_reference(inner, A)
        bs = str_by_reference(inner, B)
        if bs == "1":
            ypart = "y"
        elif bs == "-1":
            ypart = "-y"
        elif _factor_safe(bs):
            ypart = bs + "*y"
        else:
            ypart = "(" + bs + ")*y"
        if inner.is_zero(A):
            return ypart
        astr = str_by_reference(inner, A)
        aterm = astr if _term_safe(astr) else "(" + astr + ")"
        return _join_terms([ypart, aterm])
    if isinstance(field.base, Rationals):
        return to_str_by_num_den(field, payload)
    num, den = payload

    def coeff_str(c):
        return str_by_reference(field.base, c)

    ns = _poly_to_str(field.base, num, field.var, coeff_str)
    if den == (field.base.one(),):
        return ns
    return f"({ns})/({_poly_to_str(field.base, den, field.var, coeff_str)})"


@st.composite
def tower_payloads(draw, field, size=3):
    """Canonical payloads of Q, F_p or a tower of function fields over
    them, built from coefficient lists by the field's own make: zero, 1
    and -1 coefficients and negative leads; over a function field the
    monic denominator makes the coefficients share denominators."""
    if isinstance(field, Rationals):
        fr = draw(st.one_of(st.sampled_from((0, 1, -1)), fractions(9, 4)))
        return field.from_fraction(Fraction(fr))
    if isinstance(field, FiniteField):
        return draw(st.sampled_from((0, 1, field.p - 1)) | st.integers(0, field.p - 1))
    base = field.base
    coeffs = tower_payloads(base, 2 if isinstance(base, FunctionField) else size)
    num = draw(st.lists(coeffs, max_size=size))
    den = draw(st.lists(coeffs, max_size=size - 1))
    lead = draw(coeffs.filter(lambda c: not base.is_zero(c)))
    return field.make(tuple(num), tuple(den) + (lead,))


def euclid_op(op, a, b=None):
    """The monic Fraction form of a Q(s) add, sub, mul, div or inv of
    operands in that form, through euclid_make."""
    from quatwitt.fields import poly_add, poly_mul, poly_neg

    Q = FractionRationals()
    if op == "inv":
        return euclid_make(a[1], a[0])
    if op == "sub":
        op, b = "add", (poly_neg(Q, b[0]), b[1])
    if op == "div":
        op, b = "mul", euclid_make(b[1], b[0])
    if op == "add":
        return euclid_make(
            poly_add(Q, poly_mul(Q, a[0], b[1]), poly_mul(Q, b[0], a[1])),
            poly_mul(Q, a[1], b[1]),
        )
    return euclid_make(poly_mul(Q, a[0], b[0]), poly_mul(Q, a[1], b[1]))


def wrong_gcd_outcomes(setattr_):
    """With the Q(s) kernel's gcd replaced, through setattr_(owner, name,
    value), by one that returns s + 1 whatever its inputs: the error
    raised by a quotient, whose gcd runs in mul, and by a sum over
    different denominators, whose gcd runs in add, and the run_instance
    record of a division battery instance.  The exact division after
    each wrong gcd must fail."""
    from quatwitt import batteries, fields, scenarios
    from quatwitt.errors import QuatwittError

    K = fields.FunctionField(Rationals(), "s")
    s = K.gen()
    num, den = s**2 + 2, s**2 + 3
    sc = batteries.conic_scenario(3, "-1", 1)
    inst = scenarios.generate_instance(sc, 0)
    setattr_(scenarios, "generate_instance", lambda _sc, _index: inst)
    setattr_(fields, "_z_gcd", lambda f, g: [1, 1])
    raised = {}
    for op, run in (("mul", lambda: num / den), ("add", lambda: 1 / num + 1 / den)):
        try:
            run()
            raised[op] = None
        except QuatwittError as e:
            raised[op] = [type(e).__name__, str(e)]
    return raised, scenarios.run_instance(sc, 0)


# ---------------------------------------------------------------------------
# valuations coefficient by coefficient


def value_by_wrapping(v, a):
    """v(a) taken the way the valuations took it before they valued raw
    payloads: every coefficient is wrapped in a FieldElement of its level,
    checked against that level, and valued there.  A reference for the
    payload path, which must give the same value."""
    from quatwitt.valuations import (
        ConicValuation,
        GaussValuation,
        PAdicValuation,
        TransportedConicValuation,
    )

    assert a.field == v.domain, "reference valued an element of another level"
    if isinstance(v, PAdicValuation):
        fr = Fraction(*a.value)
        if fr == 0:
            return INF

        def vp(n):
            out = 0
            while n % v.p == 0:
                n, out = n // v.p, out + 1
            return out

        return vp(fr.numerator) - vp(fr.denominator)
    if isinstance(v, GaussValuation):
        num, den = v.domain.num_den(a.value)
        if not num:
            return INF
        base = v.domain.base

        def poly_value(coeffs):
            return min((value_by_wrapping(v.inner, base.el(c)) for c in coeffs), default=INF)

        return poly_value(num) - poly_value(den)
    if isinstance(v, ConicValuation):
        A, B = (v.domain.inner.el(c) for c in a.value)
        return min(value_by_wrapping(v.inner, A), value_by_wrapping(v.inner, B))
    if isinstance(v, TransportedConicValuation):
        return value_by_wrapping(v.target, v.target.domain.el(v._push(a.value)))
    raise TypeError(f"no reference for {v!r}")


# ---------------------------------------------------------------------------
# the certificate, the point reduction and the second residue form on
# wrapped elements: references for their payload paths


def point_algebras(p):
    """(algebra, point) over Q drawn as the point generator draws them
    for the p-adic valuation: d a nonzero unit integer in [-9, 9], x0 and
    y0 != 0 fractions num/den with |num| <= 9 and 1 <= den <= 5 prime to
    p, and t = (1 - d*x0^2)/y0^2, which must be a nonzero unit."""
    from quatwitt.quaternions import QuaternionAlgebra
    from quatwitt.valuations import PAdicValuation

    Q = Rationals()
    v = PAdicValuation(p)
    den = st.integers(1, 5).filter(lambda n: n % p)

    def build(d, x0, y0):
        t = (1 - d * x0 * x0) / (y0 * y0)
        if t == 0 or value_by_wrapping(v, Q(t)) != 0:
            return None
        return QuaternionAlgebra(Q, d, t), (Q(x0), Q(y0))

    return st.builds(
        build,
        st.integers(-9, 9).filter(lambda d: d % p),
        st.builds(Fraction, st.integers(-9, 9), den),
        st.builds(Fraction, st.integers(-9, 9).filter(bool), den),
    ).filter(lambda drawn: drawn is not None)


def point_instance_by_field_ops(sc, index):
    """scenarios.generate_instance for a point-generator scenario, with
    the point draw and the entry loop as they ran before they drew ints:
    d, t, the point test and each coordinate's unit test go through the
    Rationals protocol and PAdicValuation._value.  A reference for the
    integer draws, which must give the same instance."""
    from math import gcd

    from quatwitt import scenarios
    from quatwitt.quaternions import QuaternionAlgebra, _wrap

    field = scenarios.scenario_field(sc)
    v = scenarios.scenario_valuation(sc, field)
    bound = scenarios._COORD_BOUND
    mul, sub, iz = field.mul, field.sub, field.is_zero

    def small_fraction(rng, nonzero):
        for _ in range(40):
            num = rng.randint(-bound, bound)
            den = rng.randint(1, 5)
            if den % v.p == 0:
                continue
            if nonzero and num == 0:
                continue
            g = gcd(num, den)
            return num // g, den // g
        return field.one()

    def draw(rng):
        d = field.from_int(rng.randint(-bound, bound))
        if iz(d) or v._value(d) != 0:
            return None
        x0 = small_fraction(rng, False)
        y0 = small_fraction(rng, True)
        t = field.div(sub(field.one(), mul(mul(d, x0), x0)), mul(y0, y0))
        if iz(t) or v._value(t) != 0:
            return None
        alg = QuaternionAlgebra(field, field.el(d), field.el(t))
        return alg, (field.el(x0), field.el(y0))

    def draw_coords(rng):
        while True:
            a, b, c = (rng.randint(-bound, bound) for _ in range(3))
            if a == 0 and b == 0 and c == 0:
                continue
            coords = [field.from_int(x) for x in (a, b, c)]
            if min(v._value(x) for x in coords if not iz(x)) == 0:
                return coords

    def candidate(rng, alg, point):
        a, b, c = draw_coords(rng)
        if iz(sub(sub(mul(a, point[1].value), mul(b, point[0].value)), c)):
            return None
        return _wrap(alg, field.zero(), a, b, c)

    return _instance_by_elements(sc, index, "point", field, v, draw, candidate)


def conic_instance_by_field_ops(sc, index):
    """scenarios.generate_instance for a conic-generator scenario, on
    elements, as it ran before it decided attempts on payloads: each
    coordinate is a FieldElement product with its spice and valued by
    `v.value`, every candidate is wrapped for its reduced norm, and the
    attempt's value test is extvals + common_integral_value on the
    wrapped entries.  A reference for the unit-norm hook, which must give
    the same instance."""
    from quatwitt import scenarios
    from quatwitt.quaternions import QuaternionAlgebra, ramification

    field = scenarios.scenario_field(sc)
    v = scenarios.scenario_valuation(sc, field)
    bound = scenarios._COORD_BOUND
    s = field.gen()
    one = field(1)
    spices = (one, one, one, s, s + 1)
    pinned = sc.get("algebra")
    if pinned is not None:
        pinned = scenarios.build_algebra(pinned, field)

    def draw(rng):
        if pinned is not None:
            return pinned, None
        d = field(rng.choice((-1, 2, -2, 3, -3, 5, -5)))
        if v.value(d) != 0:
            return None
        t = s * rng.choice((1, 1, 1, 2)) + rng.randint(-4, 4)
        if v.value(t) != 0:
            return None
        alg = QuaternionAlgebra(field, d, t)
        report = ramification(alg, v)
        return None if report.ramified or report.split_over_residue else (alg, None)

    def candidate(rng, alg, _point):
        while True:
            a, b, c = (rng.randint(-bound, bound) for _ in range(3))
            if a == 0 and b == 0 and c == 0:
                continue
            coords = [field(x) * rng.choice(spices) for x in (a, b, c)]
            if min(v.value(x) for x in coords if not x.is_zero()) == 0:
                return alg.el(0, *coords)

    return _instance_by_elements(sc, index, "conic", field, v, draw, candidate)


def _instance_by_elements(sc, index, mode, field, v, draw, candidate):
    """The attempt loop both field-op references share, on wrapped
    entries: `draw(rng)` proposes (algebra, point) or None, and
    `candidate(rng, algebra, point)` draws one wrapped entry or None; an
    attempt keeps its entries when their extended values share one
    integral value below 1."""
    import random

    from quatwitt import scenarios
    from quatwitt.hermitian import SkewHermitianForm, common_integral_value, good_reduction_certificate
    from quatwitt.quaternions import extvals

    def draw_entries(rng, alg, point, n):
        entries = []
        for _l in range(n):
            for _draw in range(60):
                u = candidate(rng, alg, point)
                if u is None or u.nrd().is_zero():
                    continue
                entries.append(u)
                break
            else:
                return None
        return entries

    rng = random.Random(f"{sc.get('seed', 0)}:{index}")
    for _attempt in range(scenarios._MAX_ATTEMPTS):
        drawn = draw(rng)
        if drawn is None:
            continue
        alg, point = drawn
        n = sc.get("rank") or rng.randint(1, 3)
        entries = draw_entries(rng, alg, point, n)
        if entries is None:
            continue
        m = rng.choice((-1, 0, 1))
        e = common_integral_value(extvals(v, entries))
        if e is None or e >= 1:
            continue
        h = SkewHermitianForm.diagonal(alg, [u * v.uniformizer**m for u in entries])
        if not good_reduction_certificate(h, v).certified:
            continue
        meta = {"index": index, "mode": mode, "twist": m}
        return scenarios.Instance(field, v, alg, h, point, meta)
    return None


def pure_entries_up_to(alg, pi, coeffs, top=3):
    """Pure quaternions with coordinates drawn from `coeffs` and all three
    multiplied by pi^k for one k in 0..top, so entry values spread over
    0..2*top."""
    return st.builds(
        lambda k, a, b, c: alg.el(0, a * pi**k, b * pi**k, c * pi**k),
        st.integers(0, top),
        coeffs,
        coeffs,
        coeffs,
    ).filter(lambda u: not u.is_zero() and not nrd_formula(u).is_zero())


def extval_by_elements(v, u):
    """(1/2) v(nrd(u)) from nrd_formula and value_by_wrapping."""
    n = nrd_formula(u)
    return INF if n.is_zero() else Fraction(value_by_wrapping(v, n), 2)


def certificate_by_elements(h, v):
    """good_reduction_certificate on wrapped elements: each extended value
    is a new Fraction of value_by_wrapping(nrd_formula(u)), the scaled
    entries are built coordinate by coordinate with FieldElement products,
    and every coordinate is valued by value_by_wrapping.  A reference for
    the certificate's payload path."""
    from quatwitt import faults
    from quatwitt.hermitian import (
        CERTIFIED,
        NO_CERTIFICATE,
        GoodReductionCertificate,
        diagonalize_h,
    )
    from quatwitt.quaternions import QuaternionElement, ramification

    report = ramification(h.algebra, v)
    entries, _p = diagonalize_h(h)
    evals = tuple(extval_by_elements(v, u) for u in entries)
    e = evals[0]
    if e is not INF and e.denominator == 1 and all(x == e for x in evals):
        m = -e.numerator
        if faults.is_active(faults.DROP_UNIT_REP):
            scaled = entries
        else:
            lam = v.uniformizer**m
            scaled = tuple(
                QuaternionElement(u.algebra, [c * lam for c in u.coeffs]) for u in entries
            )
        if all(extval_by_elements(v, u) == 0 for u in scaled) and all(
            value_by_wrapping(v, c) >= 0 for u in scaled for c in u.coeffs
        ):
            mins = tuple(
                min(value_by_wrapping(v, c) for c in u.coeffs if not c.is_zero())
                for u in scaled
            )
            return GoodReductionCertificate(CERTIFIED, m, evals, entries, scaled, report, mins)
    return GoodReductionCertificate(NO_CERTIFICATE, None, evals, entries, None, report, None)


def split_reduction_by_elements(alg, entries, point):
    """The entries <e, N/e> of each diagonal entry at a conic point, with
    e = field(a)*y - field(b)*x - field(c) and N/e taken by FieldElement
    arithmetic."""
    field = alg.base
    x, y = field(point[0]), field(point[1])
    out = []
    for u in entries:
        _w, a, b, c = u.coeffs
        e = field(a) * y - field(b) * x - field(c)
        out += [e, field(nrd_formula(u)) / e]
    return out


def padic_second_residue_by_fractions(v, entries):
    """The second residue form's entries at a p-adic valuation: an entry
    of odd value m reduces to the residue of u / p^m, computed on
    Fractions."""
    p = v.p
    out = []
    for u in entries:
        m = value_by_wrapping(v, u)
        if m % 2:
            w = Fraction(*u.value) / Fraction(p) ** m
            out.append(v.residue_field(w.numerator * pow(w.denominator, -1, p)))
    return out


# ---------------------------------------------------------------------------
# one python -O interpreter for the checks that must hold without asserts

_ROOT = Path(__file__).resolve().parents[1]
_OPTIMIZED = {}


def optimized(test_file, *names):
    """Register the tests `names` of `test_file` for the shared python -O
    session and return their node ids.  Test modules register at import,
    so every id of a run is known when its first test asks for the
    session's outcomes."""
    rel = Path(test_file).resolve().relative_to(_ROOT).as_posix()
    ids = [f"{rel}::{name}" for name in names]
    _OPTIMIZED.update(dict.fromkeys(ids))
    return ids


class _Outcomes:
    """A pytest plugin keeping each test's outcome: "passed", "skipped",
    or the phase and text of its failure."""

    def __init__(self):
        self.seen = {}

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.seen[report.nodeid] = f"{report.when} failed: {report.longreprtext[-3000:]}"
        elif report.when == "call" or report.skipped:
            self.seen.setdefault(report.nodeid, report.outcome)


def run_optimized():
    """Run every registered test in one python -O interpreter; returns
    {node id: outcome}.  Tests rerun there check that a check which must
    fire does so without assert statements; pytest still rewrites the
    asserts of the test modules themselves."""
    import quatwitt

    src = Path(quatwitt.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(_ROOT / "tests")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outcomes.json"
        code = (
            "import json, sys, pytest, support\n"
            "if not sys.flags.optimize: sys.exit('not optimized')\n"
            "seen = support._Outcomes()\n"
            f"pytest.main(['-q', '-p', 'no:cacheprovider', *{list(_OPTIMIZED)!r}], plugins=[seen])\n"
            f"open({str(out)!r}, 'w').write(json.dumps(seen.seen))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=_ROOT,
            timeout=600,
        )
        # support is not a test module, so an assert here would vanish
        # under python -O
        if proc.returncode or not out.exists():
            raise RuntimeError(proc.stdout[-3000:] + proc.stderr[-3000:])
        return json.loads(out.read_text())
