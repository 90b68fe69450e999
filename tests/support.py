"""Shared strategies and small builders for the test suite."""

import math
from fractions import Fraction

from hypothesis import strategies as st

from quatwitt.errors import AlgebraMismatch, CertificateFailed
from quatwitt.fields import (
    ConicExtension,
    FiniteField,
    FunctionField,
    Rationals,
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
    the congruence re-check in diagonalize_h."""
    from quatwitt import hermitian, scenarios

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
    product = hermitian.mat_mul

    def corrupted(m1, m2):
        out = product(m1, m2)
        out[0][0] = out[0][0] + alg.i()
        return out

    setattr_(scenarios, "generate_instance", lambda _sc, _index: inst._replace(form=moved))
    setattr_(hermitian, "mat_mul", corrupted)
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
    entries = _pair_split(base, q.entries)
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
    from quatwitt.quaternions import extval, ramification

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
        return GoodReductionCertificate(CERTIFIED, m, evals, entries, scaled, report)
    return GoodReductionCertificate(NO_CERTIFICATE, None, evals, entries, None, report)


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
    from quatwitt.fields import poly_to_str

    Q = FractionRationals()
    num, den = q_fraction_form(field.num_den(payload))
    ns = poly_to_str(Q, num, field.var)
    if den == (Q.one(),):
        return ns
    return f"({ns})/({poly_to_str(Q, den, field.var)})"


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
        A, B = v.domain.pair(a.value)
        return min(value_by_wrapping(v.inner, A), value_by_wrapping(v.inner, B))
    if isinstance(v, TransportedConicValuation):
        return value_by_wrapping(v.target, v.target.domain.el(v._push(a.value)))
    raise TypeError(f"no reference for {v!r}")
