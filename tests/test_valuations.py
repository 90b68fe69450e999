"""Discrete valuations on the field tower and their residue maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import support
from quatwitt.errors import (
    EvenResidueChar,
    LevelMismatch,
    NegativeValue,
    RamifiedParameters,
)
from quatwitt.fields import ConicExtension, FunctionField, Rationals
from quatwitt.quaternions import QuaternionAlgebra, ramification
from quatwitt.morita import extend_valuation
from quatwitt.valuations import (
    INF,
    ConicValuation,
    GaussValuation,
    PAdicValuation,
    TransportedConicValuation,
)


# ---------------------------------------------------------------------------
# p-adic valuations on the rationals


def test_padic_frozen_values(Q, v3):
    assert v3.value(Q(18)) == 2
    assert v3.value(Q(Fraction(1, 3))) == -1
    assert v3.value(Q(Fraction(5, 7))) == 0
    assert v3.value(Q(0)) == INF
    assert v3.uniformizer == Q(3)
    assert support.is_unit(v3, Q(2)) and not support.is_unit(v3, Q(3))


def test_padic_residue(Q, v3):
    r = v3.residue(Q(Fraction(2, 5)))
    assert r.value == 1
    assert v3.residue(Q(9)).value == 0
    with pytest.raises(NegativeValue):
        v3.residue(Q(Fraction(1, 3)))


def test_padic_rejects_char_two():
    with pytest.raises(EvenResidueChar):
        PAdicValuation(2)


def test_padic_identity(v3, v5):
    assert v3 == PAdicValuation(3)
    assert v3 != v5
    assert len({v3, PAdicValuation(3), v5}) == 2
    assert v3.descriptor() == {"kind": "padic", "p": 3}


@given(support.nonzero_fractions(), support.nonzero_fractions())
def test_padic_is_multiplicative(a, b):
    Q = Rationals()
    v = PAdicValuation(5)
    assert v.value(Q(a * b)) == v.value(Q(a)) + v.value(Q(b))


@given(support.fractions(), support.fractions())
def test_padic_ultrametric(a, b):
    Q = Rationals()
    v = PAdicValuation(5)
    lhs = v.value(Q(a + b))
    assert lhs >= min(v.value(Q(a)), v.value(Q(b)))


@given(support.nonzero_fractions(), support.nonzero_fractions())
def test_padic_residue_is_multiplicative_on_units(a, b):
    Q = Rationals()
    v = PAdicValuation(7)
    assume(v.value(Q(a)) == 0 and v.value(Q(b)) == 0)
    lhs = v.residue(Q(a) * Q(b))
    rhs = v.residue(Q(a)) * v.residue(Q(b))
    assert (lhs - rhs).is_zero()


def _padic(p):
    # F_2 is outside scope, so p = 2 skips the constructor; `_value`
    # reads only p
    if p == 2:
        v = object.__new__(PAdicValuation)
        v.p = 2
        return v
    return PAdicValuation(p)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101])
@given(
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 10**6),
    st.integers(-5, 5),
)
@example(1, 1, 3)
@example(-1, 1, -2)
@example(1, 1, 0)
def test_padic_payload_value_matches_sympy_multiplicity(p, n, d, k):
    """_value of the reduced payload of (n/d)*p^k, negatives and exact
    powers of p among them, is the exponent of p in its numerator less
    that in its denominator; the unit test must read both."""
    sympy = pytest.importorskip("sympy")
    x = Fraction(n, d) * Fraction(p) ** k
    want = sympy.multiplicity(p, x.numerator) - sympy.multiplicity(p, x.denominator)
    assert _padic(p)._value((x.numerator, x.denominator)) == want


# ---------------------------------------------------------------------------
# Gauss valuations on rational function fields


def test_gauss_frozen_values(K, g3):
    s = K.gen()
    assert g3.value(s) == 0
    assert g3.value(3 * s**2 + 9) == 1
    assert g3.value(K(0)) == INF
    assert g3.value((s + 3) / 3) == -1
    assert g3.value(s / (s + 1)) == 0
    assert g3.uniformizer == K(3)


def test_gauss_residue_frozen(K, g3):
    s = K.gen()
    r = g3.residue(s + 3)
    assert repr(r) == "s"
    assert r.field == g3.residue_field
    assert repr(g3.residue((s + 1) / (s + 2))) == "(s + 1)/(s + 2)"
    assert g3.residue(3 * s).is_zero()
    with pytest.raises(NegativeValue):
        g3.residue(s / 3)


def test_gauss_extends_the_inner_valuation(Q, K, v3, g3):
    for f in (Fraction(18), Fraction(1, 3), Fraction(5, 7)):
        assert g3.value(K(f)) == v3.value(Q(f))


def test_gauss_identity(K, v3, g3):
    assert g3 == GaussValuation(v3, K)
    assert g3 != GaussValuation(PAdicValuation(5), K)
    assert g3.descriptor() == {
        "kind": "gauss",
        "inner": {"kind": "padic", "p": 3},
    }


@given(
    support.nonzero_rational_functions(FunctionField(Rationals(), "s")),
    support.nonzero_rational_functions(FunctionField(Rationals(), "s")),
)
def test_gauss_is_multiplicative(f, g):
    K = FunctionField(Rationals(), "s")
    v = GaussValuation(PAdicValuation(3), K)
    assert v.value(f * g) == v.value(f) + v.value(g)


@given(
    support.rational_functions(FunctionField(Rationals(), "s")),
    support.rational_functions(FunctionField(Rationals(), "s")),
)
def test_gauss_ultrametric(f, g):
    K = FunctionField(Rationals(), "s")
    v = GaussValuation(PAdicValuation(3), K)
    assert v.value(f + g) >= min(v.value(f), v.value(g))


@given(
    support.nonzero_rational_functions(FunctionField(Rationals(), "s")),
    support.nonzero_rational_functions(FunctionField(Rationals(), "s")),
)
def test_gauss_residue_respects_products_of_units(f, g):
    K = FunctionField(Rationals(), "s")
    v = GaussValuation(PAdicValuation(3), K)

    def unit_of(h):
        m = int(v.value(h))
        return h / K(3) ** m if m >= 0 else h * K(3) ** (-m)

    f, g = unit_of(f), unit_of(g)
    lhs = v.residue(f * g)
    rhs = v.residue(f) * v.residue(g)
    assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# valuations on conic extensions


@pytest.fixture(scope="module")
def conic_setup():
    Q = Rationals()
    K = FunctionField(Q, "s")
    g3 = GaussValuation(PAdicValuation(3), K)
    C = ConicExtension(K, K(-1).value, K.gen().value)
    inner = GaussValuation(g3, C.inner)
    vt = ConicValuation(inner, C)
    return K, C, vt


def test_conic_valuation_of_generators(conic_setup):
    K, C, vt = conic_setup
    assert vt.value(C.y_gen()) == 0
    assert vt.value(C.x_gen()) == 0
    assert vt.value(C(3)) == 1
    assert vt.value(C(0)) == INF


def test_conic_valuation_linear_combination(conic_setup):
    K, C, vt = conic_setup
    x, y = C.x_gen(), C.y_gen()
    assert vt.value(3 * y + x + 6) == 0
    assert vt.value(3 * y + 3 * x + 9) == 1
    assert vt.value(y / 3) == -1


def test_conic_valuation_unit_coefficient_criterion(conic_setup):
    K, C, vt = conic_setup
    x, y = C.x_gen(), C.y_gen()
    # v(a1*y + a2*x + a3) = 0 exactly when min v(a_i) = 0
    samples = [
        ((1, 0, 0), 0),
        ((3, 1, 6), 0),
        ((3, 6, 9), 1),
        ((9, 0, 3), 1),
        ((Fraction(1, 3), 1, 1), -1),
    ]
    for (a1, a2, a3), expect in samples:
        el = y * K(a1) + x * K(a2) + C(K(a3))
        assert vt.value(el) == expect


def test_conic_residue_frozen(conic_setup):
    K, C, vt = conic_setup
    x, y = C.x_gen(), C.y_gen()
    assert repr(vt.residue(y)) == "y"
    assert repr(vt.residue(3 * y + x + 6)) == "x"
    assert vt.residue(3 * y + 3 * x + 9).is_zero()
    rf = vt.residue_field
    assert isinstance(rf, ConicExtension)
    assert rf.base.characteristic == 3
    with pytest.raises(NegativeValue):
        vt.residue(y / 3)


def test_conic_valuation_rejects_nonunit_parameters(K, g3):
    C_bad = ConicExtension(K, K(3).value, K.gen().value)
    inner = GaussValuation(g3, C_bad.inner)
    with pytest.raises(RamifiedParameters):
        ConicValuation(inner, C_bad)


def test_conic_half_norm_matches_pair_minimum(conic_setup):
    K, C, vt = conic_setup
    s = K.gen()
    samples = [
        (C.inner(2), C.inner(5)),
        (C.inner.gen() + 3, C.inner(1)),
        (C.inner.gen() ** 2 - C.inner(s), C.inner.gen() * 3),
        (C.inner(Fraction(1, 3)), C.inner(s) / 9),
    ]
    for A, B in samples:
        el = C.from_inner(A.value) + C.from_inner(B.value) * C.y_gen()
        assert vt.value(el) == support.half_norm_value(vt, el)


def _split_residue_configurations():
    Q = Rationals()
    K = FunctionField(Q, "s")
    v3, v5 = PAdicValuation(3), PAdicValuation(5)
    g3 = GaussValuation(v3, K)
    s = K.gen()
    return [
        ("(2,1) 3-adic", v3, QuaternionAlgebra(Q, 2, 1)),
        ("(2,3) 5-adic", v5, QuaternionAlgebra(Q, 2, 3)),
        ("(18,5) 3-adic", v3, QuaternionAlgebra(Q, 18, 5)),
        ("(1,s) Gauss 3-adic", g3, QuaternionAlgebra(K, K(1), s)),
        ("(s^2+1,s) Gauss 3-adic", g3, QuaternionAlgebra(K, s**2 + 1, s)),
    ]


@pytest.mark.parametrize(
    "label, v, alg",
    [pytest.param(*case, id=case[0]) for case in _split_residue_configurations()],
)
def test_conic_value_matches_half_norm_with_split_residue(label, v, alg):
    """Where the residue algebra splits, the pair minimum still equals the
    half-norm value, and the residue map is multiplicative on units."""
    assert ramification(alg, v).split_over_residue is True
    vt = extend_valuation(v, alg)
    if isinstance(vt, TransportedConicValuation):
        # the oracle reads the unit model the element is pushed into
        unit_val = vt.target

        def to_unit(a):
            return unit_val.domain.el(vt._push(a.value))

    else:
        unit_val, to_unit = vt, lambda a: a
    C = vt.domain
    base = alg.base
    p = v.uniformizer
    rng = random.Random(sum(map(ord, label)))

    def draw_coeff():
        c = base(rng.randint(-9, 9)) * p ** rng.randint(-1, 2)
        if isinstance(base, FunctionField) and rng.random() < 0.5:
            c = c * base.gen() + rng.randint(-3, 3)
        return c

    def draw_poly():
        x = C.x_gen()
        return sum((C(draw_coeff()) * x**k for k in range(rng.randint(1, 3))), C(0))

    units = []
    while len(units) < 60:
        xi = draw_poly() + draw_poly() * C.y_gen()
        if xi.is_zero():
            continue
        val = vt.value(xi)
        assert val == support.half_norm_value(unit_val, to_unit(xi)), (label, xi)
        u = xi * vt.uniformizer ** (-val)
        assert vt.value(u) == 0
        units.append(u)
    for u, w in zip(units, units[1:]):
        assert vt.residue(u * w) == vt.residue(u) * vt.residue(w), (label, u, w)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 2), st.integers(0, 2))
def test_conic_value_is_multiplicative(a1, b1, e1, e2):
    Q = Rationals()
    K = FunctionField(Q, "s")
    g3 = GaussValuation(PAdicValuation(3), K)
    C = ConicExtension(K, K(-1).value, K.gen().value)
    vt = ConicValuation(GaussValuation(g3, C.inner), C)
    assume(a1 != 0 or b1 != 0)
    x, y = C.x_gen(), C.y_gen()
    z = C(a1) * 3**e1 + y * b1 * x
    w = x + y * C(3**e2)
    assume(not z.is_zero())
    assert vt.value(z * w) == vt.value(z) + vt.value(w)


# ---------------------------------------------------------------------------
# transported valuations for even-value parameters


@pytest.fixture(scope="module")
def transported_setup():
    Q = Rationals()
    v3 = PAdicValuation(3)
    alg = QuaternionAlgebra(Q, Q(18), Q(5))
    vt = extend_valuation(v3, alg)
    return Q, alg, vt


def test_transported_frozen_values(transported_setup):
    Q, alg, vt = transported_setup
    assert isinstance(vt, TransportedConicValuation)
    C = vt.domain
    x, y = C.x_gen(), C.y_gen()
    assert vt.value(x) == -1
    assert vt.value(3 * x) == 0
    assert vt.value(y) == 0
    assert vt.value(C(0)) == INF
    assert vt.value(vt.uniformizer) == 1


def test_transported_residue_frozen(transported_setup):
    Q, alg, vt = transported_setup
    C = vt.domain
    x = C.x_gen()
    r = vt.residue(3 * x)
    assert repr(r) == "x"
    rf = vt.residue_field
    assert isinstance(rf, ConicExtension)
    assert rf.base.p == 3


def test_transported_value_is_multiplicative(transported_setup):
    Q, alg, vt = transported_setup
    C = vt.domain
    x, y = C.x_gen(), C.y_gen()
    els = [x, 3 * x, y, x * y + 1, C(3) * y + x]
    for z in els:
        for w in els:
            assert vt.value(z * w) == vt.value(z) + vt.value(w)


# ---------------------------------------------------------------------------
# values read from raw payloads


def _payload_cases():
    Q = Rationals()
    K = FunctionField(Q, "s")
    L = FunctionField(K, "u")
    v3 = PAdicValuation(3)
    g3 = GaussValuation(v3, K)
    conic = extend_valuation(g3, QuaternionAlgebra(K, K(-1), K.gen()))
    over_q = extend_valuation(v3, QuaternionAlgebra(Q, 18, 5))
    over_qs = extend_valuation(g3, QuaternionAlgebra(K, K(-9), K.gen()))
    qs_coeffs = support.rational_functions(K, max_deg=1)

    def conic_coords(C):
        return support.rational_functions(C.inner, max_deg=2, coeffs=qs_coeffs)

    return {
        "p-adic": (v3, support.fractions().map(Q)),
        "Gauss over Q(s)": (g3, support.rational_functions(K)),
        "Gauss over Gauss": (
            GaussValuation(g3, L),
            support.rational_functions(L, max_deg=2, coeffs=qs_coeffs),
        ),
        "conic": (conic, support.conic_elements(conic.domain, conic_coords(conic.domain))),
        "transported conic over Q": (over_q, support.conic_elements(over_q.domain)),
        "transported conic over Q(s)": (
            over_qs,
            support.conic_elements(over_qs.domain, conic_coords(over_qs.domain)),
        ),
    }


_PAYLOAD_CASES = _payload_cases()


@pytest.mark.parametrize("case", sorted(_PAYLOAD_CASES))
@given(data=st.data())
@settings(max_examples=40)
def test_payload_value_matches_coefficientwise_wrapping(case, data):
    v, elements = _PAYLOAD_CASES[case]
    a = data.draw(elements)
    assert v.value(a) == support.value_by_wrapping(v, a)
    zero = v.domain(0)
    assert v.value(zero) is INF
    assert support.value_by_wrapping(v, zero) is INF


def test_value_rejects_elements_of_another_level():
    cases = _PAYLOAD_CASES
    v3 = cases["p-adic"][0]
    g3 = cases["Gauss over Q(s)"][0]
    gg = cases["Gauss over Gauss"][0]
    Q, K = v3.domain, g3.domain
    wrong = [
        (v3, K.gen()),
        (g3, Q(3)),
        (gg, K.gen()),
        (cases["conic"][0], K.gen()),
        (cases["conic"][0], cases["transported conic over Q(s)"][0].domain.x_gen()),
        (cases["transported conic over Q"][0], Q(3)),
    ]
    for v, a in wrong:
        with pytest.raises(LevelMismatch):
            v.value(a)
    # a raw payload is not an element of any level
    with pytest.raises(LevelMismatch):
        g3.value(K.gen().value)


def test_valuing_an_element_of_the_domain_compares_no_fields(monkeypatch):
    """An element of the valuation's own domain object passes the level
    check by identity, with no FunctionField comparison by value."""
    g3 = _PAYLOAD_CASES["Gauss over Q(s)"][0]
    conic = _PAYLOAD_CASES["conic"][0]
    K, C = g3.domain, conic.domain
    elements = [(g3, K.parse("(3*s + 1)/(s^2 - 9)")), (conic, C.parse("(x + s*y)/(3*s)"))]
    calls = []
    eq = FunctionField.__eq__

    def counting_eq(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(FunctionField, "__eq__", counting_eq)
    for v, a in elements:
        v.value(a)
        v.residue(a * v.uniformizer ** -v.value(a))
    monkeypatch.undo()
    assert calls == []
