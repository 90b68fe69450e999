"""Exact arithmetic in the field tower: rationals, finite fields,
rational function fields, and conic extensions."""

import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from quatwitt import batteries
from quatwitt.errors import (
    CertificateFailed,
    DivisionByZero,
    EvenResidueChar,
    LevelMismatch,
    NotASquare,
    ParseError,
)
from quatwitt import fields
from quatwitt.fields import (
    MAX_EXPONENT,
    MAX_POWER_COST,
    MAX_PRIME,
    ConicExtension,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
    poly_deg,
    poly_distinct_degree_products,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_squarefree_parts,
    poly_trim,
    _Parser,
    _is_prime,
    _power_cost,
    _tokenize,
    _z_cancel,
    _z_gcd,
)


# ---------------------------------------------------------------------------
# rationals


def test_rational_arithmetic(Q):
    a = Q(Fraction(3, 4))
    b = Q(2)
    assert a + b == Fraction(11, 4)
    assert a * b == Fraction(3, 2)
    assert a / b == Fraction(3, 8)
    assert -a == Fraction(-3, 4)
    assert b - 1 == 1
    assert 1 - b == -1


def test_rational_division_by_zero(Q):
    with pytest.raises(DivisionByZero):
        Q(1) / Q(0)
    with pytest.raises(DivisionByZero):
        Q(0).inv()


def test_rational_square_root(Q):
    assert Q.el(Q.sqrt(Q(Fraction(9, 4)).value)) == Fraction(3, 2)
    assert Q.is_square(Q(Fraction(16, 25)).value)
    assert not Q.is_square(Q(2).value)
    assert not Q.is_square(Q(-1).value)
    with pytest.raises(NotASquare):
        Q.sqrt(Q(2).value)


def test_rational_parse(Q):
    assert Q.parse("3/4 - 1") == Fraction(-1, 4)
    assert Q.parse("(1 + 2)^2") == 9
    assert Q.parse("2^-2") == Fraction(1, 4)
    with pytest.raises(ParseError):
        Q.parse("3x+")
    with pytest.raises(ParseError):
        Q.parse("s")


def test_exponent_literals_are_capped(Q, K):
    assert Q.parse(f"1^{MAX_EXPONENT}") == 1
    assert Q.parse(f"1^-{MAX_EXPONENT}") == 1
    for text in (f"1^{MAX_EXPONENT + 1}", f"1^-{MAX_EXPONENT + 1}", f"s^{MAX_EXPONENT + 1}"):
        with pytest.raises(ParseError, match="exceeds"):
            K.parse(text)


def test_nested_powers_are_capped_by_their_cost(Q, K, monkeypatch):
    # the boundary (2^999)^1000 and one past it, ((2^990)^10)^101
    assert _power_cost(Q, Q.parse("2^999").value, 1000) == MAX_POWER_COST
    assert _power_cost(Q, Q.parse("(2^990)^10").value, 101) == MAX_POWER_COST + 1
    assert Q.parse("(2^999)^1000") == 2**999000
    built = []
    pow_ = FieldElement.__pow__

    def checked_pow(self, n):
        built.append(_power_cost(self.field, self.value, abs(n)))
        return pow_(self, n)

    monkeypatch.setattr(FieldElement, "__pow__", checked_pow)
    C = ConicExtension(K, -1, K.parse("s"))
    for field, text in (
        (Q, "((2^990)^10)^101"),
        (Q, "(((2^1000)^1000)^1000)^1000"),
        (K, "((s^1000)^1000)^1000"),
        (K, "((s^10)^10)^10"),
        (K, "((s + 1)^10)^-100"),
        (C, "(x + y)^1000"),
    ):
        with pytest.raises(ParseError, match=f"exceeds {MAX_POWER_COST}"):
            field.parse(text)
    # every power that ran was within the cap; the rejected ones never ran
    assert built and max(built) <= MAX_POWER_COST


_BIG = st.integers(-(2**64), 2**64)
_Q_VALUES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    support.fractions(),
    st.builds(Fraction, _BIG, st.integers(1, 2**64)),
)
# operand pairs with equal reduced denominators 2^k, with coprime ones
# 2^k and 3^j, and drawn independently
_Q_PAIRS = st.one_of(
    st.builds(
        lambda a, b, k: (Fraction(2 * a + 1, 2**k), Fraction(2 * b + 1, 2**k)),
        _BIG, _BIG, st.integers(0, 64),
    ),
    st.builds(
        lambda a, b, k, j: (Fraction(2 * a + 1, 2**k), Fraction(3 * b + 1, 3**j)),
        _BIG, _BIG, st.integers(0, 64), st.integers(0, 40),
    ),
    st.tuples(_Q_VALUES, _Q_VALUES),
)


@settings(max_examples=300)
@given(_Q_PAIRS)
# sums that cancel to zero, and one whose numerator shares the factor 2
# of gcd(6, 10)
@example((Fraction(1, 6), Fraction(-1, 6)))
@example((Fraction(-3, 4), Fraction(3, 4)))
@example((Fraction(1, 6), Fraction(1, 10)))
def test_q_kernel_matches_the_fraction_oracle(pair):
    """Rationals arithmetic on (n, d) payloads against fractions.Fraction;
    support.q_fraction also requires every result to be canonical."""
    Q = Rationals()
    x, y = pair
    a, b = (Q.from_fraction(v) for v in pair)
    out = support.q_fraction
    assert out(a) == x and Q.to_str(a) == str(x)
    assert out(Q.add(a, b)) == x + y
    assert out(Q.sub(a, b)) == x - y
    assert out(Q.mul(a, b)) == x * y
    assert out(Q.neg(a)) == -x
    assert Q.is_zero(a) == (x == 0)
    if y:
        assert out(Q.div(a, b)) == x / y
        assert out(Q.inv(b)) == 1 / y
    else:
        with pytest.raises(DivisionByZero):
            Q.div(a, b)
        with pytest.raises(DivisionByZero):
            Q.inv(b)
    assert out(Q.sqrt(Q.mul(a, a))) == abs(x)
    root = Fraction(math.isqrt(abs(x.numerator)), math.isqrt(x.denominator))
    if x >= 0 and root * root == x:
        assert out(Q.sqrt(a)) == root
    else:
        with pytest.raises(NotASquare):
            Q.sqrt(a)


def test_q_inverse_of_zero_raises():
    Q = Rationals()
    for op in (Q.inv, lambda z: Q.div(Q.one(), z)):
        with pytest.raises(DivisionByZero):
            op(Q.zero())


# the checks that must fire under python -O too, rerun in the shared
# python -O session
_OPTIMIZED = support.optimized(
    __file__,
    "test_q_inverse_of_zero_raises",
    "test_integer_kernel_wrong_gcd_is_a_failed_check",
)


def test_q_inverse_of_zero_raises_in_optimized_mode(optimized_outcomes):
    assert optimized_outcomes[_OPTIMIZED[0]] == "passed"


def test_q_arithmetic_builds_no_fraction(monkeypatch):
    """Q and Q(s) add, mul and inv run on ints; a Fraction is only
    built at the API boundary."""
    Q = Rationals()
    qs = [Q.from_fraction(Fraction(*nd)) for nd in ((0, 1), (1, 1), (3, 4), (-22, 7), (355, 113))]
    ks = [_QS.parse(t).value for t in _RENDER_EXAMPLES + ("(s^2 + 3*s - 1)/(2*s + 5)",)]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for field, payloads in ((Q, qs), (_QS, ks)):
        for a in payloads:
            for b in payloads:
                field.add(a, b)
                field.mul(a, b)
            if not field.is_zero(a):
                field.inv(a)
    monkeypatch.undo()
    assert built == []


def test_rationals_is_one_object_per_process():
    """Fields over Q, elements and valuations share one Rationals, so
    they find it by identity; pickling keeps that, so an element sent to
    another process (say, through a caller's own process pool) still
    finds it."""
    Q = Rationals()
    assert Rationals() is Q
    assert FunctionField(Rationals(), "s").base is Q
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(Q, protocol)) is Q
    assert pickle.loads(pickle.dumps(Q(3))).field is Q


# ---------------------------------------------------------------------------
# finite fields


def test_finite_field_inverses(F7):
    for a in range(1, 7):
        assert (F7(a) * F7(a).inv()).value == 1


def test_finite_field_squares(F7):
    squares = {pow(a, 2, 7) for a in range(1, 7)}
    assert squares == {1, 2, 4}
    for a in range(1, 7):
        assert F7.is_square(F7(a).value) == (a in squares)
    root = F7.sqrt(F7(2).value)
    assert (root * root) % 7 == 2
    with pytest.raises(NotASquare):
        F7.sqrt(F7(3).value)


def test_finite_field_rejects_even_characteristic():
    with pytest.raises(EvenResidueChar):
        FiniteField(2)


def test_finite_field_rejects_composites():
    with pytest.raises(ValueError):
        FiniteField(9)


# Carmichael numbers, and strong pseudoprimes to the bases 2, 3, 5, 7 and
# to the bases 2, ..., 23: each needs a base the one before lacks
_PSEUDOPRIMES = (561, 41041, 3215031751, 3825123056546413051)
# the least composite that passes Miller-Rabin to every base 2, ..., 37
_PSI_12 = 318665857834031151167461


def test_primality_matches_sympy_below_20000():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(20000) if _is_prime(n)] == list(sympy.primerange(20000))


@settings(max_examples=300)
@given(
    st.one_of(
        st.integers(0, MAX_PRIME),
        st.integers(1, 2**40).map(lambda n: n * n),
        st.tuples(st.integers(2, 10**11), st.integers(2, 10**11)).map(
            lambda ab: ab[0] * ab[1]
        ),
    )
)
@example(2**61 - 1)
@example(MAX_PRIME)
def test_primality_matches_sympy_up_to_the_cap(n):
    sympy = pytest.importorskip("sympy")
    assert _is_prime(n) == sympy.isprime(n)


@given(st.integers(1, MAX_PRIME))
def test_primes_up_to_the_cap_are_primes(n):
    sympy = pytest.importorskip("sympy")
    p = sympy.prevprime(n + 1) if n > 2 else 3
    assert _is_prime(p)


@pytest.mark.parametrize("n", _PSEUDOPRIMES)
def test_pseudoprimes_are_composite(n):
    sympy = pytest.importorskip("sympy")
    assert not sympy.isprime(n)
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="odd prime"):
        FiniteField(n)


def test_the_prime_cap_lies_below_the_first_composite_all_bases_pass():
    # above the cap the bases stop deciding, so a modulus there is refused
    # before the test runs
    sympy = pytest.importorskip("sympy")
    assert MAX_PRIME < _PSI_12 and not sympy.isprime(_PSI_12)
    assert _is_prime(_PSI_12)
    for p in (_PSI_12, sympy.nextprime(MAX_PRIME)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_PRIME}"):
            FiniteField(p)


def test_a_61_bit_finite_field_does_not_stall():
    start = time.perf_counter()
    F = FiniteField(2**61 - 1)
    assert time.perf_counter() - start < 0.01
    assert (F(3) * F(3).inv()).value == 1


# ---------------------------------------------------------------------------
# literal parsing


def _parser_outcome(parse):
    """The payload parse gives, or the type and message of what it raises."""
    try:
        return parse().value
    except Exception as e:  # the two paths must raise alike, whatever it is
        return type(e), str(e)


# one field per level a literal can be parsed at: F_p, Q, Q(s) and a
# conic over Q(s)
def _literal_levels():
    QS = FunctionField(Rationals(), "s")
    conic = ConicExtension(QS, QS(-1), QS("s"))
    return {"F7": FiniteField(7), "Q": Rationals(), "Q(s)": QS, "conic": conic}


_LITERAL_LEVELS = _literal_levels()

# pieces of literal texts and of their near misses: Unicode whitespace,
# signs the fast path takes and ones it leaves to the parser, leading
# zeros, zero numerators and denominators, multiples of 7 (a zero
# residue over F_7), non-ASCII digits, and a second slash or a space
_SPACES = st.sampled_from(("", " ", "\t\n", "\u00a0", "\u2003", "\u3000", "\x1c"))
_SIGNS = st.sampled_from(("", "", "-", "--", "+", "- "))
_NUMERALS = st.one_of(
    st.integers(0, 10**30).map(str),
    st.sampled_from(("0", "00", "007", "7", "14", "\u0663", "\u00b2", "1 2", "")),
)


@st.composite
def _literal_texts(draw):
    text = draw(_SPACES) + draw(_SIGNS) + draw(_NUMERALS)
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from(("/", "/", " / "))) + draw(_SIGNS) + draw(_NUMERALS)
    return text + draw(_SPACES)


@pytest.mark.parametrize("name", sorted(_LITERAL_LEVELS))
@settings(max_examples=150)
@given(text=_literal_texts())
@example(text="-0")
@example(text="0/5")
@example(text="5/0")
@example(text="-00/0003")
@example(text="14/7")
@example(text="3/14")
@example(text="\u2003-12/9\n")
@example(text="\u0663")
@example(text="\u00b2")
@example(text="--5")
@example(text="5/-2")
@example(text="1/2/3")
@example(text="1 2")
@example(text="-")
@example(text="5/")
@example(text="")
@example(text="4" * 4300)
@example(text="-" + "4" * 4301)
@example(text="4" * 4301 + "/0")
@example(text="5/" + "4" * 4301)
def test_literal_fast_path_matches_the_parser(name, text):
    """parse on a plain literal gives the parser's payload, or raises what
    the parser raises, message included; other text goes to the parser."""
    field = _LITERAL_LEVELS[name]
    want = _parser_outcome(lambda: _Parser(field, _tokenize(text)).parse())
    assert _parser_outcome(lambda: field.parse(text)) == want


def test_plain_literals_skip_the_parser(Q, monkeypatch):
    def refuse(*args):
        raise AssertionError("the parser ran on a plain literal")

    monkeypatch.setattr(fields, "_Parser", refuse)
    for text in ("12", " -3/4 ", "\u00a0007/0002\n"):
        assert Q.parse(text).field is Q
    assert Q.parse("-3/4") == Fraction(-3, 4)
    with pytest.raises(AssertionError):
        Q.parse("3 / 4")


# ---------------------------------------------------------------------------
# polynomial helpers


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
)
def test_poly_division_invariant(fc, gc):
    F5 = FiniteField(5)
    f = poly_trim(F5, [F5(c).value for c in fc])
    g = poly_trim(F5, [F5(c).value for c in gc])
    if not g:
        return
    q, r = poly_divmod(F5, f, g)
    qg = poly_mul(F5, q, g)
    total = [F5(0).value] * max(len(qg), len(r), 1)
    for i, c in enumerate(qg):
        total[i] = F5.add(total[i], c)
    for i, c in enumerate(r):
        total[i] = F5.add(total[i], c)
    assert poly_trim(F5, total) == f
    assert poly_deg(r) < poly_deg(g)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
def test_poly_gcd_divides_both(fc, gc):
    Q = Rationals()
    f = poly_trim(Q, [Q(c).value for c in fc])
    g = poly_trim(Q, [Q(c).value for c in gc])
    if not f and not g:
        assert poly_gcd(Q, f, g) == ()
        return
    d = poly_gcd(Q, f, g)
    assert d[-1] == Q(1).value
    if f:
        assert poly_divmod(Q, f, d)[1] == ()
    if g:
        assert poly_divmod(Q, g, d)[1] == ()


def test_poly_gcd_small_degree_cases(Q):
    one = Q(1).value
    x_minus_1 = (Q(-1).value, one)
    sq = poly_mul(Q, x_minus_1, x_minus_1)
    assert poly_gcd(Q, sq, x_minus_1) == x_minus_1
    assert poly_gcd(Q, sq, (Q(5).value,)) == (one,)
    coprime = (Q(1).value, one)
    assert poly_gcd(Q, sq, coprime) == (one,)


@given(support.fp_products(1))
def test_poly_squarefree_parts_match_sympy(pf):
    pytest.importorskip("sympy")
    p, (f,) = pf
    got = poly_squarefree_parts(FiniteField(p), f)
    _, want = support.sympy_fp_poly(p, f).sqf_list()
    assert sorted(got) == sorted((support.from_sympy_fp_poly(p, g), e) for g, e in want)


@given(support.fp_products(1))
def test_poly_distinct_degree_products_match_sympy(pf):
    # the radical of f, and its monic irreducible factors grouped by degree
    pytest.importorskip("sympy")
    p, (f,) = pf
    _, factors = support.sympy_fp_poly(p, f).factor_list()
    radical = support.sympy_fp_poly(p, (1,))
    by_degree = {}
    for g, _ in factors:
        radical *= g
        by_degree[g.degree()] = by_degree.get(g.degree(), support.sympy_fp_poly(p, (1,))) * g
    got = poly_distinct_degree_products(FiniteField(p), support.from_sympy_fp_poly(p, radical))
    assert got == [(k, support.from_sympy_fp_poly(p, g)) for k, g in sorted(by_degree.items())]


def test_distinct_degree_products_of_a_61_bit_prime_do_not_stall():
    # s^(p^k) - s comes by repeated squaring, so a large p costs log p
    F = FiniteField(2**61 - 1)
    # (s - 1)(s - 2)(s^2 + 3) splits into four linear factors, since -3
    # is a square mod p = 1 (mod 3)
    f = poly_mul(F, poly_mul(F, (F.neg(1), 1), (F.neg(2), 1)), (3, 0, 1))
    start = time.perf_counter()
    got = poly_distinct_degree_products(F, f)
    assert time.perf_counter() - start < 1.0
    assert got == [(1, f)]


# ---------------------------------------------------------------------------
# rational function fields


def test_function_field_cancels_common_factors(Q, K):
    s = K.gen()
    quotient = (s**2 - 1) / (s - 1)
    assert (quotient - (s + 1)).is_zero()
    assert quotient.value == (s + 1).value


def test_function_field_monic_denominator(K):
    s = K.gen()
    half = (s + 1) / (2 * s)
    num, den = K.num_den(half.value)
    assert K.base.el(den[-1]) == 1
    # the payload is the content 1/2 times (s + 1)/s
    assert half.value == ((1, 2), (1, 1), (0, 1))


_QS = FunctionField(Rationals(), "s")
_QSX = FunctionField(_QS, "x")

# coefficients small enough to share factors, and up to 2^64 in height
_KERNEL_COEFFS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64)),
)
_KERNEL_POLYS = st.lists(_KERNEL_COEFFS, max_size=4)


def _times(f, h):
    Q = support.FractionRationals()
    return tuple(poly_mul(Q, poly_trim(Q, f), poly_trim(Q, h)))


def _make(pair):
    """The Q(s) payload of a pair of Fraction tuples."""
    return _QS.make(*map(support.q_payloads, pair))


# num = f*h and den = g*h share the factor h, reach degree 6 and may have
# negative, non-monic leads; a zero f stays as drawn, a list of zeros
_KERNEL_PAIRS = st.builds(
    lambda f, g, h: (_times(f, h) or tuple(f), _times(g, h) or tuple(g)),
    _KERNEL_POLYS,
    _KERNEL_POLYS.filter(lambda g: any(g)),
    _KERNEL_POLYS.filter(lambda h: any(h)),
)
_KERNEL_PAYLOADS = _KERNEL_PAIRS.map(_make)
# the pairs above almost never reduce to a constant denominator, so the
# operations also draw polynomials, denominator 1, zero and constants
# among them: two of these take the kernel's polynomial add and mul
_KERNEL_OPERANDS = st.one_of(
    _KERNEL_PAIRS, _KERNEL_POLYS.map(lambda f: (tuple(f), (Fraction(1),)))
)


def _fraction_form(payload):
    """num_den of a Q(s) payload as Fraction tuples; every coefficient
    must be a canonical Rationals payload."""
    return support.q_fraction_form(_QS.num_den(payload))


@given(_KERNEL_PAIRS)
def test_integer_kernel_make_matches_euclid(pair):
    assert _fraction_form(_make(pair)) == support.euclid_make(*pair)


def _kernel_cases(a, b):
    cases = [("add", a, b), ("sub", a, b), ("mul", a, b), ("neg", a)]
    if not _QS.is_zero(b):
        cases.append(("div", a, b))
    if not _QS.is_zero(a):
        cases.append(("inv", a))
    return cases


@settings(max_examples=80)
@given(_KERNEL_OPERANDS.map(_make), _KERNEL_OPERANDS.map(_make))
def test_integer_kernel_ops_match_euclid(a, b):
    for op, *args in _kernel_cases(a, b):
        got = _fraction_form(getattr(_QS, op)(*args))
        forms = [_fraction_form(x) for x in args]
        if op == "neg":
            want = (tuple(-c for c in forms[0][0]), forms[0][1])
        else:
            want = support.euclid_op(op, *forms)
        assert got == want, op


def _assert_canonical_triple(payload):
    """(c, N, D): a canonical Rationals content, N and D primitive int
    tuples with positive leads and coprime (by Euclid over Q), zero as
    ((0, 1), (), (1,))."""
    c, n, d = payload
    support.q_fraction(c)
    assert type(n) is tuple and type(d) is tuple
    assert all(type(e) is int for e in n + d)
    if not n:
        assert payload == ((0, 1), (), (1,))
        return
    assert c[0]
    for f in (n, d):
        assert f and f[-1] > 0 and math.gcd(*f) == 1
    Q = support.FractionRationals()
    one = (Fraction(1),)
    assert poly_gcd(Q, tuple(map(Fraction, n)), tuple(map(Fraction, d))) == one


@settings(max_examples=80)
@given(_KERNEL_OPERANDS, _KERNEL_OPERANDS)
def test_integer_kernel_payloads_stay_canonical(p, r):
    a, b = _make(p), _make(r)
    _assert_canonical_triple(a)
    _assert_canonical_triple(b)
    for op, *args in _kernel_cases(a, b):
        _assert_canonical_triple(getattr(_QS, op)(*args))


def _z_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _primitive(f):
    k = math.gcd(*f)
    return [c // k for c in f]


# u + w*s, primitive with w >= 1: u = 0 only as s itself
_LINEAR = st.tuples(st.integers(-30, 30), st.integers(1, 12)).filter(lambda uw: math.gcd(*uw) == 1).map(list)


def _z_polys(lo, hi):
    """Primitive integer polynomials with positive leads, of degree lo
    to hi."""
    return st.builds(
        lambda low, lead: _primitive(low + [lead]),
        st.lists(st.integers(-20, 20), min_size=lo, max_size=hi),
        st.integers(1, 20),
    )


# (f, g) with g linear: f any primitive polynomial of degree 1 to 8
# (degree 1 for two linear operands), or g times one of degree 0 to 7
_LINEAR_GCD_PAIRS = _LINEAR.flatmap(
    lambda g: st.tuples(
        st.one_of(_z_polys(1, 8), _z_polys(0, 7).map(lambda h: _z_product(g, h))),
        st.just(g),
    )
)


@settings(max_examples=120)
@given(_LINEAR_GCD_PAIRS)
@example(([-9, 0, 4], [-3, 2]))  # (2s - 3)(2s + 3), lead w > 1
@example(([5, 3], [5, 3]))  # two equal linear operands
@example(([1, 2], [-1, 3]))  # two coprime linear operands
@example(([-7, 0, 0, 0, 0, 0, 0, 0, 1], [-7, 1]))  # degree 8, s - 7 does not divide
@example((_z_product([-2, 1], [1, 1, 1, 1, 1, 1, 1, 1]), [-2, 1]))  # degree 8, s - 2 divides
def test_linear_gcd_and_cancel_match_sympy(pair):
    """With one operand linear, _z_gcd (either order) is sympy's gcd, and
    _z_cancel divides both by it."""
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    f, g = pair
    F, G = (sympy.Poly(list(reversed(cs)), s, domain="ZZ") for cs in (f, g))
    H = sympy.gcd(F, G)
    want = list(reversed(H.all_coeffs()))
    assert list(_z_gcd(f, g)) == want
    assert list(_z_gcd(g, f)) == want
    cf, cg = _z_cancel(f, g)
    assert list(cf) == list(reversed(F.exquo(H).all_coeffs()))
    assert list(cg) == list(reversed(G.exquo(H).all_coeffs()))


def _assert_wrong_gcd_fails(outcomes):
    raised, record = outcomes
    want = ["CertificateFailed", "polynomial gcd does not divide exactly"]
    assert raised == {"mul": want, "add": want}
    assert (record["status"], record["error"]) == ("error", "CertificateFailed")


def test_integer_kernel_wrong_gcd_is_a_failed_check(monkeypatch):
    _assert_wrong_gcd_fails(support.wrong_gcd_outcomes(monkeypatch.setattr))


def test_integer_kernel_wrong_gcd_survives_optimized_mode(optimized_outcomes):
    assert optimized_outcomes[_OPTIMIZED[1]] == "passed"


def test_function_field_str_frozen(K):
    s = K.gen()
    assert repr(s) == "s"
    assert repr(1 / s) == "(1)/(s)"
    assert repr((s + 1) * (s - 1)) == "s^2 - 1"
    assert repr(K(Fraction(-1, 2)) * s) == "-1/2*s"


def test_function_field_parse_round_trip(K):
    for text in ("s", "(s^2 + 1)/(s - 3)", "2*s - 1/2", "0", "-3/4", "-2/(3*s^2 + 1)"):
        el = K.parse(text)
        assert K.parse(repr(el)) == el
    KX = FunctionField(K, "x")
    for text in ("x", "(s*x - 1/2)/(2*s + 3)", "(x^2 + s/3)/(-2*s*x + 1)", "-1/(2*s)"):
        el = KX.parse(text)
        assert KX.parse(repr(el)) == el
    C = ConicExtension(K, K(-1).value, K.gen().value)
    for text in ("y", "x + s*y - 1", "(2*x + y/s)/(3*s - x)", "(x + y + s)^-2"):
        el = C.parse(text)
        assert C.parse(repr(el)) == el


# zero, constants, negative contents and denominators whose primitive
# integer form has a lead other than 1 (2*s + 3 is D = (3, 2))
_RENDER_EXAMPLES = ("0", "1", "-3/4", "-s", "s/2", "-2/(3*s^2 + 1)", "(s - 1/2)/(2*s + 3)")


@settings(max_examples=200)
@given(
    st.one_of(
        st.sampled_from(_RENDER_EXAMPLES).map(lambda t: _QS.parse(t).value),
        support.rational_functions(_QS).map(lambda f: f.value),
        _KERNEL_PAYLOADS,
    )
)
def test_q_s_to_str_matches_num_den_printing(payload):
    text = _QS.to_str(payload)
    assert text == support.to_str_by_num_den(_QS, payload)
    assert _QS.parse(text).value == payload


def test_q_s_printing_builds_no_fraction(monkeypatch):
    """Q(s) elements print from their integer payloads; Q(s)(x) and the
    conic reach the same renderer through their coefficients."""
    rng = random.Random(12)

    def poly():
        # a nonzero lead, so the denominators are never zero
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        return tuple(cs) + (Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 6)),)

    payloads = [_QS.zero(), _QS.one()] + [_make((poly(), poly())) for _ in range(60)]
    QSX = FunctionField(_QS, "x")
    C = ConicExtension(_QS, _QS.from_int(-1), _QS.gen().value)
    upper = [
        (QSX, QSX.make(tuple(payloads[2:5]), tuple(payloads[5:7]))),
        (C, C.parse("(x + y + s)^-2").value),
    ]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for p in payloads:
        _QS.to_str(p)
    for f, p in upper:
        f.to_str(p)
    monkeypatch.undo()
    assert built == []


def test_function_field_variable_shadowing(Q, K):
    with pytest.raises(ValueError):
        FunctionField(K, "s")
    with pytest.raises(ValueError):
        FunctionField(Q, "not an identifier")


@given(support.rational_functions(FunctionField(Rationals(), "s")))
def test_function_field_additive_inverse(f):
    assert (f + (-f)).is_zero()


@given(
    support.nonzero_rational_functions(FunctionField(Rationals(), "s")),
    support.nonzero_rational_functions(FunctionField(Rationals(), "s")),
)
def test_function_field_multiplicative_structure(f, g):
    assert ((f * g) / g - f).is_zero()
    assert (f * g.inv() * g - f).is_zero()


def test_function_field_sqrt(K):
    s = K.gen()
    sq = (s + 1) ** 2 / (s**2)
    root = K.el(K.sqrt(sq.value))
    assert (root * root - sq).is_zero()
    with pytest.raises(NotASquare):
        K.sqrt(s.value)


def test_a_root_down_a_tower_roots_each_leading_coefficient_once(Q, monkeypatch):
    # poly_sqrt once asked its base for is_square and then for sqrt of a
    # leading coefficient, which took 4^n roots at Q over n function
    # fields (8.7 s for a witt-equal at n = 10); one root each of the
    # numerator's and the denominator's takes 2^n
    levels = 6
    K = Q
    for i in range(levels):
        K = FunctionField(K, f"s{i}")
    calls = []
    root = Rationals.sqrt
    monkeypatch.setattr(Rationals, "sqrt", lambda self, a: calls.append(a) or root(self, a))
    assert K.el(K.sqrt(K.from_int(4))) == 2
    assert len(calls) <= 2**levels
    with pytest.raises(NotASquare):
        K.sqrt(K.from_int(-1))


def test_tower_of_function_fields(Q):
    K = FunctionField(Q, "s")
    L = FunctionField(K, "x")
    x = L.gen()
    s = L(K.gen())
    assert ((x + s) * (x - s) - (x**2 - s**2)).is_zero()
    assert repr(L.parse("(x + s)*(x - s)")) == "x^2 - s^2"


def _sympy_expr(field, payload, sympy):
    """A Rationals or (nested) FunctionField payload as a sympy expression."""
    if isinstance(field, Rationals):
        return sympy.Rational(*payload)
    num, den = field.num_den(payload)
    return _sympy_poly(field, num, sympy) / _sympy_poly(field, den, sympy)


def _sympy_poly(field, cs, sympy):
    """A FunctionField coefficient tuple as a sympy expression in its
    variable."""
    var = sympy.Symbol(field.var)
    return sum(
        (_sympy_expr(field.base, c, sympy) * var**k for k, c in enumerate(cs)),
        sympy.Integer(0),
    )


def _assert_reduced(field, payload, sympy):
    """num and den of num_den coprime in base[var] by sympy's gcd, and
    den monic, at this level and at every coefficient below it."""
    base = field.base
    domain = "QQ" if isinstance(base, Rationals) else f"QQ({base.var})"
    form = field.num_den(payload)
    num, den = (
        sympy.Poly(_sympy_poly(field, cs, sympy), sympy.Symbol(field.var), domain=domain)
        for cs in form
    )
    assert sympy.gcd(num, den) == 1
    assert form[1][-1] == base.one()
    if isinstance(base, FunctionField):
        for c in form[0] + form[1]:
            _assert_reduced(base, c, sympy)


# built with `make` alone, so that the generator does not rest on the
# add and mul under test
_QS_PAYLOADS = st.builds(
    lambda num, den: _make((num, den)),
    st.lists(support.fractions(max_num=9, max_den=4), max_size=2),
    st.lists(support.fractions(max_num=9, max_den=4), min_size=1, max_size=2).filter(any),
)
_QSX_ELEMENTS = st.one_of(
    st.just(_QSX(0)),
    st.builds(
        lambda num, den: _QSX.el(_QSX.make(num, den)),
        st.lists(_QS_PAYLOADS, max_size=3),
        st.lists(_QS_PAYLOADS, min_size=1, max_size=3).filter(
            lambda cs: not all(map(_QS.is_zero, cs))
        ),
    ),
)


@settings(max_examples=25)
@given(_QSX_ELEMENTS, _QSX_ELEMENTS, _QS_PAYLOADS)
def test_function_field_tower_against_sympy(f, g, c):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    fe, ge = (_sympy_expr(_QSX, u.value, sympy) for u in (f, g))
    cases = [(f + g, fe + ge), (f * g, fe * ge)]
    if not f.is_zero():
        cases.append((f.inv(), 1 / fe))
    if not g.is_zero():
        # a common factor x + c for the gcds to cancel
        h = _QSX.gen() + _QSX.el(_QSX.constant(c))
        cases.append(((f * h) / (g * h), fe / ge))
    for got, want in cases:
        num, den = got.value
        assert sympy.cancel(_sympy_expr(_QSX, got.value, sympy) - want) == 0
        # gcd-reduced with monic denominators in x over Q(s) and in s over Q
        _assert_reduced(_QSX, got.value, sympy)
        # lowest terms in x over Q(s): same x-degrees as sympy's reduced form
        want_num, want_den = sympy.fraction(sympy.cancel(want))
        if num:
            assert len(num) - 1 == sympy.degree(want_num, x)
            assert len(den) - 1 == sympy.degree(want_den, x)
        else:
            assert want_num == 0 and den == (_QS.one(),)


# ---------------------------------------------------------------------------
# powers


@pytest.mark.parametrize(
    "field, base, want",
    [
        (FiniteField(101), 7, pow(7, 800, 101)),
        (Rationals(), Fraction(3, 2), Fraction(3, 2) ** 800),
    ],
)
def test_power_squares_and_multiplies(monkeypatch, field, base, want):
    calls = []
    mul = field.mul

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(field, "mul", counting)
    assert field(base) ** 800 == field(want)
    assert len(calls) <= 2 * math.ceil(math.log2(800)) + 1


def test_power_matches_repeated_products(Q):
    K = FunctionField(Q, "s")
    C = ConicExtension(Q, Q(2).value, Q(3).value)
    for u in (K("(s^2 + 1)/(s - 2)"), C("x + 2*y - 1"), K(0), C(0)):
        for n in range(-6, 7):
            if n < 0 and u.is_zero():
                with pytest.raises(DivisionByZero):
                    u ** n
                continue
            step = u if n >= 0 else u.inv()
            want = u.field(1)
            for _ in range(abs(n)):
                want = want * step
            assert (u ** n).value == want.value


def _seconds(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def test_conic_inverse_power_over_q_s_does_not_stall(K):
    # the Q(s)(x) gcds behind this power once took 2 s
    C = ConicExtension(K, K(-1).value, K.gen().value)
    u = C("x + s*y - 1")
    seconds, r = _seconds(lambda: u**-3)
    assert seconds < 1.0
    assert r * u * u * u == C(1)


def test_parsed_conic_inverse_power_over_q_s_does_not_stall(K):
    # within MAX_POWER_COST, but its gcds once took 29 s
    C = ConicExtension(K, K(-1).value, K.gen().value)
    seconds, r = _seconds(lambda: C("(x + y + s)^-3"))
    assert seconds < 5.0
    # r * u**3 in one product took 13 s while Q(s) coefficients were
    # Fraction tuples; on (c, N, D) payloads its Q(s)(x) gcds take
    # well under a second
    u = C("x + y + s")
    seconds, one = _seconds(lambda: r * u**3)
    assert seconds < 5.0
    assert one == C(1)


def test_level_mismatch_is_rejected(Q, K):
    L = FunctionField(Q, "u")
    with pytest.raises(LevelMismatch):
        K.gen() + L.gen()


# ---------------------------------------------------------------------------
# conic extensions


def test_conic_relation(Q):
    C = ConicExtension(Q, Q(2).value, Q(3).value)
    y = C.y_gen()
    theta = C.from_inner(C.theta)
    assert (y * y - theta).is_zero()
    x = C.x_gen()
    assert ((1 - 2 * x**2) / 3 - theta).is_zero()


def test_conic_norm_and_conjugation(Q):
    C = ConicExtension(Q, Q(2).value, Q(3).value)
    z = C.x_gen() + C.y_gen() * 2
    w = C(1) - C.y_gen()
    for u in (z, w, z * w):
        n = C.from_inner(C.norm(u.value))
        assert (n - u * C.el(C.conj(u.value))).is_zero()


def test_conic_parse_and_str(Q):
    C = ConicExtension(Q, Q(2).value, Q(3).value)
    el = C.parse("x*y + 1")
    assert (el - (C.x_gen() * C.y_gen() + 1)).is_zero()
    assert "y" in repr(C.y_gen())


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_conic_norm_multiplicative(a1, b1, a2, b2):
    Q = Rationals()
    C = ConicExtension(Q, Q(2).value, Q(3).value)
    y = C.y_gen()
    z = C(a1) + y * b1
    w = C(a2) + y * b2
    lhs = C.norm((z * w).value)
    rhs = C.inner.mul(C.norm(z.value), C.norm(w.value))
    assert C.inner.is_zero(C.inner.sub(lhs, rhs))


# ---------------------------------------------------------------------------
# printing with shared denominators


def _printing_conics():
    """name -> (conic, strategy of coefficient texts for its base, texts
    of nonzero leading coefficients)."""
    Q = Rationals()
    ints = st.integers(-4, 4)
    rational_texts = st.builds(lambda n, m: f"{n}/{m}", ints, st.integers(1, 3))
    function_texts = st.one_of(
        ints.map(str),
        st.builds(lambda n, m, j: f"({n} + {m}*s)/({j} + s)", ints, ints, ints),
        st.builds(lambda n, m: f"{n}*s^2 + {m}", ints, ints),
    )
    leads = ("1", "2", "-3", "1 + s")
    out = {"Q": (ConicExtension(Q, 2, 3), rational_texts, leads[:3])}
    for p, d in batteries.DIVISION_BATCHES:
        out[f"division-{p}"] = (ConicExtension(_QS, _QS(d), _QS("s")), function_texts, leads)
    F5s = FunctionField(FiniteField(5), "s")
    out["F5(s)"] = (ConicExtension(F5s, F5s(2), F5s("s")), function_texts, leads)
    return out


_PRINTING_CONICS = _printing_conics()


@st.composite
def _conic_texts(draw, coeffs, leads):
    """Texts A + B*y for C.parse: A = 0, B = ±1, constant parts, and A and
    B over a shared denominator or over denominators of their own."""

    def poly(lead=False):
        cs = draw(st.lists(coeffs, max_size=3))
        if lead:
            # a nonzero leading coefficient keeps a denominator nonzero
            cs.append(draw(st.sampled_from(leads)))
        return " + ".join(f"({c})*x^{k}" for k, c in enumerate(cs)) or "0"

    shared = poly(True)

    def part(kind):
        if kind == "constant":
            return draw(coeffs)
        den = shared if kind == "shared" else poly(True)
        return f"({poly()})/({den})"

    a = draw(st.sampled_from(("zero", "constant", "shared", "own")))
    b = draw(st.sampled_from(("1", "-1", "constant", "shared", "own")))
    a = "0" if a == "zero" else part(a)
    b = b if b in ("1", "-1") else part(b)
    return f"({a}) + ({b})*y"


@pytest.mark.parametrize("name", sorted(_PRINTING_CONICS))
@settings(max_examples=40)
@given(data=st.data())
def test_conic_printing_matches_the_part_by_part_reference(name, data):
    C, coeffs, leads = _PRINTING_CONICS[name]
    u = C.parse(data.draw(_conic_texts(coeffs, leads), label="text"))
    for part in u.value:
        assert C.inner.to_str(part) == support.str_by_reference(C.inner, part)
    assert C.to_str(u.value) == support.str_by_reference(C, u.value)
    assert C.parse(repr(u)) == u


# the levels below a conic that the tests above do not print: Q(s) and
# the conics over Q, Q(s) and F_p(s) have their own
_PRINTING_LEVELS = {
    "F7(s)": FunctionField(FiniteField(7), "s"),
    "Q(s)(x)": _QSX,
    "F7(s)(x)": FunctionField(FunctionField(FiniteField(7), "s"), "x"),
}


@pytest.mark.parametrize("name", sorted(_PRINTING_LEVELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_printing_matches_the_string_reference_and_parses_back(name, data):
    """The one-pass printer against the string printer it replaced, on
    payloads with zero and +-1 coefficients, negative leads and shared
    denominators; and parse(repr(x)) == x."""
    field = _PRINTING_LEVELS[name]
    x = field.el(data.draw(support.tower_payloads(field), label="payload"))
    assert repr(x) == support.str_by_reference(field, x.value)
    assert field.parse(repr(x)) == x


def test_printing_a_variable_outside_ascii():
    # a non-ASCII variable is a term, not a factor, so a coefficient that
    # is a bare power of it is parenthesised one level up
    K = FunctionField(Rationals(), "\u03c3")
    L = FunctionField(K, "x")
    u = L.make((K.gen().value, K.parse("-\u03c3").value, K.one()), (K.one(),))
    assert repr(L.el(u)) == "x^2 + (-\u03c3)*x + \u03c3"
    assert L.to_str(u) == support.str_by_reference(L, u)
