"""Exact arithmetic in a tower of fields.

Levels, built inductively:

    Rationals()                  reduced integer fractions
    FiniteField(p)               prime field, p an odd prime
    FunctionField(base, var)     rational functions base(var)
    ConicExtension(base, d, t)   function field of the conic d*x^2 + t*y^2 = 1

A field object implements a raw-value protocol (zero, one, add, mul, inv,
...) over canonical hashable payloads; user-facing arithmetic goes through
the FieldElement wrapper, which overloads the operators.  Canonical forms
are unique, so equality of payloads is equality of elements:

    Rationals        pair (n, d) of ints in lowest terms with d > 0;
                     zero is (0, 1)
    FiniteField      least nonnegative residue, an int
    FunctionField    over Rationals: triple (c, N, D) standing for
                     c*N/D, c a Rationals payload, the content carrying
                     sign and scale, N and D tuples of ints, primitive
                     with positive leading coefficients and coprime;
                     zero is ((0, 1), (), (1,))
                     over other bases: pair (num, den) of dense
                     coefficient tuples, gcd-reduced, den monic
    ConicExtension   pair (A, B) of FunctionField payloads in the inner
                     field base(x), standing for A + B*y with the rewrite
                     y^2 -> (1 - d*x^2)/t always applied

Arithmetic over Q runs on Python ints and builds no Fraction: Rationals
adds through the gcd of the denominators (Knuth, TAOCP vol. 2, 4.5.1)
and multiplies by cancelling across, so every result is reduced without
a gcd of its full numerator and denominator.  A Fraction is accepted
only at the boundary, by from_fraction and operand coercion.  Over
Rationals the FunctionField arithmetic runs on integers too: mul
multiplies the contents and cancels the gcds of N1 with D2 and of N2
with D1 (Henrici, JACM 3, 1956), add brings both operands over a common
denominator and cancels only what can still be shared, inv swaps N and
D.  The gcds go by the primitive pseudo-remainder sequence, down to a
linear operand, which one evaluation decides, and are divided out
exactly.  A sum or product of two polynomials, D = 1 on both
sides, is one integer pass plus one content, with no polynomial gcd: a
product of primitive polynomials is primitive (Gauss's lemma).  So is
eval_diagonal, the value sum k_i*x_i^2 of a diagonal form such as the
reduced norm, on polynomials; over Q it is one pass over a common
denominator, elsewhere a loop of mul and add.
num_den gives the pair (num, den) of Rationals payload tuples with den
monic, for the few callers that need monic coefficients: sqrt, the
parser's power cost and the transported conic valuation.  Other bases,
F_p and Q(s) among them, use the poly_* helpers below, Euclid's
algorithm over the base field.

Characteristic 2 is rejected everywhere.  Elements parse from a small
expression grammar (integers, the tower's symbols, + - * / ^, parentheses)
and print back in a form the parser accepts, in one pass down the tower:
each level writes its terms into one list and tells the level above the
shape of what it wrote, so no text is scanned again, and a denominator
shared by an element's coefficients is written once.  A plain literal,
an optional minus, ASCII digits and an optional slash and ASCII digits
between whitespace, skips the tokenizer and the parser: parse builds it
as from_int(n), or div(from_int(n), from_int(m)), which is the payload
the parser reaches and raises what the parser raises (division by zero,
a digit string over int's limit).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    CertificateFailed,
    DivisionByZero,
    EvenResidueChar,
    LevelMismatch,
    NotASquare,
    ParseError,
)


class FieldElement:
    """A raw payload tagged with its field; operators dispatch to the field."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            # fields are shared objects, so identity settles nearly every
            # operand before the comparison by value
            if other.field is self.field or other.field == self.field:
                return other
            lifted = self.field.lift(other)
            if lifted is not None:
                return lifted
            raise LevelMismatch(
                f"cannot combine an element of {other.field} with one of {self.field}"
            )
        if isinstance(other, int):
            return FieldElement(self.field, self.field.from_int(other))
        if isinstance(other, Fraction):
            return FieldElement(self.field, self.field.from_fraction(other))
        return None

    def _operator(name, reflected=False):
        # through the field's method `name`; reflected takes other first
        def op(self, other):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            a, b = (o.value, self.value) if reflected else (self.value, o.value)
            return FieldElement(self.field, getattr(self.field, name)(a, b))

        return op

    __add__ = __radd__ = _operator("add")
    __sub__, __rsub__ = _operator("sub"), _operator("sub", True)
    __mul__ = __rmul__ = _operator("mul")
    __truediv__, __rtruediv__ = _operator("div"), _operator("div", True)
    del _operator

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        f = self.field
        if n < 0:
            base = f.inv(self.value)
            n = -n
        else:
            base = self.value
        # square-and-multiply: one squaring per bit of n, one product per
        # set bit
        out = f.one()
        while n:
            if n & 1:
                out = f.mul(out, base)
            n >>= 1
            if n:
                base = f.mul(base, base)
        return FieldElement(f, out)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self.value)

    def is_zero(self):
        return self.field.is_zero(self.value)

    def inv(self):
        return FieldElement(self.field, self.field.inv(self.value))

    def __repr__(self):
        return self.field.to_str(self.value)


class _FieldBase:
    """Shared conveniences over the raw-value protocol."""

    def el(self, value):
        return FieldElement(self, value)

    # a level defines to_str or _write (see _poly_terms), or both
    def to_str(self, a):
        out = []
        self._write(a, {}, out)
        return "".join(out)

    def _write(self, a, memo, out):
        # a number: a factor, with its sign
        s = self.to_str(a)
        out.append(s)
        return s[0] == "-"

    def eval_diagonal(self, ks, xs):
        """The value sum k_i*x_i^2 of the diagonal form <k_1, ..., k_n> at
        x, on payloads, by the field's own mul and add."""
        add, mul = self.add, self.mul
        out = self.zero()
        for k, x in zip(ks, xs):
            out = add(out, mul(k, mul(x, x)))
        return out

    # each level builds its constants 0 and 1 once; payloads are
    # immutable, so they are shared
    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_fraction(self, fr: Fraction):
        return self.div(self.from_int(fr.numerator), self.from_int(fr.denominator))

    def is_zero(self, a):
        return a == self.zero()

    def lift(self, elem):
        """Embed an element of a lower level, or None if not embeddable."""
        return None

    def symbols(self):
        """Names available to the expression parser at this level."""
        return {}

    def parse(self, text: str) -> FieldElement:
        # a plain literal skips the parser (see the module docstring)
        s = text.strip()
        neg = s[:1] == "-"
        num, slash, den = (s[1:] if neg else s).partition("/")
        if num.isascii() and num.isdigit() and (
            not slash or (den.isascii() and den.isdigit())
        ):
            n = int(num)
            a = self.from_int(-n if neg else n)
            if slash:
                a = self.div(a, self.from_int(int(den)))
            return FieldElement(self, a)
        return _Parser(self, _tokenize(text)).parse()

    def __call__(self, v):
        if isinstance(v, FieldElement):
            if v.field is self or v.field == self:
                return v
            lifted = self.lift(v)
            if lifted is None:
                raise LevelMismatch(f"cannot view an element of {v.field} in {self}")
            return lifted
        if isinstance(v, int):
            return self.el(self.from_int(v))
        if isinstance(v, Fraction):
            return self.el(self.from_fraction(v))
        if isinstance(v, str):
            return self.parse(v)
        raise LevelMismatch(f"cannot interpret {v!r} in {self}")

    def is_square(self, a) -> bool:
        try:
            self.sqrt(a)
        except NotASquare:
            return False
        return True


# the first twelve primes: trial division by them decides every n below
# 37^2, and Miller-Rabin to these bases is exact below 318665857834031151167461
# (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# largest modulus a finite field accepts; below the bound above, so that
# _is_prime decides every modulus exactly
MAX_PRIME = 10**23


def _is_prime(n: int) -> bool:
    """Trial division by the bases, then Miller-Rabin to each of them."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if q * q > n:
            return True
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals(_FieldBase):
    """The rational numbers.  A payload is a pair (n, d) of ints in
    lowest terms with d > 0, zero being (0, 1).  Sums take the gcd of
    the denominators first (Knuth, TAOCP vol. 2, 4.5.1) and products
    cancel across (Henrici), so every result comes out reduced without
    a gcd of its full numerator and denominator."""

    characteristic = 0
    _zero, _one = (0, 1), (1, 1)

    # one instance per class and process, so that fields over Q, elements
    # and valuations find their common Q by identity; unpickling returns
    # the receiving process's instance
    def __new__(cls):
        if "_shared" not in cls.__dict__:
            cls._shared = super().__new__(cls)
        return cls._shared

    def __reduce__(self):
        return type(self), ()

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "Rationals()"

    def from_int(self, n: int):
        return (n, 1)

    def from_fraction(self, fr: Fraction):
        return (fr.numerator, fr.denominator)

    def add(self, a, b):
        return _q_sum(a[0], a[1], b[0], b[1])

    def sub(self, a, b):
        return _q_sum(a[0], a[1], -b[0], b[1])

    def neg(self, a):
        return (-a[0], a[1])

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == 1 and bd == 1:
            return (an * bn, 1)
        # the operands are reduced, so only an with bd and bn with ad
        # can share a factor
        g = gcd(an, bd)
        h = gcd(bn, ad)
        return ((an // g) * (bn // h), (ad // h) * (bd // g))

    def div(self, a, b):
        an, ad = a
        bn, bd = b
        if not bn:
            raise DivisionByZero("inverse of 0")
        g = gcd(an, bn)
        h = gcd(ad, bd)
        n, d = (an // g) * (bd // h), (ad // h) * (bn // g)
        return (-n, -d) if d < 0 else (n, d)

    def inv(self, a):
        n, d = a
        if not n:
            raise DivisionByZero("inverse of 0")
        return (d, n) if n > 0 else (-d, -n)

    def is_zero(self, a):
        return not a[0]

    def sqrt(self, a):
        n, d = a
        if n < 0:
            raise NotASquare(f"{self.to_str(a)} is negative")
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn != n or rd * rd != d:
            raise NotASquare(f"{self.to_str(a)} is not a rational square")
        return (rn, rd)

    def eval_diagonal(self, ks, xs):
        # one pass over the common denominator of the terms, one gcd
        n, q = 0, 1
        for (kn, kd), (xn, xd) in zip(ks, xs):
            if xn:
                a, m = kn * xn * xn, kd * xd * xd
                if m != q:
                    g = gcd(q, m)
                    n, a, q = n * (m // g), a * (q // g), q * (m // g)
                n += a
        return _q_frac(n, q)

    def to_str(self, a):
        n, d = a
        return str(n) if d == 1 else f"{n}/{d}"


def _q_frac(n: int, d: int):
    """The payload of n/d for d > 0."""
    g = gcd(n, d)
    return (n // g, d // g) if g != 1 else (n, d)


def _q_sum(an, ad, bn, bd):
    """an/ad + bn/bd in lowest terms, for reduced operands."""
    if ad == bd:
        n = an + bn
        if ad == 1:
            return (n, 1)
        g = gcd(n, ad)
        return (n // g, ad // g)
    g = gcd(ad, bd)
    if g == 1:
        # coprime denominators leave the sum reduced
        return (an * bd + bn * ad, ad * bd)
    s = ad // g
    n = an * (bd // g) + bn * s
    # n is prime to s and to bd/g; only the common part g can cancel
    h = gcd(n, g)
    return (n // h, s * (bd // h))


class FiniteField(_FieldBase):
    """Prime field of odd order p; payloads are least nonnegative residues."""

    _zero, _one = 0, 1

    def __init__(self, p: int):
        if p == 2:
            raise EvenResidueChar("characteristic 2 is outside scope")
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds {MAX_PRIME}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.characteristic = p

    def __eq__(self, other):
        return isinstance(other, FiniteField) and other.p == self.p

    def __hash__(self):
        return hash(("FiniteField", self.p))

    def __repr__(self):
        return f"FiniteField({self.p})"

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of 0 mod %d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def elements(self):
        return range(self.p)

    def is_square(self, a) -> bool:
        if a % self.p == 0:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a):
        p = self.p
        a %= p
        if a == 0:
            return 0
        if not self.is_square(a):
            raise NotASquare(f"{a} is not a square mod {p}")
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks, p = 1 mod 4
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    def to_str(self, a):
        return str(a % self.p)


# ---------------------------------------------------------------------------
# dense polynomial helpers over an arbitrary base field
#
# A polynomial is a tuple of base payloads, lowest degree first, with no
# trailing zeros; () is the zero polynomial.


def poly_trim(base, cs):
    cs = list(cs)
    while cs and base.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def poly_deg(cs) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(cs) - 1


def poly_const(base, c):
    return () if base.is_zero(c) else (c,)


def poly_add(base, f, g):
    n = max(len(f), len(g))
    out = []
    for k in range(n):
        a = f[k] if k < len(f) else base.zero()
        b = g[k] if k < len(g) else base.zero()
        out.append(base.add(a, b))
    return poly_trim(base, out)


def poly_neg(base, f):
    return tuple(base.neg(c) for c in f)


def poly_scale(base, f, c):
    if base.is_zero(c):
        return ()
    return tuple(base.mul(a, c) for a in f)


def poly_mul(base, f, g):
    if not f or not g:
        return ()
    out = [base.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return poly_trim(base, out)


def poly_divmod(base, f, g):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    q = [base.zero()] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    inv_lead = base.inv(g[-1])
    while len(r) >= len(g) and any(not base.is_zero(c) for c in r):
        if base.is_zero(r[-1]):
            r.pop()
            continue
        shift = len(r) - len(g)
        coef = base.mul(r[-1], inv_lead)
        q[shift] = coef
        for k in range(len(g)):
            r[shift + k] = base.sub(r[shift + k], base.mul(coef, g[k]))
        r.pop()
    return poly_trim(base, q), poly_trim(base, r)


def poly_gcd(base, f, g):
    """Monic gcd, or () when both inputs are zero."""
    a, b = f, g
    while b:
        if len(b) == 1:
            return (base.one(),)
        if len(b) == 2:
            c = base.div(b[0], b[1])
            if base.is_zero(poly_eval(base, a, base.neg(c))):
                return (c, base.one())
            return (base.one(),)
        a, b = b, poly_divmod(base, a, b)[1]
    if not a:
        return ()
    return poly_scale(base, a, base.inv(a[-1]))


def poly_eval(base, f, v):
    out = base.zero()
    for c in reversed(f):
        out = base.add(base.mul(out, v), c)
    return out


def poly_pow_mod(base, f, e: int, mod):
    if poly_deg(mod) <= 0:
        return ()
    out = poly_const(base, base.one())
    f = poly_divmod(base, f, mod)[1]
    while e > 0:
        if e & 1:
            out = poly_divmod(base, poly_mul(base, out, f), mod)[1]
        f = poly_divmod(base, poly_mul(base, f, f), mod)[1]
        e >>= 1
    return out


def poly_sqrt(base, f):
    """Exact polynomial square root, or None.  Char != 2 assumed."""
    if not f:
        return ()
    n = poly_deg(f)
    if n % 2 != 0:
        return None
    if not base.is_square(f[-1]):
        return None
    half = n // 2
    r = [base.zero()] * (half + 1)
    r[half] = base.sqrt(f[-1])
    lead2 = base.inv(base.add(r[half], r[half]))
    for k in range(half - 1, -1, -1):
        # coefficient of x^(half+k) in r^2, using entries above k only
        acc = base.zero()
        for i in range(k + 1, half + 1):
            j = half + k - i
            if k + 1 <= j <= half:
                acc = base.add(acc, base.mul(r[i], r[j]))
        target = f[half + k] if half + k < len(f) else base.zero()
        r[k] = base.mul(base.sub(target, acc), lead2)
    r = poly_trim(base, r)
    if poly_mul(base, r, r) != poly_trim(base, f):
        return None
    return r


def poly_monic_irreducible_factors(base, f):
    """Multiset of monic irreducible factors over a finite base field.

    Returns a dict factor -> multiplicity.  Trial division by monic
    polynomials of increasing degree; fine at desk-scale degrees.
    """
    out = {}
    f = poly_scale(base, f, base.inv(f[-1]))
    deg = poly_deg(f)
    d = 1
    while poly_deg(f) >= 1 and d <= poly_deg(f) // 2:
        for g in _monic_polys(base, d):
            if poly_deg(f) < d:
                break
            q, r = poly_divmod(base, f, g)
            while not r:
                out[g] = out.get(g, 0) + 1
                f = q
                q, r = poly_divmod(base, f, g)
        d += 1
    if poly_deg(f) >= 1:
        out[f] = out.get(f, 0) + 1
    return out


def _monic_polys(base, d: int):
    """All monic polynomials of degree d over a finite base field."""

    def rec(k):
        if k == d:
            yield (base.one(),)
            return
        for tail in rec(k + 1):
            for c in base.elements():
                yield (c,) + tail

    yield from rec(0)


# ---------------------------------------------------------------------------
# integer kernel for FunctionField over Rationals (see the module docstring)
#
# An integer polynomial is a list or tuple of Python ints, lowest degree
# first, with no trailing zeros.  The polynomials of a (c, N, D) payload
# are primitive with positive leads, so the only constant one is (1,).


def _z_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _z_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for k, c in enumerate(g):
        out[k] += c
    return _z_trim(out)


def _z_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _z_times(f, g):
    """The product of two primitive polynomials with positive leads, as a
    tuple; a constant factor is 1."""
    if len(f) == 1:
        return tuple(g)
    if len(g) == 1:
        return tuple(f)
    return tuple(_z_mul(f, g))


def _z_scaled(k, f, g):
    """k*f*g for an integer k and integer polynomials f and g, g primitive
    with a positive lead."""
    if len(g) == 1:
        return [k * a for a in f]
    return [k * a for a in _z_mul(f, g)]


def _z_content(f):
    """(k, f/k) for a nonzero integer polynomial f, with k the gcd of its
    coefficients signed so that f/k has a positive leading coefficient."""
    k = gcd(*f)
    if f[-1] < 0:
        k = -k
    return k, (f if k == 1 else [a // k for a in f])


def _z_prem(f, g):
    """A nonzero integer multiple of the remainder of f by g, by
    pseudo-division; each step scales by lc(g)/gcd(lc(g), lead) only."""
    r = list(f)
    n = len(g)
    lc = g[-1]
    while len(r) >= n:
        c = r[-1]
        if c:
            h = gcd(c, lc)
            u, w = lc // h, c // h
            if u != 1:
                r = [u * a for a in r]
            k = len(r) - n
            for i in range(n - 1):
                r[k + i] -= w * g[i]
        r.pop()
    return _z_trim(r)


def _z_gcd(f, g):
    """The gcd over Q of two primitive integer polynomials with positive
    leads, as such a polynomial, by the primitive pseudo-remainder
    sequence (Knuth, TAOCP vol. 2, 4.6.1; Brown, JACM 18, 1971).

    Once the shorter operand is linear, g = u + w*s, it is irreducible,
    so the gcd is g when g divides f and 1 otherwise; by the factor
    theorem g divides f exactly when f(-u/w) = 0, which one Horner pass
    on ints decides as w^n * f(-u/w) = sum of f_k * (-u)^k * w^(n-k),
    n the degree of f."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 2:
        r = _z_prem(f, g)
        if not r:
            return g
        f, g = g, _z_content(r)[1]
    if len(g) == 2:
        u, w = g
        acc, wk = 0, 1
        for c in reversed(f):
            acc = acc * -u + c * wk
            wk *= w
        if not acc:
            return g
    return [1]


def _z_exquo(f, g):
    """f / g over the integers, where the primitive g divides f; a
    remainder means the gcd was wrong and raises CertificateFailed."""
    n = len(g)
    lc = g[-1]
    r = list(f)
    q = [0] * (len(f) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n - 1], lc)
        if rem:
            raise CertificateFailed("polynomial gcd does not divide exactly")
        q[k] = c
        if c:
            for i in range(n - 1):
                r[k + i] -= c * g[i]
    if any(r[: n - 1]):
        raise CertificateFailed("polynomial gcd does not divide exactly")
    return q


def _z_cancel(f, g):
    """f and g divided by their gcd, for primitive polynomials with
    positive leads; the quotients are again such polynomials."""
    if len(f) == 1 or len(g) == 1:
        return f, g
    h = _z_gcd(f, g)
    if len(h) == 1:
        return f, g
    return _z_exquo(f, h), _z_exquo(g, h)


# ---------------------------------------------------------------------------
# printing
#
# Each level's _write(a, memo, out) appends the text of a payload to the
# list out and returns its shape: 0 for a factor (after an optional minus
# only letters, digits, _, / and ^), 2 for a term (no + or - after that
# minus), 4 for anything else; plus 1 when the text starts with a minus,
# which then opens the first piece.  memo is shared by an element's levels.


def _poly_terms(cs, var: str, var_shape: int, out, base=None, memo=None, p=1, q=1) -> int:
    """Write the polynomial cs term by term: over base, each nonzero
    coefficient by base._write; with no base, cs holds integers and a
    coefficient c is written as the rational (p/q)*c, reduced by one gcd,
    which is a factor.  A coefficient 1 or -1 of a power is left out, one
    that is not a factor is parenthesised before a power, and a constant
    term that is not a term is parenthesised."""
    if not cs:
        out.append("0")
        return 0
    zero = 0 if base is None else base.zero()
    shape = -1
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == zero:
            continue
        if shape >= 0:
            out.append(" + ")
        if base is None:
            # the whole term in one piece, its sign in the separator
            n, m = p * c, q
            if q != 1:
                g = gcd(n, q)
                n, m = n // g, q // g
            if shape >= 0:
                shape = 4 | (shape & 1)
                if n < 0:
                    out[-1] = " - "
                    n = -n
            num = str(n) if m == 1 else f"{n}/{m}"
            if not k:
                out.append(num)
                term = 0
            elif num == "1" or num == "-1":
                out.append(num[:-1] + (var if k == 1 else f"{var}^{k}"))
                term = var_shape
            else:
                out.append(f"{num}*{var}" if k == 1 else f"{num}*{var}^{k}")
                term = 2
            if shape < 0:
                shape = term | (n < 0)
            continue
        at = len(out)
        s = base._write(c, memo, out)
        if k:
            vp = var if k == 1 else f"{var}^{k}"
            if s > 1:
                out.insert(at, "(")
                out.append(")*" + vp)
                s = 2 if s == 2 else 4
            elif len(out) == at + 1 and out[at] in ("1", "-1"):
                out[at] = out[at][:-1] + vp
                s |= var_shape
            else:
                out.append("*" + vp)
                s |= 2
        elif s > 3:
            out.insert(at, "(")
            out.append(")")
            s = 4
        if shape < 0:
            shape = s
        else:
            # a later term's minus becomes the separator
            shape = 4 | (shape & 1)
            if s & 1:
                out[at - 1] = " - "
                out[at] = out[at][1:]
    return shape


class FunctionField(_FieldBase):
    """Rational functions base(var) as reduced fractions of polynomials."""

    def __init__(self, base, var: str):
        if not var.isidentifier():
            raise ValueError(f"variable name {var!r} is not an identifier")
        if var in base.symbols():
            raise ValueError(f"variable {var!r} shadows a symbol of {base}")
        self.base = base
        self.var = var
        # the shape of the bare variable (see _poly_terms): outside ASCII, a term
        self._var_shape = 0 if var.isascii() else 2
        self.characteristic = base.characteristic
        # over Q, payloads are (c, N, D) triples run on the integer kernel
        self._over_q = isinstance(base, Rationals)
        if self._over_q:
            self._zero = ((0, 1), (), (1,))
            self._one = ((1, 1), (1,), (1,))
            self._gen = ((1, 1), (0, 1), (1,))
        else:
            one = (base.one(),)
            self._zero = ((), one)
            self._one = (one, one)
            self._gen = ((base.zero(), base.one()), one)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("FunctionField", self.base, self.var))

    def __repr__(self):
        return f"FunctionField({self.base!r}, {self.var!r})"

    def make(self, num, den):
        """Canonicalize a numerator/denominator pair of coefficient tuples."""
        if self._over_q:
            return self._q_make(num, den)
        base = self.base
        num, den = poly_trim(base, num), poly_trim(base, den)
        if not den:
            raise DivisionByZero(f"zero denominator in {self.var}-fraction")
        if not num:
            return self._zero
        if poly_deg(num) > 0 and poly_deg(den) > 0:
            g = poly_gcd(base, num, den)
            if poly_deg(g) > 0:
                num = poly_divmod(base, num, g)[0]
                den = poly_divmod(base, den, g)[0]
        lc = den[-1]
        if lc != base.one():
            ilc = base.inv(lc)
            num = poly_scale(base, num, ilc)
            den = poly_scale(base, den, ilc)
        return (num, den)

    def _q_make(self, num, den):
        # clear every coefficient denominator at once, then split off the
        # contents and cancel the gcd
        m = lcm(*[q for _, q in num], *[q for _, q in den])
        n = _z_trim([p * (m // q) for p, q in num])
        d = _z_trim([p * (m // q) for p, q in den])
        if not d:
            raise DivisionByZero(f"zero denominator in {self.var}-fraction")
        if not n:
            return self._zero
        kn, n = _z_content(n)
        kd, d = _z_content(d)
        n, d = _z_cancel(n, d)
        if kd < 0:
            kn, kd = -kn, -kd
        return (_q_frac(kn, kd), tuple(n), tuple(d))

    def num_den(self, a):
        """The payload as a pair (num, den) of coefficient tuples of base
        payloads, in lowest terms with den monic; from_reduced inverts it."""
        if not self._over_q:
            return a
        (p, q), n, d = a
        if not n:
            return (), ((1, 1),)
        lc = d[-1]
        q *= lc
        return tuple([_q_frac(p * e, q) for e in n]), tuple([_q_frac(e, lc) for e in d])

    def from_reduced(self, num, den):
        """The payload of num/den for coefficient tuples already in lowest
        terms with den monic, as num_den gives them."""
        if self._over_q:
            return self.make(num, den)
        return (num, den) if num else self._zero

    def from_int(self, n: int):
        if n == 0:
            return self._zero
        if n == 1:
            return self._one
        return self.constant(self.base.from_int(n))

    def constant(self, c):
        """Embed a base payload as a constant."""
        if self.base.is_zero(c):
            return self._zero
        if self._over_q:
            return (c, (1,), (1,))
        return ((c,), (self.base.one(),))

    def gen(self) -> FieldElement:
        return self.el(self._gen)

    def add(self, a, b):
        if self._over_q:
            return self._q_add(a, b)
        # payloads are canonical, so a zero operand leaves the other as
        # the canonical sum
        if not a[0]:
            return b
        if not b[0]:
            return a
        base = self.base
        one = (base.one(),)
        if a[1] == one and b[1] == one:
            n = poly_trim(base, poly_add(base, a[0], b[0]))
            return (n, one) if n else self._zero
        n = poly_add(base, poly_mul(base, a[0], b[1]), poly_mul(base, b[0], a[1]))
        return self.make(n, poly_mul(base, a[1], b[1]))

    def _q_add(self, a, b):
        # over the common denominator g*a1*b1 of D_a = g*a1 and D_b = g*b1
        # the numerator is prime to a1*b1, so only g can cancel (Henrici);
        # a zero, with N = (), leaves the other operand
        (pa, qa), an, ad = a
        (pb, qb), bn, bd = b
        if not an:
            return b
        if not bn:
            return a
        if qa == qb:
            q, ka, kb = qa, pa, pb
        else:
            q = lcm(qa, qb)
            ka, kb = pa * (q // qa), pb * (q // qb)
        if len(ad) == 1 and len(bd) == 1:
            # two polynomials: the sum of the scaled numerators in one
            # pass over the longer, and only its content to split off
            if len(an) < len(bn):
                an, bn, ka, kb = bn, an, kb, ka
            top = [ka * x for x in an]
            for k, y in enumerate(bn):
                top[k] += kb * y
            _z_trim(top)
            if not top:
                return self._zero
            k, top = _z_content(top)
            return (_q_frac(k, q), tuple(top), ad)
        if ad == bd:
            g, a1, b1 = ad, (1,), (1,)
        elif len(ad) == 1 or len(bd) == 1:
            g, a1, b1 = (1,), ad, bd
        else:
            g = _z_gcd(ad, bd)
            a1, b1 = (ad, bd) if len(g) == 1 else (_z_exquo(ad, g), _z_exquo(bd, g))
        top = _z_add(_z_scaled(ka, an, b1), _z_scaled(kb, bn, a1))
        if not top:
            return self._zero
        k, top = _z_content(top)
        top, g = _z_cancel(top, g)
        return (_q_frac(k, q), tuple(top), _z_times(_z_times(g, a1), b1))

    def neg(self, a):
        if self._over_q:
            (p, q), n, d = a
            return ((-p, q), n, d)
        return (poly_neg(self.base, a[0]), a[1])

    def mul(self, a, b):
        if self._over_q:
            # each operand is reduced, so only numerators and denominators
            # across can share a factor (Henrici)
            ca, an, ad = a
            cb, bn, bd = b
            if not an or not bn:
                return self._zero
            if len(ad) == 1 and len(bd) == 1:
                # primitive times primitive is primitive (Gauss), and the
                # leads stay positive, so nothing cancels
                return (self.base.mul(ca, cb), _z_times(an, bn), ad)
            an, bd = _z_cancel(an, bd)
            bn, ad = _z_cancel(bn, ad)
            return (self.base.mul(ca, cb), _z_times(an, bn), _z_times(ad, bd))
        if not a[0] or not b[0]:
            return self._zero
        base = self.base
        one = (base.one(),)
        if a[1] == one and b[1] == one:
            return (poly_mul(base, a[0], b[0]), one)
        return self.make(poly_mul(base, a[0], b[0]), poly_mul(base, a[1], b[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of the zero rational function")
        if self._over_q:
            return (self.base.inv(a[0]), a[2], a[1])
        return self.make(a[1], a[0])

    def is_zero(self, a):
        # the numerator is a[1] in a (c, N, D) triple and a[0] in a pair
        return not a[1] if self._over_q else not a[0]

    def lift(self, elem):
        if isinstance(elem, FieldElement):
            if elem.field == self.base:
                return self.el(self.constant(elem.value))
            via = self.base.lift(elem)
            if via is not None:
                return self.el(self.constant(via.value))
        return None

    def symbols(self):
        syms = {}
        for name, e in self.base.symbols().items():
            syms[name] = self.lift(e)
        syms[self.var] = self.gen()
        return syms

    def sqrt(self, a):
        # reduced with monic denominator, so num and den must separately
        # be polynomial squares
        num, den = self.num_den(a)
        rn = poly_sqrt(self.base, num)
        rd = poly_sqrt(self.base, den)
        if rn is None or rd is None:
            raise NotASquare(f"{self.to_str(a)} is not a square in {self}")
        return self.make(rn, rd)

    def eval_diagonal(self, ks, xs):
        if self._over_q:
            # polynomial operands (D = 1): the products k*x^2 summed over
            # the common denominator q of their contents in one integer
            # pass, then one content; a fraction sends all to the loop
            q, top = 1, []
            for (ck, nk, dk), (cx, nx, dx) in zip(ks, xs):
                if len(dk) + len(dx) > 2:
                    break
                n, m = ck[0] * cx[0] * cx[0], ck[1] * cx[1] * cx[1]
                if not n:
                    continue
                if m != q:
                    g = gcd(q, m)
                    top = [a * (m // g) for a in top]
                    n, q = n * (q // g), q * (m // g)
                f = _z_mul(nx, nx)
                if len(nk) > 1:
                    f = _z_mul(nk, f)
                top += [0] * (len(f) - len(top))
                for i, a in enumerate(f):
                    top[i] += n * a
            else:
                if not _z_trim(top):
                    return self._zero
                k, top = _z_content(top)
                return (_q_frac(k, q), tuple(top), (1,))
        return _FieldBase.eval_diagonal(self, ks, xs)

    def _write(self, a, memo, out):
        # memo maps (var, denominator) to its text and whether that text
        # has no sign at all, so that an element whose coefficients share
        # a denominator writes it once; the var keeps the levels apart.  A
        # denominator of length 1 is 1: monic, or over Q primitive
        var, vs = self.var, self._var_shape
        if self._over_q:
            # num_den's pair is (c/lc(D))*N over (1/lc(D))*D, from integers
            (p, q), num, den = a
            base, lc, q = None, den[-1], q * den[-1]
        else:
            (num, den), base, p, q, lc = a, self.base, 1, 1, 1
        if len(den) == 1:
            return _poly_terms(num, var, vs, out, base, memo, p, q)
        out.append("(")
        s = _poly_terms(num, var, vs, out, base, memo, p, q)
        ds = memo.get((var, den))
        if ds is None:
            buf = []
            clean = _poly_terms(den, var, vs, buf, base, memo, 1, lc) in (0, 2)
            ds = memo[var, den] = ("".join(buf), clean)
        out.append(f")/({ds[0]})")
        return 2 if ds[1] and s in (0, 2) else 4


class ConicExtension(_FieldBase):
    """Function field of the smooth conic d*x^2 + t*y^2 = 1 over base.

    The level adjoins two generators: x, transcendental over base, and y,
    quadratic over base(x).  Payloads are pairs (A, B) of inner base(x)
    payloads standing for A + B*y; products rewrite y^2 to
    theta = (1 - d*x^2)/t.  Division is always possible for nonzero
    elements: theta is a nonsquare in base(x) (1 - d*x^2 is squarefree of
    degree 2), so the norm A^2 - B^2*theta only vanishes at (0, 0).
    """

    def __init__(self, base, d, t):
        if isinstance(d, (FieldElement, int, Fraction)):
            d = base(d).value
        if isinstance(t, (FieldElement, int, Fraction)):
            t = base(t).value
        if base.is_zero(d) or base.is_zero(t):
            raise ValueError("conic parameters d, t must be nonzero")
        for taken in ("x", "y"):
            if taken in base.symbols():
                raise ValueError(f"base level already uses the symbol {taken!r}")
        self.base = base
        self.d = d
        self.t = t
        self.inner = FunctionField(base, "x")
        self.characteristic = base.characteristic
        zero, one = self.inner.zero(), self.inner.one()
        self._zero, self._one, self._y = (zero, zero), (one, zero), (zero, one)
        # theta = (1 - d*x^2)/t
        self.theta = self.inner.make(
            (base.inv(t), base.zero(), base.neg(base.div(d, t))), (base.one(),)
        )

    def __eq__(self, other):
        return (
            isinstance(other, ConicExtension)
            and other.base == self.base
            and other.d == self.d
            and other.t == self.t
        )

    def __hash__(self):
        return hash(("ConicExtension", self.base, self.d, self.t))

    def __repr__(self):
        ds = self.base.to_str(self.d)
        ts = self.base.to_str(self.t)
        return f"ConicExtension({self.base!r}, {ds}, {ts})"

    def from_int(self, n: int):
        return (self.inner.from_int(n), self.inner.zero())

    def from_inner(self, a) -> FieldElement:
        return self.el((a, self.inner.zero()))

    def x_gen(self) -> FieldElement:
        return self.from_inner(self.inner.gen().value)

    def y_gen(self) -> FieldElement:
        return self.el(self._y)

    def add(self, a, b):
        inner = self.inner
        return (inner.add(a[0], b[0]), inner.add(a[1], b[1]))

    def neg(self, a):
        inner = self.inner
        return (inner.neg(a[0]), inner.neg(a[1]))

    def mul(self, a, b):
        inner = self.inner
        a0b0 = inner.mul(a[0], b[0])
        a1b1 = inner.mul(a[1], b[1])
        cross = inner.add(inner.mul(a[0], b[1]), inner.mul(a[1], b[0]))
        return (inner.add(a0b0, inner.mul(a1b1, self.theta)), cross)

    def conj(self, a):
        """The base(x)-automorphism y -> -y."""
        return (a[0], self.inner.neg(a[1]))

    def norm(self, a):
        """Norm to the inner field: A^2 - B^2*theta."""
        inner = self.inner
        return inner.sub(
            inner.mul(a[0], a[0]), inner.mul(inner.mul(a[1], a[1]), self.theta)
        )

    def inv(self, a):
        inner = self.inner
        if self.is_zero(a):
            raise DivisionByZero("inverse of 0 in the conic extension")
        n = self.norm(a)
        if inner.is_zero(n):
            # nonzero elements have nonzero norm since theta is a nonsquare
            raise CertificateFailed("zero norm of a nonzero conic element")
        ninv = inner.inv(n)
        return (inner.mul(a[0], ninv), inner.neg(inner.mul(a[1], ninv)))

    def is_zero(self, a):
        return self.inner.is_zero(a[0]) and self.inner.is_zero(a[1])

    def lift(self, elem):
        if isinstance(elem, FieldElement):
            if elem.field == self.inner:
                return self.from_inner(elem.value)
            if elem.field == self.base:
                return self.from_inner(self.inner.constant(elem.value))
            via = self.base.lift(elem)
            if via is not None:
                return self.from_inner(self.inner.constant(via.value))
            via = self.inner.lift(elem)
            if via is not None:
                return self.from_inner(via.value)
        return None

    def symbols(self):
        syms = {}
        for name, e in self.base.symbols().items():
            syms[name] = self.lift(e)
        syms["x"] = self.x_gen()
        syms["y"] = self.y_gen()
        return syms

    def sqrt(self, a):
        inner = self.inner
        A, B = a
        if inner.is_zero(B):
            # either A = C^2 or A = theta*C^2 with root C*y
            try:
                return (inner.sqrt(A), inner.zero())
            except NotASquare:
                pass
            q = inner.div(A, self.theta)
            try:
                return (inner.zero(), inner.sqrt(q))
            except NotASquare:
                raise NotASquare(f"{self.to_str(a)} is not a square") from None
        n = self.norm(a)
        try:
            r = inner.sqrt(n)
        except NotASquare:
            raise NotASquare(f"{self.to_str(a)} is not a square") from None
        two = inner.from_int(2)
        for root in (r, inner.neg(r)):
            csq = inner.div(inner.add(A, root), two)
            if inner.is_zero(csq):
                continue
            try:
                c = inner.sqrt(csq)
            except NotASquare:
                continue
            dcoef = inner.div(B, inner.mul(two, c))
            cand = (c, dcoef)
            if self.mul(cand, cand) == a:
                return cand
        raise NotASquare(f"{self.to_str(a)} is not a square")

    def _write(self, a, memo, out):
        # A + B*y prints as the polynomial B*y + A, a bare A as itself
        if self.inner.is_zero(a[1]):
            return self.inner._write(a[0], memo, out)
        return _poly_terms(a, "y", 0, out, self.inner, memo)


# ---------------------------------------------------------------------------
# expression parsing

# largest exponent literal the parser accepts; the cost of a power grows
# with its exponent, so an unbounded literal could stall a scenario load
MAX_EXPONENT = 1000
# largest estimated cost (see _power_cost) of a parsed power; nesting,
# as in ((s^1000)^1000)^1000, multiplies exponents past MAX_EXPONENT
MAX_POWER_COST = 10**6


def _power_shape(field, value, n: int):
    """(terms, bits): upper estimates of the number of base coefficients
    in value**n, (n*deg + 1) per polynomial level and 2 at a conic level,
    and of their height, n times that of value over Q and fixed over F_p."""
    if isinstance(field, Rationals):
        return 1, n * max(1, value[0].bit_length(), value[1].bit_length())
    if isinstance(field, FiniteField):
        return 1, field.p.bit_length()
    if isinstance(field, ConicExtension):
        terms, bits = zip(*(_power_shape(field.inner, part, n) for part in value))
        return 2 * max(terms), max(bits)
    num, den = field.num_den(value)
    deg = max(len(num), len(den)) - 1
    terms, bits = zip(*(_power_shape(field.base, c, n) for c in num + den))
    return (n * deg + 1) * max(terms), max(bits)


def _power_cost(field, value, n: int) -> int:
    """terms^2 * bits of value**n (see _power_shape), which bounds both
    its size and the schoolbook work of its last squaring."""
    terms, bits = _power_shape(field, value, n)
    return terms * terms * bits


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(("op", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    out.append(("end", None))
    return out


class _Parser:
    """Recursive descent over: expr -> term (+|- term)*;
    term -> factor (*|/ factor)*; factor -> - factor | power;
    power -> atom [^ [-] int]; atom -> int | name | ( expr )."""

    def __init__(self, field, tokens):
        self.field = field
        self.toks = tokens
        self.pos = 0
        self.syms = field.symbols()

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val!r}")

    def parse(self):
        e = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at {val!r}")
        return e

    def expr(self):
        node = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = node * rhs if val == "*" else node / rhs
            else:
                return node

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            if val > MAX_EXPONENT:
                raise ParseError(f"exponent {val} exceeds {MAX_EXPONENT}")
            cost = _power_cost(base.field, base.value, val)
            if cost > MAX_POWER_COST:
                raise ParseError(
                    f"power of estimated cost {cost} exceeds {MAX_POWER_COST}"
                )
            return base ** (sign * val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.field(val)
        if kind == "name":
            if val not in self.syms:
                raise ParseError(f"unknown symbol {val!r} at this level")
            return self.syms[val]
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}")
