"""Quaternion algebras (d, t) over a tower field, with reduced norms,
valuation extension data, and ramification analysis at a discrete
valuation of the base field.

Basis 1, i, j, ij with i^2 = d, j^2 = t, ij = -ji.  The base field must
have characteristic different from 2, which every tower field satisfies
by construction.

Element arithmetic runs on the base field's raw payloads: add, sub, neg,
conj, is_zero, is_scalar, nrd, inv and mul read each coordinate's
`.value`, call the base field's add, sub, mul, neg and is_zero, and wrap
only the result coordinates (or the one nrd) as FieldElements.  A
central scalar operand, a scalar quaternion or a bare element of the
base, scales the coordinates.  The field methods are looked up on every
operation, so a rebound field method sees every call.  `coeffs` stays a
tuple of FieldElements.  The coordinates 0 and 1 of `el`, and so of
zero(), one() and the basis elements, wrap the base field's shared
payloads.

Nothing is cached on a QuaternionAlgebra: an element points back to its
algebra, so an element kept on the algebra would make every drawn
algebra cyclic garbage, freed only by the cycle collector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from . import faults
from .errors import (
    AlgebraMismatch,
    QuatwittError,
    UnsupportedField,
    ZeroElement,
)
from .fields import (
    FieldElement,
    FiniteField,
    FunctionField,
    poly_deg,
    poly_divmod,
    poly_monic_irreducible_factors,
    poly_mul,
    poly_pow_mod,
)
from .quadforms import _even_scaled
from .valuations import INF

_BASIS_NAMES = ("1", "i", "j", "ij")

# entries kept by each per-algebra memo (ramification here, the conic
# field and the extended valuation in morita); the bound keeps memory
# flat when every instance draws a new algebra
MEMO_SIZE = 64


class QuaternionAlgebra:
    """The quaternion algebra (d, t) over a base field."""

    __slots__ = ("base", "d", "t")

    def __init__(self, base, d, t):
        d = base(d)
        t = base(t)
        if d.is_zero() or t.is_zero():
            raise ValueError("quaternion parameters must be nonzero")
        self.base = base
        self.d = d
        self.t = t

    def el(self, w=0, a=0, b=0, c=0) -> "QuaternionElement":
        base = self.base
        return QuaternionElement(self, (
            _coordinate(base, w),
            _coordinate(base, a),
            _coordinate(base, b),
            _coordinate(base, c),
        ))

    def zero(self) -> "QuaternionElement":
        return self.el()

    def one(self) -> "QuaternionElement":
        return self.el(1)

    def i(self) -> "QuaternionElement":
        return self.el(0, 1)

    def j(self) -> "QuaternionElement":
        return self.el(0, 0, 1)

    def ij(self) -> "QuaternionElement":
        return self.el(0, 0, 0, 1)

    def scalar(self, c) -> "QuaternionElement":
        return self.el(c)

    def from_coeffs(self, coeffs) -> "QuaternionElement":
        w, a, b, c = coeffs
        return self.el(w, a, b, c)

    def __eq__(self, other):
        return (
            isinstance(other, QuaternionAlgebra)
            and (other.base is self.base or other.base == self.base)
            and other.d == self.d
            and other.t == self.t
        )

    def __hash__(self):
        return hash((self.base, self.d, self.t))

    def __repr__(self):
        return f"({self.d!r}, {self.t!r}) over {self.base!r}"


def _coordinate(base, x) -> FieldElement:
    """x as an element of `base`: an element of `base` itself, tested by
    identity, passes through, and the ints 0 and 1 wrap the field's shared
    payloads; anything else is coerced by the field."""
    if isinstance(x, FieldElement):
        if x.field is base:
            return x
    elif type(x) is int and (x == 0 or x == 1):
        return FieldElement(base, base.one() if x else base.zero())
    return base(x)


def _wrap(alg, w, a, b, c) -> "QuaternionElement":
    """The element of `alg` with coordinate payloads w, a, b, c."""
    base = alg.base
    return QuaternionElement(alg, (
        FieldElement(base, w),
        FieldElement(base, a),
        FieldElement(base, b),
        FieldElement(base, c),
    ))


class QuaternionElement:
    """w + a*i + b*j + c*ij with coefficients in the base field.

    Elements are immutable, so the reduced norm is computed on first use
    and kept in `_nrd`.  Arithmetic reads the coordinates' payloads and
    wraps only the results.
    """

    __slots__ = ("algebra", "coeffs", "_nrd")

    def __init__(self, algebra: QuaternionAlgebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        self._nrd = None

    def _same_algebra(self, other) -> bool:
        return other.algebra is self.algebra or other.algebra == self.algebra

    def _check_algebra(self, other):
        if not self._same_algebra(other):
            raise AlgebraMismatch("operands live in different quaternion algebras")

    def _scalar(self, other):
        """A non-quaternion operand as an element of the base field, or
        None when the base field cannot read it."""
        try:
            return _coordinate(self.algebra.base, other)
        except QuatwittError:
            return None

    def _scaled(self, s) -> "QuaternionElement":
        # a central scalar scales every coordinate; the product is a new
        # element, so its nrd is computed afresh from the scaled coordinates
        mul = self.algebra.base.mul
        w, a, b, c = self.coeffs
        return _wrap(
            self.algebra, mul(w.value, s), mul(a.value, s), mul(b.value, s), mul(c.value, s)
        )

    def is_zero(self) -> bool:
        iz = self.algebra.base.is_zero
        w, a, b, c = self.coeffs
        return iz(w.value) and iz(a.value) and iz(b.value) and iz(c.value)

    def is_scalar(self) -> bool:
        iz = self.algebra.base.is_zero
        _w, a, b, c = self.coeffs
        return iz(a.value) and iz(b.value) and iz(c.value)

    def _coordinatewise(self, other, op):
        """self + other or self - other, for op the base field's add or
        sub."""
        w, a, b, c = self.coeffs
        if isinstance(other, QuaternionElement):
            self._check_algebra(other)
            w2, a2, b2, c2 = other.coeffs
            return _wrap(
                self.algebra,
                op(w.value, w2.value),
                op(a.value, a2.value),
                op(b.value, b2.value),
                op(c.value, c2.value),
            )
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        # a scalar moves only the real coordinate
        return QuaternionElement(
            self.algebra, (FieldElement(self.algebra.base, op(w.value, s.value)), a, b, c)
        )

    def __add__(self, other):
        return self._coordinatewise(other, self.algebra.base.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._coordinatewise(other, self.algebra.base.sub)

    def __neg__(self):
        neg = self.algebra.base.neg
        w, a, b, c = self.coeffs
        return _wrap(self.algebra, neg(w.value), neg(a.value), neg(b.value), neg(c.value))

    def __rsub__(self, other):
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        base = self.algebra.base
        neg = base.neg
        w, a, b, c = self.coeffs
        return _wrap(
            self.algebra, base.sub(s.value, w.value), neg(a.value), neg(b.value), neg(c.value)
        )

    def __mul__(self, other):
        if not isinstance(other, QuaternionElement):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            return self._scaled(s.value)
        self._check_algebra(other)
        alg = self.algebra
        base = alg.base
        iz = base.is_zero
        w1, a1, b1, c1 = self.coeffs
        w1, a1, b1, c1 = w1.value, a1.value, b1.value, c1.value
        w2, a2, b2, c2 = other.coeffs
        w2, a2, b2, c2 = w2.value, a2.value, b2.value, c2.value
        if iz(a2) and iz(b2) and iz(c2):
            return self._scaled(w2)
        if iz(a1) and iz(b1) and iz(c1):
            return other._scaled(w1)
        add, sub, mul = base.add, base.sub, base.mul
        d = alg.d.value
        t = alg.t.value
        # (w1 + a1 i + b1 j + c1 ij)(w2 + a2 i + b2 j + c2 ij) with
        # i^2 = d, j^2 = t, ij = -ji
        return _wrap(
            alg,
            add(
                add(mul(w1, w2), mul(d, sub(mul(a1, a2), mul(t, mul(c1, c2))))),
                mul(t, mul(b1, b2)),
            ),
            add(add(mul(w1, a2), mul(a1, w2)), mul(t, sub(mul(c1, b2), mul(b1, c2)))),
            add(add(mul(w1, b2), mul(b1, w2)), mul(d, sub(mul(a1, c2), mul(c1, a2)))),
            add(add(mul(w1, c2), mul(c1, w2)), sub(mul(a1, b2), mul(b1, a2))),
        )

    def __rmul__(self, other):
        # only a non-quaternion operand reaches here, and it is central
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self._scaled(s.value)

    def __truediv__(self, other):
        if not isinstance(other, QuaternionElement):
            s = self._scalar(other)
            if s is None:
                return NotImplemented
            other = self.algebra.scalar(s)
        return self * other.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = self.algebra.one()
        acc = self
        e = n
        while e:
            if e & 1:
                out = out * acc
            acc = acc * acc
            e >>= 1
        return out

    def conj(self) -> "QuaternionElement":
        base = self.algebra.base
        neg = base.neg
        w, a, b, c = self.coeffs
        return QuaternionElement(self.algebra, (
            w,
            FieldElement(base, neg(a.value)),
            FieldElement(base, neg(b.value)),
            FieldElement(base, neg(c.value)),
        ))

    def trd(self) -> FieldElement:
        return self.coeffs[0] + self.coeffs[0]

    def nrd(self) -> FieldElement:
        if self._nrd is None:
            alg = self.algebra
            base = alg.base
            sub, mul = base.sub, base.mul
            w, a, b, c = self.coeffs
            w, a, b, c = w.value, a.value, b.value, c.value
            t = alg.t.value
            # w^2 - d*a^2 - t*b^2 + d*t*c^2
            self._nrd = FieldElement(base, sub(
                sub(mul(w, w), mul(alg.d.value, sub(mul(a, a), mul(t, mul(c, c))))),
                mul(t, mul(b, b)),
            ))
        return self._nrd

    def inv(self) -> "QuaternionElement":
        n = self.nrd()
        base = self.algebra.base
        if base.is_zero(n.value):
            raise ZeroElement("element with zero reduced norm is not invertible")
        mul = base.mul
        ninv = base.inv(n.value)
        minus = base.neg(ninv)
        w, a, b, c = self.coeffs
        # conj(u) / nrd(u)
        return _wrap(
            self.algebra,
            mul(w.value, ninv),
            mul(a.value, minus),
            mul(b.value, minus),
            mul(c.value, minus),
        )

    def __eq__(self, other):
        if isinstance(other, QuaternionElement):
            return self._same_algebra(other) and other.coeffs == self.coeffs
        s = self._scalar(other)
        return s is not None and self.is_scalar() and self.coeffs[0].value == s.value

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def __repr__(self):
        terms = []
        for name, c in zip(_BASIS_NAMES, self.coeffs):
            if c.is_zero():
                continue
            cs = repr(c)
            if name == "1":
                terms.append(cs)
            elif cs == "1":
                terms.append(name)
            elif cs == "-1":
                terms.append(f"-{name}")
            elif any(ch in cs for ch in "+-*/ ") and not (
                cs.startswith("-") and not any(ch in cs[1:] for ch in "+-*/ ")
            ):
                terms.append(f"({cs})*{name}")
            else:
                terms.append(f"{cs}*{name}")
        if not terms:
            return "0"
        out = terms[0]
        for term in terms[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out


def left_regular_matrix(u: QuaternionElement):
    """Matrix of x -> u*x on the basis (1, i, j, ij); columns are images.

    Its determinant equals nrd(u)^2, which serves as an independent
    cross-check on the multiplication table.
    """
    alg = u.algebra
    cols = []
    for gen in (alg.one(), alg.i(), alg.j(), alg.ij()):
        cols.append((u * gen).coeffs)
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def extval(v, u: QuaternionElement) -> Fraction:
    """The value (1/2) v(nrd(u)) of the extended valuation on the algebra.

    Returns INF on the zero element.
    """
    n = u.nrd()
    vn = v.value(n)
    if vn is INF:
        if not u.is_zero():
            raise ZeroElement(
                "reduced norm vanished on a nonzero element; the extended "
                "valuation needs a division algebra over the completion"
            )
        return INF
    return Fraction(vn, 2)


# ---------------------------------------------------------------------------
# ramification at a discrete valuation of the base field


class RamificationReport(NamedTuple):
    ramified: bool
    tame_class: FieldElement
    unit_rep: Optional[Tuple[FieldElement, FieldElement]]
    residue_params: Optional[Tuple[FieldElement, FieldElement]]
    split_over_residue: Optional[bool]


def _square_in_residue_field(rf, a: FieldElement) -> bool:
    return rf.is_square(a.value)


def _strip_even(v, a: FieldElement) -> Tuple[FieldElement, int]:
    """Scale a by an even uniformizer power into value 0 or 1."""
    m = v.value(a)
    return _even_scaled(v, a, m), m % 2


def _unit_parameters(alg: QuaternionAlgebra, v):
    """Unit parameters (d0, t0) of an isomorphic algebra, or None if the
    algebra is ramified at v."""
    d, t = alg.d, alg.t
    d0, pd = _strip_even(v, d)
    t0, pt = _strip_even(v, t)
    if pd == 0 and pt == 0:
        return d0, t0
    if pd == 1 and pt == 1:
        # (d, t) = (d, -d*t); the second slot then has even value
        return _unit_parameters(QuaternionAlgebra(alg.base, d0, -(d0 * t0)), v)
    unit = d0 if pd == 0 else t0
    # one slot has odd value: the algebra splits over the completion iff
    # the unit slot residue is a square, and is ramified otherwise
    if _square_in_residue_field(v.residue_field, v.residue(unit)):
        one = alg.base(1)
        return one, one
    return None


def tame_class(alg: QuaternionAlgebra, v) -> FieldElement:
    """Residue of (-1)^(v(d)v(t)) * d^v(t) * t^(-v(d)); a square in the
    residue field exactly when the algebra is unramified at v."""
    vd, vt = v.value(alg.d), v.value(alg.t)
    return v.residue(_tame_element(alg.base, alg.d, alg.t, vd, vt))


def ramification(alg: QuaternionAlgebra, v) -> RamificationReport:
    """Ramification analysis of (d, t) at a valuation of the base field.

    Unramified means the algebra admits unit parameters up to isomorphism;
    the residue algebra is then the quaternion algebra of their residues,
    and `split_over_residue` records whether that algebra splits.

    The report depends only on (alg, v) and the fault state, so it is
    computed once per such triple and then looked up by value.
    """
    return _ramification(alg, v, faults.active_names())


@lru_cache(maxsize=MEMO_SIZE)
def _ramification(alg: QuaternionAlgebra, v, fault_state) -> RamificationReport:
    # the fault state is part of the key: drop-unit-rep is read here, and
    # a conic valuation's values read negate-fast-path
    tc = tame_class(alg, v)
    if faults.DROP_UNIT_REP in fault_state:
        # corrupted variant for sensitivity tests: the raw parameters are
        # treated as unit representatives without any scaling
        rep = (alg.d, alg.t)
    else:
        rep = _unit_parameters(alg, v)
    if rep is None:
        return RamificationReport(
            ramified=True,
            tame_class=tc,
            unit_rep=None,
            residue_params=None,
            split_over_residue=None,
        )
    d0, t0 = rep
    dbar = v.residue(d0)
    tbar = v.residue(t0)
    split = residue_algebra_splits(v.residue_field, dbar, tbar)
    return RamificationReport(
        ramified=False,
        tame_class=tc,
        unit_rep=rep,
        residue_params=(dbar, tbar),
        split_over_residue=split,
    )


# ---------------------------------------------------------------------------
# splitting decision for the residue algebra


def residue_algebra_splits(rf, a: FieldElement, b: FieldElement) -> bool:
    if a.is_zero() or b.is_zero():
        raise ZeroElement("residue parameters must be nonzero units")
    if isinstance(rf, FiniteField):
        # every quaternion algebra over a finite field splits
        return True
    if isinstance(rf, FunctionField) and isinstance(rf.base, FiniteField):
        return _splits_over_rational_function_field(rf, a, b)
    raise UnsupportedField(f"no splitting decision over {rf!r}")


def _place_value(factor, num, den, base):
    def mult(poly):
        if not poly:
            return 0
        count = 0
        while True:
            q, r = poly_divmod(base, poly, factor)
            if r:
                return count
            poly = q
            count += 1

    return mult(num) - mult(den)


def _residue_at_place(base: FiniteField, factor, num, den):
    """Residue of num/den in GF(p^deg f) = base[s]/(f); needs place value 0."""

    def strip(poly):
        while True:
            q, r = poly_divmod(base, poly, factor)
            if r:
                return poly
            poly = q

    q = base.p ** poly_deg(factor)
    n0 = poly_divmod(base, strip(num), factor)[1]
    d0 = poly_divmod(base, strip(den), factor)[1]
    d_inv = poly_pow_mod(base, d0, q - 2, factor)
    return poly_divmod(base, poly_mul(base, n0, d_inv), factor)[1]


def _is_square_mod(base: FiniteField, poly, factor) -> bool:
    """Euler criterion for a nonzero class of GF(p^deg f)."""
    q = base.p ** poly_deg(factor)
    power = poly_pow_mod(base, poly, (q - 1) // 2, factor)
    return poly_deg(power) == 0 and power[0] == base.one()


def _splits_over_rational_function_field(rf: FunctionField, a, b) -> bool:
    """Split test for (a, b) over GF(p)(s): the tame class must be a
    square in the residue field of every place where either slot has a
    nonzero value (elsewhere the class is 1).  Finite places run over the
    monic irreducible factors of both slots; the degree place uses 1/s."""
    base = rf.base
    num_a, den_a = a.value
    num_b, den_b = b.value
    places = set()
    for poly in (num_a, den_a, num_b, den_b):
        places.update(poly_monic_irreducible_factors(base, poly))
    for f in sorted(places, key=lambda f: (poly_deg(f), f)):
        va = _place_value(f, num_a, den_a, base)
        vb = _place_value(f, num_b, den_b, base)
        if va == 0 and vb == 0:
            continue
        u = _tame_element(rf, a, b, va, vb)
        un, ud = u.value
        r = _residue_at_place(base, f, un, ud)
        if not _is_square_mod(base, r, f):
            return False
    va = poly_deg(den_a) - poly_deg(num_a)
    vb = poly_deg(den_b) - poly_deg(num_b)
    if va != 0 or vb != 0:
        u = _tame_element(rf, a, b, va, vb)
        un, ud = u.value
        # a unit at the degree place has num and den of equal degree; its
        # residue there is the ratio of leading coefficients
        lc = base.div(un[-1], ud[-1])
        if not base.is_square(lc):
            return False
    return True


def _tame_element(field, a, b, va: int, vb: int):
    """(-1)^(va*vb) * a^vb * b^(-va) in `field`, for a and b of values va
    and vb at some place."""
    sign = field(-1) if (va * vb) % 2 else field(1)
    return sign * a**vb * b ** (-va)
