"""Quaternion algebras (d, t) over a tower field, with reduced norms,
valuation extension data, and ramification analysis at a discrete
valuation of the base field.

Basis 1, i, j, ij with i^2 = d, j^2 = t, ij = -ji.  The base field must
have characteristic different from 2, which every tower field satisfies
by construction.

Element arithmetic runs on the base field's raw payloads: add, sub, neg,
conj, is_zero, is_scalar, inv and mul read each coordinate's `.value`,
call the base field's add, sub, mul, neg and is_zero, and wrap only the
result coordinates as FieldElements.  nrd is one evaluation of the norm
form <1, -d, -t, d*t> at the coordinates by the base field's
eval_diagonal, and wraps only the norm.  A
central scalar operand, a scalar quaternion or a bare element of the
base, scales the coordinates; the scalar 1 returns the other operand.
The field methods are looked up on every operation, so a rebound field
method sees every call.  `coeffs` stays a tuple of FieldElements.  The
coordinates 0 and 1 of `el`, and so of zero(), one() and the basis
elements, wrap the base field's shared payloads.  Extended values
(`nrd_values`, `extvals`) and the ramification report check the
valuation's level once and then value payloads.

No element is cached on a QuaternionAlgebra, only the payloads of its
norm form: an element points back to its algebra, so an element kept on
the algebra would make every drawn algebra cyclic garbage, freed only by
the cycle collector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

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
    _poly_terms,
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
    """The quaternion algebra (d, t) over a base field, with the payloads
    (1, -d, -t, d*t) of its reduced norm form."""

    __slots__ = ("base", "d", "t", "norm_form")

    def __init__(self, base, d, t):
        d = base(d)
        t = base(t)
        if d.is_zero() or t.is_zero():
            raise ValueError("quaternion parameters must be nonzero")
        self.base = base
        self.d = d
        self.t = t
        dv, tv = d.value, t.value
        self.norm_form = (base.one(), base.neg(dv), base.neg(tv), base.mul(dv, tv))

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
    and kept in `_nrd`, and a product with the central scalar 1, on either
    side, is the element itself.  Arithmetic reads the coordinates'
    payloads and wraps only the results.
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
        # a central scalar scales every coordinate; elements are immutable,
        # so u*1 is u itself with its nrd memo, and any other scalar gives a
        # new element whose nrd is computed afresh from its coordinates
        base = self.algebra.base
        if s == base.one():
            return self
        mul = base.mul
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

    def nrd(self) -> FieldElement:
        """w^2 - d*a^2 - t*b^2 + d*t*c^2: the algebra's norm form at the
        coordinates, by the base field's eval_diagonal, computed once."""
        if self._nrd is None:
            alg = self.algebra
            w, a, b, c = self.coeffs
            self._nrd = FieldElement(alg.base, alg.base.eval_diagonal(
                alg.norm_form, (w.value, a.value, b.value, c.value)
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
        # each basis term is written as the one-term polynomial c or c*name
        # by the tower's printer, which places parentheses and signs from
        # the coefficient's shape; a later term's minus becomes the
        # separator, as between the terms of a polynomial
        base = self.algebra.base
        zero = base.zero()
        out, memo, shape = [], {}, -1
        for name, c in zip(_BASIS_NAMES, self.coeffs):
            if c.is_zero():
                continue
            if shape >= 0:
                out.append(" + ")
            at = len(out)
            cs = (c.value,) if name == "1" else (zero, c.value)
            s = _poly_terms(cs, name, 0, out, base, memo)
            if shape < 0:
                shape = s
            elif s & 1:
                out[at - 1] = " - "
                out[at] = out[at][1:]
        return "".join(out) if out else "0"


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


def extvals(v, elements) -> Tuple[Fraction, ...]:
    """The value (1/2) v(nrd(u)) of the extended valuation on the algebra
    of each element u, INF on the zero element; equal values share one
    Fraction."""
    return tuple(map(_half, nrd_values(v, elements)))


@lru_cache(maxsize=MEMO_SIZE)
def _half(vn) -> Fraction:
    return INF if vn is INF else Fraction(vn, 2)


def nrd_values(v, elements):
    """The list of v(nrd(u)), twice the extended value, over the
    elements u; INF on the zero element.

    The level of the reduced norms is checked once per base field object,
    and each norm's payload is valued directly.
    """
    checked = None
    value = v._value
    out = []
    for u in elements:
        base = u.algebra.base
        if base is not checked:
            v.check_field(base)
            checked = base
        vn = value(u.nrd().value)
        if vn is INF and not u.is_zero():
            raise ZeroElement(
                "reduced norm vanished on a nonzero element; the extended "
                "valuation needs a division algebra over the completion"
            )
        out.append(vn)
    return out


# ---------------------------------------------------------------------------
# ramification at a discrete valuation of the base field


class RamificationReport(NamedTuple):
    ramified: bool
    tame_class: FieldElement
    unit_rep: Optional[Tuple[FieldElement, FieldElement]]
    residue_params: Optional[Tuple[FieldElement, FieldElement]]
    split_over_residue: Optional[bool]


def _parameter_values(alg: QuaternionAlgebra, v):
    """(v(d), v(t)), with the level of the parameters checked once."""
    v.check_field(alg.base)
    return v._value(alg.d.value), v._value(alg.t.value)


def _unit_parameters(alg: QuaternionAlgebra, v, vd, vt):
    """Unit parameters (d0, t0) of an isomorphic algebra, or None if the
    algebra is ramified at v; vd and vt are the parameters' values."""
    # scale each parameter by an even uniformizer power into value 0 or 1
    d0, pd = _even_scaled(v, alg.d, vd), vd % 2
    t0, pt = _even_scaled(v, alg.t, vt), vt % 2
    if pd == 0 and pt == 0:
        return d0, t0
    if pd == 1 and pt == 1:
        # (d, t) = (d, -d*t); the second slot then has even value
        alg = QuaternionAlgebra(alg.base, d0, -(d0 * t0))
        return _unit_parameters(alg, v, *_parameter_values(alg, v))
    unit = d0 if pd == 0 else t0
    # one slot has odd value: the algebra splits over the completion iff
    # the unit slot residue is a square, and is ramified otherwise
    if v.residue_field.is_square(v._residue(unit.value)):
        one = alg.base(1)
        return one, one
    return None


def tame_class(alg: QuaternionAlgebra, v, vd, vt) -> FieldElement:
    """Residue of (-1)^(vd*vt) * d^vt * t^(-vd) for the values vd, vt of
    d, t (`_parameter_values`); a square in the residue field exactly
    when the algebra is unramified at v."""
    u = _tame_element(alg.base, alg.d.value, alg.t.value, vd, vt)
    return v.residue_field.el(v._residue(u))


def ramification(alg: QuaternionAlgebra, v) -> RamificationReport:
    """Ramification analysis of (d, t) at a valuation of the base field.

    Unramified means the algebra admits unit parameters up to isomorphism;
    the residue algebra is then the quaternion algebra of their residues,
    and `split_over_residue` records whether that algebra splits.

    The report depends only on (alg, v), so `_ramification` computes it
    once per pair and then looks it up by value.
    """
    return _ramification(alg, v)


@lru_cache(maxsize=MEMO_SIZE)
def _ramification(alg: QuaternionAlgebra, v) -> RamificationReport:
    # built on payloads, with the level checked once here
    vd, vt = _parameter_values(alg, v)
    tc = tame_class(alg, v, vd, vt)
    rep = _unit_parameters(alg, v, vd, vt)
    if rep is None:
        return RamificationReport(
            ramified=True,
            tame_class=tc,
            unit_rep=None,
            residue_params=None,
            split_over_residue=None,
        )
    d0, t0 = rep
    rf = v.residue_field
    dbar = rf.el(v._residue(d0.value))
    tbar = rf.el(v._residue(t0.value))
    split = residue_algebra_splits(rf, dbar, tbar)
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
        un, ud = _tame_element(rf, a.value, b.value, va, vb)
        r = _residue_at_place(base, f, un, ud)
        if not _is_square_mod(base, r, f):
            return False
    va = poly_deg(den_a) - poly_deg(num_a)
    vb = poly_deg(den_b) - poly_deg(num_b)
    if va != 0 or vb != 0:
        un, ud = _tame_element(rf, a.value, b.value, va, vb)
        # a unit at the degree place has num and den of equal degree; its
        # residue there is the ratio of leading coefficients
        lc = base.div(un[-1], ud[-1])
        if not base.is_square(lc):
            return False
    return True


def _tame_element(field, a, b, va: int, vb: int):
    """The payload of (-1)^(va*vb) * a^vb * b^(-va) in `field`, for
    payloads a and b of values va and vb at some place; a zero exponent
    leaves its factor out."""
    out = field.from_int(-1 if (va * vb) % 2 else 1)
    for x, e in ((a, vb), (b, -va)):
        if e:
            out = field.mul(out, (field.el(x) ** e).value)
    return out
