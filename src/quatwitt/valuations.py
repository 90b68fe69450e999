"""Discrete valuations on the tower, with residue-field projections.

Three kinds, mirroring the tower levels they live on:

    PAdicValuation(p)            on Rationals; residue field F_p
    GaussValuation(inner, L)     on a FunctionField L = K(var); the value of
                                 a polynomial is the minimum inner value of
                                 its coefficients, of a fraction the
                                 difference; over K = Q it is the p-adic
                                 value of the payload's content, since its
                                 primitive N and D have value 0 (Gauss's
                                 lemma); residue field kbar(var)
    ConicValuation(inner, C)     on a ConicExtension C with unit parameters;
                                 the value of A + B*y is min(v'(A), v'(B)),
                                 which is half the Gauss value of the norm
                                 A^2 - B^2*theta because theta-bar is never
                                 a square in kbar(x); residue field is the
                                 conic extension of the residue field by
                                 the parameter residues

All values are normalized integers; v(0) is the +infinity sentinel INF.
Residues require value >= 0 and are functorial ring maps.  `value`
checks the element's level once and values its raw payload; each level
values its coefficients' payloads directly, without wrapping them again.
`residue` does the same through `_residue`.  `check_field` is the level
check alone, for callers that value or reduce many payloads of one field.
"""

from __future__ import annotations

import math

from .errors import (
    LevelMismatch,
    NegativeValue,
    RamifiedParameters,
)
from .fields import (
    ConicExtension,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
    poly_trim,
)

INF = math.inf


class _ValuationBase:
    def value(self, a: FieldElement):
        self._check_domain(a)
        return self._value(a.value)

    def _value(self, payload):
        """The value of a raw payload of the domain."""
        raise NotImplementedError

    def residue(self, a: FieldElement) -> FieldElement:
        self._check_domain(a)
        return self.residue_field.el(self._residue(a.value))

    def _residue(self, payload):
        """The residue payload of a raw payload of the domain; raises
        NegativeValue below value 0."""
        raise NotImplementedError

    def _check_domain(self, a):
        if not isinstance(a, FieldElement):
            raise LevelMismatch(f"element is not at the level of {self!r}")
        self.check_field(a.field)

    def check_field(self, field):
        """Raise LevelMismatch unless `field` is the domain.  A caller
        holding many payloads of one field checks it once here and then
        calls `_value` or `_residue` on each payload."""
        if field is not self.domain and field != self.domain:
            raise LevelMismatch(f"element is not at the level of {self!r}")


class PAdicValuation(_ValuationBase):
    """The p-adic valuation on the rationals, p an odd prime."""

    kind = "padic"

    def __init__(self, p: int):
        self.residue_field = FiniteField(p)  # rejects p = 2
        self.p = p
        self.domain = Rationals()
        self.uniformizer = self.domain(p)

    def __repr__(self):
        return f"PAdicValuation({self.p})"

    def __eq__(self, other):
        return isinstance(other, PAdicValuation) and other.p == self.p

    def __hash__(self):
        return hash(("PAdicValuation", self.p))

    def descriptor(self):
        return {"kind": "padic", "p": self.p}

    def _vp(self, n: int) -> int:
        if n == 0:
            return INF
        out = 0
        while n % self.p == 0:
            n //= self.p
            out += 1
        return out

    def _value(self, payload):
        n, d = payload
        p = self.p
        # a fraction prime to p is a unit; p divides 0
        if n % p and d % p:
            return 0
        if not n:
            return INF
        return self._vp(n) - self._vp(d)

    def _residue(self, payload):
        v = self._value(payload)
        if v < 0:
            raise NegativeValue(f"value {v} < 0, no residue")
        n, d = payload
        k = self.residue_field
        if v > 0 or not n:
            return k.from_int(0)
        return k.div(k.from_int(n), k.from_int(d))


class GaussValuation(_ValuationBase):
    """Coefficientwise extension of an inner valuation to base(var)."""

    kind = "gauss"

    def __init__(self, inner, domain: FunctionField):
        if not isinstance(domain, FunctionField):
            raise LevelMismatch("Gauss valuation lives on a FunctionField level")
        if inner.domain != domain.base:
            raise LevelMismatch("inner valuation does not match the coefficient field")
        self.inner = inner
        self.domain = domain
        self.residue_field = FunctionField(inner.residue_field, domain.var)
        self.uniformizer = domain.lift(inner.uniformizer)
        # over Q the payload is (c, N, D) with N and D primitive
        self._over_q = isinstance(domain.base, Rationals)

    def __repr__(self):
        return f"GaussValuation({self.inner!r}, {self.domain!r})"

    def __eq__(self, other):
        return (
            isinstance(other, GaussValuation)
            and other.inner == self.inner
            and other.domain == self.domain
        )

    def __hash__(self):
        return hash(("GaussValuation", self.inner, self.domain))

    def descriptor(self):
        return {"kind": "gauss", "inner": self.inner.descriptor()}

    def _poly_value(self, coeffs):
        inner_value = self.inner._value
        return min(map(inner_value, coeffs), default=INF)

    def _value(self, payload):
        if self._over_q:
            # Gauss's lemma: primitive N and D have value 0 at every p
            return self.inner._value(payload[0])
        num, den = payload
        if not num:
            return INF
        return self._poly_value(num) - self._poly_value(den)

    def _residue(self, payload):
        v = self._value(payload)
        if v < 0:
            raise NegativeValue(f"value {v} < 0, no residue")
        rf = self.residue_field
        if v > 0 or v is INF:
            return rf.from_int(0)
        k = rf.base
        inner_residue = self.inner._residue
        if self._over_q:
            # c is a unit and D is primitive, so the residue is
            # cbar*Nbar/Dbar with Dbar nonzero
            c, num, den = payload
            cbar = inner_residue(c)
            p = k.p
            return rf.make(tuple([cbar * e % p for e in num]),
                           tuple([e % p for e in den]))
        num, den = payload
        m = self._poly_value(den)
        # scale so the denominator has value exactly 0, then reduce
        # coefficientwise; the scaled numerator has value v >= 0
        mul = self.domain.base.mul
        scale = (self.inner.uniformizer ** (-m)).value
        rnum = [inner_residue(mul(c, scale)) for c in num]
        rden = [inner_residue(mul(c, scale)) for c in den]
        return rf.make(poly_trim(k, rnum), poly_trim(k, rden))


class ConicValuation(_ValuationBase):
    """Half-norm extension of a Gauss valuation to a conic extension.

    Requires unit conic parameters (the unramified setting).  The value
    of alpha = A + B*y is (1/2) v'(A^2 - B^2*theta), which equals
    min(v'(A), v'(B)) whether or not the residue algebra splits:
    theta-bar = (1 - dbar*x^2)/tbar has simple roots, so it is never a
    square in kbar(x), and the leading terms of A^2 and B^2*theta cannot
    cancel.
    """

    kind = "conic-half-norm"

    def __init__(self, inner: GaussValuation, domain: ConicExtension):
        if not isinstance(domain, ConicExtension):
            raise LevelMismatch("conic valuation lives on a ConicExtension level")
        if not isinstance(inner, GaussValuation) or inner.domain != domain.inner:
            raise LevelMismatch("inner Gauss valuation must live on base(x)")
        base_val = inner.inner
        vd = base_val.value(domain.base.el(domain.d))
        vt = base_val.value(domain.base.el(domain.t))
        if vd != 0 or vt != 0:
            raise RamifiedParameters(
                f"conic parameters have values ({vd}, {vt}); both must be units"
            )
        self.inner = inner
        self.domain = domain
        dbar = base_val.residue(domain.base.el(domain.d))
        tbar = base_val.residue(domain.base.el(domain.t))
        self.residue_field = ConicExtension(base_val.residue_field, dbar, tbar)
        self.uniformizer = domain.lift(inner.uniformizer)

    def __repr__(self):
        return f"ConicValuation({self.inner!r}, {self.domain!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ConicValuation)
            and other.inner == self.inner
            and other.domain == self.domain
        )

    def __hash__(self):
        return hash(("ConicValuation", self.inner, self.domain))

    def descriptor(self):
        return {"kind": "conic-half-norm", "inner": self.inner.descriptor()}

    def _value(self, payload):
        A, B = payload
        return min(self.inner._value(A), self.inner._value(B))

    def _residue(self, payload):
        v = self._value(payload)
        if v < 0:
            raise NegativeValue(f"value {v} < 0, no residue")
        if v is INF:
            return self.residue_field.from_int(0)
        A, B = payload
        # value >= 0 forces both coordinates to have value >= 0: the norm
        # residue theta-bar is a nonsquare in the residue function field
        return (self.inner._residue(A), self.inner._residue(B))


class TransportedConicValuation(_ValuationBase):
    """Valuation on a conic extension whose parameters have even nonzero
    values at the base valuation.

    With d = d0 * pi^(2*alpha) and t = t0 * pi^(2*beta) for units d0, t0,
    the substitution x -> pi^(-alpha) * x, y -> pi^(-beta) * y identifies
    the conic of (d, t) with the unit-parameter conic of (d0, t0);
    elements are pushed through it and valued in the unit model.
    """

    kind = "conic-transported"

    def __init__(self, domain: ConicExtension, target: ConicValuation, alpha: int, beta: int):
        if not isinstance(domain, ConicExtension):
            raise LevelMismatch("transported valuation lives on a ConicExtension level")
        if target.domain.base != domain.base:
            raise LevelMismatch("unit model must share the coefficient field")
        self.domain = domain
        self.target = target
        self.alpha = alpha
        self.beta = beta
        self.residue_field = target.residue_field
        self._base_val = target.inner.inner
        self.uniformizer = domain.lift(self._base_val.uniformizer)

    def _push_poly(self, cs, extra: int):
        base = self.domain.base
        pi = self._base_val.uniformizer
        out = [
            (base.el(c) * pi ** (-self.alpha * k + extra)).value
            for k, c in enumerate(cs)
        ]
        return poly_trim(base, out)

    def _push(self, payload):
        """The payload in the unit model of an element given by its payload."""
        A, B = payload
        f, f0 = self.domain.inner, self.target.domain.inner

        def frac(coords, extra):
            num, den = f.num_den(coords)
            return f0.make(self._push_poly(num, extra), self._push_poly(den, 0))

        return (frac(A, 0), frac(B, -self.beta))

    def _value(self, payload):
        return self.target._value(self._push(payload))

    def _residue(self, payload):
        return self.target._residue(self._push(payload))

    def __repr__(self):
        return f"TransportedConicValuation({self.target!r}, {self.alpha}, {self.beta})"

    def __eq__(self, other):
        return (
            isinstance(other, TransportedConicValuation)
            and other.domain == self.domain
            and other.target == self.target
            and (other.alpha, other.beta) == (self.alpha, self.beta)
        )

    def __hash__(self):
        return hash(("TransportedConicValuation", self.domain, self.target, self.alpha, self.beta))

    def descriptor(self):
        return {
            "kind": "conic-transported",
            "target": self.target.descriptor(),
            "alpha": self.alpha,
            "beta": self.beta,
        }
