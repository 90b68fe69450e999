"""Skew-hermitian forms over a quaternion algebra, their exact
diagonalization, and the good-reduction certificate at a valuation of
the base field.

`diagonalize_h` runs `quadforms.congruence_diagonalize`, the routine
that also diagonalizes symmetric Gram matrices over a field, with the
algebra's conjugation.

A form is an n x n Gram matrix G over the algebra with conj(G[l][k])
equal to -G[k][l]; the pairing is conjugate-linear in the first slot.
Nondegeneracy is checked on the 4n x 4n base-field model built from
left-regular blocks, which detects singular Gram matrices over split
algebras as well.  A diagonal Gram matrix skips building the model: its
model is block diagonal with determinant the product of nrd(delta_k)^2.
Whether the matrix is diagonal is found by the skew check, which reads
the entries' payloads and builds no field element, and is recorded;
`SkewHermitianForm.diagonal` checks only the entries it is given, since
the zeros it places are skew.  A form also keeps the last good-reduction
certificate computed for it.

The certificate needs only the diagonal entries, which
`diagonalized_entries` gives without building the basis change that
`diagonalize_h` returns.  It checks once that the valuation lives on
the algebra's base field and then values reduced norms and coordinates
as raw payloads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from . import quaternions
from .errors import (
    AlgebraMismatch,
    CertificateFailed,
    Degenerate,
    DimensionMismatch,
    RamifiedAlgebra,
    ZeroScalar,
)
from .quadforms import congruence_diagonalize, mat_det, mat_mul
from .quaternions import (
    QuaternionAlgebra,
    QuaternionElement,
    RamificationReport,
    extvals,
    left_regular_matrix,
    nrd_values,
    ramification,
)

CERTIFIED = "certified"
NO_CERTIFICATE = "no-certificate"


class SkewHermitianForm:
    """A nondegenerate skew-hermitian Gram matrix over a quaternion algebra."""

    # _certificate holds (v, ramification memo, certificate) from the
    # last good_reduction_certificate call that returned
    __slots__ = ("algebra", "gram", "_diagonal", "_certificate")

    def __init__(self, algebra: QuaternionAlgebra, gram):
        n = len(gram)
        if n == 0:
            raise DimensionMismatch("the form needs at least one basis vector")
        rows = []
        for row in gram:
            if len(row) != n:
                raise DimensionMismatch("gram matrix must be square")
            rows.append(tuple([_as_element(algebra, u) for u in row]))
        # conj(u) = -u exactly when u is pure (char != 2), and the (l, k)
        # condition is the conjugate of the (k, l) one, so the form is
        # diagonal exactly when every entry above the diagonal is zero;
        # conj(w' + a'i + b'j + c'ij) = -(w + ai + bj + cij) reads
        # w' + w = 0 and (a', b', c') = (a, b, c), checked on the payloads
        base = algebra.base
        iz, add = base.is_zero, base.add
        _check_pure_diagonal(base, [rows[k][k] for k in range(n)])
        diagonal = True
        for k in range(n):
            for l in range(k + 1, n):
                w, a, b, c = rows[k][l].coeffs
                w2, a2, b2, c2 = rows[l][k].coeffs
                if not (
                    iz(add(w.value, w2.value))
                    and a.value == a2.value
                    and b.value == b2.value
                    and c.value == c2.value
                ):
                    raise ValueError("gram matrix is not skew-hermitian")
                diagonal = diagonal and rows[k][l].is_zero()
        self._setup(algebra, tuple(rows), diagonal)

    def _setup(self, algebra, rows, diagonal):
        """Keep the checked rows and refuse a singular form."""
        n = len(rows)
        self.algebra = algebra
        self.gram = rows
        self._diagonal = diagonal
        self._certificate = None
        if diagonal:
            singular = any(rows[k][k].nrd().is_zero() for k in range(n))
        else:
            big = []
            for k in range(n):
                blocks = [left_regular_matrix(self.gram[k][l]) for l in range(n)]
                for r in range(4):
                    big.append([blocks[l][r][c] for l in range(n) for c in range(4)])
            singular = mat_det(algebra.base, big).is_zero()
        if singular:
            raise Degenerate("skew-hermitian gram matrix is singular")

    @classmethod
    def diagonal(cls, algebra: QuaternionAlgebra, entries) -> "SkewHermitianForm":
        """The diagonal form with these entries.  The zeros it places off
        the diagonal meet the skew condition, so only the entries are
        checked, as the constructor checks them."""
        entries = [_as_element(algebra, u) for u in entries]
        n = len(entries)
        if n == 0:
            raise DimensionMismatch("the form needs at least one basis vector")
        _check_pure_diagonal(algebra.base, entries)
        zero = algebra.zero() if n > 1 else None
        gram = tuple(
            tuple([entries[k] if k == l else zero for l in range(n)]) for k in range(n)
        )
        form = cls.__new__(cls)
        form._setup(algebra, gram, True)
        return form

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_diagonal(self) -> bool:
        return self._diagonal

    def diagonal_entries(self) -> Tuple[QuaternionElement, ...]:
        return tuple(self.gram[k][k] for k in range(self.rank))

    def scale(self, lam) -> "SkewHermitianForm":
        """The central twist lam*h, whose Morita image is lam times h's;
        public for a proof of bad reduction, which compares twists."""
        lam = self.algebra.base(lam)
        if lam.is_zero():
            raise ZeroScalar("scaling by zero destroys the form")
        return SkewHermitianForm(
            self.algebra,
            [[u * lam for u in row] for row in self.gram],
        )

    def transform(self, p) -> "SkewHermitianForm":
        """Base change conj(P)^t * G * P; P singular raises Degenerate.
        Public for callers that move a form off the diagonal, as an
        isometry certificate and non-diagonal batteries will."""
        n = self.rank
        p = [
            [_as_element(self.algebra, p[r][c]) for c in range(n)] for r in range(n)
        ]
        pc = [[p[r][c].conj() for r in range(n)] for c in range(n)]
        gp = mat_mul(self.gram, p)
        return SkewHermitianForm(self.algebra, mat_mul(pc, gp))

    def __eq__(self, other):
        return (
            isinstance(other, SkewHermitianForm)
            and other.algebra == self.algebra
            and other.gram == self.gram
        )

    def __repr__(self):
        rows = "; ".join(
            "[" + ", ".join(repr(u) for u in row) + "]" for row in self.gram
        )
        return f"skew-hermitian [{rows}]"


def _check_pure_diagonal(base, diagonal):
    iz = base.is_zero
    for u in diagonal:
        if not iz(u.coeffs[0].value):
            raise ValueError("gram matrix is not skew-hermitian")


def _as_element(algebra, u) -> QuaternionElement:
    if isinstance(u, QuaternionElement):
        if u.algebra is not algebra and u.algebra != algebra:
            raise AlgebraMismatch("element from a different algebra")
        return u
    return algebra.scalar(u)


def diagonalize_h(h: SkewHermitianForm):
    """Diagonalize by congruence over the algebra.

    Returns (entries, P) with conj(P)^t * G * P = diag(entries) checked
    exactly; every diagonal entry has nonzero reduced norm.  This is
    `quadforms.congruence_diagonalize` with the conjugation, pivots of
    nonzero reduced norm and the mixers mu*m for mu in (1, i, j, ij) and
    m in (1, 2, 3).  A diagonal form comes back with the identity for P,
    since conj(I)^t * G * I = G holds identically.
    """
    alg = h.algebra
    one, zero = alg.one(), alg.zero()
    if h.is_diagonal():
        n = h.rank
        p = tuple(
            tuple([one if r == c else zero for c in range(n)]) for r in range(n)
        )
        return diagonalized_entries(h), p
    mixers = [mu * m for mu in (one, alg.i(), alg.j(), alg.ij()) for m in (1, 2, 3)]
    entries, p = congruence_diagonalize(
        h.gram,
        one,
        zero,
        QuaternionElement.conj,
        lambda u: not u.nrd().is_zero(),
        mixers,
    )
    _check_pure(entries)
    return entries, tuple(p)


def diagonalized_entries(h: SkewHermitianForm) -> Tuple[QuaternionElement, ...]:
    """The entries of diagonalize_h(h), for callers that do not need P:
    a diagonal form gives its own entries and builds no identity."""
    if not h.is_diagonal():
        return diagonalize_h(h)[0]
    entries = h.diagonal_entries()
    _check_pure(entries)
    return entries


def _check_pure(entries):
    for u in entries:
        if not u.coeffs[0].is_zero():
            raise CertificateFailed("diagonal entry of a skew form must be pure")


class GoodReductionCertificate(NamedTuple):
    status: str
    scaling: Optional[int]
    extvals: Tuple[Fraction, ...]
    diagonal: Tuple[QuaternionElement, ...]
    scaled_diagonal: Optional[Tuple[QuaternionElement, ...]]
    ramification_report: RamificationReport
    # the least value of a nonzero coordinate of each scaled entry
    entry_min_values: Optional[Tuple[int, ...]]

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def common_integral_value(evals) -> Optional[int]:
    """The extended value e shared by every entry, when the entries share
    one and it is an integer; None otherwise.  Scaling by pi^m adds m to
    every extended value, so only such an e can be cleared, and only by
    m = -e: this is the value test of `good_reduction_certificate`, and
    it gives the same answer before and after a central twist.  Equal
    values from `extvals` are one Fraction, so identity settles them."""
    e = evals[0]
    if e.denominator == 1 and all(x is e or x == e for x in evals):
        return e.numerator
    return None


def good_reduction_certificate(h: SkewHermitianForm, v) -> GoodReductionCertificate:
    """Find the central scaling pi^m making the diagonalized form a
    unimodular integral model at v.

    Certified needs every scaled entry to have extended value 0 with all
    coordinates of value >= 0; the certificate keeps each entry's least
    coordinate value for the verifier.  Scaling by pi^m adds m to every
    extended value, so only a common integral entry value e can be
    cleared, and only by m = -e (`common_integral_value`).  The algebra
    must be unramified at v; the certificate carries the ramification
    report that establishes it.  NoCertificate says only that this diagonalization
    has no such scaling; it is not a proof of bad reduction.

    The certificate depends only on the form and v, and a form is
    immutable, so the form keeps the last one returned with the
    ramification memo then in force; a call with the same v object
    under that memo returns it.  An exception is not kept, so a failing
    call fails again.
    """
    memo = h._certificate
    ramification_memo = quaternions._ramification
    if memo is not None and memo[0] is v and memo[1] is ramification_memo:
        return memo[2]
    cert = _certify(h, v)
    h._certificate = (v, ramification_memo, cert)
    return cert


def _scale_entries(v, entries, m):
    """The entries times the central scalar pi^m of v."""
    lam = v.uniformizer**m
    return tuple(u * lam for u in entries)


def _certify(h: SkewHermitianForm, v) -> GoodReductionCertificate:
    report = ramification(h.algebra, v)
    if report.ramified:
        raise RamifiedAlgebra(
            f"{h.algebra!r} is ramified at {v!r}; no residue data exists"
        )
    entries = diagonalized_entries(h)
    evals = extvals(v, entries)
    e = common_integral_value(evals)
    if e is not None:
        m = -e
        scaled = _scale_entries(v, entries, m)
        # extvals checked the level of the entries, which the scaled
        # entries share, so their coordinates are valued as payloads; an
        # entry of nrd value 0 is nonzero, and a zero coordinate passes
        val, iz = v._value, h.algebra.base.is_zero
        if all(vn == 0 for vn in nrd_values(v, scaled)):
            mins = tuple(min([val(c.value) for c in u.coeffs if not iz(c.value)]) for u in scaled)
            if min(mins) >= 0:
                return GoodReductionCertificate(CERTIFIED, m, evals, entries, scaled, report, mins)
    return GoodReductionCertificate(NO_CERTIFICATE, None, evals, entries, None, report, None)
