"""Skew-hermitian forms over a quaternion algebra, their exact
diagonalization, and the good-reduction certificate at a valuation of
the base field.

A form is an n x n Gram matrix G over the algebra with conj(G[l][k])
equal to -G[k][l]; the pairing is conjugate-linear in the first slot.
Nondegeneracy is checked on the 4n x 4n base-field model built from
left-regular blocks, which detects singular Gram matrices over split
algebras as well.  A diagonal Gram matrix skips building the model: its
model is block diagonal with determinant the product of nrd(delta_k)^2.
Whether the matrix is diagonal is found by the skew check, which reads
the entries' payloads and builds no field element, and is recorded.  A
form also keeps the last good-reduction certificate computed for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from . import faults
from .errors import (
    AlgebraMismatch,
    CertificateFailed,
    Degenerate,
    DimensionMismatch,
    RamifiedAlgebra,
    ZeroScalar,
)
from .quadforms import mat_det, mat_mul
from .quaternions import (
    QuaternionAlgebra,
    QuaternionElement,
    RamificationReport,
    extval,
    left_regular_matrix,
    ramification,
)

CERTIFIED = "certified"
NO_CERTIFICATE = "no-certificate"


class SkewHermitianForm:
    """A nondegenerate skew-hermitian Gram matrix over a quaternion algebra."""

    # _certificate holds (v, fault state, certificate) from the last
    # good_reduction_certificate call that returned
    __slots__ = ("algebra", "gram", "_diagonal", "_certificate")

    def __init__(self, algebra: QuaternionAlgebra, gram):
        n = len(gram)
        if n == 0:
            raise DimensionMismatch("the form needs at least one basis vector")
        rows = []
        for row in gram:
            if len(row) != n:
                raise DimensionMismatch("gram matrix must be square")
            out = []
            for u in row:
                if isinstance(u, QuaternionElement):
                    if u.algebra is not algebra and u.algebra != algebra:
                        raise AlgebraMismatch("gram entry from a different algebra")
                    out.append(u)
                else:
                    out.append(algebra.scalar(u))
            rows.append(tuple(out))
        # conj(u) = -u exactly when u is pure (char != 2), and the (l, k)
        # condition is the conjugate of the (k, l) one, so the form is
        # diagonal exactly when every entry above the diagonal is zero;
        # conj(w' + a'i + b'j + c'ij) = -(w + ai + bj + cij) reads
        # w' + w = 0 and (a', b', c') = (a, b, c), checked on the payloads
        base = algebra.base
        iz, add = base.is_zero, base.add
        diagonal = True
        for k in range(n):
            if not iz(rows[k][k].coeffs[0].value):
                raise ValueError("gram matrix is not skew-hermitian")
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
        self.algebra = algebra
        self.gram = tuple(rows)
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
        entries = list(entries)
        n = len(entries)
        zero = algebra.zero()
        gram = [
            [entries[k] if k == l else zero for l in range(n)] for k in range(n)
        ]
        return cls(algebra, gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_diagonal(self) -> bool:
        return self._diagonal

    def diagonal_entries(self) -> Tuple[QuaternionElement, ...]:
        return tuple(self.gram[k][k] for k in range(self.rank))

    def evaluate(self, xs, ys) -> QuaternionElement:
        """h(x, y), conjugate-linear in x and linear in y."""
        n = self.rank
        if len(xs) != n or len(ys) != n:
            raise DimensionMismatch(f"vectors must have length {n}")
        acc = self.algebra.zero()
        for k in range(n):
            xc = _as_element(self.algebra, xs[k]).conj()
            for l in range(n):
                acc = acc + xc * self.gram[k][l] * _as_element(self.algebra, ys[l])
        return acc

    def scale(self, lam) -> "SkewHermitianForm":
        lam = self.algebra.base(lam)
        if lam.is_zero():
            raise ZeroScalar("scaling by zero destroys the form")
        return SkewHermitianForm(
            self.algebra,
            [[u * lam for u in row] for row in self.gram],
        )

    def transform(self, p) -> "SkewHermitianForm":
        """Base change conj(P)^t * G * P; P singular raises Degenerate."""
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


def _as_element(algebra, u) -> QuaternionElement:
    if isinstance(u, QuaternionElement):
        if u.algebra != algebra:
            raise AlgebraMismatch("element from a different algebra")
        return u
    return algebra.scalar(u)


def diagonalize_h(h: SkewHermitianForm):
    """Diagonalize by congruence over the algebra.

    Returns (entries, P) with conj(P)^t * G * P = diag(entries) checked
    exactly; every diagonal entry has nonzero reduced norm.  Pivots with
    reduced norm zero are repaired by mixing in another basis vector
    scaled by a small unit multiple.  A diagonal form comes back with the
    identity for P, since conj(I)^t * G * I = G holds identically.
    """
    alg = h.algebra
    n = h.rank
    one, zero = alg.one(), alg.zero()
    p = [[one if r == c else zero for c in range(n)] for r in range(n)]
    if h.is_diagonal():
        entries = h.diagonal_entries()
        _check_pure(entries)
        return entries, tuple(tuple(row) for row in p)
    g = [list(row) for row in h.gram]

    def add_col(dst, src, lam):
        for r in range(n):
            g[r][dst] = g[r][dst] + g[r][src] * lam
        lc = lam.conj()
        for c in range(n):
            g[dst][c] = g[dst][c] + lc * g[src][c]
        for r in range(n):
            p[r][dst] = p[r][dst] + p[r][src] * lam

    def swap_cols(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for r in range(n):
        if g[r][r].nrd().is_zero():
            k = next(
                (i for i in range(r + 1, n) if not g[i][i].nrd().is_zero()), None
            )
            if k is not None:
                swap_cols(r, k)
            else:
                repaired = False
                for k in range(r, n):
                    for l in range(k + 1, n):
                        for mu in (one, alg.i(), alg.j(), alg.ij()):
                            for m in (1, 2, 3):
                                lam = mu * m
                                lc = lam.conj()
                                cand = (
                                    g[k][k]
                                    + g[k][l] * lam
                                    + lc * g[l][k]
                                    + lc * g[l][l] * lam
                                )
                                if not cand.nrd().is_zero():
                                    add_col(k, l, lam)
                                    if k != r:
                                        swap_cols(r, k)
                                    repaired = True
                                    break
                            if repaired:
                                break
                        if repaired:
                            break
                    if repaired:
                        break
                if not repaired:
                    raise Degenerate("no invertible pivot could be produced")
        piv_inv = g[r][r].inv()
        for k in range(r + 1, n):
            lam = -(piv_inv * g[r][k])
            if not lam.is_zero():
                add_col(k, r, lam)
    entries = tuple(g[i][i] for i in range(n))
    _check_pure(entries)
    g0 = [list(row) for row in h.gram]
    pc = [[p[r][c].conj() for r in range(n)] for c in range(n)]
    check = mat_mul(pc, mat_mul(g0, p))
    for i in range(n):
        for j in range(n):
            want = entries[i] if i == j else zero
            if check[i][j] != want:
                raise CertificateFailed("congruence certificate failed")
    return entries, tuple(tuple(row) for row in p)


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

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


def common_integral_value(evals) -> Optional[int]:
    """The extended value e shared by every entry, when the entries share
    one and it is an integer; None otherwise.  Scaling by pi^m adds m to
    every extended value, so only such an e can be cleared, and only by
    m = -e: this is the value test of `good_reduction_certificate`, and
    it gives the same answer before and after a central twist."""
    e = evals[0]
    if e.denominator == 1 and all(x == e for x in evals):
        return e.numerator
    return None


def good_reduction_certificate(h: SkewHermitianForm, v) -> GoodReductionCertificate:
    """Find the central scaling pi^m making the diagonalized form a
    unimodular integral model at v.

    Certified needs every scaled entry to have extended value 0 with all
    coordinates of value >= 0.  Scaling by pi^m adds m to every extended
    value, so only a common integral entry value e can be cleared, and
    only by m = -e (`common_integral_value`).  The algebra must be
    unramified at v; the certificate carries the ramification report that
    establishes it.  NoCertificate says only that this diagonalization
    has no such scaling; it is not a proof of bad reduction.

    The certificate depends only on the form, v and the fault state, and
    a form is immutable, so it is computed once: the form keeps the last
    one returned, and a call with the same v object under an equal fault
    state returns it.  An exception is not kept, so a failing call fails
    again.
    """
    state = faults.active_names()
    memo = h._certificate
    if memo is not None and memo[0] is v and memo[1] == state:
        return memo[2]
    cert = _certify(h, v)
    h._certificate = (v, state, cert)
    return cert


def _certify(h: SkewHermitianForm, v) -> GoodReductionCertificate:
    report = ramification(h.algebra, v)
    if report.ramified:
        raise RamifiedAlgebra(
            f"{h.algebra!r} is ramified at {v!r}; no residue data exists"
        )
    entries, _p = diagonalize_h(h)
    evals = tuple(extval(v, u) for u in entries)
    e = common_integral_value(evals)
    if e is not None:
        m = -e
        if faults.is_active(faults.DROP_UNIT_REP):
            # corrupted variant for sensitivity tests: the scaling is
            # found but never applied to the diagonal
            scaled = entries
        else:
            lam = v.uniformizer**m
            scaled = tuple(u * lam for u in entries)
        if all(extval(v, u) == 0 for u in scaled) and all(
            v.value(c) >= 0 for u in scaled for c in u.coeffs
        ):
            return GoodReductionCertificate(
                CERTIFIED, m, evals, entries, scaled, report
            )
    return GoodReductionCertificate(
        NO_CERTIFICATE, None, evals, entries, None, report
    )
