"""Diagonal quadratic forms, congruence diagonalization, residue forms,
and a Witt-triviality oracle.

The oracle is exact where it answers.  Over a finite field it decides
outright from rank and discriminant, which classify forms there.  Over
other fields `true` is only returned after the form has been fully split
into hyperbolic planes, and `false` only on a complete decision (odd
rank or the rank-2 discriminant test); a bounded isotropy search runs
first through exact square tests on entry pairs, then through a small
deterministic coordinate enumeration, and running out of candidates
yields `indeterminate`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import faults
from .errors import CertificateFailed, Degenerate, DimensionMismatch
from .fields import (
    ConicExtension,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
)

TRUE = "true"
FALSE = "false"
INDETERMINATE = "indeterminate"

DEFAULT_BUDGET = 20000


class Verdict(NamedTuple):
    state: str
    searched: int = 0

    def __str__(self):
        return self.state


class QuadraticForm:
    """Diagonal form <u_1, ..., u_m>; entries are nonzero field elements."""

    __slots__ = ("base", "entries")

    def __init__(self, base, entries):
        entries = tuple(base(e) for e in entries)
        for e in entries:
            if e.is_zero():
                raise Degenerate("diagonal entries must be nonzero")
        self.base = base
        self.entries = entries

    @property
    def rank(self) -> int:
        return len(self.entries)

    def det(self) -> FieldElement:
        out = self.base(1)
        for e in self.entries:
            out = out * e
        return out

    def scaled(self, c) -> "QuadraticForm":
        c = self.base(c)
        return QuadraticForm(self.base, [c * e for e in self.entries])

    def neg(self) -> "QuadraticForm":
        return self.scaled(-1)

    def perp(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.base != self.base:
            raise DimensionMismatch("direct sum needs a common base field")
        return QuadraticForm(self.base, self.entries + other.entries)

    def apply(self, vec) -> FieldElement:
        if len(vec) != self.rank:
            raise DimensionMismatch(f"vector length {len(vec)} != rank {self.rank}")
        out = self.base(0)
        for u, c in zip(self.entries, vec):
            c = self.base(c)
            out = out + u * c * c
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticForm)
            and other.base == self.base
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.base, self.entries))

    def __repr__(self):
        return "<" + ", ".join(repr(e) for e in self.entries) + ">"


class ResiduePair(NamedTuple):
    first: QuadraticForm
    second: QuadraticForm


# ---------------------------------------------------------------------------
# small exact matrix helpers


def mat_identity(base, n):
    return [[base(1) if i == j else base(0) for j in range(n)] for i in range(n)]


def mat_mul(m1, m2):
    """The product of two matrices over any ring; each sum starts from
    its first product, so no zero of the ring is needed."""
    n, k, m = len(m1), len(m2), len(m2[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = m1[i][0] * m2[0][j]
            for l in range(1, k):
                acc = acc + m1[i][l] * m2[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(m):
    return [list(col) for col in zip(*m)]


def mat_det(base, m):
    n = len(m)
    a = [[base(x) for x in row] for row in m]
    det = base(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return base(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = a[col][col].inv()
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f.is_zero():
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
    return det


def diagonalize(base, gram):
    """Congruence-diagonalize a symmetric Gram matrix.

    Returns (QuadraticForm, P) with P invertible and P^t * gram * P equal
    to diag(entries); the identity is checked exactly before returning.
    """
    n = len(gram)
    g0 = [[base(x) for x in row] for row in gram]
    for i in range(n):
        if len(g0[i]) != n:
            raise DimensionMismatch("gram matrix must be square")
        for j in range(i + 1, n):
            if g0[i][j] != g0[j][i]:
                raise Degenerate("gram matrix must be symmetric")
    g = [row[:] for row in g0]
    p = mat_identity(base, n)

    def add_col(dst, src, c):
        # e_dst += c * e_src as a basis change, applied to g and p
        for r in range(n):
            g[r][dst] = g[r][dst] + g[r][src] * c
        for cidx in range(n):
            g[dst][cidx] = g[dst][cidx] + g[src][cidx] * c
        for r in range(n):
            p[r][dst] = p[r][dst] + p[r][src] * c

    def swap_cols(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for r in range(n):
        if g[r][r].is_zero():
            k = next((i for i in range(r + 1, n) if not g[i][i].is_zero()), None)
            if k is not None:
                swap_cols(r, k)
            else:
                found = next(
                    (
                        (i, j)
                        for i in range(r, n)
                        for j in range(i + 1, n)
                        if not g[i][j].is_zero()
                    ),
                    None,
                )
                if found is None:
                    raise Degenerate("gram matrix is singular")
                i, j = found
                # zero diagonal block: e_i += e_j contributes 2*g[i][j]
                add_col(i, j, base(1))
                if i != r:
                    swap_cols(r, i)
        piv_inv = g[r][r].inv()
        for k in range(r + 1, n):
            c = -(g[r][k] * piv_inv)
            if not c.is_zero():
                add_col(k, r, c)
    diag = [g[i][i] for i in range(n)]
    if any(d.is_zero() for d in diag):
        raise Degenerate("gram matrix is singular")
    check = mat_mul(mat_mul(mat_transpose(p), g0), p)
    for i in range(n):
        for j in range(n):
            want = diag[i] if i == j else base(0)
            if check[i][j] != want:
                raise CertificateFailed("congruence certificate failed")
    return QuadraticForm(base, diag), [tuple(row) for row in p]


# ---------------------------------------------------------------------------
# residue forms


def _residue_slot(m) -> int:
    """The residue form an entry of value m reduces into: 0 for the
    first, 1 for the second."""
    if faults.is_active(faults.SKIP_EVEN_SCALING):
        # corrupted variant for sensitivity tests: classify by the raw
        # value with no even-power scaling
        return 0 if m == 0 else 1
    return m % 2


def _even_scaled(v, u, m) -> FieldElement:
    """u, of value m, times the even uniformizer power that brings its
    value to 0 or 1."""
    return u * v.uniformizer ** (-2 * (m // 2)) if m // 2 else u


def _residue_entry(v, u, m, slot) -> FieldElement:
    """The residue entry u of value m contributes to its slot's form:
    the even-scaled u, divided by the uniformizer for the second form."""
    if not faults.is_active(faults.SKIP_EVEN_SCALING):
        u = _even_scaled(v, u, m)
    return v.residue(u / v.uniformizer if slot else u)


def residue_forms(q: QuadraticForm, v) -> ResiduePair:
    """First/second residue forms of a diagonal form at a valuation.

    Each entry is scaled by an even uniformizer power into value 0 or 1;
    value-0 entries reduce into `first`, value-1 entries divide by the
    uniformizer and reduce into `second`.
    """
    forms = ([], [])
    for u in q.entries:
        m = v.value(u)
        slot = _residue_slot(m)
        forms[slot].append(_residue_entry(v, u, m, slot))
    rf = v.residue_field
    return ResiduePair(QuadraticForm(rf, forms[0]), QuadraticForm(rf, forms[1]))


def second_residue_form(q: QuadraticForm, v, values) -> QuadraticForm:
    """`residue_forms(q, v).second`, given the values of q's entries at v;
    the entries of the first form are never reduced."""
    second = [
        _residue_entry(v, u, m, 1)
        for u, m in zip(q.entries, values)
        if _residue_slot(m) == 1
    ]
    return QuadraticForm(v.residue_field, second)


def reconstruction(q: QuadraticForm, v) -> QuadraticForm:
    """A lift of first perp uniformizer*(lift of second), using the
    value-scaled entries themselves as lifts."""
    return QuadraticForm(q.base, [_even_scaled(v, u, v.value(u)) for u in q.entries])


# ---------------------------------------------------------------------------
# Witt-triviality oracle


def _pair_split(base, entries):
    """Remove <u, w> pairs with -u*w a square until none remains."""
    entries = list(entries)
    changed = True
    while changed:
        changed = False
        m = len(entries)
        for i in range(m):
            for j in range(i + 1, m):
                prod = -(entries[i] * entries[j])
                if base.is_square(prod.value):
                    del entries[j]
                    del entries[i]
                    changed = True
                    break
            if changed:
                break
    return entries


def _complement_gram(base, entries, vec):
    """Gram matrix of the orthogonal complement of a hyperbolic plane.

    vec is a nonzero isotropic vector of diag(entries); the plane is
    spanned by vec and a basis vector e_k non-orthogonal to it.
    """
    m = len(entries)
    k = next(i for i in range(m) if not vec[i].is_zero())

    def b(x, y_):
        acc = base(0)
        for u, xi, yi in zip(entries, x, y_):
            acc = acc + u * xi * yi
        return acc

    others = [i for i in range(m) if i != k]
    # solve b(vec, z) = 0, b(e_k, z) = 0 with z_k = 0: one functional on
    # the remaining coordinates
    coeffs = {i: entries[i] * vec[i] for i in others}
    pivot = next((i for i in others if not coeffs[i].is_zero()), None)
    basis = []
    for i in others:
        if i == pivot:
            continue
        z = [base(0)] * m
        z[i] = base(1)
        if pivot is not None and not coeffs[i].is_zero():
            z[pivot] = -(coeffs[i] / coeffs[pivot])
        basis.append(z)
    return [[b(zi, zj) for zj in basis] for zi in basis]


def _candidate_vectors(base, rank: int):
    """Deterministic stream of coordinate vectors for the isotropy search."""
    if isinstance(base, Rationals):
        for radius in range(1, 8):
            span = range(-radius, radius + 1)
            for vec in itertools.product(span, repeat=rank):
                if max((abs(c) for c in vec), default=0) != radius:
                    continue
                yield [base(c) for c in vec]
    elif isinstance(base, FunctionField) and isinstance(base.base, FiniteField):
        inner = base.base
        consts = [base.el(base.constant(c)) for c in inner.elements()]
        gen = base.gen()
        lin = [c0 + gen * c1 for c0 in consts for c1 in consts[1:]]
        pool = consts[1:] + lin
        for vec in itertools.product([consts[0]] + pool, repeat=rank):
            if all(c.is_zero() for c in vec):
                continue
            yield list(vec)
    elif isinstance(base, FunctionField) and isinstance(base.base, Rationals):
        small = [base(c) for c in (-2, -1, 0, 1, 2)]
        gen = base.gen()
        pool = small + [gen, -gen, gen + 1, gen - 1]
        for vec in itertools.product(pool, repeat=rank):
            if all(c.is_zero() for c in vec):
                continue
            yield list(vec)
    elif isinstance(base, ConicExtension):
        ints = [base(c) for c in (0, 1, -1, 2, -2)]
        xg, yg = base.x_gen(), base.y_gen()
        pool = ints + [xg, -xg, yg, -yg, xg + 1, yg + 1, xg + yg]
        for vec in itertools.product(pool, repeat=rank):
            if all(c.is_zero() for c in vec):
                continue
            yield list(vec)
    else:
        return


def _finite_field_witt(base: FiniteField, entries) -> str:
    """Over a finite field of odd order a form is hyperbolic exactly when
    its rank m is even and (-1)^(m/2) times its determinant is a square
    (Lam, Introduction to Quadratic Forms over Fields, Ch. II)."""
    m = len(entries)
    if m % 2:
        return FALSE
    disc = base((-1) ** (m // 2))
    for u in entries:
        disc = disc * u
    return TRUE if base.is_square(disc.value) else FALSE


def _witt(base, entries, budget: int, spent: int):
    if isinstance(base, FiniteField):
        return _finite_field_witt(base, entries), spent
    entries = _pair_split(base, entries)
    m = len(entries)
    if m == 0:
        return TRUE, spent
    if m % 2 == 1:
        return FALSE, spent
    if m == 2:
        # the pair scan already ruled out a square -u1*u2
        return FALSE, spent
    form = QuadraticForm(base, entries)
    for vec in _candidate_vectors(base, m):
        if spent >= budget:
            return INDETERMINATE, spent
        spent += 1
        if form.apply(vec).is_zero():
            gram = _complement_gram(base, entries, vec)
            sub, _p = diagonalize(base, gram)
            return _witt(base, list(sub.entries), budget, spent)
    return INDETERMINATE, spent


def witt_trivial(q: QuadraticForm, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is the form hyperbolic (the zero Witt class)?

    `true` and `false` are proofs; `indeterminate` reports an exhausted
    search budget.
    """
    state, spent = _witt(q.base, list(q.entries), budget, 0)
    return Verdict(state, spent)
