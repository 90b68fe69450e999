"""Diagonal quadratic forms, congruence diagonalization, residue forms,
and a Witt-triviality oracle.

`congruence_diagonalize` is the library's one congruence
diagonalization, over a ring with involution: `diagonalize` runs it on
symmetric Gram matrices over a field, and `hermitian.diagonalize_h` on
skew-hermitian ones over a quaternion algebra.

The oracle is exact where it answers.  Over a finite field it decides
outright from rank and discriminant, which classify forms there.  Over
other fields `true` is only returned after the form has been fully split
into hyperbolic planes, and `false` only on a complete decision (odd
rank or the rank-2 discriminant test); a bounded isotropy search runs
first through exact square tests on entry pairs, then through a small
deterministic coordinate enumeration, and running out of candidates
yields `indeterminate`.  The search runs on raw payloads: each
coordinate's payload is built once per search (over Q once per shell
radius), each candidate's value is the field's `eval_diagonal`, the
norm-form evaluation `nrd` uses, and only an isotropic vector is
wrapped, to split off its hyperbolic plane.  Over Q each shell of the
integer cube is yielded directly, not filtered from the cube.  The
coordinate pool is bounded by the remaining budget, so over F_p(s) no
more of its p^2 linear polynomials are built than the budget can reach.

The residue forms scale, divide and reduce each entry's payload, with
the level checked once per form, and the finite-field decision
multiplies payloads; only the residue entries are wrapped.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

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
        # an element of base itself is kept; anything else is coerced
        entries = tuple(
            e if isinstance(e, FieldElement) and e.field is base else base(e)
            for e in entries
        )
        is_zero = base.is_zero
        for e in entries:
            if is_zero(e.value):
                raise Degenerate("diagonal entries must be nonzero")
        self.base = base
        self.entries = entries

    @property
    def rank(self) -> int:
        return len(self.entries)

    def scaled(self, c) -> "QuadraticForm":
        c = self.base(c)
        return QuadraticForm(self.base, [c * e for e in self.entries])

    def neg(self) -> "QuadraticForm":
        return self.scaled(-1)

    def perp(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.base != self.base:
            raise DimensionMismatch("direct sum needs a common base field")
        return QuadraticForm(self.base, self.entries + other.entries)

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


def congruence_diagonalize(gram, one, zero, conj, invertible, mixers):
    """Diagonalize a hermitian or skew-hermitian Gram matrix over a ring
    with involution conj by congruence (Scharlau, Quadratic and Hermitian
    Forms, Ch. 7).

    Returns (entries, P) with conj(P)^t * gram * P = diag(entries),
    checked exactly; each entry passes `invertible`.  A pivot that does
    not is swapped with the next diagonal entry that does.  When none
    does, the first pair k < l from the pivot on and the first mixer lam
    that make the entry of e_k + e_l * lam invertible give e_k += e_l * lam,
    and e_k is swapped into the pivot.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    p = [[one if r == c else zero for c in range(n)] for r in range(n)]

    def add_col(dst, src, lam):
        # e_dst += e_src * lam as a basis change, applied to g and p
        for r in range(n):
            g[r][dst] = g[r][dst] + g[r][src] * lam
        lc = conj(lam)
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

    def mixed(k, l, lam):
        # the entry of e_k + e_l * lam
        lc = conj(lam)
        return g[k][k] + g[k][l] * lam + lc * g[l][k] + lc * g[l][l] * lam

    for r in range(n):
        if not invertible(g[r][r]):
            k = next((i for i in range(r + 1, n) if invertible(g[i][i])), None)
            if k is None:
                k, l, lam = next(
                    (
                        (k, l, lam)
                        for k in range(r, n)
                        for l in range(k + 1, n)
                        for lam in mixers
                        if invertible(mixed(k, l, lam))
                    ),
                    (None, None, None),
                )
                if k is None:
                    raise Degenerate("no invertible pivot could be produced")
                add_col(k, l, lam)
            if k != r:
                swap_cols(r, k)
        piv_inv = g[r][r].inv()
        for k in range(r + 1, n):
            lam = -(piv_inv * g[r][k])
            if not lam.is_zero():
                add_col(k, r, lam)
    entries = tuple(g[i][i] for i in range(n))
    pc = [[conj(p[r][c]) for r in range(n)] for c in range(n)]
    check = mat_mul(pc, mat_mul(gram, p))
    for i in range(n):
        for j in range(n):
            want = entries[i] if i == j else zero
            if check[i][j] != want:
                raise CertificateFailed("congruence certificate failed")
    return entries, [tuple(row) for row in p]


def diagonalize(base, gram):
    """Congruence-diagonalize a symmetric Gram matrix.

    Returns (QuadraticForm, P) with P invertible and P^t * gram * P equal
    to diag(entries): `congruence_diagonalize` with the identity
    involution, nonzero pivots and the single mixer 1.
    """
    n = len(gram)
    g0 = [[base(x) for x in row] for row in gram]
    for i in range(n):
        if len(g0[i]) != n:
            raise DimensionMismatch("gram matrix must be square")
        for j in range(i + 1, n):
            if g0[i][j] != g0[j][i]:
                raise Degenerate("gram matrix must be symmetric")
    one = base(1)
    entries, p = congruence_diagonalize(
        g0, one, base(0), lambda x: x, lambda x: not x.is_zero(), (one,)
    )
    return QuadraticForm(base, entries), p


# ---------------------------------------------------------------------------
# residue forms


def _residue_slot(m) -> int:
    """The residue form an entry of value m reduces into: 0 for the
    first, 1 for the second."""
    return m % 2


def _even_scale(v, u, m):
    """The payload u of v's domain, of value m, times the even
    uniformizer power that brings its value to 0 or 1."""
    k = m // 2
    return v.domain.mul(u, (v.uniformizer ** (-2 * k)).value) if k else u


def _even_scaled(v, u, m) -> FieldElement:
    """`_even_scale` on an element u of v's domain."""
    return FieldElement(u.field, _even_scale(v, u.value, m)) if m // 2 else u


def _residue_entry(v, u, m, slot) -> FieldElement:
    """The residue entry that the payload u of v's domain, of value m,
    contributes to its slot's form: the even-scaled u, divided by the
    uniformizer for the second form.  The caller has checked u's level."""
    u = _even_scale(v, u, m)
    if slot:
        u = v.domain.div(u, v.uniformizer.value)
    return v.residue_field.el(v._residue(u))


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
        forms[slot].append(_residue_entry(v, u.value, m, slot))
    rf = v.residue_field
    return ResiduePair(QuadraticForm(rf, forms[0]), QuadraticForm(rf, forms[1]))


def second_residue_form(q: QuadraticForm, v, values) -> QuadraticForm:
    """`residue_forms(q, v).second`, given the values of q's entries at v;
    the entries of the first form are never reduced, and the level is
    checked once, when some entry is."""
    picked = [(u, m) for u, m in zip(q.entries, values) if _residue_slot(m) == 1]
    if picked:
        v.check_field(q.base)
    second = [_residue_entry(v, u.value, m, 1) for u, m in picked]
    return QuadraticForm(v.residue_field, second)


def reconstruction(q: QuadraticForm, v) -> QuadraticForm:
    """A lift of first perp uniformizer*(lift of second), using the
    value-scaled entries themselves as lifts.  Public because the
    benchmark's witt workload checks its forms with it."""
    return QuadraticForm(q.base, [_even_scaled(v, u, v.value(u)) for u in q.entries])


# ---------------------------------------------------------------------------
# Witt-triviality oracle


def _pair_split(base, entries):
    """Remove <u, w> pairs with -u*w a square until none remains; the
    entries are payloads."""
    entries = list(entries)
    neg, mul, is_square = base.neg, base.mul, base.is_square
    changed = True
    while changed:
        changed = False
        m = len(entries)
        for i in range(m):
            for j in range(i + 1, m):
                if is_square(neg(mul(entries[i], entries[j]))):
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


def _pool_vectors(base, coords, rank: int, limit: int):
    """The nonzero vectors with coordinates in `coords`, in lexicographic
    order, of which the caller evaluates at most the first `limit`.

    The k-th nonzero vector has index at most k in the product, and a
    vector's index is at least each of its coordinates' indices; the
    first limit + 1 vectors of a product over the first limit + 1
    coordinates are the same as over all of them.  So only those
    coordinates are taken from the iterable `coords`.
    """
    coords = list(itertools.islice(coords, limit + 1))
    is_zero = base.is_zero
    for vec in itertools.product(coords, repeat=rank):
        if not all(map(is_zero, vec)):
            yield vec


def _shell(span, rank: int, prefix=()):
    """prefix + t for each t in span^rank (rank >= 1) with span[0] or
    span[-1] among its coordinates, lazily, in lexicographic order.

    A vector is in the shell when its first coordinate is an end of span
    and its tail is anything, or its first coordinate is inside and its
    tail is in the shell of rank - 1.
    """
    if rank == 1:
        yield prefix + (span[0],)
        yield prefix + (span[-1],)
        return
    last = len(span) - 1
    for i, c in enumerate(span):
        head = prefix + (c,)
        if i == 0 or i == last:
            yield from map(head.__add__, itertools.product(span, repeat=rank - 1))
        else:
            yield from _shell(span, rank - 1, head)


def _candidate_vectors(base, rank: int, limit: int):
    """Deterministic stream of coordinate payload vectors for the isotropy
    search, of which the caller evaluates at most the first `limit`; each
    coordinate's payload is built once.  Over Q the vectors are the
    integer shells max |c_i| = r for r = 1, ..., 7, each yielded lazily
    in lexicographic order from its radius's payloads -r, ..., r."""
    if isinstance(base, Rationals):
        for radius in range(1, 8):
            span = [base.from_int(c) for c in range(-radius, radius + 1)]
            yield from _shell(span, rank)
    elif isinstance(base, FunctionField) and isinstance(base.base, FiniteField):
        # 0, the nonzero constants, then c0 + c1*s with c1 != 0: p^2
        # coordinates in all, built lazily, as far as the limit reaches;
        # the pool takes limit + 1 coordinates, so when p exceeds that the
        # constants alone fill it
        consts = [
            base.el(base.constant(c))
            for c in itertools.islice(base.base.elements(), limit + 1)
        ]
        gen = base.gen()
        lin = ((c0 + gen * c1).value for c0 in consts for c1 in consts[1:])
        coords = itertools.chain((c.value for c in consts), lin)
        yield from _pool_vectors(base, coords, rank, limit)
    elif isinstance(base, FunctionField) and isinstance(base.base, Rationals):
        small = [base(c) for c in (-2, -1, 0, 1, 2)]
        gen = base.gen()
        pool = small + [gen, -gen, gen + 1, gen - 1]
        yield from _pool_vectors(base, (c.value for c in pool), rank, limit)
    elif isinstance(base, ConicExtension):
        ints = [base(c) for c in (0, 1, -1, 2, -2)]
        xg, yg = base.x_gen(), base.y_gen()
        pool = ints + [xg, -xg, yg, -yg, xg + 1, yg + 1, xg + yg]
        yield from _pool_vectors(base, (c.value for c in pool), rank, limit)


def _finite_field_witt(base: FiniteField, entries) -> str:
    """Over a finite field of odd order a form is hyperbolic exactly when
    its rank m is even and (-1)^(m/2) times its determinant is a square
    (Lam, Introduction to Quadratic Forms over Fields, Ch. II)."""
    m = len(entries)
    if m % 2:
        return FALSE
    mul = base.mul
    disc = base.from_int((-1) ** (m // 2))
    for u in entries:
        disc = mul(disc, u)
    return TRUE if base.is_square(disc) else FALSE


def _witt(base, entries, budget: int, spent: int):
    """The verdict on diag(entries), given as payloads, and the candidates
    spent so far.  Each candidate is evaluated on payloads by the field's
    `eval_diagonal`, whose arithmetic is exact at every level, so its
    zero test is the test on the summed products u*c*c; only an isotropic
    vector and the entries are wrapped, to split off its plane."""
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
    value, is_zero = base.eval_diagonal, base.is_zero
    for vec in _candidate_vectors(base, m, max(budget - spent, 0)):
        if spent >= budget:
            return INDETERMINATE, spent
        spent += 1
        if is_zero(value(entries, vec)):
            gram = _complement_gram(
                base, [base.el(u) for u in entries], [base.el(c) for c in vec]
            )
            sub, _p = diagonalize(base, gram)
            return _witt(base, [u.value for u in sub.entries], budget, spent)
    return INDETERMINATE, spent


def witt_trivial(q: QuadraticForm, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Is the form hyperbolic (the zero Witt class)?

    `true` and `false` are proofs; `indeterminate` reports an exhausted
    search budget.
    """
    state, spent = _witt(q.base, [u.value for u in q.entries], budget, 0)
    return Verdict(state, spent)
