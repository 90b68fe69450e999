"""Quaternion algebra arithmetic, reduced norms, and ramification of
the algebra at a discrete valuation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from quatwitt import faults
from quatwitt.errors import RamifiedAlgebra, ZeroElement
from quatwitt.fields import FieldElement, FiniteField, FunctionField, Rationals
from quatwitt.quadforms import mat_det
from quatwitt.quaternions import (
    QuaternionAlgebra,
    left_regular_matrix,
    ramification,
    residue_algebra_splits,
)
from quatwitt.valuations import INF, GaussValuation, PAdicValuation


@pytest.fixture(scope="module")
def A23():
    Q = Rationals()
    return QuaternionAlgebra(Q, Q(2), Q(3))


# ---------------------------------------------------------------------------
# multiplication and the standard involution


def test_generator_relations(A23):
    i, j, ij = A23.i(), A23.j(), A23.ij()
    assert i * i == A23.scalar(A23.base(2))
    assert j * j == A23.scalar(A23.base(3))
    assert i * j == ij
    assert j * i == -ij
    assert (ij) * (ij) == A23.scalar(A23.base(-6))


def test_foreign_operands_are_not_implemented(A23):
    i = A23.i()
    assert (i == "1/0") is False
    with pytest.raises(TypeError):
        i * 1.5
    with pytest.raises(TypeError):
        i + "s"


def test_coercion_lets_non_package_errors_through(monkeypatch):
    class Exploding(Rationals):
        pass

    Q = Exploding()
    i = QuaternionAlgebra(Q, Q(2), Q(3)).i()

    def boom(self, value):
        raise RuntimeError("coercion bug")

    monkeypatch.setattr(Exploding, "__call__", boom)
    with pytest.raises(RuntimeError, match="coercion bug"):
        i * 2
    with pytest.raises(RuntimeError, match="coercion bug"):
        i == 2


def test_product_frozen(A23):
    u = (A23.one() + A23.i()) * (A23.one() + A23.j())
    assert u == A23.el(1, 1, 1, 1)
    assert u.nrd() == A23.base(2)


def test_rejects_zero_parameters(Q):
    with pytest.raises(ValueError):
        QuaternionAlgebra(Q, Q(0), Q(1))


def test_norm_and_trace_frozen(A23):
    u = A23.el(1, 2, 3, 4)
    # w^2 - d a^2 - t b^2 + d t c^2
    assert u.nrd() == A23.base(1 - 2 * 4 - 3 * 9 + 6 * 16)
    assert support.trd(u) == A23.base(2)
    assert u.conj() == A23.el(1, -2, -3, -4)


@given(
    support.quaternions(QuaternionAlgebra(Rationals(), 2, 3)),
    support.quaternions(QuaternionAlgebra(Rationals(), 2, 3)),
)
def test_reduced_norm_is_multiplicative(u, w):
    assert ((u * w).nrd() - u.nrd() * w.nrd()).is_zero()


@given(
    support.quaternions(QuaternionAlgebra(Rationals(), 2, 3)),
    support.quaternions(QuaternionAlgebra(Rationals(), 2, 3)),
)
def test_conjugation_is_an_anti_automorphism(u, w):
    assert (u * w).conj() == w.conj() * u.conj()
    assert u.conj().conj() == u
    assert u * u.conj() == u.algebra.scalar(u.nrd())
    assert (u + u.conj()) == u.algebra.scalar(support.trd(u))


@given(support.quaternions(QuaternionAlgebra(Rationals(), 2, 3)))
def test_inverse(u):
    if u.nrd().is_zero():
        with pytest.raises(ZeroElement):
            u.inv()
        return
    assert u * u.inv() == u.algebra.one()


def test_zero_divisors_in_a_split_algebra(Q):
    alg = QuaternionAlgebra(Q, Q(1), Q(1))
    u = alg.one() + alg.i()
    assert not u.is_zero() and u.nrd().is_zero()
    with pytest.raises(ZeroElement):
        u.inv()
    v3 = PAdicValuation(3)
    with pytest.raises(ZeroElement):
        support.extval(v3, u)


@given(support.quaternions(QuaternionAlgebra(Rationals(), 2, 3)))
def test_left_regular_matrix_determinant(u):
    m = left_regular_matrix(u)
    det = mat_det(u.algebra.base, m)
    assert (det - u.nrd() ** 2).is_zero()


# ---------------------------------------------------------------------------
# the half-norm value of a quaternion


def test_extval_frozen(Q, v3):
    alg = QuaternionAlgebra(Q, Q(-1), Q(1))
    assert support.extval(v3, alg.i()) == 0
    assert support.extval(v3, alg.i() * 3) == 1
    assert support.extval(v3, alg.el(0, 3, 1, 1)) == 0
    assert support.extval(v3, alg.zero()) == INF


def test_extval_halves_odd_norm_values(Q, v3):
    alg = QuaternionAlgebra(Q, Q(-1), Q(3))
    # nrd(j) = -3 has value 1
    assert support.extval(v3, alg.j()) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# ramification reports


def test_ramified_frozen(Q, v3):
    assert ramification(QuaternionAlgebra(Q, Q(3), Q(3)), v3).ramified
    assert ramification(QuaternionAlgebra(Q, Q(3), Q(12)), v3).ramified
    rep = ramification(QuaternionAlgebra(Q, Q(5), Q(2)), PAdicValuation(5))
    assert rep.ramified
    assert str(rep.tame_class) == "3"
    assert rep.unit_rep is None


def test_unramified_frozen(Q, v3):
    rep = ramification(QuaternionAlgebra(Q, Q(3), Q(6)), v3)
    assert not rep.ramified
    assert rep.unit_rep == (Q(1), Q(1))
    rep2 = ramification(QuaternionAlgebra(Q, Q(18), Q(7)), v3)
    assert not rep2.ramified
    assert rep2.unit_rep == (Q(2), Q(7))
    assert rep2.split_over_residue is True
    rep3 = ramification(QuaternionAlgebra(Q, Q(2), Q(3)), PAdicValuation(7))
    assert not rep3.ramified and rep3.split_over_residue


def test_residue_division_algebra_over_function_field(K, g3):
    alg = QuaternionAlgebra(K, K(-1), K.gen())
    rep = ramification(alg, g3)
    assert not rep.ramified
    assert rep.split_over_residue is False
    res = support.residue_quaternion(alg, g3)
    assert res.base.characteristic == 3


def test_residue_quaternion_needs_an_unramified_algebra(Q, v3):
    with pytest.raises(RamifiedAlgebra):
        support.residue_quaternion(QuaternionAlgebra(Q, Q(3), Q(3)), v3)


def test_ramification_of_unit_algebras_never_depends_on_twists(Q, v3):
    # (d, t) and (d*u^2, t*w^2) have identical reports for units u, w
    for d, t in [(2, 5), (-1, 7), (5, -2)]:
        base = ramification(QuaternionAlgebra(Q, Q(d), Q(t)), v3)
        twisted = ramification(
            QuaternionAlgebra(Q, Q(d * 16), Q(t * 25)), v3
        )
        assert base.ramified == twisted.ramified
        assert base.split_over_residue == twisted.split_over_residue


# ---------------------------------------------------------------------------
# splitting of the residue algebra


def test_residue_split_over_finite_fields(F3):
    assert residue_algebra_splits(F3, F3(1), F3(2)) is True
    assert residue_algebra_splits(F3, F3(2), F3(2)) is True


def test_residue_split_over_function_fields(F3):
    L = FunctionField(F3, "s")
    s = L.gen()
    assert residue_algebra_splits(L, L(1), s) is True
    assert residue_algebra_splits(L, s, s) is False
    assert residue_algebra_splits(L, s**2 + 1, s) is True
    assert residue_algebra_splits(L, s, L(2)) is False
    assert residue_algebra_splits(L, L(-1), s) is False


def test_residue_split_rejects_zero_parameters(F3):
    L = FunctionField(F3, "s")
    with pytest.raises(ZeroElement):
        residue_algebra_splits(L, L(0), L.gen())


def test_drop_unit_rep_is_observable(Q, v3):
    alg = QuaternionAlgebra(Q, Q(18), Q(7))
    with faults.injected(faults.DROP_UNIT_REP):
        with pytest.raises(ZeroElement):
            ramification(alg, v3)
    assert ramification(alg, v3).unit_rep == (Q(2), Q(7))


# ---------------------------------------------------------------------------
# the payload kernel: the nrd memo, the central-scalar product and the
# coordinatewise operations, against the operator formulas in `support`


_A23 = QuaternionAlgebra(Rationals(), 2, 3)
_QS = FunctionField(Rationals(), "s")
_AM1S = QuaternionAlgebra(_QS, _QS(-1), _QS("s"))
_F7 = FiniteField(7)
_AF7 = QuaternionAlgebra(_F7, 3, 5)
# each algebra with a strategy for its coordinates; over F_7 every
# quaternion algebra splits, so zero divisors turn up too
_KERNEL_ALGEBRAS = {
    "Q": (_A23, support.fractions(max_num=9, max_den=3)),
    "Q(s)": (_AM1S, support.rational_functions(_QS, max_deg=1, coeffs=st.integers(-3, 3))),
    "F_p": (_AF7, st.integers(0, 6)),
}


def _draw_operands(data, name):
    alg, coeffs = _KERNEL_ALGEBRAS[name]
    u = data.draw(support.quaternions(alg, coeffs))
    w = data.draw(support.quaternions(alg, coeffs))
    return u, w, alg.base(data.draw(coeffs))


@given(data=st.data())
def test_nrd_memo_matches_the_formula_on_derived_elements(data):
    for name in _KERNEL_ALGEBRAS:
        u, w, lam = _draw_operands(data, name)
        # fill the operands' memos first, so nothing derived can reuse them
        u.nrd()
        w.nrd()
        derived = [u * w, w * u, u + w, u - w, -u, u.conj(), u * lam, lam * u, u * 3,
                   u + lam, lam - u]
        if not u.nrd().is_zero():
            derived.append(u.inv())
        for e in derived:
            assert e.nrd() == support.nrd_formula(e)
            assert e.nrd() is e.nrd()
        assert u.nrd() == support.nrd_formula(u)


@pytest.mark.parametrize("name", list(_KERNEL_ALGEBRAS))
@given(data=st.data())
def test_scalar_fast_path_matches_the_general_product(name, data):
    u, w, lam = _draw_operands(data, name)
    s = u.algebra.scalar(lam)
    for left, right in ((u, s), (s, u), (s, s), (u, u), (u, w)):
        assert (left * right).coeffs == support.general_product(left, right).coeffs
    assert (u * lam).coeffs == support.general_product(u, s).coeffs
    assert (lam * u).coeffs == support.general_product(s, u).coeffs


@pytest.mark.parametrize("name", list(_KERNEL_ALGEBRAS))
@given(data=st.data())
def test_coordinatewise_kernel_matches_the_field_operators(name, data):
    u, w, lam = _draw_operands(data, name)
    uc, wc = u.coeffs, w.coeffs
    w1, a1, b1, c1 = uc
    assert (u + w).coeffs == tuple(x + y for x, y in zip(uc, wc))
    assert (u - w).coeffs == tuple(x - y for x, y in zip(uc, wc))
    assert (-u).coeffs == tuple(-x for x in uc)
    assert u.conj().coeffs == (w1, -a1, -b1, -c1)
    assert (u + lam).coeffs == (lam + u).coeffs == (w1 + lam, a1, b1, c1)
    assert (u - lam).coeffs == (w1 - lam, a1, b1, c1)
    assert (lam - u).coeffs == (lam - w1, -a1, -b1, -c1)
    assert u.is_zero() == all(x.is_zero() for x in uc)
    assert u.is_scalar() == all(x.is_zero() for x in uc[1:])
    assert (u == lam) == (u.is_scalar() and w1 == lam)
    n = support.nrd_formula(u)
    if n.is_zero():
        with pytest.raises(ZeroElement):
            u.inv()
        return
    inv = u.inv()
    assert inv.coeffs == (w1 / n, -a1 / n, -b1 / n, -c1 / n)
    assert support.general_product(u, inv) == u.algebra.one()


@pytest.mark.parametrize("name", list(_KERNEL_ALGEBRAS))
def test_kernel_wraps_only_its_results(name, monkeypatch):
    alg = _KERNEL_ALGEBRAS[name][0]
    u, w = alg.el(1, 2, 3, 4), alg.el(0, 1, 5, 6)
    lam = alg.base(3)
    built = []
    init = FieldElement.__init__

    def counting(self, field, value):
        built.append(value)
        init(self, field, value)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    for op, wraps in ((lambda: u * w, 4), (lambda: u * lam, 4), (lambda: lam * u, 4),
                      (lambda: u.nrd(), 1), (lambda: u + lam, 1), (lambda: u.conj(), 3)):
        built.clear()
        op()
        assert len(built) == wraps


def test_scalar_product_leaves_the_nrd_memo_unset(Q, v3):
    u = _A23.el(0, 1, 2, 3)
    n = u.nrd()
    assert u._nrd is not None
    for lam in (Q(3), Q(3) ** -1, 9):
        scaled = u * lam
        # the certificate's recheck reads nrd from the scaled coordinates
        assert scaled._nrd is None
        assert scaled.nrd() == support.nrd_formula(scaled) == n * scaled.coeffs[1] ** 2
        assert (lam * u)._nrd is None
    assert support.extval(v3, u * Q(3) ** -1) == support.extval(v3, u) - 1
    # u*1 is u itself, memo and all: as an element of the base, as an int,
    # as pi^0 and as the scalar quaternion 1
    for lam in (Q(1), 1, v3.uniformizer**0, _A23.one()):
        assert u * lam is u
        assert lam * u is u
    assert u._nrd is n
