"""Skew-hermitian forms over quaternion algebras: construction,
diagonalization, and good-reduction certificates."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from quatwitt import batteries, faults, scenarios
from quatwitt.errors import (
    Degenerate,
    DimensionMismatch,
    RamifiedAlgebra,
    ZeroScalar,
)
from quatwitt.fields import FieldElement, FiniteField, FunctionField, Rationals
from quatwitt.hermitian import (
    CERTIFIED,
    NO_CERTIFICATE,
    SkewHermitianForm,
    common_integral_value,
    diagonalize_h,
    good_reduction_certificate,
)
from quatwitt.quadforms import mat_det
from quatwitt.quaternions import (
    QuaternionAlgebra,
    QuaternionElement,
    left_regular_matrix,
)
from quatwitt.valuations import GaussValuation, PAdicValuation


@pytest.fixture(scope="module")
def A23():
    Q = Rationals()
    return QuaternionAlgebra(Q, Q(2), Q(3))


@pytest.fixture(scope="module")
def A_m1_1():
    Q = Rationals()
    return QuaternionAlgebra(Q, Q(-1), Q(1))


# ---------------------------------------------------------------------------
# construction


def test_diagonal_constructor(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i(), A23.j()])
    assert h.rank == 2
    assert h.is_diagonal()
    assert h.diagonal_entries() == (A23.i(), A23.j())


def test_rejects_non_pure_diagonal(A23):
    with pytest.raises(ValueError):
        SkewHermitianForm.diagonal(A23, [A23.one()])


def test_rejects_non_skew_gram(A23):
    i = A23.i()
    one = A23.one()
    with pytest.raises(ValueError):
        SkewHermitianForm(A23, [[i, one], [one, i]])


@st.composite
def _grams(draw, alg):
    """Square gram matrices over alg of rank 1 to 3 with small entries;
    each diagonal entry is made pure and each entry below the diagonal
    mirrors the one above it (as -conj) with probability 3/4, so skew
    and non-skew grams of every shape are drawn."""
    n = draw(st.integers(1, 3))
    q = support.quaternions(alg, coeffs=st.integers(-1, 1))
    gram = [[draw(q) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        if draw(st.integers(0, 3)):
            gram[k][k] = gram[k][k] - gram[k][k].coeffs[0]
        for l in range(k + 1, n):
            if draw(st.integers(0, 3)):
                gram[l][k] = -gram[k][l].conj()
    return gram


_QS = FunctionField(Rationals(), "s")
_SKEW_ALGEBRAS = (
    QuaternionAlgebra(_QS, -1, _QS.gen()),
    QuaternionAlgebra(FiniteField(7), 3, 5),
)


@given(st.data())
def test_skew_check_agrees_with_all_pairs_rule(A23, data):
    # the payload check against the rule as stated, over Q, Q(s) and F_7;
    # an accepted form is diagonal exactly when its off-diagonal entries
    # all vanish
    alg = data.draw(st.sampled_from((A23,) + _SKEW_ALGEBRAS))
    gram = data.draw(_grams(alg))
    n = len(gram)
    try:
        h = SkewHermitianForm(alg, gram)
        rejected = False
        off_diagonal = [gram[k][l] for k in range(n) for l in range(n) if k != l]
        assert h.is_diagonal() == all(u.is_zero() for u in off_diagonal)
    except Degenerate:
        rejected = False
    except ValueError as e:
        assert str(e) == "gram matrix is not skew-hermitian"
        rejected = True
    assert rejected == (not support.is_skew_by_all_pairs(gram))


def test_skew_check_builds_no_field_element_on_a_diagonal_form(A23, monkeypatch):
    entries = [A23.i(), A23.j(), A23.el(0, 1, 2, 3)]
    zero = A23.zero()
    gram = [[entries[k] if k == l else zero for l in range(3)] for k in range(3)]
    for u in entries:
        u.nrd()
    built = []
    init = FieldElement.__init__

    def counting(self, field, value):
        built.append(value)
        init(self, field, value)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    # the entries' reduced norms are memoized, so the nondegeneracy test
    # builds nothing either; the skew check reads payloads only
    h = SkewHermitianForm(A23, gram)
    assert h.is_diagonal()
    assert built == []


def test_rejects_singular_gram(A23):
    i = A23.i()
    with pytest.raises(Degenerate):
        SkewHermitianForm(A23, [[i, i], [i, i]])


def test_rejects_empty_and_ragged(A23):
    with pytest.raises(DimensionMismatch):
        SkewHermitianForm(A23, [])
    with pytest.raises(DimensionMismatch):
        SkewHermitianForm(A23, [[A23.i(), A23.j()]])


def _model_is_singular(alg, entries):
    """Nondegeneracy by the determinant of the full 4n x 4n model."""
    n = len(entries)
    zero = alg.zero()
    big = []
    for k in range(n):
        blocks = [left_regular_matrix(entries[k] if k == l else zero) for l in range(n)]
        for r in range(4):
            big.append([blocks[l][r][c] for l in range(n) for c in range(4)])
    return mat_det(alg.base, big).is_zero()


# over (1, 1) the pure quaternion a*i + b*j + c*ij has nrd c^2 - a^2 - b^2
_NULL_COORDS = ((0, 0, 0), (1, 0, 1), (0, -2, 2), (3, 4, 5), (-4, 3, -5))


@pytest.mark.parametrize("d, t", [(1, 1), (2, 3)])
@given(
    st.lists(
        st.one_of(
            st.tuples(*[st.integers(-9, 9)] * 3),
            st.sampled_from(_NULL_COORDS),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_diagonal_nondegeneracy_matches_the_full_model(d, t, coords):
    Q = Rationals()
    alg = QuaternionAlgebra(Q, Q(d), Q(t))
    entries = [alg.el(0, a, b, c) for a, b, c in coords]
    singular = _model_is_singular(alg, entries)
    if singular:
        with pytest.raises(Degenerate):
            SkewHermitianForm.diagonal(alg, entries)
    else:
        assert SkewHermitianForm.diagonal(alg, entries).diagonal_entries() == tuple(entries)


def test_off_diagonal_gram_is_accepted(A23):
    i = A23.i()
    zero = A23.zero()
    h = SkewHermitianForm(A23, [[zero, i], [i, zero]])
    assert not h.is_diagonal()
    assert h.rank == 2


def test_diagonal_flag_is_recorded_at_construction(A23, monkeypatch):
    i, zero = A23.i(), A23.zero()
    diag = SkewHermitianForm.diagonal(A23, [i, A23.j(), i])
    full = SkewHermitianForm(A23, [[zero, i], [i, zero]])
    calls = []
    is_zero = QuaternionElement.is_zero

    def counting(self):
        calls.append(self)
        return is_zero(self)

    monkeypatch.setattr(QuaternionElement, "is_zero", counting)
    assert diag.is_diagonal() and not full.is_diagonal()
    assert calls == []


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_frozen(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i()])
    j = A23.j()
    assert support.evaluate_form(h, [j], [j]) == A23.i() * 3


def test_evaluate_is_conjugate_linear_in_the_first_slot(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i(), A23.ij()])
    xs = [A23.el(1, 1, 0, 0), A23.el(0, 0, 1, 0)]
    ys = [A23.el(0, 1, 1, 0), A23.el(2, 0, 0, 1)]
    lam = A23.el(1, 2, 0, 1)
    scaled_first = support.evaluate_form(h, [x * lam for x in xs], ys)
    assert scaled_first == lam.conj() * support.evaluate_form(h, xs, ys)
    scaled_second = support.evaluate_form(h, xs, [y * lam for y in ys])
    assert scaled_second == support.evaluate_form(h, xs, ys) * lam


def test_skew_symmetry_of_values(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i(), A23.j()])
    xs = [A23.el(1, 0, 2, 0), A23.el(0, 1, 0, 0)]
    ys = [A23.el(0, 0, 1, 1), A23.el(3, 0, 0, 2)]
    assert support.evaluate_form(h, xs, ys) == -support.evaluate_form(h, ys, xs).conj()


# ---------------------------------------------------------------------------
# scaling and base change


def test_scale_rejects_zero(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i()])
    with pytest.raises(ZeroScalar):
        h.scale(A23.base(0))


def test_transform_congruence(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i(), A23.j()])
    p = [[A23.one(), A23.i()], [A23.zero(), A23.one()]]
    moved = h.transform(p)
    assert moved.rank == 2
    # entry (0,0) is unchanged by an upper-triangular change with unit pivot
    assert moved.gram[0][0] == A23.i()


# ---------------------------------------------------------------------------
# diagonalization


def test_diagonalize_h_frozen(A23):
    i = A23.i()
    zero = A23.zero()
    h = SkewHermitianForm(A23, [[zero, i], [i, zero]])
    entries, p = diagonalize_h(h)
    assert entries[0] == i * 2
    assert entries[1] == -i * A23.base("1/2")


def test_diagonalize_h_repair_path(A23):
    u = A23.one() + A23.i()
    zero = A23.zero()
    h = SkewHermitianForm(A23, [[zero, u], [-u.conj(), zero]])
    entries, p = diagonalize_h(h)
    assert entries[0] == A23.i() * 2
    assert entries[1] == -A23.i() * A23.base("1/4")
    assert [[repr(x) for x in row] for row in p] == [
        ["1", "-1/2 - 1/4*i"],
        ["1", "1/2 - 1/4*i"],
    ]
    # over (1, 1) the mixers m = 1, 2, 3 give the pivot 2*m*(i + ij), of
    # reduced norm 0, so the repair reaches the mixer i
    Q = Rationals()
    alg = QuaternionAlgebra(Q, Q(1), Q(1))
    u = alg.one() + alg.i() + alg.ij()
    zero = alg.zero()
    h = SkewHermitianForm(alg, [[zero, u], [-u.conj(), zero]])
    entries, p = diagonalize_h(h)
    assert [repr(x) for x in entries] == ["2*i - 2*j", "1/4*i + 1/4*j"]
    assert [[repr(x) for x in row] for row in p] == [
        ["1", "-1/4 - 1/2*i - 1/4*ij"],
        ["i", "1/2 - 1/4*i - 1/4*j"],
    ]


def test_diagonalize_h_leaves_diagonals_alone(A23):
    h = SkewHermitianForm.diagonal(A23, [A23.i(), A23.j()])
    entries, p = diagonalize_h(h)
    assert entries == (A23.i(), A23.j())
    one, zero = A23.one(), A23.zero()
    assert p == ((one, zero), (zero, one))


def test_diagonalize_h_builds_one_and_zero_once(A23, monkeypatch):
    h = SkewHermitianForm.diagonal(A23, [A23.i(), A23.j(), A23.ij()])
    built = []
    el = QuaternionAlgebra.el

    def counting(self, *coords):
        built.append(coords)
        return el(self, *coords)

    monkeypatch.setattr(QuaternionAlgebra, "el", counting)
    _entries, p = diagonalize_h(h)
    assert built == [(1,), ()]
    assert len({id(u) for row in p for u in row}) == 2


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_diagonalize_h_random_congruent_grams(a, b, c):
    Q = Rationals()
    alg = QuaternionAlgebra(Q, Q(2), Q(3))
    h = SkewHermitianForm.diagonal(alg, [alg.i(), alg.j()])
    p = [[alg.one(), alg.el(a, b, c, 0)], [alg.zero(), alg.one()]]
    moved = h.transform(p)
    entries, change = diagonalize_h(moved)
    for u in entries:
        w, x, y, z = u.coeffs
        assert w.is_zero()
        assert not u.is_zero()


# ---------------------------------------------------------------------------
# good-reduction certificates


def test_certificate_unit_entries(A_m1_1, v3):
    h = SkewHermitianForm.diagonal(A_m1_1, [A_m1_1.i(), A_m1_1.j()])
    cert = good_reduction_certificate(h, v3)
    assert cert.status == CERTIFIED
    assert cert.scaling == 0
    assert cert.extvals == (0, 0)
    assert cert.scaled_diagonal == h.diagonal_entries()


def test_certificate_uniform_twist(A_m1_1, v3):
    h = SkewHermitianForm.diagonal(A_m1_1, [A_m1_1.i() * 3, A_m1_1.j() * 3])
    cert = good_reduction_certificate(h, v3)
    assert cert.certified
    assert cert.scaling == -1
    assert cert.scaled_diagonal == (A_m1_1.i(), A_m1_1.j())


def test_certificate_mixed_values_fail(A_m1_1, v3):
    h = SkewHermitianForm.diagonal(A_m1_1, [A_m1_1.i(), A_m1_1.j() * 3])
    cert = good_reduction_certificate(h, v3)
    assert cert.status == NO_CERTIFICATE
    assert cert.extvals == (0, 1)
    assert cert.scaled_diagonal is None


def test_certificate_requires_integral_coordinates(Q, v3):
    alg = QuaternionAlgebra(Q, Q(1), Q(1))
    u = alg.el(0, 3, 1, 1)
    h = SkewHermitianForm.diagonal(alg, [u])
    # nrd = -9 has even value but no central twist makes the entry integral
    cert = good_reduction_certificate(h, v3)
    assert cert.status == NO_CERTIFICATE


def test_certificate_rejects_ramified_algebras(Q, v3):
    alg = QuaternionAlgebra(Q, Q(3), Q(3))
    h = SkewHermitianForm.diagonal(alg, [alg.i()])
    with pytest.raises(RamifiedAlgebra):
        good_reduction_certificate(h, v3)


def test_certificate_drop_unit_rep_fault(A_m1_1, v3):
    h = SkewHermitianForm.diagonal(A_m1_1, [A_m1_1.i() * 3, A_m1_1.j() * 3])
    with faults.injected(faults.DROP_UNIT_REP):
        cert = good_reduction_certificate(h, v3)
        assert cert.status == NO_CERTIFICATE
    assert good_reduction_certificate(h, v3).certified


THIRD = Fraction(1, 3)


@pytest.mark.parametrize(
    "coords, fault, scaling, extval, scaled",
    [
        # nrd(2i + j) = 3 has odd value: no central twist clears e = 1/2
        ([(2, 1, 0), (2, 1, 0)], None, None, Fraction(1, 2), None),
        ([(THIRD, 0, 0), (0, THIRD, 0)], None, 1, -1, [(1, 0, 0), (0, 1, 0)]),
        ([(1, 0, 0), (0, 1, 0)], faults.DROP_UNIT_REP, 0, 0, [(1, 0, 0), (0, 1, 0)]),
        ([(THIRD, 0, 0), (0, THIRD, 0)], faults.DROP_UNIT_REP, None, -1, None),
    ],
)
def test_certificate_table(A_m1_1, v3, coords, fault, scaling, extval, scaled):
    """Entries of common extended value e certify with scaling -e alone;
    under drop-unit-rep the scaling is never applied."""
    h = SkewHermitianForm.diagonal(A_m1_1, [A_m1_1.el(0, *c) for c in coords])
    with faults.injected(*((fault,) if fault else ())):
        cert = good_reduction_certificate(h, v3)
    assert cert.extvals == (extval,) * len(coords)
    assert cert.scaling == scaling
    assert cert.status == (NO_CERTIFICATE if scaling is None else CERTIFIED)
    if scaled is not None:
        scaled = tuple(A_m1_1.el(0, *c) for c in scaled)
    assert cert.scaled_diagonal == scaled


@pytest.mark.parametrize("fault", [None, faults.DROP_UNIT_REP])
def test_certificate_matches_window_scan_on_battery_instances(fault):
    """The single scaling gives the certificate the window scan found, on
    battery forms, on their twists by pi^-1, and with one entry twisted
    by pi."""
    outcomes = set()
    for sc in (batteries.conic_scenario(3, "-1", 6), batteries.point_scenario(3, 6)):
        for index in range(sc["trials"]):
            inst = scenarios.generate_instance(sc, index)
            h, v = inst.form, inst.valuation
            pi = v.uniformizer
            entries = list(h.diagonal_entries())
            variants = [entries, [u / pi for u in entries], [entries[0] * pi] + entries[1:]]
            for diag in variants:
                form = SkewHermitianForm.diagonal(h.algebra, diag)
                with faults.injected(*((fault,) if fault else ())):
                    cert = good_reduction_certificate(form, v)
                    want = support.certificate_by_window_scan(form, v)
                assert cert == want, (sc["generator"], index)
                outcomes.add(cert.status)
    assert outcomes == {CERTIFIED, NO_CERTIFICATE}


# a point-mode algebra over Q and the division battery algebra over Q(s),
# both with unit parameters at their valuation, and entry coordinates
# with denominators and numerators divisible by 3
_PRECHECK_CASES = (
    (
        QuaternionAlgebra(Rationals(), 2, 5),
        PAdicValuation(3),
        support.fractions(max_num=9, max_den=9),
    ),
    (
        QuaternionAlgebra(_QS, -1, _QS.gen()),
        GaussValuation(PAdicValuation(3), _QS),
        support.rational_functions(_QS, max_deg=1, coeffs=support.fractions(9, 9)),
    ),
)


@pytest.mark.parametrize("fault", (None,) + faults.FAULT_NAMES)
@given(st.data())
def test_value_precheck_agrees_with_the_certificate(fault, data):
    """The generator's test on the untwisted entries gives the answer of
    the certificate's value test on the twisted form: an attempt it drops
    certifies neither in the library nor by the window scan, and one it
    keeps reaches a certificate whose entries share the value e + m."""
    alg, v, coeffs = data.draw(st.sampled_from(_PRECHECK_CASES))
    n = data.draw(st.integers(1, 3))
    pure = support.pure_quaternions(alg, coeffs).filter(lambda u: not u.nrd().is_zero())
    entries = data.draw(st.lists(pure, min_size=n, max_size=n))
    m = data.draw(st.sampled_from((-1, 0, 1)))
    with faults.injected(*((fault,) if fault else ())):
        e = common_integral_value([support.extval(v, u) for u in entries])
        twist = v.uniformizer**m
        h = SkewHermitianForm.diagonal(alg, [u * twist for u in entries])
        cert = good_reduction_certificate(h, v)
        scan = support.certificate_by_window_scan(h, v)
    assert cert == scan
    if e is None:
        assert common_integral_value(cert.extvals) is None
        assert not cert.certified
    else:
        assert cert.extvals == (e + m,) * n
        assert cert.scaling in (None, -(e + m))


# ---------------------------------------------------------------------------
# failed self-checks become error records


def test_failed_congruence_certificate_is_an_error_record(monkeypatch):
    record = support.corrupted_congruence_record(monkeypatch.setattr)
    assert record["status"] == "error"
    assert record["error"] == "CertificateFailed"
    assert record["message"] == "congruence certificate failed"


_OPTIMIZED = support.optimized(__file__, "test_failed_congruence_certificate_is_an_error_record")


def test_failed_congruence_certificate_survives_optimized_mode(optimized_outcomes):
    assert optimized_outcomes[_OPTIMIZED[0]] == "passed"
