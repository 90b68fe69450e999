"""Reduction of skew-hermitian forms to quadratic forms over the conic
function field, specialization at rational points, valuation extension,
and the end-to-end verification pipeline."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import support
from quatwitt import batteries, faults, morita, quaternions
from quatwitt.errors import (
    AlgebraMismatch,
    Degenerate,
    DegenerateSpecialization,
    HypothesisNotCertified,
    NotOnConic,
    QuatwittError,
    RamifiedAlgebra,
    RamifiedParameters,
    UnsupportedField,
    ZeroElement,
)
from quatwitt.fields import FiniteField, FunctionField, Rationals
from quatwitt.hermitian import SkewHermitianForm, diagonalize_h
from quatwitt.morita import (
    conic_field,
    conic_point_search,
    extend_valuation,
    morita_reduce,
    split_reduce_at_point,
    verify_instance,
)
from quatwitt.quadforms import mat_mul, witt_trivial
from quatwitt.quaternions import QuaternionAlgebra, ramification
from quatwitt.valuations import (
    ConicValuation,
    GaussValuation,
    PAdicValuation,
    TransportedConicValuation,
)


@pytest.fixture(scope="module")
def A23(Q):
    return QuaternionAlgebra(Q, 2, 3)


@pytest.fixture(scope="module")
def A11(Q):
    return QuaternionAlgebra(Q, 1, 1)


@pytest.fixture(scope="module")
def Am1s(K):
    return QuaternionAlgebra(K, K(-1), K("s"))


def diag_form(alg, *coeff_rows):
    return SkewHermitianForm.diagonal(
        alg, [alg.el(*row) for row in coeff_rows]
    )


# ---------------------------------------------------------------------------
# splitting data (the test oracle in support)


def test_splitting_constructor_checks_its_own_relations(A23):
    support.SplittingData(A23)


def test_image_is_multiplicative(A23):
    split = support.SplittingData(A23)
    u = A23.el(1, 2, 0, 1)
    w = A23.el(0, 1, -1, 2)
    left = split.image(u * w)
    m1 = split.image(u)
    m2 = split.image(w)
    prod = tuple(
        tuple(
            m1[r][0] * m2[0][c] + m1[r][1] * m2[1][c] for c in range(2)
        )
        for r in range(2)
    )
    assert left == prod


def test_image_determinant_is_reduced_norm(A23):
    split = support.SplittingData(A23)
    C = split.field
    u = A23.el(2, -1, 3, 1)
    m = split.image(u)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert det == C(u.nrd())


def test_image_rejects_foreign_elements(A23, A11):
    split = support.SplittingData(A23)
    with pytest.raises(AlgebraMismatch):
        split.image(A11.el(0, 1, 0, 0))


# ---------------------------------------------------------------------------
# reduction over the conic function field


def test_reduce_single_i_entry(A23):
    h = diag_form(A23, (0, 1, 0, 0))
    q = morita_reduce(h)
    assert [str(e) for e in q.entries] == ["y", "((3)/(x^2 - 1/2))*y"]


def test_reduce_single_ij_entry(A23):
    h = diag_form(A23, (0, 0, 0, 1))
    q = morita_reduce(h)
    assert [str(e) for e in q.entries] == ["-1", "-6"]


def test_reduce_two_entry_form_over_function_base(Am1s):
    h = diag_form(Am1s, (0, 1, 0, 0), (0, 0, 1, 0))
    q = morita_reduce(h)
    assert [str(e) for e in q.entries] == [
        "y",
        "((s)/(x^2 + 1))*y",
        "-x",
        "(s)/(x)",
    ]


def _closed_form_bases():
    Q = Rationals()
    out = {"Q": (Q, st.integers(-6, 6), ("2", "-1", "3", "-5", "4"), ("3", "5", "-7"))}
    QS = FunctionField(Q, "s")
    out["Q(s)"] = (
        QS,
        support.rational_functions(QS, max_deg=1, coeffs=st.integers(-3, 3)),
        ("-1", "2", "s", "s + 1", "-3"),
        ("s", "3", "s^2 + 1"),
    )
    for p in (3, 5):
        Fs = FunctionField(FiniteField(p), "s")
        out[f"F{p}(s)"] = (
            Fs,
            support.rational_functions(Fs, max_deg=1, coeffs=st.integers(0, p - 1)),
            ("-1", "s", "s + 1", "2"),
            ("s", "1", "s^2 + 2"),
        )
    return out


CLOSED_FORM_BASES = _closed_form_bases()


def assert_entry_matches_division(alg, u):
    C = conic_field(alg)
    x, y = C.x_gen(), C.y_gen()
    got = morita._reduce_entry(C, u, x, y)
    want = support.reduce_entry_by_division(C, u, x, y)
    assert [e.value for e in got] == [e.value for e in want]


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_BASES))
@given(data=st.data())
@settings(max_examples=30)
def test_closed_form_entry_matches_field_division(name, data):
    base, coords, ds, ts = CLOSED_FORM_BASES[name]
    d = base(data.draw(st.sampled_from(ds), label="d"))
    t = base(data.draw(st.sampled_from(ts), label="t"))
    alg = QuaternionAlgebra(base, d, t)
    a, b, c = (base(data.draw(coords, label=label)) for label in "abc")
    u = alg.el(0, a, b, c)
    assume(not u.nrd().is_zero())
    assert_entry_matches_division(alg, u)


@pytest.mark.parametrize(
    "d, t, abc, closed",
    [
        (2, 3, (0, 1, 1), False),  # a = 0
        (2, 3, (0, 0, 1), False),  # a = b = 0
        (2, 3, (1, 0, 2), True),  # b = 0
        (2, 3, (1, 0, 0), True),  # b = c = 0
        (4, 3, (1, 2, 1), False),  # d*c^2 = b^2
        (4, 3, (1, -2, -1), False),  # d*c^2 = b^2 again
        (-1, 1, (1, 1, 1), False),  # t*b^2 + a^2*d = 0
        (2, 3, (1, 1, 0), True),
        (2, 3, (2, -3, 5), True),
    ],
)
def test_closed_form_and_fallback_cases(Q, d, t, abc, closed):
    alg = QuaternionAlgebra(Q, d, t)
    u = alg.el(0, *abc)
    assert not u.nrd().is_zero()
    _w, a, b, c = u.coeffs
    C = conic_field(alg)
    took = morita._conic_quotient(C, u.nrd().value, a.value, b.value, c.value)
    assert (took is not None) == closed
    assert_entry_matches_division(alg, u)


# the conics of the division batteries, (d, s) over Q(s), and one conic
# with d a square, where d*c^2 = b^2 holds off b = c = 0 too: b = ±2c
_LINEAR_CONICS = [(d, 0) for _p, d in batteries.DIVISION_BATCHES] + [("4", 2)]


@pytest.mark.parametrize(
    "d, root",
    _LINEAR_CONICS,
    ids=[f"division-{p}" for p, _d in batteries.DIVISION_BATCHES] + ["square-d"],
)
@given(data=st.data())
@settings(max_examples=40)
def test_closed_form_linear_entry_matches_field_arithmetic(K, d, root, data):
    alg = QuaternionAlgebra(K, K(d), K("s"))
    C = conic_field(alg)
    x, y = C.x_gen(), C.y_gen()
    coord = st.one_of(
        st.just(K(0)),
        support.rational_functions(K, max_deg=1, coeffs=st.integers(-3, 3)),
    )
    a = data.draw(coord, label="a")
    c = data.draw(coord, label="c")
    if data.draw(st.booleans(), label="d*c^2 = b^2"):
        # for a nonsquare d only b = c = 0 lies on it
        c = c if root else K(0)
        b = c * data.draw(st.sampled_from((root, -root)), label="b/c")
        assert K(d) * c * c == b * b
    else:
        b = data.draw(coord, label="b")
    u = alg.el(0, a, b, c)
    assume(not u.is_zero() and not u.nrd().is_zero())
    lin, quotient = morita._reduce_entry(C, u, x, y)
    assert lin.value == (C(a) * y - C(b) * x - C(c)).value
    assert lin * quotient == C(u.nrd())


def test_zero_norm_entries_never_reach_the_reduction(A11):
    u = A11.el(0, 1, 0, 1)
    assert u.nrd().is_zero()
    with pytest.raises(Degenerate):
        SkewHermitianForm.diagonal(A11, [u])


@given(
    coeffs=st.tuples(
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)
    ).filter(lambda t: any(t))
)
def test_entry_pair_multiplies_to_reduced_norm(Q, coeffs):
    alg = QuaternionAlgebra(Q, 2, 3)
    a, b, c = coeffs
    u = alg.el(0, a, b, c)
    if u.nrd().is_zero():
        return
    h = SkewHermitianForm.diagonal(alg, [u])
    q = morita_reduce(h)
    C = q.base
    assert q.entries[0] * q.entries[1] == C(u.nrd())


@given(
    rows=st.lists(
        st.tuples(
            st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
        ).filter(lambda t: any(t)),
        min_size=1,
        max_size=2,
    )
)
@settings(max_examples=25)
def test_general_reduction_agrees_entrywise_on_diagonal_forms(Q, rows):
    alg = QuaternionAlgebra(Q, 2, 3)
    entries = [alg.el(0, a, b, c) for a, b, c in rows]
    if any(u.nrd().is_zero() for u in entries):
        return
    h = SkewHermitianForm.diagonal(alg, entries)
    qg = support.general_reduction(h)
    assert qg == morita_reduce(h)


_SMALL = st.integers(-2, 2)


@given(
    rows=st.lists(
        st.tuples(_SMALL, _SMALL, _SMALL).filter(any), min_size=1, max_size=3
    ),
    upper=st.lists(st.tuples(_SMALL, _SMALL, _SMALL, _SMALL), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_general_reduction_of_congruent_forms_is_witt_equivalent(A23, rows, upper):
    entries = [A23.el(0, a, b, c) for a, b, c in rows]
    assume(not any(u.nrd().is_zero() for u in entries))
    n = len(entries)
    # unitriangular, so the change of basis keeps the determinant
    above = iter(upper)
    p = [
        [A23.one() if r == c else A23.el(*next(above)) if r < c else A23.zero()
         for c in range(n)]
        for r in range(n)
    ]
    h = SkewHermitianForm.diagonal(A23, entries).transform(p)
    qd = morita_reduce(h)
    qg = support.general_reduction(h)
    assert qg.rank == qd.rank
    assert support.form_det(qg) / support.form_det(qd) == qg.base(1)
    assert witt_trivial(qg.perp(qd.neg()), 20000).state == "true"


def test_general_reduction_of_the_zero_diagonal_form_is_witt_equivalent(A23):
    # both pivots have reduced norm zero, so diagonalize_h repairs one
    i_el = A23.el(0, 1, 0, 0)
    z = A23.el(0)
    h = SkewHermitianForm(A23, [[z, i_el], [i_el, z]])
    qd = morita_reduce(h)
    qg = support.general_reduction(h)
    assert support.form_det(qg) / support.form_det(qd) == qg.base(1)
    verdict = witt_trivial(qg.perp(qd.neg()), 20000)
    assert verdict.state == "true"
    assert verdict.searched == 0


_UNIT = st.integers(-1, 1)


@given(
    n=st.integers(2, 3),
    pure=st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=2, max_size=2),
    upper=st.lists(st.tuples(_UNIT, _UNIT, _UNIT, _UNIT), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_reduction_of_forms_with_a_zero_pivot_matches_the_split_gram(
    A23, n, pure, upper
):
    # the first diagonal entry is zero, so diagonalize_h swaps in a later
    # pivot or, when no later one has nonzero reduced norm, repairs one;
    # the Witt search cannot decide these differences, so the oracle is an
    # explicit congruence of the 2n x 2n split Grams
    diagonal = [A23.zero()] + [A23.el(0, a, b, c) for a, b, c in pure[: n - 1]]
    above = iter(upper)
    g = [[None] * n for _ in range(n)]
    for k in range(n):
        g[k][k] = diagonal[k]
        for l in range(k + 1, n):
            u = A23.el(*next(above))
            g[k][l], g[l][k] = u, -u.conj()
    try:
        h = SkewHermitianForm(A23, g)
    except Degenerate:
        assume(False)
    entries, p = diagonalize_h(h)
    d = SkewHermitianForm.diagonal(A23, entries)
    assert morita_reduce(h) == support.general_reduction(d)
    split = support.SplittingData(A23)
    m = support.split_basis_change(split, p)
    moved = mat_mul(support.mat_transpose(m), mat_mul(support.split_gram(split, h), m))
    assert moved == support.split_gram(split, d)
    assert support.general_reduction(h).rank == 2 * n


@given(lam=support.nonzero_fractions(max_num=9, max_den=4))
@settings(max_examples=25)
def test_reduction_commutes_with_central_scaling(Q, lam):
    alg = QuaternionAlgebra(Q, 2, 3)
    h = SkewHermitianForm.diagonal(
        alg, [alg.el(0, 1, 2, 0), alg.el(0, 0, 1, 1)]
    )
    left = morita_reduce(h.scale(lam))
    right = morita_reduce(h).scaled(lam)
    assert left == right


# ---------------------------------------------------------------------------
# specialization at a rational point


def test_split_reduce_at_a_point(Q, A11):
    h = diag_form(A11, (0, 1, 0, 0))
    q = split_reduce_at_point(h, (Fraction(3, 5), Fraction(4, 5)))
    assert list(q.entries) == [Fraction(4, 5), Fraction(-5, 4)]


def test_split_reduce_detects_anisotropic_residue(Q, A11):
    h = diag_form(A11, (0, 0, 0, 1))
    q = split_reduce_at_point(h, (Fraction(3, 5), Fraction(4, 5)))
    assert list(q.entries) == [Fraction(-1), Fraction(-1)]
    assert witt_trivial(q, 2000).state == "false"


def test_split_reduce_degenerate_point_is_rejected(A11):
    h = diag_form(A11, (0, 1, 0, 0))
    with pytest.raises(DegenerateSpecialization):
        split_reduce_at_point(h, (Fraction(1), Fraction(0)))


def test_split_reduce_point_must_lie_on_the_conic(A11):
    h = diag_form(A11, (0, 1, 0, 0))
    with pytest.raises(NotOnConic):
        split_reduce_at_point(h, (Fraction(1), Fraction(1)))


def test_point_search_finds_small_points(Q):
    assert conic_point_search(QuaternionAlgebra(Q, 1, 1)) == (Q(0), Q(1))
    assert conic_point_search(QuaternionAlgebra(Q, 2, 1)) == (Q(0), Q(1))


def test_point_search_reports_pointless_conics(Q):
    assert conic_point_search(QuaternionAlgebra(Q, 2, 3)) is None


@given(
    x_num=st.integers(-6, 6),
    x_den=st.integers(1, 6),
)
@settings(max_examples=40)
def test_found_points_satisfy_the_conic_equation(Q, x_num, x_den):
    d = Fraction(x_num, x_den)
    if d == 0 or d == 1:
        return
    alg = QuaternionAlgebra(Q, d, 1 - d)
    point = conic_point_search(alg)
    assert point is not None
    x0, y0 = point
    assert alg.d * x0 * x0 + alg.t * y0 * y0 == Q(1)


# ---------------------------------------------------------------------------
# valuation extension


def test_unit_parameters_extend_directly(g3, Am1s):
    vt = extend_valuation(g3, Am1s)
    assert isinstance(vt, ConicValuation)
    assert ramification(Am1s, g3).split_over_residue is False
    y = vt.domain.y_gen()
    assert vt.value(y) == 0


def test_finite_residue_field_forces_split_residue(Q, v3):
    alg = QuaternionAlgebra(Q, 2, 1)
    vt = extend_valuation(v3, alg)
    assert isinstance(vt, ConicValuation)
    assert ramification(alg, v3).split_over_residue is True


def test_odd_parameter_value_has_no_unit_model(Q, v3):
    with pytest.raises(RamifiedParameters):
        extend_valuation(v3, QuaternionAlgebra(Q, -2, 3))


def test_even_parameter_values_are_transported(Q, v3):
    vt = extend_valuation(v3, QuaternionAlgebra(Q, 18, 5))
    assert isinstance(vt, TransportedConicValuation)
    x = vt.domain.x_gen()
    assert vt.value(x) == -1
    assert vt.value(vt.domain(3) * x) == 0


def test_ramified_algebras_are_refused(Q, v3):
    with pytest.raises(RamifiedAlgebra):
        extend_valuation(v3, QuaternionAlgebra(Q, 2, 3))


def _extension_outcome(v, alg):
    try:
        return type(extend_valuation(v, alg)).__name__
    except QuatwittError as e:
        return type(e).__name__


@pytest.mark.parametrize(
    "fault_names, want",
    [
        ((), ["RamifiedAlgebra", "RamifiedParameters",
              "TransportedConicValuation", "ConicValuation"]),
        # the corrupted report takes (d, t) itself as the unit
        # representative, whose residue is zero when a parameter has odd
        # value; the even-value (18, 5) path reads no report, so it is
        # transported as without the fault
        (("drop-unit-rep",), ["ZeroElement", "ZeroElement",
                              "TransportedConicValuation", "ConicValuation"]),
    ],
    ids=["clean", "drop-unit-rep"],
)
def test_extension_outcome_table(Q, K, v3, g3, fault_names, want):
    cases = [
        (v3, QuaternionAlgebra(Q, 2, 3)),
        (v3, QuaternionAlgebra(Q, -2, 3)),
        (v3, QuaternionAlgebra(Q, 18, 5)),
        (g3, QuaternionAlgebra(K, K(-1), K.gen())),
    ]
    with faults.injected(*fault_names):
        got = [_extension_outcome(v, alg) for v, alg in cases]
    assert got == want


def test_even_parameter_values_need_no_ramification_report(Q, K, v3, g3, monkeypatch):
    def refuse(alg, v):
        raise AssertionError("ramification called")

    monkeypatch.setattr(morita, "ramification", refuse)
    # the uncached function, so that its body runs whatever the memo holds
    fresh = extend_valuation.__wrapped__
    assert isinstance(fresh(v3, QuaternionAlgebra(Q, 2, 1)), ConicValuation)
    assert isinstance(fresh(v3, QuaternionAlgebra(Q, 18, 5)), TransportedConicValuation)
    assert isinstance(fresh(g3, QuaternionAlgebra(K, K(-1), K.gen())), ConicValuation)
    with pytest.raises(AssertionError, match="ramification called"):
        extend_valuation(v3, QuaternionAlgebra(Q, -2, 3))


def _memo_cases():
    Q = Rationals()
    K = FunctionField(Q, "s")
    L = FunctionField(K, "u")
    v3 = PAdicValuation(3)
    cases = [
        (GaussValuation(PAdicValuation(p), K), QuaternionAlgebra(K, K(d), K.gen()))
        for p, d in batteries.DIVISION_BATCHES
    ]
    cases += [(v3, QuaternionAlgebra(Q, 2, 1)), (v3, QuaternionAlgebra(Q, 18, 5))]
    gg = GaussValuation(GaussValuation(v3, K), L)
    cases.append((gg, QuaternionAlgebra(L, L(-1), L(K.gen()) * L.gen() + 1)))
    cases.append((gg, QuaternionAlgebra(L, L(-1), L(3) * L.gen())))
    return cases + [_conic_level_case()]


def _conic_level_case():
    """(-1, 3 + y) over the conic of (-1, s) at its conic valuation: with
    negate-fast-path active, v(3 + y) reads 1 instead of 0, so the report
    says ramified where the clean analysis has no splitting decision."""
    K = FunctionField(Rationals(), "s")
    C = morita.conic_field(QuaternionAlgebra(K, K(-1), K.gen()))
    g3 = GaussValuation(PAdicValuation(3), K)
    vt = ConicValuation(GaussValuation(g3, C.inner), C)
    return vt, QuaternionAlgebra(C, C(-1), C("3 + y"))


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (QuatwittError, ValueError) as e:
        return type(e).__name__
    return out, repr(out)


@pytest.mark.parametrize("fault_names", [(), ("drop-unit-rep",), ("negate-fast-path",)])
def test_memos_match_fresh_computation(fault_names):
    fresh_ramification = quaternions._ramification.__wrapped__
    with faults.injected(*fault_names):
        for v, alg in _memo_cases():
            for _twice in range(2):
                assert _outcome(ramification, alg, v) == _outcome(fresh_ramification, alg, v)
                assert _outcome(conic_field, alg) == _outcome(conic_field.__wrapped__, alg)
                assert _outcome(extend_valuation, v, alg) == _outcome(
                    extend_valuation.__wrapped__, v, alg
                )


def test_ramification_memo_is_keyed_by_the_fault_state(Q, v3):
    alg = QuaternionAlgebra(Q, 18, 5)
    clean = ramification(alg, v3)
    assert clean.unit_rep == (Q(2), Q(5))
    # the corrupted report takes 18 itself as a unit, whose residue is 0;
    # that call must not be answered from the clean entry
    with faults.injected(faults.DROP_UNIT_REP):
        with pytest.raises(ZeroElement):
            ramification(alg, v3)
    assert ramification(alg, v3) == clean
    # a conic valuation reads negate-fast-path, so the report depends on
    # that fault as well
    vt, alg = _conic_level_case()
    with faults.injected(faults.NEGATE_FAST_PATH):
        assert ramification(alg, vt).ramified
    with pytest.raises(UnsupportedField):
        ramification(alg, vt)


# ---------------------------------------------------------------------------
# end-to-end verification


def test_verify_unit_form_over_function_base(g3, Am1s):
    h = diag_form(Am1s, (0, 1, 0, 0), (0, 0, 1, 0))
    rep = verify_instance(h, g3)
    assert rep.verified
    assert rep.scaling == 0
    assert rep.route == "conic"
    assert rep.point is None
    assert rep.quad_values == (0, 0, 0, 0)
    assert rep.second_residue.rank == 0
    assert rep.residue_division is True
    assert rep.entry_min_values == (0, 0)


def test_verify_through_a_rational_point(Q, v3):
    alg = QuaternionAlgebra(Q, 2, 1)
    h = diag_form(alg, (0, 1, 0, 0))
    rep = verify_instance(h, v3, route="point")
    assert rep.verified
    assert rep.point == (Q(0), Q(1))
    assert list(rep.quad.entries) == [Fraction(1), Fraction(-2)]
    assert rep.quad_values == (0, 0)
    assert rep.residue_division is False
    assert rep.verdict.searched == 0


def test_verify_applies_the_certified_scaling(g3, Am1s):
    h = diag_form(Am1s, (0, 3, 0, 0), (0, 0, 3, 0))
    rep = verify_instance(h, g3)
    assert rep.verified
    assert rep.scaling == -1
    first = rep.certified_diagonal[0]
    assert [str(c) for c in first.coeffs] == ["0", "1", "0", "0"]


def test_verify_through_a_transported_valuation(Q, v3):
    alg = QuaternionAlgebra(Q, 18, 5)
    h = diag_form(alg, (0, 0, 1, 0), (0, 1, 1, 0))
    rep = verify_instance(h, v3, budget=30000)
    assert rep.verified
    assert rep.quad_values == (-1, 1, -1, 1)
    assert [str(e) for e in rep.second_residue.entries] == [
        "2*x",
        "(2)/(x)",
        "2*x",
        "(2)/(x)",
    ]
    assert rep.verdict.searched == 163


def test_verify_requires_a_certificate(g3, Am1s):
    h = diag_form(Am1s, (0, 1, 0, 0), (0, 0, 3, 0))
    with pytest.raises(HypothesisNotCertified):
        verify_instance(h, g3)


def test_verify_rejects_unknown_routes(g3, Am1s):
    h = diag_form(Am1s, (0, 1, 0, 0))
    with pytest.raises(ValueError):
        verify_instance(h, g3, route="synthetic")


def test_verify_point_route_needs_a_point_on_pointless_conics(Q, v3):
    alg = QuaternionAlgebra(Q, 10, 3)
    h = diag_form(alg, (0, 1, 0, 0))
    with pytest.raises(NotOnConic):
        verify_instance(h, v3, route="point")
