"""Diagonal quadratic forms, diagonalization, residue forms, and the
Witt-triviality oracle."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from quatwitt import faults
from quatwitt.errors import Degenerate, NegativeValue, QuatwittError
from quatwitt.fields import FiniteField, FunctionField, Rationals
from quatwitt.quadforms import (
    FALSE,
    INDETERMINATE,
    TRUE,
    QuadraticForm,
    _candidate_vectors,
    diagonalize,
    mat_mul,
    reconstruction,
    residue_forms,
    second_residue_form,
    witt_trivial,
)
from quatwitt.valuations import GaussValuation, PAdicValuation


def qform(field, *entries):
    return QuadraticForm(field, [field(e) for e in entries])


# ---------------------------------------------------------------------------
# construction and basic invariants


def test_rejects_zero_entries(Q):
    with pytest.raises(Degenerate):
        qform(Q, 1, 0)


def test_entries_of_the_base_are_kept(Q, F7):
    u, w = Q("-7/4"), F7(3)
    assert QuadraticForm(Q, [u]).entries[0] is u
    assert QuadraticForm(F7, [w, w]).entries == (w, w)
    assert all(e is w for e in QuadraticForm(F7, [w, w]).entries)


def test_other_entries_are_coerced_into_the_base(Q, K):
    q = QuadraticForm(K, [2, "s + 1", Q("3/5"), K.gen()])
    assert q.entries == (K(2), K.gen() + 1, K("3/5"), K.gen())
    assert all(e.field is K for e in q.entries)
    # an equal but distinct finite field is the same field
    F, G = FiniteField(7), FiniteField(7)
    q = QuadraticForm(F, [G(3), 4])
    assert F is not G and q.entries == (F(3), F(4))


@pytest.mark.parametrize(
    "base, zero",
    [
        (FiniteField(7), 0),
        (FiniteField(7), "14"),
        (FiniteField(7), "-0/3"),
        (Rationals(), "0"),
        (FunctionField(Rationals(), "s"), "7*s/s - 7"),
    ],
    ids=["F7-int", "F7-residue", "F7-fraction", "Q", "Q(s)"],
)
def test_zero_entries_are_degenerate_however_given(base, zero):
    with pytest.raises(Degenerate):
        QuadraticForm(base, [1, zero])
    with pytest.raises(Degenerate):
        QuadraticForm(base, [base(zero), 1])


def test_rank_det_apply(Q):
    q = qform(Q, 1, -2, 3)
    assert q.rank == 3
    assert support.form_det(q) == Q(-6)
    assert support.form_apply(q, [Q(1), Q(1), Q(2)]) == Q(11)
    assert q.scaled(Q(2)).entries[1] == Q(-4)
    assert q.neg().entries[0] == Q(-1)
    assert q.perp(qform(Q, 5)).rank == 4


# ---------------------------------------------------------------------------
# diagonalization


def test_diagonalize_hyperbolic_plane(Q):
    gram = [[Q(0), Q(1)], [Q(1), Q(0)]]
    q, p = diagonalize(Q, gram)
    assert [str(e) for e in q.entries] == ["2", "-1/2"]


@pytest.mark.parametrize(
    "field, entries, rows",
    [
        (Rationals(), ["2", "-1/2", "-12"], [["1", "-1/2", "-3"], ["1", "1/2", "-2"], ["0", "0", "1"]]),
        (FiniteField(7), ["2", "3", "2"], [["1", "3", "4"], ["1", "4", "5"], ["0", "0", "1"]]),
    ],
    ids=["Q", "F7"],
)
def test_diagonalize_zero_diagonal_repair_frozen(field, entries, rows):
    # every diagonal entry is zero, so the first pivot comes from e_0 += e_1
    gram = [[field(x) for x in row] for row in [[0, 1, 2], [1, 0, 3], [2, 3, 0]]]
    q, p = diagonalize(field, gram)
    assert [str(e) for e in q.entries] == entries
    assert [[str(x) for x in row] for row in p] == rows


def test_diagonalize_frozen(Q):
    gram = [[Q(2), Q(1)], [Q(1), Q(2)]]
    q, p = diagonalize(Q, gram)
    assert [str(e) for e in q.entries] == ["2", "3/2"]


def test_diagonalize_rejects_singular(Q):
    with pytest.raises(Degenerate):
        diagonalize(Q, [[Q(1), Q(1)], [Q(1), Q(1)]])


@given(
    st.lists(st.integers(-5, 5), min_size=6, max_size=6),
)
def test_diagonalize_certifies_congruence(raw):
    Q = Rationals()
    gram = [
        [Q(raw[0]), Q(raw[1]), Q(raw[2])],
        [Q(raw[1]), Q(raw[3]), Q(raw[4])],
        [Q(raw[2]), Q(raw[4]), Q(raw[5])],
    ]
    try:
        q, p = diagonalize(Q, gram)
    except Degenerate:
        return
    lhs = mat_mul(mat_mul(support.mat_transpose(p), gram), p)
    for k in range(3):
        for l in range(3):
            expect = q.entries[k] if k == l else Q(0)
            assert (lhs[k][l] - expect).is_zero()


# ---------------------------------------------------------------------------
# residue forms at a valuation


def test_residue_forms_frozen(Q, v3):
    pair = residue_forms(qform(Q, 2, 15, 18, Fraction(1, 3)), v3)
    assert [str(e) for e in pair.first.entries] == ["2", "2"]
    assert [str(e) for e in pair.second.entries] == ["2", "1"]


def test_residue_forms_negative_value(Q, v3):
    pair = residue_forms(qform(Q, Fraction(1, 3)), v3)
    assert pair.first.rank == 0
    assert [str(e) for e in pair.second.entries] == ["1"]


def test_residue_forms_function_field(K, g3):
    s = K.gen()
    q = QuadraticForm(K, [s, 3 * s])
    pair = residue_forms(q, g3)
    assert [str(e) for e in pair.first.entries] == ["s"]
    assert [str(e) for e in pair.second.entries] == ["s"]


def _second_residue_outcome(compute):
    try:
        return [str(e) for e in compute().entries]
    except QuatwittError as e:
        return (type(e).__name__, str(e))


def _check_second_residue_form(q, v, fault):
    """second_residue_form, fed the entry values, agrees with
    residue_forms(q, v).second, errors included."""
    with faults.injected(*fault):
        values = [v.value(u) for u in q.entries]
        assert _second_residue_outcome(
            lambda: second_residue_form(q, v, values)
        ) == _second_residue_outcome(lambda: residue_forms(q, v).second)


_FAULT_CHOICES = st.sampled_from([(), (faults.SKIP_EVEN_SCALING,)])


@given(
    st.sampled_from([3, 5]),
    st.lists(
        st.tuples(support.nonzero_fractions(max_num=20, max_den=5), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    ),
    _FAULT_CHOICES,
)
def test_second_residue_form_matches_residue_forms_padic(p, raw, fault):
    Q = Rationals()
    q = QuadraticForm(Q, [Q(c * Fraction(p) ** k) for c, k in raw])
    _check_second_residue_form(q, PAdicValuation(p), fault)


@given(
    st.lists(
        st.tuples(
            support.nonzero_rational_functions(FunctionField(Rationals(), "s"), max_deg=2),
            st.integers(-3, 3),
        ),
        min_size=1,
        max_size=4,
    ),
    _FAULT_CHOICES,
)
def test_second_residue_form_matches_residue_forms_gauss(raw, fault):
    K = FunctionField(Rationals(), "s")
    q = QuadraticForm(K, [u * K(3) ** k for u, k in raw])
    _check_second_residue_form(q, GaussValuation(PAdicValuation(3), K), fault)


def test_reconstruction_recovers_the_witt_class(Q, v3):
    q = qform(Q, 2, 15, 18, Fraction(1, 3))
    rec = reconstruction(q, v3)
    probe = q.perp(rec.neg())
    assert witt_trivial(probe).state == TRUE


@given(st.lists(st.integers(-40, 40).filter(lambda n: n != 0), min_size=1, max_size=4))
def test_reconstruction_is_witt_equivalent(entries):
    Q = Rationals()
    v = PAdicValuation(3)
    q = qform(Q, *entries)
    rec = reconstruction(q, v)
    assert witt_trivial(q.perp(rec.neg())).state == TRUE


# ---------------------------------------------------------------------------
# Witt-triviality oracle


def test_witt_trivial_frozen_rationals(Q):
    assert witt_trivial(qform(Q, 1, -1)).state == TRUE
    assert witt_trivial(qform(Q, 1)).state == FALSE
    assert witt_trivial(qform(Q, 1, 1, 1, -3)).state == FALSE
    assert witt_trivial(qform(Q, 3, -12)).state == TRUE


def test_witt_trivial_frozen_finite(F3, F5):
    assert witt_trivial(qform(F3, 1, -1, 1, -1)).state == TRUE
    assert witt_trivial(qform(F3, 1, 2)).state == TRUE
    assert witt_trivial(qform(F3, 1, 1)).state == FALSE
    assert witt_trivial(qform(F5, 1, 2, 1, 2, 1)).state == FALSE


def test_witt_trivial_budget_exhaustion(Q):
    verdict = witt_trivial(qform(Q, 1, 1, 1, 1), budget=500)
    assert verdict.state == INDETERMINATE
    assert verdict.searched >= 500


def test_rank_zero_form_is_trivial(Q):
    assert witt_trivial(QuadraticForm(Q, [])).state == TRUE


@given(
    st.lists(st.integers(-9, 9).filter(lambda n: n != 0), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_shuffled_hyperbolic_forms_are_recognized(scalars, rng):
    Q = Rationals()
    entries = []
    for a in scalars:
        entries.extend([Q(a), Q(-a)])
    rng.shuffle(entries)
    assert witt_trivial(QuadraticForm(Q, entries)).state == TRUE


@given(
    st.lists(st.integers(1, 4).filter(lambda n: n != 0), min_size=1, max_size=2),
    st.randoms(use_true_random=False),
)
def test_shuffled_hyperbolic_forms_over_finite_fields(scalars, rng):
    F5 = FiniteField(5)
    entries = []
    for a in scalars:
        entries.extend([F5(a), F5(-a)])
    rng.shuffle(entries)
    assert witt_trivial(QuadraticForm(F5, entries)).state == TRUE


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_odd_rank_forms_are_never_trivial(entries):
    F7 = FiniteField(7)
    if len(entries) % 2 == 0:
        entries = entries[:-1] if len(entries) > 1 else entries + [1]
    q = QuadraticForm(F7, [F7(e) for e in entries])
    assert witt_trivial(q).state == FALSE


def test_finite_field_verdicts_are_decided(F7):
    # every form over a finite field must come back true or false
    for entries in [(1,), (1, 2), (3, 3, 5), (1, 2, 3, 4), (2, 2, 2, 2, 2)]:
        state = witt_trivial(qform(F7, *entries)).state
        assert state in (TRUE, FALSE)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_finite_field_decision_matches_ternary_search(p):
    """Rank and discriminant decide Witt triviality over F_p exactly as
    splitting off hyperbolic planes by exhaustive search does."""
    F = FiniteField(p)
    rng = random.Random(f"witt:{p}")
    for rank in range(8):
        for _ in range(12):
            q = qform(F, *(rng.randrange(1, p) for _ in range(rank)))
            assert witt_trivial(q) == support.witt_by_ternary_search(q), q


@pytest.mark.parametrize(
    "entries",
    [(1, 1, 1, 1), tuple(random.Random("rank6").randrange(1, 1000003) for _ in range(6))],
)
def test_witt_decision_over_a_large_prime_is_fast(entries):
    F = FiniteField(1000003)
    q = qform(F, *entries)
    start = time.perf_counter()
    verdict = witt_trivial(q)
    assert time.perf_counter() - start < 1.0
    assert verdict.state in (TRUE, FALSE) and verdict.searched == 0
    if entries == (1, 1, 1, 1):
        # 1000003 = 3 mod 4, so no pair <1, 1> is hyperbolic, yet the
        # discriminant of <1, 1, 1, 1> is a square
        assert verdict.state == TRUE


@pytest.mark.parametrize("p", [509, 4001, 2**61 - 1])
def test_witt_search_over_a_large_f_p_s_does_not_stall(p):
    # the candidate coordinates are cut to what the budget reaches, so the
    # p^2 linear polynomials, and past the budget the p constants, are
    # never all built
    F = FunctionField(FiniteField(p), "s")
    q = QuadraticForm(F, [F.parse(e) for e in ("1", "s", "s + 1", "s^2 + 2")])
    start = time.perf_counter()
    verdict = witt_trivial(q, budget=1)
    assert time.perf_counter() - start < 1.0
    assert verdict == (INDETERMINATE, 1)


def test_q_candidate_shells_at_a_large_rank_do_not_stall(Q):
    # the stream starts at once: no shell of rank 24 or 23 is built
    # before its first vector is yielded
    start = time.perf_counter()
    vecs = list(itertools.islice(_candidate_vectors(Q, 24, 2000), 2000))
    assert time.perf_counter() - start < 1.0
    assert len(vecs) == 2000 and all(len(v) == 24 for v in vecs)


def test_is_unramified(Q, v3):
    assert support.is_unramified(qform(Q, 2, 15, 18, Fraction(1, 3)), v3).state == TRUE
    assert support.is_unramified(qform(Q, 1, 3), v3).state == FALSE
    assert support.is_unramified(qform(Q, 1, 2), v3).state == TRUE


# ---------------------------------------------------------------------------
# fault observability


def test_skip_even_scaling_is_observable(Q, v3):
    with faults.injected(faults.SKIP_EVEN_SCALING):
        with pytest.raises(Degenerate):
            residue_forms(qform(Q, 18), v3)
        with pytest.raises(NegativeValue):
            residue_forms(qform(Q, Fraction(1, 3)), v3)
        pair = residue_forms(qform(Q, 2, 15), v3)
        assert [str(e) for e in pair.first.entries] == ["2"]
        assert [str(e) for e in pair.second.entries] == ["2"]
    # the guard restores honest behavior on exit
    pair = residue_forms(qform(Q, 18), v3)
    assert [str(e) for e in pair.first.entries] == ["2"]
