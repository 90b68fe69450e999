"""The certificate, the point reduction, the second residue form, the
reduced norm, the Witt isotropy search and the conic generator's
attempts run on raw payloads, and the point generator draws on ints.
Each is checked here against a reference on wrapped elements or field
operations from tests/support.py, and the same tests run again in the
shared python -O session."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import support
from quatwitt import batteries, faults
from quatwitt.fields import ConicExtension, FiniteField, FunctionField, Rationals
from quatwitt.hermitian import SkewHermitianForm, common_integral_value, good_reduction_certificate
from quatwitt.morita import _split_reduce_entries
from quatwitt.quadforms import (
    FALSE,
    INDETERMINATE,
    QuadraticForm,
    _candidate_vectors,
    second_residue_form,
    witt_trivial,
)
from quatwitt.quaternions import QuaternionAlgebra, extvals, ramification
from quatwitt.scenarios import generate_instance, generator_setup, instance_descriptor
from quatwitt.valuations import GaussValuation, PAdicValuation

_Q = Rationals()
_QS = FunctionField(_Q, "s")
# the algebra and valuation of the p = 3 division battery
_QS_ALGEBRA = QuaternionAlgebra(_QS, -1, _QS.gen())
_QS_GAUSS = GaussValuation(PAdicValuation(3), _QS)


def _check_certificate(alg, v, entries, fault):
    h = SkewHermitianForm.diagonal(alg, entries)
    with faults.injected(*((fault,) if fault else ())):
        cert = good_reduction_certificate(h, v)
        want = support.certificate_by_elements(h, v)
    assert cert == want
    assert all(type(e) is Fraction for e in cert.extvals)


@pytest.mark.parametrize("fault", [None, faults.DROP_UNIT_REP])
@pytest.mark.parametrize("p", batteries.SPLIT_PRIMES)
@given(data=st.data())
@settings(max_examples=30)
def test_certificate_matches_elements_at_the_split_primes(p, fault, data):
    alg, _point = data.draw(support.point_algebras(p), label="algebra")
    pure = support.pure_entries_up_to(alg, alg.base(p), st.integers(-9, 9))
    entries = data.draw(st.lists(pure, min_size=1, max_size=3), label="entries")
    _check_certificate(alg, PAdicValuation(p), entries, fault)


@pytest.mark.parametrize("fault", [None, faults.DROP_UNIT_REP])
@given(data=st.data())
@settings(max_examples=30)
def test_certificate_matches_elements_at_a_gauss_valuation(fault, data):
    coeffs = support.rational_functions(_QS, max_deg=1, coeffs=support.fractions(9, 9))
    pure = support.pure_entries_up_to(_QS_ALGEBRA, _QS(3), coeffs, top=2)
    entries = data.draw(st.lists(pure, min_size=1, max_size=3), label="entries")
    _check_certificate(_QS_ALGEBRA, _QS_GAUSS, entries, fault)


@pytest.mark.parametrize("p", batteries.SPLIT_PRIMES)
@given(data=st.data())
@settings(max_examples=30)
def test_point_reduction_and_second_residue_match_elements(p, data):
    alg, point = data.draw(support.point_algebras(p), label="algebra")
    pure = support.pure_entries_up_to(alg, alg.base(p), st.integers(-9, 9))
    entries = data.draw(st.lists(pure, min_size=1, max_size=3), label="entries")
    x, y = point
    assume(all(not (u.coeffs[1] * y - u.coeffs[2] * x - u.coeffs[3]).is_zero() for u in entries))
    v = PAdicValuation(p)
    quad = _split_reduce_entries(alg, entries, point)
    want = support.split_reduction_by_elements(alg, entries, point)
    assert [e.value for e in quad.entries] == [e.value for e in want]
    values = [support.value_by_wrapping(v, e) for e in want]
    second = second_residue_form(quad, v, values)
    residues = support.padic_second_residue_by_fractions(v, want)
    assert [r.value for r in second.entries] == [r.value for r in residues]


# ---------------------------------------------------------------------------
# the reduced norm as one evaluation of the norm form

_F7S_BASE = FunctionField(FiniteField(7), "s")
# polynomials take the integer pass, and one fraction sends a whole
# evaluation to the loop
_QS_POLYS = st.lists(support.fractions(9, 4), max_size=3).map(
    lambda cs: _QS.make(support.q_payloads(cs), ((1, 1),))
)
# name: (base field, strategy of coordinate payloads)
_NORM_FORM_LEVELS = {
    "Q": (_Q, support.tower_payloads(_Q)),
    "F7": (FiniteField(7), support.tower_payloads(FiniteField(7))),
    "Q(s)": (_QS, st.one_of(_QS_POLYS, _QS_POLYS, support.tower_payloads(_QS, 2))),
    "F7(s)": (_F7S_BASE, support.tower_payloads(_F7S_BASE, 2)),
}


@pytest.mark.parametrize("name", sorted(_NORM_FORM_LEVELS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_norm_form_matches_mul_and_add(name, data):
    """nrd and eval_diagonal against w^2 - d*a^2 - t*b^2 + d*t*c^2 and
    sum k*x^2 taken through FieldElement mul and add, with w != 0 and
    zero coordinates among the draws."""
    base, coords = _NORM_FORM_LEVELS[name]
    d, t = (data.draw(coords.filter(lambda c: not base.is_zero(c)), label=k) for k in "dt")
    alg = QuaternionAlgebra(base, base.el(d), base.el(t))
    u = alg.el(*(base.el(data.draw(coords, label=k)) for k in "wabc"))
    assert u.nrd() == support.nrd_formula(u)
    ks = data.draw(st.lists(coords, max_size=4), label="ks")
    xs = [data.draw(coords, label="x") for _ in ks]
    want = base(0)
    for k, x in zip(ks, xs):
        want = want + base.el(k) * base.el(x) * base.el(x)
    assert base.eval_diagonal(ks, xs) == want.value


# ---------------------------------------------------------------------------
# the point generator's integer draws

# the split primes, and two above the coordinate bound 9, where every
# nonzero draw is a unit
_DRAW_PRIMES = (3, 5, 7, 11, 101)


def _point_instances_match(p, seed, rank, indices):
    sc = batteries.point_scenario(p, seed=seed)
    if rank is not None:
        sc = dict(sc, rank=rank)
    for index in indices:
        got = instance_descriptor(generate_instance(sc, index))
        assert got == instance_descriptor(support.point_instance_by_field_ops(sc, index))


@pytest.mark.parametrize("p", _DRAW_PRIMES)
def test_point_draws_match_the_field_op_reference(p):
    for seed in (1, 2, 42):
        for rank in (None, 1, 2, 3):
            _point_instances_match(p, seed, rank, range(20))


@given(
    st.integers(0, 2**32),
    st.integers(0, 10**6),
    st.sampled_from(_DRAW_PRIMES + (13, 17)),
    st.sampled_from((None, 1, 2, 3)),
)
@settings(max_examples=40)
def test_point_draws_match_the_field_op_reference_at_random_seeds(seed, index, p, rank):
    _point_instances_match(p, seed, rank, (index,))


# ---------------------------------------------------------------------------
# the generators' payload draws and the point generator's unit-norm hook


# the four division batteries, and p = 3 with no pinned algebra, whose
# draws test d, t and the residue algebra
_CONIC_BATCHES = batteries.DIVISION_BATCHES + ((3, None),)


@pytest.mark.parametrize("p, d", _CONIC_BATCHES)
def test_conic_draws_match_the_element_reference(p, d):
    for seed in (1, 2, 42):
        sc = batteries.conic_scenario(p, d, seed=seed)
        if d is None:
            sc = {k: x for k, x in sc.items() if k != "algebra"}
        for rank in (None, 1, 2, 3):
            ranked = sc if rank is None else dict(sc, rank=rank)
            for index in range(10):
                got = instance_descriptor(generate_instance(ranked, index))
                assert got == instance_descriptor(support.conic_instance_by_field_ops(ranked, index))


def _triples(alg, point):
    """Integer coordinate triples: any, or a multiple of
    (t*y0, d*x0, 1), whose reduced norm -d*a^2 - t*b^2 + d*t*c^2 is 0
    on the conic d*x0^2 + t*y0^2 = 1."""
    d, t = Fraction(*alg.d.value), Fraction(*alg.t.value)
    x0, y0 = (Fraction(*c.value) for c in point)
    a, b = t * y0, d * x0
    lcm = math.lcm(a.denominator, b.denominator)
    isotropic = (int(a * lcm), int(b * lcm), lcm)
    coord = st.integers(-30, 30)
    return st.one_of(
        st.tuples(coord, coord, coord),
        st.integers(-3, 3).map(lambda k: tuple(k * x for x in isotropic)),
    )


def _check_unit_norm_hook(gen, params, alg, v, triples):
    """gen.unit_norm on the payloads of each triple is None exactly when
    the wrapped entry's reduced norm is 0; on the others every hook holds
    exactly when their extvals share one integral value below 1, the
    test `common_integral_value` makes in the certificate."""
    hooks, entries = [], []
    for a, b, c in triples:
        u = alg.el(0, a, b, c)
        hook = gen.unit_norm(params, *(x.value for x in u.coeffs[1:]))
        assert (hook is None) == u.nrd().is_zero()
        if hook is not None:
            hooks.append(hook)
            entries.append(u)
    if entries:
        e = common_integral_value(extvals(v, entries))
        assert all(hooks) == (e is not None and e < 1)


@pytest.mark.parametrize("p", _DRAW_PRIMES)
@given(data=st.data())
@settings(max_examples=40)
def test_unit_norm_hook_matches_extended_values(p, data):
    gen = generator_setup(batteries.point_scenario(p))
    alg, point = data.draw(support.point_algebras(p), label="algebra")
    (tn, td), ((xn, xd), (yn, yd)) = alg.t.value, (c.value for c in point)
    params = (alg.d.value[0], tn, td, xn, xd, yn, yd)
    triples = data.draw(st.lists(_triples(alg, point), min_size=1, max_size=3), label="triples")
    _check_unit_norm_hook(gen, params, alg, gen.valuation, triples)


def _integral_polys(p):
    """Polynomials in s of degree <= 1 with integer coefficients, times 1
    or p: Gauss value >= 0, and >= 1 on every multiple of p."""
    return st.builds(
        lambda cs, k: sum((_QS(c) * _QS.gen() ** i for i, c in enumerate(cs)), _QS(0)) * p**k,
        st.lists(st.integers(-9, 9), min_size=1, max_size=2),
        st.integers(0, 1),
    )


def _norm_values_of_least_value_zero(alg, v, triples):
    """v(nrd(a*i + b*j + c*ij)) for each triple (a, b, c) whose least
    coordinate value is 0."""
    return [
        v.value(alg.el(0, a, b, c).nrd())
        for a, b, c in triples
        if min(v.value(x) for x in (a, b, c)) == 0
    ]


@functools.lru_cache(maxsize=None)
def _conic_generator_and_algebras(p, d):
    """The generator of a conic battery and its algebras: the pinned one,
    or with d None the distinct ones of the first 40 draws."""
    sc = batteries.conic_scenario(p, d or "-1")
    if d is None:
        sc = {k: x for k, x in sc.items() if k != "algebra"}
    gen = generator_setup(sc)
    drawn = (gen.draw(random.Random(seed)) for seed in range(40))
    return gen, tuple(dict.fromkeys(alg for alg in drawn if alg is not None))


@pytest.mark.parametrize("p, d", _CONIC_BATCHES)
@given(data=st.data())
@settings(max_examples=25)
def test_drawn_norms_are_units_over_a_division_residue(p, d, data):
    """Why the conic generator has no unit-norm test: over its algebras,
    whose residue algebras are division, every triple of least value 0
    has a reduced norm of value 0.  The triples are integral polynomials
    and the generator's own coordinate draws."""
    gen, algebras = _conic_generator_and_algebras(p, d)
    alg = data.draw(st.sampled_from(algebras), label="algebra")
    coord = _integral_polys(p)
    drawn = st.integers(0, 2**32).map(lambda seed: tuple(map(_QS.el, gen.coords(random.Random(seed)))))
    triples = data.draw(st.lists(st.one_of(st.tuples(coord, coord, coord), drawn), min_size=1, max_size=4), label="triples")
    values = _norm_values_of_least_value_zero(alg, gen.valuation, triples)
    assert values == [0] * len(values)


def test_a_split_residue_algebra_has_norms_of_positive_value():
    """The negative control: over (1, s) at p = 3, whose residue algebra
    splits, some integer triple of least value 0 has a nonzero reduced
    norm of positive value, such as (3, 2, 1) with nrd -9 - 3*s."""
    alg = QuaternionAlgebra(_QS, 1, _QS.gen())
    assert ramification(alg, _QS_GAUSS).split_over_residue
    box = range(-3, 4)
    triples = [(_QS(a), _QS(b), _QS(c)) for a in box for b in box for c in box]
    values = _norm_values_of_least_value_zero(alg, _QS_GAUSS, triples)
    assert any(0 < e < math.inf for e in values)


# the fault-free cases of the tests above, rerun in the shared python -O
# session
_OPTIMIZED_PAYLOAD = support.optimized(
    __file__,
    *(f"test_certificate_matches_elements_at_the_split_primes[{p}-None]" for p in batteries.SPLIT_PRIMES),
    "test_certificate_matches_elements_at_a_gauss_valuation[None]",
    *(f"test_point_reduction_and_second_residue_match_elements[{p}]" for p in batteries.SPLIT_PRIMES),
    *(f"test_norm_form_matches_mul_and_add[{name}]" for name in _NORM_FORM_LEVELS),
    *(f"test_point_draws_match_the_field_op_reference[{p}]" for p in _DRAW_PRIMES),
    "test_point_draws_match_the_field_op_reference_at_random_seeds",
    *(f"test_conic_draws_match_the_element_reference[{p}-{d}]" for p, d in _CONIC_BATCHES),
)


def test_payload_paths_match_their_references_in_optimized_mode(optimized_outcomes):
    assert [optimized_outcomes.get(i) for i in _OPTIMIZED_PAYLOAD] == ["passed"] * (
        8 + len(_NORM_FORM_LEVELS) + len(_DRAW_PRIMES) + len(_CONIC_BATCHES)
    )


# ---------------------------------------------------------------------------
# the Witt isotropy search

_F3S = FunctionField(FiniteField(3), "s")
_F7S = FunctionField(FiniteField(7), "s")
_CONIC_23 = ConicExtension(_Q, 2, 3)

# name: (field, entries, budget, (state, searched)); the isotropic cases
# find a vector, split off its plane and decide the complement, the
# rank-6 ones twice
_WITT_CASES = {
    "Q-definite-budget-1": (_Q, ["1", "1", "1", "1"], 1, (INDETERMINATE, 1)),
    "Q-definite-budget-500": (_Q, ["1", "1", "1", "1"], 500, (INDETERMINATE, 500)),
    "Q-definite-budget-2000": (_Q, ["1", "1", "1", "1"], 2000, (INDETERMINATE, 2000)),
    "Q-isotropic": (_Q, ["1", "1", "-2", "-3"], 2000, (FALSE, 2)),
    "Q-isotropic-twice": (_Q, ["3", "-7", "-5", "1/2", "3", "1"], 300, (FALSE, 253)),
    # no isotropic vector in the 728 of radius 1; the first is at 1411
    "Q-rank-6-radius-2": (_Q, ["-1", "6", "-2", "-2", "6", "6"], 3000, (FALSE, 2051)),
    "Qs-isotropic": (_QS, ["1", "1", "-2", "s"], 2000, (FALSE, 3)),
    "Qs-exhausted": (_QS, ["1", "1", "1", "s"], 300, (INDETERMINATE, 300)),
    # entries that are not polynomials take eval_diagonal's element loop
    "Qs-fractions": (_QS, ["1/(s + 1)", "2", "s/(s + 1)", "-1"], 2000, (FALSE, 163)),
    # polynomials with unequal contents: the integer pass rescales its sum
    "Qs-contents": (_QS, ["5", "1/2", "s/3", "-(2*s + 3)/6"], 2000, (FALSE, 1459)),
    "F7s-isotropic": (_F7S, ["s", "1", "2", "4"], 3000, (FALSE, 2451)),
    "F7s-exhausted": (_F7S, ["1", "s", "s + 1", "s^2 + 2"], 300, (INDETERMINATE, 300)),
    # its isotropic vector has a linear polynomial for a coordinate
    "F3s-isotropic": (_F3S, ["2", "s^2 + 1", "2", "s"], 400, (FALSE, 136)),
    "conic-isotropic": (_CONIC_23, ["1", "1", "-2", "x"], 2000, (FALSE, 1884)),
    "conic-exhausted": (_CONIC_23, ["x", "y", "1", "1"], 200, (INDETERMINATE, 200)),
}


def _check_witt_search(q, budget):
    verdict = witt_trivial(q, budget)
    assert verdict == support.witt_by_element_search(q, budget)
    return verdict


@pytest.mark.parametrize("case", list(_WITT_CASES))
def test_witt_search_matches_elements(case):
    field, entries, budget, want = _WITT_CASES[case]
    q = QuadraticForm(field, [field.parse(e) for e in entries])
    assert _check_witt_search(q, budget) == want


@pytest.mark.parametrize("rank", range(1, 7))
def test_q_candidate_shells_match_the_filtered_cube(rank):
    # the payload stream yields each shell directly; the reference
    # filters the cube [-r, r]^rank down to max |c_i| = r
    want = itertools.islice(support._candidate_elements(_Q, rank), 20000)
    got = itertools.islice(_candidate_vectors(_Q, rank, 20000), 20000)
    assert list(got) == [tuple(c.value for c in vec) for vec in want]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_witt_search_matches_elements_at_small_budgets_over_fp_s(p):
    # the F_p(s) pool is cut to the coordinates the budget can reach;
    # budgets around p and p^2 cross from the constants into the linear
    # polynomials and from one coordinate into the next
    field = FunctionField(FiniteField(p), "s")
    q = QuadraticForm(field, [field.parse(e) for e in ("1", "s", "s + 1", "s^2 + 2")])
    for budget in sorted({*range(8), p - 1, p, p + 1, p * p - 1, p * p, p * p + 1}):
        _check_witt_search(q, budget)


def _even_rank(entries):
    # odd ranks and rank 2 are decided before any search
    return st.sampled_from([4, 6]).flatmap(lambda m: st.lists(entries, min_size=m, max_size=m))


_SMALL_Q = st.one_of(st.integers(-5, 5).filter(bool).map(Fraction), support.nonzero_fractions(9, 4))


@given(_even_rank(_SMALL_Q), st.integers(0, 300))
def test_witt_search_matches_elements_on_random_forms_over_q(entries, budget):
    _check_witt_search(QuadraticForm(_Q, [_Q(e) for e in entries]), budget)


@given(
    _even_rank(support.nonzero_rational_functions(_QS, max_deg=1, coeffs=st.integers(-3, 3))),
    st.integers(0, 400),
)
def test_witt_search_matches_elements_on_random_forms_over_q_s(entries, budget):
    _check_witt_search(QuadraticForm(_QS, entries), budget)


# over F_7(s) no isotropic vector comes before candidate 49^2, so F_3(s)
# (9 coordinates) is where random forms split planes within the budget
@pytest.mark.parametrize("p, top", [(3, 300), (7, 100)])
@given(data=st.data())
def test_witt_search_matches_elements_on_random_forms_over_fp_s(p, top, data):
    field = {3: _F3S, 7: _F7S}[p]
    coeffs = st.integers(0, p - 1)
    entries = data.draw(
        st.lists(support.nonzero_rational_functions(field, max_deg=1, coeffs=coeffs), min_size=4, max_size=4),
        label="entries",
    )
    _check_witt_search(QuadraticForm(field, entries), data.draw(st.integers(0, top), label="budget"))


# every search test above is fault-free
_OPTIMIZED_WITT = support.optimized(
    __file__,
    *(f"test_witt_search_matches_elements[{case}]" for case in _WITT_CASES),
    *(f"test_witt_search_matches_elements_at_small_budgets_over_fp_s[{p}]" for p in (3, 5, 7)),
    "test_witt_search_matches_elements_on_random_forms_over_q",
    "test_witt_search_matches_elements_on_random_forms_over_q_s",
    "test_witt_search_matches_elements_on_random_forms_over_fp_s[3-300]",
    "test_witt_search_matches_elements_on_random_forms_over_fp_s[7-100]",
)


def test_witt_search_matches_elements_in_optimized_mode(optimized_outcomes):
    assert [optimized_outcomes.get(i) for i in _OPTIMIZED_WITT] == ["passed"] * (len(_WITT_CASES) + 7)
