"""Shared strategies and small builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from quatwitt.fields import (
    ConicExtension,
    FiniteField,
    FunctionField,
    Rationals,
)
from quatwitt.valuations import INF


def fractions(max_num=60, max_den=12):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def nonzero_fractions(max_num=60, max_den=12):
    return fractions(max_num, max_den).filter(lambda f: f != 0)


def rational_functions(field: FunctionField, max_deg=3, coeffs=None):
    """Elements of a rational function field built from coefficient lists."""
    if coeffs is None:
        coeffs = fractions(max_num=9, max_den=4)

    def build(num, den):
        gen = field.gen()
        top = field(0)
        for k, c in enumerate(num):
            top = top + field(c) * gen**k
        bottom = field(0)
        for k, c in enumerate(den):
            bottom = bottom + field(c) * gen**k
        if bottom.is_zero():
            bottom = field(1)
        return top / bottom

    return st.builds(
        build,
        st.lists(coeffs, min_size=1, max_size=max_deg + 1),
        st.lists(coeffs, min_size=1, max_size=max_deg + 1),
    )


def nonzero_rational_functions(field, max_deg=3, coeffs=None):
    return rational_functions(field, max_deg, coeffs).filter(
        lambda f: not f.is_zero()
    )


def finite_elements(field: FiniteField):
    return st.integers(0, field.p - 1).map(field)


def conic_elements(conic: ConicExtension, coord=None):
    """Elements A + B*y of a conic extension with rational-function coords."""
    inner = conic.inner
    if coord is None:
        coord = rational_functions(inner, max_deg=2)

    def build(a, b):
        return conic.from_inner(a.value) + conic.from_inner(b.value) * conic.y_gen()

    return st.builds(build, coord, coord)


def half_norm_value(vt, a):
    """(1/2) v'(A^2 - B^2*theta) for a ConicValuation vt: the half-norm
    formula, an independent oracle for vt.value.  Over unit conic
    parameters the norm value is even."""
    n = vt.domain.norm(a.value)
    vn = vt.inner.value(vt.domain.inner.el(n))
    if vn is INF:
        return INF
    assert vn % 2 == 0, f"odd norm value {vn} over unit conic parameters"
    return vn // 2


def quaternions(alg, coeffs=None):
    if coeffs is None:
        coeffs = fractions(max_num=9, max_den=3)
    return st.builds(
        lambda w, a, b, c: alg.el(alg.base(w), alg.base(a), alg.base(b), alg.base(c)),
        coeffs,
        coeffs,
        coeffs,
        coeffs,
    )


def pure_quaternions(alg, coeffs=None):
    if coeffs is None:
        coeffs = st.integers(-9, 9)
    return st.builds(
        lambda a, b, c: alg.el(alg.base(0), alg.base(a), alg.base(b), alg.base(c)),
        coeffs,
        coeffs,
        coeffs,
    ).filter(lambda u: not u.is_zero())


def corrupted_congruence_record(setattr_):
    """run_instance on a split battery instance made non-diagonal by a
    unimodular base change, with a corrupted quaternion matrix product
    installed through setattr_(owner, name, value); the corruption breaks
    the congruence re-check in diagonalize_h."""
    from dataclasses import replace

    from quatwitt import hermitian, scenarios

    sc = scenarios.load_scenario({
        "field": {"kind": "rationals"},
        "valuation": {"kind": "padic", "p": 3},
        "generator": "point",
        "seed": 42,
        "rank": 2,
        "trials": 1,
    })
    inst = scenarios.generate_instance(sc, 0)
    alg = inst.algebra
    moved = inst.form.transform([[alg.one(), alg.one()], [alg.zero(), alg.one()]])
    assert not moved.is_diagonal()
    product = hermitian._qmat_mul

    def corrupted(algebra, m1, m2):
        out = product(algebra, m1, m2)
        out[0][0] = out[0][0] + algebra.i()
        return out

    setattr_(scenarios, "generate_instance", lambda _sc, _index: replace(inst, form=moved))
    setattr_(hermitian, "_qmat_mul", corrupted)
    return scenarios.run_instance(sc, 0)
