"""The certificate, the point reduction and the second residue form run
on raw payloads.  Each is checked here against a reference on wrapped
elements from tests/support.py, and the same tests run again under
python -O."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import support
from quatwitt import batteries, faults, hermitian
from quatwitt.fields import FunctionField, Rationals
from quatwitt.hermitian import SkewHermitianForm, good_reduction_certificate
from quatwitt.morita import _split_reduce_entries
from quatwitt.quadforms import second_residue_form
from quatwitt.quaternions import QuaternionAlgebra
from quatwitt.valuations import GaussValuation, PAdicValuation

_QS = FunctionField(Rationals(), "s")
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


def test_payload_paths_match_their_references_in_optimized_mode():
    tests = Path(__file__).resolve().parent
    src = Path(hermitian.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    # the fault-free cases of the three tests above
    ids = [
        f"{__file__}::{name}"
        for name in (
            *(f"test_certificate_matches_elements_at_the_split_primes[{p}-None]" for p in batteries.SPLIT_PRIMES),
            "test_certificate_matches_elements_at_a_gauss_valuation[None]",
            *(f"test_point_reduction_and_second_residue_match_elements[{p}]" for p in batteries.SPLIT_PRIMES),
        )
    ]
    code = (
        "import sys, pytest\n"
        "if not sys.flags.optimize: sys.exit('not optimized')\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{ids!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=tests.parent,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "7 passed" in proc.stdout
