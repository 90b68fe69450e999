"""The seeded faults as substitutions: each seam exists and is called on
a clean run, and no memo answers across a change of the active faults."""

import functools
import inspect
from collections import Counter

import pytest

from quatwitt import batteries, faults, hermitian, quaternions, scenarios
from quatwitt.hermitian import good_reduction_certificate
from quatwitt.quaternions import ramification
from quatwitt.scenarios import generate_instance, run_instance

DIVISION = batteries.conic_scenario(3, "-1")
SPLIT = batteries.point_scenario(3)


def _attributes():
    """Every attribute a fault swaps: each seam, then each memo."""
    rows = [(owner, attr) for _name, owner, attr, _new in faults.SEAMS]
    return rows + list(faults.MEMOS)


def _current():
    return [getattr(owner, attr) for owner, attr in _attributes()]


def test_every_seam_names_an_attribute_of_its_owner():
    for name, owner, attr, new in faults.SEAMS:
        assert name in faults.FAULT_NAMES
        assert callable(getattr(owner, attr)), (owner, attr)
        assert getattr(owner, attr) is not new
    assert {row[0] for row in faults.SEAMS} == set(faults.FAULT_NAMES)
    for owner, attr in faults.MEMOS:
        assert callable(getattr(owner, attr).__wrapped__)


def test_the_memo_keys_hold_no_fault_state():
    assert list(inspect.signature(quaternions._ramification).parameters) == ["alg", "v"]
    assert list(inspect.signature(scenarios._generator).parameters) == ["key"]


# a clean instance of each route and the seams it reaches: the conic
# route values at the conic valuation, and a division instance has no
# second residue, so it builds no residue entry; the point route values
# p-adically, and split instance 2 has a second residue
ROUTES = {
    "division": (DIVISION, 0, {"_value", "_residue_slot", "_unit_parameters", "_scale_entries"}),
    "split": (SPLIT, 2, {"_residue_slot", "_residue_entry", "_unit_parameters", "_scale_entries"}),
}


def test_the_routes_reach_every_seam():
    reached = set().union(*(route[2] for route in ROUTES.values()))
    assert reached == {attr for _name, _owner, attr, _new in faults.SEAMS}


@pytest.mark.parametrize("sc, index, reached", ROUTES.values(), ids=ROUTES.keys())
def test_a_clean_instance_calls_every_seam_its_route_reaches(monkeypatch, sc, index, reached):
    # a renamed or bypassed seam leaves its fault without effect; this
    # catches it before the sweep does.  A cold ramification memo lets
    # the report reach its seam.
    memo = functools.lru_cache(maxsize=quaternions.MEMO_SIZE)(quaternions._ramification.__wrapped__)
    monkeypatch.setattr(quaternions, "_ramification", memo)
    calls = Counter()

    def counting(attr, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            calls[attr] += 1
            return fn(*args)

        return wrapper

    for _name, owner, attr, _new in faults.SEAMS:
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    assert run_instance(sc, index)["status"] == "ok"
    assert set(calls) == reached


@pytest.mark.parametrize("fault", faults.FAULT_NAMES)
def test_no_memo_answers_across_a_fault_toggle(fault):
    inst = generate_instance(DIVISION, 0)
    alg, v, h = inst.algebra, inst.valuation, inst.form
    report = ramification(alg, v)
    gen = scenarios.generator_setup(DIVISION)
    cert = good_reduction_certificate(h, v)
    assert good_reduction_certificate(h, v) is cert
    with faults.injected(fault):
        faulted_report = ramification(alg, v)
        assert faulted_report is not report
        assert faulted_report == quaternions._ramification.__wrapped__(alg, v)
        assert ramification(alg, v) is faulted_report
        faulted_gen = scenarios.generator_setup(DIVISION)
        assert faulted_gen is not gen
        assert scenarios.generator_setup(DIVISION) is faulted_gen
        faulted_cert = good_reduction_certificate(h, v)
        assert faulted_cert is not cert
        assert faulted_cert == hermitian._certify(h, v)
        assert good_reduction_certificate(h, v) is faulted_cert
        # a second fault is another state again
        other = next(name for name in faults.FAULT_NAMES if name != fault)
        with faults.injected(other):
            assert ramification(alg, v) is not faulted_report
            assert scenarios.generator_setup(DIVISION) is not faulted_gen
            assert good_reduction_certificate(h, v) is not faulted_cert
    # the clean memos come back with their entries; the form kept only
    # its last certificate, so the clean one is computed again
    assert ramification(alg, v) is report
    assert scenarios.generator_setup(DIVISION) is gen
    again = good_reduction_certificate(h, v)
    assert again is not faulted_cert
    assert again == cert
    assert again.ramification_report is report


def test_a_call_that_changes_nothing_swaps_nothing():
    run_instance(DIVISION, 0)
    before = _current()
    infos = [getattr(owner, attr).cache_info() for owner, attr in faults.MEMOS]
    faults.clear()
    faults.deactivate(faults.DROP_UNIT_REP)
    assert _current() == before
    assert [getattr(owner, attr).cache_info() for owner, attr in faults.MEMOS] == infos
    with faults.injected(faults.DROP_UNIT_REP):
        faulted = _current()
        faults.activate(faults.DROP_UNIT_REP)
        faults.deactivate(faults.SKIP_EVEN_SCALING)
        assert _current() == faulted
    assert _current() == before


@pytest.mark.parametrize("fault", faults.FAULT_NAMES)
def test_run_instance_inside_injected_leaves_the_clean_seams(fault):
    # run_instance leaves the caller's faults in place; the block's exit
    # restores every clean seam and memo
    before = _current()
    with faults.injected(fault):
        faulted = _current()
        assert faulted != before
        run_instance(DIVISION, 0)
        assert _current() == faulted
        assert faults.active_names() == (fault,)
    assert faults.active_names() == ()
    assert _current() == before


def test_injected_restores_the_faults_it_found():
    before = _current()
    # a nested block of the same fault leaves it on for the outer block
    with faults.injected(faults.DROP_UNIT_REP):
        faulted = _current()
        with faults.injected(faults.DROP_UNIT_REP):
            pass
        assert faults.active_names() == (faults.DROP_UNIT_REP,)
        assert _current() == faulted
        # a block of another fault restores exactly this one
        with faults.injected(faults.SKIP_EVEN_SCALING):
            assert faults.active_names() == (faults.DROP_UNIT_REP, faults.SKIP_EVEN_SCALING)
        assert faults.active_names() == (faults.DROP_UNIT_REP,)
    assert _current() == before
    # a fault the caller set stays set after a block of the same fault
    faults.activate(faults.NEGATE_FAST_PATH)
    try:
        with faults.injected(faults.NEGATE_FAST_PATH):
            pass
        assert faults.active_names() == (faults.NEGATE_FAST_PATH,)
    finally:
        faults.clear()
    assert _current() == before
