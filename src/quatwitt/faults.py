"""Deliberate fault injection for sensitivity testing.

The verification pipeline is expected to pass everywhere, which makes a
vacuous pass (a pipeline that cannot fail) indistinguishable from a real
one.  Each named fault below corrupts one load-bearing step; the test
suite checks that every fault makes some batch instance fail.

A fault is a substitution: a row of `SEAMS` names a fault, an owner, the
owner's attribute and the corrupted replacement that stands in it while
the fault is active, so the library holds only clean code.  Each change
of the active set puts fresh lru copies of the `MEMOS` in place, and the
clean ones, entries intact, when no fault is left; a form's stored
certificate holds only while the `_ramification` it was made under does.
Faults are toggled only from tests, scripts and the hidden CLI flag.
"""

from contextlib import contextmanager
from functools import lru_cache

from . import hermitian, quadforms, quaternions, scenarios
from .quaternions import MEMO_SIZE
from .valuations import INF, ConicValuation

NEGATE_FAST_PATH = "negate-fast-path"
SKIP_EVEN_SCALING = "skip-even-scaling"
DROP_UNIT_REP = "drop-unit-rep"

FAULT_NAMES = (NEGATE_FAST_PATH, SKIP_EVEN_SCALING, DROP_UNIT_REP)


def _larger_coordinate_value(self, payload):
    # the larger, not the smaller, of the coordinates' finite values
    values = [self.inner._value(c) for c in payload]
    return max([x for x in values if x is not INF], default=INF)


def _unscaled_entry(v, u, m, slot):
    # the residue entry without its even-power scaling
    u = v.domain.div(u, v.uniformizer.value) if slot else u
    return v.residue_field.el(v._residue(u))


SEAMS = (
    (NEGATE_FAST_PATH, ConicValuation, "_value", _larger_coordinate_value),
    # the slot of the raw value, with no even-power scaling
    (SKIP_EVEN_SCALING, quadforms, "_residue_slot", lambda m: int(m != 0)),
    (SKIP_EVEN_SCALING, quadforms, "_residue_entry", _unscaled_entry),
    # the raw parameters stand as unit representatives, and the
    # certificate's scaling is found but never applied
    (DROP_UNIT_REP, quaternions, "_unit_parameters", lambda alg, v, vd, vt: (alg.d, alg.t)),
    (DROP_UNIT_REP, hermitian, "_scale_entries", lambda v, entries, m: entries),
)

MEMOS = ((quaternions, "_ramification"), (scenarios, "_generator"))

_active = set()
# (owner, attribute, clean value) of each swapped attribute
_clean = []


def _install(names) -> None:
    while _clean:
        setattr(*_clean.pop())
    _active.clear()
    _active.update(names)
    swaps = [(owner, attr, new) for name, owner, attr, new in SEAMS if name in names]
    for owner, attr in MEMOS if names else ():
        swaps.append((owner, attr, lru_cache(maxsize=MEMO_SIZE)(getattr(owner, attr).__wrapped__)))
    for owner, attr, new in swaps:
        _clean.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)


def activate(name: str) -> None:
    if name not in FAULT_NAMES:
        raise ValueError(f"unknown fault {name!r}; known: {', '.join(FAULT_NAMES)}")
    if name not in _active:
        _install(_active | {name})


def deactivate(name: str) -> None:
    if name in _active:
        _install(_active - {name})


def clear() -> None:
    _install(())


def is_active(name: str) -> bool:
    return name in _active


def active_names():
    return tuple(sorted(_active))


@contextmanager
def injected(*names):
    """Activate `names` for the block, then restore the set it found."""
    found = set(_active)
    try:
        for name in names:
            activate(name)
        yield
    finally:
        if _active != found:
            _install(found)
