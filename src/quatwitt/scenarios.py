"""Scenario files, element/form serialization, deterministic instance
generation, and the batch worker behind the command-line interface.

A scenario is a JSON object naming a field tower, a valuation, and the
inputs of one operation.  Element expressions are strings in the
package's expression syntax and round-trip through the field parsers.

Randomized batches draw diagonal skew-hermitian forms with good
reduction in one of two modes.  The conic generator draws (or pins) an
algebra over a function field whose residue algebra is division; its
forms are verified through the conic function field.  The point
generator draws an algebra over Q whose conic has a small point; its
forms are verified by specializing at that point, and its draws, tests
included, run on ints and int pairs, never through the field protocol.
`generator_setup` builds a scenario's mode once, and checks everything
that does not depend on the instance; a mode gives its algebra draw,
its coordinate draw, in point mode its point test and its unit-norm
test (conic mode needs none: a division residue algebra makes every
drawn norm a unit), and the build of what it drew, and
`generate_instance` runs one attempt loop for both modes, deciding
each attempt on the drawn payloads and wrapping only the one it keeps.
Every instance derives from (seed, index) alone, so a batch is
reproducible and can be sharded across processes.  Every draw is
`_below(rng, n)`, the integer in [0, n) that `random.Random.randrange(n)`
would return from the same state, so the stream is `randint`'s and
`choice`'s without their argument handling.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from math import gcd
from typing import Callable, NamedTuple, Optional, Tuple

from .errors import QuatwittError, ScenarioError
from .fields import (
    ConicExtension,
    FieldElement,
    FiniteField,
    FunctionField,
    Rationals,
    _q_frac,
)
from .hermitian import SkewHermitianForm, good_reduction_certificate
from .morita import VerificationReport, verify_instance
from .quadforms import DEFAULT_BUDGET, QuadraticForm
from .quaternions import MEMO_SIZE, QuaternionAlgebra, _wrap, ramification
from .valuations import (
    ConicValuation,
    GaussValuation,
    PAdicValuation,
)

GENERATOR_MODES = ("conic", "point")

# the keys a batch scenario may carry; load_scenario refuses any other,
# so a misspelled key is an input error rather than silently ignored
BATCH_KEYS = frozenset(
    ("field", "valuation", "generator", "algebra", "seed", "trials", "rank", "budget")
)

_COORD_BOUND = 9
# a coordinate is one of the 2*_COORD_BOUND + 1 integers in [-9, 9]
_COORD_SPAN = 2 * _COORD_BOUND + 1
_MAX_ATTEMPTS = 400
# the conic generator's draws of d and of the lead of t = lead*s + k
_CONIC_D = (-1, 2, -2, 3, -3, 5, -5)
_CONIC_T_LEAD = (1, 1, 1, 2)

# input bounds: generation and verification cost grow with the rank, and
# a batch runs `trials` instances
MAX_RANK = 16
MAX_TRIALS = 100_000
# most function-field and conic levels a field may stack over Q or F_p
MAX_TOWER_DEPTH = 4


# ---------------------------------------------------------------------------
# field and valuation descriptors


def build_field(desc, _levels=0):
    # _levels counts the levels above desc, before building its base
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ScenarioError("field descriptor needs a 'kind'")
    kind = desc["kind"]
    if kind == "rationals":
        return Rationals()
    if kind == "finite" and not _is_int(desc.get("p")):
        raise ScenarioError("finite field descriptor needs an integer 'p'")
    if kind in ("function", "conic"):
        if _levels == MAX_TOWER_DEPTH:
            raise ScenarioError(f"field tower is deeper than {MAX_TOWER_DEPTH} levels")
        base = build_field(desc.get("base", {"kind": "rationals"}), _levels + 1)
    if kind == "conic":
        for key in ("d", "t"):
            if key not in desc:
                raise ScenarioError(f"conic field descriptor needs {key!r}")
    try:
        if kind == "finite":
            return FiniteField(desc["p"])
        if kind == "function":
            return FunctionField(base, desc.get("variable", "s"))
        if kind == "conic":
            d = parse_element(base, desc["d"])
            return ConicExtension(base, d, parse_element(base, desc["t"]))
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e
    raise ScenarioError(f"unknown field kind {kind!r}")


def field_descriptor(field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "rationals"}
    if isinstance(field, FiniteField):
        return {"kind": "finite", "p": field.p}
    if isinstance(field, FunctionField):
        return {
            "kind": "function",
            "base": field_descriptor(field.base),
            "variable": field.var,
        }
    if isinstance(field, ConicExtension):
        return {
            "kind": "conic",
            "base": field_descriptor(field.base),
            "d": element_str(field.base.el(field.d)),
            "t": element_str(field.base.el(field.t)),
        }
    raise ScenarioError(f"no descriptor for field {field!r}")


def build_valuation(desc, field):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ScenarioError("valuation descriptor needs a 'kind'")
    kind = desc["kind"]
    if kind == "padic":
        if not isinstance(field, Rationals):
            raise ScenarioError("a p-adic valuation lives on the rationals")
        if not _is_int(desc.get("p")):
            raise ScenarioError("p-adic descriptor needs an integer 'p'")
        try:
            return PAdicValuation(desc["p"])
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    if kind == "gauss":
        if not isinstance(field, FunctionField):
            raise ScenarioError("a Gauss valuation lives on a function field")
        inner = build_valuation(desc.get("inner", {}), field.base)
        try:
            return GaussValuation(inner, field)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    if kind == "conic-half-norm":
        if not isinstance(field, ConicExtension):
            raise ScenarioError("a conic valuation lives on a conic extension")
        inner_val = build_valuation(desc.get("inner", {}), field.base)
        try:
            gauss = GaussValuation(inner_val, field.inner)
            return ConicValuation(gauss, field)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(str(e)) from e
    raise ScenarioError(f"unknown valuation kind {kind!r}")


# ---------------------------------------------------------------------------
# elements, forms, algebras


def parse_element(field, text) -> FieldElement:
    if isinstance(text, str):
        try:
            return field.parse(text)
        except (QuatwittError, ValueError) as e:
            raise ScenarioError(f"bad element expression {text!r}: {e}") from e
    if _is_int(text):
        return field(text)
    raise ScenarioError(
        f"element expression must be a string or an integer, got {text!r}"
    )


def element_str(el: FieldElement) -> str:
    return el.field.to_str(el.value)


def build_algebra(desc, field) -> QuaternionAlgebra:
    if not isinstance(desc, dict):
        raise ScenarioError("algebra descriptor must be an object")
    for key in ("d", "t"):
        if key not in desc:
            raise ScenarioError(f"algebra descriptor needs {key!r}")
    try:
        return QuaternionAlgebra(
            field, parse_element(field, desc["d"]), parse_element(field, desc["t"])
        )
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e


def algebra_descriptor(alg: QuaternionAlgebra) -> dict:
    return {"d": element_str(alg.d), "t": element_str(alg.t)}


def _quaternion_from_dict(alg, entry) -> "object":
    if not isinstance(entry, dict):
        raise ScenarioError("quaternion entry must be an object of coordinates")
    return alg.from_coeffs([parse_element(alg.base, entry.get(key, "0")) for key in "wabc"])


def quaternion_descriptor(u) -> dict:
    w, a, b, c = u.coeffs
    out = {}
    for key, coord in (("w", w), ("a", a), ("b", b), ("c", c)):
        if not coord.is_zero():
            out[key] = element_str(coord)
    return out


def build_form(desc, alg) -> SkewHermitianForm:
    if not isinstance(desc, dict):
        raise ScenarioError("form descriptor must be an object")
    try:
        if "diag" in desc:
            entries = [_quaternion_from_dict(alg, e) for e in desc["diag"]]
            return SkewHermitianForm.diagonal(alg, entries)
        if "gram" in desc:
            gram = [[_quaternion_from_dict(alg, e) for e in row] for row in desc["gram"]]
            return SkewHermitianForm(alg, gram)
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e
    raise ScenarioError("form descriptor needs 'diag' or 'gram'")


def form_descriptor(h: SkewHermitianForm) -> dict:
    if h.is_diagonal():
        return {"diag": [quaternion_descriptor(u) for u in h.diagonal_entries()]}
    return {"gram": [[quaternion_descriptor(u) for u in row] for row in h.gram]}


def build_quad(desc, field) -> QuadraticForm:
    if not isinstance(desc, dict) or "entries" not in desc:
        raise ScenarioError("quadratic form descriptor needs 'entries'")
    # a string or an object would be read by character or by key
    if not isinstance(desc["entries"], (list, tuple)):
        raise ScenarioError("'entries' must be a list of elements")
    try:
        return QuadraticForm(
            field, [parse_element(field, e) for e in desc["entries"]]
        )
    except (QuatwittError, ValueError) as e:
        raise ScenarioError(str(e)) from e


def quad_descriptor(q: QuadraticForm) -> dict:
    return {"entries": [element_str(u) for u in q.entries]}


def parse_point(desc, field):
    if not isinstance(desc, (list, tuple)) or len(desc) != 2:
        raise ScenarioError("point must be a pair [x0, y0]")
    return parse_element(field, desc[0]), parse_element(field, desc[1])


# ---------------------------------------------------------------------------
# scenario loading


def load_scenario(source, keys=BATCH_KEYS) -> dict:
    """A scenario dict, or the JSON object in the file named by source,
    checked for shape; a key outside `keys` is refused."""
    if isinstance(source, dict):
        sc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fp:
                sc = json.load(fp)
        except OSError as e:
            raise ScenarioError(f"cannot read scenario: {e}") from e
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario is not valid JSON: {e}") from e
        except RecursionError:
            raise ScenarioError("scenario nests too deeply to decode") from None
    if not isinstance(sc, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = sorted(set(sc) - keys)
    if unknown:
        expected = ", ".join(sorted(keys))
        raise ScenarioError(f"unknown scenario key {unknown[0]!r}; expected some of {expected}")
    if "generator" in sc and sc["generator"] not in GENERATOR_MODES:
        raise ScenarioError(
            f"generator must be one of {GENERATOR_MODES}, got {sc['generator']!r}"
        )
    if "seed" in sc and not _is_int(sc["seed"]):
        raise ScenarioError("'seed' must be an integer")
    if "trials" in sc:
        check_trials(sc["trials"])
    if "budget" in sc:
        check_budget(sc["budget"])
    if "rank" in sc:
        if not _is_int(sc["rank"]) or sc["rank"] < 1:
            raise ScenarioError("'rank' must be a positive integer")
        if sc["rank"] > MAX_RANK:
            raise ScenarioError(f"'rank' must be at most {MAX_RANK}")
    if "algebra" in sc and not isinstance(sc["algebra"], dict):
        raise ScenarioError("'algebra' must be an object with 'd' and 't'")
    return sc


def _is_int(x) -> bool:
    # a JSON true or false is an int to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def check_trials(trials) -> None:
    if not _is_int(trials) or trials < 0:
        raise ScenarioError("'trials' must be a non-negative integer")
    if trials > MAX_TRIALS:
        raise ScenarioError(f"'trials' must be at most {MAX_TRIALS}")


def check_budget(budget) -> None:
    """A search budget, from a scenario or the command line; 0 allows no
    search step."""
    if not _is_int(budget) or budget < 0:
        raise ScenarioError("'budget' must be a non-negative integer")


def check_jobs(jobs) -> None:
    if not _is_int(jobs) or jobs < 1:
        raise ScenarioError("'jobs' must be a positive integer")


def scenario_field(sc):
    if "field" not in sc:
        raise ScenarioError("scenario needs a 'field'")
    return build_field(sc["field"])


def scenario_valuation(sc, field):
    if "valuation" not in sc:
        raise ScenarioError("scenario needs a 'valuation'")
    return build_valuation(sc["valuation"], field)


# ---------------------------------------------------------------------------
# deterministic instance generation


class Instance(NamedTuple):
    field: object
    valuation: object
    algebra: QuaternionAlgebra
    form: SkewHermitianForm
    point: Optional[Tuple[FieldElement, FieldElement]]
    meta: dict


class Generator(NamedTuple):
    """What every instance of a scenario is drawn from.

    `draw(rng)` proposes the parameters of an algebra (and, in point
    mode, of a point), or returns None to reject the attempt;
    `coords(rng)` draws the payloads of one entry's coordinates a, b, c;
    `off_point(params, a, b, c)`, in point mode, tells that the entry's
    specialization a*y0 - b*x0 - c at the point does not vanish;
    `unit_norm(params, a, b, c)`, in point mode, is None when the
    reduced norm of a*i + b*j + c*ij is 0, and otherwise tells whether
    it is a v-unit; a mode without it draws only entries whose reduced
    norm is a nonzero unit (see `_conic_setup`);
    `build(params)` wraps the proposal as (algebra, point), with point
    None in conic mode."""

    mode: str
    field: object
    valuation: object
    draw: Callable
    coords: Callable
    off_point: Optional[Callable]
    unit_norm: Optional[Callable]
    build: Callable


# the scenario keys a generator is built from
GENERATOR_KEYS = ("field", "valuation", "generator", "algebra")

# the encoder json.dumps(..., sort_keys=True, separators=(",", ":"))
# builds afresh on each call
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def generator_setup(sc: dict) -> Generator:
    """A scenario's generator, built once per scenario.

    Building it checks every precondition that does not depend on the
    instance index: the generator matches the field, only the conic
    generator takes a pinned algebra, and a pinned algebra has unit
    parameters, is unramified and has a division residue algebra.

    The memo key is the canonical JSON of the scenario's
    `GENERATOR_KEYS`, and the generator is built from that JSON alone,
    so nothing outside the key can reach it.  A `ScenarioError` is not
    memoized, so a bad scenario raises on every call: each instance of a
    batch asks for the generator, and `verify-theorem` also asks once
    before the batch, so a bad scenario is one input error rather than
    an error record per instance."""
    try:
        key = _KEY_ENCODER.encode({k: sc[k] for k in GENERATOR_KEYS if k in sc})
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"scenario is not JSON data: {e}") from e
    return _generator(key)


@lru_cache(maxsize=MEMO_SIZE)
def _generator(key: str) -> Generator:
    sc = json.loads(key)
    field = scenario_field(sc)
    v = scenario_valuation(sc, field)
    if sc.get("generator", "conic") == "conic":
        return _conic_setup(sc, field, v)
    return _point_setup(sc, field, v)


def _conic_setup(sc, field, v) -> Generator:
    """Algebras (d, t) over a function field with v-unit parameters and a
    division residue algebra: the scenario's pinned algebra, or d a small
    integer and t linear in the variable s; each coordinate is multiplied
    by 1, s or s + 1.  The division test needs the algebra, so the
    proposal is the algebra itself.

    There is no unit-norm test, since every drawn entry passes it.  The
    reduced norm of a*i + b*j + c*ij is the norm form <-d, -t, d*t> at
    (a, b, c), and its residue form <-dbar, -tbar, dbar*tbar> is
    anisotropic because the residue algebra is division.  `_draw_coords`
    returns only triples of least value 0, whose residues are not all 0,
    so the residue of the reduced norm is not 0: v(nrd) = 0, and nrd is
    not 0.  The certificate still rechecks every reduced norm from the
    coordinates."""
    if not isinstance(field, FunctionField):
        raise ScenarioError(
            "the conic generator draws algebras over a function field"
        )
    gen = field.gen()

    def division_residue(alg):
        report = ramification(alg, v)
        return not (report.ramified or report.split_over_residue)

    if sc.get("algebra") is not None:
        pinned = build_algebra(sc["algebra"], field)
        if v.value(pinned.d) != 0 or v.value(pinned.t) != 0:
            raise ScenarioError("pinned algebra parameters must be units")
        if not division_residue(pinned):
            raise ScenarioError(
                "pinned algebra must be unramified with division residue"
            )

        def draw(rng):
            return pinned

    else:

        def draw(rng):
            d = field(_CONIC_D[_below(rng, len(_CONIC_D))])
            if v.value(d) != 0:
                return None
            t = gen * _CONIC_T_LEAD[_below(rng, len(_CONIC_T_LEAD))] + _below(rng, 9) - 4
            if v.value(t) != 0:
                return None
            alg = QuaternionAlgebra(field, d, t)
            return alg if division_residue(alg) else None

    one = field.one()
    spices = (one, one, one, gen.value, (gen + 1).value)

    def spice(rng):
        return spices[_below(rng, len(spices))]

    def coords(rng):
        return _draw_coords(rng, v, field, spice)

    def build(alg):
        return alg, None

    return Generator("conic", field, v, draw, coords, None, None, build)


def _point_setup(sc, field, v) -> Generator:
    """Algebras (d, t) over Q with unit parameters, t chosen so that the
    conic d*x^2 + t*y^2 = 1 passes through a small point (x0, y0); each
    instance draws its own, so a pinned algebra is refused.

    The draws and their tests run on the ints and int pairs they make.
    The p-adic value of a nonzero integer n is the exponent of p in n, so
    n is a unit exactly when p does not divide n, and p divides 0:
    `d % p` tests that d is a nonzero unit, and a reduced fraction is one
    when p divides neither its numerator nor its denominator.
    t = (1 - d*x0^2)/y0^2 is reduced from one integer quotient and tested
    that way, and a coordinate triple has least value 0 when some
    coordinate is prime to p.  The proposal is the ints
    (d, tn, td, xn, xd, yn, yd) of d, t = tn/td, x0 = xn/xd and
    y0 = yn/yd.  a*y0 - b*x0 - c vanishes exactly when
    a*yn*xd - b*xn*yd - c*xd*yd does.  The reduced norm of a*i + b*j +
    c*ij is -d*a^2 - t*b^2 + d*t*c^2, and td times it is
    N = d*(tn*c^2 - td*a^2) - tn*b^2; td is a unit, so the norm is 0
    exactly when N is, and a unit exactly when p does not divide N.
    Only the attempt that passes wraps its algebra and point."""
    if not isinstance(field, Rationals):
        raise ScenarioError("the point generator draws algebras over the rationals")
    if sc.get("algebra") is not None:
        raise ScenarioError(
            "the point generator draws its own algebras; "
            "a pinned 'algebra' needs the conic generator"
        )
    p = v.p

    def small_fraction(rng, nonzero):
        # the payload of num/den: the reduced pair, denominator positive
        for _ in range(40):
            num = _below(rng, _COORD_SPAN) - _COORD_BOUND
            den = _below(rng, 5) + 1
            if den % p == 0:
                continue
            if nonzero and num == 0:
                continue
            g = gcd(num, den)
            return num // g, den // g
        return field.one()

    def draw(rng):
        d = _below(rng, _COORD_SPAN) - _COORD_BOUND
        if not d % p:
            return None
        xn, xd = small_fraction(rng, False)
        yn, yd = small_fraction(rng, True)
        tn, td = _q_frac((xd * xd - d * xn * xn) * yd * yd, xd * xd * yn * yn)
        if not (tn % p and td % p):
            return None
        return d, tn, td, xn, xd, yn, yd

    def coords(rng):
        while True:
            a, b, c = _draw_ints(rng)
            if a % p or b % p or c % p:
                return (a, 1), (b, 1), (c, 1)

    def off_point(params, a, b, c):
        _d, _tn, _td, xn, xd, yn, yd = params
        return a[0] * yn * xd - b[0] * xn * yd != c[0] * xd * yd

    def unit_norm(params, a, b, c):
        d, tn, td = params[:3]
        a, b, c = a[0], b[0], c[0]
        n = d * (tn * c * c - td * a * a) - tn * b * b
        return None if n == 0 else n % p != 0

    def build(params):
        d, tn, td, xn, xd, yn, yd = params
        alg = QuaternionAlgebra(field, field.el((d, 1)), field.el((tn, td)))
        return alg, (field.el((xn, xd)), field.el((yn, yd)))

    return Generator("point", field, v, draw, coords, off_point, unit_norm, build)


def _below(rng, n):
    """An integer in [0, n), n >= 1, drawn from rng.getrandbits exactly
    as `random.Random.randrange(n)` draws it: k = n.bit_length() bits at
    a time until they read below n.  So randint(a, b) is
    _below(rng, b - a + 1) + a and choice(seq) is
    seq[_below(rng, len(seq))], from the same state to the same state."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _draw_ints(rng):
    """Three integers from [-9, 9], in order."""
    return (
        _below(rng, _COORD_SPAN) - _COORD_BOUND,
        _below(rng, _COORD_SPAN) - _COORD_BOUND,
        _below(rng, _COORD_SPAN) - _COORD_BOUND,
    )


def _draw_coords(rng, v, base, spice):
    """The payloads of a nonzero coordinate triple from [-9, 9], each
    multiplied by a spice, with a unit entry."""
    mul, iz = base.mul, base.is_zero
    while True:
        a, b, c = _draw_ints(rng)
        if a == 0 and b == 0 and c == 0:
            continue
        coords = [mul(base.from_int(x), spice(rng)) for x in (a, b, c)]
        if min(v._value(x) for x in coords if not iz(x)) == 0:
            return coords


def _draw_entries(rng, gen: Generator, params, n):
    """The coordinate payloads of n pure quaternions of nonzero reduced
    norm, each from at most 60 coordinate draws by `gen.coords`; in point
    mode `gen.off_point` must hold too.  Returns them with whether every
    reduced norm is a unit (`gen.unit_norm`; with no such test, as in
    conic mode, every drawn norm is a nonzero unit), or None if some
    entry runs out of draws.  Nothing is wrapped."""
    coords, off_point, unit_norm = gen.coords, gen.off_point, gen.unit_norm
    triples = []
    units = True
    for _l in range(n):
        for _draw in range(60):
            a, b, c = coords(rng)
            if off_point is not None and not off_point(params, a, b, c):
                continue
            if unit_norm is not None:
                unit = unit_norm(params, a, b, c)
                if unit is None:
                    continue
                units = units and unit
            triples.append((a, b, c))
            break
        else:
            return None
    return triples, units


def generate_instance(sc: dict, index: int) -> Instance:
    """The index-th instance of a randomized batch; depends only on
    (seed, index) so batches shard deterministically.

    Each attempt draws an algebra (and a point), `rank` entries (or a
    random rank from 1 to 3) and a twist by the uniformizer power
    m in {-1, 0, 1}, then tests in this order: that every entry's reduced
    norm is a unit, then the twisted diagonal form, then its certificate.
    Drawn coordinates have least value 0 and d, t are units, so every
    reduced norm has value >= 0, and every norm is a unit exactly when
    the entries share one integral extended value e < 1.  No other
    attempt can certify: a central twist moves every extended value by
    m, the certificate's value test (`common_integral_value`) needs a
    shared integral value, and a shared e >= 1 would leave a coordinate
    of value -e once the certificate scaled the entries by pi^(-e - m).
    So the unit test runs on the drawn payloads (in point mode; a conic
    mode draw always passes it), and only the attempt that passes wraps
    its algebra, point and twisted entries (coordinate payloads times
    pi^m); only a form that certifies good reduction is kept.  The
    draws are `_below` calls, one stream per instance."""
    gen = generator_setup(sc)
    rng = random.Random(f"{sc.get('seed', 0)}:{index}")
    v = gen.valuation
    zero, mul = gen.field.zero(), gen.field.mul
    for _attempt in range(_MAX_ATTEMPTS):
        params = gen.draw(rng)
        if params is None:
            continue
        n = sc.get("rank") or _below(rng, 3) + 1
        drawn = _draw_entries(rng, gen, params, n)
        if drawn is None:
            continue
        m = _below(rng, 3) - 1
        triples, units = drawn
        if not units:
            continue
        alg, point = gen.build(params)
        if m:
            twist = (v.uniformizer**m).value
            triples = [(mul(a, twist), mul(b, twist), mul(c, twist)) for a, b, c in triples]
        h = SkewHermitianForm.diagonal(alg, [_wrap(alg, zero, a, b, c) for a, b, c in triples])
        if not good_reduction_certificate(h, v).certified:
            continue
        return Instance(
            field=gen.field,
            valuation=v,
            algebra=alg,
            form=h,
            point=point,
            meta={"index": index, "mode": gen.mode, "twist": m},
        )
    raise ScenarioError(f"no certified instance found for index {index}")


def instance_descriptor(inst: Instance) -> dict:
    out = {
        "field": field_descriptor(inst.field),
        "valuation": inst.valuation.descriptor(),
        "algebra": algebra_descriptor(inst.algebra),
        "form": form_descriptor(inst.form),
    }
    if inst.point is not None:
        out["point"] = [element_str(inst.point[0]), element_str(inst.point[1])]
    out.update(inst.meta)
    return out


# ---------------------------------------------------------------------------
# report serialization


def report_to_dict(rep: VerificationReport) -> dict:
    entries = []
    for u, mv in zip(rep.certified_diagonal, rep.entry_min_values):
        _w, a, b, c = u.coeffs
        entries.append(
            {
                "a": element_str(a),
                "b": element_str(b),
                "c": element_str(c),
                "nrd": element_str(u.nrd()),
                "min_coeff_value": mv,
            }
        )
    out = {
        "algebra": algebra_descriptor(rep.algebra),
        "scaling": rep.scaling,
        "extvals": [str(e) for e in rep.extvals],
        "route": rep.route,
        "entries": entries,
        "quad_entries": [
            {"expr": element_str(u), "value": val}
            for u, val in zip(rep.quad.entries, rep.quad_values)
        ],
        "second_residue": [element_str(u) for u in rep.second_residue.entries],
        "residue_division": rep.residue_division,
        "verdict": rep.verdict.state,
        "searched": rep.verdict.searched,
    }
    if rep.point is not None:
        out["point"] = [element_str(rep.point[0]), element_str(rep.point[1])]
    return out


# ---------------------------------------------------------------------------
# batch worker


def verify_generated(inst: Instance, budget) -> VerificationReport:
    """Verify a generated instance through the conic, or at its drawn
    point.  A budget of None keeps the verifier's default."""
    budget = DEFAULT_BUDGET if budget is None else budget
    return verify_instance(inst.form, inst.valuation, point=inst.point, budget=budget)


def run_instance(sc: dict, index: int, *, budget=None) -> dict:
    """Generate and verify one batch instance; returns a JSON-ready record.

    Re-derives everything from (scenario, index) so it can run in a
    worker process.
    """
    try:
        inst = generate_instance(sc, index)
        rep = verify_generated(inst, budget)
        return {
            "index": index,
            "status": "ok",
            "instance": instance_descriptor(inst),
            "report": report_to_dict(rep),
        }
    except QuatwittError as e:
        return {
            "index": index,
            "status": "error",
            "error": type(e).__name__,
            "message": str(e),
        }
