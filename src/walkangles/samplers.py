"""Increment distributions for the walk simulator.

Scalar laws are sampled by exact inverse transforms so tail probabilities
match their closed forms at every integer threshold:

* ``rademacher``      -- +-1 with probability 1/2 each.
* ``s_two_sided(a)``  -- integer zeta with P(|zeta| >= r) = r**-a, symmetric sign.
* ``s_one_sided(a)``  -- integer zeta >= 1 with P(zeta >= r) = r**-a.
* ``log_tail``        -- real xi = exp(1/U), so P(xi > r) = 1/log(r) for r >= e.
* ``stretched_exp(b)``-- real xi = exp(E**(1/b)), E unit exponential, so
                         P(xi > r) = exp(-(log r)**b) for r >= 1; b in (0, 1/2).
* ``constant(c)``     -- degenerate at c.

Integer magnitudes saturate at SATURATION_CAP = 2**62 with a counter rather
than overflowing; the heavy-tailed real laws also expose their *log*
magnitude exactly (log xi = 1/U resp. E**(1/b)), which the walk engine uses
for radial products whose jumps dwarf float64 range.

``check_object`` is the one check of a JSON spec or config object: known
keys only, required keys present, each value of its declared kind.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .rng import uniform_open

__all__ = [
    "SATURATION_CAP",
    "InvalidParameterError",
    "InvalidSpecError",
    "Saturations",
    "ScalarLaw",
    "rademacher",
    "s_two_sided",
    "s_one_sided",
    "log_tail",
    "stretched_exp",
    "constant",
    "IncrementSpec",
    "coordinate_product",
    "radial_product",
    "linear_combination",
    "IncrementSampler",
    "spec_to_json",
    "spec_from_json",
]

SATURATION_CAP = 2**62
_LOG_SATURATION_CAP = math.log(SATURATION_CAP)
_INT64_MAX = 2**63 - 1
# abs(x) <= _FLOAT_MAX: x is finite, also an int of any size (compared exactly)
_FLOAT_MAX = sys.float_info.max


class InvalidParameterError(ValueError):
    """A sampler parameter is outside its legal range."""


class InvalidSpecError(ValueError):
    """An increment spec violates one of its invariants."""


@dataclass
class Saturations:
    """Mutable counter for magnitude draws clipped at SATURATION_CAP."""

    count: int = 0


def _is_int64(x: float) -> bool:
    """True when ``x`` is an integer that an int64 holds exactly."""
    return abs(x) < 2.0**63 and x == int(x)


# ---------------------------------------------------------------------------
# scalar laws

@dataclass(frozen=True)
class ScalarLaw:
    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.param is not None:
            if not abs(self.param) <= _FLOAT_MAX:
                raise InvalidParameterError(
                    f"{self.kind} requires a finite parameter, got {self.param}")
            object.__setattr__(self, "param", float(self.param))
        if self.kind in ("s_two_sided", "s_one_sided"):
            if self.param is None or self.param <= 0:
                raise InvalidParameterError(f"{self.kind} requires alpha > 0, got {self.param}")
        elif self.kind == "stretched_exp":
            if self.param is None or not (0 < self.param < 0.5):
                raise InvalidParameterError(
                    f"stretched_exp requires beta in (0, 1/2), got {self.param}")
        elif self.kind == "constant":
            if self.param is None:
                raise InvalidParameterError("constant requires a value")
        elif self.kind in ("rademacher", "log_tail"):
            if self.param is not None:
                raise InvalidParameterError(f"{self.kind} takes no parameter")
        else:
            raise InvalidParameterError(f"unknown scalar law {self.kind!r}")

    @property
    def max_abs(self) -> int | None:
        """Largest |sample| as an exact int; None unless all are int64 integers."""
        if self.kind == "rademacher":
            return 1
        if self.kind == "constant":
            return abs(int(self.param)) if _is_int64(self.param) else None
        return None if self.is_heavy_real else SATURATION_CAP

    @property
    def is_heavy_real(self) -> bool:
        return self.kind in ("log_tail", "stretched_exp")

    @property
    def is_nonnegative(self) -> bool:
        if self.kind == "constant":
            return self.param >= 0
        return self.kind in ("s_one_sided", "log_tail", "stretched_exp")

    def support_points(self) -> list[float]:
        """A few representative support values, used for the rank check."""
        if self.kind == "rademacher":
            return [-1.0, 1.0]
        if self.kind == "s_two_sided":
            return [-2.0, -1.0, 1.0, 2.0]
        if self.kind in ("s_one_sided", "stretched_exp"):
            return [1.0, 2.0]
        if self.kind == "log_tail":
            return [math.e, math.e**2]
        return [float(self.param)]

    def sample(self, rng, size: int, counter: Saturations | None = None) -> np.ndarray:
        """``size`` draws; integer magnitudes drawn past SATURATION_CAP are
        clipped to it and counted in ``counter``.  A two-sided law draws its
        magnitudes' uniforms first, then its signs' uniforms."""
        if self.kind == "rademacher":
            return np.where(rng.random(size) < 0.5, 1, -1).astype(np.int64)
        if self.kind in ("s_two_sided", "s_one_sided"):
            mag = _magnitude_from_uniform(uniform_open(rng, size), self.param, counter)
            if self.kind == "s_one_sided":
                return mag
            return mag * rademacher().sample(rng, size)
        if self.is_heavy_real:
            # exp(log magnitude), clipped at SATURATION_CAP with the counter
            # incremented; sample_log gives the unclipped log magnitude
            log_mag = self.sample_log(rng, size)
            if counter is not None:
                counter.count += int(np.count_nonzero(log_mag > _LOG_SATURATION_CAP))
            return np.exp(np.minimum(log_mag, _LOG_SATURATION_CAP))
        return np.full(size, self.param)

    def sample_log(self, rng, size: int) -> np.ndarray:
        """Natural log of ``size`` heavy-tail magnitudes, computed without overflow."""
        if self.kind == "log_tail":
            return 1.0 / uniform_open(rng, size)
        if self.kind == "stretched_exp":
            expo = -np.log(uniform_open(rng, size))
            # for small beta the power can pass float range; an infinite
            # log magnitude halts a log-scale walk and saturates sample()
            with np.errstate(over="ignore"):
                return expo ** (1.0 / self.param)
        raise InvalidParameterError(f"{self.kind} has no log-domain sampler")


def rademacher() -> ScalarLaw:
    return ScalarLaw("rademacher")


def s_two_sided(alpha: float) -> ScalarLaw:
    return ScalarLaw("s_two_sided", alpha)


def s_one_sided(alpha: float) -> ScalarLaw:
    return ScalarLaw("s_one_sided", alpha)


def log_tail() -> ScalarLaw:
    return ScalarLaw("log_tail")


def stretched_exp(beta: float) -> ScalarLaw:
    return ScalarLaw("stretched_exp", beta)


def constant(value: float) -> ScalarLaw:
    return ScalarLaw("constant", value)


def _magnitude_from_uniform(u, alpha: float, counter: Saturations | None):
    """floor(U**(-1/alpha)) with saturation at SATURATION_CAP."""
    # for small alpha the power can pass float range; inf saturates below
    with np.errstate(over="ignore"):
        raw = np.floor(np.asarray(u, dtype=np.float64) ** (-1.0 / alpha))
    if counter is not None:
        counter.count += int(np.count_nonzero(raw >= SATURATION_CAP))
    return np.minimum(raw, float(SATURATION_CAP)).astype(np.int64)


# ---------------------------------------------------------------------------
# increment specs

COORDINATE_PRODUCT = "coordinate_product"
RADIAL_PRODUCT = "radial_product"
LINEAR_COMBINATION = "linear_combination"

_UNIT_TOL = 1e-12


def _finite_floats(values, what: str) -> tuple[float, ...]:
    """``values`` as floats; InvalidSpecError naming ``what`` unless each is finite."""
    try:
        out = tuple(map(float, values))
        if all(map(math.isfinite, out)):
            return out
    except OverflowError:       # an int too large for a float, such as 10**400
        pass
    raise InvalidSpecError(f"{what} must be finite numbers")


@dataclass(frozen=True)
class IncrementSpec:
    """Declarative description of a d-dimensional increment distribution.

    ``linear_combination``: X = sum_j vectors[j] * zeta_j with independent
    scalar laws zeta_j, where ``vectors`` is ``atoms``.  ``coordinate_product``:
    the same sum over the unit axes, one law per coordinate, plus an optional
    deterministic drift vector.  ``radial_product``: X = Q*xi with Q drawn
    from a finite set of unit vectors (``atoms`` with probabilities) and xi
    an independent nonnegative scalar law (``laws[0]``).
    """

    dimension: int
    form: str
    laws: tuple[ScalarLaw, ...]
    atoms: tuple[tuple[float, ...], ...] = ()
    probs: tuple[float, ...] = ()
    drift: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))
        object.__setattr__(self, "atoms", tuple(_finite_floats(v, "atoms") for v in self.atoms))
        object.__setattr__(self, "probs", _finite_floats(self.probs, "atom probabilities"))
        if self.drift is not None:
            object.__setattr__(self, "drift", _finite_floats(self.drift, "drift"))
        self.validate()

    def validate(self) -> None:
        d = self.dimension
        if not isinstance(d, int) or d < 1:
            raise InvalidSpecError(f"dimension must be a positive integer, got {d}")
        for i, v in enumerate(self.atoms):
            if len(v) != d:
                raise InvalidSpecError(f"atoms[{i}] must have length {d}")
        if self.form == COORDINATE_PRODUCT:
            if len(self.laws) != d:
                raise InvalidSpecError(
                    f"coordinate_product needs {d} laws, got {len(self.laws)}")
            if self.atoms or self.probs:
                raise InvalidSpecError("coordinate_product takes no atoms")
            if self.drift is not None and len(self.drift) != d:
                raise InvalidSpecError(f"drift must have length {d}")
        elif self.form == RADIAL_PRODUCT:
            if len(self.laws) != 1:
                raise InvalidSpecError("radial_product takes exactly one scalar law")
            if not self.laws[0].is_nonnegative:
                raise InvalidSpecError(
                    f"radial magnitude law must be nonnegative, got {self.laws[0].kind}")
            if not self.atoms:
                raise InvalidSpecError("radial_product needs at least one direction atom")
            if len(self.probs) != len(self.atoms):
                raise InvalidSpecError("one probability per atom required")
            for i, v in enumerate(self.atoms):
                if abs(math.sqrt(sum(x * x for x in v)) - 1.0) > _UNIT_TOL:
                    raise InvalidSpecError(f"atoms[{i}] is not a unit vector")
            if any(p <= 0 for p in self.probs):
                raise InvalidSpecError("atom probabilities must be positive")
            if abs(sum(self.probs) - 1.0) > _UNIT_TOL:
                raise InvalidSpecError("atom probabilities must sum to 1")
            if self.drift is not None:
                raise InvalidSpecError("radial_product takes no drift")
        elif self.form == LINEAR_COMBINATION:
            if not self.atoms:
                raise InvalidSpecError("linear_combination needs fixed vectors")
            if len(self.laws) != len(self.atoms):
                raise InvalidSpecError("one scalar law per fixed vector required")
            if self.probs:
                raise InvalidSpecError("linear_combination takes no probabilities")
            if self.drift is not None:
                raise InvalidSpecError("linear_combination takes no drift")
        else:
            raise InvalidSpecError(f"unknown form {self.form!r}")
        # support points of huge vectors and laws can pass float range
        with np.errstate(over="ignore", invalid="ignore"):
            points = self._support_span()
        if not np.isfinite(points).all():
            raise InvalidSpecError(
                "support points overflow float range (a law value times its "
                "vector, or a sum of such terms, is not finite)")
        rank = np.linalg.matrix_rank(points, tol=1e-9)
        if rank < d:
            raise InvalidSpecError(
                f"support spans only {rank} of {d} dimensions (not genuinely {d}-dimensional)")

    @property
    def vectors(self) -> tuple[tuple[float, ...], ...]:
        """Each law's fixed vector: the unit axes of a coordinate product, else atoms."""
        if self.form == COORDINATE_PRODUCT:
            return tuple(map(tuple, np.eye(self.dimension).tolist()))
        return self.atoms

    def _support_span(self) -> np.ndarray:
        """Representative support points whose linear span is the walk's span."""
        if self.form == RADIAL_PRODUCT:
            reps = [s for s in self.laws[0].support_points() if s > 0]
            if not reps:
                raise InvalidSpecError("radial magnitude law is degenerate at 0")
            return np.asarray(self.atoms, dtype=float) * reps[0]
        vecs = np.asarray(self.vectors, dtype=float)
        base = np.asarray(self.drift or np.zeros(self.dimension), dtype=float)
        for j, law in enumerate(self.laws):
            base = base + law.support_points()[0] * vecs[j]
        points = [base]
        for j, law in enumerate(self.laws):
            reps = law.support_points()
            for s in reps[1:]:
                points.append(base + (s - reps[0]) * vecs[j])
        return np.vstack(points)

    @property
    def is_lattice(self) -> bool:
        """True when every increment coordinate is an integer that int64 holds.

        That is ``max_i(|drift_i| + sum_j max_abs_j * |vectors[j][i]|) <= 2**63 - 1``
        in exact Python ints, so forming an increment in int64 can never wrap.
        """
        if self.form == RADIAL_PRODUCT:
            return False
        bounds, vectors = [law.max_abs for law in self.laws], self.vectors
        drift = self.drift or (0.0,) * self.dimension
        if None in bounds or not all(_is_int64(x) for x in drift + sum(vectors, ())):
            return False
        return max(abs(int(drift[i])) + sum(m * abs(int(v[i])) for m, v in zip(bounds, vectors))
                   for i in range(self.dimension)) <= _INT64_MAX

    @property
    def scale_mode(self) -> str:
        """Position arithmetic: 'lattice' (int64), 'float', or 'log' (mantissa+scale)."""
        if self.form == RADIAL_PRODUCT and self.laws[0].is_heavy_real:
            return "log"
        return "lattice" if self.is_lattice else "float"


def coordinate_product(laws: Sequence[ScalarLaw], drift: Sequence[float] | None = None
                       ) -> IncrementSpec:
    return IncrementSpec(len(laws), COORDINATE_PRODUCT, laws, drift=drift)


def radial_product(atoms: Sequence[Sequence[float]], probs: Sequence[float],
                   magnitude_law: ScalarLaw) -> IncrementSpec:
    if len(atoms) == 0:
        raise InvalidSpecError("radial_product needs at least one direction atom")
    return IncrementSpec(len(atoms[0]), RADIAL_PRODUCT, (magnitude_law,), atoms=atoms, probs=probs)


def linear_combination(vectors: Sequence[Sequence[float]], laws: Sequence[ScalarLaw]
                       ) -> IncrementSpec:
    if len(vectors) == 0:
        raise InvalidSpecError("linear_combination needs fixed vectors")
    return IncrementSpec(len(vectors[0]), LINEAR_COMBINATION, laws, atoms=vectors)


# ---------------------------------------------------------------------------
# block sampler

@dataclass
class SampleBlock:
    """One vectorized batch of increments.

    ``vectors`` is (B, d) (int64 for lattice specs) except in log mode, where
    positions cannot be linearized and the engine works from ``xi_log`` and
    ``atom_idx`` instead.  Radial blocks always carry the drawn magnitude and
    atom index so the walk engine can track the biggest jump.
    """

    vectors: np.ndarray | None
    xi: np.ndarray | None = None
    xi_log: np.ndarray | None = None
    atom_idx: np.ndarray | None = None


class IncrementSampler:
    """Block source for one increment spec.

    Immutable after construction; all randomness comes from the generator
    passed to :meth:`sample_block`, so one sampler can serve many runs.
    """

    def __init__(self, spec: IncrementSpec):
        self.spec = spec
        self.saturations = Saturations()
        self.atoms = np.asarray(spec.atoms, dtype=float) if spec.atoms else None
        # lattice increments are formed in int64, which ``is_lattice`` shows cannot wrap
        self._dtype = np.int64 if spec.is_lattice else float
        if spec.form == RADIAL_PRODUCT:
            self._cum_probs = np.cumsum(spec.probs)
            return
        # each law's nonzero entries: +-0 never changes a sum that starts at +0.0
        self._entries = [[(i, c) for i, c in enumerate(v) if c != 0]
                         for v in np.asarray(spec.vectors, dtype=self._dtype)]
        self._drift = None if spec.drift is None else np.asarray(spec.drift, dtype=self._dtype)

    def sample_block(self, rng, size: int) -> SampleBlock:
        spec = self.spec
        if spec.form != RADIAL_PRODUCT:
            # every law is drawn before any is combined, a fixed draw order
            draws = [law.sample(rng, size, self.saturations) for law in spec.laws]
            vec = np.zeros((size, spec.dimension), dtype=self._dtype)
            # float increments near float max can overflow to inf, or to nan
            # from opposite infinities; the float walk halts at such a step
            with np.errstate(over="ignore", invalid="ignore"):
                for z, entries in zip(draws, self._entries):
                    z = np.asarray(z, dtype=self._dtype)
                    for i, c in entries:
                        vec[:, i] += z * c
                if self._drift is not None:
                    vec += self._drift
            return SampleBlock(vectors=vec)
        # radial product: atom index first, then magnitude, a fixed draw order
        idx = np.searchsorted(self._cum_probs, rng.random(size), side="right")
        idx = np.minimum(idx, len(self._cum_probs) - 1).astype(np.int64)
        law = spec.laws[0]
        if spec.scale_mode == "log":
            return SampleBlock(vectors=None, xi_log=law.sample_log(rng, size), atom_idx=idx)
        xi = np.asarray(law.sample(rng, size, self.saturations), dtype=float)
        vec = xi[:, None] * self.atoms[idx]
        return SampleBlock(vectors=vec, xi=xi, atom_idx=idx)


# ---------------------------------------------------------------------------
# JSON objects

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float: json reads NaN, Infinity and ints of any size."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= _FLOAT_MAX


def check_finite(config, where: str) -> None:
    """Raise ValueError naming ``where.<field>`` for a non-finite float or float entry."""
    for f in fields(config):
        value = getattr(config, f.name)
        values = value if isinstance(value, (tuple, list)) else [value]
        if "float" in f.type and not all(abs(x) <= _FLOAT_MAX for x in values if x is not None):
            raise ValueError(f"{where}.{f.name} must be finite, got {value!r}")


def _list_of(check):
    return lambda value: isinstance(value, list) and all(check(x) for x in value)


# value kinds of spec and config objects, keyed by the name (a dataclass
# field's annotation, where there is one) that declares them:
# kind -> (check, what an error says the value must be)
KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "objects": (_list_of(lambda v: isinstance(v, dict)), "a list of objects"),
    "tuple[float, ...]": (_list_of(_is_number), "a list of finite numbers"),
    "tuple[float, ...] | None": (lambda v: v is None or _list_of(_is_number)(v),
                                 "a list of finite numbers or null"),
    # no null: a config's run_seeds is None only when not given, and is then not written
    "tuple[int, ...] | None": (_list_of(_is_int), "a list of integers"),
}


def check_object(obj, where: str, kinds: dict[str, str], required=()) -> dict:
    """``obj`` once it passes as the JSON object at path ``where``: every key
    is one of ``kinds`` (key -> kind in KINDS), every key in ``required`` is
    present, and every value is of its key's kind; a bool is never a number.
    Raises InvalidSpecError naming the path, e.g. ``spec.laws[0].alpha``."""
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(kinds)
    if unknown:
        raise InvalidSpecError(f"{where} has unexpected fields {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise InvalidSpecError(f"{where}.{key} is required")
    for key, value in obj.items():
        check, what = KINDS[kinds[key]]
        if not check(value):
            raise InvalidSpecError(f"{where}.{key} must be {what}, got {value!r}")
    return obj


_LAW_PARAM_KEY = {"s_two_sided": "alpha", "s_one_sided": "alpha",
                  "stretched_exp": "beta", "constant": "value"}
_SPEC_KINDS = {"dimension": "int", "form": "str", "laws": "objects", "atoms": "objects",
               "drift": "tuple[float, ...] | None"}
_ATOM_KINDS = {"vector": "tuple[float, ...]", "p": "float"}


def _law_from_obj(obj: dict, where: str) -> ScalarLaw:
    name = obj.get("name")
    key = _LAW_PARAM_KEY.get(name) if isinstance(name, str) else None
    kinds = {"name": "str", key: "float"} if key else {"name": "str"}
    check_object(obj, where, kinds, required=kinds)
    try:
        return ScalarLaw(name, obj[key] if key else None)
    except InvalidParameterError as exc:
        raise InvalidSpecError(f"{where}: {exc}") from exc


def spec_to_json(spec: IncrementSpec) -> str:
    obj: dict = {
        "dimension": spec.dimension,
        "form": spec.form,
        "laws": [{"name": law.kind} if law.param is None else
                 {"name": law.kind, _LAW_PARAM_KEY[law.kind]: law.param} for law in spec.laws],
    }
    if spec.atoms:
        obj["atoms"] = [{"vector": list(v)} for v in spec.atoms]
        for atom, p in zip(obj["atoms"], spec.probs):
            atom["p"] = p
    if spec.drift is not None:
        obj["drift"] = list(spec.drift)
    return json.dumps(obj, sort_keys=True)


def spec_from_json(text: str | dict, where: str = "spec") -> IncrementSpec:
    """The spec of a JSON text or object; an error names the path from ``where``."""
    obj = check_object(json.loads(text) if isinstance(text, str) else text, where,
                       _SPEC_KINDS, required=("dimension", "form", "laws"))
    laws = [_law_from_obj(law, f"{where}.laws[{i}]") for i, law in enumerate(obj["laws"])]
    atoms = [check_object(a, f"{where}.atoms[{i}]", _ATOM_KINDS, required=("vector",))
             for i, a in enumerate(obj.get("atoms", ()))]
    try:
        return IncrementSpec(obj["dimension"], obj["form"], laws,
                             atoms=[a["vector"] for a in atoms],
                             probs=[a["p"] for a in atoms if "p" in a],
                             drift=obj.get("drift"))
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"{where}: {exc}") from exc
