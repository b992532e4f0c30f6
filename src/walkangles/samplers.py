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
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "sample_rademacher",
    "sample_s_two_sided",
    "sample_s_one_sided",
    "spec_to_json",
    "spec_from_json",
]

SATURATION_CAP = 2**62
_LOG_SATURATION_CAP = math.log(SATURATION_CAP)
_INT64_MAX = 2**63 - 1


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

    # Laws whose samples are integers; walks built purely from these can keep
    # exact lattice positions.
    _INTEGER_KINDS = ("rademacher", "s_two_sided", "s_one_sided", "constant")

    def __post_init__(self):
        if self.param is not None:
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
    def is_integer_valued(self) -> bool:
        if self.kind == "constant":
            return _is_int64(self.param)
        return self.kind in self._INTEGER_KINDS

    @property
    def max_abs(self) -> int:
        """Largest |sample| of an integer-valued law, as an exact int."""
        if self.kind == "rademacher":
            return 1
        if self.kind == "constant":
            return abs(int(self.param))
        return SATURATION_CAP

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
        if self.kind == "s_one_sided":
            return [1.0, 2.0]
        if self.kind == "log_tail":
            return [math.e, math.e**2]
        if self.kind == "stretched_exp":
            return [1.0, 2.0]
        return [float(self.param)]

    def sample(self, rng, size=None, counter: Saturations | None = None):
        if self.kind == "rademacher":
            return sample_rademacher(rng, size)
        if self.kind == "s_two_sided":
            return sample_s_two_sided(rng, self.param, size, counter)
        if self.kind == "s_one_sided":
            return sample_s_one_sided(rng, self.param, size, counter)
        if self.is_heavy_real:
            # exp(log magnitude), clipped at SATURATION_CAP with the counter
            # incremented; sample_log gives the unclipped log magnitude
            log_mag = self.sample_log(rng, size)
            over = np.asarray(log_mag) > _LOG_SATURATION_CAP
            if np.any(over):
                if counter is not None:
                    counter.count += int(np.count_nonzero(over))
                log_mag = np.where(over, _LOG_SATURATION_CAP, log_mag)
            out = np.exp(log_mag)
            return float(out) if size is None else out
        value = self.param
        if size is None:
            return value
        return np.full(size, value)

    def sample_log(self, rng, size=None):
        """Natural log of a heavy-tail magnitude, computed without overflow."""
        if self.kind == "log_tail":
            return 1.0 / uniform_open(rng, size)
        if self.kind == "stretched_exp":
            expo = -np.log(uniform_open(rng, size))
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


def sample_rademacher(rng, size=None):
    """+1 or -1, each with probability exactly 1/2."""
    u = rng.random(size)
    if size is None:
        return 1 if u < 0.5 else -1
    return np.where(u < 0.5, 1, -1).astype(np.int64)


def _magnitude_from_uniform(u, alpha: float, counter: Saturations | None):
    """floor(U**(-1/alpha)) with saturation at SATURATION_CAP."""
    raw = np.floor(np.asarray(u, dtype=np.float64) ** (-1.0 / alpha))
    over = raw >= SATURATION_CAP
    if np.any(over):
        if counter is not None:
            counter.count += int(np.count_nonzero(over))
        raw = np.where(over, float(SATURATION_CAP), raw)
    return raw.astype(np.int64)


def sample_s_two_sided(rng, alpha: float, size=None, counter: Saturations | None = None):
    """Symmetric integer law with P(|zeta| >= r) = r**-alpha for integer r >= 1."""
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    mag = _magnitude_from_uniform(uniform_open(rng, size), alpha, counter)
    sign = sample_rademacher(rng, size)
    out = mag * sign
    return int(out) if size is None else out


def sample_s_one_sided(rng, alpha: float, size=None, counter: Saturations | None = None):
    """Positive integer law with P(zeta >= r) = r**-alpha for integer r >= 1."""
    if alpha <= 0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    out = _magnitude_from_uniform(uniform_open(rng, size), alpha, counter)
    return int(out) if size is None else out


# ---------------------------------------------------------------------------
# increment specs

COORDINATE_PRODUCT = "coordinate_product"
RADIAL_PRODUCT = "radial_product"
LINEAR_COMBINATION = "linear_combination"

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class IncrementSpec:
    """Declarative description of a d-dimensional increment distribution.

    ``coordinate_product``: independent scalar law per coordinate plus an
    optional deterministic drift vector.  ``radial_product``: X = Q*xi with Q
    drawn from a finite set of unit vectors (``atoms`` with probabilities) and
    xi an independent nonnegative scalar law (``laws[0]``).
    ``linear_combination``: X = sum_j atoms[j] * zeta_j with independent
    scalar laws zeta_j attached to fixed vectors.
    """

    dimension: int
    form: str
    laws: tuple[ScalarLaw, ...]
    atoms: tuple[tuple[float, ...], ...] = ()
    probs: tuple[float, ...] = ()
    drift: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "laws", tuple(self.laws))
        object.__setattr__(self, "atoms",
                           tuple(tuple(float(x) for x in v) for v in self.atoms))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if self.drift is not None:
            object.__setattr__(self, "drift", tuple(float(x) for x in self.drift))
        self.validate()

    def validate(self) -> None:
        d = self.dimension
        if not isinstance(d, int) or d < 1:
            raise InvalidSpecError(f"dimension must be a positive integer, got {d}")
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
                if len(v) != d:
                    raise InvalidSpecError(f"atoms[{i}] must have length {d}")
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
            for i, v in enumerate(self.atoms):
                if len(v) != d:
                    raise InvalidSpecError(f"atoms[{i}] must have length {d}")
            if self.probs:
                raise InvalidSpecError("linear_combination takes no probabilities")
            if self.drift is not None:
                raise InvalidSpecError("linear_combination takes no drift")
        else:
            raise InvalidSpecError(f"unknown form {self.form!r}")
        rank = np.linalg.matrix_rank(self._support_span(), tol=1e-9)
        if rank < d:
            raise InvalidSpecError(
                f"support spans only {rank} of {d} dimensions (not genuinely {d}-dimensional)")

    def _support_span(self) -> np.ndarray:
        """Representative support points whose linear span is the walk's span."""
        d = self.dimension
        if self.form == RADIAL_PRODUCT:
            reps = [s for s in self.laws[0].support_points() if s > 0]
            if not reps:
                raise InvalidSpecError("radial magnitude law is degenerate at 0")
            return np.asarray(self.atoms, dtype=float) * reps[0]
        if self.form == COORDINATE_PRODUCT:
            base = np.array([law.support_points()[0] for law in self.laws])
            if self.drift is not None:
                base = base + np.asarray(self.drift, dtype=float)
            points = [base]
            for i, law in enumerate(self.laws):
                reps = law.support_points()
                for s in reps[1:]:
                    p = base.copy()
                    p[i] += s - reps[0]
                    points.append(p)
            return np.vstack(points)
        vecs = np.asarray(self.atoms, dtype=float)
        base = np.zeros(d)
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

        Each coordinate's largest magnitude is bounded in exact Python ints,
        so forming an increment in int64 can never wrap.
        """
        if self.form == RADIAL_PRODUCT:
            return False
        if not all(law.is_integer_valued for law in self.laws):
            return False
        if self.form == COORDINATE_PRODUCT:
            drift = self.drift or (0.0,) * self.dimension
            if not all(_is_int64(x) for x in drift):
                return False
            bounds = [law.max_abs + abs(int(x)) for law, x in zip(self.laws, drift)]
        else:
            if not all(_is_int64(x) for v in self.atoms for x in v):
                return False
            bounds = [sum(law.max_abs * abs(int(v[i])) for law, v in zip(self.laws, self.atoms))
                      for i in range(self.dimension)]
        return max(bounds) <= _INT64_MAX

    @property
    def scale_mode(self) -> str:
        """Position arithmetic: 'lattice' (int64), 'float', or 'log' (mantissa+scale)."""
        if self.form == RADIAL_PRODUCT and self.laws[0].is_heavy_real:
            return "log"
        return "lattice" if self.is_lattice else "float"


def coordinate_product(laws: Sequence[ScalarLaw], drift: Sequence[float] | None = None
                       ) -> IncrementSpec:
    return IncrementSpec(len(laws), COORDINATE_PRODUCT, tuple(laws),
                         drift=None if drift is None else tuple(drift))


def radial_product(atoms: Sequence[Sequence[float]], probs: Sequence[float],
                   magnitude_law: ScalarLaw) -> IncrementSpec:
    atoms = tuple(tuple(float(x) for x in v) for v in atoms)
    return IncrementSpec(len(atoms[0]), RADIAL_PRODUCT, (magnitude_law,),
                         atoms=atoms, probs=tuple(float(p) for p in probs))


def linear_combination(vectors: Sequence[Sequence[float]], laws: Sequence[ScalarLaw]
                       ) -> IncrementSpec:
    vectors = tuple(tuple(float(x) for x in v) for v in vectors)
    return IncrementSpec(len(vectors[0]), LINEAR_COMBINATION, tuple(laws), atoms=vectors)


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
        self._atoms = np.asarray(spec.atoms, dtype=float) if spec.atoms else None
        # lattice increments are formed in int64, which ``is_lattice`` shows cannot wrap
        self._dtype = np.int64 if spec.is_lattice else float
        if spec.form == COORDINATE_PRODUCT and spec.drift is not None:
            self._drift = np.asarray(spec.drift, dtype=self._dtype)
        elif spec.form == LINEAR_COMBINATION:
            self._vectors = np.asarray(spec.atoms, dtype=self._dtype)
        elif spec.form == RADIAL_PRODUCT:
            self._cum_probs = np.cumsum(spec.probs)

    def sample_block(self, rng, size: int) -> SampleBlock:
        spec = self.spec
        if spec.form == COORDINATE_PRODUCT:
            cols = [law.sample(rng, size, self.saturations) for law in spec.laws]
            vec = np.stack([np.asarray(c, dtype=self._dtype) for c in cols], axis=1)
            if spec.drift is not None:
                vec = vec + self._drift
            return SampleBlock(vectors=vec)
        if spec.form == LINEAR_COMBINATION:
            draws = [law.sample(rng, size, self.saturations) for law in spec.laws]
            vec = np.zeros((size, spec.dimension), dtype=self._dtype)
            for z, v in zip(draws, self._vectors):
                vec += np.asarray(z, dtype=self._dtype)[:, None] * v
            return SampleBlock(vectors=vec)
        # radial product: atom index first, then magnitude, a fixed draw order
        idx = np.searchsorted(self._cum_probs, rng.random(size), side="right")
        idx = np.minimum(idx, len(self._cum_probs) - 1).astype(np.int64)
        law = spec.laws[0]
        if spec.scale_mode == "log":
            xi_log = np.asarray(law.sample_log(rng, size), dtype=float)
            return SampleBlock(vectors=None, xi_log=xi_log, atom_idx=idx)
        xi = np.asarray(law.sample(rng, size, self.saturations), dtype=float)
        vec = xi[:, None] * self._atoms[idx]
        return SampleBlock(vectors=vec, xi=xi, atom_idx=idx)

    @property
    def atoms(self) -> np.ndarray | None:
        return self._atoms


# ---------------------------------------------------------------------------
# JSON round trip

_LAW_PARAM_KEY = {"s_two_sided": "alpha", "s_one_sided": "alpha",
                  "stretched_exp": "beta", "constant": "value"}


def _law_to_obj(law: ScalarLaw) -> dict:
    obj = {"name": law.kind}
    key = _LAW_PARAM_KEY.get(law.kind)
    if key is not None:
        obj[key] = law.param
    return obj


def _law_from_obj(obj: dict, where: str) -> ScalarLaw:
    if not isinstance(obj, dict) or "name" not in obj:
        raise InvalidSpecError(f"{where} must be an object with a 'name' field")
    name = obj["name"]
    key = _LAW_PARAM_KEY.get(name)
    extra = set(obj) - {"name"} - ({key} if key else set())
    if extra:
        raise InvalidSpecError(f"{where} has unexpected fields {sorted(extra)}")
    try:
        if key is None:
            return ScalarLaw(name)
        if key not in obj:
            raise InvalidParameterError(f"missing required field '{key}'")
        return ScalarLaw(name, float(obj[key]))
    except InvalidParameterError as exc:
        raise InvalidSpecError(f"{where}: {exc}") from exc


def spec_to_json(spec: IncrementSpec) -> str:
    obj: dict = {
        "dimension": spec.dimension,
        "form": spec.form,
        "laws": [_law_to_obj(law) for law in spec.laws],
    }
    if spec.form == RADIAL_PRODUCT:
        obj["atoms"] = [{"vector": list(v), "p": p} for v, p in zip(spec.atoms, spec.probs)]
    elif spec.form == LINEAR_COMBINATION:
        obj["atoms"] = [{"vector": list(v)} for v in spec.atoms]
    if spec.drift is not None:
        obj["drift"] = list(spec.drift)
    return json.dumps(obj, sort_keys=True)


def spec_from_json(text: str | dict) -> IncrementSpec:
    obj = json.loads(text) if isinstance(text, str) else text
    for req in ("dimension", "form", "laws"):
        if req not in obj:
            raise InvalidSpecError(f"spec is missing required field '{req}'")
    dim = obj["dimension"]
    if not isinstance(dim, int) or dim < 1:
        raise InvalidSpecError(f"dimension must be a positive integer, got {dim!r}")
    laws = tuple(_law_from_obj(law, f"laws[{i}]") for i, law in enumerate(obj["laws"]))
    form = obj["form"]
    atoms: tuple = ()
    probs: tuple = ()
    if form == RADIAL_PRODUCT:
        raw = obj.get("atoms")
        if not raw:
            raise InvalidSpecError("radial_product spec needs an 'atoms' list")
        atoms = tuple(tuple(float(x) for x in a["vector"]) for a in raw)
        if any("p" not in a for a in raw):
            raise InvalidSpecError("every radial atom needs a probability 'p'")
        probs = tuple(float(a["p"]) for a in raw)
    elif form == LINEAR_COMBINATION:
        raw = obj.get("atoms")
        if not raw:
            raise InvalidSpecError("linear_combination spec needs an 'atoms' list")
        atoms = tuple(tuple(float(x) for x in a["vector"]) for a in raw)
    drift = obj.get("drift")
    return IncrementSpec(dim, form, laws, atoms=atoms, probs=probs,
                         drift=None if drift is None else tuple(float(x) for x in drift))
