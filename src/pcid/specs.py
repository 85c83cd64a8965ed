"""Declarative process specifications.

A ProcessSpec describes one p-c.i.d. construction: its kind, its
parameters, and the number of coordinates. Specs are plain data: they
validate themselves, serialize to/from dicts (for experiment configs and
report provenance), and are interpreted by the simulators in
:mod:`pcid.processes`. This module is the only one that knows how a spec
reads as a reinforced system (`reinforced_view`), how it maps to and from
a dict and which values it accepts (`to_dict` / `from_dict` / `validate`,
derived from the dataclass fields and the domains they declare).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar

import numpy as np


class SpecValidationError(ValueError):
    """Raised when a spec (or config block) has an invalid field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self.message = message
        super().__init__(f"{field_name}: {message}")

    def __reduce__(self):
        # rebuilt from both arguments, so that it survives pickling, as an
        # error raised in a forked chunk worker must to reach the caller
        return type(self), (self.field, self.message)


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise SpecValidationError(field_name, message)


# Coordinate i draws from substream 1 + i of its path's random streams,
# whose address holds 16 bits of substream; substream 0 carries the shared
# weights and 0xFFFF is the verifiers' own.
MAX_COORDS = (1 << 16) - 2

# Domains a numeric field declares in its metadata ("domain"): a test of a
# real number (never a bool) and what the domain asks for.
_DOMAINS = {
    "finite": (lambda x: -math.inf < x < math.inf, "must be finite"),
    "positive": (lambda x: 0 < x < math.inf, "must be positive and finite"),
    "nonnegative": (lambda x: 0 <= x < math.inf, "must be >= 0 and finite"),
    "unit_interval": (lambda x: 0 < x < 1, "must lie in (0, 1)"),
    "coordinates": (lambda x: 1 <= x <= MAX_COORDS and float(x).is_integer(),
                    f"must be an integer in [1, {MAX_COORDS}] (one random substream each)"),
    "count": (lambda x: 0 <= x < math.inf and x % 1 == 0, "must be an integer >= 0"),
    "size": (lambda x: 1 <= x < math.inf and x % 1 == 0, "must be an integer >= 1"),
    "seed": (lambda x: 0 <= x < 1 << 64 and x % 1 == 0, "must be an integer in [0, 2^64)"),
}


def _in(domain: str, default=MISSING, **metadata):
    """A dataclass field whose value, or each entry of a tuple, lies in the
    `_DOMAINS` entry `domain`; further metadata as keywords."""
    return field(default=default, metadata={"domain": domain, **metadata})


# ---------------------------------------------------------------------------
# Dict form and validation, derived from the dataclass fields
# ---------------------------------------------------------------------------

def _real(v) -> float:
    """A float field's value from its dict form; a bool is no number."""
    if isinstance(v, bool):
        raise TypeError("expected a number, got a bool")
    return float(v)


def _int(v) -> int:
    """An int field's value from its dict form: an integer, an integral float
    or a decimal string; not a bool or a fraction, which int() would misread."""
    if isinstance(v, str) or isinstance(v, numbers.Integral) and not isinstance(v, bool) or (
            isinstance(v, float) and v.is_integer()):
        return int(v)
    raise ValueError(f"expected an integer, got {v!r}")


def _list(v) -> list:
    """A list field's value from its dict form, which must be a list."""
    if not isinstance(v, list):
        raise TypeError(f"expected a list, got {v!r}")
    return v


# Readers of plain fields, keyed by the field's annotation. An integer may
# come as a decimal string, as a float may.
_READERS = {
    "float": _real,
    "int": _int,
    "str": str,
    "float | None": lambda v: None if v is None else _real(v),
    "int | None": lambda v: None if v is None else _int(v),
    "tuple[float, ...]": lambda v: tuple(_real(x) for x in v),
    "list": _list,
}


def _check_domain(domain: str, x, field_name: str, key: str) -> None:
    """Raise SpecValidationError on `field_name` unless x lies in the
    `_DOMAINS` entry `domain`."""
    inside, asks = _DOMAINS[domain]
    _require(isinstance(x, numbers.Real) and not isinstance(x, bool) and inside(x),
             field_name, f"{key} {asks}, got {x!r}")


def _check_keys(d: dict, declared, where: str) -> None:
    """Raise SpecValidationError on a key of d not `declared`, under `where`."""
    for key in d:
        _require(key in declared, f"{where}.{key}" if where else str(key),
                 f"undeclared key; the declared keys are {sorted(declared)}")


def _broadcast(x: tuple, k: int, field_name: str) -> tuple:
    """Broadcast a single entry to a length-k tuple."""
    _require(len(x) in (1, k), field_name, f"expected 1 or {k} entries, got {len(x)}")
    return x * (k if len(x) == 1 else 1)


def _read_nested(kinds, d, field_name: str):
    """A nested component from its dict form; `kinds` is its class, or a
    registry from the dict's "kind" to the class."""
    _require(isinstance(d, dict) and "kind" in d, field_name, "expected a dict with a 'kind'")
    if isinstance(kinds, dict):
        _require(d["kind"] in kinds, field_name,
                 f"unknown kind {d['kind']!r}; known kinds: {sorted(kinds)}")
        kinds = kinds[d["kind"]]
    return kinds.from_dict(d, field_name)


def _read_field(f, raw, field_name: str):
    """One field's value from its dict form."""
    if "read" in f.metadata:
        return f.metadata["read"](raw, field_name)
    kinds = f.metadata.get("kinds")
    if not f.metadata.get("per_coord"):
        return _read_nested(kinds, raw, field_name) if kinds else _READERS[f.type](raw)
    if not isinstance(raw, (list, tuple)):    # one entry for every coordinate
        raw = [raw]
        names = [field_name]
    else:
        names = [f"{field_name}[{i}]" for i in range(len(raw))]
    if kinds:
        return tuple(_read_nested(kinds, x, n) for x, n in zip(raw, names))
    return tuple(_real(x) for x in raw)


class _DictForm:
    """`to_dict` / `from_dict` / `validate` for the spec dataclasses and
    their components.

    The dict form holds the class's `kind`, if any, and each dataclass field
    that `__init__` takes, and no other key. Field metadata refines it:
    "key" renames the field, "per_coord" marks a tuple with one entry per
    coordinate (a single entry is broadcast to `n_coords`), "kinds" marks a
    nested component, "read" gives a reader (dict form, field name) ->
    value that validates too, and "domain" names the `_DOMAINS` entry that
    the field's value, or each entry of a tuple, must lie in.
    """

    role: ClassVar[str] = ""    # a component's name when validated alone

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = [x.to_dict() if isinstance(x, _DictForm) else x for x in v]
            elif isinstance(v, _DictForm):
                v = v.to_dict()
            d[f.metadata.get("key", f.name)] = v
        return d

    @classmethod
    def from_dict(cls, d: dict, where: str = ""):
        """Build from the dict form. Absent keys take the field defaults, an
        undeclared key is an error; `where` prefixes the fields errors name."""
        declared = {f.metadata.get("key", f.name): f for f in fields(cls) if f.init}
        _check_keys(d, {*declared, "kind"} if hasattr(cls, "kind") else set(declared), where)
        values: dict = {}
        for key, f in declared.items():
            field_name = f"{where}.{key}" if where else key
            if key in d:
                try:
                    v = _read_field(f, d[key], field_name)
                except SpecValidationError:
                    raise
                except (TypeError, ValueError) as exc:
                    raise SpecValidationError(field_name,
                                              f"cannot read {d[key]!r}: {exc}") from None
            elif f.default is not MISSING:
                v = f.default
            elif f.default_factory is not MISSING:
                v = f.default_factory()
            else:
                raise SpecValidationError(field_name, "required field is missing")
            if f.metadata.get("domain") == "coordinates":
                # checked before the per-coordinate fields are broadcast to it
                _check_domain("coordinates", v, field_name, key)
            if f.metadata.get("per_coord"):
                v = _broadcast(v, values["n_coords"], field_name)
            values[f.name] = v
        return cls(**values)

    def validate(self, field_name: str = "") -> None:
        """Raise SpecValidationError unless every field lies in its domain,
        every per-coordinate tuple has `n_coords` entries and every nested
        component is valid, then check the relations between fields.

        A spec names the field at fault, with [i] for a tuple entry. A
        component names its place in the spec, `field_name`, which is its
        `role` when it is validated alone.
        """
        place = field_name or self.role
        for f in fields(self):
            if "read" in f.metadata:    # validated as it was read
                continue
            key = f.metadata.get("key", f.name)
            value = getattr(self, f.name)
            name = f"{place}.{key}" if place else key
            if f.metadata.get("per_coord"):
                _require(len(value) == self.n_coords, name,
                         f"expected one entry per coordinate ({self.n_coords}), "
                         f"got {len(value)}")
            entries = value if isinstance(value, tuple) else (value,)
            for i, x in enumerate(entries):
                at = f"{name}[{i}]" if isinstance(value, tuple) else name
                if isinstance(x, _DictForm):
                    x.validate(at)
                elif "domain" in f.metadata and x is not None:
                    _check_domain(f.metadata["domain"], x, place or at, key)
        self._relations(place)

    def _relations(self, where: str) -> None:
        """Checks between fields, beyond each field's own domain; a
        component names `where`, a spec the field at fault."""


def _family(role: str, *classes) -> dict:
    """The registry of a component family, from kind to class. Each class
    takes `role` as its name when it is validated alone."""
    for cls in classes:
        cls.role = role
    return {cls.kind: cls for cls in classes}


# ---------------------------------------------------------------------------
# Base measures (the nu_i driving a reinforced coordinate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformBase(_DictForm):
    """Uniform distribution on (a, b)."""

    a: float = _in("finite", 0.0)
    b: float = _in("finite", 1.0)
    kind: ClassVar[str] = "uniform"

    def _relations(self, where: str) -> None:
        _require(self.b > self.a, where, f"need b > a, got ({self.a}, {self.b})")

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0

    def raw_moment(self, r: int) -> float:
        # E[X^r] = (b^{r+1} - a^{r+1}) / ((r+1)(b-a))
        return (self.b ** (r + 1) - self.a ** (r + 1)) / ((r + 1) * (self.b - self.a))

    def cdf(self, x):
        return np.clip((np.asarray(x, float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def ppf(self, q):
        return self.a + (self.b - self.a) * np.asarray(q, float)

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)


@dataclass(frozen=True)
class NormalBase(_DictForm):
    """Normal distribution with the given mean and variance."""

    mean_value: float = _in("finite", 0.0, key="mean")
    var: float = _in("positive", 1.0)
    kind: ClassVar[str] = "normal"

    def mean(self) -> float:
        return self.mean_value

    def variance(self) -> float:
        return self.var

    def raw_moment(self, r: int) -> float:
        m, v = self.mean_value, self.var
        if r == 0:
            return 1.0
        if r == 1:
            return m
        if r == 2:
            return m * m + v
        if r == 3:
            return m ** 3 + 3 * m * v
        if r == 4:
            return m ** 4 + 6 * m * m * v + 3 * v * v
        raise ValueError(f"raw moments implemented up to order 4, got {r}")

    def cdf(self, x):
        from scipy import special
        return special.ndtr((np.asarray(x, float) - self.mean_value) / math.sqrt(self.var))

    def ppf(self, q):
        from scipy import special
        return self.mean_value + math.sqrt(self.var) * special.ndtri(np.asarray(q, float))

    def support(self) -> tuple[float, float]:
        # effective support for grid construction, not a hard truncation
        sd = math.sqrt(self.var)
        return (self.mean_value - 8.0 * sd, self.mean_value + 8.0 * sd)


@dataclass(frozen=True)
class DiscreteBase(_DictForm):
    """Finite discrete distribution given by support points and probabilities."""

    values: tuple[float, ...] = _in("finite")
    probs: tuple[float, ...] = _in("positive")
    kind: ClassVar[str] = "discrete"

    def _relations(self, where: str) -> None:
        _require(len(self.values) == len(self.probs) > 0, where,
                 "values and probs must be equal-length and non-empty")
        _require(abs(sum(self.probs) - 1.0) < 1e-9, where,
                 f"probabilities must sum to 1, got {sum(self.probs)}")
        _require(all(v < w for v, w in zip(self.values, self.values[1:])), where,
                 "support values must be distinct and increasing")

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        return self.raw_moment(2) - self.mean() ** 2

    def raw_moment(self, r: int) -> float:
        return float(np.dot(np.asarray(self.values, float) ** r, self.probs))

    def cdf(self, x):
        cum = np.concatenate(([0.0], np.cumsum(self.probs)))
        return cum[np.searchsorted(self.values, np.asarray(x, float), side="right")]

    def ppf(self, q):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, np.asarray(q, float), side="right")
        return np.asarray(self.values, float)[np.minimum(idx, len(self.values) - 1)]

    def support(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))


BASE_MEASURES = _family("base", UniformBase, NormalBase, DiscreteBase)


# ---------------------------------------------------------------------------
# Reinforcement-weight distributions (support must lie in (0, inf))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegenerateWeight(_DictForm):
    """W identically equal to `value`. Consumes no randomness."""

    value: float = _in("positive", 1.0)
    kind: ClassVar[str] = "degenerate"
    consumes_uniform: ClassVar[bool] = False

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def second_moment(self) -> float:
        return self.value ** 2

    def from_uniform(self, u):
        return np.full_like(np.asarray(u, float), self.value)


@dataclass(frozen=True)
class TwoPointWeight(_DictForm):
    """W = lo with probability p_lo, else hi."""

    lo: float = _in("positive", 1.0)
    hi: float = _in("positive", 3.0)
    p_lo: float = _in("unit_interval", 0.5)
    kind: ClassVar[str] = "two_point"
    consumes_uniform: ClassVar[bool] = True

    def _relations(self, where: str) -> None:
        _require(self.hi > self.lo, where, f"need hi > lo, got ({self.lo}, {self.hi})")

    def mean(self) -> float:
        return self.p_lo * self.lo + (1 - self.p_lo) * self.hi

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    def second_moment(self) -> float:
        return self.p_lo * self.lo ** 2 + (1 - self.p_lo) * self.hi ** 2

    def from_uniform(self, u):
        return np.where(np.asarray(u, float) < self.p_lo, self.lo, self.hi)


@dataclass(frozen=True)
class UniformWeight(_DictForm):
    """W uniform on (a, b) with a > 0."""

    a: float = _in("positive", 0.5)
    b: float = _in("positive", 1.5)
    kind: ClassVar[str] = "uniform"
    consumes_uniform: ClassVar[bool] = True

    def _relations(self, where: str) -> None:
        _require(self.b > self.a, where, f"need b > a, got ({self.a}, {self.b})")

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0

    def second_moment(self) -> float:
        return self.variance() + self.mean() ** 2

    def from_uniform(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, float)


@dataclass(frozen=True)
class GammaWeight(_DictForm):
    """W = shift + Gamma(shape, scale). Drawn by inverse CDF, so one uniform per draw."""

    shape: float = _in("positive", 2.0)
    scale: float = _in("positive", 1.0)
    shift: float = _in("nonnegative", 0.0)
    kind: ClassVar[str] = "gamma"
    consumes_uniform: ClassVar[bool] = True

    def _relations(self, where: str) -> None:
        _require(self.shift > 0 or self.shape > 2, where,
                 f"need shift > 0 or shape > 2 so that E[1/W^2] is finite; got shape "
                 f"{self.shape} and shift {self.shift}, defaults included")

    def mean(self) -> float:
        return self.shape * self.scale + self.shift

    def variance(self) -> float:
        return self.shape * self.scale ** 2

    def second_moment(self) -> float:
        return self.variance() + self.mean() ** 2

    def from_uniform(self, u):
        from scipy import special
        return self.shift + self.scale * special.gammaincinv(self.shape, np.asarray(u, float))


WEIGHT_DISTS = _family("weight", DegenerateWeight, TwoPointWeight, UniformWeight, GammaWeight)


# ---------------------------------------------------------------------------
# Coupling of the weights across coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaSchedule(_DictForm):
    """Cross-reinforcement fractions beta_n with beta_1 = 1 and 0 < beta_n <= 1.

    kinds: "constant_one" (beta_n = 1), "harmonic" (beta_n = 2/(n+1)),
    "geometric" (beta_n = ratio^(n-1), summable, so the predictive freezes),
    or "table" (explicit values; steps beyond the table reuse the last entry).
    """

    kind: str = "harmonic"
    table: tuple[float, ...] = ()
    ratio: float = 0.5
    role: ClassVar[str] = "beta"

    def _relations(self, where: str) -> None:
        _require(self.kind in ("constant_one", "harmonic", "geometric", "table"),
                 where, f"unknown beta schedule kind {self.kind!r}")
        if self.kind == "geometric":
            _require(0.0 < self.ratio < 1.0, where,
                     f"geometric ratio must lie in (0, 1), got {self.ratio}")
        if self.kind == "table":
            _require(len(self.table) >= 1, where, "table schedule needs at least one entry")
            _require(abs(self.table[0] - 1.0) < 1e-15, where,
                     f"beta_1 must equal 1, got {self.table[0]}")
            _require(all(0.0 < b <= 1.0 for b in self.table), where,
                     "all beta_n must lie in (0, 1]")

    def value(self, n: int) -> float:
        """beta_n for the 1-based step index n."""
        if self.kind == "constant_one":
            return 1.0
        if self.kind == "harmonic":
            return 2.0 / (n + 1)
        if self.kind == "geometric":
            return self.ratio ** (n - 1)
        return self.table[min(n, len(self.table)) - 1]


@dataclass(frozen=True)
class IidWeights(_DictForm):
    """Independent weights across coordinates and steps, all drawn from `dist`."""

    dist: object = field(metadata={"kinds": WEIGHT_DISTS})
    kind: ClassVar[str] = "independent_iid_weights"


@dataclass(frozen=True)
class CommonWeight(_DictForm):
    """One weight per step, shared by every coordinate."""

    dist: object = field(metadata={"kinds": WEIGHT_DISTS})
    kind: ClassVar[str] = "common_weight"


@dataclass(frozen=True)
class CrossFraction(_DictForm):
    """Reinforcement fraction of coordinate i set to beta_n * x_j for the other
    coordinate j (two coordinates only)."""

    beta: BetaSchedule = field(default_factory=BetaSchedule, metadata={"kinds": BetaSchedule})
    kind: ClassVar[str] = "cross_fraction"


@dataclass(frozen=True)
class FeedbackWeight(_DictForm):
    """Weight set by the observation it reinforces, W = scale * x + shift.

    At scale > 0 the weight depends on the observation, so the system is
    not p-c.i.d. This rule is how `broken_feedback_weight` reads as a
    reinforced system; it is not a config coupling (not in COUPLING_RULES).
    """

    scale: float = _in("nonnegative", 1.0)
    shift: float = _in("positive", 0.1)
    kind: ClassVar[str] = "feedback_weight"
    role: ClassVar[str] = "coupling"


COUPLING_RULES = _family("coupling", IidWeights, CommonWeight, CrossFraction)


@dataclass(frozen=True)
class ConstantStop(_DictForm):
    """tau identically n."""

    n: int = _in("count")
    kind: ClassVar[str] = "constant"


@dataclass(frozen=True)
class FirstExceedStop(_DictForm):
    """tau is the first step whose observation exceeds `threshold`, capped at
    `cap`. The threshold is finite: at NaN or +inf tau would be the cap, at
    -inf it would be 1, silently."""

    threshold: float = _in("finite")
    cap: int = _in("count")
    kind: ClassVar[str] = "first_exceed"


# the stopping rules a stopping-time check's `tau` may declare
STOPPING_RULES = _family("tau", ConstantStop, FirstExceedStop)


# ---------------------------------------------------------------------------
# Process specs
# ---------------------------------------------------------------------------

# the metadata of a per-coordinate tuple of base measures
_COORD_BASES = {"per_coord": True, "kinds": BASE_MEASURES}


@dataclass(frozen=True)
class ReinforcedSpec(_DictForm):
    """Randomly reinforced predictive system: coordinate i draws from the
    normalized mixture (w0_i nu_i + sum_k W_{k,i} delta_{x_{k,i}}) / total and
    the just-observed value is appended with a fresh positive weight."""

    n_coords: int = _in("coordinates", 1)
    w0: tuple[float, ...] = _in("positive", (1.0,), per_coord=True)
    base: tuple = field(default=(UniformBase(),), metadata=_COORD_BASES)
    coupling: object = field(default_factory=lambda: CommonWeight(DegenerateWeight(1.0)),
                             metadata={"kinds": COUPLING_RULES})
    kind: ClassVar[str] = "reinforced"

    def _relations(self, where: str) -> None:
        if isinstance(self.coupling, CrossFraction):
            _require(self.n_coords == 2, "n_coords",
                     "cross_fraction coupling requires exactly 2 coordinates")
            for i, b in enumerate(self.base):
                lo, hi = b.support()
                _require(lo >= 0.0 and hi <= 1.0, f"base[{i}]",
                         "cross_fraction coupling needs base support within [0, 1]")


@dataclass(frozen=True)
class PolyaSpec(_DictForm):
    """Independent Polya sequences: the reinforced scheme with W = 1."""

    n_coords: int = _in("coordinates", 1)
    w0: tuple[float, ...] = _in("positive", (1.0,), per_coord=True)
    base: tuple = field(default=(UniformBase(),), metadata=_COORD_BASES)
    kind: ClassVar[str] = "polya"

    def validate(self) -> None:
        reinforced_view(self).validate()


@dataclass(frozen=True)
class UniformCoupledSpec(_DictForm):
    """Two uniform(0,1)-based reinforced sequences coupled through the
    reinforcement fraction A_{n,i} = beta_n * x_{n,j}, j != i."""

    beta: BetaSchedule = field(default_factory=BetaSchedule, metadata={"kinds": BetaSchedule})
    w0: float = _in("positive", 1.0)
    kind: ClassVar[str] = "uniform_coupled"
    n_coords: ClassVar[int] = 2


@dataclass(frozen=True)
class BrokenFeedbackWeightSpec(_DictForm):
    """Negative control: a reinforced scheme whose weight is a function of the
    observation it reinforces, W_{n,i} = scale * x_{n,i} + shift. This violates
    the independence of weight and observation, so the array is not p-c.i.d.;
    larger scales make it easier to detect. Scale 0 is the null: Polya urns."""

    n_coords: int = _in("coordinates", 2)
    w0: float = _in("positive", 1.0)
    shift: float = _in("positive", 0.1)
    scale: float = _in("nonnegative", 1.0)
    kind: ClassVar[str] = "broken_feedback_weight"


@dataclass(frozen=True)
class GaussianLastTickSpec(_DictForm):
    """Gaussian predictive system driven by arrival times: the predictive mean
    is the duration-weighted (last-tick) average of past observations and the
    predictive variance shrinks by the factor 1 - lambda_n^2 each step."""

    n_coords: int = _in("coordinates", 1)
    mu1: tuple[float, ...] = _in("finite", (0.0,), per_coord=True)
    sigma2_1: tuple[float, ...] = _in("positive", (1.0,), per_coord=True)
    rate: float = _in("positive", 1.0)
    t0: float | None = _in("positive", None)  # None: first Poisson inter-arrival
    kind: ClassVar[str] = "gaussian_last_tick"


@dataclass(frozen=True)
class StateSpaceCidSpec(_DictForm):
    """Damped-random-walk state-space model: a latent level accumulates
    shrinking Gaussian increments with Var = b_n - b_{n-1}, observations add
    independent N(0, c - b_n) noise. b_n increases to c_prime < c; the default
    schedule is b_n = c_prime * (1 - 2^{-n})."""

    theta0: float = _in("finite", 0.0)
    c: float = _in("positive", 1.0)
    c_prime: float = _in("positive", 0.5)
    b_table: tuple[float, ...] = ()  # optional explicit schedule, else geometric
    kind: ClassVar[str] = "state_space_cid"
    n_coords: ClassVar[int] = 1

    def _relations(self, where: str) -> None:
        _require(self.c_prime < self.c, "c_prime",
                 f"need c_prime < c, got c_prime={self.c_prime}, c={self.c}")
        if self.b_table:
            _require(self.b_table[0] > 0.0, "b_table", "b_1 must be positive")
            _require(all(b2 >= b1 for b1, b2 in zip(self.b_table, self.b_table[1:])),
                     "b_table", "schedule must be nondecreasing")
            _require(max(self.b_table) < self.c_prime, "b_table",
                     "schedule must stay below c_prime")

    def b(self, n: int) -> float:
        """b_n for n >= 0 (b_0 = 0)."""
        if n == 0:
            return 0.0
        if self.b_table:
            return self.b_table[min(n, len(self.b_table)) - 1]
        return self.c_prime * (1.0 - 2.0 ** (-n))


@dataclass(frozen=True)
class Ar1DriftSpec(_DictForm):
    """Negative control: X_{n+1} = drift + phi X_n + noise. With a nonzero
    drift the marginals shift with n, so the sequence is not c.i.d. With
    phi = drift = 0 it degenerates to an i.i.d. Gaussian sequence."""

    phi: float = 0.8
    drift: float = _in("finite", 0.3)
    noise_var: float = _in("positive", 1.0)
    init_mean: float = _in("finite", 0.0)
    init_var: float = _in("positive", 1.0)
    kind: ClassVar[str] = "ar1_drift"
    n_coords: ClassVar[int] = 1

    def _relations(self, where: str) -> None:
        _require(abs(self.phi) < 1, "phi", f"|phi| must be < 1, got {self.phi}")


SPEC_KINDS = {
    cls.kind: cls
    for cls in (ReinforcedSpec, PolyaSpec, UniformCoupledSpec, BrokenFeedbackWeightSpec,
                GaussianLastTickSpec, StateSpaceCidSpec, Ar1DriftSpec)
}


def reinforced_view(spec) -> ReinforcedSpec | None:
    """The spec read as a reinforced system (w0, base measures and coupling
    per coordinate), or None for kinds that are not reinforced."""
    if isinstance(spec, ReinforcedSpec):
        return spec
    if isinstance(spec, PolyaSpec):
        return ReinforcedSpec(spec.n_coords, spec.w0, spec.base,
                              CommonWeight(DegenerateWeight(1.0)))
    if isinstance(spec, UniformCoupledSpec):
        return ReinforcedSpec(2, (spec.w0, spec.w0), (UniformBase(), UniformBase()),
                              CrossFraction(spec.beta))
    if isinstance(spec, BrokenFeedbackWeightSpec):
        k = spec.n_coords
        return ReinforcedSpec(k, (spec.w0,) * k, (UniformBase(),) * k,
                              FeedbackWeight(spec.scale, spec.shift))
    return None


def spec_from_dict(d: dict):
    """Build and validate a ProcessSpec from its dict form."""
    _require(isinstance(d, dict) and "kind" in d, "spec", "expected a dict with a 'kind'")
    kind = d["kind"]
    _require(kind in SPEC_KINDS, "spec.kind", f"unknown spec kind {kind!r}; "
             f"known kinds: {sorted(SPEC_KINDS)}")
    spec = SPEC_KINDS[kind].from_dict(d)
    spec.validate()
    return spec


def list_spec_kinds() -> list[str]:
    return sorted(SPEC_KINDS)
