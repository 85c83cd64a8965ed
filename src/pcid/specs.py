"""Declarative process specifications.

A ProcessSpec describes one p-c.i.d. construction: its kind, its
parameters, and the number of coordinates. Specs are plain data: they
validate themselves, serialize to/from dicts (for experiment configs and
report provenance), and are interpreted by the simulators in
:mod:`pcid.processes`. This module is the only one that knows how a spec
reads as a reinforced system (`reinforced_view`) and how it maps to and
from a dict (`to_dict` / `from_dict`, derived from the dataclass fields).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar

import numpy as np

from .kolmogorov import ndtr


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


# ---------------------------------------------------------------------------
# Dict form, derived from the dataclass fields
# ---------------------------------------------------------------------------

# Readers of plain fields, keyed by the field's annotation.
_READERS = {
    "float": float,
    "int": int,
    "str": str,
    "float | None": lambda v: None if v is None else float(v),
    "tuple[float, ...]": lambda v: tuple(float(x) for x in v),
}


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
    return tuple(float(x) for x in raw)


class _DictForm:
    """`to_dict` / `from_dict` for the spec dataclasses and their components.

    The dict form holds the class's `kind` and every dataclass field. Field
    metadata refines it: "key" renames the field, "per_coord" marks a tuple
    with one entry per coordinate (a single entry is broadcast to
    `n_coords`), and "kinds" marks a nested component.
    """

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
        """Build from the dict form. Absent keys take the field defaults;
        `where` prefixes the field names that errors report."""
        values: dict = {}
        for f in fields(cls):
            key = f.metadata.get("key", f.name)
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
            if f.metadata.get("per_coord"):
                v = _broadcast(v, values["n_coords"], field_name)
            values[f.name] = v
        return cls(**values)


# ---------------------------------------------------------------------------
# Base measures (the nu_i driving a reinforced coordinate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformBase(_DictForm):
    """Uniform distribution on (a, b)."""

    a: float = 0.0
    b: float = 1.0
    kind: ClassVar[str] = "uniform"

    def validate(self, field_name: str = "base") -> None:
        _require(math.isfinite(self.a) and math.isfinite(self.b), field_name,
                 "uniform bounds must be finite")
        _require(self.b > self.a, field_name, f"need b > a, got ({self.a}, {self.b})")

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

    mean_value: float = field(default=0.0, metadata={"key": "mean"})
    var: float = 1.0
    kind: ClassVar[str] = "normal"

    def validate(self, field_name: str = "base") -> None:
        _require(math.isfinite(self.mean_value), field_name, "mean must be finite")
        _require(self.var > 0 and math.isfinite(self.var), field_name,
                 f"variance must be positive, got {self.var}")

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
        return ndtr((np.asarray(x, float) - self.mean_value) / math.sqrt(self.var))

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

    values: tuple[float, ...]
    probs: tuple[float, ...]
    kind: ClassVar[str] = "discrete"

    def validate(self, field_name: str = "base") -> None:
        _require(len(self.values) == len(self.probs) > 0, field_name,
                 "values and probs must be equal-length and non-empty")
        _require(all(math.isfinite(v) for v in self.values), field_name,
                 "support values must be finite")
        _require(all(p > 0 for p in self.probs), field_name, "probabilities must be positive")
        _require(abs(sum(self.probs) - 1.0) < 1e-9, field_name,
                 f"probabilities must sum to 1, got {sum(self.probs)}")
        _require(list(self.values) == sorted(self.values), field_name,
                 "support values must be strictly increasing")
        _require(len(set(self.values)) == len(self.values), field_name,
                 "support values must be distinct")

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def variance(self) -> float:
        return self.raw_moment(2) - self.mean() ** 2

    def raw_moment(self, r: int) -> float:
        return float(np.dot(np.asarray(self.values, float) ** r, self.probs))

    def cdf(self, x):
        x = np.asarray(x, float)
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(self.values, x, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out

    def ppf(self, q):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, np.asarray(q, float), side="right")
        return np.asarray(self.values, float)[np.minimum(idx, len(self.values) - 1)]

    def support(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))


BASE_MEASURES = {
    UniformBase.kind: UniformBase,
    NormalBase.kind: NormalBase,
    DiscreteBase.kind: DiscreteBase,
}


# ---------------------------------------------------------------------------
# Reinforcement-weight distributions (support must lie in (0, inf))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegenerateWeight(_DictForm):
    """W identically equal to `value`. Consumes no randomness."""

    value: float = 1.0
    kind: ClassVar[str] = "degenerate"
    consumes_uniform: ClassVar[bool] = False

    def validate(self, field_name: str = "weight") -> None:
        _require(self.value > 0 and math.isfinite(self.value), field_name,
                 f"weight must be positive, got {self.value}")

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

    lo: float = 1.0
    hi: float = 3.0
    p_lo: float = 0.5
    kind: ClassVar[str] = "two_point"
    consumes_uniform: ClassVar[bool] = True

    def validate(self, field_name: str = "weight") -> None:
        _require(self.lo > 0 and 0 < self.hi < math.inf, field_name,
                 "both weight values must be positive and finite")
        _require(self.hi > self.lo, field_name, "need hi > lo")
        _require(0.0 < self.p_lo < 1.0, field_name, f"p_lo must be in (0,1), got {self.p_lo}")

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

    a: float = 0.5
    b: float = 1.5
    kind: ClassVar[str] = "uniform"
    consumes_uniform: ClassVar[bool] = True

    def validate(self, field_name: str = "weight") -> None:
        _require(self.a > 0, field_name, f"lower bound must be positive, got {self.a}")
        _require(self.a < self.b < math.inf, field_name,
                 f"need finite b > a, got ({self.a}, {self.b})")

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

    shape: float = 2.0
    scale: float = 1.0
    shift: float = 0.0
    kind: ClassVar[str] = "gamma"
    consumes_uniform: ClassVar[bool] = True

    def validate(self, field_name: str = "weight") -> None:
        _require(0 < self.shape < math.inf, field_name,
                 f"shape must be positive and finite, got {self.shape}")
        _require(0 < self.scale < math.inf, field_name,
                 f"scale must be positive and finite, got {self.scale}")
        _require(0 <= self.shift < math.inf, field_name,
                 f"shift must be >= 0 and finite, got {self.shift}")
        _require(self.shift > 0 or self.shape > 2, field_name,
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


WEIGHT_DISTS = {
    DegenerateWeight.kind: DegenerateWeight,
    TwoPointWeight.kind: TwoPointWeight,
    UniformWeight.kind: UniformWeight,
    GammaWeight.kind: GammaWeight,
}


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

    def validate(self, field_name: str = "beta") -> None:
        _require(self.kind in ("constant_one", "harmonic", "geometric", "table"),
                 field_name, f"unknown beta schedule kind {self.kind!r}")
        if self.kind == "geometric":
            _require(0.0 < self.ratio < 1.0, field_name,
                     f"geometric ratio must lie in (0, 1), got {self.ratio}")
        if self.kind == "table":
            _require(len(self.table) >= 1, field_name, "table schedule needs at least one entry")
            _require(abs(self.table[0] - 1.0) < 1e-15, field_name,
                     f"beta_1 must equal 1, got {self.table[0]}")
            _require(all(0.0 < b <= 1.0 for b in self.table), field_name,
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

    def validate(self, field_name: str = "coupling") -> None:
        self.dist.validate(f"{field_name}.dist")


@dataclass(frozen=True)
class CommonWeight(_DictForm):
    """One weight per step, shared by every coordinate."""

    dist: object = field(metadata={"kinds": WEIGHT_DISTS})
    kind: ClassVar[str] = "common_weight"

    def validate(self, field_name: str = "coupling") -> None:
        self.dist.validate(f"{field_name}.dist")


@dataclass(frozen=True)
class CrossFraction(_DictForm):
    """Reinforcement fraction of coordinate i set to beta_n * x_j for the other
    coordinate j (two coordinates only)."""

    beta: BetaSchedule = field(default_factory=BetaSchedule, metadata={"kinds": BetaSchedule})
    kind: ClassVar[str] = "cross_fraction"

    def validate(self, field_name: str = "coupling") -> None:
        self.beta.validate(f"{field_name}.beta")


@dataclass(frozen=True)
class FeedbackWeight(_DictForm):
    """Weight set by the observation it reinforces, W = scale * x + shift.

    The weight depends on the observation, so the system is not p-c.i.d.
    This rule is how `broken_feedback_weight` reads as a reinforced system;
    it is not a config coupling and is left out of COUPLING_RULES.
    """

    scale: float = 1.0
    shift: float = 0.1
    kind: ClassVar[str] = "feedback_weight"

    def validate(self, field_name: str = "coupling") -> None:
        _require(0 < self.scale < math.inf and 0 < self.shift < math.inf, field_name,
                 "scale and shift must be positive and finite")


COUPLING_RULES = {
    IidWeights.kind: IidWeights,
    CommonWeight.kind: CommonWeight,
    CrossFraction.kind: CrossFraction,
}


# ---------------------------------------------------------------------------
# Process specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReinforcedSpec(_DictForm):
    """Randomly reinforced predictive system: coordinate i draws from the
    normalized mixture (w0_i nu_i + sum_k W_{k,i} delta_{x_{k,i}}) / total and
    the just-observed value is appended with a fresh positive weight."""

    n_coords: int = 1
    w0: tuple[float, ...] = field(default=(1.0,), metadata={"per_coord": True})
    base: tuple = field(default=(UniformBase(),),
                        metadata={"per_coord": True, "kinds": BASE_MEASURES})
    coupling: object = field(default_factory=lambda: CommonWeight(DegenerateWeight(1.0)),
                             metadata={"kinds": COUPLING_RULES})
    kind: ClassVar[str] = "reinforced"

    def validate(self) -> None:
        _require(self.n_coords >= 1, "n_coords", f"need at least one coordinate, got {self.n_coords}")
        _require(len(self.w0) == self.n_coords, "w0", "one base weight per coordinate")
        for i, w in enumerate(self.w0):
            _require(w > 0 and math.isfinite(w), f"w0[{i}]", f"must be positive, got {w}")
        _require(len(self.base) == self.n_coords, "base", "one base measure per coordinate")
        for i, b in enumerate(self.base):
            b.validate(f"base[{i}]")
        self.coupling.validate("coupling")
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

    n_coords: int = 1
    w0: tuple[float, ...] = field(default=(1.0,), metadata={"per_coord": True})
    base: tuple = field(default=(UniformBase(),),
                        metadata={"per_coord": True, "kinds": BASE_MEASURES})
    kind: ClassVar[str] = "polya"

    def validate(self) -> None:
        reinforced_view(self).validate()


@dataclass(frozen=True)
class UniformCoupledSpec(_DictForm):
    """Two uniform(0,1)-based reinforced sequences coupled through the
    reinforcement fraction A_{n,i} = beta_n * x_{n,j}, j != i."""

    beta: BetaSchedule = field(default_factory=BetaSchedule, metadata={"kinds": BetaSchedule})
    w0: float = 1.0
    kind: ClassVar[str] = "uniform_coupled"
    n_coords: ClassVar[int] = 2

    def validate(self) -> None:
        self.beta.validate("beta")
        _require(self.w0 > 0 and math.isfinite(self.w0), "w0",
                 f"must be positive, got {self.w0}")


@dataclass(frozen=True)
class BrokenFeedbackWeightSpec(_DictForm):
    """Negative control: a reinforced scheme whose weight is a function of the
    observation it reinforces, W_{n,i} = scale * x_{n,i} + shift. This violates
    the independence of weight and observation, so the array is not p-c.i.d.;
    larger scales make the violation easier to detect."""

    n_coords: int = 2
    w0: float = 1.0
    shift: float = 0.1
    scale: float = 1.0
    kind: ClassVar[str] = "broken_feedback_weight"

    def validate(self) -> None:
        _require(self.n_coords >= 1, "n_coords", f"need at least one coordinate, got {self.n_coords}")
        _require(0 < self.w0 < math.inf, "w0", f"must be positive and finite, got {self.w0}")
        _require(0 < self.shift < math.inf, "shift",
                 f"must be positive and finite, got {self.shift}")
        _require(0 < self.scale < math.inf, "scale",
                 f"must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class GaussianLastTickSpec(_DictForm):
    """Gaussian predictive system driven by arrival times: the predictive mean
    is the duration-weighted (last-tick) average of past observations and the
    predictive variance shrinks by the factor 1 - lambda_n^2 each step."""

    n_coords: int = 1
    mu1: tuple[float, ...] = field(default=(0.0,), metadata={"per_coord": True})
    sigma2_1: tuple[float, ...] = field(default=(1.0,), metadata={"per_coord": True})
    rate: float = 1.0
    t0: float | None = None  # None: first Poisson inter-arrival
    kind: ClassVar[str] = "gaussian_last_tick"

    def validate(self) -> None:
        _require(self.n_coords >= 1, "n_coords", f"need at least one coordinate, got {self.n_coords}")
        _require(len(self.mu1) == self.n_coords, "mu1", "one initial mean per coordinate")
        _require(len(self.sigma2_1) == self.n_coords, "sigma2_1", "one initial variance per coordinate")
        for i, m in enumerate(self.mu1):
            _require(math.isfinite(m), f"mu1[{i}]", f"must be finite, got {m}")
        for i, s2 in enumerate(self.sigma2_1):
            _require(s2 > 0 and math.isfinite(s2), f"sigma2_1[{i}]",
                     f"must be positive and finite, got {s2}")
        _require(self.rate > 0 and math.isfinite(self.rate), "rate",
                 f"must be positive and finite, got {self.rate}")
        if self.t0 is not None:
            _require(self.t0 > 0 and math.isfinite(self.t0), "t0",
                     f"must be positive and finite, got {self.t0}")


@dataclass(frozen=True)
class StateSpaceCidSpec(_DictForm):
    """Damped-random-walk state-space model: a latent level accumulates
    shrinking Gaussian increments with Var = b_n - b_{n-1}, observations add
    independent N(0, c - b_n) noise. b_n increases to c_prime < c; the default
    schedule is b_n = c_prime * (1 - 2^{-n})."""

    theta0: float = 0.0
    c: float = 1.0
    c_prime: float = 0.5
    b_table: tuple[float, ...] = ()  # optional explicit schedule, else geometric
    kind: ClassVar[str] = "state_space_cid"
    n_coords: ClassVar[int] = 1

    def validate(self) -> None:
        _require(math.isfinite(self.theta0), "theta0", "must be finite")
        _require(0 < self.c < math.inf, "c", f"must be positive and finite, got {self.c}")
        _require(0 < self.c_prime < self.c, "c_prime",
                 f"need 0 < c_prime < c, got c_prime={self.c_prime}, c={self.c}")
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
    drift: float = 0.3
    noise_var: float = 1.0
    init_mean: float = 0.0
    init_var: float = 1.0
    kind: ClassVar[str] = "ar1_drift"
    n_coords: ClassVar[int] = 1

    def validate(self) -> None:
        _require(abs(self.phi) < 1, "phi", f"|phi| must be < 1, got {self.phi}")
        _require(math.isfinite(self.drift), "drift", f"must be finite, got {self.drift}")
        _require(math.isfinite(self.init_mean), "init_mean",
                 f"must be finite, got {self.init_mean}")
        _require(self.noise_var > 0 and math.isfinite(self.noise_var), "noise_var",
                 f"must be positive and finite, got {self.noise_var}")
        _require(self.init_var > 0 and math.isfinite(self.init_var), "init_var",
                 f"must be positive and finite, got {self.init_var}")


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
