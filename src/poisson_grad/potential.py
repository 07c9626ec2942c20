"""Potentials F(t, x), their gradients, and sampled hypothesis checks.

A potential evaluates batched: ``t`` has shape (..., p), ``x`` has shape
(..., n), values come back with shape (...) and gradients with shape
(..., n).  The gradient is always the exact x-derivative of the value;
``check_grad_consistency`` guards that contract with a finite-difference
probe.  Spatial periodicity (F(t, x + P_i e_i) = F(t, x)), positivity, and
the linear gradient growth bound |grad F| <= M |x| + g_max are declared by
the potential and verified by deterministic seeded sampling, never assumed.
Each check takes a ``SampleSpec``, which it draws, or a ``Sample`` already
drawn, whose F and grad F values it shares with the other checks.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .grid import Field, node_coordinates

__all__ = [
    "GrowthEnvelope",
    "SampleSpec",
    "Sample",
    "CheckReport",
    "Potential",
    "BoundPotential",
    "CosineLattice",
    "ShiftedQuadratic",
    "LinearForcing",
    "check_periodicity",
    "check_positivity",
    "check_gradient_growth",
    "check_grad_consistency",
]


@dataclass(frozen=True)
class GrowthEnvelope:
    """Coefficients of the gradient bound |grad F(t,x)| <= m |x| + g_max."""

    m: float = 0.0
    g_max: float = 0.0

    def __post_init__(self) -> None:
        for name in ("m", "g_max"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for hypothesis checks.

    ``t`` is drawn uniformly from [0, T^alpha) per axis and ``x`` uniformly
    from the cube [-8, 8]^n.
    """

    count: int = 1000
    seed: int = 0
    t_extents: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        t = rng.uniform(0.0, 1.0, size=(self.count, len(self.t_extents)))
        t *= np.asarray(self.t_extents)
        x = rng.uniform(-8.0, 8.0, size=(self.count, n))
        return t, x


class Sample:
    """One draw of a sampling plan for a potential.

    The potential is bound once, at the drawn t.  F and grad F at the drawn
    points are evaluated on first use and kept, so checks sharing a Sample
    evaluate each at most once; they perturb copies of the read-only draw.
    """

    def __init__(self, pot: "Potential", sampler: SampleSpec):
        self.pot = pot
        self.count = sampler.count
        self.t, self.x = sampler.draw(pot.n)
        self.t.setflags(write=False)
        self.x.setflags(write=False)
        self.bound = pot.bind(self.t)

    @cached_property
    def value(self) -> np.ndarray:
        return self.bound.value(self.x)

    @cached_property
    def gradient(self) -> np.ndarray:
        return self.bound.gradient(self.x)


def _sample(pot: "Potential", sampler: SampleSpec | Sample) -> Sample:
    if not isinstance(sampler, Sample):
        return Sample(pot, sampler)
    if sampler.pot is not pot:
        raise ValueError("sample was drawn for another potential")
    return sampler


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    samples: int
    worst: float
    threshold: float
    detail: str = ""

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        out = (
            f"{self.name:<18} {verdict:<5} worst={self.worst:.3e} "
            f"threshold={self.threshold:.1e} samples={self.samples}"
        )
        return out + (f"  ({self.detail})" if self.detail else "")


class Potential(ABC):
    """Potential F(t, x) with exact x-gradient and declared hypotheses.

    ``p`` and ``n`` declare the time and space dimensions; ``GridAction``
    binds the potential only to a grid of the same p and n."""

    n: int
    p: int
    periods: np.ndarray | None
    positivity_claim: bool
    growth: GrowthEnvelope | None
    name: str = "potential"

    @abstractmethod
    def value(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F(t, x); broadcasts over leading axes."""

    @abstractmethod
    def gradient(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Exact x-gradient of F, shape (..., n)."""

    def bind(self, t: np.ndarray) -> "BoundPotential":
        """F and grad F at fixed points ``t`` of shape (..., p), as functions
        of ``x`` of shape (..., n): the solver, the certificate and the
        sampled checks evaluate F only through this.  A subclass may override
        it to compute what depends on t alone once."""
        return BoundPotential(partial(self.value, t), partial(self.gradient, t))


@dataclass(frozen=True)
class BoundPotential:
    """A potential bound to fixed points t: a grid's nodes or a drawn sample."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]


class CosineLattice(Potential):
    """Separable cosine-well lattice with optional time modulation.

    F(t, x) = floor + (1 + mu cos(2 pi t^a0 / T^a0)) * sum_i A_i (1 - cos(2 pi x^i / P_i))

    Positive (floor > 0, |mu| < 1) and P_i-periodic per component by
    construction; the declared growth envelope has m = 0.
    """

    name = "cosine"

    def __init__(
        self,
        amplitudes,
        periods,
        floor: float = 0.1,
        modulation: float = 0.0,
        mod_axis: int = 0,
        mod_extent: float = 1.0,
        p: int = 1,
    ):
        self.amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=np.float64))
        self.periods = np.atleast_1d(np.asarray(periods, dtype=np.float64))
        if self.amplitudes.shape != self.periods.shape:
            raise ValueError("amplitudes and periods must have equal length")
        if np.any(self.amplitudes <= 0.0) or np.any(self.periods <= 0.0):
            raise ValueError("amplitudes and periods must be positive")
        if floor <= 0.0:
            raise ValueError(f"floor must be positive, got {floor}")
        if not -1.0 < modulation < 1.0:
            raise ValueError(f"modulation must lie in (-1, 1), got {modulation}")
        if not 0 <= mod_axis < p:
            raise ValueError(f"mod_axis {mod_axis} out of range for p={p}")
        if mod_extent <= 0.0:
            raise ValueError("mod_extent must be positive")
        self.n = self.amplitudes.size
        self.p = p
        self.floor = float(floor)
        self.modulation = float(modulation)
        self.mod_axis = mod_axis
        self.mod_extent = float(mod_extent)
        self.positivity_claim = True
        rates = self.amplitudes * (2.0 * np.pi / self.periods)
        self.growth = GrowthEnvelope(
            m=0.0, g_max=(1.0 + abs(modulation)) * float(np.sqrt(np.sum(rates**2)))
        )

    def _time_factor(self, t: np.ndarray) -> np.ndarray:
        if self.modulation == 0.0:
            return np.ones(np.asarray(t).shape[:-1])
        phase = 2.0 * np.pi * np.asarray(t)[..., self.mod_axis] / self.mod_extent
        return 1.0 + self.modulation * np.cos(phase)

    def _well(self, factor: np.ndarray, x) -> np.ndarray:
        terms = self.amplitudes * (1.0 - np.cos(2.0 * np.pi * np.asarray(x) / self.periods))
        return self.floor + factor * np.add.reduce(terms, axis=-1)

    def _slope(self, factor: np.ndarray, x) -> np.ndarray:
        rates = self.amplitudes * (2.0 * np.pi / self.periods)
        return factor * (rates * np.sin(2.0 * np.pi * np.asarray(x) / self.periods))

    def value(self, t, x):
        return self.bind(t).value(x)

    def gradient(self, t, x):
        return self.bind(t).gradient(x)

    def bind(self, t: np.ndarray) -> BoundPotential:
        """The time factor is evaluated once, at ``t``."""
        factor = self._time_factor(t)
        return BoundPotential(
            partial(self._well, factor), partial(self._slope, factor[..., np.newaxis])
        )


class ShiftedQuadratic(Potential):
    """F(t, x) = |x - center|^2 / 2 + floor; strictly convex, no periods."""

    name = "quadratic"

    def __init__(self, center, floor: float = 1.0, p: int = 1):
        self.center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if floor <= 0.0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.n = self.center.size
        self.p = p
        self.floor = float(floor)
        self.periods = None
        self.positivity_claim = True
        self.growth = GrowthEnvelope(m=1.0, g_max=float(np.linalg.norm(self.center)))

    def value(self, t, x):
        d = np.asarray(x) - self.center
        return 0.5 * np.sum(d * d, axis=-1) + self.floor

    def gradient(self, t, x):
        return np.asarray(x) - self.center


class LinearForcing(Potential):
    """F(t, x) = -(f(t), x) for a zero-mean forcing field f given on the grid.

    Not positive and not spatially periodic; it exists for manufactured
    solutions, where the critical-point equation becomes the linear problem
    laplacian(u) = -f.  Between nodes, f is looked up at the nearest node.
    """

    name = "linear"

    def __init__(self, forcing: Field):
        self.forcing = forcing
        self.n = forcing.spec.n
        self.p = forcing.spec.p
        self.periods = None
        self.positivity_claim = False
        per_node = np.sqrt(np.sum(forcing.values**2, axis=-1))
        self.growth = GrowthEnvelope(m=0.0, g_max=float(per_node.max()))

    def _forcing_at(self, t: np.ndarray) -> np.ndarray:
        """f at the nearest nodes; at its own nodes, the forcing, not a copy."""
        spec = self.forcing.spec
        if t is node_coordinates(spec):
            return self.forcing.values
        t = np.asarray(t, dtype=np.float64)
        idx = tuple(
            np.mod(np.rint(t[..., a] / spec.spacings[a]).astype(int), spec.nodes[a])
            for a in range(spec.p)
        )
        return self.forcing.values[idx]

    def value(self, t, x):
        return self.bind(t).value(x)

    def gradient(self, t, x):
        return self.bind(t).gradient(x)

    def bind(self, t: np.ndarray) -> BoundPotential:
        f = self._forcing_at(t)
        return BoundPotential(partial(self._pairing, f), partial(self._negated, f))

    @staticmethod
    def _pairing(f: np.ndarray, x) -> np.ndarray:
        return -np.add.reduce(f * np.asarray(x), axis=-1)

    @staticmethod
    def _negated(f: np.ndarray, x) -> np.ndarray:
        return -np.broadcast_to(f, np.broadcast_shapes(f.shape, np.asarray(x).shape))


def check_periodicity(pot: Potential, sampler: SampleSpec | Sample) -> CheckReport:
    """Sampled test of F(t, x + P_i e_i) = F(t, x) for every component i."""
    if pot.periods is None:
        raise ValueError(f"potential '{pot.name}' declares no periods")
    sample = _sample(pot, sampler)
    x, base = sample.x, sample.value
    tol = 1e-9
    worst = 0.0
    ok = True
    for i in range(pot.n):
        shifted = x.copy()
        shifted[:, i] += pot.periods[i]
        dev = np.abs(sample.bound.value(shifted) - base)
        worst = max(worst, float(dev.max()))
        ok = ok and bool(np.all(dev <= tol * (1.0 + np.abs(base))))
    return CheckReport(
        name="periodicity",
        passed=ok,
        samples=sample.count,
        worst=worst,
        threshold=tol,
        detail="max |F(t,x+P_i e_i) - F(t,x)| over samples and components",
    )


def check_positivity(pot: Potential, sampler: SampleSpec | Sample) -> CheckReport:
    """Sampled test of F(t, x) > 0; reports the minimum sampled value."""
    sample = _sample(pot, sampler)
    lo = float(sample.value.min())
    return CheckReport(
        name="positivity",
        passed=lo > 0.0,
        samples=sample.count,
        worst=lo,
        threshold=0.0,
        detail="minimum sampled F",
    )


def check_gradient_growth(
    pot: Potential, env: GrowthEnvelope, sampler: SampleSpec | Sample
) -> CheckReport:
    """Sampled test of |grad F(t, x)| <= m |x| + g_max; zero violations pass."""
    sample = _sample(pot, sampler)
    x = sample.x
    g = np.sqrt(np.sum(sample.gradient**2, axis=-1))
    allowed = env.m * np.sqrt(np.sum(x * x, axis=-1)) + env.g_max
    margin = g - allowed
    violations = int(np.count_nonzero(margin > 0.0))
    return CheckReport(
        name="gradient_growth",
        passed=violations == 0,
        samples=sample.count,
        worst=float(margin.max()),
        threshold=0.0,
        detail=f"{violations} violations of |grad F| <= m|x| + g_max",
    )


def check_grad_consistency(pot: Potential, sampler: SampleSpec | Sample) -> CheckReport:
    """Central finite-difference probe of the declared gradient."""
    sample = _sample(pot, sampler)
    x, grad = sample.x, sample.gradient
    step = 1e-6 * (1.0 + np.sqrt(np.sum(x * x, axis=-1)))
    fd = np.empty_like(grad)
    for i in range(pot.n):
        hi = x.copy()
        lo = x.copy()
        hi[:, i] += step
        lo[:, i] -= step
        fd[:, i] = (sample.bound.value(hi) - sample.bound.value(lo)) / (2.0 * step)
    rel = np.abs(fd - grad) / (1.0 + np.abs(grad))
    tol = 1e-5
    worst = float(rel.max())
    return CheckReport(
        name="grad_consistency",
        passed=worst <= tol,
        samples=sample.count,
        worst=worst,
        threshold=tol,
        detail="max relative gap between gradient and central differences",
    )
