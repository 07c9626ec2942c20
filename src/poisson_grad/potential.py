"""Potentials F(t, x), their gradients, and sampled hypothesis checks.

A potential evaluates batched: ``t`` has shape (..., p), ``x`` has shape
(..., n), values come back with shape (...) and gradients with shape
(..., n).  The gradient is always the exact x-derivative of the value;
``check_grad_consistency`` guards that contract with a finite-difference
probe.  Spatial periodicity (F(t, x + P_i e_i) = F(t, x)) and the linear
gradient growth bound |grad F| <= M |x| + g_max are declared by the
potential; they and positivity are verified by deterministic seeded
sampling, never assumed.
Each check takes the ``Sample`` it tests and reads the declarations from
its potential; checks sharing a Sample share its F and grad F values.  A
sample whose checked quantity is not finite fails the check, is counted in
its detail and is left out of its worst.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import Field, _component_sum, _row_norms, node_coordinates

__all__ = [
    "GrowthEnvelope",
    "SampleSpec",
    "Sample",
    "fp_policy",
    "CheckReport",
    "Potential",
    "BoundPotential",
    "CosineLattice",
    "ShiftedQuadratic",
    "LinearForcing",
    "declared_periods",
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

    The potential is bound once, at the drawn t, and the bound potential's
    ``sample`` evaluates F and grad F once, at the drawn points, as |x| is,
    so checks sharing a Sample share them; they perturb copies of the
    read-only draw in one component i and take F there from ``moved(i, y)``.
    """

    def __init__(self, pot: "Potential", sampler: SampleSpec):
        self.pot = pot
        self.count = sampler.count
        self.t, self.x = sampler.draw(pot.n)
        self.t.setflags(write=False)
        self.x.setflags(write=False)
        self.value, self.gradient, self.moved = pot.bind(self.t).sample(self.x)
        self.norm = _row_norms(self.x)


def fp_policy() -> np.errstate:
    """The floating-point error policy of each phase that evaluates F: numpy
    ignores overflow, invalid and divide, and the phase's finite-value tests
    decide.  A fresh errstate per call: numpy 2 enters an instance once."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def declared_periods(periods, n: int) -> np.ndarray | None:
    """A declared period vector: None, or n finite positive floats, read-only."""
    if periods is None:
        return None
    vec = np.array(periods, dtype=np.float64, ndmin=1)
    if vec.shape != (n,) or not np.all(np.isfinite(vec) & (vec > 0.0)):
        raise ValueError(f"need {n} positive periods, got {vec}")
    vec.setflags(write=False)
    return vec


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

    def sample(self, x: np.ndarray):
        """F and grad F at x, and the function (i, y) -> F(y) for points y
        that differ from x in component i alone; here each is a full call."""
        return self.value(x), self.gradient(x), lambda i, y: self.value(y)


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
        self.periods = declared_periods(periods, self.amplitudes.size)
        if np.any(self.amplitudes <= 0.0):
            raise ValueError("amplitudes must be positive")
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
        self._rates = self.amplitudes * (2.0 * np.pi / self.periods)
        g_max = (1.0 + abs(modulation)) * float(_row_norms(self._rates))
        self.growth = GrowthEnvelope(m=0.0, g_max=g_max)

    def _time_factor(self, t: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * np.asarray(t)[..., self.mod_axis] / self.mod_extent
        return 1.0 + self.modulation * np.cos(phase)

    def _well(self, factor: np.ndarray, x) -> np.ndarray:
        terms = self.amplitudes * (1.0 - np.cos(2.0 * np.pi * np.asarray(x) / self.periods))
        return self.floor + factor * _component_sum(terms)

    def _slope(self, factor: np.ndarray, x) -> np.ndarray:
        return factor * (self._rates * np.sin(2.0 * np.pi * np.asarray(x) / self.periods))

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
    """F(t, x) = |x - center|^2 / 2 + floor; strictly convex, so not periodic:
    ``periods`` is a periodicity claim, for the checks to falsify."""

    name = "quadratic"

    def __init__(self, center, floor: float = 1.0, p: int = 1, periods=None):
        self.center = np.atleast_1d(np.asarray(center, dtype=np.float64))
        if floor <= 0.0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.n = self.center.size
        self.p = p
        self.floor = float(floor)
        self.periods = declared_periods(periods, self.n)
        self.growth = GrowthEnvelope(m=1.0, g_max=float(_row_norms(self.center)))

    def value(self, t, x):
        d = np.asarray(x) - self.center
        return 0.5 * _component_sum(d * d) + self.floor

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
        self.growth = GrowthEnvelope(m=0.0, g_max=float(_row_norms(forcing.values).max()))

    def _forcing_at(self, t: np.ndarray) -> np.ndarray:
        """f at the nearest nodes; at its own nodes, the forcing, not a copy
        (their shape is compared first, so a sample builds no coordinates)."""
        spec = self.forcing.spec
        if np.shape(t) == spec.nodes + (spec.p,) and t is node_coordinates(spec):
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
        return -_component_sum(f * np.asarray(x))

    @staticmethod
    def _negated(f: np.ndarray, x) -> np.ndarray:
        return -np.broadcast_to(f, np.broadcast_shapes(f.shape, np.asarray(x).shape))


def _finite(quantity: np.ndarray) -> tuple[np.ndarray, int]:
    """Where a per-sample quantity is finite, and how many samples are not."""
    finite = np.isfinite(quantity)
    if finite.all():
        return finite, 0
    return finite, int(np.count_nonzero(~finite.reshape(len(finite), -1).all(axis=1)))


def _counted(detail: str, bad: int) -> str:
    return detail + (f"; {bad} samples not finite" if bad else "")


def check_periodicity(sample: Sample) -> CheckReport:
    """Sampled test of F(t, x + P_i e_i) = F(t, x) for every component i."""
    pot = sample.pot
    if pot.periods is None:
        raise ValueError(f"potential '{pot.name}' declares no periods")
    x, base = sample.x, sample.value
    tol = 1e-9
    dev = np.empty((sample.count, pot.n))
    for i in range(pot.n):
        shifted = x.copy()
        shifted[:, i] += pot.periods[i]
        dev[:, i] = np.abs(sample.moved(i, shifted) - base)
    finite, bad = _finite(dev)
    return CheckReport(
        name="periodicity",
        passed=bad == 0 and bool(np.all(dev <= tol * (1.0 + np.abs(base))[:, np.newaxis])),
        samples=sample.count,
        worst=float(dev.max(where=finite, initial=0.0)),
        threshold=tol,
        detail=_counted("max |F(t,x+P_i e_i) - F(t,x)| over samples and components", bad),
    )


def check_positivity(sample: Sample) -> CheckReport:
    """Sampled test of F(t, x) > 0; reports the minimum sampled value."""
    finite, bad = _finite(sample.value)
    lo = float(sample.value.min(where=finite, initial=math.inf))
    return CheckReport(
        name="positivity",
        passed=bad == 0 and lo > 0.0,
        samples=sample.count,
        worst=lo,
        threshold=0.0,
        detail=_counted("minimum sampled F", bad),
    )


def check_gradient_growth(sample: Sample) -> CheckReport:
    """Sampled test of |grad F(t, x)| <= m |x| + g_max; zero violations pass."""
    env = sample.pot.growth
    if env is None:
        raise ValueError(f"potential '{sample.pot.name}' declares no growth envelope")
    g = _row_norms(sample.gradient)
    allowed = env.m * sample.norm + env.g_max
    margin = g - allowed
    finite, bad = _finite(margin)
    violations = int(np.count_nonzero(finite & (margin > 0.0)))
    return CheckReport(
        name="gradient_growth",
        passed=violations == 0 and bad == 0,
        samples=sample.count,
        worst=float(margin.max(where=finite, initial=-math.inf)),
        threshold=0.0,
        detail=_counted(f"{violations} violations of |grad F| <= m|x| + g_max", bad),
    )


def check_grad_consistency(sample: Sample) -> CheckReport:
    """Central finite-difference probe of the declared gradient."""
    x, grad = sample.x, sample.gradient
    step = 1e-6 * (1.0 + sample.norm)
    fd = np.empty_like(grad)
    for i in range(sample.pot.n):
        hi = x.copy()
        lo = x.copy()
        hi[:, i] += step
        lo[:, i] -= step
        fd[:, i] = (sample.moved(i, hi) - sample.moved(i, lo)) / (2.0 * step)
    rel = np.abs(fd - grad) / (1.0 + np.abs(grad))
    finite, bad = _finite(rel)
    tol = 1e-5
    worst = float(rel.max(where=finite, initial=0.0))
    return CheckReport(
        name="grad_consistency",
        passed=bad == 0 and worst <= tol,
        samples=sample.count,
        worst=worst,
        threshold=tol,
        detail=_counted("max relative gap between gradient and central differences", bad),
    )
