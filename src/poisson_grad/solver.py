"""Action minimization by descent with lattice-shift canonicalization.

The minimizer runs Polak-Ribiere+ nonlinear conjugate gradient with Armijo
backtracking on the discrete action, in a weighted
discrete H1 metric of the paper's direct method: the search direction is
built from the Sobolev gradient z = (diag(c) - laplacian)^-1 G of the L2
gradient G, one DFT pair per iteration (Neuberger's Sobolev gradient).  Its
unit step is admissible at every grid size, where the L2 gradient's step
shrinks like h^2, so the iteration count does not grow as the grid is
refined.  The mass c_i of component i starts at 1 and after each accepted
step s is reset to the Barzilai-Borwein secant curvature of the potential
part along s, clipped below at 1, so stiff potentials (|grad^2 F| >> 1) get
a metric that matches them at no extra evaluation of F.  The stopping test
and the certificate stay the L2 residual |G|.  When the
potential is spatially periodic with periods P_i, the start and each
accepted iterate are canonicalized: integer multiples of P_i are added per
component so the field mean lands in the fundamental cell [0, P_i).  The
shift is a gauge move - it cannot change the action - so descent is
unaffected while the iterate sequence stays bounded; line-search trial
points are priced unshifted, and the solver asserts the gauge invariance
numerically at every shift.

Every accepted iterate is recorded with the quantities needed to audit the
a-priori bounds that make the minimizing sequence bounded: the descent
energy bound (half the squared derivative norm never exceeds the initial
action minus the potential floor), the zero-mean Wirtinger bound, and the
mean-in-cell property.  ``check_minimizing_bounds`` replays those audits
against any report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

# action and action_gradient are not called here; they stay bound in this
# module because perfbench/spans.py traces them by these names
from .action import ActionValue, GridAction, action, action_gradient  # noqa: F401
from .grid import Field, GridSpec, h1_riesz_map
from .grid import _forward, _inner, _node_mean, _norm, _require_finite
from .potential import Potential
from .verify import wirtinger_constant, wirtinger_floor

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "RunReport",
    "BoundResult",
    "BoundAudit",
    "canonicalize",
    "random_init",
    "minimize",
    "check_minimizing_bounds",
]

# statuses: converged | stalled | max_iters | line_search_failed
_MIN_STEP = 1e-16
# relative action decrease that counts as stagnation; below one ulp of
# relative change, so only dead-exact action plateaus stall a run
_TOL_ACTION = 1e-16
# the first step of every line search; the H1 metric makes it admissible
_INITIAL_STEP = 1.0
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5


@dataclass(frozen=True)
class SolverConfig:
    method: str = "ncg"
    max_iters: int = 20000
    tol_residual: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.method != "ncg":
            raise ValueError(f"method must be 'ncg', got {self.method!r}")
        integral = isinstance(self.max_iters, numbers.Integral)
        if not integral or isinstance(self.max_iters, bool):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        tol = self.tol_residual
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol_residual must be finite and positive, got {tol!r}")


@dataclass(frozen=True)
class IterationRecord:
    index: int
    action_total: float
    action_kinetic: float
    action_potential: float
    residual_l2: float
    du_norm_sq: float
    mean: tuple[float, ...]
    tilde_norm: float
    step: float
    shifts: tuple[int, ...] | None
    gauge_dev: float | None
    h1_mass: tuple[float, ...]  # the metric's mass c for the step leaving here

    def to_dict(self) -> dict:
        """The fields by name, shallow, with ``index`` keyed as ``iter``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["iter"] = out.pop("index")
        return out


@dataclass
class RunReport:
    status: str
    iterations: list[IterationRecord] = field(default_factory=list)
    periods: tuple[float, ...] | None = None

    @property
    def initial_action(self) -> float:
        return self.iterations[0].action_total

    @property
    def final(self) -> IterationRecord:
        return self.iterations[-1]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def canonicalize(u: Field, periods) -> tuple[Field, np.ndarray]:
    """Shift each component by an integer multiple of its period so the
    mean lands in [0, P_i); returns the shifted field and the integers."""
    periods = _checked_periods(periods, u.spec.n)
    shifts = _lattice_shifts(u.values, u.spec, periods)
    if not shifts.any():
        return u, shifts
    return u.shifted(shifts * periods), shifts


def _checked_periods(periods, n: int) -> np.ndarray:
    if periods is None:
        raise ValueError("canonicalize needs the potential's period vector")
    periods = np.atleast_1d(np.asarray(periods, dtype=np.float64))
    if periods.size != n or np.any(periods <= 0.0):
        raise ValueError(f"need {n} positive periods, got {periods}")
    return periods


def _lattice_shifts(values: np.ndarray, spec: GridSpec, periods: np.ndarray) -> np.ndarray:
    return (-np.floor(_node_mean(values, spec) / periods)).astype(np.int64)


def random_init(spec: GridSpec, periods=None, seed: int = 0) -> Field:
    """Seeded random start: uniform over the fundamental cell when periods
    exist, otherwise standard normal scaled by 0.1."""
    rng = np.random.default_rng(seed)
    if periods is not None:
        periods = np.atleast_1d(np.asarray(periods, dtype=np.float64))
        return Field(spec, rng.uniform(0.0, 1.0, spec.shape) * periods)
    return Field(spec, 0.1 * rng.standard_normal(spec.shape))


# The descent runs on node value arrays, not Fields: each array that a
# Field would hold is checked for finiteness where the Field would be built.

def _record(
    spec: GridSpec,
    index: int,
    a: ActionValue,
    residual: float,
    u: np.ndarray,
    step: float,
    shifts,
    gauge_dev,
    mass: np.ndarray,
) -> IterationRecord:
    ubar = _node_mean(u, spec)
    tilde = u - ubar
    _require_finite(tilde)
    return IterationRecord(
        index=index,
        action_total=a.total,
        action_kinetic=a.kinetic,
        action_potential=a.potential,
        residual_l2=residual,
        du_norm_sq=2.0 * a.kinetic,
        mean=tuple(float(c) for c in ubar),
        tilde_norm=_norm(spec, tilde),
        step=step,
        shifts=None if shifts is None else tuple(int(k) for k in shifts),
        gauge_dev=gauge_dev,
        h1_mass=tuple(float(c) for c in mass),
    )


def _price_trial(act: GridAction, values: np.ndarray) -> tuple[np.ndarray, ActionValue] | None:
    """Price a trial point; None when its values or their differences
    overflow or F fails there, which the line search rejects like an Armijo
    failure."""
    if not np.isfinite(values).all():
        return None
    try:
        return values, act.value(values)
    except ValueError:
        return None


def _secant_mass(
    spec: GridSpec, mass: np.ndarray, dgrad: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Per-component secant curvature of the potential part along the step s,
    clipped below at 1: (<dG, s>_i - sum_alpha |D_alpha s|^2_i) / <s, s>_i,
    where dG is the change of the L2 gradient over the step, since
    dG = -laplacian(s) + d(grad F) and <-laplacian(s), s> = sum |D s|^2.  A
    component that did not move, or whose quotient is not finite, keeps
    its mass."""
    node_axes = spec.node_axes
    total = np.add.reduce
    kinetic = sum(
        total(d * d, axis=node_axes)
        for d in (_forward(s, a, h) for a, h in enumerate(spec.spacings))
    )
    moved = total(s * s, axis=node_axes)
    still = moved == 0.0
    curvature = (total(dgrad * s, axis=node_axes) - kinetic) / np.where(still, 1.0, moved)
    keep = still | ~np.isfinite(curvature)
    return np.where(keep, mass, np.maximum(1.0, curvature))


def _canonical(
    act: GridAction, u: np.ndarray, priced: ActionValue, periods: np.ndarray | None
) -> tuple[np.ndarray, ActionValue, np.ndarray | None, float | None]:
    """Canonicalize an accepted point whose action is ``priced``, as
    ``canonicalize`` does with checked ``periods``; a shifted field is
    priced again and must keep that action (gauge invariance)."""
    if periods is None:
        return u, priced, None, None
    shifts = _lattice_shifts(u, act.spec, periods)
    if not shifts.any():
        return u, priced, shifts, None
    shifted = u + shifts * periods
    _require_finite(shifted)
    repriced = act.value(shifted)
    dev = abs(repriced.total - priced.total)
    if dev > 1e-12 * (1.0 + abs(priced.total)):
        raise RuntimeError(
            f"lattice shift changed the action by {dev:.3e}; "
            "potential is not periodic with the declared periods"
        )
    return shifted, repriced, shifts, dev


def minimize(
    pot: Potential, init: Field, cfg: SolverConfig
) -> tuple[Field, RunReport]:
    """Descend the action from ``init``; returns the final field and the
    full per-iteration report.

    The search runs along the preconditioned Polak-Ribiere+ direction
    d = -z + beta d_prev, with z = (diag(c) - laplacian)^-1 G the Sobolev
    gradient and beta = max(0, <G, z - z_prev> / <G_prev, z_prev>); the
    first iteration, and any whose d is not a descent direction, search
    along -z.  Inner products are discrete L2, so the Armijo slope is
    <G, d>.  The mass c has one entry per component and starts at 1; after
    each accepted step s (taken unshifted: the lattice shift is a constant
    and grad F is periodic) it is set to
    c_i = max(1, (<G_k - G_{k-1}, s>_i - sum_alpha |D_alpha s|^2_i) / <s, s>_i),
    the Barzilai-Borwein secant curvature of the potential part.  A
    component with <s, s>_i = 0 or a non-finite quotient keeps its c_i.
    This costs p stencils and three per-component sums per iteration and no
    evaluation of F; each record's ``h1_mass`` is the c used for the step
    leaving that iterate.

    Statuses: ``converged`` means the L2 residual norm reached
    cfg.tol_residual; ``stalled`` means five consecutive accepted steps each
    improved the action by less than 1e-16 in relative terms before
    the residual test was met (near a strictly positive minimum the action
    gap falls below float resolution around residual ~ sqrt(eps), so tight
    residual targets on such problems end here); ``max_iters`` and
    ``line_search_failed`` are what they say.  A trial point whose values or
    differences overflow or where F leaves its domain counts as an Armijo
    rejection; a PotentialDomainError at the initial point or in the
    gradient at an accepted point still propagates.  Whenever the potential
    declares periods, the initial point and every accepted iterate are
    canonicalized; trial points are priced as they are, without a shift.

    The potential is bound to the grid once per call (``GridAction``), and
    the periods are checked once, where the start is canonicalized.
    """
    spec = init.spec
    act = GridAction(pot, spec)
    a_init = act.value(init.values)
    periods = None if pot.periods is None else _checked_periods(pot.periods, spec.n)
    u, a_val, shifts0, gauge0 = _canonical(act, init.values, a_init, periods)
    grad = act.gradient(u)
    residual = _norm(spec, grad)

    report = RunReport(
        status="max_iters",
        periods=None if periods is None else tuple(float(x) for x in periods),
    )
    mass = np.ones(spec.n)
    report.iterations.append(
        _record(spec, 0, a_val, residual, u, 0.0, shifts0, gauge0, mass)
    )
    if residual <= cfg.tol_residual:
        report.status = "converged"
        return Field(spec, u), report

    riesz = h1_riesz_map(spec)
    z = riesz(grad, mass)
    grad_z = _inner(spec, grad, z)
    direction: np.ndarray | None = None
    stagnant = 0

    # a trial that overflows or leaves F's domain is rejected, so numpy's
    # warnings about it would only report a rejection; failures at accepted
    # points still raise, from the finiteness checks and the potential
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, cfg.max_iters + 1):
            if direction is not None:
                beta = max(0.0, _inner(spec, grad, z - z_prev) / grad_z_prev)
                cand_dir = -z + beta * direction
                slope = _inner(spec, grad, cand_dir)
                if slope >= 0.0:  # not a descent direction: restart steepest
                    cand_dir = -z
                    slope = -grad_z
            else:
                cand_dir = -z
                slope = -grad_z

            step = _INITIAL_STEP
            accepted = None
            while step >= _MIN_STEP:
                trial = _price_trial(act, u + step * cand_dir)
                armijo = a_val.total + _ARMIJO_C1 * step * slope
                if trial is not None and trial[1].total <= armijo:
                    accepted = trial
                    break
                step *= _BACKTRACK_FACTOR
            if accepted is None:
                report.status = "line_search_failed"
                return Field(spec, u), report

            u, a_new, shifts, gauge = _canonical(act, *accepted, periods)
            scale = max(abs(a_val.total), abs(a_new.total))
            rel_decrease = (a_val.total - a_new.total) / scale if scale > 0.0 else 0.0
            z_prev, grad_z_prev = z, grad_z
            direction = cand_dir
            a_val = a_new
            grad_prev = grad
            grad = act.gradient(u)
            mass = _secant_mass(spec, mass, grad - grad_prev, step * cand_dir)
            z = riesz(grad, mass)
            grad_z = _inner(spec, grad, z)
            residual = _norm(spec, grad)
            report.iterations.append(
                _record(spec, it, a_val, residual, u, step, shifts, gauge, mass)
            )

            if residual <= cfg.tol_residual:
                report.status = "converged"
                return Field(spec, u), report
            stagnant = stagnant + 1 if rel_decrease < _TOL_ACTION else 0
            if stagnant >= 5:
                report.status = "stalled"
                return Field(spec, u), report

    report.status = "max_iters"
    return Field(spec, u), report


@dataclass(frozen=True)
class BoundResult:
    passed: bool
    worst: float  # worst signed margin; <= 0 when the bound holds
    note: str = ""


@dataclass(frozen=True)
class BoundAudit:
    energy: BoundResult
    wirtinger: BoundResult
    mean_cell: BoundResult
    f_floor: float

    @property
    def all_passed(self) -> bool:
        return self.energy.passed and self.wirtinger.passed and self.mean_cell.passed


def check_minimizing_bounds(
    report: RunReport, spec: GridSpec, f_floor: float = 0.0
) -> BoundAudit:
    """Audit the recorded iterates against the a-priori descent bounds.

    (a) energy: 1/2 |du_k|^2 <= phi(u_0) - Vol * f_floor for every iterate,
        with f_floor a certified lower bound for F (0 when positivity holds);
    (b) wirtinger: |u_k - mean| <= C_h |du_k| with the sharp discrete constant;
    (c) mean_cell: each post-shift mean sits inside [0, P_i].

    Margins are reported signed; 1e-12 relative slack absorbs roundoff.
    """
    if not report.iterations:
        raise ValueError("report has no recorded iterations")
    c2 = report.initial_action - spec.volume * f_floor

    worst_energy = max(0.5 * r.du_norm_sq - c2 for r in report.iterations)
    energy = BoundResult(
        passed=worst_energy <= 1e-12 * (1.0 + abs(c2)),
        worst=worst_energy,
        note=f"bound {c2!r} from initial action with floor {f_floor!r}",
    )

    c_h = wirtinger_constant(spec)
    worst_w = -math.inf
    ok_w = True
    for r in report.iterations:
        rhs = c_h * math.sqrt(max(r.du_norm_sq, 0.0))
        atol = wirtinger_floor(spec, max(abs(m) for m in r.mean))
        worst_w = max(worst_w, r.tilde_norm - rhs)
        ok_w = ok_w and r.tilde_norm <= rhs * (1.0 + 1e-12) + atol
    wirtinger = BoundResult(passed=ok_w, worst=worst_w, note=f"constant {c_h!r}")

    if report.periods is None:
        mean_cell = BoundResult(passed=True, worst=-math.inf, note="no periods declared")
    else:
        periods = np.asarray(report.periods)
        worst_m = -math.inf
        ok_m = True
        for r in report.iterations:
            if r.shifts is None:
                continue
            m = np.asarray(r.mean)
            margin = float(np.max(np.maximum(-m, m - periods)))
            worst_m = max(worst_m, margin)
            ok_m = ok_m and bool(
                np.all(m >= -1e-12 * periods) and np.all(m <= periods * (1.0 + 1e-12))
            )
        mean_cell = BoundResult(passed=ok_m, worst=worst_m, note="post-shift means")

    return BoundAudit(
        energy=energy, wirtinger=wirtinger, mean_cell=mean_cell, f_floor=f_floor
    )
