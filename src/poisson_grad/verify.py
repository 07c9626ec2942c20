"""Post-hoc certification of candidate solutions.

Three independent checks can be run against any field: the node-wise
residual of the critical-point equation laplacian(u) = grad F(t, u), the
periodic face matching of an imported closed grid (values and one-sided
difference quotients), and the discrete Wirtinger inequality

    |u - mean(u)|_L2  <=  C_h * |D u|_L2,
    C_h = max_alpha h_alpha / (2 sin(pi / N_alpha)),

whose constant is exact for the forward-difference operator: the lowest
nonzero Fourier mode of the slackest axis achieves equality.  As the grid
is refined C_h converges to max_alpha T_alpha / (2 pi) at rate O(N^-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# action_gradient and node_coordinates are not called here; they stay bound
# in this module because perfbench/spans.py traces them by these names
from .action import GridAction, action_gradient, stacked_diff_norm  # noqa: F401
from .grid import (  # noqa: F401
    Field,
    GridSpec,
    backward_diff,
    forward_diff,
    l2_norm,
    node_coordinates,
    split_mean,
)
from .potential import Potential

__all__ = [
    "ResidualReport",
    "el_residual",
    "BoundaryReport",
    "boundary_check",
    "WirtingerReport",
    "wirtinger_constant",
    "wirtinger_check",
    "Certificate",
    "certify",
]


# the two assemblies were measured to differ by at most 0.6 eps of the
# stencil scale (random fields and DFT-oracle solutions, p = 1, 2,
# N = 16 ... 512), so 16 eps leaves a margin of more than 25
_ASSEMBLY_TOL = 16.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ResidualReport:
    l2: float
    linf: float


def el_residual(u: Field, pot: Potential) -> tuple[Field, ResidualReport]:
    """Residual R = laplacian(u) - grad F(t, u) with L2 and Linf norms.

    The residual is assembled independently of the action's gradient: the
    Laplacian as the backward difference of the forward difference rather
    than the direct stencil, and grad F by a fresh potential evaluation.
    The identity R = -action_gradient(u) is then asserted as a cross-check
    of the two assemblies, to 16 ulp of the size of the terms they sum:
    each assembly rounds in proportion to its stencil terms, about
    4 max|u| / h_alpha^2 per axis, and to grad F, not to the residual,
    which is tiny at a solution.  Both assemblies use one binding of the
    potential to the grid.
    """
    spec = u.spec
    lap = np.zeros_like(u.values)
    for axis in range(spec.p):
        lap += backward_diff(forward_diff(u, axis), axis).values
    act = GridAction(pot, spec)
    grad_f = act.potential_gradient(u.values)
    residual = Field(spec, np.subtract(lap, grad_f, out=lap))
    grad_f_max = float(np.max(np.abs(grad_f)))
    del grad_f  # the second assembly evaluates grad F afresh
    grad = act.gradient(u.values)
    mismatch = float(np.max(np.abs(np.add(grad, residual.values, out=grad), out=grad)))
    u_max = float(np.max(np.abs(u.values)))
    scale = 1.0 + grad_f_max + sum(4.0 * u_max / h**2 for h in spec.spacings)
    if mismatch > _ASSEMBLY_TOL * scale:
        raise RuntimeError(
            f"residual/gradient assemblies disagree: "
            f"{mismatch:.3e} > {_ASSEMBLY_TOL:.3e} * {scale:.3e}"
        )
    return residual, ResidualReport(
        l2=l2_norm(residual), linf=float(np.max(np.abs(residual.values)))
    )


@dataclass(frozen=True)
class BoundaryAxis:
    axis: int
    value_mismatch: float
    quotient_mismatch: float


@dataclass(frozen=True)
class BoundaryReport:
    axes: tuple[BoundaryAxis, ...]
    threshold: float
    passed: bool


def boundary_check(closed: np.ndarray, spec: GridSpec) -> BoundaryReport:
    """Face matching for a closed-grid import (N_alpha + 1 nodes per axis).

    Per axis, reports the worst gap between the two faces' values and
    between the one-sided difference quotients taken at matching offsets:
    the forward quotient leaving the t = 0 face, (u_1 - u_0) / h, against
    its wrap continuation leaving the t = T face, (u_1 - u_N) / h.  For a
    closed export of an internal field both gaps are exactly zero; the
    check has teeth only for externally produced data.  Pass threshold is
    1e-9 * (1 + max |u|).
    """
    arr = np.asarray(closed, dtype=np.float64)
    closed_shape = tuple(N + 1 for N in spec.nodes)
    if spec.n == 1 and arr.shape == closed_shape:
        arr = arr[..., np.newaxis]
    if arr.shape != closed_shape + (spec.n,):
        raise ValueError(
            f"closed grid shape {arr.shape} does not match expected "
            f"{closed_shape + (spec.n,)}"
        )
    tol = 1e-9 * (1.0 + float(np.max(np.abs(arr))))
    axes = []
    passed = True
    for a in range(spec.p):
        h = spec.spacings[a]
        lo = np.take(arr, 0, axis=a)
        hi = np.take(arr, spec.nodes[a], axis=a)
        first = np.take(arr, 1, axis=a)
        value_gap = float(np.max(np.abs(lo - hi)))
        quotient_gap = float(np.max(np.abs((first - lo) / h - (first - hi) / h)))
        axes.append(BoundaryAxis(a, value_gap, quotient_gap))
        passed = passed and value_gap <= tol and quotient_gap <= tol
    return BoundaryReport(axes=tuple(axes), threshold=tol, passed=passed)


@dataclass(frozen=True)
class WirtingerReport:
    lhs: float
    rhs: float
    constant: float
    passed: bool


def wirtinger_constant(spec: GridSpec) -> float:
    """Sharp zero-mean constant max_alpha h_alpha / (2 sin(pi / N_alpha))."""
    return max(
        h / (2.0 * math.sin(math.pi / N)) for h, N in zip(spec.spacings, spec.nodes)
    )


def wirtinger_floor(spec: GridSpec, mean_scale: float) -> float:
    """Absolute allowance for the zero-mean bound: removing the mean leaves
    eps-level residue proportional to its magnitude, so near-constant fields
    carry lhs ~ eps * |mean| * sqrt(Vol) against an exactly zero rhs."""
    return 1e-13 * math.sqrt(spec.volume) * (1.0 + abs(mean_scale))


def wirtinger_check(u: Field) -> WirtingerReport:
    """Check |u - mean(u)| <= C_h |D(u - mean(u))|, with 1e-12 relative slack
    plus the roundoff floor of wirtinger_floor."""
    ubar, tilde = split_mean(u)
    constant = wirtinger_constant(u.spec)
    lhs = l2_norm(tilde)
    rhs = constant * stacked_diff_norm(tilde)
    atol = wirtinger_floor(u.spec, float(np.max(np.abs(ubar))))
    return WirtingerReport(
        lhs=lhs, rhs=rhs, constant=constant, passed=lhs <= rhs * (1.0 + 1e-12) + atol
    )


@dataclass(frozen=True)
class Certificate:
    residual_l2: float
    residual_linf: float
    residual_tol: float
    residual_ok: bool
    wirtinger: WirtingerReport


def certify(u: Field, pot: Potential, residual_tol: float) -> Certificate:
    """Bundle the residual and Wirtinger checks; the face matching of a
    closed import is ``boundary_check``, which needs the closed grid."""
    _, norms = el_residual(u, pot)
    return Certificate(
        residual_l2=norms.l2,
        residual_linf=norms.linf,
        residual_tol=residual_tol,
        residual_ok=norms.l2 <= residual_tol,
        wirtinger=wirtinger_check(u),
    )
