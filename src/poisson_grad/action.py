"""Discrete action functional and its exact gradient field.

For a field u on a periodic grid and a potential F the action is

    phi(u) = cell_volume * sum_k [ 1/2 sum_alpha |D_alpha u(k)|^2 + F(t_k, u(k)) ]

with D_alpha the periodic forward difference, i.e. the periodic rectangle
rule applied to the Dirichlet-plus-potential density.  Because the forward
difference pairs with the backward difference under the discrete L2 product,
the L2 gradient of phi is exactly

    G(k) = -laplacian(u)(k) + grad_x F(t_k, u(k)),

so G = 0 is literally the discrete critical-point equation
laplacian(u) = grad F(t, u): minimizing the action and solving the equation
share one discretization with no separate consistency argument.

Both are evaluated by one ``GridAction``, which binds a potential to a grid
once; ``action`` and ``action_gradient`` bind one per call, a solve binds
one for all of its evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# laplacian is not called here; it stays bound in this module because
# perfbench/spans.py traces it by this name
from .grid import Field, GridSpec, forward_diff, l2_norm, laplacian, node_coordinates  # noqa: F401
from .grid import _forward, _laplacian, _reduce, _require_finite
from .potential import GrowthEnvelope, Potential

__all__ = [
    "ActionValue",
    "PotentialDomainError",
    "GridAction",
    "action",
    "action_gradient",
    "stacked_diff_norm",
    "ContinuityBound",
    "continuity_bound",
]


@dataclass(frozen=True)
class ActionValue:
    """Action split into kinetic and potential parts; total is their exact sum."""

    kinetic: float
    potential: float
    total: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", self.kinetic + self.potential)


class PotentialDomainError(ValueError):
    """Potential evaluation failed at a specific grid node."""

    def __init__(self, message: str, node_index: tuple[int, ...], coords: tuple[float, ...]):
        self.node_index = node_index
        self.coords = coords
        super().__init__(f"{message} at node {node_index}, t = {coords}")


def _locate(spec, element: int | None) -> tuple[tuple[int, ...], tuple[float, ...]]:
    if element is None:
        element = 0
    idx = np.unravel_index(element, spec.nodes)
    coords = tuple(float(t) for t in node_coordinates(spec)[idx])
    return tuple(int(k) for k in idx), coords


class GridAction:
    """The action of a potential on one grid, and its L2 gradient, as
    functions of node values ``x`` of shape ``spec.shape``.

    The potential is bound once, at the grid's node coordinates
    (``Potential.bind``).  The stencils are the ones ``forward_diff`` and
    ``laplacian`` use, and each array they would wrap in a Field is checked
    for finiteness there too, raising the same ValueError; ``x`` itself is
    taken as checked.
    A potential that fails raises PotentialDomainError with the node; one
    that declares another p or n than the grid raises ValueError.
    """

    def __init__(self, pot: Potential, spec: GridSpec):
        if (pot.p, pot.n) != (spec.p, spec.n):
            raise ValueError(
                f"potential '{pot.name}' has p = {pot.p}, n = {pot.n}, "
                f"but the grid has p = {spec.p}, n = {spec.n}"
            )
        self.spec = spec
        self.potential = pot.bind(node_coordinates(spec))

    def _located(self, fn, x: np.ndarray) -> np.ndarray:
        try:
            return fn(x)
        except ValueError as err:
            idx, t = _locate(self.spec, getattr(err, "element", None))
            raise PotentialDomainError(str(err), idx, t) from err

    def value(self, x: np.ndarray) -> ActionValue:
        nodes = self._located(self.potential.value, x)
        kin_density = np.zeros(self.spec.nodes)
        for axis, h in enumerate(self.spec.spacings):
            d = _forward(x, axis, h)
            _require_finite(d)
            kin_density += np.add.reduce(d * d, axis=-1)
        kinetic = self.spec.cell_volume * _reduce(0.5 * kin_density)
        potential = self.spec.cell_volume * _reduce(nodes)
        return ActionValue(kinetic=kinetic, potential=potential)

    def potential_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad F(t, x) at the nodes."""
        return self._located(self.potential.gradient, x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """-laplacian(x) + grad F(t, x), a new array."""
        grad_f = self.potential_gradient(x)
        lap = _laplacian(x, self.spec.spacings)
        _require_finite(lap)
        grad = np.subtract(grad_f, lap, out=lap)
        _require_finite(grad)
        return grad


def action(u: Field, pot: Potential) -> ActionValue:
    """Evaluate the action; potential failures carry the offending node."""
    return GridAction(pot, u.spec).value(u.values)


def action_gradient(u: Field, pot: Potential) -> Field:
    """L2 gradient of the action: -laplacian(u) + grad F(t, u).

    For every direction v, l2_inner(action_gradient(u), v) equals the
    directional derivative of the action at u along v; the pairing of the
    kinetic term with D_alpha v is absorbed exactly by discrete integration
    by parts.
    """
    return Field(u.spec, GridAction(pot, u.spec).gradient(u.values))


def stacked_diff_norm(u: Field) -> float:
    """L2 norm of the stacked forward differences, sqrt(sum_alpha |D_alpha u|^2)."""
    total = 0.0
    for axis in range(u.spec.p):
        total += l2_norm(forward_diff(u, axis)) ** 2
    return math.sqrt(total)


@dataclass(frozen=True)
class ContinuityBound:
    lhs: float
    rhs: float
    passed: bool


def continuity_bound(
    u: Field, v: Field, pot: Potential, env: GrowthEnvelope
) -> ContinuityBound:
    """Quantitative continuity estimate for the action.

    Under the gradient growth bound |grad F(t,x)| <= m |x| + g_max, the
    action gap between two fields is controlled by

        |phi(u) - phi(v)| <= 1/2 (|Du| + |Dv|) |Du - Dv|
                             + (m |v| + g_max sqrt(Vol)) |u - v|
                             + m |u - v|^2

    with all norms discrete L2 and D the stacked forward difference.  The
    estimate follows from the segment form of the fundamental theorem of
    calculus node by node plus Cauchy-Schwarz, so it holds exactly on the
    grid whenever the envelope holds; ``passed`` allows 1e-12 relative slack
    for roundoff.
    """
    lhs = abs(action(u, pot).total - action(v, pot).total)
    diff = Field(u.spec, u.values - v.values)
    ndu = stacked_diff_norm(u)
    ndv = stacked_diff_norm(v)
    nddiff = stacked_diff_norm(diff)
    ldiff = l2_norm(diff)
    rhs = (
        0.5 * (ndu + ndv) * nddiff
        + (env.m * l2_norm(v) + env.g_max * math.sqrt(u.spec.volume)) * ldiff
        + env.m * ldiff**2
    )
    return ContinuityBound(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-12))
