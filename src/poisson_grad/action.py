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

# forward_diff and laplacian are not called here; they stay bound in this
# module because perfbench/spans.py traces them by these names
from .grid import Field, GridSpec, forward_diff, l2_norm, laplacian, node_coordinates  # noqa: F401
from .grid import (
    _component_sum, _difference, _laplacian, _norm, _reduce, _require_finite, _row_norms,
)
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

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


class PotentialDomainError(ValueError):
    """Potential evaluation failed at a specific grid node."""

    def __init__(self, message: str, node_index: tuple[int, ...], coords: tuple[float, ...]):
        self.node_index = node_index
        self.coords = coords
        super().__init__(f"{message} at node {node_index}, t = {coords}")


class GridAction:
    """The action of a potential on one grid, and its L2 gradient, as
    functions of node values ``x`` of shape ``spec.shape``.

    The potential is bound once, at the grid's node coordinates
    (``Potential.bind``).  The stencils are the ones ``forward_diff`` and
    ``laplacian`` use.  This class alone names where F or grad F fails on a
    grid: PotentialDomainError carries the first node where the potential
    raises or grad F is not finite, or, once the action's potential sum is
    not finite, where F is not (node 0 when only the sum overflowed).  A
    kinetic sum or a gradient that is not finite otherwise raises the
    ValueError a Field raises; a potential of another p or n, ValueError.
    """

    def __init__(self, pot: Potential, spec: GridSpec):
        if (pot.p, pot.n) != (spec.p, spec.n):
            raise ValueError(
                f"potential '{pot.name}' has p = {pot.p}, n = {pot.n}, "
                f"but the grid has p = {spec.p}, n = {spec.n}"
            )
        self.spec = spec
        self.potential = pot.bind(node_coordinates(spec))

    def _at(self, message: str, element: int | None) -> PotentialDomainError:
        """The error at the node of flat index ``element``, node 0 for None."""
        idx = np.unravel_index(element or 0, self.spec.nodes)
        coords = tuple(float(t) for t in node_coordinates(self.spec)[idx])
        return PotentialDomainError(message, tuple(int(k) for k in idx), coords)

    def _located(self, fn, x: np.ndarray) -> np.ndarray:
        try:
            return fn(x)
        except ValueError as err:
            raise self._at(str(err), getattr(err, "element", None)) from err

    def _not_finite(self, name: str, nodes: np.ndarray) -> PotentialDomainError:
        """The error at the first node where ``nodes`` is not finite, or node 0."""
        finite = np.isfinite(nodes).reshape(self.spec.node_count, -1).all(axis=1)
        return self._at(f"{name} is not finite", int(finite.argmin()))

    def value(self, x: np.ndarray) -> ActionValue:
        nodes = self._located(self.potential.value, x)
        d = np.empty(x.shape)
        for axis, h in enumerate(self.spec.spacings):
            _difference(x, axis, h, 1, d)
            squares = _component_sum(np.multiply(d, d, d))
            # the first axis's sum, of squares >= +0, is its sum from 0.0
            kin_density = np.add(kin_density, squares, squares) if axis else squares
        kinetic = self.spec.cell_volume * _reduce(np.multiply(kin_density, 0.5, kin_density))
        if not math.isfinite(kinetic):
            raise ValueError("field contains non-finite values")
        potential = self.spec.cell_volume * _reduce(nodes)
        if not math.isfinite(potential):
            raise self._not_finite("F", nodes)
        return ActionValue(kinetic=kinetic, potential=potential)

    def _finite_grad_f(self, grad_f: np.ndarray) -> np.ndarray:
        if not np.isfinite(grad_f).all():
            raise self._not_finite("grad F", grad_f)
        return grad_f

    def potential_gradient(self, x: np.ndarray) -> np.ndarray:
        """grad F(t, x) at the nodes, all finite."""
        return self._finite_grad_f(self._located(self.potential.gradient, x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """-laplacian(x) + grad F(t, x), a new array; with grad F finite, it
        is not finite where the Laplacian is not.  The Laplacian is finished,
        and its working space freed, before grad F is evaluated.  A grad F
        that is not finite leaves the sum not finite, so grad F is tested
        only where the sum is not finite."""
        lap = _laplacian(x, self.spec.spacings)
        grad_f = self._located(self.potential.gradient, x)
        grad = np.subtract(grad_f, lap, out=lap)
        if not np.isfinite(grad).all():
            self._finite_grad_f(grad_f)
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
    """L2 norm of the stacked forward differences, the norm of the axes' |D_alpha u|,
    each finite as a Field's values are, squared in one buffer: an axis whose
    squares overflow is differenced again for ``_norm``'s scaled sum."""
    spec = u.spec
    d = np.empty(spec.shape)
    norms = np.empty(spec.p)
    for axis, h in enumerate(spec.spacings):
        _require_finite(_difference(u.values, axis, h, 1, d))
        norms[axis] = _norm(spec, d, out=d)
        if norms[axis] == math.inf:
            norms[axis] = _norm(spec, _difference(u.values, axis, h, 1, d))
    return float(_row_norms(norms))


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
    ldiff = l2_norm(diff)
    rhs = (
        0.5 * (stacked_diff_norm(u) + stacked_diff_norm(v)) * stacked_diff_norm(diff)
        + (env.m * l2_norm(v) + env.g_max * math.sqrt(u.spec.volume)) * ldiff
        + env.m * ldiff**2
    )
    return ContinuityBound(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-12))
