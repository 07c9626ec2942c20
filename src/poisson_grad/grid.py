"""Periodic multi-time grids, fields, and discrete calculus.

The domain is the flat torus [0, T^1) x ... x [0, T^p) sampled on a uniform
lattice with N_alpha nodes per axis; fields map lattice nodes to R^n.  Node
N_alpha is identified with node 0, so every operator wraps indices modulo
N_alpha and the periodic face conditions hold by construction instead of
being enforced through ghost layers.

All reductions run in a fixed lexicographic order (numpy's pairwise tree
sum over C-contiguous data), which keeps norms and reports bit-stable
across reruns of the same configuration.  Fields are immutable values and
every operation is a pure function, so everything here can be shared and
called across threads freely.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "lattice_coordinates",
    "node_coordinates",
    "l2_inner",
    "l2_norm",
    "h1_inner",
    "h1_norm",
    "forward_diff",
    "backward_diff",
    "laplacian",
    "laplacian_symbol",
    "h1_riesz_map",
    "mean",
    "split_mean",
    "solve_linear_poisson",
]


def _reduce(values: np.ndarray) -> float:
    # Single choke point for summation order: lexicographic, pairwise.
    return float(np.sum(np.ascontiguousarray(values), dtype=np.float64))


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic lattice on a p-dimensional box with R^n node values.

    Parameters
    ----------
    extents : tuple of float
        Period lengths T^alpha, all strictly positive.
    nodes : tuple of int
        Node counts N^alpha per axis, each at least 3.  Node coordinates are
        t^alpha_k = k * h_alpha with h_alpha = T^alpha / N^alpha.
    n : int
        Number of field components.
    """

    extents: tuple[float, ...]
    nodes: tuple[int, ...]
    n: int = 1

    def __post_init__(self) -> None:
        extents = tuple(float(t) for t in self.extents)
        for count in (*self.nodes, self.n):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"node and component counts must be integers, got {count!r}")
        nodes = tuple(int(k) for k in self.nodes)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "nodes", nodes)
        if not extents:
            raise ValueError("grid needs at least one time axis")
        if len(nodes) != len(extents):
            raise ValueError(
                f"got {len(extents)} extents but {len(nodes)} node counts"
            )
        if any(not math.isfinite(t) or t <= 0.0 for t in extents):
            raise ValueError(f"extents must be positive and finite: {extents}")
        if any(k < 3 for k in nodes):
            raise ValueError(f"every axis needs at least 3 nodes: {nodes}")
        if int(self.n) < 1:
            raise ValueError(f"component count must be >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def p(self) -> int:
        return len(self.extents)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(t / k for t, k in zip(self.extents, self.nodes))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    @property
    def volume(self) -> float:
        return math.prod(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes + (self.n,)

    @property
    def node_count(self) -> int:
        return math.prod(self.nodes)

    @cached_property
    def _node_coordinates(self) -> np.ndarray:
        coords = lattice_coordinates(self.spacings, self.nodes)
        coords.setflags(write=False)
        return coords


class Field:
    """Immutable grid sample of a map u: nodes -> R^n.

    ``values`` has shape ``(*spec.nodes, spec.n)`` and is read-only; for
    n = 1 a plain ``(*spec.nodes,)`` array is accepted and gets a trailing
    component axis.  Two fields interoperate only on identical grids.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if spec.n == 1 and arr.shape == spec.nodes:
            arr = arr[..., np.newaxis]
        if arr.shape != spec.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match grid shape {spec.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.spec = spec
        self.values = arr

    @classmethod
    def zeros(cls, spec: GridSpec) -> "Field":
        return cls(spec, np.zeros(spec.shape))

    @classmethod
    def constant(cls, spec: GridSpec, value) -> "Field":
        vec = np.broadcast_to(np.asarray(value, dtype=np.float64), (spec.n,))
        return cls(spec, np.broadcast_to(vec, spec.shape).copy())

    def shifted(self, offset) -> "Field":
        """Field with a constant vector added to every node value."""
        vec = np.broadcast_to(np.asarray(offset, dtype=np.float64), (self.spec.n,))
        return Field(self.spec, self.values + vec)

    def closed_values(self) -> np.ndarray:
        """Values with the wrap faces duplicated: N_alpha + 1 nodes per axis."""
        pad = [(0, 1)] * self.spec.p + [(0, 0)]
        return np.pad(self.values, pad, mode="wrap")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Field(nodes={self.spec.nodes}, n={self.spec.n})"


def lattice_coordinates(spacings, shape) -> np.ndarray:
    """Coordinates t^alpha_k = k * h_alpha for 0 <= k < shape[alpha].

    Returns an array of shape ``(*shape, p)``.  ``shape`` is ``spec.nodes``
    for the lattice itself or ``N_alpha + 1`` per axis for the closed form,
    whose extra node on each axis is the wrap face.
    """
    axes = [h * np.arange(k) for h, k in zip(spacings, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def node_coordinates(spec: GridSpec) -> np.ndarray:
    """Node coordinate array t^alpha_k = k * h_alpha, shape ``(*nodes, p)``.

    Built on the first call for a GridSpec and returned read-only to every
    later call, so the potential evaluations of a solve share one array.
    """
    return spec._node_coordinates


def _require_same_spec(u: Field, v: Field) -> None:
    if u.spec != v.spec:
        raise ValueError(
            f"fields live on different grids: {u.spec} vs {v.spec}"
        )


def l2_inner(u: Field, v: Field) -> float:
    """Discrete L2 pairing: cell volume times the node sum of (u, v)."""
    _require_same_spec(u, v)
    return u.spec.cell_volume * _reduce(u.values * v.values)


def l2_norm(u: Field) -> float:
    return math.sqrt(max(l2_inner(u, u), 0.0))


def h1_inner(u: Field, v: Field) -> float:
    """L2 pairing of values plus L2 pairings of all forward differences."""
    _require_same_spec(u, v)
    total = l2_inner(u, v)
    for axis in range(u.spec.p):
        total += l2_inner(forward_diff(u, axis), forward_diff(v, axis))
    return total


def h1_norm(u: Field) -> float:
    return math.sqrt(max(h1_inner(u, u), 0.0))


def _neighbor(values: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Values at node k + step * e_axis, wrapping periodically, for step = +-1:
    np.roll(values, -step, axis) from two slice copies."""
    head = (slice(None),) * axis
    return np.concatenate(
        (values[head + (slice(step, None),)], values[head + (slice(None, step),)]), axis=axis
    )


def forward_diff(u: Field, axis: int) -> Field:
    """Periodic forward difference (u(k + e_axis) - u(k)) / h_axis."""
    spec = u.spec
    if not 0 <= axis < spec.p:
        raise ValueError(f"axis {axis} out of range for {spec.p} time axes")
    h = spec.spacings[axis]
    return Field(spec, (_neighbor(u.values, axis, 1) - u.values) / h)


def backward_diff(u: Field, axis: int) -> Field:
    """Periodic backward difference (u(k) - u(k - e_axis)) / h_axis."""
    spec = u.spec
    if not 0 <= axis < spec.p:
        raise ValueError(f"axis {axis} out of range for {spec.p} time axes")
    h = spec.spacings[axis]
    return Field(spec, (u.values - _neighbor(u.values, axis, -1)) / h)


def laplacian(u: Field) -> Field:
    """Standard (2p+1)-point periodic stencil, sum over axes of
    (u(k+e) - 2 u(k) + u(k-e)) / h^2."""
    spec = u.spec
    out = np.zeros_like(u.values)
    for axis in range(spec.p):
        h2 = spec.spacings[axis] ** 2
        out += (
            _neighbor(u.values, axis, 1)
            - 2.0 * u.values
            + _neighbor(u.values, axis, -1)
        ) / h2
    return Field(spec, out)


def mean(u: Field) -> np.ndarray:
    """Domain average per component, shape (n,)."""
    return u.values.mean(axis=tuple(range(u.spec.p)))


def split_mean(u: Field) -> tuple[np.ndarray, Field]:
    """Decompose u into its mean vector and the zero-mean remainder."""
    ubar = mean(u)
    return ubar, Field(u.spec, u.values - ubar)


def laplacian_symbol(spec: GridSpec) -> np.ndarray:
    """DFT eigenvalues of the stencil Laplacian, shape ``spec.nodes``.

    The mode exp(2*pi*i*kappa.k/N) is an exact eigenvector with eigenvalue
    -sum_alpha (2 sin(pi kappa_alpha / N_alpha) / h_alpha)^2.
    """
    lam = np.zeros(spec.nodes)
    for axis, (count, h) in enumerate(zip(spec.nodes, spec.spacings)):
        kappa = np.arange(count)
        lam_axis = -((2.0 * np.sin(np.pi * kappa / count) / h) ** 2)
        shape = [1] * spec.p
        shape[axis] = count
        lam = lam + lam_axis.reshape(shape)
    return lam


def h1_riesz_map(spec: GridSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The map G -> (I - laplacian)^-1 G on node values of shape ``spec.shape``.

    Since the stencil Laplacian is the backward difference of the forward
    difference, h1_inner(z, v) = l2_inner(G, v) for every v exactly when
    (I - laplacian) z = G: the map turns an L2 gradient into the gradient
    in the discrete H1 product.  It is diagonal in the DFT basis, with
    multiplier 1 / (1 - laplacian_symbol) in (0, 1]; the zero mode's
    multiplier is 1, so the mean passes through unchanged.  The divisor is
    built once per call of this function, so a solve builds the map once.
    """
    divisor = (1.0 - laplacian_symbol(spec))[..., np.newaxis]
    node_axes = tuple(range(spec.p))

    def riesz(values: np.ndarray) -> np.ndarray:
        zhat = np.fft.fftn(values, axes=node_axes) / divisor
        return np.real(np.fft.ifftn(zhat, axes=node_axes))

    return riesz


def solve_linear_poisson(f: Field) -> Field:
    """Solve laplacian(u) = f for the unique zero-mean u by DFT.

    Oracle for manufactured solutions: the right-hand side must have zero
    mean per component (within 1e-10 times its L2 norm), otherwise no
    periodic solution exists and a ValueError is raised.
    """
    spec = f.spec
    fbar = mean(f)
    if np.any(np.abs(fbar) > 1e-10 * l2_norm(f)):
        raise ValueError(
            f"right-hand side must have zero mean per component, got {fbar}"
        )
    lam = laplacian_symbol(spec)
    lam[(0,) * spec.p] = 1.0  # guard the zero mode; its coefficient is pinned below
    node_axes = tuple(range(spec.p))
    fhat = np.fft.fftn(f.values, axes=node_axes)
    uhat = fhat / lam[..., np.newaxis]
    uhat[(0,) * spec.p] = 0.0
    return Field(spec, np.real(np.fft.ifftn(uhat, axes=node_axes)))
