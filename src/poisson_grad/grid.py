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
    "lattice_axes",
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
    # Single choke point for summation order: lexicographic, pairwise.  The
    # ufunc's own reduce is what np.sum calls, minus its Python dispatch.
    return float(np.add.reduce(np.ascontiguousarray(values), axis=None, dtype=np.float64))


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite values")


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

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(t / k for t, k in zip(self.extents, self.nodes))

    @cached_property
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
    def node_axes(self) -> tuple[int, ...]:
        return tuple(range(self.p))

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
        _require_finite(arr)
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


def lattice_axes(spacings, shape) -> list[np.ndarray]:
    """Coordinates t^alpha_k = k * h_alpha, 0 <= k < shape[alpha], one vector
    per axis; ``shape`` is ``spec.nodes``, or ``N_alpha + 1`` per axis for the
    closed form, whose extra node on each axis is the wrap face."""
    return [h * np.arange(k) for h, k in zip(spacings, shape)]


def lattice_coordinates(spacings, shape) -> np.ndarray:
    """The nodes of ``lattice_axes`` as one ``(*shape, p)`` array, in node order."""
    return np.stack(np.meshgrid(*lattice_axes(spacings, shape), indexing="ij"), axis=-1)


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
    return _inner(u.spec, u.values, v.values)


def l2_norm(u: Field) -> float:
    return _norm(u.spec, u.values)


def _inner(spec: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    return spec.cell_volume * _reduce(a * b)


def _norm(spec: GridSpec, a: np.ndarray) -> float:
    return math.sqrt(max(_inner(spec, a, a), 0.0))


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
    return Field(spec, _forward(u.values, axis, spec.spacings[axis]))


def _forward(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (_neighbor(values, axis, 1) - values) / h


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
    return Field(u.spec, _laplacian(u.values, u.spec.spacings))


def _laplacian(values: np.ndarray, spacings) -> np.ndarray:
    out = np.zeros(values.shape)
    for axis, h in enumerate(spacings):
        out += (_neighbor(values, axis, 1) - 2.0 * values + _neighbor(values, axis, -1)) / h**2
    return out


def mean(u: Field) -> np.ndarray:
    """Domain average per component, shape (n,)."""
    return _node_mean(u.values, u.spec)


def _node_mean(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    # np.mean's own sum and division by the node count, minus its dispatch
    return np.add.reduce(values, axis=spec.node_axes) / spec.node_count


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
        lam += lam_axis.reshape(shape)
    return lam


def _spectral(values: np.ndarray, axes, divide) -> np.ndarray:
    """The real part of ifftn(divide(fftn(values))) over ``axes``, where
    ``divide`` works on the spectrum in place.  The transforms run one axis
    at a time, last axis first, which is what fftn and ifftn do, and each
    spectrum replaces the one before it, so at most two complex copies of
    ``values`` are alive."""
    backwards = tuple(reversed(axes))
    for axis in backwards:
        values = np.fft.fft(values, axis=axis)
    divide(values)
    for axis in backwards:
        values = np.fft.ifft(values, axis=axis)
    return values.real


def h1_riesz_map(spec: GridSpec) -> Callable[..., np.ndarray]:
    """The map (G, c) -> (diag(c) - laplacian)^-1 G on node values of shape
    ``spec.shape``, with one mass c_i > 0 per component (default 1).

    Since the stencil Laplacian is the backward difference of the forward
    difference, c_i <z_i, v_i> + <D z_i, D v_i> = <G_i, v_i> for every v
    exactly when (c_i - laplacian) z_i = G_i: the map turns an L2 gradient
    into the gradient in the discrete H1 product weighted by c, a Sobolev
    gradient whose mass the solver matches to the potential's curvature.
    It is diagonal in the DFT basis, with multiplier 1 / (c_i -
    laplacian_symbol); at c = 1 it is the unweighted H1 map and the zero
    mode passes the mean through unchanged.  The symbol is built once per
    call of this function, so a solve builds it once; at c = 1 the divisor
    c + (-symbol) is bit for bit 1 - symbol.
    """
    stiffness = -laplacian_symbol(spec)[..., np.newaxis]
    axes = spec.node_axes

    def riesz(values: np.ndarray, mass=1.0) -> np.ndarray:
        return _spectral(values, axes, lambda s: np.divide(s, mass + stiffness, out=s))

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
    zero = (0,) * spec.p

    def divide(uhat: np.ndarray) -> None:
        lam = laplacian_symbol(spec)
        lam[zero] = 1.0  # guard the zero mode; its coefficient is pinned below
        uhat /= lam[..., np.newaxis]
        uhat[zero] = 0.0

    return Field(spec, _spectral(f.values, spec.node_axes, divide))
