import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad import (
    Field,
    GridSpec,
    forward_diff,
    l2_inner,
    l2_norm,
    laplacian,
    mean,
    node_coordinates,
    solve_linear_poisson,
    split_mean,
)
from poisson_grad.grid import (
    _component_sum,
    _difference,
    _laplacian,
    _norm,
    _row_norms,
    backward_diff,
    h1_riesz_map,
    laplacian_symbol,
    lattice_axes,
    lattice_coordinates,
)

from helpers import gaussian_field, peak_transient, random_field


def h1_inner(u, v):
    """The discrete H1 pairing: the L2 pairing of the values plus those of
    the forward differences along every axis."""
    diffs = (l2_inner(forward_diff(u, a), forward_diff(v, a)) for a in range(u.spec.p))
    return l2_inner(u, v) + sum(diffs)


def line(extent=1.0, nodes=4, n=1):
    return GridSpec((extent,), (nodes,), n=n)


def sine_field(spec, freq=1):
    t = node_coordinates(spec)[..., 0]
    return Field(spec, np.sin(2.0 * np.pi * freq * t / spec.extents[0]))


class TestGridSpec:
    def test_derived_quantities(self):
        spec = GridSpec((2.0, 3.0), (4, 6), n=2)
        assert spec.p == 2
        assert spec.spacings == (0.5, 0.5)
        assert spec.cell_volume == 0.25
        assert spec.volume == 6.0
        assert spec.shape == (4, 6, 2)

    def test_closed_lattice_extends_node_coordinates(self):
        spec = GridSpec((0.1, 2.7), (3, 17))
        closed = lattice_coordinates(spec.spacings, (4, 18))
        assert closed.shape == (4, 18, 2)
        npt.assert_array_equal(closed[:3, :17], node_coordinates(spec))
        assert closed[3, 17, 0] == 3 * spec.spacings[0]
        assert closed[3, 17, 1] == 17 * spec.spacings[1]

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize(
        "extents, nodes",
        [
            ((0.7,), (7,)),
            ((2.0 * np.pi,), (13,)),
            ((0.7, 2.0 * np.pi), (3, 7)),
            ((2.0 * np.pi, 0.7, 0.7), (7, 3, 3)),
        ],
    )
    def test_lattice_axes_mesh_to_lattice_coordinates(self, extents, nodes, closed):
        # the field CSV writer prints the axes, the reader checks against the
        # mesh: both must be the per-node t = k * h bit for bit
        spec = GridSpec(extents, nodes)
        shape = tuple(k + closed for k in nodes)
        axes = lattice_axes(spec.spacings, shape)
        assert [a.tolist() for a in axes] == [
            [k * h for k in range(m)] for h, m in zip(spec.spacings, shape)
        ]
        coords = lattice_coordinates(spec.spacings, shape)
        npt.assert_array_equal(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1), coords)
        if not closed:
            npt.assert_array_equal(coords, node_coordinates(spec))

    def test_node_coordinates_built_once_and_read_only(self):
        spec = GridSpec((0.1, 2.7), (3, 17))
        coords = node_coordinates(spec)
        assert node_coordinates(spec) is coords
        assert not coords.flags.writeable
        with pytest.raises(ValueError):
            coords[0, 0, 0] = 1.0
        npt.assert_array_equal(coords, lattice_coordinates(spec.spacings, spec.nodes))
        # the cache is per spec and does not enter equality or hashing
        twin = GridSpec((0.1, 2.7), (3, 17))
        assert twin == spec and hash(twin) == hash(spec)
        npt.assert_array_equal(node_coordinates(twin), coords)

    def test_spacing_times_nodes_recovers_extent(self):
        spec = GridSpec((0.1, 2.7), (3, 17))
        for h, k, t in zip(spec.spacings, spec.nodes, spec.extents):
            assert h * k == pytest.approx(t, rel=1e-15)

    @pytest.mark.parametrize(
        "extents,nodes,n",
        [
            ((0.0,), (4,), 1),
            ((-1.0,), (4,), 1),
            ((1.0,), (2,), 1),
            ((1.0, 1.0), (4,), 1),
            ((1.0,), (4,), 0),
            ((), (), 1),
        ],
    )
    def test_invalid_specs_rejected(self, extents, nodes, n):
        with pytest.raises(ValueError):
            GridSpec(extents, nodes, n=n)

    @pytest.mark.parametrize(
        "nodes,n",
        [((8.5,), 1), ((8.0,), 1), ((True,), 1), (("8",), 1), ((8,), 1.5), ((8,), True)],
    )
    def test_non_integral_counts_rejected(self, nodes, n):
        with pytest.raises(ValueError, match="integers"):
            GridSpec((1.0,), nodes, n=n)

    def test_numpy_integer_counts_accepted(self):
        spec = GridSpec((1.0,), (np.int64(8),), n=np.int32(2))
        assert (spec.nodes, spec.n) == ((8,), 2)
        assert all(type(k) is int for k in (*spec.nodes, spec.n))


class TestField:
    def test_scalar_convenience_shape(self):
        spec = line(nodes=4)
        f = Field(spec, np.arange(4.0))
        assert f.values.shape == (4, 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Field(line(nodes=4), np.zeros((5, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Field(line(nodes=4), np.array([0.0, 1.0, np.nan, 0.0]))

    def test_values_are_immutable(self):
        f = Field.zeros(line(nodes=4))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_closed_values_duplicates_wrap_faces(self):
        spec = GridSpec((1.0, 1.0), (3, 4), n=2)
        rng = np.random.default_rng(0)
        f = random_field(spec, rng)
        closed = f.closed_values()
        assert closed.shape == (4, 5, 2)
        npt.assert_array_equal(closed[3], closed[0])
        npt.assert_array_equal(closed[:, 4], closed[:, 0])
        # the closed layout is numpy's wrap padding, bit for bit, including
        # the corners that several axes wrap to
        for nodes in [(5,), (3, 4), (3, 4, 5)]:
            spec = GridSpec((1.0,) * len(nodes), nodes, n=2)
            f = Field(spec, rng.standard_normal(spec.shape) * 1e-300)
            closed = f.closed_values()
            padded = np.pad(f.values, [(0, 1)] * spec.p + [(0, 0)], mode="wrap")
            assert closed.shape == padded.shape
            assert closed.tobytes() == padded.tobytes()


class TestL2:
    def test_constant_ones(self):
        spec = line(extent=1.0, nodes=4)
        ones = Field.constant(spec, 1.0)
        assert l2_inner(ones, ones) == pytest.approx(1.0, abs=0)

    def test_zero_field(self):
        spec = line(nodes=4)
        assert l2_inner(Field.zeros(spec), Field.constant(spec, 3.0)) == 0.0

    def test_sine_norm_exact(self):
        # discrete identity: sum_k sin^2(2 pi k / N) = N / 2 for N >= 3
        spec = line(extent=1.0, nodes=64)
        u = sine_field(spec)
        assert l2_norm(u) ** 2 == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("shape", [(3, 1), (7, 2), (4, 3, 2), (64, 64, 2)])
    def test_plain_formula_bits_where_no_square_overflows(self, shape, scale):
        # both reductions of the one rule: a field's cell-weighted L2 norm, in
        # _reduce's order, and the Euclidean norms of the rows, of a field's
        # nodes and of one vector
        rng = np.random.default_rng(len(shape))
        spec = GridSpec((1.5,) * (len(shape) - 1), shape[:-1], n=shape[-1])
        for _ in range(5):
            a = scale * rng.standard_normal(shape)
            plain = math.sqrt(spec.cell_volume * np.add.reduce(a * a, axis=None))
            assert _norm(spec, a) == plain
            for v in (a, a.reshape(-1)):
                rows = np.sqrt(np.sum(v * v, axis=-1))
                assert np.asarray(_row_norms(v)).tobytes() == rows.tobytes()

    def test_scaled_where_the_squares_overflow(self):
        spec = GridSpec((4.0,), (4,), n=2)
        a = np.array([[3e200, -4e200], [1.0, 2.0], [0.0, -1e160], [1.5e308, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _row_norms(a)
            field = _norm(spec, a[:3].copy())
            buffer = a[:3].copy()
            in_place = _norm(spec, buffer, out=buffer)
        npt.assert_allclose(rows[0], 5e200, rtol=1e-15)
        assert rows[1] == math.sqrt(5.0) and rows[2] == 1e160
        assert rows[3] == math.inf  # the norm 2.1e308 overflows itself
        npt.assert_allclose(field, 5e200, rtol=1e-15)
        # in place, the entries summed are the squares, which overflowed
        assert in_place == math.inf
        assert _row_norms(np.array([1e300, math.inf])) == math.inf
        assert math.isnan(_row_norms(np.array([1e300, math.nan])))

    @pytest.mark.parametrize("value", [1e-200, 1e-160, 5e-324])
    @pytest.mark.parametrize("nodes", [(8,), (4, 6)])
    def test_scaled_where_the_squares_underflow(self, nodes, value):
        # the squares of 1e-200 underflow to 0, those of 1e-160 and of the
        # smallest subnormal round to subnormals; the norm is the constant's
        # times the square root of the volume, 1 * 1 or 1 * 1.5
        spec = GridSpec((1.0, 1.5)[: len(nodes)], nodes, n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = l2_norm(Field.constant(spec, value))
            rows = _row_norms(np.array([[value, value], [value, 0.0], [3 * value, 4 * value]]))
        assert norm == pytest.approx(value * math.sqrt(spec.volume), rel=1e-15, abs=0.0)
        if value > 1e-300:
            npt.assert_allclose(rows, [math.sqrt(2.0) * value, value, 5.0 * value], rtol=1e-15)
        else:  # 3 and 4 times the smallest subnormal are exact, their norm rounds to 5
            npt.assert_array_equal(rows, [value, value, 5.0 * value])

    def test_small_side_keeps_zero_rows_and_the_in_place_signal(self):
        spec = GridSpec((1.0,), (4,), n=2)
        a = np.array([[0.0, -0.0], [1e-200, 0.0], [0.0, 0.0], [1.0, 0.0]])
        npt.assert_array_equal(_row_norms(a), [0.0, 1e-200, 0.0, 1.0])
        assert _norm(spec, np.zeros(spec.shape)) == 0.0
        # whose entries the squares replace, a norm that needs them reads inf
        buffer = np.full(spec.shape, 1e-200)
        assert _norm(spec, buffer, out=buffer) == math.inf
        # a weighted sum that is subnormal while the sum is not: volume 1e-300
        small = GridSpec((1e-300,), (4,), n=1)
        assert l2_norm(Field.constant(small, 1e-10)) == pytest.approx(1e-160, rel=1e-15, abs=0.0)

    def test_mismatched_grids_rejected(self):
        u = Field.zeros(line(nodes=4))
        v = Field.zeros(line(nodes=8))
        with pytest.raises(ValueError, match="different grids"):
            l2_inner(u, v)


class TestComponentSum:
    """The fold along the last axis against numpy's reduce, bit for bit."""

    SPECIAL = (-0.0, 0.0, math.inf, -math.inf, math.nan)

    @pytest.mark.parametrize("count", range(1, 13))
    @pytest.mark.parametrize(
        "prefix", [(), (1,), (12,), (2000,), (24, 24), (5, 6, 7), (256, 256)]
    )
    def test_bits_of_numpy_reduce(self, prefix, count):
        rng = np.random.default_rng([count, len(prefix)])
        a = rng.standard_normal(prefix + (count,)) * 10.0 ** rng.integers(-5, 5, prefix + (count,))
        # columns of signed zeros, infinities and NaN, and a row of -0.0
        for j in range(count):
            if rng.random() < 0.4:
                a[..., j] = rng.choice(self.SPECIAL, prefix)
        if prefix:
            a[(0,) * len(prefix)] = -0.0
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.add.reduce(a, axis=-1)
            got = _component_sum(a)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_a_row_of_negative_zeros_sums_to_positive_zero(self):
        for count in range(1, 8):
            total = _component_sum(np.full((3, count), -0.0))
            assert not np.signbit(total).any()


class TestForwardDiff:
    def test_constant_maps_to_zero(self):
        d = forward_diff(Field.constant(line(nodes=5), 2.5), 0)
        npt.assert_array_equal(d.values, 0.0)

    def test_wraparound(self):
        spec = line(extent=4.0, nodes=4)
        d = forward_diff(Field(spec, np.array([0.0, 1.0, 2.0, 3.0])), 0)
        npt.assert_array_equal(d.values[:, 0], [1.0, 1.0, 1.0, -3.0])

    def test_first_order_convergence(self):
        errors = {}
        for nodes in (128, 256):
            spec = line(extent=1.0, nodes=nodes)
            t = node_coordinates(spec)[..., 0]
            u = Field(spec, np.sin(2.0 * np.pi * t))
            exact = Field(spec, 2.0 * np.pi * np.cos(2.0 * np.pi * t))
            errors[nodes] = l2_norm(Field(spec, forward_diff(u, 0).values - exact.values))
        ratio = errors[128] / errors[256]
        assert 1.8 <= ratio <= 2.2

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="axis"):
            forward_diff(Field.zeros(line(nodes=4)), 1)


class TestLaplacian:
    def test_constant_annihilated(self):
        spec = GridSpec((1.0, 2.0), (4, 4), n=3)
        npt.assert_array_equal(laplacian(Field.constant(spec, (1.0, 2.0, 3.0))).values, 0.0)

    def test_stencil_arithmetic(self):
        spec = line(extent=4.0, nodes=4)
        lap = laplacian(Field(spec, np.array([0.0, 1.0, 0.0, 0.0])))
        npt.assert_array_equal(lap.values[:, 0], [1.0, -2.0, 1.0, 0.0])

    def test_discrete_eigenfunction(self):
        spec = line(extent=1.0, nodes=32)
        u = sine_field(spec)
        h = spec.spacings[0]
        lam = -((2.0 * np.sin(np.pi / 32) / h) ** 2)
        npt.assert_allclose(laplacian(u).values, lam * u.values, rtol=0, atol=1e-12 * abs(lam))

    def test_mean_of_laplacian_vanishes(self):
        spec = GridSpec((1.0, 1.0), (8, 6), n=2)
        u = gaussian_field(spec, np.random.default_rng(3))
        assert np.max(np.abs(mean(laplacian(u)))) <= 1e-12 * l2_norm(u)


def bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


class TestStencilsMatchRoll:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bit_identical_to_roll_formulas(self, p, n):
        spec = GridSpec((1.0, 1.3, 0.7)[:p], (5, 4, 3)[:p], n=n)
        u = gaussian_field(spec, np.random.default_rng(p + 10 * n))
        v = u.values
        lap = np.zeros_like(v)
        for axis in range(p):
            h = spec.spacings[axis]
            after, before = np.roll(v, -1, axis=axis), np.roll(v, 1, axis=axis)
            lap += (after - 2.0 * v + before) / h**2
            npt.assert_array_equal(bits(forward_diff(u, axis).values), bits((after - v) / h))
            npt.assert_array_equal(bits(backward_diff(u, axis).values), bits((v - before) / h))
        npt.assert_array_equal(bits(laplacian(u).values), bits(lap))

    @pytest.mark.parametrize(
        "nodes, n",
        [((5,), 2), ((5, 4), 1), ((5, 4, 3), 2), ((64, 64), 1), ((3, 16, 3), 3)],
    )
    def test_buffer_kernels_bit_identical_to_roll_formulas(self, nodes, n):
        # the kernels' flat passes and wrap slabs against np.roll, the
        # differences into one reused buffer; 64^2, n = 1 is a size at which
        # numpy 2.4 buffers strided operands
        spec = GridSpec(tuple(1.0 + 0.1 * a for a in range(len(nodes))), nodes, n=n)
        v = gaussian_field(spec, np.random.default_rng(sum(nodes) + n)).values
        out = np.full(spec.shape, np.nan)
        lap = np.zeros_like(v)
        for axis, h in enumerate(spec.spacings):
            after, before = np.roll(v, -1, axis=axis), np.roll(v, 1, axis=axis)
            lap += (after - 2.0 * v + before) / h**2
            assert _difference(v, axis, h, 1, out) is out
            npt.assert_array_equal(bits(out), bits((after - v) / h))
            assert _difference(v, axis, h, -1, out) is out
            npt.assert_array_equal(bits(out), bits((v - before) / h))
        npt.assert_array_equal(bits(_laplacian(v, spec.spacings)), bits(lap))

    def test_laplacian_keeps_the_sign_of_zero_of_a_sum_from_zero(self):
        # a stencil sum that is -0.0 comes out +0.0, as 0.0 + (-0.0) does
        spec = GridSpec((1.0,), (4,), n=1)
        v = np.array([[0.0], [-0.0], [0.0], [-0.0]])
        npt.assert_array_equal(bits(_laplacian(v, spec.spacings)), bits(np.zeros((4, 1))))


class TestStencilMemory:
    """The kernels' transients on a 64^2, n = 1 field, in multiples of its
    bytes; strided slices along the last node axis would add about three,
    numpy 2.4's ufunc buffers."""

    def test_laplacian_works_in_two_fields(self):
        # its result and one term buffer, plus the wrap slabs: 2.12 (it was 4.03)
        spec = GridSpec((1.0, 1.0), (64, 64), n=1)
        v = gaussian_field(spec, np.random.default_rng(5)).values
        assert peak_transient(_laplacian, v, spec.spacings) <= 2.2 * v.nbytes

    def test_difference_into_a_buffer_allocates_no_field(self):
        spec = GridSpec((1.0, 1.0), (64, 64), n=1)
        v = gaussian_field(spec, np.random.default_rng(6)).values
        out = np.empty(spec.shape)
        for axis, h in enumerate(spec.spacings):
            for step in (1, -1):
                assert peak_transient(_difference, v, axis, h, step, out) <= 0.1 * v.nbytes


class TestMeanSplit:
    def test_mean_simple(self):
        u = Field(line(nodes=4), np.array([1.0, 2.0, 3.0, 4.0]))
        npt.assert_allclose(mean(u), [2.5], rtol=0, atol=0)

    def test_mean_zero_field(self):
        npt.assert_array_equal(mean(Field.zeros(line(nodes=4))), 0.0)

    def test_full_period_sine_mean_is_offset(self):
        spec = line(extent=1.0, nodes=16)
        t = node_coordinates(spec)[..., 0]
        u = Field(spec, 0.7 + np.sin(2.0 * np.pi * t))
        npt.assert_allclose(mean(u), [0.7], rtol=0, atol=1e-14)

    def test_split_simple(self):
        ubar, tilde = split_mean(Field(line(nodes=4), np.array([1.0, 2.0, 3.0, 4.0])))
        npt.assert_allclose(ubar, [2.5])
        npt.assert_allclose(tilde.values[:, 0], [-1.5, -0.5, 0.5, 1.5])

    def test_split_constant(self):
        _, tilde = split_mean(Field.constant(line(nodes=4), 5.0))
        assert np.max(np.abs(tilde.values)) <= 1e-13 * 6.0

    def test_split_round_trip_and_zero_mean(self):
        spec = GridSpec((1.0, 2.0), (8, 8), n=2)
        u = gaussian_field(spec, np.random.default_rng(11), scale=4.0)
        ubar, tilde = split_mean(u)
        npt.assert_allclose(tilde.values + ubar, u.values, rtol=0, atol=1e-14 * 16.0)
        assert np.all(np.abs(mean(tilde)) <= 1e-13 * (1.0 + np.abs(ubar)))


class TestLinearPoisson:
    def test_zero_maps_to_zero(self):
        u = solve_linear_poisson(Field.zeros(line(nodes=8)))
        npt.assert_array_equal(u.values, 0.0)

    def test_eigenfunction_identity(self):
        spec = line(extent=1.0, nodes=16)
        s = sine_field(spec)
        h = spec.spacings[0]
        lam = -((2.0 * np.sin(np.pi / 16) / h) ** 2)
        u = solve_linear_poisson(Field(spec, lam * s.values))
        npt.assert_allclose(u.values, s.values, rtol=0, atol=1e-13)

    def test_round_trip_random_rhs(self):
        spec = GridSpec((1.0, 2.0), (16, 12), n=2)
        raw = gaussian_field(spec, np.random.default_rng(5))
        _, f = split_mean(raw)
        u = solve_linear_poisson(f)
        back = laplacian(u)
        npt.assert_allclose(back.values, f.values, rtol=0, atol=1e-10 * l2_norm(f))
        assert np.max(np.abs(mean(u))) <= 1e-12

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValueError, match="zero mean"):
            solve_linear_poisson(Field.constant(line(nodes=8), 1.0))

    def test_rhs_whose_transform_overflows_rejected_without_warning(self):
        # the norm of +-1.5e308 on 8 nodes of a unit interval is 1.5e308, and
        # its Nyquist coefficient, 8 * 1.5e308, overflows
        f = Field(line(nodes=8), 1.5e308 * (-1.0) ** np.arange(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite DFT; its transform overflows"):
                solve_linear_poisson(f)

    def test_solution_that_overflows_is_named_without_warning(self):
        # +-1e300 on 8 nodes of an interval of length 1e6: the rhs, its norm
        # and its transform are finite, and the Nyquist mode over its
        # eigenvalue, -2.56e-10, is not
        f = Field(line(extent=1e6, nodes=8), 1e300 * (-1.0) ** np.arange(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the zero-mean solution u of laplacian"):
                solve_linear_poisson(f)

    def test_symbol_nonpositive_with_zero_mode(self):
        lam = laplacian_symbol(GridSpec((1.0, 1.0), (8, 8)))
        assert lam[0, 0] == 0.0
        assert np.all(lam <= 0.0)


class TestH1Riesz:
    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec((1.0,), (16,), n=1),
            GridSpec((2.0,), (12,), n=2),
            GridSpec((1.0, 2.0), (16, 12), n=1),
            GridSpec((1.0, 1.0), (8, 8), n=2),
        ],
    )
    def test_inverts_identity_minus_laplacian(self, spec):
        rng = np.random.default_rng(spec.node_count)
        g = Field(spec, 1.5 + rng.standard_normal(spec.shape))
        z = Field(spec, h1_riesz_map(spec)(g.values))
        back = z.values - laplacian(z).values
        npt.assert_allclose(back, g.values, rtol=0, atol=1e-12)
        npt.assert_allclose(mean(z), mean(g), rtol=0, atol=1e-14)
        # the discrete H1 Riesz identity behind the solver's direction
        v = gaussian_field(spec, rng)
        assert h1_inner(z, v) == pytest.approx(l2_inner(g, v), rel=1e-12)


    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec((1.0,), (16,), n=1),
            GridSpec((2.0,), (12,), n=2),
            GridSpec((1.0, 2.0), (16, 12), n=1),
            GridSpec((1.0, 1.0), (8, 8), n=2),
        ],
    )
    def test_mass_inverts_c_minus_laplacian_per_component(self, spec):
        rng = np.random.default_rng(spec.node_count + spec.n)
        g = Field(spec, 1.5 + rng.standard_normal(spec.shape))
        mass = np.array([3.5, 1000.0])[: spec.n]
        z = Field(spec, h1_riesz_map(spec)(g.values, mass))
        back = mass * z.values - laplacian(z).values
        npt.assert_allclose(back, g.values, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(mean(z), mean(g) / mass, rtol=1e-14)

    @pytest.mark.parametrize(
        "spec", [GridSpec((1.0,), (16,), n=2), GridSpec((1.0, 2.0), (16, 12), n=1)]
    )
    def test_unit_mass_is_the_unweighted_map_bit_for_bit(self, spec):
        g = gaussian_field(spec, np.random.default_rng(9)).values
        axes = tuple(range(spec.p))
        divisor = (1.0 - laplacian_symbol(spec))[..., np.newaxis]
        unweighted = np.real(np.fft.ifftn(np.fft.fftn(g, axes=axes) / divisor, axes=axes))
        riesz = h1_riesz_map(spec)
        npt.assert_array_equal(riesz(g), unweighted)
        npt.assert_array_equal(riesz(g, np.ones(spec.n)), unweighted)


class TestOperatorIdentities:
    def setup_method(self):
        self.spec = GridSpec((1.0, 1.5), (8, 6), n=2)
        rng = np.random.default_rng(21)
        self.u = gaussian_field(self.spec, rng)
        self.v = gaussian_field(self.spec, rng)

    def test_forward_backward_adjointness(self):
        # <D_a u, v> = -<u, Db_a v> with Db the backward difference
        for axis in range(self.spec.p):
            lhs = l2_inner(forward_diff(self.u, axis), self.v)
            rhs = -l2_inner(self.u, backward_diff(self.v, axis))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_laplacian_summation_by_parts(self):
        lhs = l2_inner(laplacian(self.u), self.v)
        rhs = -sum(
            l2_inner(forward_diff(self.u, a), forward_diff(self.v, a))
            for a in range(self.spec.p)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("axis,shift", [(0, 1), (0, 3), (1, 2)])
    def test_translation_invariance(self, axis, shift):
        rolled = Field(self.spec, np.roll(self.u.values, shift, axis=axis))
        for op in (laplacian, lambda w: forward_diff(w, axis)):
            direct = np.roll(op(self.u).values, shift, axis=axis)
            npt.assert_array_equal(op(rolled).values, direct)
        assert l2_norm(rolled) == pytest.approx(l2_norm(self.u), rel=1e-13)
        assert h1_inner(rolled, rolled) == pytest.approx(h1_inner(self.u, self.u), rel=1e-13)

    def test_norm_difference_inequality(self):
        diff = Field(self.spec, self.u.values - self.v.values)
        for norm in (l2_norm, lambda w: math.sqrt(h1_inner(w, w))):
            lhs = abs(norm(self.u) ** 2 - norm(self.v) ** 2)
            rhs = (norm(self.u) + norm(self.v)) * norm(diff)
            assert lhs <= rhs * (1.0 + 1e-12)
