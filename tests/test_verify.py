import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad import (
    CosineLattice,
    ExpressionPotential,
    Field,
    GridSpec,
    LinearForcing,
    Sample,
    SampleSpec,
    ShiftedQuadratic,
    action_gradient,
    boundary_check,
    el_residual,
    forward_diff,
    l2_norm,
    laplacian,
    minimize,
    node_coordinates,
    solve_linear_poisson,
    split_mean,
    wirtinger_check,
    wirtinger_constant,
)
from poisson_grad.action import GridAction, PotentialDomainError
from poisson_grad.cli import read_field_csv, write_field_csv
from poisson_grad.grid import backward_diff
from poisson_grad.potential import fp_policy
from poisson_grad.solver import SolverConfig
from poisson_grad.verify import _abs_max, certify

from helpers import gaussian_field, peak_transient

TWO_PI = 2.0 * np.pi


class TestTransientMemory:
    """Peak transients of the DFT oracle and the residual certificate on a
    256^2, n = 2 field (1 MiB), in multiples of the field's bytes; they were
    8.5 and 7.0 before the in-place arithmetic, and the certificate's was 5.0
    before its stencils wrote into reused buffers.  The certificate's bounds
    are the measurement (numpy 2.4) plus a margin of 0.12 field bytes, for
    the finite tests' masks and numpy's buffers for the wrap slabs."""

    @pytest.fixture(scope="class")
    def problem(self):
        spec = GridSpec((1.0, 1.0), (256, 256), n=2)
        f = np.random.default_rng(12).standard_normal(spec.shape)
        f -= f.mean(axis=(0, 1))
        rhs = Field(spec, f)
        node_coordinates(spec)  # a cache of the grid, not a transient
        return rhs, LinearForcing(Field(spec, -f)), solve_linear_poisson(rhs)

    def test_solve_linear_poisson(self, problem):
        rhs, _, _ = problem
        assert peak_transient(solve_linear_poisson, rhs) <= 5.0 * rhs.values.nbytes

    def test_el_residual(self, problem):
        # the residual, and two buffers for each assembly: 3.13
        rhs, pot, u = problem
        assert peak_transient(el_residual, u, pot) <= 3.25 * rhs.values.nbytes

    def test_wirtinger_check(self, problem):
        # the zero-mean part and one buffer for its differences: 2.13
        rhs, _, u = problem
        assert peak_transient(wirtinger_check, u) <= 2.25 * rhs.values.nbytes

    def test_certify(self, problem):
        # el_residual's peak; its residual is freed before the Wirtinger
        # check: 3.13
        rhs, pot, u = problem
        assert peak_transient(certify, u, pot, 1e-6) <= 3.25 * rhs.values.nbytes

    def test_linear_forcing_bound_to_its_own_grid(self, problem):
        # the nearest-node lookup copied the forcing: a peak of 2.0 field bytes
        rhs, pot, _ = problem
        t = node_coordinates(rhs.spec)
        assert peak_transient(pot.bind, t) <= 0.01 * rhs.values.nbytes

    def test_linear_forcing_bound_at_a_sample(self, problem):
        # a drawn t is not the forcing's grid: testing it against the grid's
        # node coordinates built them, a peak of 2.06 field bytes
        rhs, _, _ = problem
        spec = GridSpec((1.0, 1.0), (256, 256), n=2)  # no coordinates cached
        pot = LinearForcing(Field(spec, rhs.values))
        sampler = SampleSpec(count=2000, seed=0, t_extents=spec.extents)
        assert peak_transient(Sample, pot, sampler) <= 0.25 * rhs.values.nbytes
        assert "_node_coordinates" not in spec.__dict__


class TestCsvReaderMemory:
    def test_read_field_csv(self, tmp_path):
        # the certify-ladder's third transient, on the same 256^2, n = 2
        # field: 3.33x its bytes (numpy 2.4), most of it the parsed table of
        # p + n columns
        spec = GridSpec((1.0, 1.0), (256, 256), n=2)
        field = gaussian_field(spec, np.random.default_rng(12))
        path = tmp_path / "f.csv"
        write_field_csv(path, field)
        assert peak_transient(read_field_csv, path, spec) <= 3.5 * field.values.nbytes


class TestAbsMax:
    @pytest.mark.parametrize(
        "values",
        [[1.0, -3.0, 2.0], [-1.0, -0.5], [0.5, 4.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]],
    )
    def test_is_max_of_abs_bit_for_bit(self, values):
        a = np.array(values)
        assert np.float64(_abs_max(a)).tobytes() == np.max(np.abs(a)).tobytes()


class TestElResidual:
    def test_zero_field_is_critical_for_cosine(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
        residual, norms = el_residual(Field.zeros(spec), pot)
        npt.assert_array_equal(residual.values, 0.0)
        assert norms.l2 == 0.0 and norms.linf == 0.0

    def test_linear_forcing_direct_recomputation(self):
        spec = GridSpec((1.0,), (16,), n=2)
        rng = np.random.default_rng(1)
        f = Field(spec, rng.standard_normal(spec.shape))
        u = gaussian_field(spec, rng)
        residual, _ = el_residual(u, LinearForcing(f))
        direct = laplacian(u).values + f.values
        npt.assert_allclose(residual.values, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nodes, n", [((16,), 2), ((12, 9), 1), ((6, 5, 4), 2)])
    def test_buffers_match_field_assembly_bit_for_bit(self, nodes, n):
        # the buffers hold what backward_diff(forward_diff(u)) gives, and the
        # norms are the Field functions' own
        spec = GridSpec((1.0, 1.3, 0.7)[: len(nodes)], nodes, n=n)
        pot = ShiftedQuadratic((0.5, -0.25)[:n], floor=1.0, p=len(nodes))
        u = gaussian_field(spec, np.random.default_rng(len(nodes) + n), scale=2.0)
        lap = np.zeros(spec.shape)
        for axis in range(spec.p):
            lap += backward_diff(forward_diff(u, axis), axis).values
        expected = lap - pot.gradient(node_coordinates(spec), u.values)
        residual, norms = el_residual(u, pot)
        assert residual.values.tobytes() == expected.tobytes()
        assert norms.l2 == l2_norm(Field(spec, expected))
        assert norms.linf == float(np.max(np.abs(expected)))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_overflowing_difference_is_not_finite(self, axis):
        # a forward difference of +-1e308 overflows, as a Field would refuse it
        spec = GridSpec((1.0, 1.0), (4, 4), n=1)
        values = np.zeros(spec.shape)
        values[(slice(None),) * axis + (slice(None, None, 2),)] = 1e308
        values[(slice(None),) * axis + (slice(1, None, 2),)] = -1e308
        pot = ShiftedQuadratic((0.0,), floor=1.0, p=2)
        with fp_policy(), pytest.raises(ValueError, match="^field contains non-finite values$"):
            el_residual(Field(spec, values), pot)

    def test_negates_action_gradient(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        pot = ShiftedQuadratic((0.5, -0.25), floor=1.0, p=2)
        u = gaussian_field(spec, np.random.default_rng(4), scale=2.0)
        residual, _ = el_residual(u, pot)
        g = action_gradient(u, pot)
        scale = 1.0 + np.max(np.abs(g.values))
        assert np.max(np.abs(residual.values + g.values)) <= 1e-13 * scale

    def test_assembly_error_still_raises(self, monkeypatch):
        spec = GridSpec((1.0, 1.0), (64, 64), n=1)
        t = node_coordinates(spec)
        f = np.sin(TWO_PI * t[..., 0]) * np.cos(TWO_PI * t[..., 1])
        pot = LinearForcing(Field(spec, -f))
        u = solve_linear_poisson(Field(spec, f))
        el_residual(u, pot)
        stencil = sum(4.0 * np.max(np.abs(u.values)) / h**2 for h in spec.spacings)
        scale = 1.0 + np.max(np.abs(f)) + stencil

        gradient = GridAction.gradient

        def skewed(act, x):
            g = gradient(act, x)
            g[3, 5, 0] += 1e-9 * scale
            return g

        monkeypatch.setattr(GridAction, "gradient", skewed)
        with pytest.raises(RuntimeError, match="assemblies disagree"):
            el_residual(u, pot)

    def test_overflowing_gradient_names_its_first_node(self):
        # grad F = 2e305 x1 overflows at the two nodes at +-1e4 of a finite
        # field, whose Laplacian stays finite; the first of them is named
        spec = GridSpec((1.0,), (8,), n=1)
        values = np.zeros(spec.shape)
        values[5:7, 0] = (1e4, -1e4)
        pot = ExpressionPotential("1 + 1e305*x1^2", 1, 1)
        with pytest.raises(PotentialDomainError, match="grad F is not finite") as err:
            certify(Field(spec, values), pot, 1e-6)
        assert err.value.node_index == (5,)
        assert err.value.coords == (0.625,)

    def test_converged_solve_satisfies_tolerance(self):
        spec = GridSpec((1.0,), (32,), n=1)
        t = node_coordinates(spec)[..., 0]
        f = Field(spec, 0.01 * np.sin(TWO_PI * t))
        cfg = SolverConfig(max_iters=20000, tol_residual=1e-8)
        final, report = minimize(LinearForcing(f), Field.zeros(spec), cfg)
        assert report.status == "converged"
        _, norms = el_residual(final, LinearForcing(f))
        assert norms.l2 <= 1e-8


class TestBoundaryCheck:
    def test_closed_export_passes_exactly(self):
        spec = GridSpec((1.0, 2.0), (8, 6), n=2)
        u = gaussian_field(spec, np.random.default_rng(3))
        report = boundary_check(u.closed_values(), spec)
        assert report.passed
        for ax in report.axes:
            assert ax.value_mismatch == 0.0
            assert ax.quotient_mismatch == 0.0

    def test_corrupted_face_fails_on_that_axis(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=1)
        u = gaussian_field(spec, np.random.default_rng(5))
        closed = u.closed_values().copy()
        closed[8, 3, 0] += 0.1  # break one value on the axis-0 far face
        report = boundary_check(closed, spec)
        assert not report.passed
        assert report.axes[0].value_mismatch >= 0.1 * 0.99
        assert report.axes[1].value_mismatch == 0.0

    def test_external_periodic_sample_passes(self):
        spec = GridSpec((2.0,), (32,), n=1)
        t_closed = np.linspace(0.0, 2.0, 33)
        closed = np.sin(TWO_PI * t_closed / 2.0)[:, np.newaxis]
        report = boundary_check(closed, spec)
        assert report.passed
        assert report.axes[0].value_mismatch <= 1e-12
        assert report.axes[0].quotient_mismatch <= 1e-12

    def test_wrong_node_count_rejected(self):
        spec = GridSpec((1.0,), (8,), n=1)
        with pytest.raises(ValueError, match="shape"):
            boundary_check(np.zeros((8, 1)), spec)


class TestWirtinger:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_overflowing_difference_is_not_finite(self, axis):
        # the differences of +-4e307, 3.2e308, overflow, as a Field would
        # refuse them, while the mean does not; so the bound is not passed
        # against an infinite right-hand side
        spec = GridSpec((1.0, 1.0), (4, 4), n=1)
        values = np.zeros(spec.shape)
        values[(slice(None),) * axis + (slice(None, None, 2),)] = 4e307
        values[(slice(None),) * axis + (slice(1, None, 2),)] = -4e307
        with fp_policy(), pytest.raises(ValueError, match="^field contains non-finite values$"):
            wirtinger_check(Field(spec, values))

    @pytest.mark.parametrize("p", [1, 2])
    def test_differences_whose_squares_overflow(self, p):
        # the lowest mode at amplitude 1e200: the squares of the field and of
        # its differences overflow, their norms do not, so both sides are
        # finite and the mode still achieves equality
        spec = GridSpec((1.0,) * p, (32,) * p, n=1)
        t = node_coordinates(spec)[..., 0]
        u = Field(spec, 1e200 * np.sin(TWO_PI * t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = wirtinger_check(u)
        assert 1e199 < report.lhs < math.inf and 1e199 < report.rhs < math.inf
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_differences_whose_squares_underflow(self, p):
        # the lowest mode at amplitude 1e-200: the squares of the field and
        # of its differences underflow to 0, their norms do not, so neither
        # side reads 0 and the mode still achieves equality
        spec = GridSpec((1.0,) * p, (32,) * p, n=1)
        t = node_coordinates(spec)[..., 0]
        u = Field(spec, 1e-200 * np.sin(TWO_PI * t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = wirtinger_check(u)
        assert report.lhs == pytest.approx(1e-200 * math.sqrt(0.5), rel=1e-12, abs=0.0)
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12, abs=0.0)

    def test_constant_field(self):
        spec = GridSpec((1.0,), (16,), n=1)
        report = wirtinger_check(Field.constant(spec, 3.0))
        assert report.passed
        assert report.lhs <= 1e-13
        assert report.constant == pytest.approx(
            spec.spacings[0] / (2.0 * np.sin(np.pi / 16))
        )

    def test_lowest_mode_achieves_equality(self):
        spec = GridSpec((1.0,), (32,), n=1)
        t = node_coordinates(spec)[..., 0]
        u = Field(spec, np.sin(TWO_PI * t))
        report = wirtinger_check(u)
        assert report.passed
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_lowest_mode_on_slackest_axis_p2(self):
        # axis 0 is coarser per unit length, so it sets the constant
        spec = GridSpec((2.0, 1.0), (16, 16), n=1)
        assert wirtinger_constant(spec) == pytest.approx(
            spec.spacings[0] / (2.0 * np.sin(np.pi / 16))
        )
        t = node_coordinates(spec)
        u = Field(spec, np.sin(TWO_PI * t[..., 0] / 2.0))
        report = wirtinger_check(u)
        assert report.lhs == pytest.approx(report.rhs, rel=1e-12)

    def test_random_zero_mean_sweep(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        rng = np.random.default_rng(11)
        for _ in range(100):
            _, tilde = split_mean(gaussian_field(spec, rng))
            assert wirtinger_check(tilde).passed

    @pytest.mark.parametrize("nodes", [8, 16, 32, 64])
    def test_constant_converges_to_continuum(self, nodes):
        extent = 2.0
        spec = GridSpec((extent,), (nodes,), n=1)
        gap = abs(wirtinger_constant(spec) - extent / TWO_PI)
        assert gap <= 1.1 * extent * np.pi / (12.0 * nodes**2)
