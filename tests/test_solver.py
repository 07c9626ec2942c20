import dataclasses
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad import (
    CosineLattice,
    ExpressionPotential,
    Field,
    GridSpec,
    LinearForcing,
    Potential,
    ShiftedQuadratic,
    canonicalize,
    check_minimizing_bounds,
    cli,
    forward_diff,
    laplacian,
    mean,
    minimize,
    node_coordinates,
    random_init,
    solve_linear_poisson,
    solver,
    split_mean,
    wirtinger_constant,
)
from poisson_grad.action import GridAction, PotentialDomainError
from poisson_grad.expr import EvalDomainError
from poisson_grad.potential import BoundPotential
from poisson_grad.solver import (
    _BACKTRACK_FACTOR,
    IterationRecord,
    RunReport,
    SolverConfig,
    _secant_mass,
)

from helpers import peak_transient

TWO_PI = 2.0 * np.pi

# the potential of configs/expression_well.json
WELL_EXPR = (
    "0.1 + (1 - cos(x1)) + 0.5*(1 - cos(2*pi*x2/3)) + 0.2*sin(2*pi*t1)*sin(x1)"
)
WELL_PERIODS = (TWO_PI, 3.0)


def well_potential():
    return ExpressionPotential(WELL_EXPR, 1, 2, periods=WELL_PERIODS)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(method="newton"),
            dict(max_iters=0),
            dict(tol_residual=0.0),
            dict(tol_residual=math.inf),
            dict(tol_residual=math.nan),
            dict(max_iters=True),
            dict(max_iters=10.5),
            dict(method="gd"),
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)


class TestCanonicalize:
    """The canonicalization ``minimize`` runs, ``solver._canonical``, on a
    cosine lattice of the given periods."""

    @staticmethod
    def canonical(spec, values, periods):
        pot = CosineLattice([1.0] * spec.n, periods, floor=0.1, p=spec.p)
        act = GridAction(pot, spec)
        priced = act.value(values)
        shifted, _, shifts, _ = solver._canonical(act, values, priced, pot.periods)
        return shifted, shifts

    def test_wraps_mean_down(self):
        spec = GridSpec((1.0,), (8,), n=1)
        shifted, k = self.canonical(spec, np.full(spec.shape, 7.3), [TWO_PI])
        npt.assert_array_equal(k, [-1])
        assert mean(Field(spec, shifted))[0] == pytest.approx(7.3 - TWO_PI, rel=1e-14)

    def test_wraps_mean_up(self):
        spec = GridSpec((1.0,), (8,), n=1)
        shifted, k = self.canonical(spec, np.full(spec.shape, -0.5), [1.0])
        npt.assert_array_equal(k, [1])
        assert mean(Field(spec, shifted))[0] == pytest.approx(0.5, rel=1e-14)

    def test_identity_when_in_cell(self):
        spec = GridSpec((1.0,), (8,), n=1)
        u = np.zeros(spec.shape)
        shifted, k = self.canonical(spec, u, [1.0])
        npt.assert_array_equal(k, [0])
        assert shifted is u

    def test_zero_mean_part_untouched(self):
        spec = GridSpec((1.0,), (16,), n=2)
        rng = np.random.default_rng(0)
        u = Field(spec, rng.uniform(5.0, 9.0, spec.shape))
        shifted, _ = self.canonical(spec, u.values, [TWO_PI, 1.0])
        _, tilde_before = split_mean(u)
        _, tilde_after = split_mean(Field(spec, shifted))
        npt.assert_allclose(tilde_after.values, tilde_before.values, atol=1e-13)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mean_2_53_periods_out_is_left_unshifted(self, sign):
        # floats that large are a period or more apart, so no shift puts
        # the mean in the cell, and the shift would not fit int64
        spec = GridSpec((1.0,), (8,), n=2)
        u = np.stack([np.full(spec.nodes, sign * 2.0**53), np.full(spec.nodes, 1e300)], -1)
        shifted, k = self.canonical(spec, u, [1.0, TWO_PI])
        npt.assert_array_equal(k, [0, 0])
        assert shifted is u
        u[..., 0] = sign * (2.0**53 - 1.0)
        k = solver._lattice_shifts(u, spec, np.array([1.0, TWO_PI]))
        npt.assert_array_equal(k, [-u[0, 0], 0])

    def test_component_of_floats_coarser_than_the_gauge_test_keeps_its_mean(self):
        # floats near 1e15 are 0.125 apart, so a shift by whole periods 2 pi
        # rounds by more than the gauge test allows; the other component,
        # whose shift is exact, is shifted
        spec = GridSpec((1.0,), (8,), n=2)
        u = np.stack([np.full(spec.nodes, 1e15), np.full(spec.nodes, -0.5)], -1)
        shifted, k = self.canonical(spec, u, [TWO_PI, 1.0])
        npt.assert_array_equal(k, [0, 1])
        npt.assert_array_equal(shifted, np.stack([u[..., 0], u[..., 1] + 1.0], -1))

    def test_missing_periods_rejected(self):
        with pytest.raises(ValueError, match="period"):
            canonicalize(Field.zeros(GridSpec((1.0,), (8,))), None)


class TestRandomInit:
    def test_periodic_init_in_cell_and_reproducible(self):
        spec = GridSpec((1.0,), (16,), n=2)
        periods = [TWO_PI, 3.0]
        a = random_init(spec, periods, seed=4)
        b = random_init(spec, periods, seed=4)
        npt.assert_array_equal(a.values, b.values)
        assert np.all(a.values >= 0.0)
        assert np.all(a.values < np.asarray(periods))

    def test_free_init_scaled_normal(self):
        spec = GridSpec((1.0,), (64,), n=1)
        f = random_init(spec, None, seed=9)
        assert np.std(f.values) == pytest.approx(0.1, rel=0.3)


class TestMinimize:
    def test_quadratic_reaches_center(self):
        spec = GridSpec((1.0, 1.0), (16, 16), n=2)
        pot = ShiftedQuadratic((1.0, 2.0), floor=1.0, p=2)
        init = random_init(spec, None, seed=3)
        cfg = SolverConfig(method="ncg", max_iters=20000, tol_residual=1e-7)
        final, report = minimize(pot, init, cfg)
        assert report.status in ("converged", "stalled")
        assert np.max(np.abs(final.values - np.array([1.0, 2.0]))) <= 1e-6
        assert report.final.action_total == pytest.approx(spec.volume, abs=1e-8)

    def test_linear_forcing_matches_dft_oracle(self):
        spec = GridSpec((1.0,), (32,), n=1)
        t = node_coordinates(spec)[..., 0]
        f = Field(spec, 0.01 * (np.sin(TWO_PI * t) + 0.5 * np.cos(2 * TWO_PI * t)))
        cfg = SolverConfig(method="ncg", max_iters=20000, tol_residual=1e-8)
        final, report = minimize(LinearForcing(f), Field.zeros(spec), cfg)
        assert report.status == "converged"
        assert report.final.residual_l2 <= 1e-8
        oracle = solve_linear_poisson(Field(spec, -f.values))
        _, tilde = split_mean(final)
        assert np.max(np.abs(tilde.values - oracle.values)) <= 1e-6

    def test_cosine_descends_to_lattice_floor(self):
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
        cfg = SolverConfig(method="ncg", max_iters=20000, tol_residual=1e-8)
        final, report = minimize(pot, Field.constant(spec, 0.6), cfg)
        assert report.final.action_total == pytest.approx(0.1 * spec.volume, abs=1e-6)
        # u == 0 modulo the lattice
        wrapped = np.mod(final.values + np.pi, TWO_PI) - np.pi
        assert np.max(np.abs(wrapped)) <= 1e-6

    def test_accepted_actions_never_increase(self):
        spec = GridSpec((1.0,), (32,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        init = random_init(spec, pot.periods, seed=12)
        _, report = minimize(pot, init, SolverConfig(max_iters=3000))
        totals = [r.action_total for r in report.iterations]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_immediate_convergence_at_critical_point(self):
        spec = GridSpec((1.0,), (16,), n=2)
        pot = ShiftedQuadratic((0.5, 0.5), floor=1.0, p=1)
        final, report = minimize(pot, Field.constant(spec, (0.5, 0.5)), SolverConfig())
        assert report.status == "converged"
        assert len(report.iterations) == 1
        npt.assert_array_equal(final.values, 0.5)

    def test_max_iters_status(self):
        # not a quadratic: there (I - laplacian)^-1 times the Hessian is the
        # identity, and one unit H1 step lands on the minimizer
        spec = GridSpec((1.0,), (16,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        _, report = minimize(
            pot,
            random_init(spec, pot.periods, seed=1),
            SolverConfig(method="ncg", max_iters=3, tol_residual=1e-14),
        )
        assert report.status == "max_iters"
        assert report.final.index == 3

    def test_line_search_failure_reported_not_raised(self):
        class LyingGradient(Potential):
            # reported gradient is a huge ascent direction for the value, so
            # every backtracked step strictly increases the action
            name = "lying"
            n = 1
            p = 1
            periods = None
            growth = None

            def value(self, t, x):
                return 0.5 * np.sum(np.asarray(x) ** 2, axis=-1) + 1.0

            def gradient(self, t, x):
                return -1e20 * np.asarray(x)

        spec = GridSpec((1.0,), (8,), n=1)
        final, report = minimize(
            LyingGradient(), Field.constant(spec, 1.0), SolverConfig(max_iters=50)
        )
        assert report.status == "line_search_failed"
        npt.assert_array_equal(final.values, 1.0)

    def test_trial_outside_domain_is_rejected(self):
        # the first H1 step from u = 2 is about 218, where exp(x1^2)
        # overflows; the line search backtracks instead of aborting
        spec = GridSpec((1.0,), (16,), n=1)
        pot = ExpressionPotential("exp(x1^2)", 1, 1)
        cfg = SolverConfig(tol_residual=1e-6)
        final, report = minimize(pot, Field.constant(spec, 2.0), cfg)
        assert report.converged
        assert report.final.index <= 25
        assert report.iterations[1].step < 1.0
        assert report.final.action_total == pytest.approx(1.0, abs=1e-9)

    def test_trial_with_overflowing_differences_is_rejected(self, monkeypatch):
        # the first trial's values are finite but their forward differences
        # overflow, so its kinetic sum is not finite
        monkeypatch.setattr(solver, "_INITIAL_STEP", 1e308)
        spec = GridSpec((1.0,), (8,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        cfg = SolverConfig(max_iters=1)
        _, report = minimize(pot, random_init(spec, pot.periods, seed=5), cfg)
        assert report.status == "max_iters"
        assert report.final.action_total < report.initial_action

    def test_domain_error_at_initial_point_raises(self):
        spec = GridSpec((1.0,), (16,), n=1)
        pot = ExpressionPotential("exp(x1^2)", 1, 1)
        with pytest.raises(PotentialDomainError, match="non-finite result") as err:
            minimize(pot, Field.constant(spec, 30.0), SolverConfig())
        assert err.value.node_index == (0,)

    def test_infinite_potential_at_initial_point_raises(self):
        # F overflows to inf at every node without a domain error of its own
        spec = GridSpec((1.0,), (8,), n=1)
        pot = ExpressionPotential("1 + 1e305*x1^2", 1, 1)
        with pytest.raises(PotentialDomainError, match="F is not finite") as err:
            minimize(pot, Field.constant(spec, 100.0), SolverConfig())
        assert err.value.node_index == (0,)

    def test_infinite_potential_at_one_node_is_located(self):
        spec = GridSpec((1.0,), (8,), n=1)
        pot = ExpressionPotential("1 + 1e305*x1^2", 1, 1)
        init = Field(spec, np.where(np.arange(8) == 5, 100.0, 0.0)[:, None])
        with pytest.raises(PotentialDomainError, match="F is not finite") as err:
            minimize(pot, init, SolverConfig())
        assert err.value.node_index == (5,)

    def test_trial_with_infinite_potential_is_rejected(self, monkeypatch):
        # the first trial's values and differences are finite, but F
        # overflows there; the line search backtracks to a finite action
        monkeypatch.setattr(solver, "_INITIAL_STEP", 1e200)
        spec = GridSpec((1.0,), (8,), n=1)
        pot = ExpressionPotential("1 + x1^2", 1, 1)
        _, report = minimize(pot, Field.constant(spec, 1.0), SolverConfig(max_iters=1))
        assert report.status == "max_iters"
        assert 1.0 <= report.final.action_total < report.initial_action
        assert report.iterations[1].step < 1.0

    def test_gradient_failure_at_accepted_point_raises(self):
        class GradientFailsNearCenter(ShiftedQuadratic):
            def gradient(self, t, x):
                if np.any(np.asarray(x) < 0.5):
                    raise ValueError("gradient undefined")
                return super().gradient(t, x)

        spec = GridSpec((1.0,), (8,), n=1)
        pot = GradientFailsNearCenter([0.0], p=1)
        with pytest.raises(PotentialDomainError, match="gradient undefined"):
            minimize(pot, Field.constant(spec, 1.0), SolverConfig())

    @pytest.mark.parametrize(
        "source, message, node",
        [
            ("sqrt(t1 - 0.5)*x1", "sqrt of a negative value", (0,)),
            ("x1 + 1/(t1 - 0.25)", "division by zero", (1,)),
            ("x1 * t1^-1", "zero base with a negative exponent", (0,)),
            ("exp(1000*(t1 - 0.95)) + x1", "non-finite result", (7,)),
            # the x-dependent check comes first in the source, so it fails
            # first, at its own node, although the t-only one fails too
            ("sqrt(x1) + 1/(t1 - 0.25)", "sqrt of a negative value", (5,)),
        ],
    )
    def test_t_only_domain_failure_located_as_unbound(self, source, message, node):
        # t = 0, 0.25, ..., 1.75; the start is negative at node 5 only
        spec = GridSpec((2.0,), (8,), n=1)
        pot = ExpressionPotential(source, 1, 1)
        init = Field(spec, np.where(np.arange(8) == 5, -1.0, 1.0))
        with pytest.raises(EvalDomainError, match=message) as direct:
            pot.value(node_coordinates(spec), init.values)
        assert np.unravel_index(direct.value.element, spec.nodes) == node
        with pytest.raises(PotentialDomainError) as err:
            minimize(pot, init, SolverConfig())
        assert err.value.node_index == node
        assert str(err.value) == f"{direct.value} at node {node}, t = {(0.25 * node[0],)}"

    def test_each_trial_priced_once(self, monkeypatch):
        # the solve binds F to the grid's nodes once; F is evaluated once for
        # the start, once per line-search trial and once more per shifted
        # record, for the gauge assertion, and grad F once per accepted iterate
        spec = GridSpec((1.0,), (12,), n=2)
        pot = well_potential()
        binds, calls, gradients = [], [], []
        bind = pot.bind

        def counting_bind(t):
            binds.append(t)
            bound = bind(t)

            def value(x):
                calls.append(1)
                return bound.value(x)

            def gradient(x):
                gradients.append(1)
                return bound.gradient(x)

            return BoundPotential(value, gradient)

        monkeypatch.setattr(pot, "bind", counting_bind)
        cfg = SolverConfig(tol_residual=1e-6)
        _, report = minimize(pot, random_init(spec, pot.periods, seed=7), cfg)
        assert report.converged
        assert len(binds) == 1 and binds[0] is node_coordinates(spec)
        trials = sum(
            1 + round(math.log(solver._INITIAL_STEP / r.step, 1.0 / _BACKTRACK_FACTOR))
            for r in report.iterations[1:]
        )
        shifted = sum(any(r.shifts) for r in report.iterations)
        assert shifted > 0
        assert len(calls) == 1 + trials + shifted
        assert len(gradients) == 1 + (len(report.iterations) - 1)

    def test_gauge_failure_after_start_raises(self):
        # the start 0.5 lies inside the declared cell [0, 1); the first
        # accepted iterate, at the minimizer -0.3, has a negative mean, and
        # its shift by +1 changes the action of this non-periodic F
        spec = GridSpec((1.0,), (8,), n=1)
        pot = ExpressionPotential("1 + (x1 + 0.3)^2", 1, 1, periods=[1.0])
        init = Field.constant(spec, 0.5)
        assert not solver._lattice_shifts(init.values, spec, pot.periods).any()
        with pytest.raises(RuntimeError, match="lattice shift changed the action"):
            minimize(pot, init, SolverConfig())

    def test_tilde_norm_is_finite_where_its_squares_overflow(self):
        # the mean of a constant 1e300 rounds, and (u - mean)^2 overflows
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
        init = Field.constant(spec, 1e300)
        gap = 1e300 - mean(init)[0]
        assert abs(gap) > math.sqrt(np.finfo(np.float64).max)
        _, report = minimize(pot, init, SolverConfig(max_iters=3))
        for r in report.iterations:
            assert r.tilde_norm == pytest.approx(abs(gap) * math.sqrt(spec.volume), rel=1e-15)

    def test_gauge_deviation_recorded_on_shifts(self):
        spec = GridSpec((1.0,), (16,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        _, report = minimize(
            pot, Field.constant(spec, -0.4), SolverConfig(max_iters=5000)
        )
        shifted = [r for r in report.iterations if r.shifts and any(r.shifts)]
        assert shifted, "run was expected to canonicalize at least once"
        for r in report.iterations:
            if r.gauge_dev is not None:
                assert r.gauge_dev <= 1e-12 * (1.0 + abs(r.action_total))
            if r.shifts is not None:
                assert all(
                    -1e-12 * p <= m <= p * (1 + 1e-12)
                    for m, p in zip(r.mean, report.periods)
                )

    def test_descent_iterates_stay_h1_bounded(self):
        spec = GridSpec((1.0,), (32,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        init = random_init(spec, pot.periods, seed=5)
        _, report = minimize(pot, init, SolverConfig(max_iters=3000))
        c_h = wirtinger_constant(spec)
        phi0 = report.initial_action
        cap = math.sqrt(
            2.0 * (1.0 + c_h**2) * phi0 + 1 * TWO_PI**2 * spec.volume
        )
        for r in report.iterations:
            h1_sq = (
                spec.volume * sum(m * m for m in r.mean)
                + r.tilde_norm**2
                + r.du_norm_sq
            )
            assert math.sqrt(h1_sq) <= cap * (1.0 + 1e-12)

    def test_bit_identical_reports_for_same_seed(self):
        spec = GridSpec((1.0,), (16,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        cfg = SolverConfig(method="ncg", max_iters=500)
        runs = []
        for _ in range(2):
            init = random_init(spec, pot.periods, seed=77)
            _, report = minimize(pot, init, cfg)
            runs.append(report)
        assert runs[0].status == runs[1].status
        assert runs[0].iterations == runs[1].iterations


class TestH1Descent:
    """The H1 search direction makes iteration counts independent of the
    grid; an L2 direction needs O(N^2) iterations on these problems."""

    @pytest.mark.parametrize("nodes", [16, 64, 256])
    def test_expression_well_iterations_flat_in_n(self, nodes):
        spec = GridSpec((1.0,), (nodes,), n=2)
        init = random_init(spec, WELL_PERIODS, seed=7)
        _, report = minimize(well_potential(), init, SolverConfig(tol_residual=1e-6))
        assert report.status == "converged"
        assert report.final.index <= 40

    @pytest.mark.parametrize("nodes", [24, 128])
    def test_modulated_cosine_iterations_flat_in_n(self, nodes):
        spec = GridSpec((1.0, 1.0), (nodes, nodes), n=1)
        pot = CosineLattice(
            [1.0], [TWO_PI], floor=0.1, modulation=0.5, mod_axis=0, mod_extent=1.0, p=2
        )
        _, report = minimize(pot, Field.constant(spec, 0.6), SolverConfig(tol_residual=1e-6))
        assert report.status == "converged"
        assert report.final.index <= 40
        assert check_minimizing_bounds(report, spec).all_passed

    def test_mesh_refinement_second_order(self):
        # u_N against every other node of u_2N: the gap shrinks like h^2
        periods = np.asarray(WELL_PERIODS)
        fields = {}
        for nodes in (16, 32, 64, 128, 256):
            spec = GridSpec((1.0,), (nodes,), n=2)
            final, report = minimize(
                well_potential(),
                Field.constant(spec, (1.0, 1.0)),
                SolverConfig(tol_residual=1e-8),
            )
            assert report.status == "converged"
            fields[nodes] = final.values
        gaps = []
        for nodes in (16, 32, 64, 128):
            diff = fields[nodes] - fields[2 * nodes][::2]
            diff -= periods * np.round(diff / periods)
            gaps.append(np.max(np.abs(diff)))
        ratios = [a / b for a, b in zip(gaps, gaps[1:])]
        assert all(3.5 <= r <= 4.5 for r in ratios), ratios


class TestSecantMass:
    """The metric's mass follows the secant curvature of the potential part
    along each accepted step, clipped below at 1."""

    def test_secant_exact_on_a_quadratic_and_clipped_at_one(self):
        spec = GridSpec((1.0,), (16,), n=2)
        pot = ExpressionPotential("5*x1^2 + 0.25*x2^2", 1, 2)
        init = random_init(spec, None, seed=4)
        _, report = minimize(pot, init, SolverConfig(max_iters=1))
        assert report.iterations[0].h1_mass == (1.0, 1.0)
        c1, c2 = report.iterations[1].h1_mass
        assert c1 == pytest.approx(10.0, rel=1e-9)
        assert c2 == 1.0

    def test_recorded_mass_scales_the_next_step(self):
        # on a constant field the weighted map is G / c: with c = (10, 1) the
        # unit step is a Newton step for x1 and halves x2
        spec = GridSpec((1.0,), (8,), n=2)
        pot = ExpressionPotential("5*x1^2 + 0.25*x2^2", 1, 2)
        init = Field.constant(spec, (1.0, 1.0))
        _, report = minimize(pot, init, SolverConfig(method="ncg", max_iters=2))
        first, second = report.iterations[1:]
        assert first.h1_mass == (10.0, 1.0)
        assert second.step == 1.0
        assert second.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert second.mean[1] == pytest.approx(0.5 * first.mean[1], rel=1e-15)

    def test_unmoved_component_keeps_its_mass(self):
        spec = GridSpec((1.0, 1.0), (8, 6), n=2)
        rng = np.random.default_rng(5)
        s = np.zeros(spec.shape)
        s[..., 0] = rng.standard_normal(spec.nodes)
        # dG = -laplacian(s) + 3 s: the potential part has curvature 3
        dgrad = 3.0 * s - laplacian(Field(spec, s)).values
        mass = _secant_mass(spec, np.array([2.0, 7.0]), dgrad, s)
        assert mass[0] == pytest.approx(3.0, rel=1e-12)
        assert mass[1] == 7.0

    def test_potential_free_of_a_component_keeps_its_mass_in_a_solve(self):
        # x2 never moves from its constant start: <s, s>_2 = 0 at every step
        spec = GridSpec((1.0,), (16,), n=2)
        pot = ExpressionPotential("0.1 + 5*(1 - cos(x1))", 1, 2, periods=(TWO_PI, 1.0))
        rng = np.random.default_rng(2)
        values = np.stack([rng.uniform(0.0, 1.0, 16), np.full(16, 0.25)], axis=-1)
        final, report = minimize(pot, Field(spec, values), SolverConfig())
        assert report.status == "converged"
        assert report.iterations[1].h1_mass[0] > 1.0
        assert all(r.h1_mass[1] == 1.0 for r in report.iterations)
        npt.assert_array_equal(final.values[:, 1], 0.25)

    def test_unit_curvature_keeps_unit_mass(self):
        # the cosine-sheet problem: every secant is below 1, so c stays 1
        spec = GridSpec((1.0, 1.0), (24, 24), n=1)
        pot = CosineLattice(
            [1.0], [TWO_PI], floor=0.1, modulation=0.5, mod_axis=0, mod_extent=1.0, p=2
        )
        _, report = minimize(pot, Field.constant(spec, 0.6), SolverConfig(tol_residual=1e-6))
        assert report.status == "converged"
        assert all(r.h1_mass == (1.0,) for r in report.iterations)

    @pytest.mark.parametrize(
        "nodes, amplitude",
        [(64, 10.0), (64, 100.0), (64, 1000.0), (128, 10.0), (128, 100.0)],
    )
    def test_stiff_modulated_cosine_converges(self, nodes, amplitude):
        # with a unit mass these runs stall after 44 to 1627 iterations
        spec = GridSpec((1.0, 1.0), (nodes, nodes), n=1)
        pot = CosineLattice(
            [amplitude], [TWO_PI], floor=0.1, modulation=0.5, mod_axis=0, mod_extent=1.0, p=2
        )
        init = random_init(spec, pot.periods, seed=3)
        _, report = minimize(pot, init, SolverConfig(tol_residual=1e-8))
        assert report.status == "converged"
        assert report.final.index <= 40
        assert report.final.h1_mass[0] > 0.5 * amplitude
        assert check_minimizing_bounds(report, spec).all_passed


class TestScalarTails:
    """The per-component tails, on floats, against the numpy formulas they
    replace, bit for bit."""

    @staticmethod
    def numpy_shifts(values, spec, periods):
        shifts = -np.floor(np.add.reduce(values, axis=spec.node_axes) / spec.node_count / periods)
        return np.where(np.abs(shifts) < 2.0**53, shifts, 0.0).astype(np.int64)

    @staticmethod
    def numpy_mass(spec, mass, dgrad, s):
        axes = spec.node_axes
        kinetic = sum(
            np.add.reduce(d * d, axis=axes)
            for d in (forward_diff(Field(spec, s), a).values for a in range(spec.p))
        )
        moved = np.add.reduce(s * s, axis=axes)
        still = moved == 0.0
        curvature = (np.add.reduce(dgrad * s, axis=axes) - kinetic) / np.where(still, 1.0, moved)
        keep = still | ~np.isfinite(curvature)
        return np.where(keep, mass, np.maximum(1.0, curvature))

    @pytest.mark.parametrize(
        "means",
        [
            (7.3, -0.5, 0.0, -0.0),
            (math.inf, -math.inf, math.nan, 1e300),
            (2.0**53 - 1.0, 2.0**53, 1.0 - 2.0**53, -(2.0**53)),
            (2.0**52 + 0.5 - 0.5, -(2.0**52) - 1.0, 1e-300, -1e-300),
        ],
    )
    def test_lattice_shifts(self, means):
        spec = GridSpec((1.0,), (8,), n=4)
        values = np.broadcast_to(np.array(means), spec.shape).copy()
        for periods in (np.ones(4), np.array([TWO_PI, 3.0, 0.5, 1e-3])):
            with np.errstate(all="ignore"):
                want = self.numpy_shifts(values, spec, periods)
                got = solver._lattice_shifts(values, spec, periods)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_secant_mass(self):
        spec = GridSpec((1.0, 1.0), (6, 5), n=6)
        rng = np.random.default_rng(9)
        s = rng.standard_normal(spec.shape)
        dgrad = rng.standard_normal(spec.shape)
        dgrad[..., 1] = 1000.0 * s[..., 1]  # a curvature of about 880
        s[..., 0] = 0.0  # did not move
        dgrad[0, 0, 2] = math.inf  # a quotient that is not finite
        dgrad[0, 0, 3] = math.nan
        s[..., 4] *= 1e-170  # <s, s> is subnormal, and the quotient overflows
        dgrad[..., 4] *= 1e300
        dgrad[..., 5] = 0.5 * s[..., 5]  # a quotient below 1, clipped
        mass = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        with np.errstate(all="ignore"):
            want = self.numpy_mass(spec, mass, dgrad, s)
            got = _secant_mass(spec, mass, dgrad, s)
        assert got.tobytes() == want.tobytes()
        assert got[[0, 2, 3, 4]].tolist() == [2.0, 4.0, 5.0, 6.0]
        assert got[1] > 1.0 and got[5] == 1.0


class TestMinimizeMemory:
    def test_stiff_cosine_peak(self):
        # configs/stiff_cosine.json's solve: 64^2, 19 iterations.  Its peak
        # was 18.5 field bytes while the previous gradient outlived the
        # secant update, through the next line search
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = cli.load_config(configs / "stiff_cosine.json")
        spec = cli.build_grid(cfg)
        pot = cli.build_potential(cfg, spec)
        init = cli.build_init(cfg, spec, pot, None)
        solver_cfg = cli.build_solver_config(cfg, None)
        # a first solve builds what a process keeps: the grid's node
        # coordinates and numpy's FFT caches, which are not transients
        minimize(pot, init, solver_cfg)
        runs = []
        peak = peak_transient(lambda: runs.append(minimize(pot, init, solver_cfg)))
        _, report = runs[0]
        assert (report.status, report.final.index) == ("converged", 19)
        assert peak <= 18.0 * init.values.nbytes, peak / init.values.nbytes
        # no higher than while dG had a buffer of its own: 16.42, measured
        # under numpy 2.4; numpy 1.x has another FFT implementation, whose
        # peak that figure does not describe, so there the 18x bound alone holds
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert peak <= 16.42 * init.values.nbytes, peak / init.values.nbytes


class TestIterationRecord:
    def test_to_dict_keys_every_field_once(self):
        record = IterationRecord(
            index=3,
            action_total=2.0,
            action_kinetic=0.5,
            action_potential=1.5,
            residual_l2=1e-3,
            du_norm_sq=1.0,
            mean=(0.25, -0.5),
            tilde_norm=0.75,
            step=0.125,
            shifts=(0, 1),
            gauge_dev=None,
            h1_mass=(1.0, 2.0),
        )
        expected = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        expected["iter"] = expected.pop("index")
        out = record.to_dict()
        assert out == expected and list(out) == list(expected)


class TestCheckMinimizingBounds:
    def run_quadratic(self):
        spec = GridSpec((1.0,), (16,), n=1)
        pot = ShiftedQuadratic((0.7,), floor=1.0, p=1)
        init = random_init(spec, None, seed=2)
        _, report = minimize(pot, init, SolverConfig(max_iters=5000))
        return spec, pot, report

    def test_quadratic_run_passes_with_floor(self):
        spec, pot, report = self.run_quadratic()
        audit = check_minimizing_bounds(report, spec, f_floor=pot.floor)
        assert audit.all_passed
        assert audit.f_floor == 1.0

    def test_cosine_run_passes(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
        init = random_init(spec, pot.periods, seed=6)
        _, report = minimize(pot, init, SolverConfig(max_iters=4000))
        audit = check_minimizing_bounds(report, spec)
        assert audit.energy_descent.passed and audit.wirtinger.passed and audit.mean_in_cell.passed

    def test_fabricated_out_of_cell_mean_fails(self):
        spec = GridSpec((1.0,), (8,), n=1)
        record = IterationRecord(
            index=0,
            action_total=1.0,
            action_kinetic=0.0,
            action_potential=1.0,
            residual_l2=0.0,
            du_norm_sq=0.0,
            mean=(1.5 * TWO_PI,),
            tilde_norm=0.0,
            step=0.0,
            shifts=(0,),
            gauge_dev=None,
            h1_mass=(1.0,),
        )
        report = RunReport(status="converged", iterations=[record], periods=(TWO_PI,))
        audit = check_minimizing_bounds(report, spec)
        assert not audit.mean_in_cell.passed
        assert audit.energy_descent.passed and audit.wirtinger.passed

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="no recorded iterations"):
            check_minimizing_bounds(RunReport(status="max_iters"), GridSpec((1.0,), (8,)))
