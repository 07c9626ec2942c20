import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad import (
    CosineLattice,
    ExpressionPotential,
    Field,
    GridSpec,
    GrowthEnvelope,
    LinearForcing,
    ShiftedQuadratic,
    SolverConfig,
    action,
    action_gradient,
    continuity_bound,
    el_residual,
    l2_inner,
    laplacian,
    minimize,
)
from poisson_grad.action import PotentialDomainError
from poisson_grad.verify import certify

from helpers import action_fsum_oracle, gaussian_field, random_field

TWO_PI = 2.0 * np.pi


class TestActionValue:
    def test_constant_at_quadratic_center(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        pot = ShiftedQuadratic((1.0, 2.0), floor=1.0, p=2)
        a = action(Field.constant(spec, (1.0, 2.0)), pot)
        assert a.kinetic == 0.0
        assert a.total == pytest.approx(spec.volume, abs=0)

    def test_zero_field_cosine_floor(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
        a = action(Field.zeros(spec), pot)
        assert a.total == pytest.approx(0.1 * spec.volume, rel=1e-14)
        assert a.kinetic == 0.0

    def test_total_is_exact_sum_of_parts(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        pot = ShiftedQuadratic((0.5, -0.5), floor=1.0, p=2)
        a = action(gaussian_field(spec, np.random.default_rng(0)), pot)
        assert a.total == a.kinetic + a.potential

    @pytest.mark.parametrize(
        "make_pot",
        [
            lambda spec: ShiftedQuadratic((0.3, -1.2), floor=0.7, p=spec.p),
            lambda spec: CosineLattice(
                [1.0, 0.6], [TWO_PI, 3.0], floor=0.2, modulation=0.4,
                mod_extent=spec.extents[0], p=spec.p,
            ),
        ],
        ids=["quadratic", "cosine"],
    )
    def test_matches_independent_fsum_oracle(self, make_pot):
        spec = GridSpec((1.0, 1.3), (8, 8), n=2)
        pot = make_pot(spec)
        u = gaussian_field(spec, np.random.default_rng(12), scale=2.0)
        total = action(u, pot).total
        assert total == pytest.approx(action_fsum_oracle(u, pot), rel=1e-12)


class TestActionGradient:
    def test_critical_point_of_quadratic(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        pot = ShiftedQuadratic((1.0, 2.0), floor=1.0, p=2)
        g = action_gradient(Field.constant(spec, (1.0, 2.0)), pot)
        npt.assert_array_equal(g.values, 0.0)

    def test_linear_forcing_gradient_formula(self):
        spec = GridSpec((1.0,), (16,), n=2)
        rng = np.random.default_rng(5)
        f = Field(spec, rng.standard_normal(spec.shape))
        u = gaussian_field(spec, rng)
        g = action_gradient(u, LinearForcing(f))
        direct = -laplacian(u).values - f.values
        npt.assert_allclose(g.values, direct, rtol=0, atol=1e-12)

    def test_pairing_matches_central_differences(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        pot = CosineLattice(
            [1.0, 0.7], [TWO_PI, TWO_PI], floor=0.1, modulation=0.3,
            mod_extent=1.0, p=2,
        )
        rng = np.random.default_rng(42)
        eps = 1e-6
        for _ in range(10):
            u = random_field(spec, rng, 0.0, TWO_PI)
            v = rng.standard_normal(spec.shape)
            v /= np.sqrt(np.sum(v * v))
            ip = l2_inner(action_gradient(u, pot), Field(spec, v))
            fd = (
                action(Field(spec, u.values + eps * v), pot).total
                - action(Field(spec, u.values - eps * v), pot).total
            ) / (2.0 * eps)
            assert abs(fd - ip) <= 1e-6 * max(abs(ip), 1e-9)

    def test_kinetic_invariant_under_constant_shift(self):
        spec = GridSpec((1.0, 1.0), (8, 8), n=2)
        pot = ShiftedQuadratic((0.0, 0.0), floor=1.0, p=2)
        u = gaussian_field(spec, np.random.default_rng(1))
        shifted = u.shifted((0.25, -0.75))
        assert action(u, pot).kinetic == action(shifted, pot).kinetic

    def test_periodic_shift_invariance(self):
        spec = GridSpec((1.0,), (32,), n=2)
        pot = CosineLattice([1.0, 0.5], [TWO_PI, 4.0], floor=0.1, p=1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_field(spec, rng, 0.0, 3.0)
            base = action(u, pot).total
            for i in range(2):
                offset = np.zeros(2)
                offset[i] = pot.periods[i]
                shifted_total = action(u.shifted(offset), pot).total
                assert abs(shifted_total - base) <= 1e-12 * abs(base)

    def test_positive_potential_floors_action(self):
        spec = GridSpec((1.0,), (16,), n=1)
        pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        u = random_field(spec, np.random.default_rng(8), 0.0, TWO_PI)
        a = action(u, pot)
        assert a.total >= a.kinetic
        assert a.total >= 0.1 * spec.volume - 1e-9

    def test_domain_error_carries_node_location(self):
        spec = GridSpec((1.0,), (4,), n=1)
        pot = ExpressionPotential("sqrt(x1)", 1, 1)
        u = Field(spec, np.array([1.0, 4.0, -9.0, 16.0]))
        with pytest.raises(PotentialDomainError) as err:
            action(u, pot)
        assert err.value.node_index == (2,)
        assert err.value.coords == (0.5,)


class TestGridContract:
    """A potential is bound only to a grid of its own p and n."""

    def test_quadratic_of_one_component_is_not_minimized_on_two(self):
        spec = GridSpec((1.0,), (8,), n=2)
        with pytest.raises(ValueError, match=r"p = 1, n = 1, but the grid has p = 1, n = 2"):
            minimize(ShiftedQuadratic([0.5]), Field.zeros(spec), SolverConfig())

    def test_cosine_of_one_component_does_not_certify_two(self):
        spec = GridSpec((1.0, 1.0), (6, 6), n=2)
        pot = CosineLattice([1.0], [TWO_PI], p=2)
        for check in (el_residual, lambda u, pot: certify(u, pot, 1e-8)):
            with pytest.raises(ValueError, match="'cosine' has p = 2, n = 1"):
                check(Field.zeros(spec), pot)

    def test_expression_in_two_times_is_not_bound_to_one(self):
        spec = GridSpec((1.0,), (8,), n=1)
        pot = ExpressionPotential("t2 * x1", 2, 1)
        for evaluate in (action, action_gradient):
            with pytest.raises(ValueError, match="'expr' has p = 2, n = 1"):
                evaluate(Field.zeros(spec), pot)


class TestContinuityBound:
    def setup_method(self):
        self.spec = GridSpec((1.0,), (32,), n=1)
        self.pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
        self.env = GrowthEnvelope(m=0.0, g_max=1.0)

    def test_identical_fields(self):
        u = random_field(self.spec, np.random.default_rng(0), 0.0, TWO_PI)
        bound = continuity_bound(u, u, self.pot, self.env)
        assert bound.lhs == 0.0 and bound.rhs == 0.0 and bound.passed

    def test_random_pair_sweep(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u = random_field(self.spec, rng, 0.0, TWO_PI)
            v = random_field(self.spec, rng, 0.0, TWO_PI)
            assert continuity_bound(u, v, self.pot, self.env).passed

    def test_shrinking_perturbations_dominated(self):
        rng = np.random.default_rng(6)
        v = random_field(self.spec, rng, 0.0, TWO_PI)
        delta = rng.standard_normal(self.spec.shape)
        previous = np.inf
        last_rhs = np.inf
        for k in range(40):
            u = Field(self.spec, v.values + (0.5**k) * delta)
            bound = continuity_bound(u, v, self.pot, self.env)
            assert bound.passed
            assert bound.lhs <= previous
            previous = bound.lhs
            last_rhs = bound.rhs
        assert previous <= 1e-7
        assert last_rhs <= 1e-5

    def test_quadratic_envelope_pair(self):
        spec = GridSpec((1.0,), (16,), n=2)
        pot = ShiftedQuadratic((1.0, -1.0), floor=1.0, p=1)
        env = GrowthEnvelope(m=1.0, g_max=float(np.sqrt(2.0)))
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = gaussian_field(spec, rng, scale=2.0)
            v = gaussian_field(spec, rng, scale=2.0)
            assert continuity_bound(u, v, pot, env).passed
