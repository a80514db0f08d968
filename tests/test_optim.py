import numpy as np
import pytest

from retargetkit.errors import DataError, NumericalError
from retargetkit.optim import OptimizerConfig, levenberg_marquardt


class TestOptimizerConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)

    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_rejected(self, patience):
        # patience 0 would stop after one iteration and report convergence
        with pytest.raises(DataError, match="patience"):
            OptimizerConfig(patience=patience)

    def test_defaults_are_the_gauss_newton_settings(self):
        cfg = OptimizerConfig()
        assert (cfg.max_iterations, cfg.improvement_tol, cfg.patience) == (100, 1e-12, 6)


class TestLevenbergMarquardt:
    def test_solves_linear_least_squares(self, rng):
        a = rng.normal(size=(10, 4))
        target = rng.normal(size=10)

        def normal(x):
            r, jac = a @ x - target, a
            return jac.T @ jac, jac.T @ r

        loss = lambda x: float(np.sum((a @ x - target) ** 2))
        res = levenberg_marquardt(normal, loss, None, np.zeros(4),
                                  OptimizerConfig(max_iterations=50, patience=5))
        expected, *_ = np.linalg.lstsq(a, target, rcond=None)
        np.testing.assert_allclose(res.x, expected, atol=1e-8)
        assert res.converged
        assert res.iterations < 20

    def test_start_at_the_minimum_converges_in_one_iteration(self, rng):
        # the step test is scale-free: at the exact minimum the accepted zero
        # step ends the solve, where the relative stall rule would wait out
        # its patience
        a = rng.normal(size=(10, 4))
        x_min = rng.normal(size=4)
        target = a @ x_min

        def normal(x):
            r, jac = a @ x - target, a
            return jac.T @ jac, jac.T @ r

        loss = lambda x: float(np.sum((a @ x - target) ** 2))
        res = levenberg_marquardt(normal, loss, None, x_min, OptimizerConfig())
        assert (res.iterations, res.converged) == (1, True)
        np.testing.assert_allclose(res.x, x_min, rtol=0, atol=1e-12)

    def test_accepted_full_loss_monotone_with_hinges(self):
        # LSQ part pulls toward 2, hinge penalizes x > 1: acceptance uses the
        # full loss, so the accepted sequence must still be monotone
        observed = []

        def normal(x):
            r, jac = x - 2.0, np.eye(1)
            return jac.T @ jac, jac.T @ r

        def full_loss(x):
            value = float((x[0] - 2.0) ** 2 + 5.0 * max(0.0, x[0] - 1.0))
            observed.append(value)
            return value

        def hinge_grad(x):
            return np.array([5.0 if x[0] > 1.0 else 0.0])

        levenberg_marquardt(normal, full_loss, hinge_grad, np.zeros(1),
                            OptimizerConfig(max_iterations=60))
        best = np.inf
        accepted = []
        for v in observed:
            if v <= best:
                accepted.append(v)
                best = v
        assert accepted == sorted(accepted, reverse=True)

    def test_projection_keeps_iterates_feasible(self, rng):
        a = rng.normal(size=(6, 3))
        target = a @ np.array([2.0, 2.0, 2.0])

        def normal(x):
            r, jac = a @ x - target, a
            return jac.T @ jac, jac.T @ r

        loss = lambda x: float(np.sum((a @ x - target) ** 2))
        res = levenberg_marquardt(
            normal, loss, None, np.zeros(3), OptimizerConfig(max_iterations=80),
            project=lambda x: np.clip(x, 0.0, 1.0),
        )
        assert np.all(res.x <= 1.0 + 1e-12)
        np.testing.assert_allclose(res.x, 1.0, atol=1e-6)

    def test_non_finite_raises(self):
        normal = lambda x: (np.eye(2), np.zeros(2))
        with pytest.raises(NumericalError):
            levenberg_marquardt(normal, lambda x: float("nan"), None, np.zeros(2))
        with pytest.raises(NumericalError):  # non-finite normal equations
            levenberg_marquardt(lambda x: (np.eye(2), np.full(2, np.inf)), lambda x: 1.0, None, np.zeros(2))
