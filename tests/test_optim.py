import numpy as np
import pytest

from retargetkit.errors import NumericalError
from retargetkit.optim import OptimizerConfig, adam_minimize, levenberg_marquardt


def quadratic(center, scale=1.0):
    loss = lambda x: float(scale * np.sum((x - center) ** 2))
    grad = lambda x: scale * 2.0 * (x - center)
    return loss, grad


class TestAdam:
    def test_converges_on_quadratic(self):
        loss, grad = quadratic(np.array([1.0, -2.0, 0.5]))
        res = adam_minimize(loss, grad, np.zeros(3), OptimizerConfig(max_iterations=2000))
        np.testing.assert_allclose(res.x, [1.0, -2.0, 0.5], atol=1e-3)
        assert res.converged

    def test_projection_respected(self):
        loss, grad = quadratic(np.array([5.0]))
        res = adam_minimize(
            loss, grad, np.zeros(1), OptimizerConfig(max_iterations=3000),
            project=lambda x: np.clip(x, -1.0, 2.0),
        )
        assert res.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_accepted_losses_monotone(self):
        observed = []
        loss, grad = quadratic(np.array([3.0, 3.0]), scale=4.0)

        def probe(x):
            value = loss(x)
            observed.append(value)
            return value

        adam_minimize(probe, grad, np.zeros(2), OptimizerConfig(max_iterations=500))
        best = np.inf
        accepted = []
        for v in observed:
            if v <= best:
                accepted.append(v)
                best = v
        assert accepted == sorted(accepted, reverse=True)

    def test_non_finite_raises(self):
        with pytest.raises(NumericalError):
            adam_minimize(lambda x: float("nan"), lambda x: x, np.zeros(2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="newton")
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)


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
