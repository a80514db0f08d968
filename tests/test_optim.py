import numpy as np
import pytest

from retargetkit.errors import DataError, NumericalError
from retargetkit import optim
from retargetkit.optim import OptimizerConfig, levenberg_marquardt, lockstep_levenberg_marquardt


def each(fns):
    """Problem k's callable fns[k], of one vector, in the solvers' (rows, X)
    form: the list of its answers at the rows' points."""
    def batched(rows, x):
        return [fns[k](v) for k, v in zip(rows, x)]
    return batched


def row_forms(members):
    """The solvers' (rows, X) normal, loss and hinge gradient callables over
    members, each (normal, loss, hinge gradient or None) of one vector; a
    hinge gradient that no member has is None."""
    pairs = each([m[0] for m in members])

    def normal(rows, x):
        answers = pairs(rows, x)
        return np.stack([a[0] for a in answers]), np.stack([a[1] for a in answers])

    losses = each([m[1] for m in members])
    hinges = each([m[2] or np.zeros_like for m in members])
    return (normal, lambda rows, x: np.array(losses(rows, x)),
            None if all(m[2] is None for m in members) else lambda rows, x: np.stack(hinges(rows, x)))


def stacked_box(boxes, size):
    """The (K, P) box of K problems of size P, each given as its (lo, hi)
    pair of (P,) arrays or None for no box (+-inf); None when none has one."""
    if all(box is None for box in boxes):
        return None
    free = (np.full(size, -np.inf), np.full(size, np.inf))
    return tuple(np.stack([(box or free)[side] for box in boxes]) for side in (0, 1))


def solo(normal, loss, hinge, x0, cfg=None, bounds=None):
    """levenberg_marquardt on one problem given by callables of one vector."""
    return levenberg_marquardt(*row_forms([(normal, loss, hinge)]), x0, cfg, bounds)


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
        res = solo(normal, loss, None, np.zeros(4), OptimizerConfig(max_iterations=50, patience=5))
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
        res = solo(normal, loss, None, x_min, OptimizerConfig())
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

        solo(normal, full_loss, hinge_grad, np.zeros(1), OptimizerConfig(max_iterations=60))
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
        res = solo(normal, loss, None, np.zeros(3), OptimizerConfig(max_iterations=80),
                   bounds=(np.zeros(3), np.ones(3)))
        assert np.all(res.x <= 1.0 + 1e-12)
        np.testing.assert_allclose(res.x, 1.0, atol=1e-6)

    def test_non_finite_raises(self):
        normal = lambda x: (np.eye(2), np.zeros(2))
        with pytest.raises(NumericalError):
            solo(normal, lambda x: float("nan"), None, np.zeros(2))
        with pytest.raises(NumericalError):  # non-finite normal equations
            solo(lambda x: (np.eye(2), np.full(2, np.inf)), lambda x: 1.0, None, np.zeros(2))


def curve_fit(a, b):
    """Rosenbrock's residuals (a - x0, sqrt(b) (x1 - x0^2)): normal equations and loss."""
    def residuals(x):
        r = np.array([a - x[0], np.sqrt(b) * (x[1] - x[0] ** 2)])
        jac = np.array([[-1.0, 0.0], [-2.0 * np.sqrt(b) * x[0], np.sqrt(b)]])
        return r, jac

    def normal(x):
        r, jac = residuals(x)
        return jac.T @ jac, jac.T @ r

    return normal, lambda x: float(residuals(x)[0] @ residuals(x)[0])


def indefinite_start(x):
    """Normal equations whose first damped system is exactly singular: the
    -1e-4 diagonal entry is replaced by 1 in the damping, and 1e-4 * 1
    cancels it."""
    normal, _ = curve_fit(1.0, 1.0)
    jtj, jtr = normal(x)
    if not x.any():
        jtj = np.array([[-1e-4, 0.0], [0.0, 1.0]])
    return jtj, jtr


def blows_up(x):
    return float("nan") if x[0] > 0.5 else float((x[0] - 2.0) ** 2 + x[1] ** 2)


class TestLockstep:
    """The lockstep driver returns, for every member, what the one-problem
    driver returns on that member alone."""

    CFG = OptimizerConfig(max_iterations=60)

    def members(self):
        """(normal, loss, hinge gradient, box, x0) per member, the box a
        (lo, hi) pair or None."""
        rosenbrock, rosenbrock_loss = curve_fit(1.0, 100.0)
        easy, easy_loss = curve_fit(1.0, 1.0)
        shifted, shifted_loss = curve_fit(-0.5, 4.0)
        box = (np.full(2, -0.4), np.full(2, 0.6))  # holds x0 at -0.4, short of -0.5
        # x0 free, and x1 held at 0.1, below the minimum's 0.25
        half_open = (np.full(2, -np.inf), np.array([np.inf, 0.1]))
        hinge_loss = lambda x: shifted_loss(x) + 0.3 * max(0.0, x[1] - 0.2)
        hinge = lambda x: np.array([0.0, 0.3 if x[1] > 0.2 else 0.0])
        drift = lambda x: (np.eye(2), np.array([-1.0, 0.0]) * (x[0] <= 0.5))
        return [
            (rosenbrock, rosenbrock_loss, None, None, np.array([-1.2, 1.0])),
            (easy, easy_loss, None, None, np.array([0.3, 0.2])),
            (indefinite_start, easy_loss, None, None, np.zeros(2)),
            (shifted, hinge_loss, hinge, box, np.array([0.2, 0.3])),  # runs to the cap
            (easy, easy_loss, None, None, np.array([1.0, 1.0])),  # at the minimum
            (shifted, shifted_loss, None, half_open, np.array([0.2, 0.3])),
            (drift, blows_up, None, None, np.zeros(2)),
        ]

    def solo_outcome(self, member):
        normal, loss, hinge, box, x0 = member
        try:
            return solo(normal, loss, hinge, x0, self.CFG, box)
        except NumericalError as exc:
            return exc

    def lockstep(self, members):
        x0 = np.stack([m[4] for m in members])
        return lockstep_levenberg_marquardt(*row_forms([m[:3] for m in members]), x0, self.CFG,
                                            stacked_box([m[3] for m in members], x0.shape[1]))

    def test_every_member_matches_its_solo_solve(self, monkeypatch):
        members = self.members()
        steps = []
        solve = optim._stacked_solve

        def recorded(systems):
            answers = solve(systems)
            steps.extend(answers)
            return answers

        monkeypatch.setattr(optim, "_stacked_solve", recorded)
        alone = [self.solo_outcome(m) for m in members]
        assert any(step is None for step in steps)  # the indefinite start's first damped system
        together = self.lockstep(members)
        for solo, joint in zip(alone, together):
            if isinstance(solo, NumericalError):
                assert type(joint) is NumericalError and str(joint) == str(solo)
                continue
            assert joint.x.tobytes() == solo.x.tobytes()
            assert (joint.loss, joint.iterations, joint.converged) == (solo.loss, solo.iterations, solo.converged)
        iterations = [r.iterations for r in alone if not isinstance(r, NumericalError)]
        assert len(set(iterations)) >= 4 and min(iterations) == 1 and max(iterations) == self.CFG.max_iterations
        assert isinstance(alone[-1], NumericalError)

    def test_members_keep_their_recorded_outcomes(self):
        # the discrete outcomes as first recorded, so a change to the loop
        # cannot move every member alike unnoticed
        *solved, failed = self.lockstep(self.members())
        assert [(r.iterations, r.converged) for r in solved] == [(28, True), (5, True), (6, True), (60, False),
                                                                 (1, True), (60, False)]
        # the half-open box holds x1 on its bound and leaves x0 free
        assert solved[-1].x[1] == 0.1 and -0.4 < solved[-1].x[0] < 0.2
        assert type(failed) is NumericalError and str(failed) == "non-finite loss at iteration 1"

    def test_solo_raises_the_error_its_lockstep_member_returns(self):
        members = self.members()
        together = self.lockstep(members)
        normal, loss, hinge, box, x0 = members[-1]
        with pytest.raises(NumericalError) as alone:
            solo(normal, loss, hinge, x0, self.CFG, box)
        assert type(together[-1]) is NumericalError and str(together[-1]) == str(alone.value)
        assert str(alone.value).startswith("non-finite loss")

    def test_rosenbrock_rejects_steps(self):
        normal, loss, *_ = self.members()[0]
        observed = []
        solo(normal, lambda x: observed.append(loss(x)) or observed[-1], None, np.array([-1.2, 1.0]), self.CFG)
        best = np.inf
        rejected = 0
        for value in observed:
            rejected += value > best
            best = min(best, value)
        assert rejected >= 1

    def test_members_leave_in_any_order(self):
        # the same members in reverse order, and in a batch of their own
        members = self.members()
        forward = self.lockstep(members)
        backward = self.lockstep(members[::-1])[::-1]
        for a, b in zip(forward, backward):
            if isinstance(a, NumericalError):
                assert str(a) == str(b)
            else:
                assert a.x.tobytes() == b.x.tobytes() and a.iterations == b.iterations


ARM_LINKS = np.array([1.0, 0.8, 0.6])
SOURCE_ANGLES = np.array([0.3, 0.5, -0.4])


def scaled_arm(scale, weight=0.1):
    """A planar three-link arm scaled by `scale`, its joints held to those of
    the unscaled arm at SOURCE_ANGLES and its angles to SOURCE_ANGLES with
    `weight`: normal equations and loss. A scaled arm cannot reach the
    unscaled joints, so the residual is nonzero at the optimum, and
    Gauss-Newton converges only linearly there, as on a scaled target body."""
    links = scale * ARM_LINKS

    def joints(theta, lengths):
        phi = np.cumsum(theta)
        positions = np.cumsum(lengths[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1), axis=0)
        tangents = lengths[:, None] * np.stack([-np.sin(phi), np.cos(phi)], axis=1)
        jac = np.zeros((3, 2, 3))
        for j in range(3):
            for m in range(j + 1):  # angle m turns segments m..j
                jac[j, :, m] = tangents[m:j + 1].sum(axis=0)
        return positions, jac

    def residuals(theta):
        positions, jac = joints(theta, links)
        r = np.concatenate([(positions - joints(SOURCE_ANGLES, ARM_LINKS)[0]).ravel(),
                            np.sqrt(weight) * (theta - SOURCE_ANGLES)])
        return r, np.vstack([jac.reshape(6, 3), np.sqrt(weight) * np.eye(3)])

    def normal(x):
        r, jac = residuals(x)
        return jac.T @ jac, jac.T @ r

    return normal, lambda x: float(residuals(x)[0] @ residuals(x)[0])


class TestPredictedGain:
    """A solve stops, converged, when the step solved at a newly accepted
    point (or the start) predicts a loss decrease of at most improvement_tol
    times the loss; its trial is not evaluated."""

    # scale: (iterations, loss) with only the step and stall rules
    STEP_AND_STALL = {0.9: (24, 0.08226617357327216), 1.1: (15, 0.06481858683339153),
                      1.25: (17, 0.3092364757714888)}

    def test_scaled_arms_stop_before_the_stalls(self):
        members = [scaled_arm(scale) + (None, None, SOURCE_ANGLES) for scale in self.STEP_AND_STALL]
        normal, loss, _ = row_forms([m[:3] for m in members])
        together = lockstep_levenberg_marquardt(normal, loss, None, np.stack([m[4] for m in members]))
        for (iterations, recorded), member, joint in zip(self.STEP_AND_STALL.values(), members, together):
            alone = solo(member[0], member[1], None, member[4])
            assert joint.x.tobytes() == alone.x.tobytes()
            assert (joint.loss, joint.iterations, joint.converged) == (alone.loss, alone.iterations, True)
            assert joint.iterations < iterations
            assert abs(joint.loss - recorded) <= 1e-9 * recorded

    def test_damped_first_solve_far_from_the_minimum_does_not_stop(self, monkeypatch):
        # the model's slope is 1e-11 of the residual's, so every step
        # overshoots until rejections raise the damping from 1e-4 past 5e10;
        # the first solve at each accepted point then starts from that
        # damping, and its step predicts a gain below 1e-12 of the loss
        # while the loss is still 0.56% above its minimum
        slope = 1e-11
        normal = lambda x: (np.array([[slope**2]]), slope * (x - 2.0))
        loss = lambda x: float((x[0] - 2.0) ** 2 + 1.0)  # minimum 1 at x = 2
        systems = []
        solve = optim._stacked_solve
        monkeypatch.setattr(optim, "_stacked_solve", lambda s: systems.extend(s) or solve(s))
        res = solo(normal, loss, None, np.zeros(1), OptimizerConfig(patience=40))
        # each damped system is (slope^2 (1 + lam), slope (2 - x)): its damping and its point's loss
        damped = [(a[0, 0] / slope**2 - 1.0, 1.0 + (b[0] / slope) ** 2) for a, b in systems]
        assert any(lam >= 1e6 * 1e-4 and point_loss >= 1.0 + 1e-3 for lam, point_loss in damped)
        assert res.converged and res.loss < 1.0 + 1e-6

    @pytest.mark.parametrize("rhs, h, jtj", [(np.inf, np.inf, 1.0), (0.0, 1.0, np.inf), (0.0, 0.0, 0.0)])
    def test_non_finite_or_singular_prediction_never_stops(self, rhs, h, jtj):
        # inf - inf and 0 - inf: a NaN and a -inf predicted decrease; a zero
        # J^T J, whose undamped step does not exist
        p = optim._Problem(np.zeros(1), 1.0, system=(np.array([[jtj]]), np.array([rhs]), np.ones(1)))
        assert not optim._no_gain(p, np.array([h]), 1e-12)
