import numpy as np
import pytest

from retargetkit.errors import DataError
from retargetkit.schedule import (
    ClipStats,
    ScheduleConfig,
    dagger_gate,
    filter_step,
    filter_until_converged,
    lazy_student,
    loss_weight,
    make_filter_state,
    pd_teacher,
    point_mass_env,
    reward_mode,
    run_schedule,
    select_source,
)


def brute_force_filter(lengths: dict[str, float]) -> tuple[set, list]:
    """Oracle: repeated mean-filter loop over {id: mean length}."""
    retained = dict(lengths)
    sigma_trace = []
    while True:
        sigma = sum(retained.values()) / len(retained)
        sigma_trace.append(sigma)
        drop = {k for k, v in retained.items() if v < sigma}
        if not drop:
            return set(retained), sigma_trace
        for k in drop:
            del retained[k]


class TestGateFormulas:
    def test_gate_values(self):
        cfg = ScheduleConfig(epsilon=10.0, kappa=5.0, t_imit=3, horizon=1)
        assert dagger_gate(0, cfg) == 1.0
        assert dagger_gate(5, cfg) == 1.0
        assert dagger_gate(10, cfg) == 0.5
        assert dagger_gate(15, cfg) == 0.0
        assert dagger_gate(16, cfg) == 0.0

    def test_piecewise_linear_shape(self):
        cfg = ScheduleConfig(epsilon=7.0, kappa=3.0, t_imit=0, horizon=1)
        for t in np.linspace(0, 3, 13):
            assert dagger_gate(float(t), cfg) == 1.0
        for t in np.linspace(3, 10, 29):
            assert dagger_gate(float(t), cfg) == pytest.approx(1.0 - (t - 3.0) / 7.0, abs=1e-12)
        for t in np.linspace(10, 30, 7):
            assert dagger_gate(float(t), cfg) == 0.0

    def test_loss_weight_equals_gate_everywhere(self):
        # exhaustive sweep oracle
        cfg = ScheduleConfig(epsilon=10.0, kappa=5.0, t_imit=3, horizon=1)
        for t in range(0, 1001):
            assert loss_weight(t, cfg) == dagger_gate(t, cfg)

    def test_negative_round_rejected(self):
        cfg = ScheduleConfig(epsilon=1.0, kappa=0.0, t_imit=0, horizon=1)
        with pytest.raises(DataError):
            dagger_gate(-1, cfg)


class TestSelectSource:
    def test_full_gate_always_teacher(self):
        assert select_source(0.3, 1.0) == "teacher"

    def test_zero_gate_student(self):
        assert select_source(0.3, 0.0) == "student"

    def test_boundary_is_teacher(self):
        assert select_source(0.5, 0.5) == "teacher"

    def test_u_range_enforced(self):
        with pytest.raises(DataError):
            select_source(1.0, 0.5)


class TestRewardMode:
    def test_switch_boundary(self):
        cfg = ScheduleConfig(epsilon=1.0, kappa=0.0, t_imit=10, horizon=1)
        assert reward_mode(0, cfg) == "imitation"
        assert reward_mode(9, cfg) == "imitation"
        assert reward_mode(10, cfg) == "trajectory"
        assert reward_mode(10**6, cfg) == "trajectory"


class TestRunSchedule:
    def _run(self, **kw):
        defaults = dict(epsilon=2.0, kappa=2.0, t_imit=4, horizon=10, seed=0)
        defaults.update(kw)
        cfg = ScheduleConfig(**defaults)
        return run_schedule(pd_teacher(), lazy_student(), point_mass_env, cfg, rounds=6)

    def test_gate_sequence(self):
        log = self._run()
        assert [r.gate for r in log.rounds] == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]

    def test_pure_teacher_rounds_exact(self):
        log = self._run()
        for r in log.rounds[:3]:
            assert r.teacher_fraction == 1.0

    def test_monte_carlo_fraction_at_half_gate(self):
        # seeded concentration check at gate 0.5
        cfg = ScheduleConfig(epsilon=2.0, kappa=2.0, t_imit=4, horizon=10_000, seed=7)
        log = run_schedule(pd_teacher(), lazy_student(), point_mass_env, cfg, rounds=4)
        assert log.rounds[3].gate == 0.5
        assert abs(log.rounds[3].teacher_fraction - 0.5) < 0.02

    def test_reward_mode_flips_at_t_imit(self):
        log = self._run()
        assert [r.reward_mode for r in log.rounds] == ["imitation"] * 4 + ["trajectory"] * 2

    def test_bit_deterministic(self):
        a = self._run()
        b = self._run()
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # the PCG64 generator refuses a negative seed; the config refuses it first
        with pytest.raises(DataError, match="seed"):
            ScheduleConfig(seed=seed)

    def test_transitions_recorded_every_step(self):
        log = self._run()
        assert len(log.transitions) == 6 * 10
        tr = log.transitions[0]
        assert tr.round == 0 and tr.step == 1
        # executed action must match the logged source
        expected = tr.expert_action if tr.source == "teacher" else tr.action
        assert tr.next_state == pytest.approx(point_mass_env(tr.state, expected))

    def test_blended_objective_logged(self):
        log = self._run()
        for r in log.rounds:
            assert r.blended == pytest.approx(
                r.weight * r.objective + (1 - r.weight) * r.action_loss, abs=1e-12
            )

    def test_rng_header(self):
        log = self._run()
        assert log.rng_algorithm == "numpy-pcg64"
        assert log.seed == 0


class TestFilter:
    def test_example_10_10_100(self):
        state = make_filter_state({"a": [10.0], "b": [10.0], "c": [100.0]})
        assert state.sigma == pytest.approx(40.0)
        state = filter_step(state)
        assert state.removed == {"a", "b"}
        assert state.sigma == pytest.approx(100.0)
        assert state.sigma_history == (40.0, 100.0)

    def test_equal_lengths_fixed_point(self):
        state = make_filter_state({"a": [5.0], "b": [5.0, 5.0]})
        out = filter_until_converged(state)
        assert out is state  # unchanged, zero additional iterations
        assert out.iteration == 0

    def test_converged_trace(self):
        state = filter_until_converged(make_filter_state({"a": [10.0], "b": [10.0], "c": [100.0]}))
        assert state.iteration == 1
        assert set(c.clip_id for c in state.retained) == {"c"}
        assert state.sigma_history == (40.0, 100.0)

    def test_matches_brute_force_on_1_to_100(self):
        lengths = {f"c{i}": [float(i)] for i in range(1, 101)}
        state = filter_until_converged(make_filter_state(lengths))
        expected_ids, trace = brute_force_filter({k: v[0] for k, v in lengths.items()})
        assert {c.clip_id for c in state.retained} == expected_ids
        assert state.iteration <= 100

    def test_random_corpora_match_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 50))
            lengths = {f"c{i}": [float(rng.integers(1, 500))] for i in range(n)}
            state = filter_until_converged(make_filter_state(lengths))
            expected_ids, trace = brute_force_filter({k: v[0] for k, v in lengths.items()})
            assert {c.clip_id for c in state.retained} == expected_ids
            # sigma history is monotone non-decreasing
            hist = state.sigma_history
            assert all(hist[i] <= hist[i + 1] + 1e-12 for i in range(len(hist) - 1))
            assert state.iteration <= n

    def test_idempotent(self, rng):
        lengths = {f"c{i}": [float(rng.integers(1, 100))] for i in range(20)}
        once = filter_until_converged(make_filter_state(lengths))
        twice = filter_until_converged(once)
        assert once == twice

    def test_multi_episode_means(self):
        state = make_filter_state({"a": [10.0, 20.0], "b": [100.0, 200.0]})
        # means are 15 and 150; sigma 82.5; clip a removed
        out = filter_until_converged(state)
        assert {c.clip_id for c in out.retained} == {"b"}

    def test_empty_stats_rejected(self):
        with pytest.raises(DataError):
            make_filter_state({})
        with pytest.raises(DataError):
            ClipStats("x", ())
