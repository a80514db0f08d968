"""The benchmark's tracer still finds the layer boundaries it patches.

bench/workloads.py wraps functions by module attribute; a refactor that stops
calling one of them through that attribute would silently drop its spans
from `bench/run.py --trace 1`.
"""

from pathlib import Path

import numpy as np
import pytest

from retargetkit import cli, pipeline, retarget
from retargetkit.motionio import ShapeParams, save_motion, save_obj, save_skeleton

from conftest import held_box_motion, make_box, make_humanoid
from test_pipeline import write_corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    try:
        workloads.instrument(tracer, None)
        yield tracer
    finally:
        tracer.restore()


def test_instrumented_layers_record_calls(traced, tmp_path):
    skel = make_humanoid()
    ones = ShapeParams.ones(skel.joint_count)
    retarget.retarget_sequence(held_box_motion(skel, frames=3), skel, ones, skel, ones, make_box(subdiv=2))
    # every frame of the clip is meshed, each with one tetrahedralization
    assert traced.calls["interactmesh.build"] == 3 and traced.counts["interactmesh.empty_frames"] == 0
    assert traced.calls["interactmesh.delaunay"] == 3
    summary = pipeline.run_pipeline(pipeline.load_manifest(write_corpus(tmp_path, frames=3)))
    assert summary.entries[0].status == "ok"

    for name in ("interactmesh.delaunay", "interactmesh.build", "retarget.residual", "retarget.loss",
                 "kinematics.fk", "kinematics.jacobian", "kinematics.fit_shape", "smoothing.root",
                 "smoothing.rotations"):
        assert traced.calls[name] > 0, name


def test_joint_limit_box_reaches_the_traced_solver(traced):
    # the tracer's levenberg_marquardt takes its sixth argument by position,
    # as the box is passed: a traced retargeting onto a target whose +-0.3 rad
    # limits bind writes an untraced run's bytes, with angles on the limits
    source, target = make_humanoid(), make_humanoid(q_limit=0.3)
    ones = ShapeParams.ones(source.joint_count)
    seq, box = held_box_motion(source, frames=3, amplitude=0.2), make_box(subdiv=2)
    seen = retarget.retarget_sequence(seq, source, ones, target, ones, box)
    assert traced.counts["optim.iterations"] > 0  # every frame was solved through the hook
    traced.restore()
    plain = retarget.retarget_sequence(seq, source, ones, target, ones, box)
    for key in ("root_pos", "root_rot", "joint_rots"):
        assert getattr(seen.sequence, key).tobytes() == getattr(plain.sequence, key).tobytes()
    rots = np.abs(plain.sequence.joint_rots)
    assert rots.max() == 0.3


def test_reward_eval_records_reward_calls(traced, tmp_path):
    skel = make_humanoid()
    save_skeleton(skel, tmp_path / "skeleton.json")
    save_motion(held_box_motion(skel, frames=3), tmp_path / "motion.json")
    save_obj(make_box(subdiv=2), tmp_path / "box.obj")
    assert cli.main(["reward-eval", "--motion", str(tmp_path / "motion.json"),
                     "--ref", str(tmp_path / "motion.json"), "--skeleton", str(tmp_path / "skeleton.json"),
                     "--obj", str(tmp_path / "box.obj"), "-o", str(tmp_path / "rewards.csv")]) == 0

    for name in ("rewards.compute", "rewards.graph"):
        assert traced.calls[name] > 0, name
