import json
from dataclasses import replace

import numpy as np
import pytest

from retargetkit.errors import DataError
from retargetkit.kinematics import fk_sequence
from retargetkit.motionio import ShapeParams, load_motion, load_skeleton, save_motion, save_obj, save_skeleton
from retargetkit.pipeline import load_manifest, run_pipeline, validate_manifest

from conftest import CARRY_BOX_HALF, held_box_motion, make_box, make_chain, make_humanoid


def write_corpus(root, frames=50, amplitude=0.02, entries=1, episode_stats=None,
                 smooth=None, retarget=None):
    """Write a self-contained identity-retargeting corpus and manifest."""
    root.mkdir(exist_ok=True)
    skel = make_humanoid()
    seq = held_box_motion(skel, frames=frames, amplitude=amplitude)
    box = make_box(half=CARRY_BOX_HALF, subdiv=3)
    save_skeleton(skel, root / "skeleton.json")
    save_obj(box, root / "box.obj")
    manifest_entries = []
    for i in range(entries):
        save_motion(seq, root / f"motion{i}.json")
        manifest_entries.append(
            {
                "id": f"seq{i}",
                "motion": f"motion{i}.json",
                "source_skeleton": "skeleton.json",
                "target_skeleton": "skeleton.json",
                "object": "box.obj",
            }
        )
    if smooth is None:
        window = 5 if frames >= 5 else (3 if frames >= 3 else 1)
        smooth = {"alpha": 1.0, "rotation_window": window}
    manifest = {
        "output_dir": "out",
        "entries": manifest_entries,
        "retarget": retarget
        if retarget is not None
        else {"retention": {"mode": "strict", "proximity_gate": None}},
        "smooth": smooth,
    }
    if episode_stats is not None:
        manifest["episode_stats"] = episode_stats
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return root / "manifest.json"


class TestValidateManifest:
    def test_all_valid(self, tmp_path):
        path = write_corpus(tmp_path, frames=2, entries=3)
        reports = validate_manifest(load_manifest(path))
        assert len(reports) == 3
        assert all(r.ok for r in reports)

    def test_missing_object_flagged(self, tmp_path):
        path = write_corpus(tmp_path, frames=2, entries=2)
        (tmp_path / "box.obj").unlink()
        reports = validate_manifest(load_manifest(path))
        assert all(not r.ok for r in reports)
        assert any("missing file" in p for p in reports[0].problems)

    def test_joint_count_mismatch_flagged(self, tmp_path):
        path = write_corpus(tmp_path, frames=2)
        save_skeleton(make_chain(4), tmp_path / "other.json")
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["target_skeleton"] = "other.json"
        path.write_text(json.dumps(manifest))
        reports = validate_manifest(load_manifest(path))
        assert not reports[0].ok
        assert any("20 joints" in p and "4" in p for p in reports[0].problems)


class TestRunPipeline:
    def test_identity_manifest_preserves_motion(self, tmp_path):
        path = write_corpus(tmp_path, frames=50, amplitude=0.02)
        manifest = load_manifest(path)
        summary = run_pipeline(manifest)
        assert summary.entries[0].status == "ok"
        assert summary.entries[0].fit_residual < 1e-5

        skel = make_humanoid()
        shape = ShapeParams.ones(skel.joint_count)
        original = load_motion(tmp_path / "motion0.json", skel)
        output = load_motion(tmp_path / "out" / "seq0.json", skel)
        err = np.linalg.norm(
            fk_sequence(skel, shape, original) - fk_sequence(skel, shape, output), axis=2
        )
        assert err.max() < 1e-3
        assert (tmp_path / "out" / "seq0.losses.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_corrupt_entry_isolated(self, tmp_path):
        path = write_corpus(tmp_path, frames=3, entries=3)
        (tmp_path / "motion1.json").write_text("{broken")
        summary = run_pipeline(load_manifest(path))
        statuses = {e.entry_id: e.status for e in summary.entries}
        assert statuses == {"seq0": "ok", "seq1": "failed", "seq2": "ok"}
        assert (tmp_path / "out" / "seq0.json").exists()
        assert (tmp_path / "out" / "seq2.json").exists()
        assert not (tmp_path / "out" / "seq1.json").exists()
        assert not summary.all_failed

    def test_one_clip_onto_two_targets_keeps_both_results(self, tmp_path):
        # both entries read motion0.json; each output must hold its own
        # entry's result, the same bytes a manifest of that entry alone writes
        path = write_corpus(tmp_path, frames=3)
        skel = make_humanoid()
        save_skeleton(replace(skel, rest_offsets=skel.rest_offsets * 1.2), tmp_path / "tall.json")
        manifest = json.loads(path.read_text())
        entry = manifest["entries"][0]
        manifest["entries"] = [dict(entry, id="same"), dict(entry, id="tall", target_skeleton="tall.json")]
        path.write_text(json.dumps(manifest))
        summary = run_pipeline(load_manifest(path))
        assert [e.status for e in summary.entries] == ["ok", "ok"]
        names = ("same.json", "same.losses.csv", "tall.json", "tall.losses.csv")
        together = {name: (tmp_path / "out" / name).read_bytes() for name in names}
        assert together["same.json"] != together["tall.json"]
        for single in manifest["entries"]:
            alone = dict(manifest, entries=[single], output_dir=f"alone_{single['id']}")
            path.write_text(json.dumps(alone))
            run_pipeline(load_manifest(path))
            for suffix in (".json", ".losses.csv"):
                name = single["id"] + suffix
                assert (tmp_path / alone["output_dir"] / name).read_bytes() == together[name]

    @pytest.mark.parametrize("entry_id", ["", ".", "..", "a/b", "a\\b", "summary"])
    def test_ids_that_are_not_plain_file_names_rejected(self, tmp_path, entry_id):
        path = write_corpus(tmp_path, frames=2)
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["id"] = entry_id
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="entry id"):
            load_manifest(path)

    def test_rerun_byte_identical(self, tmp_path):
        path = write_corpus(tmp_path, frames=4)
        manifest = load_manifest(path)
        run_pipeline(manifest)
        outputs = sorted((tmp_path / "out").iterdir())
        first = {p.name: p.read_bytes() for p in outputs}
        run_pipeline(manifest)
        second = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
        assert first == second

    def test_filter_runs_when_stats_supplied(self, tmp_path):
        stats = {"seq0": [10.0], "other": [100.0]}
        path = write_corpus(tmp_path, frames=3, episode_stats=stats)
        summary = run_pipeline(load_manifest(path))
        assert summary.filter_state is not None
        assert {c.clip_id for c in summary.filter_state.retained} == {"other"}
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["filter"]["removed"] == ["seq0"]
        assert doc["filter"]["sigma_history"] == [55.0, 100.0]

    def test_jobs_parallel_matches_serial(self, tmp_path):
        path = write_corpus(tmp_path, frames=3, entries=2)
        manifest = load_manifest(path)
        run_pipeline(manifest, jobs=1)
        serial = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
        run_pipeline(manifest, jobs=2)
        parallel = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
        assert serial == parallel

    def test_shape_cache_matches_fresh_fit(self, tmp_path):
        # two entries share the skeleton pair: the second is served from cache
        # and must match a fresh fit exactly
        path = write_corpus(tmp_path, frames=3, entries=2)
        summary = run_pipeline(load_manifest(path))
        assert summary.entries[0].fit_residual == summary.entries[1].fit_residual

        from retargetkit.kinematics import fit_shape, fk, tpose

        skel = load_skeleton(tmp_path / "skeleton.json")
        joints = fk(skel, ShapeParams.ones(skel.joint_count), tpose(skel))
        _, fresh_residual = fit_shape(skel, joints)
        assert summary.entries[0].fit_residual == fresh_residual

    def test_smoothing_reduces_root_energy(self, tmp_path):
        # jittered root: pipeline summary reports before/after energies
        path = write_corpus(tmp_path, frames=30, amplitude=0.02)
        skel = make_humanoid()
        seq = load_motion(tmp_path / "motion0.json", skel)
        jitter = seq.root_pos.copy()
        jitter[:, 2] += 0.004 * (-1.0) ** np.arange(len(jitter))
        from retargetkit.motionio import MotionSequence

        noisy = MotionSequence(
            fps=seq.fps,
            root_pos=jitter,
            root_rot=seq.root_rot.copy(),
            joint_rots=seq.joint_rots.copy(),
            obj_pos=seq.obj_pos.copy(),
            obj_rot=seq.obj_rot.copy(),
        )
        save_motion(noisy, tmp_path / "motion0.json")
        summary = run_pipeline(load_manifest(tmp_path / "manifest.json"))
        entry = summary.entries[0]
        assert entry.status == "ok"
        assert entry.root_energy_after < entry.root_energy_before
