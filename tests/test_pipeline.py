import gc
import shutil
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from retargetkit import interactmesh, pipeline, retarget
from retargetkit.errors import DataError
from retargetkit.kinematics import fk_sequence
from retargetkit.motionio import ShapeParams, load_motion, load_skeleton, save_motion, save_obj, save_skeleton
from retargetkit.pipeline import load_manifest, run_pipeline, validate_manifest

from conftest import (
    CARRY_BOX_HALF,
    count_insertions,
    held_box_motion,
    make_box,
    make_chain,
    make_humanoid,
    partner_motion,
)


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

    def test_misaligned_second_motion_flagged(self, tmp_path):
        # validation reports what the run fails the entry for
        path = write_corpus(tmp_path, frames=4)
        save_motion(held_box_motion(make_humanoid(), frames=3), tmp_path / "second.json")
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["second_motion"] = "second.json"
        path.write_text(json.dumps(manifest))
        reports = validate_manifest(load_manifest(path))
        assert not reports[0].ok
        assert any("3 frames" in p and "has 4" in p for p in reports[0].problems)
        assert "not time-aligned" in run_pipeline(load_manifest(path)).entries[0].error


    def test_unusable_file_name_is_reported_for_its_entry_alone(self, tmp_path):
        path = write_corpus(tmp_path, frames=2, entries=2)
        manifest = json.loads(path.read_text())
        name = "x" * 300 + ".json"  # longer than a file name may be
        manifest["entries"][0]["target_skeleton"] = name
        path.write_text(json.dumps(manifest))
        reports = validate_manifest(load_manifest(path))
        assert [(r.ok, r.problems) for r in reports] == [
            (False, [f"target_skeleton: missing file {tmp_path / name}"]), (True, [])]

    def test_reads_each_file_once_as_the_run_does(self, tmp_path, monkeypatch):
        # one clip with a partner onto three targets: the scene's four files
        # once for the group, then each target once
        path, manifest, carry = TestSourceMeshCache.carry_corpus(tmp_path)
        entries = [carry] + [dict(carry, id=t, target_skeleton=f"{t}.json") for t in ("tall", "short")]
        path.write_text(json.dumps(dict(manifest, entries=entries)))
        loads = []
        for name in ("load_skeleton", "load_motion", "load_obj"):
            monkeypatch.setattr(pipeline, name,
                                lambda *args, _load=getattr(pipeline, name): loads.append(args[0]) or _load(*args))
        assert all(r.ok for r in validate_manifest(load_manifest(path)))
        validated = len(loads)
        assert [e.status for e in run_pipeline(load_manifest(path)).entries] == ["ok"] * 3
        assert (validated, len(loads) - validated) == (7, 7)

    def test_problem_is_the_runs_summary_error(self, tmp_path):
        path = write_corpus(tmp_path, frames=2)
        save_skeleton(make_chain(4), tmp_path / "other.json")
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["target_skeleton"] = "other.json"
        path.write_text(json.dumps(manifest))
        problems = validate_manifest(load_manifest(path))[0].problems
        assert problems == [run_pipeline(load_manifest(path)).entries[0].error]
        assert problems == ["DataError: cannot fit: source has 20 joints, target has 4"]

    def test_any_loader_error_is_reported_for_its_entry_alone(self, tmp_path, monkeypatch):
        path = write_corpus(tmp_path, frames=2, entries=3)
        load_motion = pipeline.load_motion

        def failing(motion_path, skeleton):
            if motion_path.name == "motion1.json":
                raise OSError("device not ready")
            return load_motion(motion_path, skeleton)

        monkeypatch.setattr(pipeline, "load_motion", failing)
        reports = validate_manifest(load_manifest(path))
        assert [(r.ok, r.problems) for r in reports] == [(True, []), (False, ["OSError: device not ready"]),
                                                         (True, [])]


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

    @pytest.mark.parametrize("doc", ["[" * 100_000 + "]" * 100_000, "[" + "1" * 5000 + "]"],
                             ids=["deep-nesting", "long-integer"])
    def test_unreadable_motion_is_a_data_error_of_its_entry(self, tmp_path, doc):
        path = write_corpus(tmp_path, frames=3, entries=3)
        (tmp_path / "motion1.json").write_text(doc)
        summary = run_pipeline(load_manifest(path))
        assert [e.status for e in summary.entries] == ["ok", "failed", "ok"]
        assert summary.entries[1].error.startswith(f"DataError: {tmp_path / 'motion1.json'}: ")
        assert validate_manifest(load_manifest(path))[1].problems == [summary.entries[1].error]

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

    def test_target_joint_limits_bound_the_output(self, tmp_path):
        # the target's +-0.3 rad limits reach the solver; smoothing is off so
        # the written motion is the retargeted one
        path = write_corpus(tmp_path, frames=10, smooth={"alpha": 0.0, "rotation_window": 1})
        save_skeleton(make_humanoid(q_limit=0.3), tmp_path / "tight.json")
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["target_skeleton"] = "tight.json"
        path.write_text(json.dumps(manifest))
        assert run_pipeline(load_manifest(path)).entries[0].status == "ok"
        written = load_motion(tmp_path / "out" / "seq0.json", make_humanoid())
        assert np.abs(written.joint_rots).max() <= 0.3 + 1e-12

    def test_partial_optimizer_section_keeps_the_default_solver(self, tmp_path):
        # capping the iterations alone must leave the rest of the solver at its
        # defaults: the same bytes as a manifest with no optimizer section
        path = write_corpus(tmp_path, frames=4)
        manifest = json.loads(path.read_text())
        capped = dict(manifest["retarget"], optimizer={"max_iterations": 100})
        written = {}
        for name, retarget in (("default", manifest["retarget"]), ("capped", capped)):
            path.write_text(json.dumps(dict(manifest, retarget=retarget, output_dir=name)))
            run_pipeline(load_manifest(path))
            written[name] = [(tmp_path / name / f"seq0{s}").read_bytes() for s in (".json", ".losses.csv")]
        assert written["capped"] == written["default"]

    @pytest.mark.parametrize("entry_id", ["", ".", "..", "a/b", "a\\b", "summary"])
    def test_ids_that_are_not_plain_file_names_rejected(self, tmp_path, entry_id):
        path = write_corpus(tmp_path, frames=2)
        manifest = json.loads(path.read_text())
        manifest["entries"][0]["id"] = entry_id
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="entry id"):
            load_manifest(path)

    @pytest.mark.parametrize("key", ["motion", "target_skeleton", "output_dir"])
    def test_nul_in_a_path_rejected(self, tmp_path, key):
        # os.path.realpath, which keys the groups and bridges, raises ValueError on it
        path = write_corpus(tmp_path, frames=2)
        manifest = json.loads(path.read_text())
        (manifest if key == "output_dir" else manifest["entries"][0])[key] = "a\u0000b"
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"field '{key}' must be a non-empty path string"):
            load_manifest(path)

    @pytest.mark.parametrize("retarget_settings, key", [
        ({"max_object_vertices": 0}, "max_object_vertices"),
        ({"max_object_vertices": -2}, "max_object_vertices"),
        ({"optimizer": {"patience": 0}}, "patience"),
    ])
    def test_out_of_range_retarget_setting_rejected(self, tmp_path, retarget_settings, key):
        path = write_corpus(tmp_path, frames=4, retarget=retarget_settings)
        with pytest.raises(DataError, match=key):
            load_manifest(path)

    @pytest.mark.parametrize("section, settings, key", [
        ("retarget", {"optimizer": {"max_iterations": 2.5}}, "max_iterations"),
        ("smooth", {"alpha": 1.0, "rotation_window": 3.0}, "rotation_window"),
        ("retarget", {"laplacian_weight": float("nan")}, "laplacian_weight"),
        ("retarget", {"foot_speed_threshold": float("inf")}, "foot_speed_threshold"),
        ("retarget", {"retention": {"proximity_gate": float("nan")}}, "proximity_gate"),
        ("smooth", {"alpha": float("inf")}, "alpha"),
        ("smooth", {"alpha": True}, "alpha"),
    ], ids=["fractional-iterations", "float-window", "nan-weight", "inf-threshold", "nan-gate",
            "inf-alpha", "boolean-alpha"])
    def test_mistyped_or_non_finite_setting_rejected(self, tmp_path, section, settings, key):
        # refused when the manifest is read, not by every entry when it runs
        path = write_corpus(tmp_path, frames=4, **{section: settings})
        with pytest.raises(DataError, match=key):
            load_manifest(path)

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), -1.0, pytest.param(True, id="bool"),
                                        pytest.param("50", id="text"), pytest.param(10**400, id="int-beyond-float")])
    def test_malformed_episode_length_rejected(self, tmp_path, length):
        path = write_corpus(tmp_path, frames=2, episode_stats={"seq0": [10.0], "other": [length]})
        with pytest.raises(DataError, match="clip 'other'"):
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

    def test_manifests_on_one_box_share_its_seed(self, tmp_path, monkeypatch):
        path = write_corpus(tmp_path, frames=4)
        skel = make_humanoid()
        save_skeleton(replace(skel, rest_offsets=skel.rest_offsets * 1.2), tmp_path / "tall.json")
        manifest = json.loads(path.read_text())
        tall = dict(manifest["entries"][0], id="tall", target_skeleton="tall.json")
        manifests = [dict(manifest, output_dir="first"), dict(manifest, output_dir="second", entries=[tall])]
        inserted = count_insertions(monkeypatch)

        def run_both(clear_between):
            written = {}
            for m in manifests:
                if clear_between:
                    interactmesh._seed_store.cache_clear()
                path.write_text(json.dumps(m))
                assert [e.status for e in run_pipeline(load_manifest(path)).entries] == ["ok"]
                out = tmp_path / m["output_dir"]
                written.update({f"{m['output_dir']}/{p.name}": p.read_bytes() for p in out.iterdir()})
                shutil.rmtree(out)
            return written

        shared = run_both(clear_between=False)
        assert inserted.count([56]) == 1  # the box's 56 vertices, inserted once for both manifests
        inserted.clear()
        assert run_both(clear_between=True) == shared
        assert inserted.count([56]) == 2
        assert len(shared) == 8  # each manifest: motion, losses, summary.csv, summary.json

    def test_filter_runs_when_stats_supplied(self, tmp_path):
        stats = {"seq0": [10.0], "other": [100.0]}
        path = write_corpus(tmp_path, frames=3, episode_stats=stats)
        summary = run_pipeline(load_manifest(path))
        assert summary.filter_state is not None
        assert {c.clip_id for c in summary.filter_state.retained} == {"other"}
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["filter"]["removed"] == ["seq0"]
        assert doc["filter"]["sigma_history"] == [55.0, 100.0]

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

    def test_overflowing_alpha_fails_its_entry_as_numerical(self, tmp_path):
        # I + alpha D2^T D2 overflows at alpha 1e308: the solve failed, not the data
        path = write_corpus(tmp_path, frames=5, smooth={"alpha": 1e308, "rotation_window": 3})
        (entry,) = run_pipeline(load_manifest(path)).entries
        assert entry.status == "failed"
        assert entry.error.startswith("NumericalError: ")


FRAMES = 3
OUTPUTS = (".json", ".losses.csv")


@pytest.fixture
def mesh_builds(monkeypatch):
    """One item per interact-mesh build."""
    calls = []
    original = retarget.build_interact_mesh

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(retarget, "build_interact_mesh", counting)
    return calls


class TestSourceMeshCache:
    """Entries that share a source scene share its interact meshes in a run."""

    @staticmethod
    def carry_corpus(root):
        """A two-agent carry clip, targets and variant inputs; returns the
        manifest path, its JSON and the carry entry onto the source skeleton."""
        path = write_corpus(root, frames=FRAMES)
        skel = make_humanoid()
        partner = partner_motion(skel, load_motion(root / "motion0.json", skel))
        save_motion(partner, root / "partner.json")
        save_motion(replace(partner, root_pos=partner.root_pos + (0.0, 0.05, 0.0)), root / "partner_far.json")
        short = replace(partner, root_pos=partner.root_pos[:-1], root_rot=partner.root_rot[:-1],
                        joint_rots=partner.joint_rots[:-1], obj_pos=partner.obj_pos[:-1],
                        obj_rot=partner.obj_rot[:-1])
        save_motion(short, root / "partner_short.json")
        save_obj(make_box(half=CARRY_BOX_HALF, subdiv=2), root / "box2.obj")
        for name, scale in (("tall", 1.2), ("short", 0.9)):
            save_skeleton(replace(skel, rest_offsets=skel.rest_offsets * scale), root / f"{name}.json")
        manifest = json.loads(path.read_text())
        carry = dict(manifest["entries"][0], id="same", second_motion="partner.json")
        return path, manifest, carry

    @staticmethod
    def run(path, manifest, entries, output_dir="out"):
        path.write_text(json.dumps(dict(manifest, entries=entries, output_dir=output_dir)))
        return run_pipeline(load_manifest(path))

    def assert_outputs_match_alone(self, path, manifest, entries):
        root = path.parent
        together = {e["id"] + s: (root / "out" / (e["id"] + s)).read_bytes() for e in entries for s in OUTPUTS}
        for entry in entries:
            self.run(path, manifest, [entry], output_dir=f"alone_{entry['id']}")
            for suffix in OUTPUTS:
                name = entry["id"] + suffix
                assert (root / f"alone_{entry['id']}" / name).read_bytes() == together[name], name

    def test_one_clip_onto_three_targets_builds_its_meshes_once(self, tmp_path, mesh_builds):
        path, manifest, carry = self.carry_corpus(tmp_path)
        entries = [carry] + [dict(carry, id=t, target_skeleton=f"{t}.json") for t in ("tall", "short")]
        summary = self.run(path, manifest, entries)
        assert [e.status for e in summary.entries] == ["ok"] * 3
        assert [e.entry_id for e in summary.entries] == ["same", "tall", "short"]
        assert len(mesh_builds) == FRAMES
        self.assert_outputs_match_alone(path, manifest, entries)

    @pytest.mark.parametrize("field, value", [("object", "box2.obj"), ("second_motion", "partner_far.json")])
    def test_entries_with_another_scene_build_their_own(self, tmp_path, mesh_builds, field, value):
        path, manifest, carry = self.carry_corpus(tmp_path)
        entries = [carry, dict(carry, id="other", **{field: value})]
        summary = self.run(path, manifest, entries)
        assert [e.status for e in summary.entries] == ["ok", "ok"]
        assert len(mesh_builds) == 2 * FRAMES
        self.assert_outputs_match_alone(path, manifest, entries)

    def test_broken_shared_source_fails_each_of_its_entries(self, tmp_path):
        # the partner is a frame short: both entries on it fail as each does
        # alone, and the entry on another partner is untouched
        path, manifest, carry = self.carry_corpus(tmp_path)
        broken = dict(carry, second_motion="partner_short.json")
        entries = [dict(broken, id="a"), dict(broken, id="b", target_skeleton="tall.json"), carry]
        summary = self.run(path, manifest, entries)
        error = "DataError: second-agent sequence is not time-aligned with the source"
        assert [(e.status, e.error) for e in summary.entries] == [("failed", error)] * 2 + [("ok", "")]
        for entry in entries[:2]:
            assert self.run(path, manifest, [entry], output_dir="alone").entries[0].error == error

    def test_broken_shared_file_fails_its_group_with_one_error(self, tmp_path):
        # the group reads its partner once, from the first entry's spelling:
        # a NaN in it fails both entries with that one error, and the entry
        # on another partner is untouched
        path, manifest, carry = self.carry_corpus(tmp_path)
        doc = json.loads((tmp_path / "partner.json").read_text())
        doc["frames"][1]["root_pos"][0] = float("nan")
        (tmp_path / "partner_nan.json").write_text(json.dumps(doc))
        (tmp_path / "sub").mkdir()
        broken = dict(carry, second_motion="partner_nan.json")
        again = dict(broken, id="b", target_skeleton="tall.json", second_motion="sub/../partner_nan.json")
        entries = [dict(broken, id="a"), again, carry]
        summary = self.run(path, manifest, entries)
        error = f"DataError: {tmp_path}/partner_nan.json: frame 1 root_pos contains non-finite values"
        assert [(e.status, e.error) for e in summary.entries] == [("failed", error)] * 2 + [("ok", "")]
        alone = self.run(path, manifest, [again], output_dir="alone").entries[0].error
        assert alone == error.replace("/partner_nan", "/sub/../partner_nan")

    def test_a_group_reads_its_shared_files_once(self, tmp_path, monkeypatch):
        # one clip and its partner onto three targets: the source skeleton,
        # motion, partner and box are read once, and each target once
        path, manifest, carry = self.carry_corpus(tmp_path)
        loads = []

        def counting(name, original):
            return lambda *args: loads.append(name) or original(*args)

        for name in ("load_skeleton", "load_motion", "load_obj"):
            monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
        entries = [carry] + [dict(carry, id=t, target_skeleton=f"{t}.json") for t in ("tall", "short")]
        summary = self.run(path, manifest, entries)
        assert [e.status for e in summary.entries] == ["ok"] * 3
        assert [loads.count(name) for name in ("load_skeleton", "load_motion", "load_obj")] == [4, 2, 1]

    def test_failed_build_fails_its_group(self, tmp_path, monkeypatch):
        # the clip's one mesh build raises: every entry of its group fails
        # with that error after the one attempt, as each fails alone
        path, manifest, carry = self.carry_corpus(tmp_path)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            raise RuntimeError("no mesh")

        monkeypatch.setattr(retarget, "build_interact_mesh", failing)
        entries = [carry, dict(carry, id="tall", target_skeleton="tall.json")]
        summary = self.run(path, manifest, entries)
        assert [(e.status, e.error) for e in summary.entries] == [("failed", "RuntimeError: no mesh")] * 2
        assert len(calls) == 1
        for entry in entries:
            assert self.run(path, manifest, [entry], output_dir="alone").entries[0].error == "RuntimeError: no mesh"

    def test_two_spellings_of_one_motion_form_one_group(self, tmp_path, monkeypatch):
        # motion0.json and sub/../motion0.json name one file: one group, so
        # one mesh build, and one fit of its one skeleton pair
        path, manifest, carry = self.carry_corpus(tmp_path)
        (tmp_path / "sub").mkdir()
        builds, fits = [], []
        original_build, original_fit = retarget.build_frame_meshes, pipeline.bridge
        monkeypatch.setattr(retarget, "build_frame_meshes",
                            lambda *args, **kwargs: builds.append(None) or original_build(*args, **kwargs))
        monkeypatch.setattr(pipeline, "bridge", lambda *args: fits.append(None) or original_fit(*args))
        entries = [carry, dict(carry, id="again", motion="sub/../motion0.json")]
        summary = self.run(path, manifest, entries)
        assert [e.status for e in summary.entries] == ["ok", "ok"]
        assert (len(builds), len(fits)) == (1, 1)
        self.assert_outputs_match_alone(path, manifest, entries)

    def test_symlink_loop_fails_only_its_entry(self, tmp_path):
        path, manifest, carry = self.carry_corpus(tmp_path)
        (tmp_path / "loop_a.json").symlink_to("loop_b.json")
        (tmp_path / "loop_b.json").symlink_to("loop_a.json")
        summary = self.run(path, manifest, [dict(carry, id="loop", motion="loop_a.json"), carry])
        assert [e.status for e in summary.entries] == ["failed", "ok"]
        assert summary.entries[0].error.startswith("OSError: ")

    def test_meshes_dropped_after_their_last_entry(self, tmp_path, monkeypatch):
        # clip 0 goes to two targets, then clip 1 runs: by clip 1's build no
        # mesh of clip 0 is alive any more
        path, manifest, carry = self.carry_corpus(tmp_path)
        save_motion(held_box_motion(make_humanoid(), frames=FRAMES, amplitude=0.05), tmp_path / "motion1.json")
        original = retarget.build_frame_meshes
        built, alive_at_build = [], []

        def tracking(*args, **kwargs):
            gc.collect()
            alive_at_build.append([ref() is not None for ref in built])
            meshes = original(*args, **kwargs)
            built.append(weakref.ref(meshes[0]))
            return meshes

        monkeypatch.setattr(retarget, "build_frame_meshes", tracking)
        entries = [carry, dict(carry, id="tall", target_skeleton="tall.json"),
                   dict(carry, id="clip1", motion="motion1.json", second_motion=None)]
        summary = self.run(path, manifest, entries)
        assert [e.status for e in summary.entries] == ["ok"] * 3
        assert alive_at_build == [[], [False]]

    def test_interleaved_sources_build_once_and_drop_after_their_last_entry(self, tmp_path, monkeypatch):
        # s0 -> t0, s1 -> t0, s0 -> t1: a clip's meshes live only while its own
        # group runs, so s0's are not built yet when s1's are, and by the time
        # the summary is written neither source's meshes are alive
        path, manifest, carry = self.carry_corpus(tmp_path)
        save_motion(held_box_motion(make_humanoid(), frames=FRAMES, amplitude=0.05), tmp_path / "motion1.json")
        original_build, original_summary = retarget.build_frame_meshes, pipeline._write_summary
        built, alive_at_build, alive_at_summary = [], [], []

        def alive():
            gc.collect()
            return [ref() is not None for ref in built]

        def tracking(*args, **kwargs):
            alive_at_build.append(alive())
            meshes = original_build(*args, **kwargs)
            built.append(weakref.ref(meshes[0]))
            return meshes

        def summary_tracking(*args):
            alive_at_summary.append(alive())
            return original_summary(*args)

        monkeypatch.setattr(retarget, "build_frame_meshes", tracking)
        monkeypatch.setattr(pipeline, "_write_summary", summary_tracking)
        entries = [carry, dict(carry, id="s1", motion="motion1.json"),
                   dict(carry, id="s0-tall", target_skeleton="tall.json")]
        summary = self.run(path, manifest, entries)
        assert [(e.entry_id, e.status) for e in summary.entries] == [(e["id"], "ok") for e in entries]
        assert alive_at_build == [[], [False]]
        assert alive_at_summary == [[False, False]]
        self.assert_outputs_match_alone(path, manifest, entries)

    def test_two_clips_onto_one_target_fit_its_bridge_once(self, tmp_path, monkeypatch):
        # s0 -> tall, s1 -> tall: two groups, one skeleton pair, one fit per run
        path, manifest, carry = self.carry_corpus(tmp_path)
        save_motion(held_box_motion(make_humanoid(), frames=FRAMES, amplitude=0.05), tmp_path / "motion1.json")
        fits = []
        original = pipeline.bridge
        monkeypatch.setattr(pipeline, "bridge", lambda *args: fits.append(None) or original(*args))
        tall = dict(carry, target_skeleton="tall.json")
        entries = [dict(tall, id="s0-tall"), dict(tall, id="s1-tall", motion="motion1.json")]
        summary = self.run(path, manifest, entries)
        assert [e.status for e in summary.entries] == ["ok", "ok"]
        assert len(fits) == 1
        assert summary.entries[0].fit_residual == summary.entries[1].fit_residual
        self.assert_outputs_match_alone(path, manifest, entries)


class TestLockstepGroups:
    """Entries that share source meshes are retargeted in one lockstep call;
    each entry gets the outputs, summary row and iteration counts it gets in
    a manifest of its own, and a target that fails fails only its entry."""

    FRAMES = 6

    def corpus(self, root):
        """A two-agent carry clip and targets that differ in proportions,
        limits and feet; returns the manifest path, its JSON and one entry
        per target."""
        path = write_corpus(root, frames=self.FRAMES, amplitude=0.2,
                            retarget={"retention": {"proximity_gate": 0.5}})
        skel = make_humanoid()
        save_motion(partner_motion(skel, load_motion(root / "motion0.json", skel)), root / "partner.json")
        targets = {
            "tall": replace(skel, rest_offsets=skel.rest_offsets * 1.2),
            "tight": replace(make_humanoid(q_limit=0.3), rest_offsets=skel.rest_offsets * 0.9),
            "one_foot": replace(skel, rest_offsets=skel.rest_offsets * 1.1, foot_joints=frozenset({16})),
        }
        for name, target in targets.items():
            save_skeleton(target, root / f"{name}.json")
        manifest = json.loads(path.read_text())
        carry = dict(manifest["entries"][0], second_motion="partner.json")
        return path, manifest, [dict(carry, id=name, target_skeleton=f"{name}.json") for name in targets]

    @staticmethod
    def run(path, manifest, entries, monkeypatch):
        """Run the entries; returns the summary rows by id, each entry's
        output bytes and its per-frame iteration counts."""
        calls = []
        original = pipeline.retarget_sequence

        def recording(*args, **kwargs):
            results = original(*args, **kwargs)
            calls.append(results if isinstance(results, list) else [results])
            return results

        monkeypatch.setattr(pipeline, "retarget_sequence", recording)
        out = path.parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        path.write_text(json.dumps(dict(manifest, entries=entries)))
        run_pipeline(load_manifest(path))
        rows = {line.split(",", 1)[0]: line for line in (out / "summary.csv").read_text().splitlines()[1:]}
        files = {e["id"]: [(out / (e["id"] + s)).read_bytes() for s in OUTPUTS] for e in entries
                 if (out / (e["id"] + ".json")).exists()}
        iterations = [[[f.iterations for f in r.per_frame_losses] for r in results
                       if not isinstance(r, Exception)] for results in calls]
        return rows, files, iterations, calls

    def test_three_targets_match_three_manifests_of_one(self, tmp_path, monkeypatch):
        path, manifest, entries = self.corpus(tmp_path)
        lockstep = []
        original = retarget.lockstep_levenberg_marquardt
        monkeypatch.setattr(retarget, "lockstep_levenberg_marquardt",
                            lambda *args, **kwargs: lockstep.append(len(args[3])) or original(*args, **kwargs))
        rows, files, iterations, calls = self.run(path, manifest, entries, monkeypatch)
        assert [len(results) for results in calls] == [3]  # one call for the three targets
        assert lockstep and max(lockstep) == 3
        assert len({tuple(its) for its in iterations[0]}) == 3  # the targets take their own counts
        for entry, its in zip(entries, iterations[0]):
            alone_rows, alone_files, alone_iterations, _ = self.run(path, manifest, [entry], monkeypatch)
            assert alone_rows[entry["id"]] == rows[entry["id"]]
            assert alone_files[entry["id"]] == files[entry["id"]]
            assert alone_iterations == [[its]]

    def test_a_target_that_fails_its_solve_fails_alone(self, tmp_path, monkeypatch):
        # NaN joint limits make the target's loss non-finite at frame 0; its
        # siblings in the lockstep solve keep going and write what they write alone
        path, manifest, entries = self.corpus(tmp_path)
        skel = make_humanoid()
        save_skeleton(replace(skel, names=tuple(f"broken_{name}" for name in skel.names)), tmp_path / "broken.json")
        bridge = pipeline.bridge

        def breaking(source, target):
            # a skeleton file cannot hold NaN limits, so the broken target's bridge gets them here
            skeleton, shape, residual = bridge(source, target)
            if target.names[0].startswith("broken_"):
                object.__setattr__(skeleton, "q_min", np.full_like(skeleton.q_min, np.nan))
            return skeleton, shape, residual

        monkeypatch.setattr(pipeline, "bridge", breaking)
        group = [entries[0], dict(entries[0], id="broken", target_skeleton="broken.json"), entries[1]]
        rows, files, _, _ = self.run(path, manifest, group, monkeypatch)
        error = "NumericalError: frame 0: non-finite loss at iteration 0"
        assert [rows[e["id"]].split(",")[1:3] for e in group] == [["ok", ""], ["failed", error], ["ok", ""]]
        assert sorted(files) == [entries[0]["id"], entries[1]["id"]]
        alone_rows, alone_files, _, _ = self.run(path, manifest, [group[1]], monkeypatch)
        assert alone_rows["broken"].split(",")[1:3] == ["failed", error]
        for entry in (entries[0], entries[1]):
            alone_rows, alone_files, _, _ = self.run(path, manifest, [entry], monkeypatch)
            assert (alone_rows[entry["id"]], alone_files[entry["id"]]) == (rows[entry["id"]], files[entry["id"]])

    def test_a_target_that_fails_to_load_leaves_its_group(self, tmp_path, monkeypatch):
        path, manifest, entries = self.corpus(tmp_path)
        save_skeleton(make_chain(4), tmp_path / "chain.json")
        group = [entries[0], dict(entries[0], id="chain", target_skeleton="chain.json"), entries[2]]
        rows, files, _, calls = self.run(path, manifest, group, monkeypatch)
        assert rows["chain"].split(",")[1] == "failed" and "joints" in rows["chain"]
        assert [len(results) for results in calls] == [2]
        for entry in (entries[0], entries[2]):
            alone_rows, alone_files, _, _ = self.run(path, manifest, [entry], monkeypatch)
            assert (alone_rows[entry["id"]], alone_files[entry["id"]]) == (rows[entry["id"]], files[entry["id"]])

    def test_scaled_bridges_stop_on_the_predicted_gain(self):
        # a partnered clip onto three scaled bridges; with only the step and
        # stall rules its frames took 197 Gauss-Newton iterations in all
        source = make_humanoid()
        seq = held_box_motion(source, frames=self.FRAMES, amplitude=0.2)
        partner = partner_motion(source, seq)
        box = make_box(half=CARRY_BOX_HALF, subdiv=3)
        cfg = retarget.RetargetConfig(retention=interactmesh.RetentionRule(proximity_gate=0.5))
        bridges = [pipeline.bridge(source, replace(source, rest_offsets=source.rest_offsets * s))
                   for s in (0.9, 1.1, 1.25)]
        ones = ShapeParams.ones(source.joint_count)

        def run(skeletons, shapes):
            return retarget.retarget_sequence(seq, source, ones, skeletons, shapes, box, cfg, partner)

        def outcome(result):
            arrays = (result.sequence.root_pos, result.sequence.root_rot, result.sequence.joint_rots)
            return [a.tobytes() for a in arrays], result.per_frame_losses

        together = run([b[0] for b in bridges], [b[1] for b in bridges])
        for (skeleton, shape, _), result in zip(bridges, together):
            assert outcome(run(skeleton, shape)) == outcome(result)
        assert sum(f.iterations for r in together for f in r.per_frame_losses) < 197
        assert not any(f.mesh_empty for r in together for f in r.per_frame_losses)
        again = run([b[0] for b in bridges], [b[1] for b in bridges])
        assert [outcome(r) for r in again] == [outcome(r) for r in together]
