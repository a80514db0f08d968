"""The three workloads: inputs, one round of operations, and output checks.

A workload's ``setup`` generates and writes its inputs from the seed;
``run_round`` performs one round of operations (the same ones every round),
timing each step with ``timed(name)``, and returns what the checks need;
``check`` compares round 0 against the benchmark's oracles and returns the
per-round operation count, the failed operations with their reasons and any
unexpected check failures; ``same`` tells whether a later round reproduced
round 0 exactly. ``instrument``
installs the tracer at the layer boundaries.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import fixtures
import oracles
from retargetkit import cli, interactmesh, pipeline, retarget
from retargetkit.errors import EmptyInteractMeshError
from retargetkit.interactmesh import AGENT_A, RetentionRule
from retargetkit.motionio import ShapeParams, load_motion, load_obj, load_skeleton

LIMIT_TOL = 1e-9  # rad, joint limits hold to round-off (projection)
UNIT_TOL = 1e-9  # root quaternion norm
IDENTITY_TOL = 1e-3  # m, criterion 01
FIT_TOL = 1e-4  # m, reported fit RMS above the exact least-squares optimum
# per-bone proportions shared by the coop targets (long arms, short legs)
TARGET_BONE_FACTORS = np.array([1.0, 0.95, 0.95, 0.95, 1.0, 1.05, 1.0, 1.0, 1.1, 1.1,
                                1.0, 1.0, 1.1, 1.1, 1.0, 0.9, 0.9, 1.0, 0.9, 0.9])


def _joints(clip: dict, scales) -> np.ndarray:
    return oracles.fk_frames(fixtures.PARENTS, fixtures.OFFSETS, scales, clip["root_pos"],
                             clip["root_rot"], clip["joint_rots"])


def _limit_excess(joint_rots: np.ndarray) -> float:
    return float(np.max(np.abs(joint_rots)) - fixtures.Q_LIMIT)


def _unit_excess(quats: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.norm(quats, axis=1) - 1.0)))


def _root_energy(root_pos: np.ndarray) -> float:
    d2 = root_pos[:-2] - 2.0 * root_pos[1:-1] + root_pos[2:]
    return float(np.sum(d2 * d2))


# ---------------------------------------------------------------------------


class HeldBoxIdentity:
    """Criterion 01: retarget the held-box clip onto its own skeleton.

    The 100 frames go to the program as four consecutive 25-frame clips, one
    retarget_sequence call each, so that every timed step is short (README,
    "Timing noise"). For identity retargeting a clip's first frame starts at
    its optimum, the source pose, so the seams change neither the work nor
    the criterion.
    """

    name = "held_box_identity"
    segments = 4
    ops_per_round = segments

    def setup(self, seed: int, work: Path) -> None:
        self.clip = fixtures.held_box_clip(np.random.default_rng(seed))
        fixtures.write_skeleton(work / "skeleton.json")
        fixtures.write_obj(work / "box.obj", fixtures.box_vertices())
        self.skeleton = load_skeleton(work / "skeleton.json")
        self.box = load_obj(work / "box.obj")
        self.seqs = []
        for k, frames in enumerate(np.array_split(np.arange(len(self.clip["root_pos"])), self.segments)):
            part = {key: value[frames] if key != "fps" else value for key, value in self.clip.items()}
            fixtures.write_motion(work / f"held_box{k}.json", part)
            self.seqs.append(load_motion(work / f"held_box{k}.json", self.skeleton))
        # whole-body supervision: the proximity gate is off, as in criterion 01
        self.cfg = retarget.RetargetConfig(retention=RetentionRule(mode="strict", proximity_gate=None))

    def run_round(self, index: int, timed):
        ones = ShapeParams.ones(self.skeleton.joint_count)
        results = []
        for k, seq in enumerate(self.seqs):
            with timed(f"segment{k}"):
                results.append(retarget.retarget_sequence(seq, self.skeleton, ones, self.skeleton, ones,
                                                          self.box, self.cfg))
        return results

    def check(self, results, delaunay_calls) -> tuple[int, list, list]:
        errors = []
        out = {key: np.concatenate([getattr(r.sequence, key) for r in results])
               for key in ("root_pos", "root_rot", "joint_rots")}
        if len(out["root_pos"]) != len(self.clip["root_pos"]):
            errors.append(f"{len(out['root_pos'])} frames out, {len(self.clip['root_pos'])} in")
        else:
            ones = np.ones(fixtures.JOINTS)
            deviation = float(np.max(np.linalg.norm(_joints(out, ones) - _joints(self.clip, ones), axis=2)))
            if deviation >= IDENTITY_TOL:
                errors.append(f"identity deviation {deviation:.3e} m >= {IDENTITY_TOL}")
        if _limit_excess(out["joint_rots"]) > LIMIT_TOL:
            errors.append(f"joint limits exceeded by {_limit_excess(out['joint_rots']):.3e} rad")
        if _unit_excess(out["root_rot"]) > UNIT_TOL:
            errors.append(f"root quaternion norm off by {_unit_excess(out['root_rot']):.3e}")
        errors += _delaunay_errors(delaunay_calls)
        return self.ops_per_round, [], errors

    def same(self, a, b) -> bool:
        return all(np.array_equal(getattr(x.sequence, k), getattr(y.sequence, k))
                   for x, y in zip(a, b) for k in ("root_pos", "root_rot", "joint_rots"))


def _delaunay_errors(calls) -> list[str]:
    """Brute-force empty-circumsphere check of every captured tetrahedralization."""
    errors = []
    for k, (points, tets) in enumerate(calls):
        bad = oracles.circumsphere_violations(points, tets)
        if len(bad):
            errors.append(f"delaunay call {k}: {len(bad)} of {len(tets)} tetrahedra have a point "
                          "inside their circumsphere")
    return errors


# ---------------------------------------------------------------------------


class CoopCarryBatch:
    """Two-person carries, each clip retargeted onto several body proportions.

    Each clip has its own manifest listing its three targets, and a round runs
    the pipeline once per manifest, so that each timed step is short (README,
    "Timing noise") while a clip's targets still share one pipeline run.
    """

    name = "coop_carry_batch"
    clips = 2
    frames = 8  # a third of a gait cycle at 30 fps
    target_sizes = (0.9, 1.1, 1.25)  # overall scale of each target body
    ops_per_round = clips * len(target_sizes)

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.work = work
        self.vertices = fixtures.box_vertices()
        fixtures.write_skeleton(work / "source.json")
        fixtures.write_obj(work / "box.obj", self.vertices)
        self.pairs = []
        for c in range(self.clips):
            clip, partner = fixtures.carry_pair(rng, self.frames, phase=2.0 * math.pi * c / self.clips)
            fixtures.write_motion(work / f"carry{c}.json", clip)
            fixtures.write_motion(work / f"partner{c}.json", partner)
            self.pairs.append((clip, partner))
        self.target_offsets = []
        for k, size in enumerate(self.target_sizes):
            offsets = fixtures.OFFSETS * (size * TARGET_BONE_FACTORS)[:, None]
            fixtures.write_skeleton(work / f"target{k}.json", offsets)
            self.target_offsets.append(offsets)
        self.entries = [(c, k) for c in range(self.clips) for k in range(len(self.target_sizes))]
        for c in range(self.clips):
            manifest = {
                "output_dir": "out",
                "entries": [
                    {"id": f"carry{c}-target{k}", "motion": f"carry{c}.json",
                     "second_motion": f"partner{c}.json", "source_skeleton": "source.json",
                     "target_skeleton": f"target{k}.json", "object": "box.obj"}
                    for k in range(len(self.target_sizes))
                ],
                "smooth": {"alpha": 1.0, "rotation_window": 5},
            }
            (work / f"manifest{c}.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")

    def run_round(self, index: int, timed):
        out_dir = self.work / f"round{index}"
        entries = []
        for c in range(self.clips):
            with timed(f"carry{c}"):
                manifest = pipeline.load_manifest(self.work / f"manifest{c}.json")
                manifest = dataclasses.replace(manifest, output_dir=out_dir)
                entries += pipeline.run_pipeline(manifest, jobs=1).entries
        return out_dir, entries

    def _source_meshes(self, c: int, cfg) -> list:
        clip, partner = self.pairs[c]
        ones = np.ones(fixtures.JOINTS)
        world = (np.einsum("tij,vj->tvi", oracles.quat_to_mat(clip["obj_rot"]), self.vertices)
                 + clip["obj_pos"][:, None])
        meshes = retarget.build_frame_meshes(_joints(clip, ones), _joints(partner, ones), world, cfg)
        out = []
        for mesh in meshes:
            if mesh is None:
                out.append(None)
                continue
            rows = [i for i, (kind, _) in enumerate(mesh.points.provenance) if kind == AGENT_A]
            joints = [mesh.points.provenance[i][1] for i in rows]
            coords = mesh.points.coordinates
            if not np.allclose(mesh.reference_laplacians, oracles.laplacians(coords[mesh.tetrahedra]),
                               rtol=0.0, atol=1e-12):
                raise AssertionError("reference Laplacians differ from the oracle's")
            out.append((coords, np.asarray(rows), np.asarray(joints), mesh.tetrahedra))
        return out

    def check(self, output, delaunay_calls) -> tuple[int, list, list]:
        out_dir, entries = output
        failures, errors = [], []
        by_id = {e.entry_id: e for e in entries}
        ids = [f"carry{c}-target{k}" for c, k in self.entries]
        if sorted(by_id) != sorted(ids):
            return self.ops_per_round, failures, [f"summary lists {sorted(by_id)}"]
        # Entries writing the same path: with jobs=1 the last one in manifest
        # order is what the file holds; every earlier one lost its result.
        owner = {}
        for entry_id in ids:
            owner[by_id[entry_id].output_motion] = entry_id
        manifest = pipeline.load_manifest(self.work / "manifest0.json")
        meshes = {}
        for (c, k), entry_id in zip(self.entries, ids):
            entry = by_id[entry_id]
            if entry.status != "ok":
                failures.append((entry_id, f"pipeline failed: {entry.error}"))
                errors.append(f"{entry_id}: unexpected failure {entry.error}")
                continue
            tgt_tpose = oracles.fk_frames(fixtures.PARENTS, self.target_offsets[k], np.ones(fixtures.JOINTS),
                                          np.zeros(3), (1.0, 0.0, 0.0, 0.0),
                                          np.zeros((fixtures.JOINTS - 1, 3)))[0]
            scales, optimum = oracles.tpose_scale_fit(fixtures.PARENTS, fixtures.OFFSETS, tgt_tpose)
            if not optimum - 1e-12 <= entry.fit_residual <= optimum + FIT_TOL:
                errors.append(f"{entry_id}: fit residual {entry.fit_residual:.3e} m, least-squares "
                              f"optimum {optimum:.3e} m")
            if owner[entry.output_motion] != entry_id:
                failures.append((entry_id, f"output overwritten by another entry "
                                           f"({Path(entry.output_motion).name}, by {owner[entry.output_motion]})"))
                continue
            written = fixtures.read_motion(Path(entry.output_motion))
            if len(written["root_pos"]) != self.frames:
                errors.append(f"{entry_id}: {len(written['root_pos'])} frames written, {self.frames} in")
                continue
            if _limit_excess(written["joint_rots"]) > LIMIT_TOL:
                errors.append(f"{entry_id}: joint limits exceeded by {_limit_excess(written['joint_rots']):.3e}")
            if _unit_excess(written["root_rot"]) > UNIT_TOL:
                errors.append(f"{entry_id}: root quaternion norm off by {_unit_excess(written['root_rot']):.3e}")
            if c not in meshes:
                meshes[c] = self._source_meshes(c, manifest.retarget)
            clip = self.pairs[c][0]
            scales[0] = 1.0  # the root's scale moves nothing
            baseline = oracles.mean_laplacian_residual(meshes[c], _joints(clip, scales))
            achieved = oracles.mean_laplacian_residual(meshes[c], _joints(written, scales))
            if not achieved < baseline:
                errors.append(f"{entry_id}: Laplacian residual {achieved:.4f} not below the "
                              f"copy-rotations baseline {baseline:.4f}")
            energy = _root_energy(written["root_pos"])
            if not math.isclose(energy, entry.root_energy_after, rel_tol=1e-9, abs_tol=1e-15):
                errors.append(f"{entry_id}: written root energy {energy:.6e}, reported "
                              f"{entry.root_energy_after:.6e}")
            if entry.root_energy_after > entry.root_energy_before:
                errors.append(f"{entry_id}: smoothing raised the root energy "
                              f"{entry.root_energy_before:.3e} -> {entry.root_energy_after:.3e}")
        errors += _delaunay_errors(delaunay_calls)
        return self.ops_per_round, failures, errors

    def same(self, a, b) -> bool:
        (dir_a, entries_a), (dir_b, entries_b) = a, b
        for e_a, e_b in zip(entries_a, entries_b):
            if (e_a.status, e_a.fit_residual, e_a.mean_terms) != (e_b.status, e_b.fit_residual, e_b.mean_terms):
                return False
        files_a = sorted(p.name for p in dir_a.iterdir() if not p.name.startswith("summary"))
        files_b = sorted(p.name for p in dir_b.iterdir() if not p.name.startswith("summary"))
        return files_a == files_b and all(
            (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in files_a
        )


# ---------------------------------------------------------------------------


class RewardCuration:
    """reward-eval, filter and schedule-sim through the CLI, in process."""

    name = "reward_curation"
    clips = 12
    frames = 48
    kinds = ("perturbed", "self", "flipped")
    filter_clips = 2000
    schedule = {"kappa": 5.0, "epsilon": 10.0, "t_imit": 12, "horizon": 200, "rounds": 30}
    ops_per_round = clips * len(kinds) + 2

    def setup(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.work = work
        self.schedule_seed = int(rng.integers(0, 2**31))
        vertices = fixtures.box_vertices()
        fixtures.write_skeleton(work / "skeleton.json")
        fixtures.write_obj(work / "box.obj", vertices)
        for c in range(self.clips):
            clip, _ = fixtures.carry_pair(rng, self.frames, phase=2.0 * math.pi * c / self.clips)
            clip["contacts"] = fixtures.contact_labels(clip, vertices)
            fixtures.write_motion(work / f"clip{c}.json", clip)
            perturbed = dict(clip)
            perturbed["joint_rots"] = clip["joint_rots"] + rng.normal(0.0, 0.02, clip["joint_rots"].shape)
            perturbed["root_pos"] = clip["root_pos"] + rng.normal(0.0, 0.01, clip["root_pos"].shape)
            perturbed["obj_pos"] = clip["obj_pos"] + rng.normal(0.0, 0.01, clip["obj_pos"].shape)
            fixtures.write_motion(work / f"clip{c}.perturbed.json", perturbed)
            # the same rotations, each quaternion written as its negation
            flipped = dict(clip, root_rot=-clip["root_rot"], obj_rot=-clip["obj_rot"])
            fixtures.write_motion(work / f"clip{c}.flipped.json", flipped)
        self.lengths = {
            f"clip{i:04d}": (rng.uniform(20.0, 1000.0) * rng.uniform(0.5, 1.5, size=int(rng.integers(2, 9)))).tolist()
            for i in range(self.filter_clips)
        }
        (work / "episode_stats.json").write_text(json.dumps(self.lengths), encoding="utf-8")

    def _ref(self, c: int, kind: str) -> Path:
        return self.work / (f"clip{c}.json" if kind == "self" else f"clip{c}.{kind}.json")

    def run_round(self, index: int, timed):
        out = self.work / f"round{index}"
        out.mkdir()
        s = self.schedule
        commands = {
            f"clip{c}-{kind}": [
                "reward-eval", "--motion", str(self.work / f"clip{c}.json"),
                "--ref", str(self._ref(c, kind)), "--skeleton", str(self.work / "skeleton.json"),
                "--obj", str(self.work / "box.obj"), "-o", str(out / f"clip{c}-{kind}.csv"),
            ]
            for c in range(self.clips) for kind in self.kinds
        }
        commands["filter"] = ["filter", "--stats", str(self.work / "episode_stats.json"),
                              "-o", str(out / "filter.json")]
        commands["schedule"] = [
            "schedule-sim", "--kappa", repr(s["kappa"]), "--epsilon", repr(s["epsilon"]),
            "--t-imit", str(s["t_imit"]), "--horizon", str(s["horizon"]), "--rounds", str(s["rounds"]),
            "--seed", str(self.schedule_seed), "-o", str(out / "schedule"),
        ]
        codes = {}
        for op, argv in commands.items():
            with timed(op):
                codes[op] = cli.main(argv)
        return out, codes

    def check(self, output, delaunay_calls) -> tuple[int, list, list]:
        out, codes = output
        failures, errors = [], []
        for op, code in codes.items():
            if code != 0:
                failures.append((op, f"exit code {code}"))
                errors.append(f"{op}: exit code {code}")
        for c in range(self.clips):
            for kind in self.kinds:
                op = f"clip{c}-{kind}"
                if codes[op] != 0:
                    continue
                with open(out / f"{op}.csv", encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if len(rows) != self.frames:
                    errors.append(f"{op}: {len(rows)} rows for {self.frames} frames")
                    continue
                factors = np.array([[float(r[k]) for k in ("imitation", "contact", "energy")] for r in rows])
                total = np.array([float(r["R"]) for r in rows])
                if not np.all((factors > 0.0) & (factors <= 1.0)):
                    errors.append(f"{op}: a reward factor lies outside (0, 1]")
                if not np.allclose(total, factors.prod(axis=1), rtol=1e-12, atol=0.0):
                    errors.append(f"{op}: R is not the product of its factors")
                if kind == "perturbed":
                    continue
                worst = int(np.argmin(factors[:, 0]))
                if factors[worst, 0] != 1.0:
                    reason = (f"imitation below 1.0 against an identical "
                              f"{'reference' if kind == 'self' else 'sign-flipped reference'} "
                              f"({factors[worst, 0]:.4f} at frame {worst})")
                    failures.append((op, reason))
                    if kind == "self":
                        errors.append(f"{op}: {reason}")
        if codes["filter"] == 0:
            errors += self._check_filter(out / "filter.json")
        if codes["schedule"] == 0:
            errors += self._check_schedule(out / "schedule.csv", out / "schedule.transitions.jsonl")
        return self.ops_per_round, failures, errors

    def _check_filter(self, path: Path) -> list[str]:
        doc = json.loads(path.read_text(encoding="utf-8"))
        kept, history = oracles.mean_length_filter(self.lengths)
        errors = []
        if set(doc["retained"]) != kept or set(doc["removed"]) != set(self.lengths) - kept:
            errors.append(f"filter kept {len(doc['retained'])} clips, the oracle {len(kept)}")
        if len(doc["sigma_history"]) != len(history) or not np.allclose(doc["sigma_history"], history,
                                                                          rtol=1e-12, atol=0.0):
            errors.append("filter sigma history differs from the oracle's")
        if doc["iterations"] != len(history) - 1:
            errors.append(f"filter reports {doc['iterations']} passes, the oracle {len(history) - 1}")
        return errors

    def _check_schedule(self, csv_path: Path, transitions_path: Path) -> list[str]:
        s = self.schedule
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        if len(rows) != s["rounds"]:
            return [f"schedule-sim wrote {len(rows)} rounds of {s['rounds']}"]
        for t, row in enumerate(rows):
            gate = oracles.dagger_gate(t, s["kappa"], s["epsilon"])
            if abs(float(row["gate"]) - gate) > 1e-12 or abs(float(row["w"]) - gate) > 1e-12:
                errors.append(f"schedule round {t}: gate {row['gate']}, w {row['w']}, closed form {gate}")
            teacher = round(float(row["teacher_fraction"]) * s["horizon"])
            lo, hi = (s["horizon"], s["horizon"]) if gate == 1.0 else oracles.binomial_interval(s["horizon"], gate)
            if not lo <= teacher <= hi:
                errors.append(f"schedule round {t}: {teacher} teacher steps outside [{lo}, {hi}] at gate {gate}")
            mode = "imitation" if t < s["t_imit"] else "trajectory"
            if row["reward_mode"] != mode:
                errors.append(f"schedule round {t}: reward mode {row['reward_mode']}, expected {mode}")
        with open(transitions_path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != 1 + s["rounds"] * s["horizon"]:
            errors.append(f"schedule-sim logged {lines - 1} transitions of {s['rounds'] * s['horizon']}")
        return errors

    def same(self, a, b) -> bool:
        (dir_a, codes_a), (dir_b, codes_b) = a, b
        names = sorted(p.name for p in dir_a.iterdir())
        return codes_a == codes_b and names == sorted(p.name for p in dir_b.iterdir()) and all(
            (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names
        )


WORKLOADS = {w.name: w for w in (HeldBoxIdentity, CoopCarryBatch, RewardCuration)}


# ---------------------------------------------------------------------------
# tracing


def instrument(tracer, delaunay_calls: list | None) -> None:
    """Wrap the layer boundaries, as the calling modules see them. When
    delaunay_calls is a list, every tetrahedralization's input and output is
    appended to it for the empty-circumsphere check."""
    count = tracer.counts

    def empty_frame(exc):
        if isinstance(exc, EmptyInteractMeshError):
            count["interactmesh.empty_frames"] += 1

    def keep_delaunay(args, kwargs, tets):
        if delaunay_calls is not None:
            delaunay_calls.append((np.array(args[0], dtype=float), tets))

    tracer.patch(retarget, "build_interact_mesh", "interactmesh.build", on_error=empty_frame)
    tracer.patch(interactmesh, "delaunay3d", "interactmesh.delaunay", after=keep_delaunay)
    tracer.patch(retarget, "fk_vector", "kinematics.fk")
    tracer.patch(retarget, "fk_jacobian_vector", "kinematics.jacobian")
    tracer.patch(pipeline, "fit_shape", "kinematics.fit_shape")

    def solver(original):
        def levenberg_marquardt(residual_jac_fn, loss_fn, extra_grad_fn, x0, cfg=None, project=None):
            residual_jac_fn = tracer.wrap("retarget.residual", residual_jac_fn)
            loss_fn = tracer.wrap("retarget.loss", loss_fn)
            if extra_grad_fn is not None:
                extra_grad_fn = tracer.wrap("retarget.hinge", extra_grad_fn)
            with tracer.span("optim.solve"):
                result = original(residual_jac_fn, loss_fn, extra_grad_fn, x0, cfg, project)
            count["optim.iterations"] += result.iterations
            count["optim.unconverged_frames"] += int(not result.converged)
            return result
        return levenberg_marquardt

    tracer.replace(retarget, "levenberg_marquardt", solver)
    for module in (retarget, pipeline):
        tracer.patch(module, "retarget_sequence", "retarget.sequence")
    tracer.patch(pipeline, "load_manifest", "pipeline.manifest")
    tracer.patch(pipeline, "run_pipeline", "pipeline.run")
    tracer.patch(pipeline, "smooth_root", "smoothing.root")
    tracer.patch(pipeline, "smooth_rotations", "smoothing.rotations")
    for module in (pipeline, cli):
        for loader in ("load_skeleton", "load_motion", "load_obj"):
            tracer.patch(module, loader, "motionio.load")

    written = set()

    def output_file(args, kwargs, result):
        if str(args[1]) not in written:
            written.add(str(args[1]))
            count["pipeline.output_files"] += 1

    tracer.patch(pipeline, "save_motion", "motionio.save", after=output_file)
    tracer.patch(cli, "compute_reward", "rewards.compute")
    tracer.patch(cli, "interaction_graph", "rewards.graph")
    tracer.patch(cli, "run_schedule", "schedule.sim",
                 after=lambda a, k, log: count.update({"schedule.sim_steps": len(log.transitions)}))
    tracer.patch(cli, "filter_until_converged", "schedule.filter",
                 after=lambda a, k, state: count.update({"schedule.filter_iterations": state.iteration}))

    def command(original):
        def main(argv=None):
            with tracer.span("cli." + argv[0].replace("-", "_")):
                return original(argv)
        return main

    tracer.replace(cli, "main", command)
