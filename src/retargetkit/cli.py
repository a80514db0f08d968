"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Flags override config-file values (--config, JSON keyed by flag names with
underscores); machine output goes to stdout or the -o target, human-readable
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyInteractMeshError, NumericalError
from .interactmesh import RetentionRule, build_interact_mesh, mesh_to_dict
from .kinematics import fk_sequence
from .motionio import ShapeParams, load_motion, load_obj, load_skeleton, read_json, save_motion
from .optim import OptimizerConfig
from .pipeline import (
    fit_bridge,
    load_manifest,
    run_pipeline,
    smooth_motion,
    validate_manifest,
    write_losses_csv,
)
from .retarget import (
    RetargetConfig,
    object_world_vertices,
    retarget_sequence,
)
from .rewards import (
    ObservationFrame,
    RewardConfig,
    compute_reward,
    interaction_graph,
    with_reference,
)
from .schedule import (
    ScheduleConfig,
    filter_until_converged,
    lazy_student,
    make_filter_state,
    pd_teacher,
    point_mass_env,
    run_schedule,
)
from .rotations import quat_log_relative
from .smoothing import SmoothConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser: _Parser):
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--config", type=str, default=None, help="JSON config file mirroring flag names")
    parser.add_argument("--verbose", type=int, default=0, help="verbosity level")


def _load_config(args, unflagged: tuple[str, ...] = ()) -> dict:
    """The --config settings; each key must name one of the command's flags
    (with underscores) or one of the unflagged settings it reads."""
    config = read_json(args.config) if getattr(args, "config", None) else {}
    if not isinstance(config, dict):
        raise DataError(f"{args.config}: config must be a JSON object")
    unknown = sorted(set(config) - set(vars(args)) - set(unflagged) - {"command"})
    if unknown:
        raise DataError(f"{args.config}: unknown config keys for {args.command}: {', '.join(unknown)}")
    return config


def _setting(args, config: dict, name: str, default):
    """CLI flag if given, else config-file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return config.get(name, default)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="retargetkit", description="Interaction-preserving motion retargeting toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("fit-shape",
                       help="fit bone scales of a skeleton to another skeleton's T-pose",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--skeleton", required=True, help="skeleton whose scales are fitted")
    p.add_argument("--target", required=True, help="skeleton supplying the target T-pose joints")
    p.add_argument("-o", "--output", default=None, help="output JSON path (default: stdout)")
    _add_common(p)

    p = sub.add_parser("retarget",
                       help="retarget a motion onto a target skeleton",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--src", required=True, help="source motion JSON")
    p.add_argument("--src-skel", required=True, help="source skeleton JSON")
    p.add_argument("--tgt-skel", required=True, help="target skeleton JSON")
    p.add_argument("--obj", required=True, help="object mesh OBJ")
    p.add_argument("--second-src", default=None, help="second-agent motion JSON (context)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--laplacian-weight", type=float, default=None, help="laplacian term weight (default 1.0)")
    p.add_argument("--temporal-weight", type=float, default=None, help="temporal term weight (default 1.0)")
    p.add_argument("--jlimit-weight", type=float, default=None, help="joint-limit term weight (default 1.0)")
    p.add_argument("--vlimit-weight", type=float, default=None, help="velocity-limit term weight (default 1.0)")
    p.add_argument("--slide-weight", type=float, default=None, help="foot-slide term weight (default 1.0)")
    p.add_argument("--foot-speed-threshold", type=float, default=None,
                   help="source horizontal foot speed gate, m/s (default 0.01)")
    p.add_argument("--retention", choices=("strict", "loose"), default=None,
                   help="tetrahedron retention rule (default strict)")
    p.add_argument("--proximity-gate", default=None,
                   help="joint-to-object gate in meters, or 'none' (default 0.5)")
    p.add_argument("--max-object-vertices", type=int, default=None,
                   help="object subsample budget (default 64)")
    p.add_argument("--mesh-rebuild", choices=("per-frame", "first-frame"), default=None,
                   help="interact-mesh rebuild policy (default per-frame)")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="descent iteration cap per frame (default 100)")
    _add_common(p)

    p = sub.add_parser("smooth",
                       help="smooth a motion's root trajectory and rotations",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--motion", required=True, help="motion JSON")
    p.add_argument("--skeleton", required=True, help="skeleton JSON the motion binds to")
    p.add_argument("--alpha", type=float, default=None, help="root regularization alpha (default 1.0)")
    p.add_argument("--window", type=int, default=None, help="odd rotation window (default 5)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    _add_common(p)

    p = sub.add_parser("reward-eval",
                       help="evaluate the tracking reward of a motion against a reference",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--motion", required=True, help="simulated/retargeted motion JSON")
    p.add_argument("--ref", required=True, help="reference motion JSON")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--obj", required=True, help="object mesh OBJ")
    p.add_argument("--lambda-delta", type=float, default=None, help="imitation coefficient (default 1.0)")
    p.add_argument("--lambda-c", type=float, default=None, help="contact coefficient (default 1.0)")
    p.add_argument("--lambda-v", type=float, default=None, help="velocity coefficient (default 1.0)")
    p.add_argument("--lambda-f", type=float, default=None, help="force coefficient (default 1.0)")
    p.add_argument("--contact-near", type=float, default=None, help="contact zone bound, m (default 0.07)")
    p.add_argument("--contact-far", type=float, default=None, help="penalty zone bound, m (default 0.2)")
    p.add_argument("--energy-velocity", choices=("angular", "linear"), default=None,
                   help="velocity source for the energy factor (default angular)")
    p.add_argument("-o", "--output", default=None, help="output CSV path (default: stdout)")
    _add_common(p)

    p = sub.add_parser("schedule-sim",
                       help="run the distillation schedule over stub policies",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--epsilon", type=float, default=None, help="annealing span in rounds (default 10)")
    p.add_argument("--kappa", type=float, default=None, help="pure-teacher span in rounds (default 5)")
    p.add_argument("--t-imit", type=int, default=None, help="reward switch round (default 10)")
    p.add_argument("--horizon", type=int, default=None, help="steps per round (default 100)")
    p.add_argument("--rounds", type=int, default=None, help="rounds to simulate (default 20)")
    p.add_argument("-o", "--output", default=None,
                   help="output prefix; writes PREFIX.csv and PREFIX.transitions.jsonl "
                        "(default: CSV to stdout)")
    _add_common(p)

    p = sub.add_parser("filter",
                       help="performance-driven curation over clip episode statistics",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--stats", required=True, help="clip stats JSON: {id: [episode lengths]}")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    _add_common(p)

    p = sub.add_parser("pipeline",
                       help="run the fit/retarget/smooth/filter pipeline over a manifest",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--manifest", required=True, help="pipeline manifest JSON")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers over entries")
    p.add_argument("--validate-only", action="store_true", help="validate the manifest and exit")
    _add_common(p)

    p = sub.add_parser("mesh-inspect",
                       help="dump the interact mesh of one frame as JSON",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--motion", required=True, help="motion JSON")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--obj", required=True, help="object mesh OBJ")
    p.add_argument("--second-motion", default=None, help="second-agent motion JSON")
    p.add_argument("--frame", type=int, default=0, help="frame index")
    p.add_argument("--retention", choices=("strict", "loose"), default=None,
                   help="tetrahedron retention rule (default strict)")
    p.add_argument("--proximity-gate", default=None,
                   help="joint-to-object gate in meters, or 'none' (default 0.5)")
    p.add_argument("--max-object-vertices", type=int, default=None,
                   help="object subsample budget (default 64)")
    p.add_argument("-o", "--output", default=None, help="output JSON path (default: stdout)")
    _add_common(p)

    return parser


def _parse_gate(value):
    if value is None:
        return 0.5
    if isinstance(value, str) and value.lower() == "none":
        return None
    gate = float(value)
    if gate <= 0:
        raise DataError("--proximity-gate must be positive or 'none'")
    return gate


def _retention_rule(args, config) -> RetentionRule:
    return RetentionRule(
        mode=_setting(args, config, "retention", "strict"),
        proximity_gate=_parse_gate(_setting(args, config, "proximity_gate", 0.5)),
    )


def _cmd_fit_shape(args) -> int:
    config = _load_config(args)
    skeleton = load_skeleton(_setting(args, config, "skeleton", None))
    target = load_skeleton(_setting(args, config, "target", None))
    shape, residual = fit_bridge(skeleton, target)
    doc = {"bone_scales": [float(s) for s in shape.bone_scales], "residual_m": residual}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    if args.verbose:
        print(f"fit residual: {residual:.3e} m", file=sys.stderr)
    return 0


def _retarget_config(args, config) -> RetargetConfig:
    return RetargetConfig(
        laplacian_weight=float(_setting(args, config, "laplacian_weight", 1.0)),
        temporal_weight=float(_setting(args, config, "temporal_weight", 1.0)),
        joint_limit_weight=float(_setting(args, config, "jlimit_weight", 1.0)),
        velocity_limit_weight=float(_setting(args, config, "vlimit_weight", 1.0)),
        foot_slide_weight=float(_setting(args, config, "slide_weight", 1.0)),
        foot_speed_threshold=float(_setting(args, config, "foot_speed_threshold", 0.01)),
        optimizer=OptimizerConfig(
            max_iterations=int(_setting(args, config, "max_iterations", OptimizerConfig.max_iterations))
        ),
        retention=_retention_rule(args, config),
        max_object_vertices=int(_setting(args, config, "max_object_vertices", 64)),
        mesh_rebuild=_setting(args, config, "mesh_rebuild", "per-frame"),
    )


def _cmd_retarget(args) -> int:
    config = _load_config(args)
    src_skel = load_skeleton(args.src_skel)
    tgt_skel = load_skeleton(args.tgt_skel)
    seq = load_motion(args.src, src_skel)
    obj = load_obj(args.obj)
    second = load_motion(args.second_src, src_skel) if args.second_src else None
    cfg = _retarget_config(args, config)
    bridge, residual = fit_bridge(src_skel, tgt_skel)
    ones = ShapeParams.ones(src_skel.joint_count)
    result = retarget_sequence(seq, src_skel, ones, src_skel, bridge, obj, cfg, second_seq=second)

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    motion_name = Path(args.src).name
    save_motion(result.sequence, out_dir / motion_name)
    losses_path = out_dir / f"{Path(args.src).stem}.losses.csv"
    write_losses_csv(losses_path, result.per_frame_losses)
    if args.verbose:
        print(
            f"fit residual {residual:.3e} m; wrote {out_dir / motion_name} and {losses_path}",
            file=sys.stderr,
        )
    return 0


def _cmd_smooth(args) -> int:
    config = _load_config(args)
    alpha = float(_setting(args, config, "alpha", 1.0))
    window = int(_setting(args, config, "window", 5))
    if alpha < 0:
        raise SystemExit(_usage_error("--alpha must be nonnegative"))
    if window < 1 or window % 2 == 0:
        raise SystemExit(_usage_error("--window must be an odd integer >= 1"))
    skeleton = load_skeleton(args.skeleton)
    seq = load_motion(args.motion, skeleton)

    final = smooth_motion(seq, SmoothConfig(alpha=alpha, rotation_window=window))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_motion(final, out_dir / Path(args.motion).name)

    d2 = lambda t: t[:-2] - 2.0 * t[1:-1] + t[2:]
    before = d2(seq.root_pos)
    after = d2(final.root_pos)
    with open(out_dir / f"{Path(args.motion).stem}.energy.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "before_x", "before_y", "before_z", "after_x", "after_y", "after_z"])
        for k in range(len(before)):
            writer.writerow([k] + [repr(abs(v)) for v in before[k]] + [repr(abs(v)) for v in after[k]])
    return 0


def _usage_error(message: str) -> int:
    print(f"retargetkit: error: {message}", file=sys.stderr)
    return 1


def _reward_config(args, config) -> RewardConfig:
    return RewardConfig(
        lambda_delta=float(_setting(args, config, "lambda_delta", 1.0)),
        lambda_c=float(_setting(args, config, "lambda_c", 1.0)),
        lambda_v=float(_setting(args, config, "lambda_v", 1.0)),
        lambda_f=float(_setting(args, config, "lambda_f", 1.0)),
        # per-component weights have no flag form; the config file carries them
        omega={k: float(v) for k, v in config.get("omega", {}).items()},
        contact_near=float(_setting(args, config, "contact_near", 0.07)),
        contact_far=float(_setting(args, config, "contact_far", 0.2)),
        energy_velocity=_setting(args, config, "energy_velocity", "angular"),
    )


def _observe(seq, skeleton, obj) -> list[ObservationFrame]:
    """Observation frames of a motion: FK positions, backward-difference
    velocities (zero at frame 0), contacts from the motion's labels (1 -> in
    contact). The object's angular velocity is the rotation vector of
    conj(q_prev) * q_t over dt, so the sign of either quaternion is immaterial."""
    positions = fk_sequence(skeleton, ShapeParams.ones(skeleton.joint_count), seq)
    obj_world = object_world_vertices(obj, seq, len(obj.vertices))

    def rate(deltas):  # per-frame change over dt, zero at frame 0
        return np.concatenate([np.zeros((1,) + deltas.shape[1:]), deltas / seq.dt])

    lin_vel, ang_vel, obj_lin_vel = (
        rate(np.diff(a, axis=0)) for a in (positions, seq.joint_rots, seq.obj_pos)
    )
    obj_ang_vel = rate(quat_log_relative(seq.obj_rot[:-1], seq.obj_rot[1:]))
    if seq.contacts is not None:
        contacts = (seq.contacts == 1).astype(int)
    else:
        contacts = np.zeros((seq.frame_count, skeleton.joint_count), dtype=int)
    return [
        ObservationFrame(
            joint_pos=positions[t],
            joint_rot=seq.joint_rots[t],
            joint_lin_vel=lin_vel[t],
            joint_ang_vel=ang_vel[t],
            contacts=contacts[t],
            obj_pos=seq.obj_pos[t],
            obj_rot=seq.obj_rot[t],
            obj_lin_vel=obj_lin_vel[t],
            obj_ang_vel=obj_ang_vel[t],
            interaction_graph=interaction_graph(positions[t], obj_world[t]),
        )
        for t in range(seq.frame_count)
    ]


def _cmd_reward_eval(args) -> int:
    config = _load_config(args, unflagged=("omega",))
    cfg = _reward_config(args, config)
    skeleton = load_skeleton(args.skeleton)
    seq = load_motion(args.motion, skeleton)
    ref = load_motion(args.ref, skeleton)
    obj = load_obj(args.obj)
    if seq.frame_count != ref.frame_count:
        raise DataError("motion and reference must have equal frame counts")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["frame", "R", "imitation", "contact", "energy"])
    for t, (obs, ref_obs) in enumerate(zip(_observe(seq, skeleton, obj), _observe(ref, skeleton, obj))):
        ref_labels = ref.contacts[t] if ref.contacts is not None else np.zeros(skeleton.joint_count, dtype=int)
        reward, factors = compute_reward(with_reference(obs, ref_obs), ref_labels, None, cfg)
        writer.writerow([t, repr(reward), repr(factors["imitation"]),
                         repr(factors["contact"]), repr(factors["energy"])])
    _emit(buf.getvalue(), args.output)
    return 0


def _cmd_schedule_sim(args) -> int:
    config = _load_config(args)
    cfg = ScheduleConfig(
        epsilon=float(_setting(args, config, "epsilon", 10.0)),
        kappa=float(_setting(args, config, "kappa", 5.0)),
        t_imit=int(_setting(args, config, "t_imit", 10)),
        horizon=int(_setting(args, config, "horizon", 100)),
        seed=args.seed,
    )
    rounds = int(_setting(args, config, "rounds", 20))
    log = run_schedule(pd_teacher(), lazy_student(), point_mass_env, cfg, rounds=rounds)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["round", "gate", "w", "teacher_fraction", "reward_mode"])
    for r in log.rounds:
        writer.writerow([r.round, repr(r.gate), repr(r.weight), repr(r.teacher_fraction), r.reward_mode])
    if args.output:
        Path(f"{args.output}.csv").write_text(buf.getvalue(), encoding="utf-8")
        with open(f"{args.output}.transitions.jsonl", "w", encoding="utf-8") as fh:
            header = {"rng": log.rng_algorithm, "seed": log.seed,
                      "epsilon": cfg.epsilon, "kappa": cfg.kappa,
                      "t_imit": cfg.t_imit, "horizon": cfg.horizon}
            fh.write(json.dumps(header) + "\n")
            for tr in log.transitions:
                fh.write(json.dumps({
                    "round": tr.round, "step": tr.step, "state": tr.state,
                    "next_state": tr.next_state, "action": tr.action,
                    "expert_action": tr.expert_action, "source": tr.source,
                }) + "\n")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_filter(args) -> int:
    state = filter_until_converged(make_filter_state(read_json(args.stats)))
    if args.format == "json":
        doc = {
            "retained": sorted(c.clip_id for c in state.retained),
            "removed": sorted(state.removed),
            "sigma_history": list(state.sigma_history),
            "iterations": state.iteration,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["clip", "mean_length", "status"])
        for clip in state.clips:
            status = "removed" if clip.clip_id in state.removed else "retained"
            writer.writerow([clip.clip_id, repr(clip.mean_length), status])
        _emit(buf.getvalue(), args.output)
    return 0


def _cmd_pipeline(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.validate_only:
        reports = validate_manifest(manifest)
        for r in reports:
            status = "ok" if r.ok else "; ".join(r.problems)
            print(f"{r.entry_id}: {status}")
        return 0 if all(r.ok for r in reports) else 2
    summary = run_pipeline(manifest, jobs=args.jobs)
    for e in summary.entries:
        line = f"{e.entry_id}: {e.status}" + (f" ({e.error})" if e.error else "")
        print(line, file=sys.stderr)
    return 2 if summary.all_failed else 0


def _cmd_mesh_inspect(args) -> int:
    config = _load_config(args)
    skeleton = load_skeleton(args.skeleton)
    seq = load_motion(args.motion, skeleton)
    obj = load_obj(args.obj)
    second = load_motion(args.second_motion, skeleton) if args.second_motion else None
    t = args.frame
    if not 0 <= t < seq.frame_count:
        raise DataError(f"frame {t} outside [0, {seq.frame_count})")
    rule = _retention_rule(args, config)
    budget = int(_setting(args, config, "max_object_vertices", 64))

    shape = ShapeParams.ones(skeleton.joint_count)
    joints = fk_sequence(skeleton, shape, seq)[t]
    second_joints = None
    if second is not None:
        second_joints = fk_sequence(skeleton, shape, second)[t]
    obj_world = object_world_vertices(obj, seq, budget)[t]
    try:
        mesh = build_interact_mesh(joints, second_joints, obj_world, rule)
        doc = mesh_to_dict(mesh)
    except EmptyInteractMeshError as exc:
        doc = {"empty": True, "reason": str(exc)}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


_COMMANDS = {
    "fit-shape": _cmd_fit_shape,
    "retarget": _cmd_retarget,
    "smooth": _cmd_smooth,
    "reward-eval": _cmd_reward_eval,
    "schedule-sim": _cmd_schedule_sim,
    "filter": _cmd_filter,
    "pipeline": _cmd_pipeline,
    "mesh-inspect": _cmd_mesh_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help exits 0
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, EmptyInteractMeshError) as exc:
        print(f"retargetkit: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"retargetkit: numerical failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"retargetkit: data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
