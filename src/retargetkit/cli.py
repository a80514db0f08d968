"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A flag backed by a config dataclass field (RetargetConfig, RetentionRule,
OptimizerConfig, SmoothConfig, RewardConfig, ScheduleConfig) takes its
default and its valid range from that field (errors.setting). Every command
takes --config, a JSON object keyed by flag names with underscores; its values
are read as the flags' own arguments would be, flags override them, and they
override the defaults. A value outside its field's range exits 1 naming the
flag, exits 2 naming the key when it comes from --config, and is a DataError
naming the field when it comes from a pipeline manifest.
Machine output goes to stdout or the -o target, human-readable diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, EmptyInteractMeshError, NumericalError, Range
from .interactmesh import RetentionRule, mesh_to_dict
from .kinematics import fk_sequence
from .motionio import MotionSequence, ShapeParams, load_motion, load_obj, load_skeleton, read_json, save_motion
from .optim import OptimizerConfig
from .pipeline import (
    bridge_skeleton,
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
    source_meshes,
)
from .rewards import (
    OMEGA_WEIGHT,
    ObservationFrame,
    RewardConfig,
    compute_reward,
    interaction_graph,
    with_reference,
)
from .schedule import (
    ScheduleConfig,
    filter_document,
    filter_until_converged,
    lazy_student,
    make_filter_state,
    pd_teacher,
    point_mass_env,
    run_schedule,
)
from .rotations import quat_log_relative
from .smoothing import SmoothConfig, second_differences


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _DefaultsHelp(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each flag's default, except None: such a flag's help says what
    leaving it out does, or it is required."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    """The CLI. A flag backed by a config dataclass field takes that field's
    default and declared range, so the dataclass is the one declaration of
    the setting; each command's `fields` maps such a flag's dest to its
    (dataclass, field), from which _settings builds the command's configs."""
    parser = _Parser(prog="retargetkit", description="Interaction-preserving motion retargeting toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    def command(name: str, help: str) -> _Parser:
        p = sub.add_parser(name, help=help, formatter_class=_DefaultsHelp)
        p.fields = {}
        return p

    def add_setting(p: _Parser, flag: str, cls, name: str, help: str):
        declared = cls.__dataclass_fields__[name]
        valid = declared.metadata["range"]
        action = p.add_argument(flag, type=valid.parse, choices=valid.choices, default=declared.default, help=help)
        p.fields[action.dest] = (cls, name)

    def add_retention(p: _Parser):
        add_setting(p, "--retention", RetentionRule, "mode", "tetrahedron retention rule")
        add_setting(p, "--proximity-gate", RetentionRule, "proximity_gate",
                    "joint-to-object gate in meters, or 'none'")
        add_setting(p, "--max-object-vertices", RetargetConfig, "max_object_vertices", "object subsample budget")

    p = command("fit-shape", "fit bone scales of a skeleton to another skeleton's T-pose")
    p.add_argument("--skeleton", required=True, help="skeleton whose scales are fitted")
    p.add_argument("--target", required=True, help="skeleton supplying the target T-pose joints")
    p.add_argument("-o", "--output", default=None, help="output JSON path (default: stdout)")
    p.add_argument("--verbose", type=int, default=0, help="verbosity level")

    p = command("retarget", "retarget a motion onto a target skeleton")
    p.add_argument("--src", required=True, help="source motion JSON")
    p.add_argument("--src-skel", required=True, help="source skeleton JSON")
    p.add_argument("--tgt-skel", required=True, help="target skeleton JSON")
    p.add_argument("--obj", required=True, help="object mesh OBJ")
    p.add_argument("--second-src", default=None, help="second-agent motion JSON (context)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    add_setting(p, "--laplacian-weight", RetargetConfig, "laplacian_weight", "laplacian term weight")
    add_setting(p, "--temporal-weight", RetargetConfig, "temporal_weight", "temporal term weight")
    add_setting(p, "--vlimit-weight", RetargetConfig, "velocity_limit_weight", "velocity-limit term weight")
    add_setting(p, "--slide-weight", RetargetConfig, "foot_slide_weight", "foot-slide term weight")
    add_setting(p, "--foot-speed-threshold", RetargetConfig, "foot_speed_threshold",
                "source horizontal foot speed gate, m/s")
    add_retention(p)
    add_setting(p, "--max-iterations", OptimizerConfig, "max_iterations", "descent iteration cap per frame")
    p.add_argument("--verbose", type=int, default=0, help="verbosity level")

    p = command("smooth", "smooth a motion's root trajectory and rotations")
    p.add_argument("--motion", required=True, help="motion JSON")
    p.add_argument("--skeleton", required=True, help="skeleton JSON the motion binds to")
    add_setting(p, "--alpha", SmoothConfig, "alpha", "root regularization alpha")
    add_setting(p, "--window", SmoothConfig, "rotation_window", "odd rotation window")
    p.add_argument("-o", "--output", required=True, help="output directory")

    p = command("reward-eval", "evaluate the tracking reward of a motion against a reference")
    p.add_argument("--motion", required=True, help="simulated/retargeted motion JSON")
    p.add_argument("--ref", required=True, help="reference motion JSON")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--obj", required=True, help="object mesh OBJ")
    add_setting(p, "--lambda-delta", RewardConfig, "lambda_delta", "imitation coefficient")
    add_setting(p, "--lambda-c", RewardConfig, "lambda_c", "contact coefficient")
    add_setting(p, "--lambda-v", RewardConfig, "lambda_v", "velocity coefficient")
    add_setting(p, "--energy-velocity", RewardConfig, "energy_velocity", "velocity source for the energy factor")
    p.add_argument("-o", "--output", default=None, help="output CSV path (default: stdout)")
    # per-component weights have no flag form; only a config file sets them
    p.set_defaults(omega=RewardConfig().omega)

    p = command("schedule-sim", "run the distillation schedule over stub policies")
    add_setting(p, "--epsilon", ScheduleConfig, "epsilon", "annealing span in rounds")
    add_setting(p, "--kappa", ScheduleConfig, "kappa", "pure-teacher span in rounds")
    add_setting(p, "--t-imit", ScheduleConfig, "t_imit", "reward switch round")
    add_setting(p, "--horizon", ScheduleConfig, "horizon", "steps per round")
    p.add_argument("--rounds", type=Range(int, ge=1).parse, default=20, help="rounds to simulate")
    add_setting(p, "--seed", ScheduleConfig, "seed", "random seed")
    p.add_argument("-o", "--output", default=None,
                   help="output prefix; writes PREFIX.csv and PREFIX.transitions.jsonl "
                        "(default: CSV to stdout)")

    p = command("filter", "performance-driven curation over clip episode statistics")
    p.add_argument("--stats", required=True, help="clip stats JSON: {id: [episode lengths]}")
    formats = Range(str, choices=("json", "csv"))
    p.add_argument("--format", type=formats.parse, choices=formats.choices, default="json", help="output format")
    p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")

    p = command("pipeline", "run the fit/retarget/smooth/filter pipeline over a manifest")
    p.add_argument("--manifest", required=True, help="pipeline manifest JSON")
    p.add_argument("--validate-only", action="store_true", help="validate the manifest and exit")

    p = command("mesh-inspect", "dump the interact mesh of one frame as JSON")
    p.add_argument("--motion", required=True, help="motion JSON")
    p.add_argument("--skeleton", required=True, help="skeleton JSON")
    p.add_argument("--obj", required=True, help="object mesh OBJ")
    p.add_argument("--second-motion", default=None, help="second-agent motion JSON")
    p.add_argument("--frame", type=int, default=0, help="frame index")
    add_retention(p)
    p.add_argument("-o", "--output", default=None, help="output JSON path (default: stdout)")

    for p in sub.choices.values():
        p.add_argument("--config", default=None,
                       help="JSON file of settings keyed by flag names with underscores")
    parser.commands = sub.choices
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    """The parser every command shares, built once per process. Parsing
    leaves a parser as it was; --config sets defaults, so it gets a parser of
    its own (_apply_config)."""
    return build_parser()


def _config_value(command: _Parser, key: str, value):
    """A --config value read as the text its flag would carry, converted and
    checked as that flag's argument is. JSON null reads as 'none', so it turns
    the proximity gate off, as it does in a manifest."""
    action = next((a for a in command._actions if a.dest == key), None)
    if action is None:  # reward-eval's omega, a setting without a flag, keeps its JSON value
        expected = type(command.get_default(key))
        if not isinstance(value, expected):
            raise ValueError(f"expected a {expected.__name__}, got {value!r}")
        return value
    if action.nargs == 0:  # a switch such as --validate-only
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    return (action.type or str)("none" if value is None else str(value))


def _apply_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Parse again, on a parser of its own, with the --config file's settings
    as the command's defaults, so flags override the file and the file
    overrides the dataclass defaults. A key must name an optional flag of the
    command that has a default, or reward-eval's omega; paths stay on the
    command line."""
    config = read_json(args.config)
    if not isinstance(config, dict):
        raise DataError(f"{args.config}: config must be a JSON object")
    parser = build_parser()
    command = parser.commands[args.command]
    unknown = sorted(k for k in config if command.get_default(k) in (None, argparse.SUPPRESS))
    if unknown:
        raise DataError(f"{args.config}: unknown config keys for {args.command}: {', '.join(unknown)}")
    settings = {}
    for key, value in config.items():
        try:
            settings[key] = _config_value(command, key, value)
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{args.config}: config key {key!r}: {exc}") from exc
    command.set_defaults(**settings)
    return parser.parse_args(argv)


def _settings(args, cls, **given):
    """A cls whose fields take the values of the flags that add_setting
    declared for them on args' command, and `given`; a field whose default is
    a config with flags of its own is built the same way."""
    declared = _shared_parser().commands[args.command].fields
    owners = {owner for owner, _ in declared.values()}
    values = {name: getattr(args, dest) for dest, (owner, name) in declared.items() if owner is cls}
    values.update((f.name, _settings(args, f.default_factory)) for f in fields(cls) if f.default_factory in owners)
    return cls(**values, **given)


def _cmd_fit_shape(args) -> int:
    skeleton = load_skeleton(args.skeleton)
    target = load_skeleton(args.target)
    shape, residual = fit_bridge(skeleton, target)
    doc = {"bone_scales": [float(s) for s in shape.bone_scales], "residual_m": residual}
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    if args.verbose:
        print(f"fit residual: {residual:.3e} m", file=sys.stderr)
    return 0


def _cmd_retarget(args) -> int:
    src_skel = load_skeleton(args.src_skel)
    tgt_skel = load_skeleton(args.tgt_skel)
    seq = load_motion(args.src, src_skel)
    obj = load_obj(args.obj)
    second = load_motion(args.second_src, src_skel) if args.second_src else None
    cfg = _settings(args, RetargetConfig)
    bridge, residual = fit_bridge(src_skel, tgt_skel)
    ones = ShapeParams.ones(src_skel.joint_count)
    result = retarget_sequence(seq, src_skel, ones, bridge_skeleton(src_skel, tgt_skel), bridge, obj, cfg,
                               second_seq=second)

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
    skeleton = load_skeleton(args.skeleton)
    seq = load_motion(args.motion, skeleton)

    final = smooth_motion(seq, _settings(args, SmoothConfig))
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_motion(final, out_dir / Path(args.motion).name)

    before = second_differences(seq.root_pos)
    after = second_differences(final.root_pos)
    with open(out_dir / f"{Path(args.motion).stem}.energy.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "before_x", "before_y", "before_z", "after_x", "after_y", "after_z"])
        for k in range(len(before)):
            writer.writerow([k] + [repr(abs(v)) for v in before[k]] + [repr(abs(v)) for v in after[k]])
    return 0


def _reward_config(args) -> RewardConfig:
    """The reward settings; each omega weight is read from its JSON value's
    text, as a flag's argument is, so true and false are refused."""
    try:
        omega = {k: OMEGA_WEIGHT.parse(str(v)) for k, v in args.omega.items()}
    except argparse.ArgumentTypeError as exc:
        raise DataError(f"{args.config}: config key 'omega': {exc}") from exc
    return _settings(args, RewardConfig, omega=omega)


def _observe(seq, skeleton, obj) -> ObservationFrame:
    """The stacked observation of a motion, one leading row per frame: FK
    positions, backward-difference velocities (zero at frame 0), contacts from
    the motion's labels (1 -> in contact). The object's angular velocity is the
    rotation vector of conj(q_prev) * q_t over dt, so the sign of either
    quaternion is immaterial."""
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
    return ObservationFrame(
        joint_pos=positions,
        joint_rot=seq.joint_rots,
        joint_lin_vel=lin_vel,
        joint_ang_vel=ang_vel,
        contacts=contacts,
        obj_pos=seq.obj_pos,
        obj_rot=seq.obj_rot,
        obj_lin_vel=obj_lin_vel,
        obj_ang_vel=obj_ang_vel,
        interaction_graph=interaction_graph(positions, obj_world),
    )


def _cmd_reward_eval(args) -> int:
    cfg = _reward_config(args)
    skeleton = load_skeleton(args.skeleton)
    seq = load_motion(args.motion, skeleton)
    ref = load_motion(args.ref, skeleton)
    obj = load_obj(args.obj)
    if seq.frame_count != ref.frame_count:
        raise DataError("motion and reference must have equal frame counts")

    obs = with_reference(_observe(seq, skeleton, obj), _observe(ref, skeleton, obj))
    ref_labels = ref.contacts if ref.contacts is not None else np.zeros(obs.contacts.shape, dtype=int)
    reward, factors = compute_reward(obs, ref_labels, None, cfg)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["frame", "R", "imitation", "contact", "energy"])
    columns = (reward, factors["imitation"], factors["contact"], factors["energy"])
    for t, row in enumerate(zip(*(c.tolist() for c in columns))):
        writer.writerow([t] + [repr(v) for v in row])
    _emit(buf.getvalue(), args.output)
    return 0


def _cmd_schedule_sim(args) -> int:
    cfg = _settings(args, ScheduleConfig)
    log = run_schedule(pd_teacher(), lazy_student(), point_mass_env, cfg, rounds=args.rounds)

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
        _emit(json.dumps(filter_document(state), indent=2) + "\n", args.output)
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
    summary = run_pipeline(manifest)
    for e in summary.entries:
        line = f"{e.entry_id}: {e.status}" + (f" ({e.error})" if e.error else "")
        print(line, file=sys.stderr)
    return 2 if summary.all_failed else 0


def _cmd_mesh_inspect(args) -> int:
    skeleton = load_skeleton(args.skeleton)
    seq = load_motion(args.motion, skeleton)
    obj = load_obj(args.obj)
    second = load_motion(args.second_motion, skeleton) if args.second_motion else None
    t = args.frame
    if not 0 <= t < seq.frame_count:
        raise DataError(f"frame {t} outside [0, {seq.frame_count})")
    if second is not None and t >= second.frame_count:
        raise DataError(f"second-agent sequence is not time-aligned with the source: it has no frame {t}")

    # frame t as retargeting meshes it: a frame's mesh depends on that frame
    # alone, built from the object's seed
    def frame(motion: MotionSequence) -> MotionSequence:
        return replace(motion, contacts=None, **{
            k: getattr(motion, k)[t: t + 1] for k in ("root_pos", "root_rot", "joint_rots", "obj_pos", "obj_rot")})

    cfg = _settings(args, RetargetConfig)
    reasons: dict[int, str] = {}
    mesh = source_meshes(frame(seq), skeleton, ShapeParams.ones(skeleton.joint_count), obj, cfg,
                         second_seq=None if second is None else frame(second), empty_reasons=reasons)[0]
    doc = {"empty": True, "reason": reasons[0]} if mesh is None else mesh_to_dict(mesh)
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
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help exits 0
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        if args.config:
            args = _apply_config(args, argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataError, EmptyInteractMeshError) as exc:
        print(f"retargetkit: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"retargetkit: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing, unreadable or unwritable file, or a directory
        print(f"retargetkit: data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
