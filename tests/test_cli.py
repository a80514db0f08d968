import argparse
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from retargetkit import cli
from retargetkit.cli import build_parser, main
from retargetkit.errors import Range
from retargetkit.interactmesh import RetentionRule, mesh_to_dict
from retargetkit.motionio import (
    ShapeParams,
    load_motion,
    load_obj,
    load_skeleton,
    save_motion,
    save_obj,
    save_skeleton,
)
from retargetkit.optim import OptimizerConfig
from retargetkit.retarget import RetargetConfig, source_meshes
from retargetkit.rewards import RewardConfig
from retargetkit.schedule import ScheduleConfig
from retargetkit.smoothing import SmoothConfig

from conftest import CARRY_BOX_HALF, held_box_motion, make_box, make_humanoid, partner_motion
from retargetkit.pipeline import load_manifest, run_pipeline
from retargetkit.rotations import quat_from_expmap
from test_pipeline import write_corpus

GOLDEN_DIR = Path(__file__).parent / "golden"
SUBCOMMANDS = (
    "fit-shape",
    "retarget",
    "smooth",
    "reward-eval",
    "schedule-sim",
    "filter",
    "pipeline",
    "mesh-inspect",
)
# arguments that run each command on write_assets' files, from their directory
COMMAND_ARGS = {
    "fit-shape": ["--skeleton", "skeleton.json", "--target", "skeleton.json"],
    "retarget": ["--src", "motion.json", "--src-skel", "skeleton.json", "--tgt-skel", "skeleton.json",
                 "--obj", "box.obj", "-o", "out"],
    "smooth": ["--motion", "motion.json", "--skeleton", "skeleton.json", "-o", "out"],
    "reward-eval": ["--motion", "motion.json", "--ref", "motion.json", "--skeleton", "skeleton.json",
                    "--obj", "box.obj", "-o", "rewards.csv"],
    "schedule-sim": ["-o", "sim"],
    "filter": ["--stats", "stats.json"],
    "pipeline": ["--manifest", "manifest.json", "--validate-only"],
    "mesh-inspect": ["--motion", "motion.json", "--skeleton", "skeleton.json", "--obj", "box.obj"],
}
# (command, flag dest, config dataclass, field) for every dataclass-backed flag
FIELD_FLAGS = (
    [("retarget", dest, RetargetConfig, name) for dest, name in (
        ("laplacian_weight", "laplacian_weight"), ("temporal_weight", "temporal_weight"),
        ("vlimit_weight", "velocity_limit_weight"), ("slide_weight", "foot_slide_weight"),
        ("foot_speed_threshold", "foot_speed_threshold"))]
    + [("retarget", "max_iterations", OptimizerConfig, "max_iterations")]
    + [(command, dest, cls, name) for command in ("retarget", "mesh-inspect") for dest, cls, name in (
        ("retention", RetentionRule, "mode"), ("proximity_gate", RetentionRule, "proximity_gate"),
        ("max_object_vertices", RetargetConfig, "max_object_vertices"))]
    + [("smooth", "alpha", SmoothConfig, "alpha"), ("smooth", "window", SmoothConfig, "rotation_window")]
    + [("reward-eval", name, RewardConfig, name) for name in (
        "lambda_delta", "lambda_c", "lambda_v", "omega", "energy_velocity")]
    + [("schedule-sim", name, ScheduleConfig, name) for name in ("epsilon", "kappa", "t_imit", "horizon", "seed")]
)


def out_of_range(valid: Range) -> list[str]:
    """Flag texts a declared range refuses: JSON texts too, but for a word."""
    if valid.choices:
        return ["bogus"]
    low = valid.ge - 1 if valid.ge is not None else valid.gt
    texts = [str(low), str(low - 3)] + ["4"] * valid.odd
    return texts + (["2.5"] if valid.kind is int else ["NaN", "Infinity"])


# (command, flag, config key, text) for every flag whose type is a declared range
RANGE_CASES = [
    (command, action.option_strings[0], action.dest, text)
    for command, p in build_parser().commands.items()
    for action in p._actions
    if isinstance(getattr(action.type, "__self__", None), Range)
    for text in out_of_range(action.type.__self__)
]


def subparser(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def write_assets(root, frames=4):
    skel = make_humanoid()
    seq = held_box_motion(skel, frames=frames, amplitude=0.02)
    save_skeleton(skel, root / "skeleton.json")
    save_motion(seq, root / "motion.json")
    save_obj(make_box(half=CARRY_BOX_HALF, subdiv=3), root / "box.obj")


class TestHelpGolden:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_matches_golden(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = subparser(command).format_help()
        golden = GOLDEN_DIR / f"{command}.txt"
        assert text == golden.read_text(), f"help text for {command} drifted from golden file"


DELETE = object()
# (id, file, key path into the file's JSON or None to append an OBJ line,
# value set there (DELETE removes the key) or the line, what the error names)
MALFORMED_INPUTS = [
    ("missing-field", "motion.json", ("frames", 1, "obj_pos"), DELETE, "frame 1 missing field 'obj_pos'"),
    ("frame-not-object", "motion.json", ("frames", 2), 5, "frame 2 must be a JSON object"),
    ("joint-not-object", "skeleton.json", ("joints", 3), "elbow", "joint 3 must be a JSON object"),
    ("fps-text", "motion.json", ("fps",), "fast", "fps must be a number"),
    ("fps-infinite", "motion.json", ("fps",), float("inf"), "fps must be positive and finite, got inf"),
    ("coordinate-text", "motion.json", ("frames", 1, "root_pos", 0), "a", "frame 1 root_pos must be 3 numbers"),
    ("short-root-pos", "motion.json", ("frames", 3, "root_pos"), [0.0, 0.0], "frame 3 root_pos must be 3 numbers"),
    ("parent-text", "skeleton.json", ("joints", 2, "parent"), "root", "joint 2 parent must be a joint index"),
    # a joint index is an int, as a contact label is: not truncated, not a bool, not 1.0
    ("parent-fraction", "skeleton.json", ("joints", 2, "parent"), 0.9, "joint 2 parent must be a joint index"),
    ("parent-float", "skeleton.json", ("joints", 2, "parent"), 1.0, "joint 2 parent must be a joint index"),
    ("parent-bool", "skeleton.json", ("joints", 2, "parent"), True, "joint 2 parent must be a joint index"),
    # too large for a C long, so refused before the indices become an array
    ("parent-huge", "skeleton.json", ("joints", 2, "parent"), 10**30,
     f"joint 'spine2' (index 2) has parent {10**30}; joints must be topologically ordered"),
    ("parent-huge-negative", "skeleton.json", ("joints", 2, "parent"), -10**30,
     f"joint 'spine2' (index 2) has parent {-10**30}; joints must be topologically ordered"),
    ("foot-fraction", "skeleton.json", ("foot_joints", 0), 16.9, "foot joint 16.9 is not a joint index"),
    ("foot-bool", "skeleton.json", ("foot_joints", 1), True, "foot joint True is not a joint index"),
    ("feet-text", "skeleton.json", ("foot_joints",), "16", "foot_joints must list joint indices"),
    ("offset-text", "skeleton.json", ("joints", 4, "offset", 1), "a", "joint 4 offset must be 3 numbers"),
    ("late-contacts", "motion.json", ("frames", 2, "contacts"), [0] * 20, "frame 2 has contacts but frame 0 has none"),
    # what MotionSequence refuses names the file too, and the frame of a non-finite value
    ("root-pos-nan", "motion.json", ("frames", 2, "root_pos", 1), float("nan"),
     "frame 2 root_pos contains non-finite values"),
    ("obj-pos-infinite", "motion.json", ("frames", 3, "obj_pos", 0), float("inf"),
     "frame 3 obj_pos contains non-finite values"),
    ("name-number", "skeleton.json", ("joints", 3, "name"), 5, "joint 3 name must be a string, got 5"),
    ("name-null", "skeleton.json", ("joints", 3, "name"), None, "joint 3 name must be a string, got None"),
    # a number is a JSON int or float: not a bool, not text that reads as one
    ("fps-bool", "motion.json", ("fps",), True, "fps must be a number, got True"),
    ("fps-numeric-text", "motion.json", ("fps",), "30", "fps must be a number, got '30'"),
    ("coordinate-bool", "motion.json", ("frames", 1, "root_pos", 0), True, "frame 1 root_pos must be 3 numbers"),
    ("coordinate-numeric-text", "motion.json", ("frames", 1, "root_pos", 0), "0.1",
     "frame 1 root_pos must be 3 numbers"),
    ("rotation-numeric-text", "motion.json", ("frames", 2, "joint_rots", 0, 1), "0.1",
     "frame 2 joint_rots must be 19 lists of 3 numbers"),
    ("offset-bool", "skeleton.json", ("joints", 4, "offset", 1), True, "joint 4 offset must be 3 numbers"),
    ("offset-huge", "skeleton.json", ("joints", 4, "offset", 1), 10**400, "joint 4 offset must be 3 numbers"),
    ("limit-numeric-text", "skeleton.json", ("joints", 4, "q_min", 0), "0.1", "joint 4 q_min must be 3 numbers"),
    ("velocity-limit-bool", "skeleton.json", ("joints", 4, "v_max"), True, "joint 4 v_max must be a number"),
    ("vertex-text", "box.obj", None, "v 0 0 zero", "vertex coordinates must be numbers"),
    ("vertex-nan", "box.obj", None, "v 0 nan 0", "vertex coordinates must be numbers"),
    ("vertex-infinite", "box.obj", None, "v 0 0 1e999", "vertex coordinates must be numbers"),
    ("face-text", "box.obj", None, "f 1 2 x", "face indices must be integers"),
]


class TestExitCodes:
    @pytest.mark.parametrize("name, where, value, named", [case[1:] for case in MALFORMED_INPUTS],
                             ids=[case[0] for case in MALFORMED_INPUTS])
    def test_malformed_input_is_data_error(self, tmp_path, monkeypatch, capsys, name, where, value, named):
        # a data error naming the file and the frame, joint or line, not a traceback
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        path = tmp_path / name
        if where is None:
            lines = path.read_text().splitlines() + [value]
            path.write_text("\n".join(lines) + "\n")
            named = f"{name}:{len(lines)}: {named}"
        else:
            doc = json.loads(path.read_text())
            *parents, key = where
            target = doc
            for step in parents:
                target = target[step]
            if value is DELETE:
                del target[key]
            else:
                target[key] = value
            path.write_text(json.dumps(doc))
            named = f"{name}: {named}"
        assert main(["mesh-inspect"] + COMMAND_ARGS["mesh-inspect"] + ["-o", "mesh.json"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "mesh.json").exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["smooth", "--bogus"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1

    def test_negative_alpha_is_usage_error(self, tmp_path, capsys):
        write_assets(tmp_path)
        code = main([
            "smooth", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--alpha", "-1", "-o", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "--alpha" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "fit-shape", "--skeleton", str(tmp_path / "nope.json"),
            "--target", str(tmp_path / "nope.json"),
        ])
        assert code == 2

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["fit-shape", "--skeleton", str(bad), "--target", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fit-shape", "--skeleton", ".", "--target", "skeleton.json"],
        ["filter", "--stats", "."],
        ["smooth", "--motion", "motion.json", "--skeleton", "skeleton.json", "-o", "out", "--config", "."],
        ["fit-shape", "--skeleton", "skeleton.json", "--target", "skeleton.json", "-o", "."],
    ], ids=["fit-shape-skeleton", "filter-stats", "smooth-config", "fit-shape-output"])
    def test_directory_is_data_error(self, tmp_path, monkeypatch, capsys, argv):
        # every OSError, not only a missing file, is a data error naming the path
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("retargetkit: data error: [Errno")

    @pytest.mark.parametrize("name, argv", [
        ("skeleton.json", ["mesh-inspect"] + COMMAND_ARGS["mesh-inspect"]),
        ("motion.json", ["mesh-inspect"] + COMMAND_ARGS["mesh-inspect"]),
        ("box.obj", ["mesh-inspect"] + COMMAND_ARGS["mesh-inspect"]),
        ("config.json", ["smooth"] + COMMAND_ARGS["smooth"] + ["--config", "config.json"]),
        ("manifest.json", ["pipeline"] + COMMAND_ARGS["pipeline"]),
        ("motion0.json", ["pipeline"] + COMMAND_ARGS["pipeline"]),
    ], ids=["skeleton", "motion", "object", "config", "manifest", "manifest-entry"])
    def test_non_utf8_file_is_data_error(self, tmp_path, monkeypatch, capsys, name, argv):
        # a byte that is not UTF-8 is a data error naming the file, not a UnicodeDecodeError
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path, frames=2)
        write_assets(tmp_path)
        (tmp_path / "config.json").write_text("{}")
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(data + b"# caf\xe9\n" if name.endswith(".obj") else data[:1] + b"\xff" + data[1:])
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert f"{name}: not UTF-8 text" in out + err

    def test_non_utf8_file_fails_its_pipeline_entry_by_name(self, tmp_path):
        manifest = write_corpus(tmp_path, frames=2)
        (tmp_path / "motion0.json").write_bytes(b"{\xff}")
        (entry,) = run_pipeline(load_manifest(manifest)).entries
        assert entry.status == "failed"
        assert entry.error.startswith("DataError: ") and "motion0.json: not UTF-8 text" in entry.error

    @pytest.mark.parametrize("argv", [
        ["mesh-inspect"] + COMMAND_ARGS["mesh-inspect"],
        ["retarget"] + COMMAND_ARGS["retarget"],
        ["retarget"] + COMMAND_ARGS["retarget"] + ["--proximity-gate", "none"],
        ["reward-eval"] + COMMAND_ARGS["reward-eval"],
    ], ids=["mesh-inspect", "retarget", "retarget-ungated", "reward-eval"])
    def test_obj_without_vertices_is_data_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        (tmp_path / "box.obj").write_text("# a box, once\n")
        assert main(argv) == 2
        assert "box.obj: no vertex ('v') lines" in capsys.readouterr().err

    def test_obj_without_vertices_fails_its_pipeline_entry_by_name(self, tmp_path):
        manifest = write_corpus(tmp_path, frames=2)
        (tmp_path / "box.obj").write_text("# a box, once\n")
        (entry,) = run_pipeline(load_manifest(manifest)).entries
        assert entry.status == "failed"
        assert entry.error.startswith("DataError: ") and "box.obj: no vertex ('v') lines" in entry.error


def write_setting_assets(root):
    """Files on which each dataclass-backed setting moves its command's output.

    A two-agent carry, so the retention modes differ, whose root stands for
    three frames and then walks 0.06 m/s (the speed gate holds the feet, then
    lets them slide) with a vertical jitter (the root smoothing has work),
    with contact labels. The reference sways half as far and labels the
    wrists in contact. The target is 1.2 times the source's size, with 0.5
    rad/s velocity limits that bind.
    """
    skel = make_humanoid()
    seq = held_box_motion(skel, frames=6, amplitude=0.2)
    walk = np.zeros((6, 3))
    walk[3:, 0] = 0.002 * np.arange(1, 4)
    jitter = np.zeros((6, 3))
    jitter[:, 2] = 0.01 * (-1.0) ** np.arange(6)
    labels = np.zeros((6, skel.joint_count), dtype=int)
    seq = replace(seq, root_pos=seq.root_pos + walk + jitter, obj_pos=seq.obj_pos + walk, contacts=labels)
    ref = held_box_motion(skel, frames=6, amplitude=0.1)
    wrists = [skel.names.index("l_wrist"), skel.names.index("r_wrist")]
    labels = labels.copy()
    labels[:, wrists] = 1
    ref = replace(ref, contacts=labels)
    target = replace(make_humanoid(v_limit=0.5), rest_offsets=1.2 * skel.rest_offsets)
    save_skeleton(skel, root / "skeleton.json")
    save_skeleton(target, root / "target.json")
    save_motion(seq, root / "motion.json")
    save_motion(partner_motion(skel, seq), root / "second.json")
    save_motion(ref, root / "ref.json")
    save_obj(make_box(half=CARRY_BOX_HALF, subdiv=3), root / "box.obj")


# per command, arguments that run it on write_setting_assets' files, from
# their directory, and the files it writes
SETTING_RUNS = {
    "retarget": (["--src", "motion.json", "--src-skel", "skeleton.json", "--tgt-skel", "target.json",
                  "--obj", "box.obj", "--second-src", "second.json", "-o", "out"],
                 ["out/motion.json", "out/motion.losses.csv"]),
    "mesh-inspect": (COMMAND_ARGS["mesh-inspect"] + ["--second-motion", "second.json", "--frame", "1",
                                                     "-o", "mesh.json"], ["mesh.json"]),
    "smooth": (COMMAND_ARGS["smooth"], ["out/motion.json", "out/motion.energy.csv"]),
    "reward-eval": (["--motion", "motion.json", "--ref", "ref.json", "--skeleton", "skeleton.json",
                     "--obj", "box.obj", "-o", "rewards.csv"], ["rewards.csv"]),
    "schedule-sim": (["-o", "sim"], ["sim.csv", "sim.transitions.jsonl"]),
}
# the settings that move no output
INERT_SETTINGS = set()
# a valid value other than the default, per flag dest
OTHER_VALUES = {
    "laplacian_weight": 3.0, "temporal_weight": 0.2, "vlimit_weight": 5.0, "slide_weight": 10.0,
    "foot_speed_threshold": 1.0, "max_iterations": 1, "retention": "loose", "proximity_gate": None,
    "max_object_vertices": 8, "alpha": 10.0, "window": 3, "lambda_delta": 2.0, "lambda_c": 2.0,
    "lambda_v": 2.0, "omega": {"joint_pos": 2.0}, "energy_velocity": "linear",
    "epsilon": 3.0, "kappa": 2.0, "t_imit": 3, "horizon": 7, "seed": 1,
}


class TestConfigFile:
    def test_flag_defaults_are_dataclass_defaults(self):
        # the dataclass field is the one declaration of a setting's default
        drifted = []
        for command, dest, cls, name in FIELD_FLAGS:
            default = subparser(command).get_default(dest)
            expected = getattr(cls(), name)
            if default != expected or type(default) is not type(expected):
                drifted.append(f"{command} {dest}: {default!r} != {cls.__name__}.{name} {expected!r}")
        assert not drifted

    def test_each_command_records_its_flags_fields(self):
        # the commands build their configs from these records; omega has no flag
        recorded = {(command, dest, *field) for command, p in build_parser().commands.items()
                    for dest, field in p.fields.items()}
        assert recorded == {case for case in FIELD_FLAGS if case[1] != "omega"}

    @pytest.mark.parametrize("command, dest", [(command, dest) for command, dest, _, _ in FIELD_FLAGS],
                             ids=[f"{command}-{dest}" for command, dest, _, _ in FIELD_FLAGS])
    def test_every_setting_moves_its_output(self, tmp_path, monkeypatch, command, dest):
        # a setting no output depends on is a knob without a use; the known
        # ones are listed, so mending one fails here until it leaves the list
        monkeypatch.chdir(tmp_path)
        write_setting_assets(tmp_path)
        args, outputs = SETTING_RUNS[command]
        (tmp_path / "cfg.json").write_text(json.dumps({dest: OTHER_VALUES[dest]}))
        written = []
        for extra in ([], ["--config", "cfg.json"]):
            assert main([command] + args + extra) == 0
            written.append([(tmp_path / name).read_bytes() for name in outputs])
        assert (written[0] != written[1]) == ((command, dest) not in INERT_SETTINGS)

    @pytest.mark.parametrize("command, key, value", [
        ("retarget", "laplacian_weight", "abc"),
        ("smooth", "window", "five"),
        ("schedule-sim", "horizon", "x"),
        ("reward-eval", "omega", {"joint_pos": "heavy"}),
    ])
    def test_wrong_typed_value_is_data_error(self, tmp_path, monkeypatch, capsys, command, key, value):
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert main([command] + COMMAND_ARGS[command] + ["--config", "cfg.json"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("alpha", -1), ("window", 4), ("window", 0)])
    def test_out_of_range_smooth_setting(self, tmp_path, monkeypatch, capsys, key, value):
        # a bad flag is a usage error (1); the same value from a file is a data error (2)
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        args = ["smooth"] + COMMAND_ARGS["smooth"]
        assert main(args + [f"--{key}", str(value)]) == 1
        assert f"--{key}" in capsys.readouterr().err
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert main(args + ["--config", "cfg.json"]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, key", [
        ("retarget", "--max-object-vertices", "max_object_vertices"),
        ("mesh-inspect", "--max-object-vertices", "max_object_vertices"),
        ("retarget", "--max-iterations", "max_iterations"),
        ("schedule-sim", "--horizon", "horizon"),
        ("schedule-sim", "--rounds", "rounds"),
    ], ids=["retarget", "mesh-inspect", "retarget-max-iterations", "schedule-sim-horizon", "schedule-sim-rounds"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_out_of_range_object_vertex_budget(self, tmp_path, monkeypatch, capsys, command, flag, key, value):
        # a count below one, the object vertex budget first among them, is
        # refused as the smooth settings are: 1 from the flag, 2 from a file
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        args = [command] + COMMAND_ARGS[command] + ["-o", "out"] * (command == "mesh-inspect")
        assert main(args + [flag, str(value)]) == 1
        assert flag in capsys.readouterr().err
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert main(args + ["--config", "cfg.json"]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["box.obj", "cfg.json", "motion.json", "skeleton.json"]

    def test_flag_ranges_are_field_ranges(self):
        # the dataclass field is the one declaration of a setting's valid values
        for command, dest, cls, name in FIELD_FLAGS:
            if name == "omega":  # no flag
                continue
            action = next(a for a in subparser(command)._actions if a.dest == dest)
            declared = cls.__dataclass_fields__[name].metadata["range"]
            assert action.type.__self__ is declared and action.choices == declared.choices, (command, dest)

    @pytest.mark.parametrize("command, flag, key, text", RANGE_CASES,
                             ids=[f"{c}{f}={t}" for c, f, _, t in RANGE_CASES])
    def test_out_of_range_setting(self, tmp_path, monkeypatch, capsys, command, flag, key, text):
        # a bad flag is a usage error (1) naming the flag; the same value from
        # a file is a data error (2) naming the key; neither writes anything
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        args = [command] + COMMAND_ARGS[command] + ["-o", "out"] * (command == "mesh-inspect")
        assert main(args + [flag, text]) == 1
        assert flag in capsys.readouterr().err
        try:
            value = json.loads(text)
        except json.JSONDecodeError:  # a word, such as a choice
            value = text
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        assert main(args + ["--config", "cfg.json"]) == 2
        captured = capsys.readouterr()
        assert f"config key {key!r}" in captured.err and not captured.out
        assert sorted(os.listdir(tmp_path)) == ["box.obj", "cfg.json", "motion.json", "skeleton.json"]

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_command_rejects_unknown_keys(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"bogus_key": 1}))
        assert main([command] + COMMAND_ARGS[command] + ["--config", "cfg.json"]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_lambda_f_is_neither_a_flag_nor_a_config_key(self, tmp_path, monkeypatch, capsys):
        # reward-eval scores no contact forces, so there is no force weight to set
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        args = ["reward-eval"] + COMMAND_ARGS["reward-eval"]
        assert main(args + ["--lambda-f", "2"]) == 1
        assert "--lambda-f" in capsys.readouterr().err
        (tmp_path / "cfg.json").write_text(json.dumps({"lambda_f": 2.0}))
        assert main(args + ["--config", "cfg.json"]) == 2
        assert "unknown config keys for reward-eval: lambda_f" in capsys.readouterr().err

    def test_filter_reads_config(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"a": [10], "c": [100]}))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"format": "csv"}))
        assert main(["filter", "--stats", str(stats), "--config", str(config)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "clip,mean_length,status"

    def test_pipeline_switch_takes_a_boolean(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, frames=2)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"validate_only": True}))
        assert main(["pipeline", "--manifest", str(manifest), "--config", str(config)]) == 0
        assert "seq0: ok" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()
        config.write_text(json.dumps({"validate_only": "yes"}))
        assert main(["pipeline", "--manifest", str(manifest), "--config", str(config)]) == 2
        assert "validate_only" in capsys.readouterr().err

    def test_null_gate_turns_the_gate_off(self, tmp_path, monkeypatch):
        # as a manifest's retention section reads it, not as the 0.5 m default
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"proximity_gate": None}))
        args = ["mesh-inspect"] + COMMAND_ARGS["mesh-inspect"]
        assert main(args + ["--config", "cfg.json", "-o", "null.json"]) == 0
        assert main(args + ["--proximity-gate", "none", "-o", "none.json"]) == 0
        doc = json.loads((tmp_path / "null.json").read_text())
        assert sum(p["kind"] == "A" for p in doc["points"]) == 20
        assert (tmp_path / "null.json").read_bytes() == (tmp_path / "none.json").read_bytes()

    def test_config_does_not_outlive_its_command(self, tmp_path, monkeypatch):
        # main builds its parser once per process; a --config file's values
        # must reach only the command that named it
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "schedule-sim", lambda args: seen.append(args) or 0)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"kappa": 7.0, "seed": 3, "rounds": 4}))
        assert main(["schedule-sim", "--config", str(config)]) == 0
        assert main(["schedule-sim"]) == 0
        assert main(["schedule-sim", "--config", str(config), "--seed", "5"]) == 0
        first, second, third = seen
        assert (first.kappa, first.seed, first.rounds) == (7.0, 3, 4)
        defaults = ScheduleConfig()
        assert (second.kappa, second.seed, second.rounds) == (defaults.kappa, defaults.seed, 20)
        assert (third.kappa, third.seed, third.rounds) == (7.0, 5, 4)

    def test_config_supplies_values_and_flags_override(self, tmp_path):
        write_assets(tmp_path, frames=10)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": 0.0, "window": 3}))
        out_a = tmp_path / "a"
        code = main([
            "smooth", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--config", str(config), "-o", str(out_a),
        ])
        assert code == 0
        # alpha 0 + window from config: root trajectory unchanged
        skel_path = str(tmp_path / "skeleton.json")
        from retargetkit.motionio import load_skeleton

        skel = load_skeleton(skel_path)
        original = load_motion(tmp_path / "motion.json", skel)
        smoothed = load_motion(out_a / "motion.json", skel)
        np.testing.assert_array_equal(smoothed.root_pos, original.root_pos)

        # explicit flag overrides the config value
        out_b = tmp_path / "b"
        jittered = original.root_pos.copy()
        jittered[:, 2] += 0.01 * (-1.0) ** np.arange(len(jittered))
        from retargetkit.motionio import MotionSequence

        save_motion(
            MotionSequence(
                fps=original.fps,
                root_pos=jittered,
                root_rot=original.root_rot.copy(),
                joint_rots=original.joint_rots.copy(),
                obj_pos=original.obj_pos.copy(),
                obj_rot=original.obj_rot.copy(),
            ),
            tmp_path / "motion.json",
        )
        code = main([
            "smooth", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", skel_path,
            "--config", str(config), "--alpha", "10.0", "-o", str(out_b),
        ])
        assert code == 0
        smoothed = load_motion(out_b / "motion.json", skel)
        reloaded = load_motion(tmp_path / "motion.json", skel)
        assert not np.array_equal(smoothed.root_pos, reloaded.root_pos)


    def test_unknown_key_is_data_error(self, tmp_path, capsys):
        # a misspelt setting must not be dropped without a word
        write_assets(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"max_iteratons": 3}))
        code = main([
            "retarget", "--src", str(tmp_path / "motion.json"),
            "--src-skel", str(tmp_path / "skeleton.json"),
            "--tgt-skel", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"),
            "--config", str(config), "-o", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "max_iteratons" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weight", [True, False])
    def test_boolean_omega_weight_is_data_error(self, tmp_path, monkeypatch, capsys, weight):
        # every declared float setting refuses true and false; so does a weight
        monkeypatch.chdir(tmp_path)
        write_assets(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"omega": {"joint_pos": weight}}))
        assert main(["reward-eval"] + COMMAND_ARGS["reward-eval"] + ["--config", "cfg.json"]) == 2
        assert "config key 'omega'" in capsys.readouterr().err
        assert not (tmp_path / "rewards.csv").exists()

    def test_unflagged_setting_is_accepted(self, tmp_path):
        # reward-eval's per-component omega weights have no flag form
        write_assets(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"omega": {"joint_pos": 2.0}, "lambda_c": 0.5}))
        assert main([
            "reward-eval", "--motion", str(tmp_path / "motion.json"),
            "--ref", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"),
            "--config", str(config), "-o", str(tmp_path / "rewards.csv"),
        ]) == 0


class TestFitShapeCommand:
    def test_writes_scales_and_residual(self, tmp_path, capsys):
        write_assets(tmp_path)
        out = tmp_path / "shape.json"
        code = main([
            "fit-shape", "--skeleton", str(tmp_path / "skeleton.json"),
            "--target", str(tmp_path / "skeleton.json"), "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["residual_m"] < 1e-6
        np.testing.assert_allclose(doc["bone_scales"], 1.0, atol=1e-4)


class TestRetargetCommand:
    def test_happy_path_writes_outputs(self, tmp_path):
        write_assets(tmp_path)
        out_dir = tmp_path / "out"
        code = main([
            "retarget", "--src", str(tmp_path / "motion.json"),
            "--src-skel", str(tmp_path / "skeleton.json"),
            "--tgt-skel", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"),
            "-o", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "motion.json").exists()
        losses = (out_dir / "motion.losses.csv").read_text().splitlines()
        assert losses[0] == "frame,total,laplacian,temporal,vlimit,slide"
        assert len(losses) == 1 + 4

    def test_seeded_rerun_byte_identical(self, tmp_path):
        write_assets(tmp_path)
        args = [
            "retarget", "--src", str(tmp_path / "motion.json"),
            "--src-skel", str(tmp_path / "skeleton.json"),
            "--tgt-skel", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"),
        ]
        assert main(args + ["-o", str(tmp_path / "a")]) == 0
        assert main(args + ["-o", str(tmp_path / "b")]) == 0
        for name in ("motion.json", "motion.losses.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_target_joint_limits_bound_the_output(self, tmp_path):
        # the target's +-0.3 rad limits, not the source's +-2.5 rad, reach the
        # solver; retargeting onto the source skeleton wrote up to 1.2 rad
        write_assets(tmp_path, frames=10)
        save_skeleton(make_humanoid(q_limit=0.3), tmp_path / "tight.json")
        assert main([
            "retarget", "--src", str(tmp_path / "motion.json"),
            "--src-skel", str(tmp_path / "skeleton.json"),
            "--tgt-skel", str(tmp_path / "tight.json"),
            "--obj", str(tmp_path / "box.obj"), "-o", str(tmp_path / "out"),
        ]) == 0
        written = load_motion(tmp_path / "out" / "motion.json", make_humanoid())
        assert np.abs(written.joint_rots).max() <= 0.3 + 1e-12

    def test_matches_pipeline_entry_without_smoothing(self, tmp_path):
        manifest = write_corpus(tmp_path, frames=5, smooth={"alpha": 0.0, "rotation_window": 1}, retarget={})
        assert main([
            "retarget", "--src", str(tmp_path / "motion0.json"),
            "--src-skel", str(tmp_path / "skeleton.json"),
            "--tgt-skel", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "-o", str(tmp_path / "cli"),
        ]) == 0
        assert run_pipeline(load_manifest(manifest)).entries[0].status == "ok"
        for cli_name, entry_name in (("motion0.json", "seq0.json"), ("motion0.losses.csv", "seq0.losses.csv")):
            assert (tmp_path / "cli" / cli_name).read_bytes() == (tmp_path / "out" / entry_name).read_bytes()


class TestSmoothCommand:
    def test_writes_motion_and_energy(self, tmp_path):
        write_assets(tmp_path, frames=10)
        out_dir = tmp_path / "out"
        code = main([
            "smooth", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--alpha", "2.0", "--window", "3", "-o", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "motion.json").exists()
        energy = (out_dir / "motion.energy.csv").read_text().splitlines()
        assert energy[0] == "frame,before_x,before_y,before_z,after_x,after_y,after_z"
        assert len(energy) == 1 + 8  # n - 2 rows


class TestRewardEvalCommand:
    def test_identical_motion_scores_one_when_static(self, tmp_path):
        skel = make_humanoid()
        seq = held_box_motion(skel, frames=3, amplitude=0.0)  # static: zero velocities
        save_skeleton(skel, tmp_path / "skeleton.json")
        save_motion(seq, tmp_path / "motion.json")
        save_obj(make_box(half=CARRY_BOX_HALF, subdiv=2), tmp_path / "box.obj")
        out = tmp_path / "rewards.csv"
        code = main([
            "reward-eval", "--motion", str(tmp_path / "motion.json"),
            "--ref", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "-o", str(out),
        ])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "frame,R,imitation,contact,energy"
        for row in rows[1:]:
            assert float(row.split(",")[1]) == 1.0

    def test_sign_flipped_reference_imitates_exactly(self, tmp_path):
        # the box turns, so its angular velocity is non-zero; the reference
        # writes every root and object quaternion as its negation
        skel = make_humanoid()
        seq = held_box_motion(skel, frames=6, amplitude=0.2)
        turned = np.stack([quat_from_expmap((0.1, 0.0, 0.3 * t)) for t in range(6)])
        seq = replace(seq, obj_rot=turned)
        save_skeleton(skel, tmp_path / "skeleton.json")
        save_motion(seq, tmp_path / "motion.json")
        save_motion(replace(seq, root_rot=-seq.root_rot, obj_rot=-seq.obj_rot), tmp_path / "flipped.json")
        save_obj(make_box(half=CARRY_BOX_HALF, subdiv=2), tmp_path / "box.obj")
        out = tmp_path / "rewards.csv"
        assert main([
            "reward-eval", "--motion", str(tmp_path / "motion.json"),
            "--ref", str(tmp_path / "flipped.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "-o", str(out),
        ]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 6
        assert [float(row.split(",")[2]) for row in rows] == [1.0] * 6

    @pytest.mark.parametrize("label", [0.9, True])
    def test_non_integer_contact_label_is_data_error(self, tmp_path, capsys, monkeypatch, label):
        write_assets(tmp_path)
        doc = json.loads((tmp_path / "motion.json").read_text())
        for frame in doc["frames"]:
            frame["contacts"] = [0] * len(frame["joint_rots"]) + [1]
        doc["frames"][2]["contacts"][0] = label
        (tmp_path / "motion.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["reward-eval"] + COMMAND_ARGS["reward-eval"]) == 2
        assert "frame 2 contact labels must be integers" in capsys.readouterr().err
        assert not (tmp_path / "rewards.csv").exists()


class TestScheduleSimCommand:
    def test_csv_and_transitions(self, tmp_path):
        prefix = tmp_path / "sim"
        code = main([
            "schedule-sim", "--kappa", "2", "--epsilon", "2", "--t-imit", "4",
            "--horizon", "10", "--rounds", "6", "--seed", "3", "-o", str(prefix),
        ])
        assert code == 0
        rows = (tmp_path / "sim.csv").read_text().splitlines()
        assert rows[0] == "round,gate,w,teacher_fraction,reward_mode"
        gates = [float(r.split(",")[1]) for r in rows[1:]]
        assert gates == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
        lines = (tmp_path / "sim.transitions.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["rng"] == "numpy-pcg64" and header["seed"] == 3
        assert len(lines) == 1 + 6 * 10

    def test_seed_changes_stream_but_rerun_identical(self, tmp_path):
        base = ["schedule-sim", "--kappa", "1", "--epsilon", "2", "--t-imit", "2",
                "--horizon", "50", "--rounds", "4"]
        main(base + ["--seed", "1", "-o", str(tmp_path / "a")])
        main(base + ["--seed", "1", "-o", str(tmp_path / "b")])
        main(base + ["--seed", "2", "-o", str(tmp_path / "c")])
        a = (tmp_path / "a.transitions.jsonl").read_bytes()
        b = (tmp_path / "b.transitions.jsonl").read_bytes()
        c = (tmp_path / "c.transitions.jsonl").read_bytes()
        assert a == b
        assert a != c


class TestFilterCommand:
    def test_json_output(self, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"a": [10], "b": [10], "c": [100]}))
        out = tmp_path / "filter.json"
        assert main(["filter", "--stats", str(stats), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["retained"] == ["c"]
        assert doc["removed"] == ["a", "b"]
        assert doc["sigma_history"] == [40.0, 100.0]

    def test_non_numeric_lengths_are_data_error(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"a": [10], "b": ["long"]}))
        assert main(["filter", "--stats", str(stats)]) == 2

    @pytest.mark.parametrize("doc, named", [
        ("[1, 2]", "got list"), ("3", "got int"), ('"abc"', "got str"),
        ('{"a": [10], "b": [NaN]}', "clip 'b'"), ('{"a": [10], "b": [Infinity]}', "clip 'b'"),
        ('{"a": [10], "b": [-1]}', "clip 'b'"), ('{"a": [10], "b": "12"}', "clip 'b'"),
        # lengths are JSON numbers: float() read true as 1 and "50" as 50, and
        # an int beyond a float's range escaped as an OverflowError
        ('{"a": [true, "50", 3]}', "clip 'a'"), ('{"a": [10], "b": [false]}', "clip 'b'"),
        ('{"a": [10], "b": ["50"]}', "clip 'b'"), ('{"a": [10], "b": [1' + "0" * 400 + ']}', "clip 'b'"),
    ], ids=["array", "number", "string", "nan", "infinity", "negative", "lengths-string",
            "bool-and-text", "bool", "text", "int-beyond-float"])
    def test_malformed_stats_are_data_error(self, tmp_path, capsys, doc, named):
        stats = tmp_path / "stats.json"
        stats.write_text(doc)
        out = tmp_path / "filter.json"
        assert main(["filter", "--stats", str(stats), "-o", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_csv_output(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"a": [10], "c": [100]}))
        assert main(["filter", "--stats", str(stats), "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "clip,mean_length,status"


class TestPipelineCommand:
    def test_validate_only(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, frames=2)
        assert main(["pipeline", "--manifest", str(manifest), "--validate-only"]) == 0
        assert "seq0: ok" in capsys.readouterr().out

    def test_run_and_exit_codes(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, frames=3)
        assert main(["pipeline", "--manifest", str(manifest)]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    # case -> (whether the field is entry 0's or the manifest's, field, value):
    # a path is a non-empty JSON string, and so is an id
    FIELD_CASES = {
        "motion_type": (True, "motion", 5),
        "second_motion_type": (True, "second_motion", 5),
        "second_motion_empty": (True, "second_motion", ""),
        "source_skeleton_type": (True, "source_skeleton", []),
        "target_skeleton_empty": (True, "target_skeleton", ""),
        "object_null": (True, "object", None),
        "output_dir_type": (False, "output_dir", 7),
        "stats_path_empty": (False, "episode_stats", ""),
        "id_list": (True, "id", ["a"]),
        "id_number": (True, "id", 7),
        "id_null": (True, "id", None),
    }

    @pytest.mark.parametrize("case", ["stats_json", "stats_type", "stats_lengths", "optimizer_method",
                                      "learning_rate", "smooth_alpha", "entries_type", "mesh_rebuild"]
                             + list(FIELD_CASES))
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, case):
        manifest = write_corpus(tmp_path, frames=2)
        doc = json.loads(manifest.read_text())
        if case in self.FIELD_CASES:
            in_entry, key, value = self.FIELD_CASES[case]
            (doc["entries"][0] if in_entry else doc)[key] = value
        elif case == "stats_json":
            (tmp_path / "stats.json").write_text("{broken")
            doc["episode_stats"] = "stats.json"
        elif case == "stats_type":
            doc["episode_stats"] = [10.0, 20.0]
        elif case == "stats_lengths":
            doc["episode_stats"] = {"seq0": ["x"]}
        elif case == "optimizer_method":
            doc["retarget"]["optimizer"] = {"method": "sgd"}
        elif case == "learning_rate":
            doc["retarget"]["optimizer"] = {"learning_rate": -1}
        elif case == "smooth_alpha":
            doc["smooth"] = {"alpha": "x"}
        elif case == "mesh_rebuild":  # the setting was removed; every frame reuses certified topology
            doc["retarget"]["mesh_rebuild"] = "first-frame"
        else:
            doc["entries"] = 5
        manifest.write_text(json.dumps(doc))
        assert main(["pipeline", "--manifest", str(manifest), "--validate-only"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        if case in self.FIELD_CASES:  # the message names the manifest, the entry and the field
            in_entry, key, _ = self.FIELD_CASES[case]
            rule = "a string" if key == "id" else "a non-empty path string"
            assert f"{manifest}: {'entry 0 ' if in_entry else ''}field '{key}' must be {rule}" in err

    def test_jobs_is_neither_a_flag_nor_a_config_key(self, tmp_path, capsys):
        # there is no worker count to set, by flag or by config file
        manifest = write_corpus(tmp_path, frames=2)
        assert main(["pipeline", "--manifest", str(manifest), "--jobs", "2"]) == 1
        assert "--jobs" in capsys.readouterr().err
        (tmp_path / "cfg.json").write_text(json.dumps({"jobs": 2}))
        assert main(["pipeline", "--manifest", str(manifest), "--config", str(tmp_path / "cfg.json")]) == 2
        assert "unknown config keys for pipeline: jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_all_failures_exit_two(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, frames=3)
        (tmp_path / "motion0.json").write_text("{broken")
        assert main(["pipeline", "--manifest", str(manifest)]) == 2


class TestMeshInspectCommand:
    def test_dumps_mesh_json(self, tmp_path):
        write_assets(tmp_path)
        out = tmp_path / "mesh.json"
        code = main([
            "mesh-inspect", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"),
            "--frame", "1", "--proximity-gate", "none", "-o", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["tetrahedra"]
        assert {p["kind"] for p in doc["points"]} == {"A", "obj"}
        assert len(doc["reference_laplacians"]) == len(doc["tetrahedra"])

    @pytest.mark.parametrize("gate", [None, 0.5], ids=["gate-off", "gate-0.5"])
    def test_frame_is_the_one_retargeting_uses(self, tmp_path, gate):
        # frame 1 of this clip tetrahedralizes differently in the world frame
        # than from the object's seed, which retargeting builds from
        write_assets(tmp_path)
        skeleton = load_skeleton(tmp_path / "skeleton.json")
        cfg = RetargetConfig(retention=RetentionRule(proximity_gate=gate))
        meshes = source_meshes(load_motion(tmp_path / "motion.json", skeleton), skeleton,
                               ShapeParams.ones(skeleton.joint_count), load_obj(tmp_path / "box.obj"), cfg)
        out = tmp_path / "mesh.json"
        assert main([
            "mesh-inspect", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "--frame", "1",
            "--proximity-gate", "none" if gate is None else str(gate), "-o", str(out),
        ]) == 0
        assert json.loads(out.read_text()) == json.loads(json.dumps(mesh_to_dict(meshes[1])))

    def test_empty_frame_reports_its_reason(self, tmp_path):
        write_assets(tmp_path)
        out = tmp_path / "mesh.json"
        assert main([
            "mesh-inspect", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "--frame", "2", "--proximity-gate", "1e-6", "-o", str(out),
        ]) == 0
        assert json.loads(out.read_text()) == {
            "empty": True, "reason": "no tetrahedron satisfied the retention rule"}

    def test_second_motion_ending_before_the_frame_is_data_error(self, tmp_path, capsys):
        write_assets(tmp_path)
        save_motion(held_box_motion(make_humanoid(), frames=2, amplitude=0.02), tmp_path / "second.json")
        assert main([
            "mesh-inspect", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"), "--obj", str(tmp_path / "box.obj"),
            "--second-motion", str(tmp_path / "second.json"), "--frame", "3",
        ]) == 2
        assert "not time-aligned" in capsys.readouterr().err

    def test_malformed_gate_is_usage_error(self, tmp_path, capsys):
        write_assets(tmp_path)
        code = main([
            "mesh-inspect", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "--proximity-gate", "abc",
        ])
        assert code == 1
        assert "--proximity-gate" in capsys.readouterr().err

    def test_frame_out_of_range(self, tmp_path, capsys):
        write_assets(tmp_path)
        code = main([
            "mesh-inspect", "--motion", str(tmp_path / "motion.json"),
            "--skeleton", str(tmp_path / "skeleton.json"),
            "--obj", str(tmp_path / "box.obj"), "--frame", "99",
        ])
        assert code == 2
