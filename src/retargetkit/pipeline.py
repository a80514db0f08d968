"""End-to-end data refinement: fit -> retarget -> smooth (-> filter).

A manifest lists sequences to process plus stage configuration. Shape fits
are shared per (source skeleton, target skeleton) file contents; the fitted
scales act as the bridge shape on the source topology, and retargeting runs
onto that bridge. Source interact meshes do not depend on the target, so they
are shared per (motion, second motion, source skeleton, object) file
contents: one clip onto N targets builds its meshes once. Both live in one
memo for the run, which drops a value when the last entry that needs it has
finished. Each entry writes <id>.json and <id>.losses.csv, so one
clip can go to several targets under distinct ids. Entry failures are
isolated: one broken entry never blocks or alters the others, and the summary
records what happened.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .interactmesh import RetentionRule
from .kinematics import fit_shape, fk, tpose
from .motionio import (
    MotionSequence,
    ShapeParams,
    Skeleton,
    load_motion,
    load_obj,
    load_skeleton,
    read_json,
    save_motion,
)
from .optim import OptimizerConfig
from .retarget import TERM_NAMES, FrameLoss, RetargetConfig, retarget_sequence, source_meshes
from .schedule import FilterState, filter_until_converged, make_filter_state
from .smoothing import SmoothConfig, second_difference_energy, smooth_root, smooth_rotations


@dataclass(frozen=True)
class ManifestEntry:
    entry_id: str
    motion: Path
    source_skeleton: Path
    target_skeleton: Path
    object_path: Path
    second_motion: Path | None = None


@dataclass(frozen=True)
class PipelineManifest:
    entries: tuple[ManifestEntry, ...]
    output_dir: Path
    retarget: RetargetConfig = field(default_factory=RetargetConfig)
    smooth: SmoothConfig = field(default_factory=SmoothConfig)
    episode_stats: dict[str, list[float]] | None = None


def _config_from_dict(cls, raw: dict, **nested):
    if not isinstance(raw, dict):
        raise DataError(f"{cls.__name__} settings must be a JSON object, got {raw!r}")
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    merged = dict(raw)
    merged.update(nested)
    try:
        return cls(**merged)
    except TypeError as exc:  # a value of the wrong type met a comparison
        raise DataError(f"invalid {cls.__name__} settings {raw!r}: {exc}") from exc


def retarget_config_from_dict(raw: dict) -> RetargetConfig:
    nested = {}
    if isinstance(raw, dict):
        for key, cls in (("optimizer", OptimizerConfig), ("retention", RetentionRule)):
            if key in raw:
                nested[key] = _config_from_dict(cls, raw[key])
        raw = {k: v for k, v in raw.items() if k not in nested}
    return _config_from_dict(RetargetConfig, raw, **nested)


def load_manifest(path) -> PipelineManifest:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list) or not raw["entries"]:
        raise DataError(f"{path}: manifest needs a non-empty 'entries' list")
    base = path.parent

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    entries = []
    for idx, e in enumerate(raw["entries"]):
        if not isinstance(e, dict):
            raise DataError(f"{path}: entry {idx} is not a JSON object")
        for key in ("motion", "source_skeleton", "target_skeleton", "object"):
            if key not in e:
                raise DataError(f"{path}: entry {idx} missing field '{key}'")
        entries.append(
            ManifestEntry(
                entry_id=str(e.get("id", Path(e["motion"]).stem)),
                motion=resolve(e["motion"]),
                source_skeleton=resolve(e["source_skeleton"]),
                target_skeleton=resolve(e["target_skeleton"]),
                object_path=resolve(e["object"]),
                second_motion=resolve(e["second_motion"]) if e.get("second_motion") else None,
            )
        )
    ids = [e.entry_id for e in entries]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate entry ids")
    for entry_id in ids:
        # outputs are named after the id, so it must be a plain file name
        if entry_id in ("", ".", "..") or "/" in entry_id or "\\" in entry_id:
            raise DataError(f"{path}: entry id {entry_id!r} is not a plain file name")
        if entry_id == "summary":
            raise DataError(f"{path}: entry id 'summary' would overwrite summary.json")

    stats = raw.get("episode_stats")
    if isinstance(stats, str):
        stats = read_json(resolve(stats))
    if stats:
        if not isinstance(stats, dict):
            raise DataError(f"{path}: episode_stats must map clip ids to episode lengths")
        make_filter_state(stats)  # reject malformed lengths before any entry runs
    return PipelineManifest(
        entries=tuple(entries),
        output_dir=resolve(raw.get("output_dir", "out")),
        retarget=retarget_config_from_dict(raw.get("retarget", {})),
        smooth=_config_from_dict(SmoothConfig, raw.get("smooth", {})),
        episode_stats=stats,
    )


@dataclass
class EntryReport:
    entry_id: str
    ok: bool
    problems: list[str] = field(default_factory=list)


def validate_manifest(manifest: PipelineManifest) -> list[EntryReport]:
    """Check every referenced path and skeleton/motion compatibility."""
    reports = []
    for entry in manifest.entries:
        problems = []
        paths = [
            ("motion", entry.motion),
            ("source_skeleton", entry.source_skeleton),
            ("target_skeleton", entry.target_skeleton),
            ("object", entry.object_path),
        ]
        if entry.second_motion is not None:
            paths.append(("second_motion", entry.second_motion))
        for label, p in paths:
            if not Path(p).is_file():
                problems.append(f"{label}: missing file {p}")
        if not problems:
            try:
                source = load_skeleton(entry.source_skeleton)
                target = load_skeleton(entry.target_skeleton)
                if source.joint_count != target.joint_count:
                    problems.append(
                        f"skeletons incompatible: source has {source.joint_count} joints, "
                        f"target has {target.joint_count}"
                    )
                load_motion(entry.motion, source)
                if entry.second_motion is not None:
                    load_motion(entry.second_motion, source)
                load_obj(entry.object_path)
            except DataError as exc:
                problems.append(str(exc))
        reports.append(EntryReport(entry_id=entry.entry_id, ok=not problems, problems=problems))
    return reports


@dataclass
class EntrySummary:
    entry_id: str
    status: str  # "ok" | "failed"
    error: str = ""
    fit_residual: float = float("nan")
    mean_terms: dict[str, float] = field(default_factory=dict)
    root_energy_before: float = float("nan")
    root_energy_after: float = float("nan")
    output_motion: str = ""


@dataclass
class PipelineSummary:
    entries: list[EntrySummary]
    filter_state: FilterState | None = None

    @property
    def all_failed(self) -> bool:
        return all(e.status != "ok" for e in self.entries)


LOSS_COLUMNS = ("total",) + TERM_NAMES


def fit_bridge(source: Skeleton, target: Skeleton) -> tuple[ShapeParams, float]:
    """Bone scales that give the source topology the target's T-pose joints.

    Retargeting runs onto this bridge shape. Returns the scales and the fit's
    RMS joint error in meters.
    """
    if source.joint_count != target.joint_count:
        raise DataError(
            f"cannot fit: source has {source.joint_count} joints, "
            f"target has {target.joint_count}"
        )
    target_joints = fk(target, ShapeParams.ones(target.joint_count), tpose(target))
    return fit_shape(source, target_joints)


def write_losses_csv(path, losses: tuple[FrameLoss, ...]) -> None:
    """One row of weighted loss terms per frame."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + LOSS_COLUMNS)
        for f in losses:
            writer.writerow([f.frame] + [repr(getattr(f, name)) for name in LOSS_COLUMNS])


def smooth_motion(seq: MotionSequence, cfg: SmoothConfig) -> MotionSequence:
    """The motion with its root trajectory and joint rotations smoothed."""
    root_pos = smooth_root(seq.root_pos, cfg.alpha)
    return replace(smooth_rotations(seq, cfg.rotation_window), root_pos=root_pos)


def _file_digest(path: Path | None) -> str:
    return "-" if path is None else hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _entry_keys(entry: ManifestEntry) -> tuple[tuple, tuple]:
    """The entry's shape-fit and source-mesh keys, from its files' contents.
    The retarget config is manifest-wide, so it is no part of a key."""
    source, target, motion, second, obj = (
        _file_digest(p) for p in (entry.source_skeleton, entry.target_skeleton, entry.motion,
                                  entry.second_motion, entry.object_path)
    )
    return ("fit", source, target), ("meshes", motion, second, source, obj)


class _Memo:
    """Values built once per key and shared by the entries that need them.

    Each key's users are counted before any entry runs, and a value is
    dropped when its last user releases the key, so a long manifest holds
    only the values of the entries still to finish. A build that raises is
    not kept, so every user of a broken input gets its own error.
    """

    def __init__(self, users: Counter):
        self._users = users
        self._values: dict[tuple, object] = {}

    def get(self, key: tuple, build):
        if key not in self._values:
            self._values[key] = build()
        return self._values[key]

    def release(self, key: tuple) -> None:
        self._users[key] -= 1
        if self._users[key] <= 0:
            self._values.pop(key, None)


def _process_entry(entry: ManifestEntry, keys: tuple | None, manifest: PipelineManifest,
                   memo: _Memo) -> EntrySummary:
    summary = EntrySummary(entry_id=entry.entry_id, status="failed")
    try:
        source_skel = load_skeleton(entry.source_skeleton)
        seq = load_motion(entry.motion, source_skel)
        obj = load_obj(entry.object_path)
        second = (
            load_motion(entry.second_motion, source_skel)
            if entry.second_motion is not None
            else None
        )
        keys = keys or _entry_keys(entry)  # a file that could not be read fails here
        fit_key, mesh_key = keys
        bridge_shape, residual = memo.get(
            fit_key, lambda: fit_bridge(source_skel, load_skeleton(entry.target_skeleton))
        )
        summary.fit_residual = residual

        ones = ShapeParams.ones(source_skel.joint_count)
        meshes = memo.get(
            mesh_key,
            lambda: source_meshes(seq, source_skel, ones, obj, manifest.retarget, second_seq=second),
        )
        result = retarget_sequence(
            seq,
            source_skel,
            ones,
            source_skel,
            bridge_shape,
            obj,
            manifest.retarget,
            meshes=meshes,
        )
        final = smooth_motion(result.sequence, manifest.smooth)

        out_dir = Path(manifest.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_motion = out_dir / f"{entry.entry_id}.json"
        save_motion(final, out_motion)
        write_losses_csv(out_dir / f"{entry.entry_id}.losses.csv", result.per_frame_losses)

        losses = result.per_frame_losses
        summary.mean_terms = {name: float(np.mean([getattr(f, name) for f in losses]))
                              for name in LOSS_COLUMNS}
        summary.root_energy_before = float(second_difference_energy(result.sequence.root_pos).sum())
        summary.root_energy_after = float(second_difference_energy(final.root_pos).sum())
        summary.output_motion = str(out_motion)
        summary.status = "ok"
    except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
        summary.error = f"{type(exc).__name__}: {exc}"
    finally:
        for key in keys or ():
            memo.release(key)
    return summary


def run_pipeline(manifest: PipelineManifest, jobs: int = 1) -> PipelineSummary:
    """Process the entries one at a time in manifest order, write outputs and
    summary files, run the filter when episode statistics are supplied.
    Deterministic for a fixed manifest."""
    if jobs != 1:  # the keyword stays only while the benchmark passes jobs=1
        raise ValueError(f"entries run one at a time; jobs must be 1, got {jobs!r}")
    keys = []
    for entry in manifest.entries:
        try:
            keys.append(_entry_keys(entry))
        except OSError:  # the entry reports it when it runs
            keys.append(None)
    memo = _Memo(Counter(key for pair in keys if pair for key in pair))
    results = [_process_entry(entry, pair, manifest, memo) for entry, pair in zip(manifest.entries, keys)]

    filter_state = None
    if manifest.episode_stats:
        filter_state = filter_until_converged(make_filter_state(manifest.episode_stats))

    summary = PipelineSummary(entries=results, filter_state=filter_state)
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_summary(summary, out_dir)
    return summary


def _write_summary(summary: PipelineSummary, out_dir: Path) -> None:
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["entry", "status", "error", "fit_residual"]
            + [f"mean_{t}" for t in LOSS_COLUMNS]
            + ["root_energy_before", "root_energy_after", "output_motion"]
        )
        for e in summary.entries:
            writer.writerow(
                [e.entry_id, e.status, e.error, repr(e.fit_residual)]
                + [repr(e.mean_terms.get(t, float("nan"))) for t in LOSS_COLUMNS]
                + [repr(e.root_energy_before), repr(e.root_energy_after), e.output_motion]
            )
    doc = {
        "entries": [
            {
                "entry": e.entry_id,
                "status": e.status,
                "error": e.error,
                "fit_residual": e.fit_residual,
                "mean_terms": e.mean_terms,
                "root_energy_before": e.root_energy_before,
                "root_energy_after": e.root_energy_after,
                "output_motion": e.output_motion,
            }
            for e in summary.entries
        ]
    }
    if summary.filter_state is not None:
        doc["filter"] = {
            "retained": sorted(c.clip_id for c in summary.filter_state.retained),
            "removed": sorted(summary.filter_state.removed),
            "sigma_history": list(summary.filter_state.sigma_history),
            "iterations": summary.filter_state.iteration,
        }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")
