"""End-to-end data refinement: fit -> retarget -> smooth (-> filter).

A manifest lists sequences to process plus stage configuration. Shape fits
are shared per (source skeleton, target skeleton) pair of resolved paths;
the fitted scales act as the bridge shape on the source topology, and
retargeting runs onto that bridge, which carries the target's joint limits,
velocity limits and foot joints (`bridge_skeleton`).

The entries whose motion, second motion, source skeleton and object paths
resolve to the same files, one clip onto several targets, form a group, the
unit of work. A group reads its scene (source skeleton, motion, second
motion and object) once, from its first entry's paths; its entries' targets
are then loaded and fitted in manifest order and retargeted together in one
`retarget_sequence` call, which builds the clip's interact meshes once (they
do not depend on the target) and solves the targets in lockstep; each entry
gets the bytes it gets in a manifest of its own. A clip's meshes live only
while its call runs, and shape fits are kept for the whole run. The groups
run in the manifest order of their last entries.

Each entry writes <id>.json and <id>.losses.csv, so one clip can go to
several targets under distinct ids, and the summary lists the entries in
manifest order. Entry failures are isolated: one broken entry, or one
target whose solve raises inside a lockstep group, never blocks or alters
the others, and the summary records what happened. An error in what a
group shares, a load of its scene or its mesh build, fails each of its
entries with that one error, which names a file as the first entry spells
it.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
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
from .retarget import TERM_NAMES, FrameLoss, RetargetConfig, RetargetResult, retarget_sequence
from .schedule import FilterState, filter_document, filter_until_converged, make_filter_state
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


def _config_from_dict(cls, raw: dict):
    """A cls from its manifest JSON object; a field whose default is a
    config dataclass is built the same way from its own sub-object."""
    if not isinstance(raw, dict):
        raise DataError(f"{cls.__name__} settings must be a JSON object, got {raw!r}")
    nested = {f.name: _config_from_dict(f.default_factory, raw[f.name])
              for f in fields(cls) if f.name in raw and is_dataclass(f.default_factory)}
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**{**raw, **nested})


def load_manifest(path) -> PipelineManifest:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list) or not raw["entries"]:
        raise DataError(f"{path}: manifest needs a non-empty 'entries' list")
    base = path.parent

    def resolve(value, key, where=""):
        if not isinstance(value, str) or not value:
            raise DataError(f"{path}: {where}field '{key}' must be a non-empty path string, got {value!r}")
        p = Path(value)
        return p if p.is_absolute() else base / p

    entries = []
    for idx, e in enumerate(raw["entries"]):
        if not isinstance(e, dict):
            raise DataError(f"{path}: entry {idx} is not a JSON object")
        for key in ("motion", "source_skeleton", "target_skeleton", "object"):
            if key not in e:
                raise DataError(f"{path}: entry {idx} missing field '{key}'")
        where, second = f"entry {idx} ", e.get("second_motion")
        motion = resolve(e["motion"], "motion", where)
        entry_id = e.get("id", motion.stem)
        if not isinstance(entry_id, str):
            raise DataError(f"{path}: {where}field 'id' must be a string, got {entry_id!r}")
        entries.append(
            ManifestEntry(
                entry_id=entry_id,
                motion=motion,
                source_skeleton=resolve(e["source_skeleton"], "source_skeleton", where),
                target_skeleton=resolve(e["target_skeleton"], "target_skeleton", where),
                object_path=resolve(e["object"], "object", where),
                second_motion=None if second is None else resolve(second, "second_motion", where),
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
        stats = read_json(resolve(stats, "episode_stats"))
    if stats:
        if not isinstance(stats, dict):
            raise DataError(f"{path}: episode_stats must map clip ids to episode lengths")
        make_filter_state(stats)  # reject malformed lengths before any entry runs
    return PipelineManifest(
        entries=tuple(entries),
        output_dir=resolve(raw.get("output_dir", "out"), "output_dir"),
        retarget=_config_from_dict(RetargetConfig, raw.get("retarget", {})),
        smooth=_config_from_dict(SmoothConfig, raw.get("smooth", {})),
        episode_stats=stats,
    )


@dataclass
class EntryReport:
    entry_id: str
    ok: bool
    problems: list[str] = field(default_factory=list)


def validate_manifest(manifest: PipelineManifest) -> list[EntryReport]:
    """Check every referenced path, skeleton/motion compatibility and the
    second motion's alignment with the first."""
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
                seq = load_motion(entry.motion, source)
                if entry.second_motion is not None:
                    second = load_motion(entry.second_motion, source)
                    if second.frame_count != seq.frame_count:
                        problems.append(f"second_motion has {second.frame_count} frames, motion has {seq.frame_count}")
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


def bridge_skeleton(source: Skeleton, target: Skeleton) -> Skeleton:
    """The skeleton retargeting runs onto: the source's names, topology and
    rest offsets (which the bridge shape scales) with the target's joint
    limits, velocity limits and foot joints. Joints match by index, as in
    fit_bridge: joint i of the target is joint i of the source."""
    if source.joint_count != target.joint_count:
        raise DataError(
            f"cannot bridge: source has {source.joint_count} joints, "
            f"target has {target.joint_count}"
        )
    return replace(source, q_min=target.q_min, q_max=target.q_max, v_min=target.v_min,
                   v_max=target.v_max, foot_joints=target.foot_joints)


def write_losses_csv(path, losses: tuple[FrameLoss, ...]) -> None:
    """One row of weighted loss terms per frame; `temporal` is the distance
    from the frame's prediction (see retarget.predict_frame)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + LOSS_COLUMNS)
        for f in losses:
            writer.writerow([f.frame] + [repr(getattr(f, name)) for name in LOSS_COLUMNS])


def smooth_motion(seq: MotionSequence, cfg: SmoothConfig) -> MotionSequence:
    """The motion with its root trajectory and joint rotations smoothed."""
    root_pos = smooth_root(seq.root_pos, cfg.alpha)
    return replace(smooth_rotations(seq, cfg.rotation_window), root_pos=root_pos)


def _resolved(path: Path | None) -> str | None:
    """The path with its symlinks and '..' resolved, as a key. Unlike
    Path.resolve on Python < 3.13, realpath does not raise on a symlink
    loop; the entry's loader reports it."""
    return None if path is None else os.path.realpath(path)


def _run_group(group: list[tuple[ManifestEntry, EntrySummary]], manifest: PipelineManifest, fits: dict) -> None:
    """Load the group's scene once, from its first entry's paths, then load,
    fit and bridge each entry's target in manifest order, retarget them in
    one retarget_sequence call, in lockstep when there are several, and
    smooth and write each. A fit is taken from `fits` when there, which keeps
    every fit of the run that did not raise, keyed by the resolved source and
    target skeleton paths. An error in what the entries share, the scene's
    loads or the call's mesh build, fails every entry with that one error."""
    first = group[0][0]
    try:
        source = load_skeleton(first.source_skeleton)
        seq = load_motion(first.motion, source)
        obj = load_obj(first.object_path)
        second = None if first.second_motion is None else load_motion(first.second_motion, source)
    except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
        for _, summary in group:
            summary.error = f"{type(exc).__name__}: {exc}"
        return
    ready, bridges, shapes = [], [], []
    for entry, summary in group:
        try:
            target = load_skeleton(entry.target_skeleton)
            fit_key = (_resolved(entry.source_skeleton), _resolved(entry.target_skeleton))
            if fit_key not in fits:
                fits[fit_key] = fit_bridge(source, target)
            shape, summary.fit_residual = fits[fit_key]
            bridges.append(bridge_skeleton(source, target))
            shapes.append(shape)
            ready.append((entry, summary))
        except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
            summary.error = f"{type(exc).__name__}: {exc}"
    if not ready:
        return
    try:
        results = retarget_sequence(seq, source, ShapeParams.ones(source.joint_count), bridges, shapes, obj,
                                    manifest.retarget, second_seq=second)
    except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
        results = [exc] * len(ready)
    for (entry, summary), result in zip(ready, results):
        try:
            if isinstance(result, Exception):
                raise result
            _write_entry(entry, summary, result, manifest)
        except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
            summary.error = f"{type(exc).__name__}: {exc}"


def _write_entry(entry: ManifestEntry, summary: EntrySummary, result: RetargetResult,
                 manifest: PipelineManifest) -> None:
    """Smooth the entry's result, write its motion and losses and fill in its
    summary."""
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


def run_pipeline(manifest: PipelineManifest, jobs: int = 1) -> PipelineSummary:
    """Process the entries, write outputs and summary files, run the filter
    when episode statistics are supplied. Deterministic for a fixed manifest.

    The entries that name one source scene (motion, second motion, source
    skeleton and object, by resolved path) form a group. The groups run in
    the manifest order of their last entries; each reads its scene once,
    fits its entries' targets in manifest order and retargets them together,
    in one lockstep retarget_sequence call, and each entry gets the bytes it
    gets alone. The summary lists the entries in manifest order."""
    if jobs != 1:  # the keyword stays only while the benchmark passes jobs=1
        raise ValueError(f"entries run one at a time; jobs must be 1, got {jobs!r}")
    groups: dict[tuple, list] = {}
    results = []
    for entry in manifest.entries:
        results.append(EntrySummary(entry_id=entry.entry_id, status="failed"))
        key = tuple(_resolved(p) for p in (entry.motion, entry.second_motion, entry.source_skeleton,
                                           entry.object_path))
        # moved to the end, so the groups run in the order of their last entries
        groups[key] = groups.pop(key, []) + [(entry, results[-1])]
    fits: dict[tuple, tuple[ShapeParams, float]] = {}
    for group in groups.values():
        _run_group(group, manifest, fits)

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
        doc["filter"] = filter_document(summary.filter_state)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")
