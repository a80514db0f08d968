"""End-to-end data refinement: fit -> retarget -> smooth (-> filter).

A manifest lists sequences to process plus stage configuration. An entry is
retargeted onto its `bridge`: the source topology under bone scales fitted to
the target's T-pose, with the target's joint limits, velocity limits and foot
joints. A run keeps one bridge per pair of resolved skeleton paths.

The entries whose motion, second motion, source skeleton and object paths
resolve to the same files, one clip onto several targets, form a group, the
unit of work. A group reads its scene (source skeleton, motion, second
motion and object) once, from its first entry's paths; its entries' targets
are then loaded and bridged in manifest order (`_prepare_group`) and
retargeted together in one `retarget_sequence` call, which builds the clip's
interact meshes once (they do not depend on the target) and solves the
targets in lockstep; each entry gets the bytes it gets in a manifest of its
own. A clip's meshes live only while its call runs. The groups run in the
manifest order of their last entries. `validate_manifest` runs the same
grouping and preparation and stops before retargeting.

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
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .kinematics import fit_shape, fk, tpose
from .motionio import (
    MotionSequence,
    ObjectMesh,
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
        if not isinstance(value, str) or not value or "\0" in value:  # realpath and open refuse a NUL
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
    """Check each entry as the run prepares it, without retargeting. An entry
    that names a missing file reports that file. Otherwise it reports the
    error that the run's own grouping and group preparation (one scene read
    per group, then each target loaded and bridged) gives it, or, when it has
    a bridge, a second motion whose frame count differs from its motion's."""
    rows, groups = _groups(manifest)
    bridges: dict = {}
    for group in groups:
        scene, ready = _prepare_group(group, bridges)
        if ready and scene.second is not None and scene.second.frame_count != scene.seq.frame_count:
            for _, row, _, _ in ready:
                row.error = (f"second_motion has {scene.second.frame_count} frames, "
                             f"motion has {scene.seq.frame_count}")
    reports = []
    for entry, row in zip(manifest.entries, rows):
        paths = {"motion": entry.motion, "source_skeleton": entry.source_skeleton,
                 "target_skeleton": entry.target_skeleton, "object": entry.object_path,
                 "second_motion": entry.second_motion}
        problems = [f"{label}: missing file {p}" for label, p in paths.items()
                    if p is not None and not os.path.isfile(p)]  # False, not OSError, on a name too long
        problems = problems or ([row.error] if row.error else [])
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


def bridge(source: Skeleton, target: Skeleton) -> tuple[Skeleton, ShapeParams, float]:
    """The skeleton and shape that retargeting runs onto, and the shape fit's
    RMS joint error in meters: the source's names, topology and rest offsets
    with the target's joint limits, velocity limits and foot joints, under the
    bone scales that give it the target's T-pose joints. Joints match by
    index: joint i of the target is joint i of the source."""
    if source.joint_count != target.joint_count:
        raise DataError(f"cannot fit: source has {source.joint_count} joints, target has {target.joint_count}")
    target_joints = fk(target, ShapeParams.ones(target.joint_count), tpose(target))
    shape, residual = fit_shape(source, target_joints)
    skeleton = replace(source, q_min=target.q_min, q_max=target.q_max, v_min=target.v_min,
                       v_max=target.v_max, foot_joints=target.foot_joints)
    return skeleton, shape, residual


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


def _error(exc: Exception) -> str:
    """An exception as an entry's summary words it."""
    return f"{type(exc).__name__}: {exc}"


def _groups(manifest: PipelineManifest) -> tuple[list[EntrySummary], list[list[tuple]]]:
    """A failed summary per entry, in manifest order, and the entries paired
    with their summaries and grouped by source scene (motion, second motion,
    source skeleton and object, by resolved path), in the manifest order of
    each group's last entry."""
    summaries, groups = [], {}
    for entry in manifest.entries:
        summaries.append(EntrySummary(entry_id=entry.entry_id, status="failed"))
        key = tuple(_resolved(p) for p in (entry.motion, entry.second_motion, entry.source_skeleton,
                                           entry.object_path))
        # moved to the end, so the groups come in the order of their last entries
        groups[key] = groups.pop(key, []) + [(entry, summaries[-1])]
    return summaries, list(groups.values())


class _Scene(NamedTuple):
    """What a group's entries share."""
    source: Skeleton
    seq: MotionSequence
    obj: ObjectMesh
    second: MotionSequence | None


def _prepare_group(group: list[tuple[ManifestEntry, EntrySummary]], bridges: dict) -> tuple[_Scene | None, list]:
    """Load the group's scene once, from its first entry's paths, then each
    entry's bridge in manifest order. An entry that fails gets the error in
    its summary; a failed scene load fails every entry with that one error.
    Returns the scene, None when it failed, and (entry, summary, skeleton,
    shape) for each bridged entry. `bridges` keeps every bridge of the run
    that did not raise, keyed by the resolved source and target skeleton
    paths, and a target is loaded only when its bridge is not there."""
    first = group[0][0]
    try:
        source = load_skeleton(first.source_skeleton)
        seq = load_motion(first.motion, source)
        obj = load_obj(first.object_path)
        second = None if first.second_motion is None else load_motion(first.second_motion, source)
    except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
        for _, summary in group:
            summary.error = _error(exc)
        return None, []
    ready = []
    for entry, summary in group:
        try:
            key = (_resolved(entry.source_skeleton), _resolved(entry.target_skeleton))
            if key not in bridges:
                bridges[key] = bridge(source, load_skeleton(entry.target_skeleton))
            skeleton, shape, summary.fit_residual = bridges[key]
            ready.append((entry, summary, skeleton, shape))
        except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
            summary.error = _error(exc)
    return _Scene(source, seq, obj, second), ready


def _run_group(group: list[tuple[ManifestEntry, EntrySummary]], manifest: PipelineManifest, bridges: dict) -> None:
    """Prepare the group (_prepare_group), retarget its bridged entries in one
    retarget_sequence call, in lockstep when there are several, and smooth
    and write each. An error in what the entries share, the scene's loads or
    the call's mesh build, fails every entry with that one error."""
    scene, ready = _prepare_group(group, bridges)
    if not ready:
        return
    entries, summaries, skeletons, shapes = zip(*ready)
    try:
        results = retarget_sequence(scene.seq, scene.source, ShapeParams.ones(scene.source.joint_count),
                                    skeletons, shapes, scene.obj, manifest.retarget, second_seq=scene.second)
    except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
        results = [exc] * len(ready)
    for entry, summary, result in zip(entries, summaries, results):
        try:
            if isinstance(result, Exception):
                raise result
            _write_entry(entry, summary, result, manifest)
        except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
            summary.error = _error(exc)


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
    bridges its entries' targets in manifest order and retargets them
    together, in one lockstep retarget_sequence call, and each entry gets the
    bytes it gets alone. The summary lists the entries in manifest order."""
    if jobs != 1:  # the keyword stays only while the benchmark passes jobs=1
        raise ValueError(f"entries run one at a time; jobs must be 1, got {jobs!r}")
    results, groups = _groups(manifest)
    bridges: dict = {}
    for group in groups:
        _run_group(group, manifest, bridges)

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
