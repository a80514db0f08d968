"""End-to-end data refinement: fit -> retarget -> smooth (-> filter).

A manifest lists sequences to process plus stage configuration. Shape fits
are cached per (source skeleton, target skeleton) content hash; the fitted
scales act as the bridge shape on the source topology, and retargeting runs
onto that bridge. Each entry writes <id>.json and <id>.losses.csv, so one
clip can go to several targets under distinct ids. Entry failures are
isolated: one broken entry never blocks or alters the others, and the summary
records what happened.
"""

from __future__ import annotations

import csv
import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .interactmesh import RetentionRule
from .kinematics import fit_shape, fk, tpose
from .motionio import (
    MotionSequence,
    ShapeParams,
    load_motion,
    load_obj,
    load_skeleton,
    save_motion,
)
from .optim import OptimizerConfig
from .retarget import RetargetConfig, retarget_sequence
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
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    merged = dict(raw)
    merged.update(nested)
    return cls(**merged)


def retarget_config_from_dict(raw: dict) -> RetargetConfig:
    raw = dict(raw)
    nested = {}
    if "optimizer" in raw:
        nested["optimizer"] = _config_from_dict(OptimizerConfig, raw.pop("optimizer"))
    if "retention" in raw:
        nested["retention"] = _config_from_dict(RetentionRule, raw.pop("retention"))
    return _config_from_dict(RetargetConfig, raw, **nested)


def load_manifest(path) -> PipelineManifest:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if "entries" not in raw or not raw["entries"]:
        raise DataError(f"{path}: manifest needs a non-empty 'entries' list")
    base = path.parent

    def resolve(p):
        p = Path(p)
        return p if p.is_absolute() else base / p

    entries = []
    for idx, e in enumerate(raw["entries"]):
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
        with open(resolve(stats), "r", encoding="utf-8") as fh:
            stats = json.load(fh)
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


class _ShapeFitCache:
    """fit_shape results keyed by the two skeleton files' content hashes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._store: dict[str, tuple[ShapeParams, float]] = {}

    @staticmethod
    def key(source_path, target_path) -> str:
        h = hashlib.sha256()
        for p in (source_path, target_path):
            h.update(Path(p).read_bytes())
            h.update(b"\x00")
        return h.hexdigest()

    def fit(self, source_path, target_path):
        key = self.key(source_path, target_path)
        with self._lock:
            if key in self._store:
                return self._store[key]
        source = load_skeleton(source_path)
        target = load_skeleton(target_path)
        if source.joint_count != target.joint_count:
            raise DataError(
                f"cannot fit: source has {source.joint_count} joints, "
                f"target has {target.joint_count}"
            )
        target_joints = fk(target, ShapeParams.ones(target.joint_count), tpose(target))
        result = fit_shape(source, target_joints)
        with self._lock:
            self._store.setdefault(key, result)
        return result


def _write_losses_csv(path, losses):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "total", "laplacian", "temporal", "jlimit", "vlimit", "slide"])
        for f in losses:
            writer.writerow(
                [f.frame] + [repr(v) for v in (f.total, f.laplacian, f.temporal, f.jlimit, f.vlimit, f.slide)]
            )


def _process_entry(entry: ManifestEntry, manifest: PipelineManifest, cache: _ShapeFitCache) -> EntrySummary:
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
        bridge_shape, residual = cache.fit(entry.source_skeleton, entry.target_skeleton)
        summary.fit_residual = residual

        ones = ShapeParams.ones(source_skel.joint_count)
        result = retarget_sequence(
            seq,
            source_skel,
            ones,
            source_skel,
            bridge_shape,
            obj,
            manifest.retarget,
            second_seq=second,
        )
        smoothed_root = smooth_root(result.sequence.root_pos, manifest.smooth.alpha)
        smoothed = smooth_rotations(result.sequence, manifest.smooth.rotation_window)
        final = MotionSequence(
            fps=smoothed.fps,
            root_pos=smoothed_root,
            root_rot=smoothed.root_rot.copy(),
            joint_rots=smoothed.joint_rots.copy(),
            obj_pos=smoothed.obj_pos.copy(),
            obj_rot=smoothed.obj_rot.copy(),
            contacts=None if smoothed.contacts is None else smoothed.contacts.copy(),
        )

        out_dir = Path(manifest.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_motion = out_dir / f"{entry.entry_id}.json"
        save_motion(final, out_motion)
        _write_losses_csv(out_dir / f"{entry.entry_id}.losses.csv", result.per_frame_losses)

        losses = result.per_frame_losses
        summary.mean_terms = {
            name: float(np.mean([getattr(f, name) for f in losses]))
            for name in ("total", "laplacian", "temporal", "jlimit", "vlimit", "slide")
        }
        summary.root_energy_before = float(second_difference_energy(result.sequence.root_pos).sum())
        summary.root_energy_after = float(second_difference_energy(final.root_pos).sum())
        summary.output_motion = str(out_motion)
        summary.status = "ok"
    except Exception as exc:  # noqa: BLE001 - crash isolation is the contract
        summary.error = f"{type(exc).__name__}: {exc}"
    return summary


def run_pipeline(manifest: PipelineManifest, jobs: int = 1) -> PipelineSummary:
    """Process every entry, write outputs and summary files, run the filter
    when episode statistics are supplied. Deterministic for a fixed manifest."""
    cache = _ShapeFitCache()
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda e: _process_entry(e, manifest, cache), manifest.entries))
    else:
        results = [_process_entry(e, manifest, cache) for e in manifest.entries]

    filter_state = None
    if manifest.episode_stats:
        filter_state = filter_until_converged(make_filter_state(manifest.episode_stats))

    summary = PipelineSummary(entries=results, filter_state=filter_state)
    out_dir = Path(manifest.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_summary(summary, out_dir)
    return summary


def _write_summary(summary: PipelineSummary, out_dir: Path) -> None:
    term_names = ("total", "laplacian", "temporal", "jlimit", "vlimit", "slide")
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["entry", "status", "error", "fit_residual"]
            + [f"mean_{t}" for t in term_names]
            + ["root_energy_before", "root_energy_after", "output_motion"]
        )
        for e in summary.entries:
            writer.writerow(
                [e.entry_id, e.status, e.error, repr(e.fit_residual)]
                + [repr(e.mean_terms.get(t, float("nan"))) for t in term_names]
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
