"""Benchmark of retargetkit: one workload per invocation.

    python3 bench/run.py --workload held_box_identity --seed 1 --seconds 40 --trace 0

Set-up generates the workload's inputs from the seed and writes them under
.bench_out/ at the root of the checkout; the timed phase then repeats whole
rounds of the same operations within --seconds (at least one round). The
checks compare round 0's outputs against the benchmark's own oracles and every
later round against round 0. With --trace 1, rounds alternate untraced and
traced, and the per-layer numbers come from the traced ones. Without
tracing, a speedometer (speedometer.py) converts each step's time to what it
would have taken in the host's fast state. bench/README.md defines the
workloads, metrics and checks.

The human-readable report goes to standard output; its last line is the
result as one JSON object.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One compute thread: on a 2-core machine a second one measures the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("held_box_identity", "coop_carry_batch", "reward_curation")
SETUP_REPEATS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> tracer accumulator (see workloads.instrument)
PER_LAYER = {
    "interactmesh.delaunay_s": "interactmesh.delaunay_s",
    "interactmesh.delaunay_calls": "interactmesh.delaunay_calls",
    "interactmesh.build_s": "interactmesh.build_s",
    "interactmesh.empty_frames": "interactmesh.empty_frames",
    "kinematics.jacobian_s": "kinematics.jacobian_s",
    "kinematics.jacobian_calls": "kinematics.jacobian_calls",
    "kinematics.fk_s": "kinematics.fk_s",
    "kinematics.fk_calls": "kinematics.fk_calls",
    "kinematics.fit_shape_s": "kinematics.fit_shape_s",
    "optim.solve_s": "optim.solve_s",
    "optim.iterations": "optim.iterations",
    "optim.residual_evals": "retarget.residual_calls",
    "optim.loss_evals": "retarget.loss_calls",
    "optim.unconverged_frames": "optim.unconverged_frames",
    "retarget.residual_s": "retarget.residual_s",
    "retarget.loss_s": "retarget.loss_s",
    "retarget.sequence_s": "retarget.sequence_s",
    "smoothing.root_s": "smoothing.root_s",
    "smoothing.rotations_s": "smoothing.rotations_s",
    "motionio.load_s": "motionio.load_s",
    "motionio.save_s": "motionio.save_s",
    "pipeline.output_files": "pipeline.output_files",
    "rewards.compute_s": "rewards.compute_s",
    "rewards.graph_s": "rewards.graph_s",
    "rewards.frames_scored": "rewards.compute_calls",
    "cli.reward_eval_s": "cli.reward_eval_s",
    "schedule.sim_s": "schedule.sim_s",
    "schedule.sim_steps": "schedule.sim_steps",
    "schedule.filter_s": "schedule.filter_s",
    "schedule.filter_iterations": "schedule.filter_iterations",
}
LAYERS = ("interactmesh", "kinematics", "optim", "retarget", "smoothing", "motionio", "pipeline",
          "rewards", "cli", "schedule")


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="retargetkit benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, seed: int, work: Path) -> list[tuple[float, float]]:
    """Set the workload up SETUP_REPEATS times from the same seed, each into a
    fresh directory, and keep the last; returns each set-up's interval."""
    intervals = []
    for k in range(SETUP_REPEATS):
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
        target = work / f"setup{k}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(seed, target)
        intervals.append((start, time.perf_counter()))
    return intervals


def timed_rounds(args, workload, workloads, tracer):
    """Whole rounds for --seconds: a round starts only if a round of median
    length still fits, and the first always runs. With tracing, odd rounds are
    traced and at least one round of each kind runs. Returns, besides the
    outputs and round times, each untraced round's step intervals by name."""
    outputs, walls, traced_walls, layer_rounds, steps = [], [], [], [], []
    delaunay_calls: list = []
    # The host's vCPUs slow down independently of each other (another tenant
    # on the same core), so rounds alternate between the CPUs this process
    # may use (README, "Timing noise").
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    index = 0

    @contextmanager
    def timed(name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            steps[-1][name] = (t0, time.perf_counter())

    while True:
        pair = index // 2 if args.trace else index  # a traced round shares its untraced one's CPU
        os.sched_setaffinity(0, {cpus[pair % len(cpus)]})
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            workloads.instrument(tracer, delaunay_calls if not traced_walls else None)
            tracer.round = index
            before = tracer.snapshot()
        steps.append({})
        t0 = time.perf_counter()
        outputs.append(workload.run_round(index, timed))
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.restore()
            after = tracer.snapshot()
            layer_rounds.append({k: v - before.get(k, 0.0) for k, v in after.items()})
            traced_walls.append(elapsed)
            steps.pop()
        else:
            walls.append(elapsed)
        index += 1
        typical = statistics.median(walls + traced_walls)
        if time.perf_counter() - start + typical > args.seconds and (not args.trace or traced_walls):
            os.sched_setaffinity(0, cpus)
            return outputs, walls, traced_walls, layer_rounds, delaunay_calls, steps


def layer_metrics(walls, traced_walls, layer_rounds) -> dict[str, float]:
    """Medians over the traced rounds of every per-layer metric, the layers'
    self-time totals, and the tracing overhead against the untraced rounds."""
    metrics = {m: statistics.median(r.get(key, 0.0) for r in layer_rounds) for m, key in PER_LAYER.items()}
    per_round_layers = []
    for r in layer_rounds:
        totals = Counter()
        for key, value in r.items():
            if key.endswith("_s"):
                totals[key.split(".", 1)[0]] += value
        per_round_layers.append(totals)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(t[layer] for t in per_round_layers)
    traced = statistics.median(traced_walls)
    untraced = statistics.median(walls)
    attributed = statistics.median(sum(t.values()) for t in per_round_layers)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.unattributed_s"] = traced - attributed
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "retargetkit" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'retargetkit'}", file=sys.stderr)
        return 2
    # Untraced runs time imports, set-up and the timed phase as fast-state
    # equivalents (speedometer.py); traced runs time raw, without the
    # sampler's signals.
    speedometer = None
    if not args.trace:
        from speedometer import Speedometer
        speedometer = Speedometer()
        speedometer.start()
    sampled_from = time.perf_counter()
    sys.path[:0] = [str(src), str(BENCH)]
    import retargetkit
    if Path(retargetkit.__file__).resolve().parent != (src / "retargetkit").resolve():
        print(f"bench: imported retargetkit from {retargetkit.__file__}, not {src}", file=sys.stderr)
        return 2  # exiting ends the sampler's timer too
    import test_oracles
    import workloads
    from tracer import Tracer
    imported = time.perf_counter()

    workload = workloads.WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    tracer = Tracer()
    try:
        setups = set_up(workload, args.seed, work)
        outputs, walls, traced_walls, layer_rounds, delaunay_calls, steps = timed_rounds(
            args, workload, workloads, tracer)
        if speedometer is not None:
            speedometer.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = [f"oracle self-test {name}: {exc}" for name, exc in test_oracles.run_all()]
        ops, failures = workload.ops_per_round, []
        try:
            ops, failures, check_errors = workload.check(outputs[0], delaunay_calls)
            errors += check_errors
            errors += [f"round {i} differs from round 0" for i in range(1, len(outputs))
                       if not workload.same(outputs[0], outputs[i])]
        except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
            errors.append(f"check raised {traceback.format_exception_only(exc)[-1].strip()}")
    finally:
        if speedometer is not None:
            speedometer.stop()
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(outputs)
    if args.trace:
        values = layer_metrics(walls, traced_walls, layer_rounds)
        tracer.write(OUT / "traces" / f"{tag}.jsonl")
    else:
        fast = speedometer.fast_seconds
        # each step's median over the rounds, summed
        wall_s = sum(statistics.median(fast(*r[name]) for r in steps) for name in steps[0])
        # starting the interpreter and importing numpy stay raw: the sampler needs numpy
        setup_s = (sampled_from - PROCESS_START + fast(sampled_from, imported)
                   + statistics.median(fast(*interval) for interval in setups))
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        fast_walls = [sum(fast(*interval) for interval in r.values()) for r in steps]
    metrics = {name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
               for name, value in values.items()}
    result = {"correct": not errors, "attempted": ops * rounds, "failed": len(failures) * rounds,
              "metrics": metrics}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}"
          f"  (untraced {len(walls)}, traced {len(traced_walls)})")
    print("  round walls (s): untraced " + " ".join(f"{w:.3f}" for w in walls)
          + ("  traced " + " ".join(f"{w:.3f}" for w in traced_walls) if traced_walls else ""))
    if speedometer is not None:
        print("  fast-state equivalents (s): " + " ".join(f"{w:.3f}" for w in fast_walls)
              + f"  ({speedometer.samples} speed samples)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6f} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"({ops} operations and {len(failures)} failures per round)")
    for reason, n in Counter(reason.split(" (")[0] for _, reason in failures).items():
        print(f"    {n} per round: {reason}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
