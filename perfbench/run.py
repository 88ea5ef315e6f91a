#!/usr/bin/env python3
"""Dump-to-answer pipeline benchmark for the repro package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {build,depeer,serve} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --list-metrics

Each run sets up its workload several times (``setup_s`` is the median),
measures it once untraced, checks the outputs and prints one JSON line
last on stdout.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` measures a second, traced pass with spans
around every layer call and reports the per-layer metrics, the layers'
self times and the tracing overhead against the untraced pass.  A human
readable table, the run stamp and the spans go to stderr and under
``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
BASELINE_TIMEOUT = 600
ENGINE_PHASES = {
    "engine.dispatch": "dispatch",
    "engine.decision": "decision",
    "engine.route-map": "route_map",
    "engine.export": "export",
    "engine.rib-merge": "rib_merge",
}


@dataclass
class Pass:
    """What one measured pass of a workload produced."""

    wall_s: float = 0.0
    ops: int = 0
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    """Exact work counts: identical on every pass of one seed."""
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    phases: dict[str, dict] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Baseline:
    model_config: Path
    artifact: Path
    build_seconds: float
    """Seconds spent building it in this run (0.0 when it was on disk)."""


@dataclass
class Context:
    seed: int
    seconds: int
    nproc: int
    src: Path
    run_dir: Path
    reference: dict
    baseline: Baseline | None = None
    checks: dict[str, bool] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


class PeakRss:
    """Largest summed RSS of this process and its descendants, sampled."""

    INTERVAL = 0.2

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.peak_kb = max(self.peak_kb, self.sample_kb())

    @staticmethod
    def sample_kb() -> int:
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents[int(entry)] = int(fields[1])
        family = {os.getpid()}
        grew = True
        while grew:
            grew = False
            for pid, ppid in parents.items():
                if ppid in family and pid not in family:
                    family.add(pid)
                    grew = True
        total = 0
        for pid in family:
            try:
                with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmRSS:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        return total

    @property
    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(self.peak_kb, own) / 1024.0


def code_digest() -> str:
    """Identity of the program and benchmark sources being measured."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_baseline() -> Baseline:
    """The baseline model config and artifact of these sources.

    Built once per code digest, in a child process (``--prepare-baseline``),
    so this process's peak memory never includes the build, and read back
    on every later run.
    """
    cache = STATE / "baseline" / code_digest()[:16]
    model_config = cache / "model.cfg"
    artifact = cache / "baseline.artifact"
    if model_config.exists() and artifact.exists():
        return Baseline(model_config, artifact, 0.0)
    cache.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--prepare-baseline",
         str(cache)],
        cwd=ROOT, capture_output=True, text=True, timeout=BASELINE_TIMEOUT,
        check=False,
    )
    if done.returncode != 0 or not (model_config.exists() and artifact.exists()):
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"building the baseline failed ({done.returncode})")
    return Baseline(model_config, artifact, time.perf_counter() - started)


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_speed_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: the host's speed right now.

    Recorded in the stamp only, so a run's times can be read against the
    speed of the machine it ran on.
    """
    started = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1000.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (the maximum when fewer than 1/(1-share) samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered) - 1e-9))
    return ordered[rank - 1]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(setup_times, measured: Pass, peak_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": statistics.median(measured.latencies_s) * 1000.0,
        "latency_p99_ms": percentile(measured.latencies_s, 0.99) * 1000.0,
        "ops_per_s": measured.ops / measured.wall_s,
        "peak_rss_mb": peak_mb,
        "success_rate": 1.0 - measured.failed / measured.attempted,
    }


def per_layer(names: list[str], untraced: Pass, traced: Pass) -> dict[str, float]:
    values = {name: 0.0 for name in names}
    values.update({k: float(v) for k, v in traced.counts.items()})
    values.update(traced.layers)
    engine = {
        label: traced.phases.get(phase, {}).get("wall_seconds", 0.0)
        for phase, label in ENGINE_PHASES.items()
    }
    engine_total = sum(engine.values())
    for label, seconds in engine.items():
        values[f"bgp.phase.{label}_share"] = (
            seconds / engine_total if engine_total else 0.0
        )
    per_op_untraced = untraced.wall_s / untraced.ops
    per_op_traced = traced.wall_s / traced.ops
    values["trace.overhead_share"] = per_op_traced / per_op_untraced - 1.0
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return values


def compare_ledger(workload: str, seed: int, passes: list[Pass]) -> list[str]:
    """Differences between these exact counts and every earlier run's."""
    first = passes[0]
    problems = [
        f"traced pass {name}: {p.counts.get(name)} != {first.counts.get(name)}"
        for p in passes[1:]
        for name in sorted(set(first.counts) | set(p.counts))
        if p.counts.get(name) != first.counts.get(name)
    ] + [
        f"traced pass digest {name} differs"
        for p in passes[1:]
        for name in first.digests
        if p.digests.get(name) != first.digests[name]
    ]
    ledger = STATE / "ledger" / code_digest()[:16] / f"{workload}-seed{seed}.json"
    record = {"counts": first.counts, "digests": first.digests}
    if ledger.exists():
        earlier = json.loads(ledger.read_text(encoding="utf-8"))
        for section in ("counts", "digests"):
            for name in sorted(set(earlier[section]) | set(record[section])):
                if earlier[section].get(name) != record[section].get(name):
                    problems.append(
                        f"{section} {name}: {record[section].get(name)} now, "
                        f"{earlier[section].get(name)} on an earlier run"
                    )
    else:
        ledger.parent.mkdir(parents=True, exist_ok=True)
        temp = ledger.with_suffix(".tmp")
        temp.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(temp, ledger)
    return problems


def render(metrics: dict, units: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"  {name:<{width}}  {value:>16.6f} {units.get(name, '')}"
        for name, value in metrics.items()
    )


def list_metrics(benchmark: dict) -> None:
    print("end-to-end (--trace 0):")
    for metric in benchmark["end_to_end"]:
        print(f"  {metric['name']:<34} {metric['unit']:<8} "
              f"{metric['better']} is better, bound {metric['bound']}")
    print("per-layer (--trace 1):")
    for metric in benchmark["per_layer"]:
        print(f"  {metric['name']:<34} {metric['unit']:<8} "
              f"{metric['better']} is better")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("build", "depeer", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--prepare-baseline", metavar="DIR", type=Path,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.list_metrics:
        list_metrics(benchmark)
        return 0
    sys.path.insert(0, str(SRC))
    if args.prepare_baseline is not None:
        from pipeline import write_baseline

        write_baseline(args.prepare_baseline)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from pipeline import Build
    from spans import SpanRecorder

    if args.workload == "depeer":
        from depeer import Depeer as Workload
    elif args.workload == "serve":
        from serve import Serve as Workload
    else:
        Workload = Build

    nproc = len(os.sched_getaffinity(0))
    run_dir = STATE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    ctx = Context(args.seed, args.seconds, nproc, SRC, run_dir, reference)
    passes: list[Pass] = []
    setup_times: list[float] = []
    spans = SpanRecorder(bool(args.trace))
    if args.workload != "build":
        ctx.baseline = ensure_baseline()
    speed_before = host_speed_ms()
    with PeakRss() as rss:
        workload = Workload(ctx)
        try:
            for repeat in range(SETUP_REPEATS):
                if repeat:
                    workload.teardown()
                started = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - started)
            modes = [False, True] if args.trace else [False]
            for traced in modes:
                measured = Pass()
                recorder = spans if traced else SpanRecorder(False)
                workload.measure(recorder, measured, traced)
                workload.check(measured)
                workload.probe(recorder, measured, traced)
                passes.append(measured)
        finally:
            workload.teardown()
            shutil.rmtree(run_dir, ignore_errors=True)

    problems = compare_ledger(args.workload, args.seed, passes)
    if problems:
        print("error: exact work counts differ between runs of seed "
              f"{args.seed}:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 3

    untraced = passes[0]
    measured = passes[-1]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    if args.trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        metrics = per_layer(names, untraced, measured)
    else:
        metrics = end_to_end(setup_times, untraced, rss.peak_mb)
    correct = all(ctx.checks.values())
    failed = untraced.failed if correct else max(untraced.failed, 1)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "samples": {
            "setups": len(setup_times),
            "latencies": len(untraced.latencies_s),
            "ops": untraced.ops,
            "attempted": untraced.attempted,
        },
        "baseline_build_s": (
            ctx.baseline.build_seconds if ctx.baseline is not None else None
        ),
        "host_speed_ms": [speed_before, host_speed_ms()],
    }
    record = {
        "stamp": stamp,
        "checks": ctx.checks,
        "metrics": metrics,
        "counts": untraced.counts,
        "digests": untraced.digests,
        "notes": untraced.notes,
    }
    if args.trace:
        record["self_seconds"] = spans.self_times()
        record["program_phase_self_seconds"] = {
            name: stat["wall_seconds"] for name, stat in measured.phases.items()
        }
        record["spans"] = spans.to_list()
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} python={stamp['python']} git={stamp['git_sha']} "
          f"code={stamp['code_digest'][:12]} samples={stamp['samples']} "
          f"host_speed_ms={stamp['host_speed_ms']}",
          file=sys.stderr)
    for name, ok in ctx.checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}", file=sys.stderr)
    print(render(metrics, units), file=sys.stderr)
    if args.trace:
        print("  self seconds by span:", file=sys.stderr)
        for name, seconds in sorted(record["self_seconds"].items()):
            print(f"    {name:<32} {seconds:.6f}", file=sys.stderr)
        print("  self seconds by program phase (PhaseProfiler):", file=sys.stderr)
        for name, seconds in record["program_phase_self_seconds"].items():
            print(f"    {name:<32} {seconds:.6f}", file=sys.stderr)
    print(f"  record: {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
