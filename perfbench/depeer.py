"""The `depeer` workload: a seeded sample of depeering scenarios on the pool.

Set-up reads the baseline model config and artifact back from disk, as
``repro campaign depeer MODEL --baseline ARTIFACT`` does.  The timed part
is one ``run_campaign`` call over a stratified sample of the whole depeer
scenario space (one scenario from each of ``workers * SCENARIOS_PER_WORKER``
equal slices of the key-sorted space), fanned out on the supervised pool
with one worker per core.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import statistics
import time

from repro.campaign import (
    context_from_artifact,
    generate_depeer,
    run_campaign,
    validate_baseline,
)
from repro.campaign.diffing import diff_path_maps
from repro.cbgp.parse import parse_script
from repro.core.model import MODEL_DECISION_CONFIG, ASRoutingModel
from repro.obs.metrics import get_registry
from repro.obs.profile import PhaseProfiler, profiling
from repro.parallel import ParallelConfig
from repro.parallel.protocol import dump_network
from repro.resilience.retry import RetryPolicy
from repro.serve.artifact import PredictionArtifact

from pipeline import answers_digest

SCENARIOS_PER_WORKER = 2


def load_baseline(baseline):
    """Model, artifact and campaign context, read back from disk."""
    with open(baseline.model_config, "r", encoding="ascii") as handle:
        model = ASRoutingModel.from_network(parse_script(handle))
    artifact = PredictionArtifact.load(baseline.artifact)
    validate_baseline(model, artifact)
    return model, artifact, context_from_artifact(artifact)


def sample_scenarios(model, seed: int, count: int) -> list:
    """One scenario from each of ``count`` equal slices of the key order."""
    space = sorted(generate_depeer(model), key=lambda s: s.key)
    rng = random.Random(seed)
    picked = []
    for index in range(count):
        low = index * len(space) // count
        high = (index + 1) * len(space) // count
        picked.append(space[rng.randrange(low, high)])
    return picked


def report_digest(report) -> str:
    """Digest of the ranked outcomes (the baseline file checksum left out)."""
    document = report.to_dict(include_meta=False)
    payload = {"counts": document["counts"], "scenarios": document["scenarios"]}
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def dirty_prefix_share(artifact, scenarios) -> float:
    """Mean share of origins whose baseline paths cross the removed adjacency."""
    crossings: dict[frozenset, set[int]] = {}
    for (origin, _observer), paths in artifact.paths.items():
        for path in paths:
            for hop in zip(path, path[1:]):
                crossings.setdefault(frozenset(hop), set()).add(origin)
    origins = len(artifact.origins)
    shares = [
        len(crossings.get(frozenset((s.asn_a, s.asn_b)), ())) / origins
        for s in scenarios
    ]
    return statistics.fmean(shares)


def replay_diff(context, outcome) -> tuple[float, bool]:
    """Re-run one scenario's diff on a map with the same changed pairs.

    Returns the diff's seconds and whether it names exactly the pairs the
    worker reported, which checks the worker's diff from outside.
    """
    reported = outcome.detail["diff"]
    current = dict(context.baseline_paths)
    for pair in map(tuple, reported["lost"]):
        del current[pair]
    for pair in map(tuple, reported["changed"]):
        current[pair] = current[pair] + ((0,),)
    for pair in map(tuple, reported["gained"]):
        current[pair] = ((0,),)
    started = time.perf_counter()
    diff = diff_path_maps(
        context.baseline_paths, current, exclude_origins=context.excluded
    )
    seconds = time.perf_counter() - started
    same = all(
        [list(pair) for pair in getattr(diff, name)] == reported[name]
        for name in ("changed", "lost", "gained")
    )
    return seconds, same


class Depeer:
    name = "depeer"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.workers = ctx.nproc
        self.model = self.artifact = self.context = None
        self.scenarios: list = []

    def setup(self) -> None:
        self.model, self.artifact, self.context = load_baseline(
            self.ctx.baseline
        )
        self.ctx.check(
            "baseline answers match the pinned digest",
            answers_digest(self.artifact) == self.ctx.reference["answers_digest"],
        )
        self.scenarios = sample_scenarios(
            self.model, self.ctx.seed, self.workers * SCENARIOS_PER_WORKER
        )

    def measure(self, spans, result, traced: bool) -> None:
        registry = get_registry()
        registry.reset()
        started = time.perf_counter()
        with spans.span("campaign.run"):
            report = run_campaign(
                self.model, "depeer", self.scenarios, self.context,
                retry=RetryPolicy(),
                parallel=ParallelConfig(workers=self.workers),
            )
        wall = time.perf_counter() - started
        raw = registry.dump_raw()
        counters = raw["counters"]
        task_seconds = raw["histograms"].get(
            "parallel.task_seconds", {}
        ).get("values", [])
        counts = report.counts()
        result.wall_s = wall
        result.ops = counts["completed"]
        # A campaign answers once, with the ranked report: its latency is
        # the whole campaign.  Per-scenario time is campaign.scenario_s.
        result.latencies_s = [wall]
        result.attempted += counts["scenarios"]
        result.failed += counts["quarantined"]
        result.counts.update({
            "bgp.messages": counters.get("engine.messages", 0),
            "bgp.decisions": counters.get("engine.decisions", 0),
            "bgp.clauses_evaluated": counters.get("engine.clauses_evaluated", 0),
            "campaign.prefixes_resimulated": counters.get("engine.prefixes", 0),
            "parallel.resubmits": counters.get("parallel.resubmits", 0),
        })
        result.digests["depeer.report"] = report_digest(report)
        result.layers.update({
            "parallel.worker_busy_share": (
                sum(task_seconds) / (self.workers * wall) if wall else 0.0
            ),
            "campaign.scenario_s": (
                statistics.median(task_seconds) if task_seconds else 0.0
            ),
            "campaign.dirty_prefix_share": dirty_prefix_share(
                self.artifact, self.scenarios
            ),
        })
        self.report = report

    def check(self, result) -> None:
        report = self.report
        self.ctx.check("no scenario quarantined", report.counts()["quarantined"] == 0)
        self.ctx.check(
            "every sampled scenario removed at least one session",
            all(o.detail.get("removed_sessions", 0) > 0 for o in report.outcomes),
        )
        pinned = self.ctx.reference["depeer_report"]
        if self.ctx.seed == pinned["seed"]:
            self.ctx.check(
                "ranked report matches the pinned digest",
                result.digests["depeer.report"] == pinned["digest"],
            )
        diff_seconds = []
        for outcome in report.outcomes:
            if outcome.quarantined:
                continue
            seconds, same = replay_diff(self.context, outcome)
            diff_seconds.append(seconds)
            if not same:
                result.failed += 1
                self.ctx.check(f"{outcome.key} diff replays identically", False)
        result.layers["campaign.diff_s"] = (
            statistics.fmean(diff_seconds) if diff_seconds else 0.0
        )

    def probe(self, spans, result, traced: bool) -> None:
        """Layer costs outside the timed campaign: pickling, engine phases."""
        with spans.span("parallel.dump"):
            started = time.perf_counter()
            blob = dump_network(self.model.network)
            result.layers["parallel.dump_s"] = time.perf_counter() - started
        with spans.span("parallel.load"):
            started = time.perf_counter()
            network = pickle.loads(blob)
            result.layers["parallel.load_s"] = time.perf_counter() - started
        result.counts["parallel.blob_bytes"] = len(blob)
        if not traced:
            return
        # Pool workers drop their phase profiles, so the engine-phase
        # shares come from one sampled scenario re-run in this process.
        scenario = self.scenarios[0]
        with spans.span("campaign.scenario.in_process"):
            with profiling(PhaseProfiler()) as profiler:
                scenario.run(
                    network, self.context, MODEL_DECISION_CONFIG, RetryPolicy()
                )
        result.phases = profiler.report()

    def teardown(self) -> None:
        return None
