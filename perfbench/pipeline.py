"""The `build` workload: seeded SMALL RIB dumps in, a prediction artifact out.

The inputs are the SMALL synthetic Internet of ``repro.experiments`` seen
from its observation points, written as ``bgpdump -m`` feeds: one dump of
every feed and one of the training feeds (the SMALL workload's training
split).  The seed shuffles the line order of both dumps.  A RIB dump's
line order is arbitrary, so every seed must yield the same model and the
same answers, which the benchmark checks against a pinned digest; the
work per run therefore does not depend on the seed.

The same pipeline, run once per version of the sources, produces the
baseline model config and artifact that the `depeer` and `serve`
workloads start from.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cbgp.export import export_network
from repro.core.build import build_initial_model
from repro.core.refine import RefinementConfig, Refiner
from repro.data.dumps import write_table_dump
from repro.data.ingest import IngestConfig, ingest_table_dump
from repro.data.observation import collect_dataset
from repro.data.sanitize import SanitizeConfig
from repro.experiments.workloads import SMALL, prepare
from repro.obs.metrics import get_registry
from repro.obs.profile import PhaseProfiler, profiling
from repro.serve.artifact import PredictionArtifact
from repro.serve.compile import compile_artifact
from repro.topology.classify import classify_ases
from repro.topology.clique import infer_level1_clique
from repro.topology.graph import ASGraph
from repro.topology.prune import prune_single_homed_stubs
from spans import SpanRecorder

INGEST = IngestConfig(sanitize=SanitizeConfig.for_synthetic())
ARTIFACT_META = {"producer": "perfbench", "workload": SMALL.name}
"""A fixed stamp, so the artifact bytes are the same on every run."""


@dataclass(frozen=True)
class Inputs:
    rib: Path
    training: Path
    tier1: tuple[int, ...]


@dataclass
class BuildProduct:
    model: object
    artifact: PredictionArtifact
    match_rate: float
    converged: bool
    compile_report: object
    counts: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0


def _write_shuffled(dataset, path: Path, rng: random.Random) -> None:
    buffer = io.StringIO()
    write_table_dump(dataset, buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    rng.shuffle(lines)
    path.write_text("".join(lines), encoding="ascii")


def write_inputs(directory: Path, seed: int) -> Inputs:
    """Synthesize SMALL and write its two seeded dumps into ``directory``."""
    prepared = prepare(SMALL, use_cache=False)
    feeds = collect_dataset(prepared.internet.network, prepared.points)
    training_feeds = feeds.restrict_points(
        prepared.training.observation_points()
    )
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    inputs = Inputs(
        rib=directory / "rib.txt",
        training=directory / "training.txt",
        tier1=tuple(prepared.internet.level1_asns[:3]),
    )
    _write_shuffled(feeds, inputs.rib, rng)
    _write_shuffled(training_feeds, inputs.training, rng)
    return inputs


def build(inputs: Inputs, out: Path, spans) -> BuildProduct:
    """Dump -> ingest -> prune -> build -> refine -> compile -> artifact."""
    registry = get_registry()
    registry.reset()
    started = time.perf_counter()
    with spans.span("pipeline"):
        with spans.span("data.ingest"):
            full = ingest_table_dump(inputs.rib, config=INGEST)
            feeds = ingest_table_dump(inputs.training, config=INGEST)
        with spans.span("topology.prune"):
            dataset = full.dataset.cleaned()
            graph = ASGraph.from_dataset(dataset)
            seeds = [asn for asn in inputs.tier1 if asn in graph.ases()]
            level1 = infer_level1_clique(graph, seeds)
            classification = classify_ases(dataset, graph, level1)
            pruned = prune_single_homed_stubs(dataset, graph, classification)
            training = pruned.dataset.restrict_points(
                feeds.dataset.observation_points()
            )
        with spans.span("core.build"):
            model = build_initial_model(pruned.dataset, pruned.graph)
        with spans.span("core.refine"):
            result = Refiner(model, training, RefinementConfig()).run()
        with spans.span("serve.compile"):
            artifact, report = compile_artifact(
                result.model, meta=dict(ARTIFACT_META)
            )
        with spans.span("serve.artifact.save"):
            artifact_bytes = artifact.save(out)
    seconds = time.perf_counter() - started
    counters = registry.snapshot()["counters"]
    iterations = result.iterations
    counts = {
        "data.ingest.accepted": full.report.accepted + feeds.report.accepted,
        "core.refine.iterations": result.iteration_count,
        "core.refine.policies_installed": sum(
            it.policies_installed for it in iterations
        ),
        "core.refine.routers_added": sum(it.routers_added for it in iterations),
        "core.refine.prefixes_resimulated": sum(
            it.prefixes_resimulated for it in iterations
        ),
        "bgp.messages": counters.get("engine.messages", 0),
        "bgp.decisions": counters.get("engine.decisions", 0),
        "bgp.clauses_evaluated": counters.get("engine.clauses_evaluated", 0),
        "serve.artifact.bytes": artifact_bytes,
    }
    return BuildProduct(
        model=result.model,
        artifact=artifact,
        match_rate=result.final_match_rate,
        converged=result.converged,
        compile_report=report,
        counts=counts,
        seconds=seconds,
    )


def answers_digest(artifact: PredictionArtifact) -> str:
    """Digest of everything a query can return, independent of file layout."""
    document = {
        "origins": {str(k): str(v) for k, v in sorted(artifact.origins.items())},
        "observers": list(artifact.observers),
        "paths": [
            [origin, observer, [list(path) for path in paths]]
            for (origin, observer), paths in sorted(artifact.paths.items())
        ],
        "quarantined": sorted(artifact.quarantined),
    }
    encoded = json.dumps(document, sort_keys=True).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()


def write_baseline(cache: Path, seed: int = 1) -> None:
    """Build the refined model config and its artifact into ``cache``.

    `depeer` and `serve` start from the files a user would have after
    ``repro refine`` and ``repro compile-artifact``.  run.py calls this in
    a child process, so the build's memory never counts toward a measured
    process's peak.
    """
    work = cache / "work"
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(work, seed)
    product = build(inputs, work / "baseline.artifact", SpanRecorder(False))
    with open(work / "model.cfg", "w", encoding="ascii") as handle:
        export_network(product.model.network, handle)
    os.replace(work / "baseline.artifact", cache / "baseline.artifact")
    os.replace(work / "model.cfg", cache / "model.cfg")
    shutil.rmtree(work)


class Build:
    """The `build` workload: set-up writes the dumps, the timed part builds."""

    name = "build"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.directory = ctx.run_dir / "build"
        self.inputs: Inputs | None = None

    def setup(self) -> None:
        self.inputs = write_inputs(self.directory, self.ctx.seed)

    def measure(self, spans, result, traced: bool) -> None:
        """Build until the next build would overrun the window (at least once).

        The traced pass adds spans only; the PhaseProfiler would slow the
        engine down by about 70%, so it runs in `probe` instead.
        """
        while True:
            product = build(self.inputs, self.directory / "out.artifact", spans)
            result.latencies_s.append(product.seconds)
            result.ops += 1
            result.wall_s += product.seconds
            self._account(product, result)
            if result.wall_s + product.seconds > self.ctx.seconds:
                break
        per_build = {
            "data.ingest_s": spans.total("data.ingest"),
            "topology.prune_s": spans.total("topology.prune"),
            "core.build_s": spans.total("core.build"),
            "core.refine_s": spans.total("core.refine"),
            "serve.compile_s": spans.total("serve.compile"),
            "serve.artifact.save_s": spans.total("serve.artifact.save"),
            "analysis.certify_s": result.layers.pop("analysis.certify_s"),
            "serve.compile.simulate_s": result.layers.pop("serve.compile.simulate_s"),
        }
        result.layers.update(
            {name: total / result.ops for name, total in per_build.items()}
        )
        self.product = product

    def _account(self, product: BuildProduct, result) -> None:
        report = product.compile_report
        result.attempted += report.prefixes
        result.failed += len(report.quarantined)
        for name, seconds in (
            ("analysis.certify_s", report.certify_seconds),
            ("serve.compile.simulate_s", report.simulate_seconds),
        ):
            result.layers[name] = result.layers.get(name, 0.0) + seconds
        if result.counts and result.counts != product.counts:
            self.ctx.check("repeated builds do the same work", False)
        result.counts.update(product.counts)
        result.notes["model"] = product.artifact.model_stats
        digest = answers_digest(product.artifact)
        if result.digests.setdefault("build.answers", digest) != digest:
            self.ctx.check("repeated builds give the same answers", False)

    def check(self, result) -> None:
        product, reference = self.product, self.ctx.reference
        report = product.compile_report
        self.ctx.check("refinement converged", product.converged)
        self.ctx.check(
            "refined model matches 100% of training paths",
            product.match_rate == 1.0,
        )
        self.ctx.check(
            "every prefix converged at compile",
            report.converged == report.prefixes == reference["prefixes"]
            and not report.quarantined,
        )
        self.ctx.check(
            "model size matches the reference",
            product.artifact.model_stats == reference["model"],
        )
        answers_ok = result.digests["build.answers"] == reference["answers_digest"]
        self.ctx.check("answers match the pinned digest", answers_ok)
        if not answers_ok:
            result.failed = result.attempted

    def probe(self, spans, result, traced: bool) -> None:
        """Engine-phase shares from one profiled re-compile of the built model.

        Runs after the timed passes, so the profiler's cost reaches no
        layer time.
        """
        if not traced:
            return
        with spans.span("serve.compile.profiled"):
            with profiling(PhaseProfiler()) as profiler:
                artifact, _ = compile_artifact(
                    self.product.model, meta=dict(ARTIFACT_META)
                )
        result.phases = profiler.report()
        self.ctx.check(
            "a profiled re-compile gives the same answers",
            answers_digest(artifact) == result.digests["build.answers"],
        )

    def teardown(self) -> None:
        return None
