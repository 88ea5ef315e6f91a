"""The `serve` workload: a closed loop of keep-alive HTTP clients on `repro serve`.

Set-up starts ``repro serve`` on the baseline artifact as a child process
and waits until it answers ``/healthz``.  The timed part runs one
keep-alive connection per core, each sending its next request only after
the previous reply (scripts that wait for each answer).  The mix is
skewed (Zipf) over paths, diversity and lookup keys, about three times as
many keys as the server's default 4,096-entry LRU, plus a fixed share of
requests for unknown ASNs that must be answered 404.  One client also
swaps the artifact file and sends ``POST /-/reload`` every
``RELOAD_EVERY`` seconds: the write beside the reads, which replaces the
engine and so empties its cache.  Every 200 answer is compared with the
artifact's frozen path set.
"""

from __future__ import annotations

import dataclasses
import http.client
import ipaddress
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect
from itertools import accumulate
from urllib.parse import urlencode

from repro.serve.artifact import PredictionArtifact
from repro.serve.engine import QueryEngine, QueryError

from pipeline import answers_digest

# Traffic shape.  The skew follows the Zipf-like popularity that Breslau
# et al. measured in web proxy traces (exponent 0.64 to 0.83; "Web Caching
# and Zipf-like Distributions", INFOCOM 1999).  The rest are assumptions,
# not measurements: a reload every 2 s, 1% unknown ASNs and 8,192 lookup
# keys (with the 3,872 path and diversity keys, about three times the
# default LRU).
ZIPF_EXPONENT = 0.8
RELOAD_EVERY = 2.0
UNKNOWN_SHARE = 0.01
LOOKUP_KEYS = 8192
UNKNOWN_ASNS = tuple(range(64512, 64528))
ENGINE_PROBE_QUERIES = 4000
START_TIMEOUT = 60.0
READY_PREFIX = "serving predictions on http://"


def _expected_paths(artifact, origin, observer) -> list:
    return [list(path) for path in artifact.paths.get((origin, observer), ())]


class QueryMix:
    """Seeded, skewed request stream with the answer each request must get."""

    def __init__(self, artifact: PredictionArtifact, seed: int) -> None:
        self.artifact = artifact
        rng = random.Random(seed)
        origins = sorted(artifact.origins)
        observers = list(artifact.observers)
        keys = [
            (kind, origin, observer)
            for kind in ("paths", "diversity")
            for origin in origins
            for observer in observers
        ]
        for _ in range(LOOKUP_KEYS):
            origin = rng.choice(origins)
            network = ipaddress.ip_network(str(artifact.origins[origin]))
            host = network.network_address + rng.randrange(1, network.num_addresses - 1)
            keys.append(("lookup", origin, rng.choice(observers), str(host)))
        rng.shuffle(keys)
        self.keys = keys
        self.cumulative = list(accumulate(
            1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(keys) + 1)
        ))
        self.observers = observers

    def draw(self, rng: random.Random) -> tuple:
        if rng.random() < UNKNOWN_SHARE:
            return ("paths", rng.choice(UNKNOWN_ASNS), rng.choice(self.observers))
        point = rng.random() * self.cumulative[-1]
        return self.keys[min(bisect(self.cumulative, point), len(self.keys) - 1)]

    @staticmethod
    def url(op: tuple) -> str:
        if op[0] == "lookup":
            return "/lookup?" + urlencode({"target": op[3], "observer": op[2]})
        return f"/{op[0]}?" + urlencode({"origin": op[1], "observer": op[2]})

    def verify(self, op: tuple, status: int, body: dict) -> bool:
        """True when ``status`` and ``body`` are the right answer to ``op``."""
        kind, origin, observer = op[:3]
        if origin not in self.artifact.origins:
            return status == 404
        if status != 200:
            return False
        expected = _expected_paths(self.artifact, origin, observer)
        if kind == "paths":
            return body.get("paths") == expected
        if kind == "diversity":
            hops = sorted({path[1] for path in expected if len(path) > 1})
            return (
                body.get("path_count") == len(expected)
                and body.get("next_hops") == hops
            )
        return body.get("origin") == origin and body.get("paths") == expected

    def engine_call(self, engine: QueryEngine, op: tuple):
        kind, origin, observer = op[:3]
        if kind == "lookup":
            return engine.lookup(op[3], observer)
        if kind == "diversity":
            return engine.diversity(origin, observer)
        return engine.paths(origin, observer)


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Serve:
    name = "serve"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.clients = ctx.nproc
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.run_dir = ctx.run_dir / "serve"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.served = self.run_dir / "served.artifact"
        self.artifact = PredictionArtifact.load(ctx.baseline.artifact)
        # Two files with the same answers and different checksums, so
        # every reload really swaps the engine.
        self.variants = []
        for index in range(2):
            variant = dataclasses.replace(
                self.artifact,
                meta={**self.artifact.meta, "variant": index},
                checksum="",
            )
            path = self.run_dir / f"variant{index}.artifact"
            variant.save(path)
            self.variants.append(path.read_bytes())
        self.served.write_bytes(self.variants[0])
        self.mix = QueryMix(self.artifact, ctx.seed)
        self.reloads = 0
        ctx.check(
            "baseline answers match the pinned digest",
            answers_digest(self.artifact) == ctx.reference["answers_digest"],
        )

    # -- server lifetime ------------------------------------------------

    def setup(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.ctx.src))
        log = open(self.run_dir / "server.log", "ab")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(self.served),
                 "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, env=env,
                cwd=str(self.run_dir),
            )
        finally:
            log.close()
        self.port = self._read_port()
        status, _ = self._request(self._connect(), "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"repro serve answered /healthz with {status}")

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        stream = self.process.stdout
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("repro serve did not announce its port")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                chunk = os.read(stream.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve closed stdout before ready")
                line += chunk
        text = line.decode("ascii").strip()
        if not text.startswith(READY_PREFIX):
            raise RuntimeError(f"unexpected first line from repro serve: {text!r}")
        return int(text.rsplit(":", 1)[1])

    def _stop_server(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def teardown(self) -> None:
        self._stop_server()

    # -- HTTP -------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)

    @staticmethod
    def _request(conn, method: str, url: str) -> tuple[int, dict]:
        conn.request(method, url)
        response = conn.getresponse()
        body = response.read()
        return response.status, json.loads(body) if body else {}

    def _metrics(self) -> dict:
        conn = self._connect()
        try:
            _, body = self._request(conn, "GET", "/metrics?format=json")
        finally:
            conn.close()
        return body.get("counters", {})

    # -- the measured window --------------------------------------------

    def measure(self, spans, result, traced: bool) -> None:
        window = self.ctx.seconds
        before = self._metrics()
        cpu_before = _cpu_seconds(self.process.pid)
        loadgen_before = time.process_time()
        lock = threading.Lock()
        latencies: list[float] = []
        reload_seconds: list[float] = []
        tallies = {"attempted": 0, "failed": 0, "wrong": 0, "reads": 0}
        errors: list[str] = []

        def client(index: int, parent) -> None:
            rng = random.Random(self.ctx.seed * 1000 + index)
            conn = self._connect()
            mine: list[float] = []
            reloads: list[float] = []
            counts = {"attempted": 0, "failed": 0, "wrong": 0, "reads": 0}
            next_reload = started + RELOAD_EVERY
            try:
                while True:
                    now = time.perf_counter()
                    if now >= deadline:
                        break
                    if index == 0 and now >= next_reload:
                        next_reload += RELOAD_EVERY
                        counts["attempted"] += 1
                        with spans.span("serve.reload", parent):
                            ok, seconds, conn = self._reload(conn)
                        reloads.append(seconds)
                        if not ok:
                            counts["failed"] += 1
                        continue
                    op = self.mix.draw(rng)
                    counts["attempted"] += 1
                    with spans.span("loadgen.request", parent):
                        begun = time.perf_counter()
                        try:
                            status, body = self._request(conn, "GET", self.mix.url(op))
                        except (OSError, http.client.HTTPException, ValueError) as error:
                            counts["failed"] += 1
                            errors.append(repr(error))
                            conn.close()
                            conn = self._connect()
                            continue
                        mine.append(time.perf_counter() - begun)
                    counts["reads"] += 1
                    if not self.mix.verify(op, status, body):
                        counts["failed"] += 1
                        counts["wrong"] += 1
            finally:
                conn.close()
                with lock:
                    latencies.extend(mine)
                    reload_seconds.extend(reloads)
                    for key, value in counts.items():
                        tallies[key] += value

        with spans.span("serve.window"):
            parent = spans.current()
            started = time.perf_counter()
            deadline = started + window
            threads = [
                threading.Thread(target=client, args=(index, parent))
                for index in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
        loadgen_cpu = time.process_time() - loadgen_before
        server_cpu = _cpu_seconds(self.process.pid) - cpu_before
        after = self._metrics()

        def delta(name: str) -> float:
            return after.get(name, 0) - before.get(name, 0)

        hits, misses = delta("serve.cache_hits"), delta("serve.cache_misses")
        result.wall_s = wall
        result.ops = tallies["reads"]
        result.latencies_s = latencies
        result.attempted += tallies["attempted"]
        result.failed += tallies["failed"]
        result.layers.update({
            "serve.server_cpu_s": server_cpu,
            "serve.server_busy_share": server_cpu / wall,
            "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serve.shed": delta("serve.shed"),
            "serve.reload_s": (
                statistics.median(reload_seconds) if reload_seconds else 0.0
            ),
            "loadgen.cpu_share": loadgen_cpu / wall,
            "loadgen.requests": tallies["attempted"],
        })
        result.notes["serve.reloads"] = len(reload_seconds)
        result.notes["serve.wrong_answers"] = tallies["wrong"]
        result.notes["serve.client_errors"] = errors[:5]

    def _reload(self, conn):
        """Swap the served file to the other variant and ask for a reload."""
        self.reloads += 1
        staged = self.served.with_name("served.artifact.tmp")
        staged.write_bytes(self.variants[self.reloads % 2])
        os.replace(staged, self.served)
        begun = time.perf_counter()
        try:
            status, body = self._request(conn, "POST", "/-/reload")
        except (OSError, http.client.HTTPException, ValueError):
            conn.close()
            return False, time.perf_counter() - begun, self._connect()
        seconds = time.perf_counter() - begun
        return status == 200 and body.get("outcome") == "reloaded", seconds, conn

    def check(self, result) -> None:
        self.ctx.check(
            "every answer matched the artifact",
            result.notes.get("serve.wrong_answers", 0) == 0,
        )
        self.ctx.check("reloads happened", result.notes.get("serve.reloads", 0) > 0)

    def probe(self, spans, result, traced: bool) -> None:
        """The same mix answered in process by a fresh QueryEngine."""
        rng = random.Random(self.ctx.seed)
        ops = [self.mix.draw(rng) for _ in range(ENGINE_PROBE_QUERIES)]
        engine = QueryEngine(self.artifact)
        with spans.span("serve.engine"):
            started = time.perf_counter()
            for op in ops:
                try:
                    self.mix.engine_call(engine, op)
                except QueryError:
                    pass
            seconds = time.perf_counter() - started
        result.layers["serve.engine.query_us"] = seconds / len(ops) * 1e6
