"""Serving benchmark: ``python -m repro.cli serve`` driven over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload score-cold --seed 1 --seconds 20 \\
        --trace 0

Each run starts the server as a fresh subprocess (thread tier, BLAS
pinned to one thread) and drives it from this one client process over
keep-alive connections, in a closed loop: a connection sends its next
request only after the last reply. Workloads (see ``README.md``):

* ``score-cold``   - 1 connection, every inline graph new to the server;
* ``score-warm``   - 2 connections re-sending a 4-graph working set that
  set-up already scored, so every request is a cache hit;
* ``stream-ingest`` - 1 connection POSTing ``/v1/events`` batches that
  each close one window, with a write-ahead log.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once on a server with per-layer wrappers
(``perfbench/layers.py``) and prints the per-layer metrics. The last line
of stdout is one JSON object; the exit code is 1 when a correctness check
or a workload self-check failed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: spawn-to-ready repetitions per run; set-up time is their median
SETUP_REPS = 3
#: one connection scrapes GET /metrics after every this many requests
SCRAPE_EVERY = 10
#: events per POST /v1/events, equal to the server's --window
STREAM_WINDOW = 500
#: the server's WAL snapshot cadence (its default), in windows
SNAPSHOT_EVERY = 10
#: trace-id prefix of timed requests (the traced run selects them by it)
TIMED = "t-"


@dataclass
class Timed:
    """Replies of one timed phase."""

    latencies: List[float] = field(default_factory=list)
    replies: list = field(default_factory=list)        # (index, Reply)
    scrapes: List[float] = field(default_factory=list)
    scrape_failed: int = 0
    wall: float = 0.0

    def merge(self, other: "Timed") -> None:
        self.latencies += other.latencies
        self.replies += other.replies
        self.scrapes += other.scrapes
        self.scrape_failed += other.scrape_failed


class Check:
    """Collects named pass/fail results; any failure fails the run."""

    def __init__(self):
        self.results: List[tuple] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.results)


def _expect_ok(conn, method: str, path: str, body=None) -> dict:
    reply = conn.request(method, path, body)
    if reply.status != 200:
        raise RuntimeError(f"{method} {path} answered {reply.status}: "
                           f"{reply.body[:200]!r}")
    return json.loads(reply.body)


def _post_all(conn, path: str, bodies: List[bytes], first: int,
              scrape: bool, rounds: Optional[threading.Barrier] = None
              ) -> Timed:
    """POST ``bodies`` in a closed loop; request ``k`` has index
    ``first + k``. With ``scrape``, GET /metrics after every 10th.

    With ``rounds``, every connection sharing the barrier sends its k-th
    request together and waits for all k-th replies before the next.
    """
    timed = Timed()
    for k, body in enumerate(bodies):
        if rounds is not None:
            rounds.wait()
        reply = conn.request("POST", path, body,
                             trace_id=f"{TIMED}{first + k}")
        timed.latencies.append(reply.seconds)
        timed.replies.append((first + k, reply))
        if rounds is not None:
            rounds.wait()
        if scrape and (k + 1) % SCRAPE_EVERY == 0:
            metrics = conn.request("GET", "/metrics")
            timed.scrapes.append(metrics.seconds)
            timed.scrape_failed += metrics.status != 200
    return timed


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One traffic mix: inputs, warm-up, timed phase and checks.

    The number of timed requests follows from ``--seconds`` through the
    workload's nominal ``RATE`` alone, never from the program's speed, so
    every run of a given length does the same work.
    """

    name = ""
    connections = 1
    path = "/v1/score"

    def __init__(self, seed: int, seconds: int, workdir: pathlib.Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.requests = 0

    def serve_args(self, ckpt: pathlib.Path) -> List[str]:
        return ["--model", str(ckpt)]

    def fresh_state(self) -> None:
        """Reset per-server on-disk state before each spawn."""

    def warm_up(self, conn) -> None:
        """Requests every set-up repetition makes before it is ready."""

    def prime(self, conn) -> None:
        """Extra set-up on the server that runs the timed phase."""

    def timed_bodies(self) -> List[bytes]:
        raise NotImplementedError

    def drive(self, server) -> Timed:
        """The timed phase on one connection (overridden for more)."""
        conn = server.connect()
        try:
            started = time.perf_counter()
            timed = _post_all(conn, self.path, self.timed_bodies(), 1,
                              scrape=True)
            timed.wall = time.perf_counter() - started
        finally:
            conn.close()
        return timed

    def self_checks(self, check: Check, delta: Dict[str, float]) -> None:
        """Server counters over the timed phase vs what the workload
        claims to exercise."""
        raise NotImplementedError

    def check(self, check: Check, timed: Timed, conn, reference) -> float:
        """Validate every reply; returns the workload's AUC."""
        raise NotImplementedError


class ScoreWorkload(Workload):
    """Inline ``POST /v1/score`` requests (shared by cold and warm)."""

    def graph_of(self, index: int) -> int:
        """Which of ``self.bodies`` timed request ``index`` sent."""
        return index

    def warm_up(self, conn) -> None:
        _expect_ok(conn, "POST", self.path, self.bodies[0].body)

    def counter_check(self, check: Check, delta: Dict[str, float],
                      counter: str, other: str) -> None:
        got = delta[f"repro_service_cache_{counter}_total"]
        check(f"cache {counter} == timed requests", got == self.requests,
              f"{got} vs {self.requests}")
        check(f"cache {other} == 0",
              delta[f"repro_service_cache_{other}_total"] == 0)

    def check(self, check: Check, timed: Timed, conn, reference) -> float:
        import numpy as np

        from perfbench.stats import roc_auc

        aucs = []
        first = None
        for index, reply in sorted(timed.replies, key=lambda r: r[0]):
            body = self.bodies[self.graph_of(index)]
            if not check(f"reply {index} status", reply.status == 200,
                         str(reply.status)):
                continue
            payload = json.loads(reply.body)
            scores = np.asarray(payload["scores"], dtype=np.float64)
            n = body.graph.num_nodes
            check(f"reply {index} num_nodes",
                  payload["num_nodes"] == n and scores.size == n)
            check(f"reply {index} finite scores",
                  bool(np.isfinite(scores).all()))
            aucs.append(roc_auc(body.labels, scores))
            if first is None:
                first = (body, scores)
        if first is not None:
            expected = reference(first[0].graph)
            check("first reply bitwise == in-process score_graph",
                  first[1].dtype == expected.dtype
                  and np.array_equal(first[1], expected))
        return float(np.mean(aucs)) if aucs else float("nan")


class ScoreCold(ScoreWorkload):
    name = "score-cold"
    RATE = 0.55
    #: seeded base graphs the requests relabel
    BASES = 3

    def prepare(self) -> None:
        from perfbench.inputs import score_bodies

        self.requests = max(11, round(self.seconds * self.RATE))
        # body 0 is the set-up warm-up; 1..requests are timed
        self.bodies = score_bodies(self.seed, self.requests + 1,
                                   bases=self.BASES)

    def timed_bodies(self) -> List[bytes]:
        return [b.body for b in self.bodies[1:]]

    def self_checks(self, check: Check, delta: Dict[str, float]) -> None:
        self.counter_check(check, delta, "misses", "hits")


class ScoreWarm(ScoreWorkload):
    name = "score-warm"
    connections = 2
    RATE = 2.2
    WORKING_SET = 4

    def prepare(self) -> None:
        from perfbench.inputs import score_bodies

        self.per_conn = max(11, round(self.seconds * self.RATE / 2))
        self.requests = 2 * self.per_conn
        self.bodies = score_bodies(self.seed, self.WORKING_SET,
                                   bases=self.WORKING_SET)

    def prime(self, conn) -> None:
        for body in self.bodies[1:]:
            _expect_ok(conn, "POST", self.path, body.body)

    def graph_of(self, index: int) -> int:
        # connection c owns graphs 2c and 2c+1, so the two connections
        # never send one fingerprint at once (no coalescing)
        conn_index, k = divmod(index, self.per_conn)
        return 2 * conn_index + k % 2

    def drive(self, server) -> Timed:
        # Rounds: both connections send together and wait for both
        # replies, so every round meets the same contention, and the
        # scrape after it lands on an idle server.
        parts = [Timed(), Timed()]
        errors: List[BaseException] = []
        rounds = threading.Barrier(2)
        conns = [server.connect() for _ in range(2)]

        def loop(c: int) -> None:
            first = c * self.per_conn
            bodies = [self.bodies[self.graph_of(first + k)].body
                      for k in range(self.per_conn)]
            try:
                parts[c] = _post_all(conns[c], self.path, bodies, first,
                                     scrape=(c == 0), rounds=rounds)
            except BaseException as exc:  # re-raised after join
                errors.append(exc)
                rounds.abort()

        threads = [threading.Thread(target=loop, args=(c,))
                   for c in range(2)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        for conn in conns:
            conn.close()
        if errors:
            raise errors[0]
        timed = Timed(wall=wall)
        for part in parts:
            timed.merge(part)
        return timed

    def self_checks(self, check: Check, delta: Dict[str, float]) -> None:
        self.counter_check(check, delta, "hits", "misses")


class StreamIngest(Workload):
    name = "stream-ingest"
    path = "/v1/events"
    RATE = 0.75

    def prepare(self) -> None:
        from perfbench.inputs import event_stream
        from repro.graphs.io import save_multiplex

        # whole snapshot cadences, so every run has the same number of
        # slower snapshot windows; window 0 is the set-up warm-up
        cadences = max(2, round(self.seconds * self.RATE / SNAPSHOT_EVERY))
        self.requests = cadences * SNAPSHOT_EVERY
        self.stream = event_stream(self.seed, self.requests + 1,
                                   STREAM_WINDOW)
        self.graph_path = self.workdir / "base.npz"
        save_multiplex(self.graph_path, self.stream.base_graph)
        self.wal_dir = self.workdir / "wal"

    def fresh_state(self) -> None:
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.wal_dir.mkdir()

    def serve_args(self, ckpt: pathlib.Path) -> List[str]:
        return ["--model", str(ckpt), "--graph", str(self.graph_path),
                "--wal-dir", str(self.wal_dir),
                "--window", str(STREAM_WINDOW),
                "--snapshot-every", str(SNAPSHOT_EVERY)]

    def warm_up(self, conn) -> None:
        self.warm_reply = _expect_ok(conn, "POST", self.path,
                                     self.stream.bodies[0])

    def timed_bodies(self) -> List[bytes]:
        return self.stream.bodies[1:]

    def self_checks(self, check: Check, delta: Dict[str, float]) -> None:
        got = delta["repro_monitor_windows_total"]
        check("windows scored == timed POSTs", got == self.requests,
              f"{got} vs {self.requests}")

    def check(self, check: Check, timed: Timed, conn, reference) -> float:
        import numpy as np

        from perfbench.stats import roc_auc
        from repro.stream import IncrementalGraphBuilder

        builder = IncrementalGraphBuilder.from_graph(self.stream.base_graph)
        window = self.stream.window
        events = self.stream.events
        reports = {0: self.warm_reply}
        for index, reply in timed.replies:
            if check(f"window {index} status", reply.status == 200,
                     str(reply.status)):
                reports[index] = json.loads(reply.body)
        final = None
        for index in range(self.requests + 1):
            builder.apply(events[index * window:(index + 1) * window])
            payload = reports.get(index)
            if payload is None:
                continue
            got = payload["reports"]
            if not check(f"window {index} closes one window", len(got) == 1):
                continue
            report = got[0]
            final = report["fingerprint"]
            check(f"window {index} num_nodes",
                  report["num_nodes"] == builder.num_nodes)
            check(f"window {index} finite scores",
                  math.isfinite(report["score_mean"])
                  and math.isfinite(report["score_max"]))
        expected = builder.fingerprint()
        check("final fingerprint == in-process builder replay",
              final == expected, f"{final} vs {expected}")
        reply = conn.request("POST", "/v1/score",
                             json.dumps({"fingerprint": expected}).encode())
        if not check("final window scores by fingerprint",
                     reply.status == 200, str(reply.status)):
            return float("nan")
        scores = np.asarray(json.loads(reply.body)["scores"])
        n = builder.num_nodes
        check("final scores num_nodes and finite",
              scores.size == n and bool(np.isfinite(scores).all()))
        return roc_auc(self.stream.labels(n), scores)


WORKLOADS = {cls.name: cls for cls in (ScoreCold, ScoreWarm, StreamIngest)}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _filesystem(path: pathlib.Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            mount, kind = line.split()[1:3]
            inside = target == mount or target.startswith(
                mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, kind
    return f"{fstype} ({best})"


def host_loop_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop, so a reader can tell
    a slow run from a slow host (shared hosts drift by tens of percent)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        times.append((time.perf_counter() - started) * 1e3)
    return median(times)


def environment(workdir: pathlib.Path) -> dict:
    import numpy
    import scipy

    from perfbench.client import PINNED_ENV

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": PINNED_ENV,
        "exec_tier": "thread (checked at /healthz)",
        "wal_filesystem": _filesystem(workdir),
        "host_loop_ms": round(host_loop_ms(), 1),
        "unmeasured": [
            "process pool (repro.pool): needs >= 4 cores",
            "training (engine/autograd/nn): offline; the fixture "
            "checkpoint is trained once, outside every timed phase",
        ],
    }


class Runner:
    """Spawns servers for one workload and keeps its checks and counts."""

    def __init__(self, workload: Workload, ckpt: pathlib.Path):
        self.workload = workload
        self.ckpt = ckpt
        self.check = Check()
        self.counts: Dict[str, List[int]] = {}   # phase -> [sent, failed]

    def count(self, phase: str, sent: int, failed: int) -> None:
        totals = self.counts.setdefault(phase, [0, 0])
        totals[0] += sent
        totals[1] += failed

    def close_counted(self, phase: str, conn) -> None:
        self.count(phase, conn.sent, conn.failed)
        conn.close()

    def spawn(self, traced: bool = False, env=None):
        """One set-up: spawn to ready, including warm-up.

        Returns ``(server, seconds)``; the server is left running.
        """
        from perfbench.client import ServerProcess

        wl = self.workload
        wl.fresh_state()
        server = ServerProcess(ROOT, wl.serve_args(self.ckpt), wl.workdir,
                               traced=traced, env=env)
        server.start()
        try:
            conn = server.connect()
            try:
                tier = _expect_ok(conn, "GET", "/healthz").get("exec_tier")
                if tier != "thread":
                    raise RuntimeError(f"server runs the {tier} tier")
                wl.warm_up(conn)
            finally:
                self.close_counted("setup", conn)
            return server, time.perf_counter() - server.spawned_at
        except BaseException:
            server.stop()
            raise

    def measure(self, server):
        """Priming, then the timed phase between two counter reads.

        Returns ``(timed, counter deltas, priming seconds, server CPU
        seconds of the timed phase)``.
        """
        from perfbench.client import metrics

        wl = self.workload
        conn = server.connect()
        try:
            started = time.perf_counter()
            wl.prime(conn)
            prime = time.perf_counter() - started
            self.count("setup", conn.sent, conn.failed)
            conn.sent = conn.failed = 0
            before = metrics(conn)
            cpu = server.cpu_seconds()
            timed = wl.drive(server)
            cpu = server.cpu_seconds() - cpu
            after = metrics(conn)
        finally:
            self.close_counted("check", conn)
        self.count("timed", len(timed.replies),
                   sum(r.status != 200 for _i, r in timed.replies))
        self.count("scrape", len(timed.scrapes), timed.scrape_failed)
        delta = {key: after.get(key, 0.0) - before.get(key, 0.0)
                 for key in set(before) | set(after)}
        wl.self_checks(self.check, delta)
        self.check("no scoring failures or refusals",
                   delta.get("repro_batcher_failed_total", 0) == 0
                   and delta.get("repro_batcher_rejected_total", 0) == 0)
        return timed, delta, prime, cpu

    def validate(self, timed: Timed, server) -> float:
        """Decode and check every reply (after the timed phase)."""
        conn = server.connect()
        try:
            return self.workload.check(self.check, timed, conn,
                                       self.reference)
        finally:
            self.close_counted("check", conn)

    def reference(self, graph):
        """In-process ``UMGAD.score_graph`` on the served checkpoint."""
        from repro.autograd import no_grad, set_default_dtype
        from repro.serve.checkpoint import load_checkpoint, read_header

        dtype = read_header(self.ckpt).get("dtype")
        if dtype:
            set_default_dtype(dtype)
        detector = load_checkpoint(self.ckpt)
        with no_grad():
            return detector.score_graph(graph)


def run_e2e(runner: Runner) -> Dict[str, tuple]:
    from perfbench.stats import tail

    setups = []
    server = None
    try:
        for _rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server, seconds = runner.spawn()
            setups.append(seconds)
        timed, _delta, prime, _cpu = runner.measure(server)
        rss = server.peak_rss_mb()
        auc = runner.validate(timed, server)
    finally:
        if server is not None:
            server.stop()
    p_tail, pct = tail(timed.latencies)
    n = len(timed.latencies)
    primed = type(runner.workload).prime is not Workload.prime
    priming = f" + {prime:.3f}s priming" if primed else ""
    return {
        "setup_s": (median(setups) + prime, "s", SETUP_REPS,
                    f"median of {SETUP_REPS} spawn-to-ready{priming}"),
        "latency_p50_ms": (median(timed.latencies) * 1e3, "ms", n, "p50"),
        "latency_tail_ms": (p_tail * 1e3, "ms", n,
                            f"p{pct:.1f}, 10 samples beyond it"),
        "throughput_rps": (n / timed.wall, "1/s", n,
                           f"{n} requests in {timed.wall:.3f}s"),
        "scrape_p50_ms": (median(timed.scrapes) * 1e3, "ms",
                          len(timed.scrapes), "GET /metrics p50"),
        "auc": (auc, "ratio", n, "ROC-AUC vs generator labels"),
        "server_peak_rss_mb": (rss, "MB", 1, "VmHWM"),
    }


def run_traced(runner: Runner) -> Dict[str, tuple]:
    from perfbench import layers

    wl = runner.workload
    # untraced pass on a plain server: the p50 the tracing overhead is
    # judged against, and the server's CPU per request
    server, _seconds = runner.spawn()
    try:
        plain, _delta, _prime, cpu = runner.measure(server)
    finally:
        server.stop()

    intervals_path = wl.workdir / "intervals.json"
    server, _seconds = runner.spawn(
        traced=True, env={"PERFBENCH_INTERVALS": str(intervals_path)})
    try:
        timed, delta, _prime, _cpu = runner.measure(server)
        conn = server.connect()
        try:
            traces = _expect_ok(conn, "GET", "/v1/traces?last=128")
        finally:
            runner.close_counted("check", conn)
        runner.validate(timed, server)
    finally:
        server.stop()
    raw = json.loads(intervals_path.read_text())
    walls = {f"{TIMED}{index}": reply.seconds
             for index, reply in timed.replies}
    by_id = {t["trace_id"]: t for t in traces["traces"]}
    runner.check("traces of every timed request",
                 all(t in by_id for t in walls),
                 f"{sum(t in by_id for t in walls)}/{len(walls)}")
    return layers.per_layer(
        raw, walls, by_id, delta,
        cpu_ms_per_request=cpu / len(plain.latencies) * 1e3,
        untraced_p50_ms=median(plain.latencies) * 1e3,
        traced_p50_ms=median(timed.latencies) * 1e3)


def report(args, workload: Workload, env: dict, runner: Runner,
           results: Dict[str, tuple]) -> bool:
    """Print the human-readable report and the JSON line; True if correct."""
    from perfbench.stats import check_metric_name

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{workload.requests} timed requests, closed loop, "
          f"{workload.connections} connection(s)")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    for phase, (sent, failed) in sorted(runner.counts.items()):
        print(f"  requests {phase}: sent {sent} succeeded {sent - failed} "
              f"failed {failed}")
    for name, (value, unit, count, note) in results.items():
        print(f"  {check_metric_name(name):28s} {value:14.4f} {unit:6s} "
              f"n={count:<4d} {note}")
    failures = [r for r in runner.check.results if not r[1]]
    print(f"  checks: {len(runner.check.results) - len(failures)} passed, "
          f"{len(failures)} failed")
    for name, _ok, detail in failures:
        print(f"  FAILED {name} {detail}")
    correct = runner.check.ok and all(
        math.isfinite(v[0]) for v in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(sent for sent, _f in runner.counts.values()),
        "failed": sum(failed for _s, failed in runner.counts.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n, _note) in results.items()},
    }))
    return correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.client import PINNED_ENV

    os.environ.update(PINNED_ENV)   # before numpy loads its BLAS
    from perfbench.inputs import fixture_checkpoint
    from repro.graphs.io import graph_fingerprint

    build = ROOT / ".bench_build" / "perfbench"
    ckpt, trained = fixture_checkpoint(build)
    workdir = build / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        workload.prepare()
        runner = Runner(workload, ckpt)
        bodies = getattr(workload, "bodies", [])
        runner.check("no request graph is the training graph",
                     all(graph_fingerprint(b.graph) != trained
                         for b in bodies))
        env = environment(workdir)
        results = run_traced(runner) if args.trace else run_e2e(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if report(args, workload, env, runner, results) else 1


if __name__ == "__main__":
    sys.exit(main())
