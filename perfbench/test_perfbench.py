"""Tests of the serving benchmark itself (inputs, statistics, accounting).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root. The accounting test starts a small traced server.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, layers, stats
from perfbench.client import ServerProcess, metrics
from perfbench.run import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TINY = 0.02    # 320-node tsocial-like graphs


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_byte_identical_bodies():
    first = inputs.score_bodies(7, 3, bases=2, scale=TINY)
    again = inputs.score_bodies(7, 3, bases=2, scale=TINY)
    assert [b.body for b in first] == [b.body for b in again]
    other = inputs.score_bodies(8, 3, bases=2, scale=TINY)
    assert [b.body for b in first] != [b.body for b in other]
    stream = inputs.event_stream(7, 3, 20, scale=TINY)
    assert stream.bodies == inputs.event_stream(7, 3, 20, scale=TINY).bodies
    assert all(len(json.loads(b)["events"]) == 20 for b in stream.bodies)


def test_bodies_decode_to_their_graphs_and_are_distinct():
    from repro.graphs.io import graph_fingerprint
    from repro.server.protocol import graph_from_payload

    bodies = inputs.score_bodies(3, 4, bases=2, scale=TINY)
    for body in bodies:
        payload = json.loads(body.body)
        assert json.dumps(payload).encode() == body.body
        decoded = graph_from_payload(payload["graph"])
        assert graph_fingerprint(decoded) == graph_fingerprint(body.graph)
        assert body.labels.sum() > 0
    assert len({graph_fingerprint(b.graph) for b in bodies}) == 4


@pytest.mark.parametrize("n", [11, 12, 20, 37, 100, 1000])
def test_tail_percentile_has_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    value, percentile = stats.tail(values)
    beyond = sum(v > value for v in values)
    assert beyond == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    # the next higher sample would leave fewer than ten beyond it
    assert sum(v > value + 1 for v in values) < stats.TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_benchmark_json_names_and_units():
    spec = _benchmark_json()
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    metrics_ = spec["end_to_end"] + spec["per_layer"]
    for metric in metrics_:
        stats.check_metric_name(metric["name"])
        assert unit.match(metric["unit"])
    every = names + [m["name"] for m in metrics_]
    assert len(every) == len(set(every))
    with pytest.raises(ValueError):
        stats.check_metric_name("bad name")


def test_auc_matches_pairwise_definition():
    import numpy as np

    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 50)
    scores = rng.integers(0, 5, 50).astype(float)   # with ties
    pos, neg = scores[labels == 1], scores[labels == 0]
    pairs = [(p > q) + 0.5 * (p == q) for p in pos for q in neg]
    assert stats.roc_auc(labels, scores) == pytest.approx(np.mean(pairs))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert proc.stdout == b""


def test_layer_accounting_holds_on_a_tiny_graph(tmp_path):
    ckpt, _fp = inputs.fixture_checkpoint(tmp_path / "build", scale=TINY,
                                          epochs=1)
    bodies = inputs.score_bodies(5, 3, bases=1, scale=TINY)
    stream = inputs.event_stream(5, 3, 50, scale=TINY)
    from repro.graphs.io import save_multiplex

    save_multiplex(tmp_path / "base.npz", stream.base_graph)
    (tmp_path / "wal").mkdir()
    intervals = tmp_path / "intervals.json"
    server = ServerProcess(
        ROOT, ["--model", str(ckpt), "--graph", str(tmp_path / "base.npz"),
               "--wal-dir", str(tmp_path / "wal"), "--window", "50"],
        tmp_path, traced=True, env={"PERFBENCH_INTERVALS": str(intervals)})
    server.start()
    try:
        conn = server.connect()
        before = metrics(conn)
        walls = {}
        # cold, then warm (the same graph again), then stream windows
        for k, body in enumerate([bodies[0], bodies[1], bodies[1]]):
            reply = conn.request("POST", "/v1/score", body.body,
                                 trace_id=f"t-s{k}")
            assert reply.status == 200
            walls[f"t-s{k}"] = reply.seconds
        for k, body in enumerate(stream.bodies):
            reply = conn.request("POST", "/v1/events", body,
                                 trace_id=f"t-e{k}")
            assert reply.status == 200
            walls[f"t-e{k}"] = reply.seconds
        delta = {key: value - before.get(key, 0.0)
                 for key, value in metrics(conn).items()}
        traces = json.loads(conn.request("GET", "/v1/traces").body)
        conn.close()
    finally:
        server.stop()
    by_id = {t["trace_id"]: t for t in traces["traces"]}
    out = layers.per_layer(json.loads(intervals.read_text()), walls, by_id,
                           delta, cpu_ms_per_request=1.0,
                           untraced_p50_ms=1.0, traced_p50_ms=1.0)
    accounting = layers.account(json.loads(intervals.read_text()), walls,
                                by_id)[1]
    assert accounting["ok"], accounting
    assert out["accounting.coverage"][0] == pytest.approx(
        accounting["coverage"])
    assert out["model.score_graph_ms"][0] > 0
    assert out["core.masked_group_ms"][0] > 0
    assert out["builder.apply_ms"][0] > 0
    assert out["wal.appends"][0] > 0
    assert out["checkpoint.load_ms"][2] == 1
    # two cold passes, one warm hit, then three windows (cold each)
    assert out["service.cache_hit_ratio"][0] == pytest.approx(1 / 6)
    units = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: unit for name, (_v, unit, _n, _note) in out.items()} \
        == units
