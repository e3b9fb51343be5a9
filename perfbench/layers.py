"""Per-layer timing for the traced run, and the accounting over it.

:func:`install` wraps the public functions of each serving layer where
its caller looks the name up (``repro.server.gateway.graph_from_payload``,
``DetectorService.scores``, ...). Each call becomes one interval
``(name, thread, start, end, extra)`` on the process-wide
``time.perf_counter`` clock. The traced server dumps the intervals at
exit; :func:`account` turns them, the client's wall times and the
server's own ``/v1/traces`` spans into per-layer metrics.

Self time of a layer is its interval minus the intervals of the wrapped
calls it made on the same thread. A score request's wait on the batcher
is split across threads: queue wait (submit to ``DetectorService.scores``
start), the scoring call on the worker thread, and hand-off (scoring end
to the future's result being set). The core sub-stages inside
``UMGAD.score_graph`` come from the program's spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: (metric, program span) pairs read back from GET /v1/traces
CORE_SPANS = (
    ("core.masked_group_ms", "score.masked_group"),
    ("core.structure_ms", "score.structure"),
    ("core.fused_pass_ms", "score.fused_pass"),
    ("core.propagator_build_ms", "propagator.build"),
    ("core.attributes_ms", "score.attributes"),
)

#: wrapped-call self times that account for a request's server time
#: (metric name, interval name); ``app.request`` itself is the gap
SELF_STAGES = (
    ("app.body_read_ms", "app.read_body"),
    ("app.json_decode_ms", "app.json_decode"),
    ("app.json_encode_ms", "app.json_encode"),
    ("app.write_ms", "app.write"),
    ("protocol.graph_decode_ms", "protocol.graph_decode"),
    ("protocol.response_ms", "protocol.response"),
    ("graphs.fingerprint_ms", "graphs.fingerprint"),
    ("gateway.score_self_ms", "gateway.score"),
    ("gateway.events_self_ms", "gateway.events"),
    ("service.scores_self_ms", "service.scores"),
    ("model.score_graph_self_ms", "model.score_graph"),
    ("builder.apply_ms", "builder.apply"),
    ("builder.snapshot_ms", "builder.snapshot"),
    ("builder.fingerprint_ms", "builder.fingerprint"),
    ("monitor.process_self_ms", "monitor.process"),
    ("wal.append_ms", "wal.append"),
    ("wal.snapshot_ms", "wal.snapshot"),
)

#: the stages must cover the client wall time to within this share
COVERAGE_TOLERANCE = 0.05


class Recorder:
    """Collects call intervals from every thread of the process."""

    def __init__(self):
        self.intervals: List[tuple] = []   # list.append is atomic

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        original = getattr(owner, attr)
        record = self.intervals.append

        @functools.wraps(original)
        def timed(*args, **kwargs):
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                info = extra(args, kwargs, result) if extra else None
                record((name, threading.get_ident(), start, end, info))

        setattr(owner, attr, timed)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.intervals, handle)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``repro.server.app``."""

    def __init__(self, module, recorder: Recorder):
        self._module = module
        self.loads = module.loads
        self.dumps = module.dumps
        recorder.wrap(self, "loads", "app.json_decode")
        recorder.wrap(self, "dumps", "app.json_encode")

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _request_info(args, kwargs, result):
    handler = args[0]
    return {"trace_id": handler.headers.get("X-Repro-Trace-Id")}


def _submit_info(args, kwargs, future):
    info = {"fp": args[2] if len(args) > 2 else kwargs.get("fingerprint")}
    if future is not None:
        future.add_done_callback(
            lambda _f: info.__setitem__("done", time.perf_counter()))
    return info


def _scores_info(args, kwargs, scores):
    fingerprint = args[2] if len(args) > 2 else kwargs.get("fingerprint")
    return {"fp": fingerprint,
            "nodes": int(scores.size) if scores is not None else 0}


def _apply_info(args, kwargs, stats):
    return {"applied": int(stats.applied) if stats is not None else 0}


def install() -> Recorder:
    """Wrap every measured layer of the serving stack (traced run only)."""
    from repro.core.model import UMGAD
    from repro.serve import service
    from repro.server import app, batcher, gateway
    from repro.stream import builder, monitor, wal

    rec = Recorder()
    handler = app.ServerHandler
    rec.wrap(handler, "do_POST", "app.request", _request_info)
    rec.wrap(handler, "_read_json_body", "app.read_body")
    rec.wrap(handler, "_send", "app.write")
    app.json = _JsonProxy(app.json, rec)
    rec.wrap(gateway, "graph_from_payload", "protocol.graph_decode")
    rec.wrap(gateway, "graph_fingerprint", "graphs.fingerprint")
    rec.wrap(gateway, "score_response", "protocol.response")
    rec.wrap(gateway.Gateway, "score", "gateway.score")
    rec.wrap(gateway.Gateway, "ingest_events", "gateway.events")
    rec.wrap(gateway.Gateway, "metrics_text", "gateway.metrics_text")
    rec.wrap(batcher.MicroBatcher, "submit", "batcher.submit", _submit_info)
    rec.wrap(service.DetectorService, "scores", "service.scores",
             _scores_info)
    rec.wrap(service, "load_checkpoint", "checkpoint.load")
    rec.wrap(UMGAD, "score_graph", "model.score_graph")
    graph_builder = builder.IncrementalGraphBuilder
    rec.wrap(graph_builder, "apply", "builder.apply", _apply_info)
    rec.wrap(graph_builder, "snapshot", "builder.snapshot")
    rec.wrap(graph_builder, "fingerprint", "builder.fingerprint")
    rec.wrap(monitor.StreamMonitor, "process", "monitor.process")
    rec.wrap(wal.WriteAheadLog, "append", "wal.append")
    rec.wrap(monitor, "save_snapshot", "wal.snapshot")
    return rec


# ----------------------------------------------------------------------
# Accounting (client side)
# ----------------------------------------------------------------------
class _Interval:
    __slots__ = ("name", "thread", "start", "end", "info", "children")

    def __init__(self, raw: Sequence):
        self.name, self.thread, self.start, self.end, info = raw
        self.info = info or {}
        self.children = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nest(intervals: Iterable[_Interval]) -> None:
    """Charge each same-thread interval to its innermost enclosing one."""
    by_thread = defaultdict(list)
    for item in intervals:
        by_thread[item.thread].append(item)
    for items in by_thread.values():
        items.sort(key=lambda i: (i.start, -i.end))
        stack: List[_Interval] = []
        for item in items:
            while stack and stack[-1].end <= item.start:
                stack.pop()
            if stack:
                stack[-1].children += item.seconds
            stack.append(item)


def _span_self_ms(trace: dict) -> Dict[str, Tuple[float, float]]:
    """Per program span name: (wall ms, self ms) summed over one trace."""
    spans = trace.get("spans", [])
    child_ms = defaultdict(float)
    for item in spans:
        if item.get("parent_id") is not None:
            child_ms[item["parent_id"]] += item["wall_ms"]
    out: Dict[str, Tuple[float, float]] = {}
    for item in spans:
        wall, own = out.get(item["name"], (0.0, 0.0))
        out[item["name"]] = (
            wall + item["wall_ms"],
            own + item["wall_ms"] - child_ms[item["span_id"]])
    return out


def account(raw: Sequence, walls: Dict[str, float],
            traces: Dict[str, dict]) -> Tuple[Dict[str, float], dict]:
    """Per-layer means over the timed requests, plus the accounting.

    ``walls`` maps each timed request's trace id to its client wall
    seconds; ``traces`` maps trace ids to ``/v1/traces`` entries. Returns
    ``(metrics, accounting)`` where every time is milliseconds per
    request and ``accounting`` states coverage, gap and tolerance.
    """
    intervals = [_Interval(item) for item in raw]
    _nest(intervals)
    requests = {}
    for item in intervals:
        if item.name == "app.request" and \
                item.info.get("trace_id") in walls:
            requests[item.info["trace_id"]] = item
    missing = sorted(set(walls) - set(requests))
    if missing:
        raise RuntimeError(f"no server interval for requests {missing[:3]}")
    scores_calls = [i for i in intervals if i.name == "service.scores"]
    totals = defaultdict(float)    # metric -> summed seconds or counts
    for trace_id, request in requests.items():
        mine = [i for i in intervals if i.thread == request.thread
                and request.start <= i.start and i.end <= request.end]
        # the worker-thread scoring calls this request waited for
        for submit in (i for i in mine if i.name == "batcher.submit"):
            done = submit.info.get("done", submit.end)
            call = next((c for c in scores_calls
                         if c.thread != request.thread
                         and c.info.get("fp") == submit.info.get("fp")
                         and submit.start <= c.start <= done), None)
            if call is None:
                continue
            totals["batcher.queue_wait_ms"] += call.start - submit.start
            totals["batcher.handoff_ms"] += done - call.end
            worker = [i for i in intervals if i.thread == call.thread
                      and call.start <= i.start and i.end <= call.end]
            mine.extend(worker)
        for item in mine:
            own = item.seconds - item.children
            if item.name == "batcher.submit":
                # the wait is charged to queue/scoring/hand-off instead
                totals["gateway.score.self"] -= (
                    item.info.get("done", item.end) - item.end)
                continue
            totals[item.name + ".self"] += own
            totals[item.name + ".wall"] += item.seconds
            if item.name == "builder.apply":
                totals["builder.events_applied"] += item.info["applied"]
            elif item.name == "wal.append":
                totals["wal.appends"] += 1
            elif item.name == "service.scores" and any(
                    m.name == "monitor.process" for m in mine):
                totals["monitor.nodes_rescored"] += item.info["nodes"]
        totals["app.wire"] += walls[trace_id] - request.seconds
        spans = _span_self_ms(traces.get(trace_id, {}))
        core_self = 0.0
        for metric, span_name in CORE_SPANS:
            wall_ms, self_ms = spans.get(span_name, (0.0, 0.0))
            totals[metric] += wall_ms / 1e3
            core_self += self_ms / 1e3
        totals["core.self"] += core_self

    n = len(requests)
    per = {key: value / n for key, value in totals.items()}

    def ms(key: str) -> float:
        return per.get(key, 0.0) * 1e3

    metrics = {
        "app.request_ms": ms("app.request.wall"),
        "app.wire_ms": ms("app.wire"),
        "batcher.queue_wait_ms": ms("batcher.queue_wait_ms"),
        "batcher.handoff_ms": ms("batcher.handoff_ms"),
        "service.scores_ms": ms("service.scores.wall"),
        "model.score_graph_ms": ms("model.score_graph.wall"),
        "builder.events_applied": per.get("builder.events_applied", 0.0),
        "monitor.nodes_rescored": per.get("monitor.nodes_rescored", 0.0),
        "wal.appends": per.get("wal.appends", 0.0),
    }
    for metric, _span in CORE_SPANS:
        metrics[metric] = ms(metric)
    for metric, name in SELF_STAGES:
        metrics[metric] = ms(name + ".self")
    # the model's own time excludes the core stages' self times
    metrics["model.score_graph_self_ms"] -= ms("core.self")
    wall_ms = sum(walls.values()) / n * 1e3
    covered = metrics["app.wire_ms"] + ms("core.self") + \
        ms("batcher.queue_wait_ms") + ms("batcher.handoff_ms") + \
        sum(metrics[metric] for metric, _ in SELF_STAGES)
    accounting = {
        "wall_ms": wall_ms,
        "covered_ms": covered,
        "gap_ms": wall_ms - covered,
        "coverage": covered / wall_ms,
        "tolerance": COVERAGE_TOLERANCE,
        "ok": abs(1.0 - covered / wall_ms) <= COVERAGE_TOLERANCE,
        "requests": n,
    }
    return metrics, accounting


def _calls_ms(raw: Sequence, name: str) -> List[float]:
    return [(end - start) * 1e3 for item_name, _t, start, end, _i in raw
            if item_name == name]


def _unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith(("_ratio", "coverage")):
        return "ratio"
    return "count"


def per_layer(raw: Sequence, walls: Dict[str, float],
              traces: Dict[str, dict], delta: Dict[str, float], *,
              cpu_ms_per_request: float, untraced_p50_ms: float,
              traced_p50_ms: float) -> Dict[str, tuple]:
    """Every per-layer metric of a traced run.

    ``delta`` holds the server's own counters over the timed phase (from
    ``/metrics``). Returns ``name -> (value, unit, samples, note)``.
    """
    metrics, accounting = account(raw, walls, traces)
    n = accounting["requests"]
    out = {name: (value, _unit(name), n, "mean per timed request")
           for name, value in metrics.items()}

    def ratio(numerator: str, denominator: float) -> float:
        return delta.get(numerator, 0.0) / denominator if denominator \
            else 0.0

    submitted = delta.get("repro_batcher_submitted_total", 0.0)
    batches = delta.get("repro_batcher_batches_total", 0.0)
    lookups = delta.get("repro_service_cache_hits_total", 0.0) + \
        delta.get("repro_service_cache_misses_total", 0.0)
    scrapes = _calls_ms(raw, "gateway.metrics_text")
    loads = _calls_ms(raw, "checkpoint.load")
    extra = {
        "batcher.batch_size_mean": (
            ratio("repro_batcher_completed_total", batches), int(batches),
            "requests per scoring pass"),
        "batcher.coalesced_ratio": (
            ratio("repro_batcher_coalesced_total", submitted),
            int(submitted), "of submitted"),
        "service.cache_hit_ratio": (
            ratio("repro_service_cache_hits_total", lookups), int(lookups),
            "of cache lookups"),
        "gateway.metrics_text_ms": (
            sum(scrapes) / len(scrapes) if scrapes else 0.0, len(scrapes),
            "mean per scrape"),
        "checkpoint.load_ms": (sum(loads), len(loads), "at server start"),
        "server.cpu_ms_per_request": (
            cpu_ms_per_request, n, "utime+stime of the untraced server"),
        "trace.p50_ms": (traced_p50_ms, n, "latency p50, traced server"),
        "trace.untraced_p50_ms": (untraced_p50_ms, n,
                                  "latency p50, untraced server"),
        "trace.overhead_ratio": (traced_p50_ms / untraced_p50_ms, n,
                                 "traced p50 / untraced p50"),
        "accounting.coverage": (
            accounting["coverage"], n,
            f"stages cover {accounting['covered_ms']:.1f} of "
            f"{accounting['wall_ms']:.1f} ms client wall, tolerance "
            f"{accounting['tolerance']:.0%}: "
            + ("ok" if accounting["ok"] else "GAP")),
        "accounting.gap_ms": (accounting["gap_ms"], n,
                              "client wall covered by no stage"),
    }
    for name, (value, count, note) in extra.items():
        out[name] = (value, _unit(name), count, note)
    return out
