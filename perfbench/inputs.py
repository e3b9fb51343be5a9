"""Deterministic inputs of the serving benchmark.

Everything a run sends is made here from the workload seed, before any
timed phase: the request graphs, their JSON bodies and the event-stream
bodies. The same seed gives byte-identical bodies.

Request graphs are tsocial-like (``load_dataset("tsocial", scale=1.0)``,
16k nodes, 3 relations). A workload draws a few such base graphs from its
seed and sends node relabellings of them: request ``i`` is base
``i % bases`` with its node ids permuted by a permutation drawn for ``i``.
Each relabelling has its own fingerprint, so the server has never seen
it, while the scoring work per request stays that of one 16k-node graph.
The relabelling also makes body encoding cheap: the JSON text of every
attribute row is encoded once per base and only reordered per request.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

GRAPH_DATASET = "tsocial"
GRAPH_SCALE = 1.0

#: the fixture checkpoint: trained once per checkout on a graph that no
#: workload ever sends (its own seed, a different size)
FIXTURE_SCALE = 0.3
FIXTURE_SEED = 20_250_101
FIXTURE_EPOCHS = 10

#: seed streams of the inputs, so each kind draws independent numbers
_BASES, _PERMUTATIONS, _STREAM = 0, 1, 2


@dataclass
class ScoreBody:
    """One ``POST /v1/score`` request: its graph, labels and exact bytes."""

    graph: object          # repro.graphs.MultiplexGraph
    labels: np.ndarray
    body: bytes


@dataclass
class EventStream:
    """``POST /v1/events`` bodies of exactly ``window`` events each."""

    base_graph: object
    base_labels: np.ndarray
    events: list
    truth: object          # repro.stream.StreamTruth
    bodies: List[bytes]
    window: int

    def labels(self, num_nodes: int) -> np.ndarray:
        """Dataset labels (0 for arrived nodes) or stream burst members."""
        labels = np.zeros(num_nodes, dtype=np.int64)
        labels[:self.base_labels.size] = self.base_labels
        return np.maximum(labels, self.truth.labels(num_nodes))


def _seed(seed: int, stream: int, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), stream, index])


def _base(seed: int, index: int, scale: float):
    from repro.datasets import load_dataset

    child = int(_seed(seed, _BASES, index).generate_state(1)[0])
    return load_dataset(GRAPH_DATASET, scale=scale, seed=child)


def score_bodies(seed: int, count: int, bases: int,
                 scale: float = GRAPH_SCALE) -> List[ScoreBody]:
    """``count`` distinct inline-graph score requests over ``bases``
    seeded base graphs."""
    from repro.graphs.io import from_edge_dict

    datasets = [_base(seed, b, scale) for b in range(min(bases, count))]
    row_texts = [[json.dumps(row) for row in ds.graph.x.tolist()]
                 for ds in datasets]
    out = []
    for i in range(count):
        ds = datasets[i % len(datasets)]
        graph = ds.graph
        n = graph.num_nodes
        perm = np.random.default_rng(_seed(seed, _PERMUTATIONS, i)) \
            .permutation(n)
        # node u becomes perm[u]; new row j holds old row inverse[j]
        inverse = np.argsort(perm)
        edges = {name: perm[rel.edges] for name, rel in
                 graph.relations.items()}
        relabelled = from_edge_dict(n, edges, graph.x[inverse])
        rows = row_texts[i % len(datasets)]
        relations = json.dumps({name: array.tolist()
                                for name, array in edges.items()})
        body = ('{"graph": {"x": [' + ", ".join(rows[j] for j in inverse)
                + '], "relations": ' + relations + "}}").encode("utf-8")
        out.append(ScoreBody(relabelled, ds.labels[inverse], body))
    return out


def event_stream(seed: int, windows: int, window: int,
                 scale: float = GRAPH_SCALE) -> EventStream:
    """A seeded base graph and ``windows * window`` synthetic events."""
    from repro.stream import synthesize_stream

    ds = _base(seed, 0, scale)
    rng = np.random.default_rng(_seed(seed, _STREAM))
    events, truth = synthesize_stream(ds.graph, windows * window, rng)
    bodies = [json.dumps({"events": [e.to_dict() for e in
                                     events[k * window:(k + 1) * window]]})
              .encode("utf-8") for k in range(windows)]
    return EventStream(ds.graph, ds.labels, events, truth, bodies, window)


def fixture_checkpoint(directory: pathlib.Path,
                       scale: float = FIXTURE_SCALE,
                       epochs: int = FIXTURE_EPOCHS) -> Tuple[pathlib.Path,
                                                              str]:
    """The UMGAD checkpoint every server loads, trained on first use.

    Returns ``(path, training-graph fingerprint)``. The file is written
    atomically, so an interrupted first run leaves no half checkpoint.
    """
    from repro.core import UMGAD, UMGADConfig
    from repro.datasets import load_dataset
    from repro.graphs.io import graph_fingerprint

    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fixture-{scale}-{epochs}.npz"
    dataset = load_dataset(GRAPH_DATASET, scale=scale, seed=FIXTURE_SEED)
    if not path.exists():
        model = UMGAD(UMGADConfig(epochs=epochs, seed=0)).fit(dataset.graph)
        partial = directory / f".{path.name}.{os.getpid()}.tmp.npz"
        model.save(partial, graph=dataset.graph)
        os.replace(partial, path)
    return path, graph_fingerprint(dataset.graph)
