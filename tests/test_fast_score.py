"""Bitwise parity of the scoring engine with the recorded seed behaviour.

``tests/fixtures/score_parity.json`` pins ``decision_scores`` recorded by
the sequential tape-recording scorer that preceded the grad-free engine:

* ``umgad`` — every Fig. 6 mode plus the w/o-M ablation on a small retail
  dataset;
* ``baselines`` — a sample of baselines on the same dataset;
* ``legacy_cases`` — sampled structure scoring on a random multiplex, a
  float32 model, and a :class:`~repro.serve.DetectorService` scoring a
  graph it was not trained on.

There is one scoring path; each test asserts it against the fixture.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.core import UMGAD, UMGADConfig
from repro.core.config import ablation_config
from repro.datasets import load_dataset
from repro.graphs import random_multiplex

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "score_parity.json"


@pytest.fixture(scope="module")
def parity():
    return json.loads(FIXTURES.read_text())


@pytest.fixture(scope="module")
def parity_dataset(parity):
    spec = parity["dataset"]
    return load_dataset(spec["name"], scale=spec["scale"],
                        num_features=spec["num_features"], seed=spec["seed"])


def _variant_config(name: str) -> UMGADConfig:
    base = UMGADConfig(epochs=6, seed=0)
    if name == "full":
        return base
    if name == "wo_mask":
        return ablation_config(base, "w/o M")
    return base.variant(mode=name)


def _assert_pinned(scores: np.ndarray, pinned) -> None:
    assert scores.tolist() == pytest.approx(pinned, rel=1e-12)


class TestUMGADParity:
    @pytest.mark.parametrize("variant", ["full", "att", "str", "sub",
                                         "wo_mask"])
    def test_fast_equals_legacy_and_fixture(self, variant, parity,
                                            parity_dataset):
        scores = UMGAD(_variant_config(variant)).fit(
            parity_dataset.graph).decision_scores()
        _assert_pinned(scores, parity["umgad"][variant])

    def test_score_graph_deterministic_and_matches_fit(self, parity_dataset):
        graph = parity_dataset.graph
        model = UMGAD(UMGADConfig(epochs=4, seed=0)).fit(graph)
        first = model.score_graph(graph)
        second = model.score_graph(graph)
        assert np.array_equal(first, second)

    def test_fast_equals_legacy_on_random_multiplex(self, parity):
        rng = np.random.default_rng(9)
        graph = random_multiplex(70, 3, 8, rng, avg_degree=4.0)
        cfg = UMGADConfig(epochs=3, seed=1, encoder_layers=2,
                          structure_score_mode="sampled")
        scores = UMGAD(cfg).fit(graph).decision_scores()
        _assert_pinned(scores,
                       parity["legacy_cases"]["random_multiplex_sampled"])

    def test_float32_parity(self, parity):
        from repro.autograd import get_default_dtype, set_default_dtype

        previous = get_default_dtype()
        try:
            set_default_dtype(np.float32)
            rng = np.random.default_rng(10)
            graph = random_multiplex(40, 2, 6, rng, avg_degree=3.0)
            cfg = UMGADConfig(epochs=2, seed=0)
            scores = UMGAD(cfg).fit(graph).decision_scores()
        finally:
            set_default_dtype(previous)
        _assert_pinned(scores, parity["legacy_cases"]["float32"])


class TestBaselineParity:
    @pytest.mark.parametrize("method", ["DOMINANT", "CoLA"])
    def test_scores_match_fixture(self, method, parity, parity_dataset):
        det = make_baseline(method, seed=0, epochs=6).fit(parity_dataset.graph)
        _assert_pinned(det.decision_scores(), parity["baselines"][method])


class TestServingParity:
    def test_service_scores_identical_both_paths(self, parity, parity_dataset,
                                                 tmp_path):
        from repro.serve import DetectorService

        graph = parity_dataset.graph
        model = UMGAD(UMGADConfig(epochs=3, seed=0)).fit(graph)
        path = model.save(tmp_path / "model.npz", graph=graph)

        fresh = random_multiplex(graph.num_nodes, graph.num_relations,
                                 graph.num_features,
                                 np.random.default_rng(77), avg_degree=3.0)
        scores = DetectorService(path).scores(fresh).copy()
        _assert_pinned(scores, parity["legacy_cases"]["service_fresh"])
