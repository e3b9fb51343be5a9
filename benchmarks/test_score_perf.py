"""Cold and warm scoring cost of the grad-free scoring engine.

Not a paper table — this tracks the inference engine on the Table
III-scale generator graph (full-size T-Social stand-in, the config
``table3`` scores it with): ``score_graph`` wall-clock on a cold graph
(fresh operator caches) and a warm one, the masked-group reconstruction
stage against the per-group forwards it batches, and a served cold
request on a graph the checkpoint was not trained on. All timings run
through :func:`repro.utils.measure_repeated` and land in the performance
ledger (``score_perf.json``).

Gates:

* the batched masked-group reconstruction — the ``relations ×
  ceil(1/mask_ratio)`` GMAE forwards the engine stacks into one pass per
  relation — is >= 3x faster than running those forwards one group at a
  time with the tape recording, and bit-for-bit equal to them;
* end-to-end scoring (``score_fast_cold``/``score_fast_warm``) and the
  served cold request (``serve_cold_fast``) are absolute ledger entries:
  a regression shows up as ``python -m repro.cli bench diff <previous
  ledger dir> <new ledger dir>`` flagging them slower. Their names are
  unchanged from the ledgers that also timed the removed sequential
  scorer, so the diff lines up with those ledgers too.
"""

import numpy as np

from conftest import save_and_echo

from repro.autograd import Tensor, enable_grad, no_grad
from repro.core import UMGAD
from repro.datasets import load_dataset
from repro.experiments.common import umgad_config
from repro.serve import DetectorService
from repro.utils import measure_repeated
from repro.utils.rng import ensure_rng

SCALE = 1.0          # Table III-scale: the full-size generator graph
FEATURES = 24
DATA_SEED = 7


def _fresh_graph(seed=DATA_SEED):
    """A new graph object (cold operator caches)."""
    return load_dataset("tsocial", scale=SCALE, num_features=FEATURES,
                        seed=seed).graph


def _fit_model(graph, profile):
    config = umgad_config(
        "tsocial",
        profile.variant(umgad_epochs=2, umgad_batch="subgraph"),
        seed=0, structure_score_mode="sampled")
    return UMGAD(config).fit(graph)


def _masked_groups(model, n):
    """The mask groups :meth:`UMGAD._masked_eval_recon` draws from a
    detector RNG freshly seeded with 0."""
    model._rng = ensure_rng(0)
    num_groups = max(2, int(np.ceil(1.0 / model.config.mask_ratio)))
    perm = model._rng.permutation(n)
    return [g for g in np.array_split(perm, num_groups) if g.size]


def test_fast_scoring_beats_legacy(profile, output_dir, ledger):
    graph = _fresh_graph()
    model = _fit_model(graph, profile)

    # --- end-to-end score_graph -------------------------------------------
    # cold: every rep scores a new graph object, so the propagator and
    # GAT scatter caches are rebuilt inside the clock
    cold = measure_repeated(lambda g: model.score_graph(g), reps=3,
                            setup=_fresh_graph, name="score_fast_cold")
    warm_graph = _fresh_graph()
    warm = measure_repeated(lambda: model.score_graph(warm_graph), reps=3,
                            warmup=1, name="score_fast_warm")
    assert np.array_equal(cold.value, warm.value)
    ledger.record_timing(cold)
    ledger.record_timing(warm)

    # --- the batched masked-group reconstruction stage --------------------
    nets = model.networks
    bank = nets.attr
    relations = model._relation_list(graph)
    x = Tensor(graph.x)

    def masked_stage_sequential():
        groups = _masked_groups(model, graph.num_nodes)
        per_rel = [np.zeros_like(graph.x) for _ in relations]
        with enable_grad():
            for group in groups:
                for r, rel in enumerate(relations):
                    rec = bank[r].forward(x, rel, masked_nodes=group).data
                    per_rel[r][group] = rec[group]
        return per_rel

    def masked_stage_batched():
        model._rng = ensure_rng(0)
        with no_grad():
            return model._masked_eval_recon(bank, graph, {})[1]

    nets.eval()
    masked_stage_batched()          # warm the shared operator caches
    stage_seq = measure_repeated(masked_stage_sequential, reps=3,
                                 name="masked_stage_sequential")
    stage_batched = measure_repeated(masked_stage_batched, reps=3,
                                     name="masked_stage_batched")
    nets.train()
    ledger.record_timing(stage_seq)
    ledger.record_timing(stage_batched)
    for seq_rel, batched_rel in zip(stage_seq.value, stage_batched.value):
        assert np.array_equal(seq_rel, batched_rel)
    stage_speedup = stage_seq.best / max(stage_batched.best, 1e-12)

    # --- serving a checkpoint against an unseen graph ---------------------
    # (different content than the training graph, so the request misses the
    # stored-scores fingerprint fast path and pays a real scoring pass)
    ckpt = output_dir / "score_perf_model.npz"
    model.save(ckpt, graph=graph)
    serve_graph = _fresh_graph(DATA_SEED + 1)
    service = DetectorService(str(ckpt))
    # every rep clears the cache first, so each pays fingerprint + a full
    # scoring pass (the cold-request cost)
    serve = measure_repeated(lambda: service.scores(serve_graph).copy(),
                             reps=3, setup=service.clear_cache,
                             name="serve_cold_fast")
    ledger.record_timing(serve)

    report = "\n".join([
        f"graph: {graph}",
        "",
        "end-to-end score_graph (median of 3; cold = new graph object "
        "per rep)",
        f"  cold {cold.median * 1e3:8.1f} ms   warm "
        f"{warm.median * 1e3:8.1f} ms",
        "",
        "masked-group reconstruction stage (GAT bank, "
        f"g={len(_masked_groups(model, graph.num_nodes))} groups, "
        "bitwise-identical)",
        f"  per-group recording forwards {stage_seq.best * 1e3:8.1f} ms   "
        f"batched {stage_batched.best * 1e3:8.1f} ms   "
        f"speedup {stage_speedup:.2f}x",
        "",
        "serve cold request on a fresh graph (checkpoint-loaded model, "
        "median of 3)",
        f"  {serve.median * 1e3:8.1f} ms",
        "",
        "end-to-end and serve timings are gated by `repro bench diff` "
        "against the previous ledger",
    ])
    save_and_echo(output_dir, "score_perf", report)

    assert stage_speedup >= 3.0
