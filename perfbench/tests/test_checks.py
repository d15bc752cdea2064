"""Known-bad self-tests: every output check must fire on a bad output.

Each test first shows the check passing on a small real run of the
workload's code, then corrupts one thing the way a defect would and
shows the check failing.  Run them with::

    python3 perfbench/run.py --self-test
    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

import dist_magnn
import serve_mixed
import stream_gcn
from checks import embeddings_close, logits_match, losses_bitwise, losses_close
from common import OP_SPAN, Tracer, self_times
from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 5


@contextlib.contextmanager
def scaled(module, **values):
    """Shrink a workload's size constants for the length of a test."""
    old = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(module, name, value)


def test_full_gat_check_fires_on_one_perturbed_logit():
    from repro import models
    from repro.core.engine import FlexGraphEngine
    from repro.datasets.synthetic import twitter_like
    from repro.tensor import Tensor

    ds = twitter_like(num_vertices=600, avg_degree=10, seed=SEED)
    model = models.gat(ds.feat_dim, 8, ds.num_classes, seed=SEED)
    feats = Tensor(ds.features)
    ha = FlexGraphEngine(model, ds.graph, strategy="ha").embed(feats)
    sa = FlexGraphEngine(model, ds.graph, strategy="sa").embed(feats)
    assert logits_match(ha, sa) == []
    ha[17, 2] *= 1 + 1e-6
    failures = logits_match(ha, sa)
    assert len(failures) == 1 and "vertex 17" in failures[0]


def test_stream_gcn_check_fires_on_one_changed_loss_bit():
    root = os.path.join(HERE, ".out", f"selftest-stream-{os.getpid()}")
    with scaled(stream_gcn, NUM_VERTICES=3000, FINAL_EPOCH=2):
        s = stream_gcn.build(SEED, root)
        try:
            for epoch in (1, 2):
                s.losses.append(s.trainer.train_epoch(
                    optimizer=s.optimizer, mask=s.ds.train_mask, epoch=epoch).loss)
            sync = stream_gcn._replay(s, SEED, False, None, "")
        finally:
            s.close()
    assert losses_bitwise(s.losses, sync) == []
    bad = list(s.losses)
    bad[1] = float(np.nextafter(bad[1], np.inf))
    failures = losses_bitwise(bad, sync)
    assert len(failures) == 1 and "epoch 1" in failures[0]


def _process_losses() -> list[float]:
    s = dist_magnn.build(SEED)
    try:
        for epoch in range(1, dist_magnn.FINAL_EPOCH + 1):
            s.losses.append(s.trainer.train_epoch(
                s.feats, s.ds.labels, s.optimizer, s.ds.train_mask, epoch).loss)
    finally:
        s.close()
    return s.losses


def test_dist_magnn_check_fires_when_one_rank_gradient_is_dropped():
    from repro.distributed.comm import ProcessComm

    with scaled(dist_magnn, NUM_MOVIES=300, NUM_DIRECTORS=60, NUM_ACTORS=200,
                FINAL_EPOCH=3):
        single = dist_magnn._replay(SEED, False, None, "")
        assert losses_close(_process_losses(), single) == []

        reduce_slabs = ProcessComm.reduce_slabs

        def drop_last_rank(self, slabs, out, rank=None):
            kept = list(slabs[:-1]) + [np.zeros_like(slabs[-1])]
            return reduce_slabs(self, kept, out, rank)

        # Workers fork from this process, so they inherit the patch.
        ProcessComm.reduce_slabs = drop_last_rank
        try:
            dropped = _process_losses()
        finally:
            ProcessComm.reduce_slabs = reduce_slabs
    assert losses_close(dropped, single)


def test_serve_mixed_check_fires_on_one_stale_cached_row():
    with scaled(serve_mixed, NUM_VERTICES=1000, WARM_VERTICES=128, PRETRAIN_EPOCHS=2):
        ds, _, model = serve_mixed._inputs(SEED)
        session = serve_mixed._session(ds, model, SEED)
        order, _ = serve_mixed._popularity(SEED, ds.graph.num_vertices)
    vertex = int(order[0])
    level = model.num_layers
    hit, rows = session.embed_cache.lookup(level, np.array([vertex]))
    assert hit[0], "the warm-up should have cached the most popular vertex"
    stale = rows[0]
    hub = int(np.argmax(ds.graph.out_degree()))
    session.apply_edge_changes(added=np.array([[hub, vertex]]))
    vertices = order[:64].astype(np.int64)
    assert serve_mixed.check_served(session, model, ds.features, vertices)[1] == []
    # A write that failed to evict: the pre-write row is served again.
    session.embed_cache.store(level, np.array([vertex]), [stale], session.version.value)
    failures = serve_mixed.check_served(session, model, ds.features, vertices)[1]
    assert len(failures) == 1 and f"vertex {vertex}" in failures[0]


def test_embedding_check_reports_shape_mismatch():
    assert embeddings_close(np.zeros((3, 2)), np.zeros((2, 2)), np.arange(3))


def test_layer_self_times_sum_to_traced_wall():
    tracer = Tracer()
    for op in range(3):
        with tracer.span(OP_SPAN, op=op):
            with tracer.span("core.forward"):
                with tracer.span("core.aggregate"):
                    sum(range(1000))
                with tracer.span("tensor.matmul"):
                    sum(range(500))
            with tracer.span("loader.compact"):
                sum(range(200))
    times = self_times(tracer.spans)
    total = sum(times["layers"].values()) + times["unattributed"]
    assert abs(total - times["wall"]) < 1e-9
    assert times["layers"]["core"] > 0 and times["layers"]["loader"] > 0


def test_benchmark_json_declares_the_metrics_the_runs_print():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "full-gat", "stream-gcn", "dist-magnn", "serve-mixed"]
