"""Tests for aggregation UDFs and the hybrid execution strategies (§4.2).

The central invariant: SA, SA+FA and HA are *execution strategies* for
the same mathematical reduction, so all three must agree numerically on
every HDG and every aggregator combination.
"""

import numpy as np
import pytest

from repro.core import (
    AttentionAggregator,
    ExecutionStrategy,
    MaxAggregator,
    MeanAggregator,
    MinAggregator,
    NeighborRecord,
    SchemaTree,
    SumAggregator,
    WeightedSumAggregator,
    build_hdg,
    get_aggregator,
    hdg_from_graph,
    hierarchical_aggregate,
)
from repro.graph import community_graph, heterogeneous_graph, Metapath
from repro.core.selection import build_metapath_hdg
from repro.tensor import Tensor

STRATEGIES = [ExecutionStrategy.SA, ExecutionStrategy.SA_FA, ExecutionStrategy.HA]


@pytest.fixture(scope="module")
def flat_hdg():
    g = community_graph(80, 2, 8, seed=0)
    return hdg_from_graph(g), g


@pytest.fixture(scope="module")
def hier_hdg():
    g = heterogeneous_graph(40, 10, 25, seed=1)
    mps = [Metapath((0, 1, 0), "MDM"), Metapath((0, 2, 0), "MAM")]
    return build_metapath_hdg(g, mps), g


class TestAggregatorRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("sum", SumAggregator), ("mean", MeanAggregator),
        ("max", MaxAggregator), ("min", MinAggregator),
        ("weighted_sum", WeightedSumAggregator),
    ])
    def test_builtin_lookup(self, name, cls):
        assert isinstance(get_aggregator(name), cls)

    def test_attention_needs_dim(self):
        with pytest.raises(ValueError):
            get_aggregator("attention")
        assert isinstance(get_aggregator("attention", dim=4), AttentionAggregator)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_aggregator("median")

    def test_instance_passthrough(self):
        agg = SumAggregator()
        assert get_aggregator(agg) is agg

    def test_weighted_sum_requires_weights(self):
        agg = WeightedSumAggregator()
        with pytest.raises(ValueError):
            agg.sparse(Tensor(np.ones((2, 2))), np.array([0, 0]), 1)
        with pytest.raises(ValueError):
            agg.fused(Tensor(np.ones((2, 2))), np.array([0, 2]))

    def test_aggregators_not_callable_directly(self):
        with pytest.raises(TypeError):
            SumAggregator()(Tensor(np.ones((2, 2))))


class TestStrategyEquivalenceFlat:
    @pytest.mark.parametrize("agg_name", ["sum", "mean", "max", "min"])
    def test_all_strategies_agree(self, flat_hdg, agg_name):
        hdg, g = flat_hdg
        feats = Tensor(np.random.default_rng(0).standard_normal((g.num_vertices, 6)))
        results = [
            hierarchical_aggregate(hdg, feats, [get_aggregator(agg_name)], s).numpy()
            for s in STRATEGIES
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-9)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-9)

    def test_weighted_sum_strategies_agree(self, flat_hdg):
        hdg, g = flat_hdg
        rng = np.random.default_rng(1)
        hdg.leaf_weights = rng.random(hdg.leaf_vertices.size)
        try:
            feats = Tensor(rng.standard_normal((g.num_vertices, 4)))
            results = [
                hierarchical_aggregate(hdg, feats, [WeightedSumAggregator()], s).numpy()
                for s in STRATEGIES
            ]
            np.testing.assert_allclose(results[0], results[1], rtol=1e-9)
            np.testing.assert_allclose(results[0], results[2], rtol=1e-9)
        finally:
            hdg.leaf_weights = None

    def test_sum_matches_manual(self, flat_hdg):
        hdg, g = flat_hdg
        feats = np.random.default_rng(2).standard_normal((g.num_vertices, 3))
        out = hierarchical_aggregate(hdg, Tensor(feats), [SumAggregator()]).numpy()
        v = 7
        expected = feats[g.in_neighbors(v)].sum(axis=0)
        np.testing.assert_allclose(out[v], expected, rtol=1e-9)

    def test_wrong_aggregator_count_raises(self, flat_hdg):
        hdg, g = flat_hdg
        feats = Tensor(np.ones((g.num_vertices, 2)))
        with pytest.raises(ValueError):
            hierarchical_aggregate(hdg, feats, [SumAggregator(), SumAggregator()])

    def test_feature_matrix_too_small_raises(self, flat_hdg):
        hdg, _g = flat_hdg
        with pytest.raises(ValueError):
            hierarchical_aggregate(hdg, Tensor(np.ones((3, 2))), [SumAggregator()])


class TestStrategyEquivalenceHierarchical:
    @pytest.mark.parametrize("aggs", [
        ["mean", "mean", "mean"],
        ["sum", "sum", "sum"],
        ["mean", "sum", "max"],
        ["max", "mean", "min"],
    ])
    def test_all_strategies_agree(self, hier_hdg, aggs):
        hdg, g = hier_hdg
        feats = Tensor(np.random.default_rng(3).standard_normal((g.num_vertices, 5)))
        results = [
            hierarchical_aggregate(
                hdg, feats, [get_aggregator(a) for a in aggs], s
            ).numpy()
            for s in STRATEGIES
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-8, atol=1e-10)

    def test_attention_strategies_agree(self, hier_hdg):
        hdg, g = hier_hdg
        rng = np.random.default_rng(4)
        feats = Tensor(rng.standard_normal((g.num_vertices, 5)))
        attn = AttentionAggregator(5, rng=rng)
        results = [
            hierarchical_aggregate(
                hdg, feats, [MeanAggregator(), attn, MeanAggregator()], s
            ).numpy()
            for s in STRATEGIES
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-8, atol=1e-10)

    def test_manual_hierarchical_mean(self):
        """Hand-computed 2-instance example checks the level semantics."""
        schema = SchemaTree(("t0", "t1"))
        records = [
            NeighborRecord(0, (1, 2), 0),   # instance a, type 0
            NeighborRecord(0, (3,), 1),     # instance b, type 1
        ]
        hdg = build_hdg(records, schema, np.arange(4), 4)
        feats = np.array([[0.0], [2.0], [4.0], [10.0]])
        out = hierarchical_aggregate(
            hdg, Tensor(feats), [MeanAggregator()] * 3, ExecutionStrategy.HA
        ).numpy()
        # instance a = mean(2,4)=3 -> slot t0 = 3; instance b = 10 -> slot t1 = 10
        # root 0 = mean(3, 10) = 6.5; other roots = 0.
        np.testing.assert_allclose(out[0], [6.5])
        np.testing.assert_allclose(out[1:], np.zeros((3, 1)))

    def test_gradients_flow_through_all_strategies(self, hier_hdg):
        hdg, g = hier_hdg
        rng = np.random.default_rng(5)
        data = rng.standard_normal((g.num_vertices, 4))
        grads = []
        for s in STRATEGIES:
            feats = Tensor(data.copy(), requires_grad=True)
            out = hierarchical_aggregate(
                hdg, feats, [MeanAggregator(), MeanAggregator(), SumAggregator()], s
            )
            out.sum().backward()
            grads.append(feats.grad.copy())
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(grads[0], grads[2], rtol=1e-8, atol=1e-10)

    def test_needs_three_aggregators(self, hier_hdg):
        hdg, g = hier_hdg
        with pytest.raises(ValueError):
            hierarchical_aggregate(hdg, Tensor(np.ones((g.num_vertices, 2))), [SumAggregator()])

    def test_strategy_parse(self):
        assert ExecutionStrategy.parse("ha") is ExecutionStrategy.HA
        assert ExecutionStrategy.parse("sa+fa") is ExecutionStrategy.SA_FA
        assert ExecutionStrategy.parse(ExecutionStrategy.SA) is ExecutionStrategy.SA
        with pytest.raises(ValueError):
            ExecutionStrategy.parse("turbo")


class TestDenseBackend:
    def test_dense_sum_matches_sparse(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 3, 5)))
        dense = SumAggregator().dense(x).numpy()
        np.testing.assert_allclose(dense, x.numpy().sum(axis=1), rtol=1e-12)

    def test_dense_min_via_negated_max(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 3, 5)))
        np.testing.assert_allclose(
            MinAggregator().dense(x).numpy(), x.numpy().min(axis=1), rtol=1e-12
        )

    def test_attention_dense_rows_are_convex_combinations(self):
        rng = np.random.default_rng(8)
        attn = AttentionAggregator(2, rng=rng)
        x = np.zeros((1, 3, 2))
        x[0, :, 0] = [1.0, 2.0, 3.0]
        out = attn.dense(Tensor(x)).numpy()
        assert 1.0 <= out[0, 0] <= 3.0


class TestFusedAttention:
    """Attention takes the fused kernel wherever the strategy fuses."""

    @pytest.mark.parametrize("strategy,backend", [
        (ExecutionStrategy.SA, "sparse"),
        (ExecutionStrategy.SA_FA, "fused"),
        (ExecutionStrategy.HA, "fused"),
    ])
    def test_backend_event(self, flat_hdg, strategy, backend):
        from repro import obs
        from repro.core.hybrid import BACKEND_EVENT

        hdg, g = flat_hdg
        obs.reset()
        feats = Tensor(np.random.default_rng(0).standard_normal((g.num_vertices, 3)))
        hierarchical_aggregate(hdg, feats, [AttentionAggregator(3)], strategy)
        backends = {
            e.attrs["backend"] for e in obs.get_registry().events
            if e.name == BACKEND_EVENT and e.attrs["aggregator"] == "attention"
        }
        assert backends == {backend}

    def test_gat_epoch_peak_below_one_message_tensor(self):
        from repro.core import FlexGraphEngine
        from repro.datasets import load_dataset
        from repro.models import gat
        from repro.tensor import Adam, peak_materialized_bytes, reset_materialized_bytes

        ds = load_dataset("reddit", scale="tiny", seed=0)
        hidden = 8
        model = gat(ds.feat_dim, hidden, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=0)
        feats = Tensor(ds.features)
        optimizer = Adam(model.parameters(), lr=0.01)
        engine.train_epoch(feats, ds.labels, optimizer, ds.train_mask, 0)
        reset_materialized_bytes()
        engine.train_epoch(feats, ds.labels, optimizer, ds.train_mask, 1)
        num_edges = hdg_from_graph(ds.graph).leaf_vertices.size
        assert 0 < peak_materialized_bytes() < num_edges * hidden * 8
