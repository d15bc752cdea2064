"""Tests for fan-out sampling and the mini-batch trainer."""

import numpy as np
import pytest

from repro.core import (
    HDG,
    FlexGraphEngine,
    MiniBatchTrainer,
    SchemaTree,
    build_seed_blocks,
    hdg_from_graph,
    sample_fanout,
    validate_hdg,
)
from repro.datasets import load_dataset
from repro.graph import Graph, power_law_graph
from repro.loader import compact_blocks
from repro.storage import OnDiskDataset, write_ondisk_dataset
from repro.models import gcn, magnn, pinsage
from repro.tensor import Adam, Tensor, scatter_rows


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestScatterRows:
    def test_forward(self):
        rows = Tensor(np.arange(6.0).reshape(3, 2))
        out = scatter_rows(rows, np.array([4, 0, 2]), 5)
        np.testing.assert_allclose(out.numpy()[4], [0.0, 1.0])
        np.testing.assert_allclose(out.numpy()[1], [0.0, 0.0])

    def test_gradient(self):
        rows = Tensor(np.ones((2, 3)), requires_grad=True)
        out = scatter_rows(rows, np.array([1, 3]), 4)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(rows.grad, np.full((2, 3), 2.0))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((2, 1))), np.array([0, 0]), 3)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((2, 1))), np.array([0]), 3)


class TestSampleFanout:
    def test_caps_fan_in(self, ds):
        hdg = hdg_from_graph(ds.graph)
        sampled = sample_fanout(hdg, 5, np.random.default_rng(0))
        assert np.diff(sampled.leaf_offsets).max() <= 5
        validate_hdg(sampled)

    def test_sampled_leaves_are_subset(self, ds):
        hdg = hdg_from_graph(ds.graph)
        sampled = sample_fanout(hdg, 3, np.random.default_rng(1))
        for v in range(0, ds.graph.num_vertices, 37):
            lo, hi = sampled.leaf_offsets[v], sampled.leaf_offsets[v + 1]
            full = set(ds.graph.in_neighbors(v).tolist())
            assert set(sampled.leaf_vertices[lo:hi].tolist()) <= full

    def test_noop_when_under_fanout(self, ds):
        hdg = hdg_from_graph(ds.graph)
        max_deg = int(np.diff(hdg.leaf_offsets).max())
        assert sample_fanout(hdg, max_deg + 1, np.random.default_rng(0)) is hdg

    def test_weights_renormalized(self, ds):
        model = pinsage(ds.feat_dim, 8, ds.num_classes)
        hdg = model.neighbor_selection(ds.graph, np.random.default_rng(0))
        sampled = sample_fanout(hdg, 3, np.random.default_rng(0))
        counts = np.diff(sampled.leaf_offsets)
        owner = np.repeat(np.arange(sampled.num_roots), counts)
        sums = np.bincount(owner, weights=sampled.leaf_weights,
                           minlength=sampled.num_roots)
        np.testing.assert_allclose(sums[counts > 0], 1.0, rtol=1e-9)

    def test_rejects_hierarchical(self):
        from repro.core.selection import build_metapath_hdg
        from repro.graph import Metapath, heterogeneous_graph

        g = heterogeneous_graph(20, 5, 12, seed=0)
        hdg = build_metapath_hdg(g, [Metapath((0, 1, 0))])
        with pytest.raises(ValueError):
            sample_fanout(hdg, 5, np.random.default_rng(0))

    def test_rejects_bad_fanout(self, ds):
        with pytest.raises(ValueError):
            sample_fanout(hdg_from_graph(ds.graph), 0, np.random.default_rng(0))


class TestSampleFanoutDistribution:
    """``sample_fanout`` draws each root's ``fanout`` leaves uniformly
    without replacement, in segment order."""

    FANOUT = 10
    DEGREES = (40, 7, 10, 0, 25)
    DRAWS = 2000

    def _hdg(self):
        counts = np.array(self.DEGREES, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        # Leaf ids are a shuffled permutation, so "segment order" is not
        # the same thing as "id order".
        leaves = np.random.default_rng(99).permutation(offsets[-1]) + 1000
        hdg = HDG(np.arange(counts.size, dtype=np.int64), SchemaTree(),
                  leaves, offsets, instance_offsets=None)
        position = np.empty(leaves.max() + 1, dtype=np.int64)
        position[leaves] = np.arange(leaves.size)
        return hdg, offsets, position

    def test_uniform_without_replacement_in_segment_order(self):
        hdg, offsets, position = self._hdg()
        rng = np.random.default_rng(7)
        for _ in range(500):
            sampled = sample_fanout(hdg, self.FANOUT, rng)
            for r, deg in enumerate(self.DEGREES):
                lo, hi = sampled.leaf_offsets[r], sampled.leaf_offsets[r + 1]
                pos = position[sampled.leaf_vertices[lo:hi]]
                assert pos.size == min(deg, self.FANOUT)
                # inside the root's own segment, no position twice, and
                # in the segment's order
                assert np.all((pos >= offsets[r]) & (pos < offsets[r + 1]))
                assert np.all(np.diff(pos) > 0)
                if deg <= self.FANOUT:
                    np.testing.assert_array_equal(
                        pos, np.arange(offsets[r], offsets[r + 1]))

    def test_keep_probability_is_fanout_over_degree(self):
        stats = pytest.importorskip("scipy.stats")
        hdg, offsets, position = self._hdg()
        kept = np.zeros(offsets[-1], dtype=np.int64)
        rng = np.random.default_rng(11)
        for _ in range(self.DRAWS):
            kept[position[sample_fanout(hdg, self.FANOUT, rng).leaf_vertices]] += 1
        for r, deg in enumerate(self.DEGREES):
            if deg <= self.FANOUT:
                continue
            observed = kept[offsets[r]:offsets[r + 1]]
            p = self.FANOUT / deg
            expected = self.DRAWS * p
            # Without replacement the per-position counts are negatively
            # correlated: Pearson's statistic is chi2(deg - 1) scaled by
            # (1 - p) * deg / (deg - 1).
            x2 = ((observed - expected) ** 2 / expected).sum()
            x2 /= (1 - p) * deg / (deg - 1)
            assert stats.chi2.sf(x2, deg - 1) > 1e-3, (r, observed)
            assert observed.sum() == self.DRAWS * self.FANOUT


# ---------------------------------------------------------------------------
# Reference path: the straightforward lexsort / np.unique / union1d +
# searchsorted implementation the sampler and compactor must match
# exactly (same draws, same blocks, same local ids).
# ---------------------------------------------------------------------------
def _ref_sample_fanout(hdg, fanout, rng):
    counts = np.diff(hdg.leaf_offsets)
    if counts.size == 0 or counts.max() <= fanout:
        return hdg
    num_edges = hdg.leaf_vertices.size
    owner = np.repeat(np.arange(hdg.num_roots, dtype=np.int64), counts)
    keys = rng.random(num_edges)
    order = np.lexsort((keys, owner))
    group_start = np.zeros(num_edges, dtype=np.int64)
    change = np.flatnonzero(np.diff(owner[order], prepend=owner[order[0]] - 1))
    group_start[change] = change
    group_start = np.maximum.accumulate(group_start)
    keep = np.sort(order[np.arange(num_edges) - group_start < fanout])
    new_offsets = np.zeros(hdg.num_roots + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, fanout), out=new_offsets[1:])
    weights = None
    if hdg.leaf_weights is not None:
        raw = hdg.leaf_weights[keep]
        sums = np.bincount(owner[keep], weights=raw, minlength=hdg.num_roots)
        weights = raw / np.maximum(sums[owner[keep]], 1e-12)
    return HDG(hdg.roots, hdg.schema, hdg.leaf_vertices[keep], new_offsets,
               instance_offsets=None, leaf_weights=weights,
               num_input_vertices=hdg.num_input_vertices)


def _ref_build_seed_blocks(hdg, seeds, fanouts, rng):
    need = np.unique(np.asarray(seeds, dtype=np.int64))
    reversed_blocks = []
    for fanout in reversed(fanouts):
        block = hdg.restrict_to_roots(need)
        if fanout is not None:
            block = _ref_sample_fanout(block, fanout, rng)
        reversed_blocks.append((block, need))
        need = np.unique(np.concatenate([need, block.leaf_vertices]))
    return list(reversed(reversed_blocks))


def _ref_compact(blocks, seeds):
    first_block, first_out = blocks[0]
    universe = np.union1d(first_out, first_block.leaf_vertices)
    local = [(np.searchsorted(universe, out),
              np.searchsorted(universe, block.leaf_vertices))
             for block, out in blocks]
    return universe, local, np.searchsorted(universe, np.asarray(seeds))


def _assert_matches_reference(hdg, seeds, fanouts, seed):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_blocks = _ref_build_seed_blocks(hdg, seeds, fanouts, ref_rng)
    blocks = build_seed_blocks(hdg, seeds, fanouts, rng)
    assert len(blocks) == len(ref_blocks) == len(fanouts)
    for (block, out), (ref_block, ref_out) in zip(blocks, ref_blocks):
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(block.roots, ref_block.roots)
        np.testing.assert_array_equal(block.leaf_vertices, ref_block.leaf_vertices)
        np.testing.assert_array_equal(block.leaf_offsets, ref_block.leaf_offsets)
        if ref_block.leaf_weights is None:
            assert block.leaf_weights is None
        else:
            np.testing.assert_array_equal(block.leaf_weights, ref_block.leaf_weights)
    # both consumed the same draws
    assert rng.random() == ref_rng.random()

    compact = compact_blocks(blocks, seeds)
    universe, ref_local, ref_seed_rows = _ref_compact(ref_blocks, seeds)
    np.testing.assert_array_equal(compact.input_vertices, universe)
    np.testing.assert_array_equal(compact.seed_rows, ref_seed_rows)
    for (local_block, out_local), (ref_out, ref_leaves), (block, _) in zip(
            compact.blocks, ref_local, blocks):
        np.testing.assert_array_equal(out_local, ref_out)
        np.testing.assert_array_equal(local_block.roots, ref_out)
        np.testing.assert_array_equal(local_block.leaf_vertices, ref_leaves)
        np.testing.assert_array_equal(local_block.leaf_offsets, block.leaf_offsets)
        assert local_block.num_input_vertices == universe.size
    return blocks


class TestReferenceEquivalence:
    """``build_seed_blocks`` + ``compact_blocks`` reproduce the
    reference path bit for bit."""

    @pytest.fixture(scope="class")
    def graph(self):
        g = power_law_graph(3000, 12, seed=5)
        src, dst = g.edges()
        # Two extra vertices with out-edges only: in-degree 0, but they
        # still show up as leaves of other roots.
        extra = np.array([[3000, 1], [3000, 2], [3001, 3]])
        return Graph.from_edges(3002, np.concatenate(
            [np.stack([src, dst], axis=1), extra]))

    def test_power_law_batches(self, graph):
        hdg = hdg_from_graph(graph)
        order = np.random.default_rng(0).permutation(graph.num_vertices)
        batches = np.array_split(order, 24)
        for i, seeds in enumerate(batches):
            _assert_matches_reference(hdg, seeds, [10, 10], seed=i)

    def test_weighted_leaves(self, graph):
        weights = np.random.default_rng(1).random(graph.num_edges)
        hdg = hdg_from_graph(graph, weights=weights)
        seeds = np.random.default_rng(2).choice(graph.num_vertices, 200, replace=False)
        blocks = _assert_matches_reference(hdg, seeds, [5, 3], seed=3)
        assert blocks[0][0].leaf_weights is not None

    def test_exact_fanouts(self, graph):
        hdg = hdg_from_graph(graph)
        seeds = np.arange(0, graph.num_vertices, 97)
        _assert_matches_reference(hdg, seeds, [None, None], seed=0)
        _assert_matches_reference(hdg, seeds, [None, 4], seed=0)
        _assert_matches_reference(hdg, seeds, [4, None, 4], seed=0)

    def test_duplicate_empty_and_in_degree_zero_seeds(self, graph):
        hdg = hdg_from_graph(graph)
        seeds = np.array([7, 3000, 7, 42, 3001, 42, 0, 7])
        _assert_matches_reference(hdg, seeds, [10, 10], seed=4)
        _assert_matches_reference(hdg, np.array([], dtype=np.int64), [10, 10], seed=4)

    def test_layer_that_keeps_no_leaves(self, graph):
        hdg = hdg_from_graph(graph)
        seeds = np.array([3001, 3000, 3001])
        blocks = _assert_matches_reference(hdg, seeds, [10, 10], seed=5)
        assert all(block.leaf_vertices.size == 0 for block, _ in blocks)

    def test_memmap_hdg_matches_in_ram(self, tmp_path, ds):
        root = str(tmp_path / "ondisk")
        write_ondisk_dataset(ds, root, rows_per_shard=64)
        mm = hdg_from_graph(OnDiskDataset(root).graph)
        ram = hdg_from_graph(ds.graph)
        order = np.random.default_rng(6).permutation(ds.graph.num_vertices)
        for i, seeds in enumerate(np.array_split(order[:400], 8)):
            from_disk = _assert_matches_reference(mm, seeds, [5, 5], seed=i)
            in_ram = build_seed_blocks(ram, seeds, [5, 5], np.random.default_rng(i))
            for (a, out_a), (b, out_b) in zip(from_disk, in_ram):
                np.testing.assert_array_equal(out_a, out_b)
                np.testing.assert_array_equal(a.leaf_vertices, b.leaf_vertices)
                np.testing.assert_array_equal(a.leaf_offsets, b.leaf_offsets)


class TestMiniBatchTrainer:
    def test_validation(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        with pytest.raises(ValueError):
            MiniBatchTrainer(model, ds.graph, batch_size=0)
        with pytest.raises(ValueError):
            MiniBatchTrainer(model, ds.graph, fanouts=[5])  # 2 layers

    def test_rejects_hierarchical_models(self, ds):
        model = magnn(ds.feat_dim, 8, ds.num_classes, max_instances_per_root=5)
        trainer = MiniBatchTrainer(model, ds.graph)
        with pytest.raises(ValueError):
            trainer.train_epoch(Tensor(ds.features), ds.labels,
                                Adam(model.parameters(), 0.01))

    def test_gcn_learns(self, ds):
        model = gcn(ds.feat_dim, 16, ds.num_classes, aggregator="mean")
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[5, 5])
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        losses = [
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e).loss
            for e in range(5)
        ]
        assert losses[-1] < losses[0]

    def test_pinsage_learns(self, ds):
        model = pinsage(ds.feat_dim, 16, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[5, 5])
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        losses = [
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e).loss
            for e in range(5)
        ]
        assert losses[-1] < losses[0]

    def test_batch_count(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=32)
        stats = trainer.train_epoch(Tensor(ds.features), ds.labels,
                                    Adam(model.parameters(), 0.01), ds.train_mask)
        expected = int(np.ceil(ds.train_mask.sum() / 32))
        assert stats.num_batches == expected

    def test_evaluate_uses_full_neighborhoods(self, ds):
        model = gcn(ds.feat_dim, 16, ds.num_classes, seed=3, aggregator="mean")
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[4, 4])
        acc_untrained = trainer.evaluate(Tensor(ds.features), ds.labels, ds.test_mask)
        assert 0.0 <= acc_untrained <= 1.0
        # Must equal the full-batch engine's evaluation for the same model.
        engine = FlexGraphEngine(model, ds.graph)
        ref = engine.evaluate(Tensor(ds.features), ds.labels, ds.test_mask)
        assert acc_untrained == pytest.approx(ref)

    def test_blocks_shrink_with_fanout(self, ds):
        """Sampling is the point: blocks must be far smaller than full
        2-hop neighborhoods on a dense graph."""
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=16, fanouts=[3, 3])
        hdg = trainer._ensure_hdg(0)
        seeds = np.arange(16)
        blocks = trainer._build_blocks(hdg, seeds)
        input_block, input_vertices = blocks[0]
        # Full 2-hop of 16 seeds on this graph is ~ the whole graph.
        assert input_vertices.size < ds.graph.num_vertices / 2
        assert np.diff(input_block.leaf_offsets).max() <= 3

    def test_converges_to_useful_accuracy(self, ds):
        model = gcn(ds.feat_dim, 32, ds.num_classes, aggregator="mean")
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[8, 8])
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        for e in range(10):
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e)
        acc = trainer.evaluate(feats, ds.labels, ds.test_mask)
        assert acc > 0.8
