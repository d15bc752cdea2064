"""Unit tests for scatter / segment reductions — the sparse-op layer."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    materialized_bytes,
    peak_materialized_bytes,
    release_materialized_bytes,
    reset_materialized_bytes,
    scatter_add,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    segment_attention,
    segment_reduce_csr,
)


def make_segments(rng, n_dst=20, total=100, dim=5):
    dst = np.sort(rng.integers(0, n_dst, total))
    offsets = np.zeros(n_dst + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_dst), out=offsets[1:])
    sources = rng.integers(0, n_dst, total)
    feats = rng.standard_normal((n_dst, dim))
    return dst, offsets, sources, feats


class TestScatterAdd:
    def test_basic(self):
        out = scatter_add(Tensor(np.ones((4, 2))), np.array([0, 0, 1, 3]), dim_size=4)
        np.testing.assert_allclose(out.numpy()[:, 0], [2.0, 1.0, 0.0, 1.0])

    def test_dim_size_inferred(self):
        out = scatter_add(Tensor(np.ones((3, 1))), np.array([0, 2, 2]))
        assert out.shape == (3, 1)

    def test_gradient_is_gather(self):
        v = Tensor(np.ones((4, 2)), requires_grad=True)
        idx = np.array([0, 1, 1, 2])
        out = scatter_add(v, idx, 3)
        (out * Tensor(np.array([[1.0], [2.0], [3.0]]))).sum().backward()
        np.testing.assert_allclose(v.grad[:, 0], [1.0, 2.0, 2.0, 3.0])

    def test_index_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            scatter_add(Tensor(np.ones((3, 1))), np.array([0, 1]))

    def test_2d_index_raises(self):
        with pytest.raises(ValueError):
            scatter_add(Tensor(np.ones((2, 1))), np.zeros((2, 1), dtype=int))

    def test_records_materialized_bytes(self):
        reset_materialized_bytes()
        scatter_add(Tensor(np.ones((10, 4))), np.zeros(10, dtype=int), 1)
        assert materialized_bytes() == 10 * 4 * 8

    def test_tensor_index_accepted(self):
        # Regression: the Tensor unwrap in _check_index sat *after*
        # np.asarray, which built an object-dtype array and broke the
        # Tensor-index path entirely.
        idx = np.array([0, 0, 1, 3])
        ref = scatter_add(Tensor(np.ones((4, 2))), idx, dim_size=4)
        out = scatter_add(Tensor(np.ones((4, 2))), Tensor(idx), dim_size=4)
        np.testing.assert_allclose(out.numpy(), ref.numpy())

    def test_peak_tracks_concurrent_bytes_across_release(self):
        reset_materialized_bytes()
        scatter_add(Tensor(np.ones((10, 4))), np.zeros(10, dtype=int), 1)
        release_materialized_bytes(10 * 4 * 8)
        scatter_add(Tensor(np.ones((5, 4))), np.zeros(5, dtype=int), 1)
        assert materialized_bytes() == (10 + 5) * 4 * 8   # running total
        assert peak_materialized_bytes() == 10 * 4 * 8    # high-water mark


class TestScatterMeanMaxMin:
    def test_mean(self):
        v = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = scatter_mean(v, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.numpy().ravel(), [3.0, 10.0])

    def test_mean_empty_destination_is_zero(self):
        out = scatter_mean(Tensor(np.ones((2, 1))), np.array([0, 0]), 3)
        np.testing.assert_allclose(out.numpy().ravel(), [1.0, 0.0, 0.0])

    def test_mean_gradient(self):
        v = Tensor(np.ones((4, 1)), requires_grad=True)
        scatter_mean(v, np.array([0, 0, 0, 1]), 2).sum().backward()
        np.testing.assert_allclose(v.grad.ravel(), [1 / 3, 1 / 3, 1 / 3, 1.0])

    def test_max(self):
        v = Tensor(np.array([[1.0], [5.0], [-2.0]]))
        out = scatter_max(v, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.numpy().ravel(), [5.0, -2.0])

    def test_min(self):
        v = Tensor(np.array([[1.0], [5.0], [-2.0]]))
        out = scatter_min(v, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.numpy().ravel(), [1.0, -2.0])

    def test_max_empty_destination_is_zero(self):
        out = scatter_max(Tensor(np.array([[-3.0]])), np.array([0]), 2)
        np.testing.assert_allclose(out.numpy().ravel(), [-3.0, 0.0])

    def test_max_gradient_splits_ties(self):
        v = Tensor(np.array([[2.0], [2.0]]), requires_grad=True)
        scatter_max(v, np.array([0, 0]), 1).sum().backward()
        np.testing.assert_allclose(v.grad.ravel(), [0.5, 0.5])


class TestScatterSoftmax:
    def test_groups_sum_to_one(self):
        rng = np.random.default_rng(0)
        v = Tensor(rng.standard_normal((10, 1)))
        idx = rng.integers(0, 3, 10)
        out = scatter_softmax(v, idx, 3)
        sums = scatter_add(out, idx, 3)
        np.testing.assert_allclose(sums.numpy().ravel(), np.ones(3), rtol=1e-10)

    def test_stable_under_large_values(self):
        v = Tensor(np.array([[1000.0], [1000.0]]))
        out = scatter_softmax(v, np.array([0, 0]), 1)
        np.testing.assert_allclose(out.numpy().ravel(), [0.5, 0.5])

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((6, 1))
        idx = np.array([0, 0, 1, 1, 1, 0])
        weights = rng.standard_normal((6, 1))

        def f(arr):
            return float(
                (scatter_softmax(Tensor(arr), idx, 2) * Tensor(weights)).numpy().sum()
            )

        v = Tensor(data.copy(), requires_grad=True)
        (scatter_softmax(v, idx, 2) * Tensor(weights)).sum().backward()
        eps = 1e-6
        num = np.zeros_like(data)
        for i in range(data.size):
            d = data.copy()
            d.flat[i] += eps
            hi = f(d)
            d.flat[i] -= 2 * eps
            lo = f(d)
            num.flat[i] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(v.grad, num, rtol=1e-4, atol=1e-7)


class TestSegmentReduce:
    @pytest.mark.parametrize("reducer", ["sum", "mean", "max", "min"])
    def test_matches_scatter(self, reducer):
        rng = np.random.default_rng(2)
        dst, offsets, sources, feats = make_segments(rng)
        seg = segment_reduce_csr(Tensor(feats), offsets, sources, reducer)
        gathered = Tensor(feats)[sources]
        ref = {
            "sum": scatter_add,
            "mean": scatter_mean,
            "max": scatter_max,
            "min": scatter_min,
        }[reducer](gathered, dst, offsets.size - 1)
        np.testing.assert_allclose(seg.numpy(), ref.numpy(), rtol=1e-10)

    @pytest.mark.parametrize("reducer", ["sum", "mean", "max", "min"])
    def test_gradient_matches_scatter_path(self, reducer):
        rng = np.random.default_rng(3)
        dst, offsets, sources, feats = make_segments(rng, n_dst=8, total=30, dim=3)
        g_out = rng.standard_normal((offsets.size - 1, 3))

        a = Tensor(feats.copy(), requires_grad=True)
        (segment_reduce_csr(a, offsets, sources, reducer) * Tensor(g_out)).sum().backward()

        b = Tensor(feats.copy(), requires_grad=True)
        ref_fn = {
            "sum": scatter_add,
            "mean": scatter_mean,
            "max": scatter_max,
            "min": scatter_min,
        }[reducer]
        (ref_fn(b[sources], dst, offsets.size - 1) * Tensor(g_out)).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, rtol=1e-9, atol=1e-12)

    def test_identity_sources(self):
        feats = np.arange(6.0).reshape(6, 1)
        out = segment_reduce_csr(Tensor(feats), np.array([0, 2, 6]), None, "sum")
        np.testing.assert_allclose(out.numpy().ravel(), [1.0, 14.0])

    def test_identity_sources_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            segment_reduce_csr(Tensor(np.ones((3, 1))), np.array([0, 2]), None)

    def test_empty_segments_are_zero(self):
        out = segment_reduce_csr(
            Tensor(np.ones((2, 1))), np.array([0, 0, 2, 2]), None, "sum"
        )
        np.testing.assert_allclose(out.numpy().ravel(), [0.0, 2.0, 0.0])

    def test_all_empty(self):
        out = segment_reduce_csr(
            Tensor(np.ones((4, 2))), np.array([0, 0, 0]), np.empty(0, dtype=int), "sum"
        )
        np.testing.assert_allclose(out.numpy(), np.zeros((2, 2)))

    def test_all_empty_gradient_is_zero(self):
        v = Tensor(np.ones((4, 2)), requires_grad=True)
        segment_reduce_csr(v, np.array([0, 0]), np.empty(0, dtype=int)).sum().backward()
        np.testing.assert_allclose(v.grad, np.zeros((4, 2)))

    def test_decreasing_offsets_raise(self):
        with pytest.raises(ValueError):
            segment_reduce_csr(Tensor(np.ones((3, 1))), np.array([0, 2, 1]), None)

    def test_nonzero_first_offset_raises(self):
        # Regression: offsets[0] != 0 used to slip past validation and
        # silently build an invalid scipy CSR indptr.
        with pytest.raises(ValueError, match="start at 0"):
            segment_reduce_csr(
                Tensor(np.ones((4, 1))), np.array([1, 2, 4]),
                np.array([0, 1, 2, 3]),
            )

    def test_unknown_reducer_raises(self):
        with pytest.raises(ValueError):
            segment_reduce_csr(Tensor(np.ones((2, 1))), np.array([0, 2]), None, "prod")

    def test_does_not_record_materialized_bytes(self):
        reset_materialized_bytes()
        rng = np.random.default_rng(4)
        _dst, offsets, sources, feats = make_segments(rng)
        segment_reduce_csr(Tensor(feats), offsets, sources, "sum")
        assert materialized_bytes() == 0


class TestSegmentAttention:
    """The fused attention kernel against the materializing SA path."""

    def _attention(self, dim, seed=0):
        from repro.core.aggregation import AttentionAggregator

        return AttentionAggregator(dim, rng=np.random.default_rng(seed))

    def test_forward_bitwise_equal_to_sparse(self):
        rng = np.random.default_rng(0)
        dst, offsets, sources, feats = make_segments(rng)
        attn = self._attention(feats.shape[1])
        fused = attn.fused(Tensor(feats), offsets, sources).numpy()
        sparse = attn.sparse(Tensor(feats)[sources], dst, offsets.size - 1).numpy()
        np.testing.assert_array_equal(fused, sparse)

    def test_gradients_match_sparse(self):
        rng = np.random.default_rng(1)
        dst, offsets, sources, feats = make_segments(rng)
        attn = self._attention(feats.shape[1], seed=1)
        weight = Tensor(rng.standard_normal((offsets.size - 1, feats.shape[1])))
        grads = []
        for fused in (True, False):
            v = Tensor(feats.copy(), requires_grad=True)
            attn.zero_grad()
            if fused:
                out = attn.fused(v, offsets, sources)
            else:
                out = attn.sparse(v[sources], dst, offsets.size - 1)
            (out * weight).sum().backward()
            grads.append((v.grad.copy(), attn.score_vector.grad.copy()))
        np.testing.assert_allclose(grads[0][0], grads[1][0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[0][1], grads[1][1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("identity", [False, True])
    def test_gradients_match_finite_differences(self, identity):
        rng = np.random.default_rng(2)
        _dst, offsets, sources, feats = make_segments(rng, n_dst=6, total=18, dim=3)
        if identity:
            feats = rng.standard_normal((18, 3))
            sources = None
        scores = rng.standard_normal((feats.shape[0], 1))
        weight = rng.standard_normal((6, 3))

        def f(v, s):
            out = segment_attention(Tensor(v), Tensor(s), offsets, sources)
            return float((out.numpy() * weight).sum())

        v = Tensor(feats.copy(), requires_grad=True)
        s = Tensor(scores.copy(), requires_grad=True)
        (segment_attention(v, s, offsets, sources) * Tensor(weight)).sum().backward()
        eps = 1e-6
        for arr, grad, other in ((feats, v.grad, "s"), (scores, s.grad, "v")):
            num = np.zeros_like(arr)
            for i in range(arr.size):
                probe = arr.copy()
                probe.flat[i] += eps
                hi = f(probe, scores) if other == "s" else f(feats, probe)
                probe.flat[i] -= 2 * eps
                lo = f(probe, scores) if other == "s" else f(feats, probe)
                num.flat[i] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-8)

    def test_zero_in_degree_segments_are_zero(self):
        offsets = np.array([0, 2, 2, 3, 3])
        sources = np.array([1, 0, 1])
        v = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        s = Tensor(np.array([[0.0], [np.log(3.0)]]), requires_grad=True)
        out = segment_attention(v, s, offsets, sources)
        # segment 0: softmax(log 3, 0) = (3/4, 1/4) over rows (1, 0)
        np.testing.assert_allclose(out.numpy(), [[2.5, 3.5], [0, 0], [3, 4], [0, 0]])
        out.sum().backward()
        assert np.isfinite(v.grad).all() and np.isfinite(s.grad).all()

    def test_identity_layout(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((7, 4))
        offsets = np.array([0, 3, 3, 7])
        attn = self._attention(4, seed=3)
        index = np.repeat(np.arange(3), np.diff(offsets))
        np.testing.assert_array_equal(
            attn.fused(Tensor(feats), offsets, None).numpy(),
            attn.sparse(Tensor(feats), index, 3).numpy(),
        )

    def test_no_edges(self):
        v = Tensor(np.ones((4, 2)), requires_grad=True)
        s = Tensor(np.ones((4, 1)), requires_grad=True)
        out = segment_attention(v, s, np.array([0, 0, 0]), np.empty(0, dtype=int))
        np.testing.assert_array_equal(out.numpy(), np.zeros((2, 2)))
        out.sum().backward()
        np.testing.assert_array_equal(v.grad, np.zeros((4, 2)))
        np.testing.assert_array_equal(s.grad, np.zeros((4, 1)))

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(4)
        _dst, offsets, sources, feats = make_segments(rng)
        v = Tensor(feats.astype(np.float32), requires_grad=True)
        s = Tensor(rng.standard_normal((feats.shape[0], 1)).astype(np.float32),
                   requires_grad=True)
        out = segment_attention(v, s, offsets, sources)
        assert out.dtype == np.float32
        out.sum().backward()
        assert v.grad.dtype == np.float32 and s.grad.dtype == np.float32
        ref = segment_attention(Tensor(feats), Tensor(s.numpy().astype(np.float64)),
                                offsets, sources).numpy()
        np.testing.assert_allclose(out.numpy(), ref, rtol=1e-5, atol=1e-5)

    def test_scores_shape_checked(self):
        with pytest.raises(ValueError, match="scores"):
            segment_attention(Tensor(np.ones((3, 2))), Tensor(np.ones((3,))),
                              np.array([0, 3]), None)

    def test_records_only_the_alpha_vector(self):
        rng = np.random.default_rng(5)
        _dst, offsets, sources, feats = make_segments(rng)
        reset_materialized_bytes()
        segment_attention(Tensor(feats), Tensor(np.zeros((feats.shape[0], 1))),
                          offsets, sources)
        assert materialized_bytes() == sources.size * 8
