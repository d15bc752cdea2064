"""Aggregation UDFs — the per-level accumulation functions of NAU.

The Aggregation stage applies one UDF per HDG level, bottom-up
(Figure 6).  Each :class:`Aggregator` exposes the same reduction through
three execution backends so the hybrid strategy (Section 4.2) can pick
per level:

* ``sparse``  — scatter ops over an explicit COO index (the SA path);
* ``fused``   — segment reduction over CSC offsets, no per-edge tensor
  materialization (the FA / libgrape-lite vertex-reduce path);
* ``dense``   — reshape-based reduction for regular (schema-tree) levels.

Built-ins cover the paper's models: sum/mean/max/min (FlexGraph's
registered built-ins, Section 6), ``WeightedSumAggregator`` for PinSage's
importance weights, and ``AttentionAggregator`` for GAT's and MAGNN's
softmax (scatter_softmax) step.

Attention fuses like the plain reductions: one SpMM whose CSR data is
the attention ``alpha``, with backward ``d values = A^T g`` and
``d s_j = values_j . (A^T g)_j - (A^T r)_j`` (``A`` that matrix,
``r_i = g_i . out_i``).  The per-edge SDDMM term
``alpha_e (g_i . values_j - r_i)`` sums over the edges leaving row ``j``
into that form only because every score depends on its source row
alone; a score over ``(source, destination)`` pairs would need the
per-edge SDDMM.
"""

from __future__ import annotations

import numpy as np

from ..tensor.nn import Module, Parameter
from ..tensor.scatter import (
    scatter_add,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    segment_attention,
    segment_reduce_csr,
)
from ..tensor.tensor import Tensor

__all__ = [
    "Aggregator",
    "SumAggregator",
    "MeanAggregator",
    "MaxAggregator",
    "MinAggregator",
    "WeightedSumAggregator",
    "AttentionAggregator",
    "LSTMAggregator",
    "get_aggregator",
]


class Aggregator(Module):
    """Base class: a reduction with sparse, fused and dense backends.

    ``values`` is always a ``(rows, dim)`` tensor of source features;
    ``weights`` (optional, per source row) carries edge importances.
    """

    name = "base"
    supports_fused = True
    supports_dense = True

    def sparse(self, values: Tensor, index: np.ndarray | None, dim_size: int,
               weights: np.ndarray | None = None, *,
               plan=None, plan_key=None) -> Tensor:
        """Scatter-op reduction (per-edge messages materialized).

        ``plan``/``plan_key`` forward a precomputed
        :class:`~repro.tensor.plans.ReductionPlan` (or its cache key) to
        the underlying kernels; ``index`` may be ``None`` when ``plan``
        is given.
        """
        raise NotImplementedError

    def fused(self, values: Tensor, offsets: np.ndarray,
              sources: np.ndarray | None = None,
              weights: np.ndarray | None = None, *,
              plan=None, plan_key=None) -> Tensor:
        """Segment (CSC) reduction without per-edge materialization."""
        raise NotImplementedError

    def dense(self, values: Tensor) -> Tensor:
        """Reduce a regular ``(groups, group_size, dim)`` tensor over axis 1."""
        raise NotImplementedError

    def forward(self, *args, **kwargs):  # pragma: no cover - aggregators are not called directly
        raise TypeError("aggregators are invoked via sparse/fused/dense, not forward()")


def _apply_weights(values: Tensor, weights: np.ndarray | None) -> Tensor:
    if weights is None:
        return values
    return values * Tensor(np.asarray(weights, dtype=np.float64).reshape(-1, 1))


class SumAggregator(Aggregator):
    """Plain sum — GCN/PinSage's neighborhood accumulation (Figure 7)."""

    name = "sum"

    def sparse(self, values, index, dim_size, weights=None, *,
               plan=None, plan_key=None):
        return scatter_add(_apply_weights(values, weights), index, dim_size,
                           plan=plan, plan_key=plan_key)

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        if weights is not None:
            # Weights are per-edge: scale gathered rows inside the segment
            # reduce by pre-scaling (cheap: one elementwise multiply).
            # The gathered layout has its own (identity) plan under the
            # same key base, so an explicit ``plan`` does not apply here.
            if sources is not None:
                gathered = values[sources] * Tensor(np.asarray(weights).reshape(-1, 1))
                return segment_reduce_csr(gathered, offsets, None, "sum",
                                          plan_key=plan_key)
            return segment_reduce_csr(_apply_weights(values, weights),
                                      offsets, None, "sum", plan_key=plan_key)
        return segment_reduce_csr(values, offsets, sources, "sum",
                                  plan=plan, plan_key=plan_key)

    def dense(self, values):
        return values.sum(axis=1)


class MeanAggregator(Aggregator):
    """Arithmetic mean over each group."""

    name = "mean"

    def sparse(self, values, index, dim_size, weights=None, *,
               plan=None, plan_key=None):
        return scatter_mean(_apply_weights(values, weights), index, dim_size,
                            plan=plan, plan_key=plan_key)

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        if weights is not None:
            if sources is not None:
                gathered = values[sources] * Tensor(np.asarray(weights).reshape(-1, 1))
                return segment_reduce_csr(gathered, offsets, None, "mean",
                                          plan_key=plan_key)
            return segment_reduce_csr(_apply_weights(values, weights),
                                      offsets, None, "mean", plan_key=plan_key)
        return segment_reduce_csr(values, offsets, sources, "mean",
                                  plan=plan, plan_key=plan_key)

    def dense(self, values):
        return values.mean(axis=1)


class MaxAggregator(Aggregator):
    """Elementwise max over each group."""

    name = "max"

    def sparse(self, values, index, dim_size, weights=None, *,
               plan=None, plan_key=None):
        return scatter_max(values, index, dim_size, plan=plan,
                           plan_key=plan_key)

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        return segment_reduce_csr(values, offsets, sources, "max",
                                  plan=plan, plan_key=plan_key)

    def dense(self, values):
        return values.max(axis=1)


class MinAggregator(Aggregator):
    """Elementwise min over each group."""

    name = "min"

    def sparse(self, values, index, dim_size, weights=None, *,
               plan=None, plan_key=None):
        return scatter_min(values, index, dim_size, plan=plan,
                           plan_key=plan_key)

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        return segment_reduce_csr(values, offsets, sources, "min",
                                  plan=plan, plan_key=plan_key)

    def dense(self, values):
        return -((-values).max(axis=1))


class WeightedSumAggregator(Aggregator):
    """Sum with mandatory per-edge weights (PinSage's visit frequencies)."""

    name = "weighted_sum"
    supports_dense = False

    def sparse(self, values, index, dim_size, weights=None, *,
               plan=None, plan_key=None):
        if weights is None:
            raise ValueError("weighted_sum requires per-edge weights")
        return scatter_add(_apply_weights(values, weights), index, dim_size,
                           plan=plan, plan_key=plan_key)

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        if weights is None:
            raise ValueError("weighted_sum requires per-edge weights")
        if sources is not None:
            gathered = values[sources] * Tensor(np.asarray(weights).reshape(-1, 1))
            return segment_reduce_csr(gathered, offsets, None, "sum",
                                      plan_key=plan_key)
        return segment_reduce_csr(_apply_weights(values, weights),
                                  offsets, None, "sum", plan_key=plan_key)

    def dense(self, values):  # pragma: no cover - guarded by supports_dense
        raise TypeError("weighted_sum has no dense form")


class AttentionAggregator(Aggregator):
    """Softmax attention over group members (MAGNN's scatter_softmax step).

    Each source row gets a scalar score ``x . a`` from a learnable vector;
    scores are softmax-normalized within their group and used as weights.

    ``sparse`` is the materializing SA path (the Figure 14 baseline): it
    builds the ``(E, dim)`` message tensor and its weighted copy.
    ``fused`` scores the ``(rows, dim)`` values once and calls
    :func:`~repro.tensor.scatter.segment_attention`, whose backward is
    ``d values = A^T g`` and ``d s_j = values_j . (A^T g)_j - (A^T r)_j``
    (``A`` the alpha-weighted CSR, ``r_i = g_i . out_i``).  The identity
    holds because a score depends on its source row only, never on the
    destination, so no ``(E, dim)`` tensor is built in either direction.
    """

    name = "attention"

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.score_vector = Parameter(rng.standard_normal(dim) / np.sqrt(dim))

    def _score(self, values: Tensor) -> Tensor:
        """``(rows, 1)`` scores ``values @ a``, one per source row."""
        return values @ self.score_vector.reshape(self.dim, 1)

    def _attend(self, values: Tensor, index, dim_size: int,
                plan=None, plan_key=None) -> Tensor:
        # Both kernels share one plan: same index, same destination space.
        alpha = scatter_softmax(self._score(values), index, dim_size,
                                plan=plan, plan_key=plan_key)
        return scatter_add(values * alpha, index, dim_size, plan=plan,
                           plan_key=plan_key)

    def sparse(self, values, index, dim_size, weights=None, *,
               plan=None, plan_key=None):
        return self._attend(values, index, dim_size, plan=plan,
                            plan_key=plan_key)

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        return segment_attention(values, self._score(values), offsets,
                                 sources, plan=plan, plan_key=plan_key)

    def dense(self, values):
        from ..tensor.ops import softmax

        n, g, d = values.shape
        scores = values.reshape(n * g, d) @ self.score_vector.reshape(d, 1)
        alpha = softmax(scores.reshape(n, g, 1), axis=1)
        return (values * alpha).sum(axis=1)


class LSTMAggregator(Aggregator):
    """Order-sensitive LSTM reduction over each group's members.

    The non-commutative aggregator §5 singles out: partial aggregation is
    *invalid* for it, so distributed training falls back to batched
    message transfer (the distributed trainer checks ``name``).  Members
    are consumed in storage order; sequences are truncated at
    ``max_seq_len`` to bound the sequential depth.
    """

    name = "lstm"
    supports_fused = False
    supports_dense = False

    def __init__(self, dim: int, hidden_dim: int | None = None,
                 max_seq_len: int = 16,
                 rng: np.random.Generator | None = None):
        super().__init__()
        from ..tensor.nn import LSTMCell
        from ..tensor.ops import scatter_rows

        if max_seq_len <= 0:
            raise ValueError("max_seq_len must be positive")
        self.dim = dim
        self.hidden_dim = hidden_dim or dim
        self.max_seq_len = max_seq_len
        self.cell = LSTMCell(dim, self.hidden_dim, rng=rng or np.random.default_rng(0))
        self._scatter_rows = scatter_rows

    def sparse(self, values: Tensor, index: np.ndarray | None, dim_size: int,
               weights: np.ndarray | None = None, *,
               plan=None, plan_key=None) -> Tensor:
        from ..tensor.ops import zeros
        from ..tensor.plans import (
            ReductionPlan,
            get_plan_cache,
            index_plan_key,
        )

        # The plan already holds exactly what the sequential sweep needs:
        # the stable-sort permutation and per-group counts/starts.
        if plan is None:
            if index is None:
                raise ValueError("lstm aggregation needs an index when no plan is given")
            index = np.asarray(index, dtype=np.int64)
            if plan_key is not None:
                plan = get_plan_cache().get_or_build(
                    index_plan_key(plan_key, index.size, dim_size),
                    lambda: ReductionPlan.from_index(index, dim_size),
                )
            else:
                plan = ReductionPlan.from_index(index, dim_size)
        order = plan.gather
        counts = plan.counts
        starts = plan.offsets[:-1]
        h = zeros(dim_size, self.hidden_dim)
        c = zeros(dim_size, self.hidden_dim)
        max_len = min(int(counts.max()) if counts.size else 0, self.max_seq_len)
        for t in range(max_len):
            active = np.flatnonzero(counts > t)
            rows = order[starts[active] + t]
            x_t = values[rows]
            h_new, c_new = self.cell(x_t, h[active], c[active])
            keep = np.ones(dim_size)
            keep[active] = 0.0
            keep_col = Tensor(keep.reshape(-1, 1))
            h = h * keep_col + self._scatter_rows(h_new, active, dim_size)
            c = c * keep_col + self._scatter_rows(c_new, active, dim_size)
        return h

    def fused(self, values, offsets, sources=None, weights=None, *,
              plan=None, plan_key=None):
        counts = np.diff(offsets)
        index = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        rows = values if sources is None else values[np.asarray(sources, dtype=np.int64)]
        return self.sparse(rows, index, counts.size, plan_key=plan_key)

    def dense(self, values):  # pragma: no cover - guarded by supports_dense
        raise TypeError("lstm aggregation has no dense form")


_BUILTINS = {
    "sum": SumAggregator,
    "mean": MeanAggregator,
    "max": MaxAggregator,
    "min": MinAggregator,
    "weighted_sum": WeightedSumAggregator,
}


def get_aggregator(spec, dim: int | None = None) -> Aggregator:
    """Resolve an aggregator from a name or pass an instance through.

    ``"attention"`` requires ``dim`` (the feature dimension it scores).
    """
    if isinstance(spec, Aggregator):
        return spec
    if spec == "attention":
        if dim is None:
            raise ValueError("attention aggregator needs the feature dimension")
        return AttentionAggregator(dim)
    if spec == "lstm":
        if dim is None:
            raise ValueError("lstm aggregator needs the feature dimension")
        return LSTMAggregator(dim)
    try:
        return _BUILTINS[spec]()
    except KeyError:
        raise KeyError(
            f"unknown aggregator {spec!r}; built-ins: {sorted(_BUILTINS)} "
            "+ 'attention' + 'lstm'"
        ) from None
