"""Scatter and segment reductions — the sparse-NN op layer.

FlexGraph's hybrid execution (Section 4.2) distinguishes three ways to
aggregate neighbor features:

* **SA (sparse tensor ops)** — :func:`scatter_add` and friends, in the
  style of pytorch-scatter.  The caller gathers source features into a
  per-edge ``value`` tensor first, *materializing* one message per edge
  (Figure 8); this is the memory-explosion path the paper calls out.
* **FA (feature fusion)** — :func:`segment_reduce_csr`, which reduces
  directly over a CSC/CSR segment structure without per-edge
  materialization, modeling libgrape-lite's vertex-reduce, and
  :func:`segment_attention`, its softmax-weighted counterpart (one
  weighted SpMM; only the E attention scalars are per edge).
* **Dense ops** — plain reshape + reduce, used at the schema-tree level.

All reductions run on a :class:`~repro.tensor.plans.ReductionPlan`: the
stable-sort permutation, segment offsets, SpMM matrix and its transpose
are precomputed once per topology and reused every call (pass ``plan=``
directly, or ``plan_key=`` to fetch from the global
:class:`~repro.tensor.plans.PlanCache`).  Without either, an ephemeral
plan is built per call — still vectorized (sum/mean are one SpMM,
max/min/softmax are sorted ``reduceat`` sweeps; no ``np.add.at`` /
``np.maximum.at`` on any path), just not amortized.

All reductions here are autograd-aware.  The ``scatter.materialized_bytes``
observability counter tracks both the running *total* and the *peak*
concurrently-live bytes of per-edge intermediates so memory-footprint
experiments can observe the SA-vs-FA difference quantitatively (see
:mod:`repro.obs`; training loops release the counter after backward so
``peak`` reflects the per-epoch high-water mark).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

from ..obs import counter as _obs_counter
from ..obs.profile import record_op
from .plans import (
    ReductionPlan,
    accumulation_dtype,
    get_plan_cache,
    index_plan_key,
    segment_plan_key,
)
from .tensor import Tensor, _as_tensor

__all__ = [
    "scatter_add",
    "scatter_mean",
    "scatter_max",
    "scatter_min",
    "scatter_softmax",
    "segment_reduce_csr",
    "segment_attention",
    "materialized_bytes",
    "peak_materialized_bytes",
    "reset_materialized_bytes",
    "release_materialized_bytes",
    "MATERIALIZED_BYTES_COUNTER",
]

#: Name of the obs counter fed by per-edge scatter intermediates.
MATERIALIZED_BYTES_COUNTER = "scatter.materialized_bytes"


def materialized_bytes() -> int:
    """Total bytes of per-edge message tensors materialized so far."""
    return int(_obs_counter(MATERIALIZED_BYTES_COUNTER).total)


def peak_materialized_bytes() -> int:
    """High-water mark of concurrently live per-edge bytes (Table 5's
    peak-memory accounting).  Equals :func:`materialized_bytes` unless a
    training loop releases intermediates after backward."""
    return int(_obs_counter(MATERIALIZED_BYTES_COUNTER).peak)


def reset_materialized_bytes() -> None:
    _obs_counter(MATERIALIZED_BYTES_COUNTER).reset()


def release_materialized_bytes(nbytes: int) -> None:
    """Mark ``nbytes`` of per-edge intermediates as freed (lowers the
    live value the peak tracks; the running total is unaffected)."""
    _obs_counter(MATERIALIZED_BYTES_COUNTER).release(nbytes)


def _record_materialization(nbytes: int) -> None:
    _obs_counter(MATERIALIZED_BYTES_COUNTER).add(int(nbytes))


def _check_index(index, length: int) -> np.ndarray:
    # Unwrap Tensor *before* np.asarray: asarray would build a 0-d object
    # array from a Tensor, so unwrapping afterwards never fired.
    if isinstance(index, Tensor):
        index = index.data
    index = np.asarray(index)
    index = index.astype(np.int64, copy=False)
    if index.ndim != 1:
        raise ValueError(f"scatter index must be 1-D, got shape {index.shape}")
    if index.shape[0] != length:
        raise ValueError(
            f"index length {index.shape[0]} does not match value rows {length}"
        )
    return index


def _dim_size(index: np.ndarray, dim_size: int | None) -> int:
    if dim_size is not None:
        return int(dim_size)
    return int(index.max()) + 1 if index.size else 0


def _resolve_index_plan(value: Tensor, index, dim_size: int | None,
                        plan: ReductionPlan | None, plan_key,
                        op: str) -> ReductionPlan:
    """Pick the plan for a scatter call: explicit ``plan``, cached via
    ``plan_key``, or an ephemeral one built from ``index``."""
    if plan is not None:
        if plan.kind != "index":
            raise ValueError(
                f"{op} requires an index-kind plan, got {plan.kind!r}"
            )
        if plan.num_rows != value.shape[0]:
            raise ValueError(
                f"plan covers {plan.num_rows} rows but value has "
                f"{value.shape[0]}"
            )
        if dim_size is not None and int(dim_size) != plan.n:
            raise ValueError(
                f"dim_size {int(dim_size)} does not match plan dim {plan.n}"
            )
        return plan
    if index is None:
        raise ValueError(f"{op} needs an index when no plan is given")
    index = _check_index(index, value.shape[0])
    n = _dim_size(index, dim_size)
    if plan_key is not None:
        return get_plan_cache().get_or_build(
            index_plan_key(plan_key, index.size, n),
            lambda: ReductionPlan.from_index(index, n),
        )
    return ReductionPlan.from_index(index, n)


def scatter_add(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None,
                plan_key=None) -> Tensor:
    """Sum rows of ``value`` into ``out[index[i]] += value[i]`` (Figure 8).

    The per-edge ``value`` tensor is counted as a materialized
    intermediate — this is the memory-hungry sparse path.  The reduction
    itself is one SpMM against the plan's CSR matrix.
    """
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, plan_key,
                               "scatter_add")
    n = plan.n
    dtype = value.data.dtype
    acc = accumulation_dtype(dtype)
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros((n,) + value.shape[1:], dtype=dtype)
    else:
        flat = value.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
        out_data = (plan.matrix(acc) @ flat).astype(dtype, copy=False).reshape(
            (n,) + value.shape[1:]
        )
    # one add per scattered element
    record_op("scatter_add", flops=float(value.data.size),
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        return (g[plan.index],)

    return Tensor._make(out_data, (value,), backward)


def scatter_mean(value: Tensor, index: np.ndarray | None = None,
                 dim_size: int | None = None, *,
                 plan: ReductionPlan | None = None,
                 plan_key=None) -> Tensor:
    """Average rows of ``value`` per destination index."""
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, plan_key,
                               "scatter_mean")
    n = plan.n
    dtype = value.data.dtype
    acc = accumulation_dtype(dtype)
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros((n,) + value.shape[1:], dtype=dtype)
    else:
        flat = value.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
        out_flat = plan.matrix(acc) @ flat
        # Divisor stays in the accumulator dtype: the value dtype for
        # float32/float64 models, float32 for fp16 inputs.
        out_flat /= plan.safe_counts(acc)[:, None]
        out_data = out_flat.astype(dtype, copy=False).reshape((n,) + value.shape[1:])
    # add + normalize: ~2 FLOPs per scattered element
    record_op("scatter_mean", flops=2.0 * value.data.size,
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        scale = plan.inv_counts(acc)[plan.index]
        grad = g[plan.index].astype(acc, copy=False) * scale.reshape(
            (-1,) + (1,) * (value.ndim - 1)
        )
        return (grad.astype(dtype, copy=False),)

    return Tensor._make(out_data, (value,), backward)


def _scatter_extremum(value: Tensor, index, dim_size: int | None, kind: str,
                      plan: ReductionPlan | None,
                      plan_key) -> Tensor:
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, plan_key,
                               "scatter_" + kind)
    n = plan.n
    dtype = value.data.dtype
    _record_materialization(value.data.nbytes)
    ufunc = np.maximum if kind == "max" else np.minimum
    # Destinations with no sources get 0 (the conventional empty reduction);
    # nonempty segments are one sorted reduceat sweep.
    out_data = np.zeros((n,) + value.shape[1:], dtype=dtype)
    if plan.total:
        out_data[plan.nonempty] = ufunc.reduceat(
            value.data[plan.gather], plan.starts, axis=0
        )
    # one comparison per scattered element
    record_op("scatter_" + kind, flops=float(value.data.size),
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        # Route gradient only to the rows that achieved the extremum,
        # splitting ties equally.
        idx = plan.index
        winner = (value.data == out_data[idx]).astype(dtype)
        ties = np.ones((n,) + value.shape[1:], dtype=dtype)
        if plan.total:
            ties[plan.nonempty] = np.maximum(
                np.add.reduceat(winner[plan.gather], plan.starts, axis=0),
                1.0,
            )
        return (winner * g[idx] / ties[idx],)

    return Tensor._make(out_data, (value,), backward)


def scatter_max(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None,
                plan_key=None) -> Tensor:
    """Per-destination elementwise max."""
    return _scatter_extremum(value, index, dim_size, "max", plan, plan_key)


def scatter_min(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None,
                plan_key=None) -> Tensor:
    """Per-destination elementwise min."""
    return _scatter_extremum(value, index, dim_size, "min", plan, plan_key)


def scatter_softmax(value: Tensor, index: np.ndarray | None = None,
                    dim_size: int | None = None, *,
                    plan: ReductionPlan | None = None,
                    plan_key=None) -> Tensor:
    """Softmax over groups that share a destination index.

    Used by MAGNN's intra-metapath attention step (Figure 7 uses
    ``scatter_softmax`` as the level-2 UDF).
    """
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, plan_key,
                               "scatter_softmax")
    dtype = value.data.dtype
    acc = accumulation_dtype(dtype)
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros_like(value.data)
        reps = None
    else:
        order = plan.gather
        reps = plan.counts[plan.nonempty]
        # exp/sum run in the accumulator dtype (fp32 for fp16 inputs);
        # only the normalized result is narrowed back.
        sv = value.data[order].astype(acc, copy=False)
        # Stabilize per group: subtract group max (sorted-domain sweep).
        shifted = sv - np.repeat(
            np.maximum.reduceat(sv, plan.starts, axis=0), reps, axis=0
        )
        e = np.exp(shifted)
        denom = np.add.reduceat(e, plan.starts, axis=0)
        out_sorted = e / np.repeat(denom, reps, axis=0)
        out_data = np.empty_like(value.data)
        out_data[order] = out_sorted
    # group max + shift + exp + sum + divide: ~5 FLOPs per element
    record_op("scatter_softmax", flops=5.0 * value.data.size,
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        if plan.total == 0:
            return (np.zeros_like(value.data),)
        gs = (g.astype(acc, copy=False) * out_data.astype(acc, copy=False))[plan.gather]
        dot = np.repeat(
            np.add.reduceat(gs, plan.starts, axis=0), reps, axis=0
        )
        dot_rows = np.empty(value.shape, dtype=acc)
        dot_rows[plan.gather] = dot
        grad = out_data.astype(acc, copy=False) * (g.astype(acc, copy=False) - dot_rows)
        return (grad.astype(dtype, copy=False),)

    return Tensor._make(out_data, (value,), backward)


_SEGMENT_REDUCERS = frozenset({"sum", "mean", "max", "min"})


def _resolve_segment_plan(value: Tensor, offsets, sources,
                          plan: ReductionPlan | None,
                          plan_key, op: str) -> ReductionPlan:
    if plan is not None:
        if plan.kind != "segments":
            raise ValueError(
                f"{op} requires a segments-kind plan, got {plan.kind!r}"
            )
        if plan.num_rows != value.shape[0]:
            raise ValueError(
                f"plan covers {plan.num_rows} rows but value has "
                f"{value.shape[0]}"
            )
        return plan
    if offsets is None:
        raise ValueError(f"{op} needs offsets when no plan is given")
    if plan_key is None:
        return ReductionPlan.from_segments(offsets, sources, value.shape[0])
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("offsets must be a non-empty 1-D array")
    key = segment_plan_key(plan_key, offsets.size - 1, int(offsets[-1]),
                           value.shape[0], sources is None)
    return get_plan_cache().get_or_build(
        key,
        lambda: ReductionPlan.from_segments(offsets, sources, value.shape[0]),
    )


def segment_reduce_csr(
    value: Tensor,
    offsets: np.ndarray | None = None,
    sources: np.ndarray | None = None,
    reducer: str = "sum",
    *,
    plan: ReductionPlan | None = None,
    plan_key=None,
) -> Tensor:
    """Feature-fusion reduction over CSC segments (no per-edge tensors).

    Segment ``i`` covers rows ``sources[offsets[i]:offsets[i+1]]`` of
    ``value`` (or the identity range when ``sources`` is ``None``, i.e. the
    elided-Dst layout of Section 4.1).  The reduction streams source rows
    into per-destination accumulators, which is the Python analogue of
    libgrape-lite's SIMD vertex reduce: it never builds the
    ``(num_edges, dim)`` message tensor that :func:`scatter_add` needs.

    Parameters
    ----------
    value:
        ``(num_sources, dim)`` feature tensor.
    offsets:
        ``(num_segments + 1,)`` monotone offset array.  May be omitted
        when ``plan`` is given.
    sources:
        Optional per-edge source-row indices.  ``None`` means segment ``i``
        reduces the contiguous slice ``value[offsets[i]:offsets[i+1]]``.
    reducer:
        One of ``sum``, ``mean``, ``max``, ``min``.
    plan / plan_key:
        Explicit :class:`~repro.tensor.plans.ReductionPlan`, or a cache
        key base (e.g. ``(hdg.fingerprint(), level)``) to fetch/build one
        in the global plan cache.
    """
    if reducer not in _SEGMENT_REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}; expected one of {sorted(_SEGMENT_REDUCERS)}")
    value = _as_tensor(value)
    plan = _resolve_segment_plan(value, offsets, sources, plan, plan_key,
                                 "segment_reduce_csr")
    n = plan.n
    total = plan.total
    dtype = value.data.dtype
    out_shape = (n,) + value.shape[1:]
    if total == 0:
        out_data = np.zeros(out_shape, dtype=dtype)

        def backward_empty(g):
            return (np.zeros_like(value.data),)

        return Tensor._make(out_data, (value,), backward_empty)

    acc = accumulation_dtype(dtype)
    if reducer in ("sum", "mean"):
        # Fused reduction as one sparse-matrix / dense-matrix product: the
        # (offsets, sources) pair *is* the CSR of the reduction matrix, so
        # no per-edge tensor enters the tape — this is the analogue of the
        # SIMD vertex reduce the paper implements in libgrape-lite.
        matrix = plan.matrix(acc)
        flat = value.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
        out_flat = matrix @ flat
        if reducer == "mean":
            out_flat = out_flat / plan.safe_counts(acc)[:, None]
        out_data = out_flat.astype(dtype, copy=False).reshape(out_shape)
        # SpMM convention: 2 FLOPs (multiply+add) per reduced element;
        # reads stream one source row per edge plus the CSR structure.
        dim = flat.shape[1]
        record_op(
            "segment_reduce." + reducer,
            flops=2.0 * total * dim + (out_flat.size if reducer == "mean" else 0),
            bytes_read=(total * dim * value.data.itemsize
                        + plan.offsets.nbytes + total * 8),
            bytes_written=out_data.nbytes,
        )
        # Transpose prebuilt at forward time (CSC of the forward matrix,
        # stored as CSR) so backward never converts per call.
        matrix_t = plan.matrix_t(acc)

        def backward(g):
            g_flat = g.reshape(n, -1).astype(acc, copy=False)
            if reducer == "mean":
                g_flat = g_flat / plan.safe_counts(acc)[:, None]
            return ((matrix_t @ g_flat).astype(dtype, copy=False).reshape(value.shape),)

        return Tensor._make(out_data, (value,), backward)

    # max / min: sorted segmented extremum over the plan's segment starts.
    rows = value.data if plan.gather is None else value.data[plan.gather]
    ufunc = np.maximum if reducer == "max" else np.minimum
    out_data = np.zeros(out_shape, dtype=dtype)
    out_data[plan.nonempty] = ufunc.reduceat(rows, plan.starts, axis=0)
    # one comparison per reduced element
    record_op(
        "segment_reduce." + reducer,
        flops=float(rows.size),
        bytes_read=rows.nbytes + plan.offsets.nbytes
        + (0 if plan.gather is None else plan.gather.nbytes),
        bytes_written=out_data.nbytes,
    )

    def backward(g):
        dst = plan.index
        winner = (rows == out_data[dst]).astype(dtype)
        ties = np.ones(out_shape, dtype=dtype)
        ties[plan.nonempty] = np.maximum(
            np.add.reduceat(winner, plan.starts, axis=0), 1.0
        )
        edge_grad = winner * g[dst] / ties[dst]
        if plan.gather is None:
            return (edge_grad,)
        source_plan = plan.source_plan()
        full = (source_plan.matrix(dtype) @ edge_grad.reshape(total, -1))
        return (full.reshape(value.shape),)

    return Tensor._make(out_data, (value,), backward)


def segment_attention(
    values: Tensor,
    scores: Tensor,
    offsets: np.ndarray | None = None,
    sources: np.ndarray | None = None,
    *,
    plan: ReductionPlan | None = None,
    plan_key=None,
) -> Tensor:
    """Softmax-attention segment sum without a per-edge message tensor.

    Segment ``i`` is laid out as in :func:`segment_reduce_csr`; edge
    ``e`` of it carries source row ``j = sources[e]`` and the score
    ``scores[j]``.  The output is ``out_i = sum_e alpha_e values_j`` with
    ``alpha`` the softmax of the edge scores within segment ``i``.

    The forward gathers only the E scalar scores, runs the segment
    softmax on them and aggregates with one SpMM whose CSR data *is*
    ``alpha`` (NGra's fused ApplyEdge/Gather; the SpMM/SDDMM split of
    arXiv 2310.12184).  With ``A`` that alpha-weighted matrix and
    ``r_i = g_i . out_i`` the backward is::

        d values = A^T g
        d s_j    = values_j . (A^T g)_j - (A^T r)_j

    The per-edge SDDMM ``alpha_e (g_i . values_j - r_i)`` sums over the
    edges leaving row ``j`` into that closed form only because every
    score depends on its source row alone, so neither direction builds an
    ``(E, dim)`` tensor.

    Parameters
    ----------
    values:
        ``(num_rows, dim)`` source features.
    scores:
        ``(num_rows, 1)`` per-row scores (e.g. ``values @ a``).
    offsets / sources / plan / plan_key:
        The segment structure, exactly as for :func:`segment_reduce_csr`.
    """
    values = _as_tensor(values)
    scores = _as_tensor(scores)
    plan = _resolve_segment_plan(values, offsets, sources, plan, plan_key,
                                 "segment_attention")
    if scores.shape != (plan.num_rows, 1):
        raise ValueError(
            f"scores must have shape ({plan.num_rows}, 1), got {scores.shape}"
        )
    n = plan.n
    total = plan.total
    dtype = values.data.dtype
    out_shape = (n,) + values.shape[1:]
    if total == 0:
        def backward_empty(g):
            return (np.zeros_like(values.data), np.zeros_like(scores.data))

        return Tensor._make(np.zeros(out_shape, dtype=dtype), (values, scores),
                            backward_empty)

    acc = accumulation_dtype(dtype)
    flat = values.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
    dim = flat.shape[1]
    row_scores = scores.data.astype(acc, copy=False)
    edge_scores = row_scores if plan.gather is None else row_scores[plan.gather]
    # Segment softmax over the E scalars, in scatter_softmax's exact
    # operation order so HA and SA agree to the last bit.
    reps = plan.counts[plan.nonempty]
    shifted = edge_scores - np.repeat(
        np.maximum.reduceat(edge_scores, plan.starts, axis=0), reps, axis=0
    )
    e = np.exp(shifted)
    alpha = (e / np.repeat(np.add.reduceat(e, plan.starts, axis=0), reps,
                           axis=0)).ravel()
    _record_materialization(alpha.nbytes)
    # The plan's CSR structure with alpha as its data.
    pattern = plan.matrix(acc)
    weighted = _sp.csr_matrix((alpha, pattern.indices, pattern.indptr),
                              shape=pattern.shape)
    out_flat = weighted @ flat
    out_data = out_flat.astype(dtype, copy=False).reshape(out_shape)
    # softmax ~5 FLOPs per edge, SpMM 2 per edge and column; reads stream
    # one source row per edge plus the scores and the CSR structure
    record_op(
        "segment_attention",
        flops=5.0 * total + 2.0 * total * dim,
        bytes_read=(total * dim * values.data.itemsize + scores.data.nbytes
                    + plan.offsets.nbytes + total * 8),
        bytes_written=out_data.nbytes + alpha.nbytes,
    )

    def backward(g):
        g_flat = g.reshape(n, -1).astype(acc, copy=False)
        weighted_t = weighted.T
        grad_rows = weighted_t @ g_flat
        r = np.einsum("ij,ij->i", g_flat, out_flat)
        grad_scores = np.einsum("ij,ij->i", flat, grad_rows) - weighted_t @ r
        # SpMM + SpMV stream one gradient row and one r per edge plus the
        # alpha-weighted CSR; the row-wise dots read g, out and values
        record_op(
            "segment_attention.backward",
            flops=2.0 * total * (dim + 1) + 2.0 * (n + plan.num_rows) * dim,
            bytes_read=(total * (dim + 1) * values.data.itemsize
                        + alpha.nbytes + total * 8
                        + g.nbytes + out_data.nbytes + values.data.nbytes),
            bytes_written=values.data.nbytes + scores.data.nbytes,
        )
        return (grad_rows.astype(dtype, copy=False).reshape(values.shape),
                grad_scores.astype(scores.data.dtype, copy=False)
                .reshape(scores.shape))

    return Tensor._make(out_data, (values, scores), backward)
