"""Output checks: pure functions over what a workload produced.

Each returns a list of failure messages (empty when the check passes),
so the known-bad self-tests in ``perfbench/tests`` can feed them
deliberately corrupted outputs and assert that they fire.
"""

from __future__ import annotations

import numpy as np

#: logits of two aggregation strategies agree to float64 rounding
LOGIT_RTOL = 1e-9
#: process-backend losses sum the ranks' gradient slabs in another
#: order than one process does, which moves the last bits only
LOSS_RTOL = 1e-9
#: served rows vs a full-graph forward (the serving tier's own contract)
EMBED_ATOL = 1e-6

_MAX_REPORTED = 3


def _first(indices, describe) -> list[str]:
    out = [describe(i) for i in indices[:_MAX_REPORTED]]
    if len(indices) > _MAX_REPORTED:
        out.append(f"... {len(indices) - _MAX_REPORTED} more")
    return out


def _shape_mismatch(name, a, b) -> list[str]:
    if a.shape != b.shape:
        return [f"{name}: shape {a.shape} != {b.shape}"]
    return []


def logits_match(ha_logits, sa_logits, rtol: float = LOGIT_RTOL) -> list[str]:
    """HA logits equal SA logits (full-gat)."""
    ha = np.asarray(ha_logits, dtype=np.float64)
    sa = np.asarray(sa_logits, dtype=np.float64)
    if bad := _shape_mismatch("logits", ha, sa):
        return bad
    close = np.isclose(ha, sa, rtol=rtol, atol=rtol)
    rows = np.flatnonzero(~close.all(axis=1))
    return _first(list(rows), lambda r: (
        f"vertex {r}: HA {ha[r].tolist()} != SA {sa[r].tolist()}"))


def losses_bitwise(timed, reference) -> list[str]:
    """Per-epoch losses identical to the last bit (stream-gcn: the
    prefetch run against the synchronous run)."""
    a = np.asarray(timed, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if bad := _shape_mismatch("losses", a, b):
        return bad
    epochs = np.flatnonzero(a.view(np.uint64) != b.view(np.uint64))
    return _first(list(epochs), lambda e: (
        f"epoch {e}: {a[e]!r} != {b[e]!r}"))


def losses_close(process, single, rtol: float = LOSS_RTOL) -> list[str]:
    """Per-epoch losses equal within ``rtol`` (dist-magnn: the process
    backend against one process)."""
    a = np.asarray(process, dtype=np.float64)
    b = np.asarray(single, dtype=np.float64)
    if bad := _shape_mismatch("losses", a, b):
        return bad
    epochs = np.flatnonzero(~np.isclose(a, b, rtol=rtol, atol=0.0))
    return _first(list(epochs), lambda e: (
        f"epoch {e}: process {a[e]!r} != single-process {b[e]!r}"))


def embeddings_close(served, reference, vertices,
                     atol: float = EMBED_ATOL) -> list[str]:
    """Served rows match a full-graph forward on the final graph
    (serve-mixed: catches cache rows left stale by a write)."""
    a = np.asarray(served, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if bad := _shape_mismatch("embeddings", a, b):
        return bad
    rows = np.flatnonzero((np.abs(a - b) > atol).any(axis=1))
    return _first(list(rows), lambda r: (
        f"vertex {int(vertices[r])}: max |served - full-graph| = "
        f"{float(np.abs(a[r] - b[r]).max()):.3g}"))
