"""One shared-nothing worker and its per-rank training step.

This is the only full-batch distributed code path.  Both trainers run it:
:class:`~repro.distributed.trainer.DistributedTrainer` calls it for every
rank in turn inside one process (over ``SimulatedComm``), and the
multiprocess runtime calls it once per OS process (over ``ProcessComm``).
The trainers only move rows between buffers and reduce slabs in rank
order, so the two backends agree bitwise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..tensor.tensor import Tensor

__all__ = ["Worker"]


@dataclass
class Worker:
    """One shared-nothing worker and its per-rank training step.

    ``root_orders`` indexes into the global HDG root ordering; ``sub_hdg``
    is the restriction of the current model HDG to this worker's roots
    (leaf ids stay global — remote leaves are what synchronization pays
    for).  The worker keeps its own parameter gradients between backward
    layers, so ranks that share one model object in one process still
    accumulate exactly what a replica in its own process would.
    """

    worker_id: int
    root_orders: np.ndarray
    sub_hdg: HDG | None = None
    #: forward + backward seconds this epoch (span durations, so scaled
    #: by the worker's modeled speed where the trainer passes ``scale``)
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    backward_seconds: float = 0.0
    _tape: list = field(default_factory=list, repr=False)
    _grads: list = field(default_factory=list, repr=False)

    @property
    def num_roots(self) -> int:
        return int(self.root_orders.size)

    def reset_epoch(self, num_params: int) -> None:
        self.compute_seconds = 0.0
        self.comm_seconds = 0.0
        self.backward_seconds = 0.0
        self._tape = []
        self._grads = [None] * num_params

    def attach_hdg(self, model_hdg: HDG) -> None:
        """Slice the freshly built model HDG down to this worker's roots."""
        self.sub_hdg = model_hdg.restrict_to_roots(self.root_orders)

    # ------------------------------------------------------------------
    def forward_layer(self, index: int, layer, h_in: np.ndarray, strategy, *,
                      epoch: int, scale: float | None = None,
                      time_update: bool = True, **attrs) -> tuple[np.ndarray, float]:
        """Aggregate and update this worker's roots for layer ``index``.

        ``h_in`` is the full (n, d) layer input.  Hidden activations become
        this worker's own gradient leaf; layer 0's features do not.
        Returns the rows the trainer writes at ``root_orders`` of the next
        buffer, and the seconds of the ``dist.compute`` span
        (``time_update=False`` leaves the update outside it).
        """
        x = Tensor(h_in, requires_grad=index > 0)
        with obs.span("dist.compute", scale=scale, worker=self.worker_id,
                      layer=index, epoch=epoch, **attrs) as s_cmp:
            nbr = layer.aggregation(x, self.sub_hdg, strategy)
            if time_update:
                out = layer.update(x[self.root_orders], nbr)
        if not time_update:
            out = layer.update(x[self.root_orders], nbr)
        self.compute_seconds += s_cmp.duration
        self._tape.append((x, out))
        return out.data, s_cmp.duration

    def backward_layer(self, index: int, grad_out: np.ndarray, params: list, *,
                       epoch: int, scale: float | None = None) -> np.ndarray | None:
        """Backpropagate this worker's rows of ``grad_out`` (the full (n, d)
        output gradient) through layer ``index``.

        Returns this worker's full gradient with respect to the layer
        input (zeros when it never read it), or ``None`` for layer 0.
        """
        x, out = self._tape[index]
        gout = np.array(grad_out[self.root_orders])
        for p, g in zip(params, self._grads):
            p.grad = g
        with obs.span("dist.backward", scale=scale, worker=self.worker_id,
                      layer=index, epoch=epoch) as s_bwd:
            out.backward(gout)
        self._grads = [p.grad for p in params]
        self.compute_seconds += s_bwd.duration
        self.backward_seconds += s_bwd.duration
        if index == 0:
            return None
        return np.zeros_like(x.data) if x.grad is None else x.grad

    def write_param_grads(self, params: list, slab: np.ndarray) -> None:
        """Flatten this worker's parameter gradients into ``slab``."""
        off = 0
        for p, g in zip(params, self._grads):
            size = p.data.size
            if g is None:
                slab[off:off + size] = 0.0
            else:
                slab[off:off + size] = np.asarray(g, dtype=np.float64).ravel()
            off += size
