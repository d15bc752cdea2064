"""Dynamic graphs: incremental HDG maintenance (§7.2's closing remark).

The paper notes that Pre+DGL-style simulation breaks down on dynamic
graphs — "the expanded graph cannot be pre-computed in advance.  Instead,
the flexible interfaces of NAU allow users to easily handle such
situation."  This module makes that concrete for MAGNN-style metapath
HDGs: when edges arrive or depart, only the instances *touching the
changed edges* are recomputed, instead of re-matching the whole graph.

:class:`MetapathHDGMaintainer` owns the instance set; after a batch of
edge changes it

1. drops every instance that traverses a removed edge;
2. matches, in the new graph, only the instances that traverse at least
   one added edge (a per-edge join, not a full scan);
3. recompacts the HDG from the updated instance arrays.

The result is always identical to a from-scratch rebuild (tested), at a
cost proportional to the change, not the graph.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..graph.metapath import Metapath, match_length3_metapath
from .hdg import HDG, hdg_from_instance_arrays
from .selection import schema_for_metapaths

__all__ = ["MetapathHDGMaintainer", "instances_through_edges"]


def instances_through_edges(
    graph: Graph, metapath: Metapath, edges: np.ndarray
) -> np.ndarray:
    """Length-3 instances of ``metapath`` in ``graph`` that use at least
    one of the given directed edges, as an ``(m, 3)`` array (deduplicated).

    An instance ``a -> b -> c`` uses edge ``(u, v)`` when
    ``(a, b) == (u, v)`` or ``(b, c) == (u, v)``.
    """
    if metapath.length != 3:
        raise ValueError("incremental maintenance supports 3-vertex metapaths")
    t0, t1, t2 = metapath.types
    types = graph.vertex_types
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    found: list[np.ndarray] = []
    indptr_out, indices_out = graph.csr
    indptr_in, indices_in = graph.csc
    for u, v in edges:
        u, v = int(u), int(v)
        # The listed edge must actually exist in this graph (it may have
        # been removed, or never added): instances only form over real
        # edges.
        if not graph.has_edge(u, v):
            continue
        # Edge in position (0, 1): instances (u, v, c).
        if types[u] == t0 and types[v] == t1:
            cs = indices_out[indptr_out[v] : indptr_out[v + 1]]
            cs = cs[(types[cs] == t2) & (cs != u)]
            if cs.size:
                block = np.empty((cs.size, 3), dtype=np.int64)
                block[:, 0] = u
                block[:, 1] = v
                block[:, 2] = cs
                found.append(block)
        # Edge in position (1, 2): instances (a, u, v).
        if types[u] == t1 and types[v] == t2:
            starts = indices_in[indptr_in[u] : indptr_in[u + 1]]
            starts = starts[(types[starts] == t0) & (starts != v)]
            if starts.size:
                block = np.empty((starts.size, 3), dtype=np.int64)
                block[:, 0] = starts
                block[:, 1] = u
                block[:, 2] = v
                found.append(block)
    if not found:
        return np.empty((0, 3), dtype=np.int64)
    return np.unique(np.concatenate(found, axis=0), axis=0)


class MetapathHDGMaintainer:
    """Owns a metapath HDG over an evolving graph.

    Parameters
    ----------
    graph:
        Initial typed graph.
    metapaths:
        Length-3 metapaths (the evaluation setting).
    """

    def __init__(self, graph: Graph, metapaths: list[Metapath]):
        if not metapaths:
            raise ValueError("need at least one metapath")
        if any(mp.length != 3 for mp in metapaths):
            raise ValueError("incremental maintenance supports 3-vertex metapaths")
        self.graph = graph
        self.metapaths = list(metapaths)
        self.schema = schema_for_metapaths(self.metapaths)
        self._n = graph.num_vertices
        # Per-metapath instance rows kept sorted by row key, with the key
        # array alongside — set operations then cost O(delta log total)
        # instead of re-sorting millions of rows per change batch.  Rows
        # are canonical (deduplicated); parallel-edge multiplicity lives
        # in the aligned ``_counts`` array, so multigraph instance counts
        # match :func:`match_length3_metapath` exactly (an instance
        # ``a -> b -> c`` exists once per (copy of a->b, copy of b->c)
        # pair).
        self._rows: list[np.ndarray] = []
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        for mp in self.metapaths:
            rows, counts = _canonical_with_counts(
                match_length3_metapath(graph, mp)
            )
            self._rows.append(rows)
            self._keys.append(_row_keys(rows, self._n))
            self._counts.append(counts)
        #: instances recomputed by the last apply_edge_changes call
        self.last_delta = 0
        #: roots whose instance set the last apply_edge_changes touched —
        #: exactly the vertices whose served layer-1 embeddings went stale
        #: (consumed by repro.serve's cache invalidation)
        self.last_touched_roots: np.ndarray = np.empty(0, dtype=np.int64)

    @property
    def _instances(self) -> list[np.ndarray]:
        """Per-metapath instance arrays (sorted by row key)."""
        return self._rows

    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        """Total instance count, parallel-edge multiplicity included."""
        return int(sum(int(c.sum()) for c in self._counts))

    def build_hdg(self) -> HDG:
        """Compact the current instance set into an HDG.

        Canonical rows are expanded by their multiplicity so the result
        is row-for-row identical (as a multiset) to
        ``build_metapath_hdg`` on the current graph.
        """
        blocks: list[np.ndarray] = []
        type_id_parts: list[np.ndarray] = []
        for i, (rows, counts) in enumerate(zip(self._rows, self._counts)):
            if rows.size == 0:
                continue
            expanded = np.repeat(rows, counts, axis=0)
            if expanded.size == 0:
                continue
            blocks.append(expanded)
            type_id_parts.append(np.full(expanded.shape[0], i, dtype=np.int64))
        if not blocks:
            empty = np.empty(0, dtype=np.int64)
            return hdg_from_instance_arrays(
                self.schema,
                np.arange(self.graph.num_vertices, dtype=np.int64),
                empty, empty, empty, empty, self.graph.num_vertices,
            )
        instances = np.concatenate(blocks, axis=0)
        type_ids = np.concatenate(type_id_parts)
        return hdg_from_instance_arrays(
            self.schema,
            np.arange(self.graph.num_vertices, dtype=np.int64),
            instances[:, 0],
            type_ids,
            instances.reshape(-1),
            np.full(instances.shape[0], 3, dtype=np.int64),
            self.graph.num_vertices,
        )

    # ------------------------------------------------------------------
    def apply_edge_changes(
        self,
        added: np.ndarray | None = None,
        removed: np.ndarray | None = None,
        build: bool = True,
    ) -> HDG | None:
        """Evolve the graph and incrementally repair the instance set.

        Matching work is proportional to the instances touching the
        changed edges.  With ``build=True`` (default) the repaired
        instance set is also recompacted into an HDG and returned;
        pass ``build=False`` to batch several change rounds and call
        :meth:`build_hdg` once before the next training step.
        """
        added = (
            np.empty((0, 2), dtype=np.int64) if added is None
            else np.asarray(added, dtype=np.int64).reshape(-1, 2)
        )
        removed = (
            np.empty((0, 2), dtype=np.int64) if removed is None
            else np.asarray(removed, dtype=np.int64).reshape(-1, 2)
        )
        old_graph = self.graph
        new_graph = old_graph.with_edge_changes(added, removed)
        delta = 0
        touched: list[np.ndarray] = []
        changed = (
            np.unique(np.concatenate([added, removed], axis=0), axis=0)
            if added.size or removed.size
            else np.empty((0, 2), dtype=np.int64)
        )
        for i, mp in enumerate(self.metapaths):
            rows, keys, counts = self._rows[i], self._keys[i], self._counts[i]
            if changed.size == 0:
                continue
            # Every canonical instance whose multiplicity may have moved:
            # instances traversing a changed edge in either the old graph
            # (a removed copy) or the new one (an added copy).
            affected = _set_union(
                instances_through_edges(old_graph, mp, changed),
                instances_through_edges(new_graph, mp, changed),
            )
            if affected.size == 0:
                self._rows[i], self._keys[i], self._counts[i] = rows, keys, counts
                continue
            # New multiplicity of a -> b -> c is the product of the two
            # parallel-edge counts in the evolved graph — exactly how
            # match_length3_metapath's edge join counts it.
            new_counts = (
                new_graph.edge_multiplicity(affected[:, :2])
                * new_graph.edge_multiplicity(affected[:, 1:])
            )
            affected_keys = _row_keys(affected, self._n)
            pos, found = _positions_of(keys, affected_keys)
            old_counts = np.zeros(affected_keys.size, dtype=np.int64)
            old_counts[found] = counts[pos[found]]
            moved = new_counts != old_counts
            if not moved.any():
                self._rows[i], self._keys[i], self._counts[i] = rows, keys, counts
                continue
            delta += int(np.abs(new_counts - old_counts)[moved].sum())
            touched.append(affected[moved, 0])
            # Update surviving rows' counts in place (positions valid
            # before any removal shifts them).
            update = found & moved & (new_counts > 0)
            if update.any():
                counts = counts.copy()
                counts[pos[update]] = new_counts[update]
            # Drop rows whose last parallel copy disappeared.
            drop = found & (new_counts == 0)
            if drop.any():
                mask = np.ones(keys.size, dtype=bool)
                mask[pos[drop]] = False
                rows, keys, counts = rows[mask], keys[mask], counts[mask]
            # Insert brand-new rows (sorted; _set_union output is
            # lexicographically sorted so the keys are ascending).
            insert = (~found) & (new_counts > 0)
            if insert.any():
                insert_at = np.searchsorted(keys, affected_keys[insert])
                rows = np.insert(rows, insert_at, affected[insert], axis=0)
                keys = np.insert(keys, insert_at, affected_keys[insert])
                counts = np.insert(counts, insert_at, new_counts[insert])
            self._rows[i], self._keys[i], self._counts[i] = rows, keys, counts
        self.graph = new_graph
        self.last_delta = delta
        self.last_touched_roots = (
            np.unique(np.concatenate(touched)) if touched
            else np.empty(0, dtype=np.int64)
        )
        return self.build_hdg() if build else None


def _canonical(instances: np.ndarray) -> np.ndarray:
    """Sorted, deduplicated row set."""
    if instances.size == 0:
        return instances.reshape(0, 3)
    return np.unique(instances, axis=0)


def _canonical_with_counts(instances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, deduplicated rows plus per-row multiplicity.

    ``np.unique(axis=0)`` sorts lexicographically, which coincides with
    ``_row_keys`` order (the key is monotone in ``(a, b, c)``), so the
    returned rows align with a sorted key array.
    """
    if instances.size == 0:
        return instances.reshape(0, 3), np.empty(0, dtype=np.int64)
    rows, counts = np.unique(instances, axis=0, return_counts=True)
    return rows, counts.astype(np.int64)


def _row_keys(block: np.ndarray, n: int) -> np.ndarray:
    if block.size == 0:
        return np.empty(0, dtype=np.int64)
    return (block[:, 0] * n + block[:, 1]) * n + block[:, 2]


def _positions_of(sorted_keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, found_mask) of ``query`` keys in a sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(query.size, dtype=np.int64), np.zeros(query.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, query)
    found = pos < sorted_keys.size
    found[found] = sorted_keys[pos[found]] == query[found]
    return pos, found


def _set_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0 or b.size == 0:
        return a
    n = int(max(a.max(), b.max())) + 1
    keep = ~np.isin(_row_keys(a, n), _row_keys(b, n))
    return a[keep]


def _set_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    return np.unique(np.concatenate([a, b], axis=0), axis=0)
