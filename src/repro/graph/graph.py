"""Immutable directed graph in CSR/CSC form — the graph-engine substrate.

FlexGraph integrates libgrape-lite (a C++ parallel graph-processing
library) for storing graphs and running graph-related operations (random
walks, metapath matching, BFS).  This module is the Python/numpy
equivalent: a compact adjacency structure with both out-edge (CSR) and
in-edge (CSC) indexes, typed vertices for heterogeneous graphs, and the
memory accounting needed by the HDG-footprint experiment (Table 5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Graph"]


class Graph:
    """A directed graph over vertices ``0..n-1`` stored as CSR + CSC.

    Parameters
    ----------
    num_vertices:
        Number of vertices.
    src, dst:
        Parallel int arrays of edge endpoints (edge ``i`` is
        ``src[i] -> dst[i]``).
    vertex_types:
        Optional ``(num_vertices,)`` int array of type ids for
        heterogeneous graphs (MAGNN); defaults to a single type ``0``.
    type_names:
        Optional human-readable names aligned with type ids.
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        vertex_types: np.ndarray | None = None,
        type_names: list[str] | None = None,
    ):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if num_vertices <= 0:
            raise ValueError("graph must have at least one vertex")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise ValueError("src vertex id out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise ValueError("dst vertex id out of range")

        self.num_vertices = int(num_vertices)
        self.num_edges = int(src.size)

        # CSR (out-edges): sort edges by src, ties in input order.
        order = np.argsort(src, kind="stable")
        self._csr_indices = dst[order]
        self._csr_indptr = _row_offsets(src, num_vertices)

        # CSC (in-edges): sort the CSR slots by dst, so each CSC row is
        # sorted by source.  That canonical order is what lets
        # with_edge_changes splice rows and still equal a rebuild.
        order_in = np.argsort(self._csr_indices, kind="stable")
        self._csc_indices = src[order][order_in]
        self._csc_indptr = _row_offsets(dst, num_vertices)

        if vertex_types is None:
            self.vertex_types = np.zeros(num_vertices, dtype=np.int64)
        else:
            self.vertex_types = np.asarray(vertex_types, dtype=np.int64)
            if self.vertex_types.shape != (num_vertices,):
                raise ValueError("vertex_types must have shape (num_vertices,)")
            if self.vertex_types.size and self.vertex_types.min() < 0:
                raise ValueError("vertex types must be non-negative")
        self.num_types = int(self.vertex_types.max()) + 1 if num_vertices else 1
        self.type_names = type_names or [f"type{i}" for i in range(self.num_types)]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges,
        vertex_types: np.ndarray | None = None,
        type_names: list[str] | None = None,
        make_undirected: bool = False,
    ) -> "Graph":
        """Build a graph from an ``(m, 2)`` edge array or list of pairs.

        ``make_undirected`` adds the reverse of every edge (GCN and PinSage
        treat their input graphs as undirected).
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        src, dst = edges[:, 0], edges[:, 1]
        if make_undirected:
            src = np.concatenate([src, dst])
            dst = np.concatenate([dst, edges[:, 0]])
        return cls(num_vertices, src, dst, vertex_types, type_names)

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighborhood of ``v`` as an int array (a view, do not mutate)."""
        return self._csr_indices[self._csr_indptr[v] : self._csr_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighborhood of ``v`` as an int array (a view, do not mutate)."""
        return self._csc_indices[self._csc_indptr[v] : self._csc_indptr[v + 1]]

    def out_degree(self, v: int | None = None):
        """Out-degree of ``v``, or the full out-degree array when ``v`` is None."""
        if v is None:
            return np.diff(self._csr_indptr)
        return int(self._csr_indptr[v + 1] - self._csr_indptr[v])

    def in_degree(self, v: int | None = None):
        """In-degree of ``v``, or the full in-degree array when ``v`` is None."""
        if v is None:
            return np.diff(self._csc_indptr)
        return int(self._csc_indptr[v + 1] - self._csc_indptr[v])

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) over out-edges."""
        return self._csr_indptr, self._csr_indices

    @property
    def csc(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) over in-edges."""
        return self._csc_indptr, self._csc_indices

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) arrays in CSR order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degree())
        return src, self._csr_indices.copy()

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        """COO (dst_ids, src_ids) in CSC order — the layout Figure 7 uses."""
        dst = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.in_degree())
        return dst, self._csc_indices.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        return bool(np.isin(v, self.out_neighbors(u)).any())

    def edge_multiplicity(self, pairs) -> np.ndarray:
        """Parallel-edge count for each directed ``(u, v)`` pair.

        Vectorized over an ``(m, 2)`` array and row-local: only the
        queried sources' CSR rows are gathered and sorted, so
        multigraph-aware callers (incremental metapath maintenance) pay
        for the rows they ask about, not for all E edges.  A pair with an
        out-of-range id counts 0.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.num_vertices
        counts = np.zeros(pairs.shape[0], dtype=np.int64)
        valid = ((pairs >= 0) & (pairs < n)).all(axis=1)
        if not valid.any():
            return counts
        src, dst = pairs[valid, 0], pairs[valid, 1]
        rows = np.unique(src)
        slots, owner = _row_slots(self._csr_indptr, rows)
        keys = np.sort(rows[owner] * np.int64(n) + self._csr_indices[slots])
        query = src * np.int64(n) + dst
        counts[valid] = (np.searchsorted(keys, query, side="right")
                         - np.searchsorted(keys, query, side="left"))
        return counts

    def vertices_of_type(self, type_id: int) -> np.ndarray:
        """All vertex ids of the given type."""
        return np.flatnonzero(self.vertex_types == type_id)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices relabeled ``0..k-1`` in the
        order given) and the original-id array so callers can map back.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size != np.unique(vertices).size:
            raise ValueError("subgraph vertices must be unique")
        local = np.full(self.num_vertices, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        src, dst = self.edges()
        keep = (local[src] >= 0) & (local[dst] >= 0)
        sub = Graph(
            max(int(vertices.size), 1),
            local[src[keep]],
            local[dst[keep]],
            self.vertex_types[vertices] if vertices.size else None,
            self.type_names,
        )
        return sub, vertices

    def with_vertex_types(self, vertex_types: np.ndarray,
                          type_names: list[str] | None = None) -> "Graph":
        """A copy of this graph with new vertex types (shares adjacency).

        The evaluation runs MAGNN on homogeneous graphs by assigning 3
        vertex types (Section 7, "the input graph consists of 3 types of
        vertices"); this is the hook for that retyping.
        """
        import copy as _copy

        vertex_types = np.asarray(vertex_types, dtype=np.int64)
        if vertex_types.shape != (self.num_vertices,):
            raise ValueError("vertex_types must have shape (num_vertices,)")
        if vertex_types.size and vertex_types.min() < 0:
            raise ValueError("vertex types must be non-negative")
        clone = _copy.copy(self)
        clone.vertex_types = vertex_types
        clone.num_types = int(vertex_types.max()) + 1 if vertex_types.size else 1
        clone.type_names = type_names or [f"type{i}" for i in range(clone.num_types)]
        return clone

    def reverse(self) -> "Graph":
        """Graph with all edges flipped."""
        src, dst = self.edges()
        return Graph(self.num_vertices, dst, src, self.vertex_types, self.type_names)

    def with_edges_added(self, edges) -> "Graph":
        """A new graph with extra edges; see :meth:`with_edge_changes`."""
        return self.with_edge_changes(added=edges)

    def with_edges_removed(self, edges) -> "Graph":
        """A new graph with edges removed; see :meth:`with_edge_changes`."""
        return self.with_edge_changes(removed=edges)

    def with_edge_changes(self, added=None, removed=None) -> "Graph":
        """A new graph with ``removed`` edges dropped, then ``added`` ones
        appended (the dynamic-graph evolution step).

        Each listed ``(u, v)`` in ``removed`` drops *one* copy of that
        edge, the first in CSR order (multi-edges lose one copy per
        mention); absent edges are ignored.  Ids outside ``0..n-1`` in
        either list raise ``ValueError``.  Vertex types carry over.

        Only the changed rows are searched: a removal inside row ``u`` of
        CSR and row ``v`` of CSC; an addition lands at the end of its CSR
        row and at its sorted place in its CSC row.  The rest of the cost
        is one ``np.delete`` and one ``np.insert`` per index.  The result
        is bitwise equal, in all four adjacency arrays, to
        ``Graph(n, src, dst)`` built from this graph's ``edges()`` with
        the same edits, and it is always a new object: this graph's
        arrays are never written.
        """
        n = self.num_vertices
        added = _edge_array(added, n, "added")
        removed = _edge_array(removed, n, "removed")
        csr_indptr, csr_indices = _splice(
            self._csr_indptr, self._csr_indices, removed[:, 0], removed[:, 1],
            added[:, 0], added[:, 1], n, sorted_rows=False,
        )
        csc_indptr, csc_indices = _splice(
            self._csc_indptr, self._csc_indices, removed[:, 1], removed[:, 0],
            added[:, 1], added[:, 0], n, sorted_rows=True,
        )
        out = object.__new__(Graph)
        out.num_vertices = n
        out.num_edges = int(csr_indices.size)
        out._csr_indptr, out._csr_indices = csr_indptr, csr_indices
        out._csc_indptr, out._csc_indices = csc_indptr, csc_indices
        out.vertex_types = self.vertex_types
        out.num_types = self.num_types
        out.type_names = self.type_names
        return out

    def fingerprint(self) -> str:
        """Stable hex digest of the graph's structure.

        Covers vertex count, the *sorted* edge multiset and vertex types
        — independent of the order edges were supplied in — so a
        checkpoint stamped with a fingerprint can later verify it is
        being served against the same graph (``repro.serve``).
        """
        import hashlib

        src, dst = self.edges()
        edge_keys = np.sort(src * np.int64(self.num_vertices) + dst)
        h = hashlib.sha256()
        h.update(np.int64(self.num_vertices).tobytes())
        h.update(edge_keys.tobytes())
        h.update(self.vertex_types.tobytes())
        return h.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the adjacency structure (CSR + CSC + types)."""
        return int(
            self._csr_indptr.nbytes
            + self._csr_indices.nbytes
            + self._csc_indptr.nbytes
            + self._csc_indices.nbytes
            + self.vertex_types.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges}, "
            f"num_types={self.num_types})"
        )


# ----------------------------------------------------------------------
# Adjacency helpers: indptr offsets and the row-local splice
# ----------------------------------------------------------------------
def _edge_array(edges, num_vertices: int, name: str) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array with its ids checked."""
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
        raise ValueError(f"{name} edge vertex id out of range")
    return edges


def _row_slots(indptr: np.ndarray, rows: np.ndarray):
    """Slots of the sorted unique ``rows``, concatenated row by row, and
    the position in ``rows`` that owns each slot."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lengths)
    first = np.cumsum(lengths) - lengths
    return starts[owner] + np.arange(owner.size) - first[owner], owner


def _splice(indptr, indices, drop_rows, drop_cols, add_rows, add_cols, n,
            sorted_rows: bool):
    """One adjacency index (CSR or CSC) with one entry dropped per
    ``(drop_rows, drop_cols)`` mention and the additions inserted.

    An addition goes to its row's end, in the order given, or, with
    ``sorted_rows``, after the row's last entry ``<=`` it (CSC rows are
    sorted by source).  Returns new arrays; the inputs are not written.
    """
    drop, dropped_rows = _matching_slots(indptr, indices, drop_rows,
                                         drop_cols, n)
    indices = np.delete(indices, drop)
    indptr = indptr - _row_offsets(dropped_rows, n)
    if not add_rows.size:
        return indptr, indices
    if sorted_rows:
        order = np.lexsort((add_cols, add_rows))
        add_rows, add_cols = add_rows[order], add_cols[order]
        rows = np.unique(add_rows)
        slots, owner = _row_slots(indptr, rows)
        keys = rows[owner] * np.int64(n) + indices[slots]
        # Position among the gathered rows, rebased onto the row's slots.
        at = np.searchsorted(keys, add_rows * np.int64(n) + add_cols,
                             side="right")
        first = np.searchsorted(owner, np.searchsorted(rows, add_rows))
        at = indptr[add_rows] + at - first
    else:
        order = np.argsort(add_rows, kind="stable")
        add_rows, add_cols = add_rows[order], add_cols[order]
        at = indptr[add_rows + 1]
    return (indptr + _row_offsets(add_rows, n),
            np.insert(indices, at, add_cols))


def _matching_slots(indptr, indices, rows, cols, n):
    """The slots that ``(rows, cols)`` removals drop, sorted, and their
    rows: each mention takes the first remaining matching entry of its
    row, and a pair with no entry left takes nothing."""
    if not rows.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    wanted, count = np.unique(rows * np.int64(n) + cols, return_counts=True)
    touched = np.unique(rows)
    slots, owner = _row_slots(indptr, touched)
    keys = touched[owner] * np.int64(n) + indices[slots]
    # Rank of each slot among its row's equal entries, in slot order.
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    rank = np.arange(ranked.size) - np.searchsorted(ranked, ranked)
    hit = np.minimum(np.searchsorted(wanted, ranked), wanted.size - 1)
    limit = np.where(wanted[hit] == ranked, count[hit], 0)
    picked = np.sort(order[rank < limit])
    return slots[picked], touched[owner[picked]]


def _row_offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """``(n + 1,)`` running count of ``rows``: the indptr of one entry
    per listed row, or the shift an indptr takes when they are added."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets
