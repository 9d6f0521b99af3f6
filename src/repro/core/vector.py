"""NumPy-vectorized kernels: the fast path of the ``object`` / ``numpy`` pair.

The object model (:mod:`repro.algorithms.gk`, :mod:`repro.core.chunks`,
:mod:`repro.algorithms.fzf`) is the reference implementation.  This module
runs the same kernels over a :class:`~repro.core.columnar.ColumnarHistory`
with vectorized numpy primitives (``lexsort``, ``searchsorted``,
``reduceat``, cumulative max, boolean masks):

* the Section II-C anomaly scan,
* cluster/zone table construction (:class:`ClusterTableNP`),
* the Gibbons–Korach forward-overlap and backward-in-forward sweeps,
* the FZF Stage-1 chunk decomposition (:class:`ChunkTableNP`) and the
  Stage-2/3 viability screen and witness stitching,
* the LBT setup columns (the epoch loops themselves are inherently
  sequential and unchanged).

Every kernel reproduces the object path exactly — same verdicts, same
NO-reason strings, same witnesses, same stats — and the parity is enforced
by ``tests/test_columnar.py`` and the differential fuzz harness.  Rare
irregular cases fall back to the paper's own routines: FZF chunks that are
neither a lone forward cluster nor a passing forward chain run
:func:`repro.algorithms.fzf.check_viable` on their decoded operations, and
timestamp ties during normalisation take the object path.

Kernel selection (:func:`resolve_kernel`): an explicit ``kernel=`` name
wins, otherwise ``numpy``.

The module also provides the kernel-level entry point
:func:`verify_columnar`, which verifies a :class:`ColumnarHistory` *without
materialising Operation objects* — the hot path of the engine's process
workers and of the out-of-core ``.rcol`` backend (:mod:`repro.io.rcol`),
including a vectorized replica of the Section II-C normalisation.
:func:`columnar_verdict` is the same call with a YES witness left as
positions (:class:`ColumnarVerdict`), for callers that ship it elsewhere.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import VerificationError
from .result import VerificationResult

__all__ = [
    "KERNELS",
    "resolve_kernel",
    "ClusterTableNP",
    "ChunkTableNP",
    "cluster_table",
    "chunk_table",
    "has_anomalies",
    "gk_violation_np",
    "FZFOutcome",
    "fzf_verdict_np",
    "gk_result_np",
    "lbt_setup",
    "columnar_from_numpy",
    "ColumnarVerdict",
    "columnar_verdict",
    "verify_columnar",
]

#: The kernels: the object reference and its numpy fast path.
KERNELS = ("object", "numpy")


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """The kernel for one verifier call: an explicit name, else ``numpy``.

    Unknown names raise :class:`~repro.core.errors.VerificationError`.
    """
    if kernel is None:
        return "numpy"
    key = str(kernel).strip().lower()
    if key not in KERNELS:
        raise VerificationError(
            f"unknown kernel {kernel!r}; available: {', '.join(KERNELS)}"
        )
    return key


# ----------------------------------------------------------------------
# Zero-copy column views and per-encoding derived state
# ----------------------------------------------------------------------
def _as_np(buf, dtype):
    """A zero-copy numpy view of a column (array/bytearray/ndarray/memmap)."""
    if isinstance(buf, np.ndarray):
        return buf if buf.dtype == dtype else buf.astype(dtype)
    return np.frombuffer(buf, dtype=dtype)


class _Columns:
    """Numpy views over a ColumnarHistory's kernel columns (zero-copy)."""

    __slots__ = (
        "start",
        "finish",
        "is_write",
        "value_id",
        "op_ids",
        "dictating",
        "write_ord",
        "writes",
        "reads",
    )

    def __init__(self, col):
        self.start = _as_np(col.start, np.float64)
        self.finish = _as_np(col.finish, np.float64)
        self.is_write = _as_np(col.is_write, np.uint8)
        self.value_id = _as_np(col.value_id, np.int32)
        self.op_ids = _as_np(col.op_ids, np.int64)
        self.dictating = _as_np(col.dictating, np.int32)
        self.write_ord = _as_np(col.write_ord, np.int32)
        self.writes = np.flatnonzero(self.is_write)
        self.reads = np.flatnonzero(self.is_write == 0)


class _VectorState:
    """Numpy-side derived structures, memoized on the encoding."""

    __slots__ = ("columns", "clusters", "chunks")

    def __init__(self):
        self.columns: Optional[_Columns] = None
        self.clusters: Optional["ClusterTableNP"] = None
        self.chunks: Optional["ChunkTableNP"] = None


def _state(col) -> _VectorState:
    vs = col._vector
    if vs is None:
        vs = col._vector = _VectorState()
    return vs


def _columns(col) -> _Columns:
    vs = _state(col)
    if vs.columns is None:
        vs.columns = _Columns(col)
    return vs.columns


class _SparseOps(dict):
    """Lazy decoded-operation cache that never allocates O(n) slots.

    ``ColumnarHistory._ops`` is a ``[None] * n`` list when built eagerly;
    memmap-backed encodings of multi-million-operation registers use this
    dict view instead, so decoding a handful of operations (a NO-reason, an
    anomaly description) does not cost a full-length list.
    """

    def __missing__(self, index):
        return None


# ----------------------------------------------------------------------
# Anomaly scan (Section II-C)
# ----------------------------------------------------------------------
def _scan_anomalies_np(col) -> bool:
    c = _columns(col)
    r = c.reads
    if not r.size:
        return False
    d = c.dictating[r]
    if bool((d < 0).any()):
        return True
    return bool((c.finish[r] < c.start[d]).any())


def has_anomalies(col) -> bool:
    """The Section II-C anomaly scan, memoized on the encoding.

    True iff some read returns a never-written value or finishes before its
    dictating write starts — exactly :func:`repro.core.preprocess.has_anomalies`.
    """
    if col._anomalous is None:
        col._anomalous = _scan_anomalies_np(col)
    return col._anomalous


# ----------------------------------------------------------------------
# Cluster/zone table (twin of zones.build_clusters)
# ----------------------------------------------------------------------
class ClusterTableNP:
    """Struct-of-ndarray cluster table, sorted like ``build_clusters``.

    Same clusters and sort order as :func:`repro.core.zones.build_clusters`
    — ``(low, high, write op id)`` ascending — with the per-cluster read lists
    flattened into a CSR pair (``reads_sorted``/``reads_off``); cluster ``c``'s
    reads are ``reads_sorted[reads_off[c]:reads_off[c+1]]``, ascending.
    """

    __slots__ = (
        "num",
        "write",
        "min_finish",
        "max_start",
        "low",
        "high",
        "forward",
        "reads_sorted",
        "reads_off",
        "cluster_of_write_ord",
    )


def cluster_table(col) -> ClusterTableNP:
    """The numpy cluster table of the encoding (memoized)."""
    vs = _state(col)
    if vs.clusters is None:
        vs.clusters = _build_cluster_table(col)
    return vs.clusters


def _build_cluster_table(col) -> ClusterTableNP:
    c = _columns(col)
    writes = c.writes
    num = int(writes.size)
    min_finish = c.finish[writes].astype(np.float64)
    max_start = c.start[writes].astype(np.float64)
    reads = c.reads
    ordinal = None
    if reads.size:
        d = c.dictating[reads]
        neg = np.flatnonzero(d < 0)
        if neg.size:
            from .errors import HistoryError

            i = int(reads[int(neg[0])])
            raise HistoryError(
                f"read #{int(c.op_ids[i])} has no dictating write; normalise "
                "the history with repro.core.preprocess.normalize() first"
            )
        ordinal = c.write_ord[d].astype(np.int64)
        order_r = np.argsort(ordinal, kind="stable")
        sorted_ord = ordinal[order_r]
        grp = np.flatnonzero(
            np.concatenate(([True], sorted_ord[1:] != sorted_ord[:-1]))
        )
        uniq = sorted_ord[grp]
        gmin = np.minimum.reduceat(c.finish[reads[order_r]], grp)
        gmax = np.maximum.reduceat(c.start[reads[order_r]], grp)
        min_finish[uniq] = np.minimum(min_finish[uniq], gmin)
        max_start[uniq] = np.maximum(max_start[uniq], gmax)
    low = np.minimum(min_finish, max_start)
    high = np.maximum(min_finish, max_start)
    order_c = np.lexsort((c.op_ids[writes], high, low))
    inv = np.empty(num, dtype=np.int64)
    inv[order_c] = np.arange(num, dtype=np.int64)

    ct = ClusterTableNP()
    ct.num = num
    ct.write = writes[order_c]
    ct.min_finish = min_finish[order_c]
    ct.max_start = max_start[order_c]
    ct.low = low[order_c]
    ct.high = high[order_c]
    ct.forward = ct.min_finish < ct.max_start
    ct.cluster_of_write_ord = inv
    if reads.size:
        cl_of_read = inv[ordinal]
        # reads is ascending, so a stable sort by cluster keeps each group in
        # ascending op-index order — the object path's per-cluster read order.
        o2 = np.argsort(cl_of_read, kind="stable")
        ct.reads_sorted = reads[o2]
        counts = np.bincount(cl_of_read, minlength=num)
    else:
        ct.reads_sorted = np.empty(0, dtype=np.int64)
        counts = np.zeros(num, dtype=np.int64)
    ct.reads_off = np.concatenate(
        ([0], np.cumsum(counts, dtype=np.int64))
    )
    return ct


# ----------------------------------------------------------------------
# Gibbons–Korach sweeps
# ----------------------------------------------------------------------
def gk_violation_np(col) -> Optional[Tuple[str, int, int]]:
    """Vectorized twin of :func:`repro.algorithms.gk.find_1atomicity_violation`.

    Returns ``(condition, cluster_a, cluster_b)`` with indices into the
    (identically sorted) cluster table, or ``None`` when 1-atomic.  The pair
    reported for each condition matches the object sweep exactly.
    """
    ct = cluster_table(col)
    fidx = np.flatnonzero(ct.forward)
    if not fidx.size:
        return None
    fl = ct.low[fidx]
    fh = ct.high[fidx]
    running = np.maximum.accumulate(fh)
    if fidx.size > 1:
        # Condition 1: a forward zone starting at or before the running max
        # high endpoint of the earlier forward zones overlaps one of them.
        viol = np.flatnonzero(fl[1:] <= running[:-1])
        if viol.size:
            j = int(viol[0]) + 1
            # The loop's `prev` is the last position where the running max was
            # updated strictly before j (position 0 always updates it).
            upd = np.flatnonzero(
                np.concatenate(([True], fh[1:] > running[:-1]))
            )
            p = int(upd[np.searchsorted(upd, j) - 1])
            return ("forward-overlap", int(fidx[p]), int(fidx[j]))
    bidx = np.flatnonzero(~ct.forward)
    if bidx.size:
        # Condition 2: after condition 1 passes the forward zones are pairwise
        # disjoint and sorted, so their highs are strictly increasing and the
        # merge scan's persistent pointer is exactly a searchsorted.
        bl = ct.low[bidx]
        bh = ct.high[bidx]
        pos = np.searchsorted(fh, bl, side="left")
        safe = np.minimum(pos, fidx.size - 1)
        hit = (pos < fidx.size) & (fl[safe] <= bl) & (bh <= fh[safe])
        hits = np.flatnonzero(hit)
        if hits.size:
            j = int(hits[0])
            return ("backward-in-forward", int(fidx[int(pos[j])]), int(bidx[j]))
    return None


# ----------------------------------------------------------------------
# FZF Stage 1: chunk decomposition
# ----------------------------------------------------------------------
class ChunkTableNP:
    """Vectorized chunk decomposition (twin of ``chunks.compute_chunk_set``).

    ``fidx`` lists the forward-cluster indices in cluster order;
    ``chain_starts[i]`` is the offset in ``fidx`` where chunk ``i`` begins and
    ``chain_low``/``chain_high`` its continuous forward interval.  ``bidx``
    lists the backward-cluster indices and ``b_chunk`` the chunk each one
    belongs to (``-1`` = dangling).
    """

    __slots__ = ("fidx", "chain_starts", "chain_low", "chain_high", "bidx", "b_chunk")

    @property
    def num_chunks(self) -> int:
        return int(self.chain_starts.size)


def chunk_table(col) -> ChunkTableNP:
    """The numpy chunk decomposition of the encoding (memoized)."""
    vs = _state(col)
    if vs.chunks is None:
        vs.chunks = _build_chunk_table(col)
    return vs.chunks


def _build_chunk_table(col) -> ChunkTableNP:
    ct = cluster_table(col)
    ch = ChunkTableNP()
    ch.fidx = np.flatnonzero(ct.forward)
    ch.bidx = np.flatnonzero(~ct.forward)
    if ch.fidx.size:
        fl = ct.low[ch.fidx]
        fh = ct.high[ch.fidx]
        # Chain maxima increase chunk over chunk, so the within-chain running
        # max high endpoint equals the global one — a new chain starts exactly
        # where a forward zone clears the cumulative max.
        running = np.maximum.accumulate(fh)
        new_chain = np.concatenate(([True], fl[1:] > running[:-1]))
        ch.chain_starts = np.flatnonzero(new_chain)
        ch.chain_low = fl[ch.chain_starts]
        ch.chain_high = np.maximum.reduceat(fh, ch.chain_starts)
    else:
        ch.chain_starts = np.empty(0, dtype=np.int64)
        ch.chain_low = np.empty(0, dtype=np.float64)
        ch.chain_high = np.empty(0, dtype=np.float64)
    if ch.bidx.size and ch.chain_starts.size:
        bl = ct.low[ch.bidx]
        bh = ct.high[ch.bidx]
        pos = np.searchsorted(ch.chain_low, bl, side="right") - 1
        safe = np.maximum(pos, 0)
        ok = (pos >= 0) & (bh <= ch.chain_high[safe])
        ch.b_chunk = np.where(ok, pos, -1)
    else:
        ch.b_chunk = np.full(ch.bidx.size, -1, dtype=np.int64)
    return ch


# ----------------------------------------------------------------------
# FZF Stages 2/3
# ----------------------------------------------------------------------
def _csr_gather(values, starts, counts):
    """Concatenate ``values[starts[i]:starts[i]+counts[i]]`` slices."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=values.dtype)
    before = np.concatenate(([0], np.cumsum(counts)))[:-1]
    src = np.arange(total, dtype=np.int64) + np.repeat(starts - before, counts)
    return values[src]


class FZFOutcome(NamedTuple):
    """Raw result of :func:`fzf_verdict_np`; a YES witness is op indices."""

    ok: bool
    witness: Any
    reason: str
    stats: Dict[str, int]


def fzf_verdict_np(col) -> FZFOutcome:
    """Vectorized twin of :func:`repro.algorithms.fzf.verify_2atomic_fzf`.

    Same verdict, reason string, stats and (op-index) witness over an
    anomaly-free, non-empty encoding.  Trivial chunks — a lone forward
    cluster, no backward clusters — and dangling clusters are handled
    entirely with array ops; the rare irregular chunks run the paper's
    viability routine, :func:`repro.algorithms.fzf.check_viable`, on their
    decoded operations.
    """
    from ..algorithms import fzf  # local: the algorithms build on this module

    ct = cluster_table(col)
    ch = chunk_table(col)
    nch = ch.num_chunks
    cs_ext = np.concatenate((ch.chain_starts, [ch.fidx.size]))
    nf = np.diff(cs_ext)
    dangling_mask = ch.b_chunk < 0
    num_dangling = int(dangling_mask.sum())
    if nch:
        nb = np.bincount(ch.b_chunk[~dangling_mask], minlength=nch)
    else:
        nb = np.zeros(0, dtype=np.int64)
    stats = {
        "chunks": nch,
        "dangling_clusters": num_dangling,
        "orders_tested": 0,
    }
    roff = ct.reads_off
    rsorted = ct.reads_sorted
    trivial = (nf == 1) & (nb == 0)
    nontrivial = np.flatnonzero(~trivial)

    if not nontrivial.size:
        # Fully regular history: every chunk is a lone forward cluster (one
        # candidate order, always viable).  Stitch the chunk and dangling
        # pieces — each "write, then its reads" — ordered by zone low
        # endpoint, ties resolved by insertion order exactly like the object
        # path's stable sort.
        piece_cl = np.concatenate(
            (ch.fidx[ch.chain_starts], ch.bidx[dangling_mask])
        )
        order = np.argsort(ct.low[piece_cl], kind="stable")
        pc = piece_cl[order]
        counts = roff[pc + 1] - roff[pc]
        total_reads = int(counts.sum())
        out = np.empty(int(pc.size) + total_reads, dtype=np.int64)
        piece_off = np.concatenate(([0], np.cumsum(counts + 1)))
        wpos = piece_off[:-1]
        out[wpos] = ct.write[pc]
        if total_reads:
            mask = np.ones(out.size, dtype=bool)
            mask[wpos] = False
            out[mask] = _csr_gather(rsorted, roff[pc], counts)
        stats["orders_tested"] = nch
        return FZFOutcome(True, out, "", stats)

    # Irregular history.  Chunks that are a pure forward *chain* (nf >= 2,
    # no backward clusters) are batch-checked against their first candidate
    # order — the chain order itself — with closed-form conditions
    # (:func:`_chain_order_check`); only chunks with backward clusters and
    # chains whose first order fails fall back to fzf.check_viable, in chunk
    # order so failure reporting and the ``orders_tested`` accounting stay
    # identical to the object path.
    chain_mask = (nf >= 2) & (nb == 0)
    chain_pass, chain_ops_arr, chain_pid = _chain_order_check(col, ct, ch, chain_mask)

    # Chunks contributing exactly one tested order without Python work:
    # trivial chunks and batch-passed chains.
    auto = trivial | (chain_mask & chain_pass)
    auto_cum = np.concatenate(([0], np.cumsum(auto)))
    python_chunks = np.flatnonzero(~trivial & ~auto)
    extra_orders = 0
    fallback_ops: List[np.ndarray] = []
    fallback_pid: List[np.ndarray] = []
    for i in python_chunks.tolist():
        base = int(auto_cum[i]) + extra_orders
        f_cl = ch.fidx[int(cs_ext[i]) : int(cs_ext[i + 1])]
        b_cl = ch.bidx[ch.b_chunk == i]
        if b_cl.size >= 3:
            stats["orders_tested"] = base
            return FZFOutcome(
                False,
                None,
                (
                    f"chunk spanning [{float(ch.chain_low[i]):g}, "
                    f"{float(ch.chain_high[i]):g}] "
                    f"contains {int(b_cl.size)} backward clusters (>= 3), "
                    "so no viable write order exists (Lemma 4.3)"
                ),
                stats,
            )
        # Decode just this chunk; col.operation caches, so the identity
        # checks inside check_viable hold.
        op = col.operation
        dictating: Dict[Any, Any] = {}
        dictated: Dict[Any, Tuple] = {}
        index_of: Dict[Any, int] = {}
        for c in np.concatenate((f_cl, b_cl)).tolist():
            w = int(ct.write[c])
            write = op(w)
            index_of[write] = w
            reads = rsorted[int(roff[c]) : int(roff[c + 1])].tolist()
            dictated[write] = tuple(map(op, reads))
            for r in reads:
                dictating[op(r)] = write
                index_of[op(r)] = r
        orders = fzf.candidate_write_orders(
            [op(int(w)) for w in ct.write[f_cl]], [op(int(w)) for w in ct.write[b_cl]]
        )
        tested = 0
        if chain_mask[i]:
            # The chain order (orders[0]) already failed the batch check.
            orders = orders[1:]
            tested = 1
        chunk_witness: Optional[List[int]] = None
        for order in orders:
            tested += 1
            extended = fzf.check_viable(order, list(index_of), dictating, dictated)
            if extended is not None:
                chunk_witness = [index_of[o] for o in extended]
                break
        if chunk_witness is None:
            stats["orders_tested"] = base + tested
            return FZFOutcome(
                False,
                None,
                (
                    f"no candidate write order is viable for the chunk spanning "
                    f"[{float(ch.chain_low[i]):g}, {float(ch.chain_high[i]):g}] "
                    f"({int(f_cl.size)} forward / "
                    f"{int(b_cl.size)} backward clusters)"
                ),
                stats,
            )
        extra_orders += tested
        fallback_ops.append(np.asarray(chunk_witness, dtype=np.int64))
        fallback_pid.append(np.full(len(chunk_witness), i, dtype=np.int64))

    # Assemble the witness: every chunk (and dangling cluster) is a "piece"
    # keyed by its zone low endpoint; pieces sort stably by that key with
    # insertion order chunks-then-dangling, exactly like the object path.
    tidx = np.flatnonzero(trivial)
    tcl = ch.fidx[ch.chain_starts[tidx]]
    tcounts = roff[tcl + 1] - roff[tcl]
    trivial_ops = np.empty(int(tcl.size) + int(tcounts.sum()), dtype=np.int64)
    toff = np.concatenate(([0], np.cumsum(tcounts + 1)))
    twpos = toff[:-1]
    trivial_ops[twpos] = ct.write[tcl]
    if trivial_ops.size > tcl.size:
        tmask = np.ones(trivial_ops.size, dtype=bool)
        tmask[twpos] = False
        trivial_ops[tmask] = _csr_gather(rsorted, roff[tcl], tcounts)
    trivial_pid = np.repeat(tidx, tcounts + 1)

    dcl = ch.bidx[dangling_mask]
    dcounts = roff[dcl + 1] - roff[dcl]
    dangling_ops = np.empty(int(dcl.size) + int(dcounts.sum()), dtype=np.int64)
    doff = np.concatenate(([0], np.cumsum(dcounts + 1)))
    dwpos = doff[:-1]
    dangling_ops[dwpos] = ct.write[dcl]
    if dangling_ops.size > dcl.size:
        dmask = np.ones(dangling_ops.size, dtype=bool)
        dmask[dwpos] = False
        dangling_ops[dmask] = _csr_gather(rsorted, roff[dcl], dcounts)
    dangling_pid = np.repeat(nch + np.arange(dcl.size, dtype=np.int64), dcounts + 1)

    all_ops = np.concatenate(
        [trivial_ops, chain_ops_arr, *fallback_ops, dangling_ops]
    )
    all_pid = np.concatenate(
        [trivial_pid, chain_pid, *fallback_pid, dangling_pid]
    )
    piece_low = np.concatenate((ch.chain_low, ct.low[dcl]))
    piece_rank = np.empty(piece_low.size, dtype=np.int64)
    piece_rank[np.argsort(piece_low, kind="stable")] = np.arange(piece_low.size)
    witness = all_ops[np.argsort(piece_rank[all_pid], kind="stable")]
    stats["orders_tested"] = int(auto_cum[-1]) + extra_orders
    return FZFOutcome(True, witness, "", stats)


def _segmented_suffix_min(values, off, lengths):
    """Per-segment suffix minimum of ``values`` (segments are contiguous).

    ``off``/``lengths`` delimit the segments.  Iterates over *positions*
    (bounded by the longest segment) when segments are short, over *segments*
    when a few long chains would make the position loop degenerate; both
    variants are exact.
    """
    out = values.copy()
    if not out.size:
        return out
    maxm = int(lengths.max())
    if maxm <= max(64, int(lengths.size)):
        for p in range(maxm - 2, -1, -1):
            idx = off[lengths > p + 1] + p
            out[idx] = np.minimum(out[idx], out[idx + 1])
    else:
        for t in range(int(lengths.size)):
            s, e = int(off[t]), int(off[t]) + int(lengths[t])
            out[s:e] = np.minimum.accumulate(out[s:e][::-1])[::-1]
    return out


def _chain_order_check(col, ct, ch, chain_mask):
    """Batched viability of the *chain order* for pure-forward chunks.

    For a chunk with forward clusters ``w_0..w_{m-1}`` (chain order) and no
    backward clusters, the first candidate order FZF tests is the chain
    itself, and the reverse-greedy viability check of
    :func:`~repro.algorithms.fzf.check_viable` has a closed form.
    With ``sufmin[i] = min(finish[w_i..w_{m-1}])``:

    * a write ``w_j`` survives iff no later write's zone lets an operation
      start after ``w_j``'s finish — ``sufmin[j+1] >= start[w_j]``;
    * a read dictated by ``w_j`` survives iff it is claimed no later than
      step ``j+1`` — ``sufmin[j+2] >= start[r]``;
    * a surviving read lands in segment ``j+1`` iff ``finish[w_{j+1}] <
      start[r]`` (claimed by the successor's suffix scan as a
      predecessor-read), else in segment ``j``.

    Returns ``(chain_pass, ops, pid)``: a per-chunk pass mask plus the
    witness operations of every passing chunk in final piece order with
    their chunk ids (empty arrays when no chunk passes).
    """
    nch = ch.num_chunks
    chain_pass = np.zeros(nch, dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    chain_ids = np.flatnonzero(chain_mask)
    if not chain_ids.size:
        return chain_pass, empty, empty
    cols = _columns(col)
    roff = ct.reads_off
    rsorted = ct.reads_sorted
    cs = ch.chain_starts

    m = np.diff(np.concatenate((cs, [ch.fidx.size])))[chain_ids]
    off = np.concatenate(([0], np.cumsum(m)))[:-1]
    total = int(m.sum())
    cl = _csr_gather(ch.fidx, cs[chain_ids], m)  # clusters, chain-concatenated
    wop = ct.write[cl]
    ws = cols.start[wop]
    wf = cols.finish[wop]
    sufmin = _segmented_suffix_min(wf, off, m)

    pos_in = np.arange(total, dtype=np.int64) - np.repeat(off, m)
    m_el = np.repeat(m, m)
    chain_of = np.repeat(np.arange(chain_ids.size, dtype=np.int64), m)
    fail = np.zeros(chain_ids.size, dtype=bool)

    # Write condition (positions with a successor).
    has_next = pos_in < m_el - 1
    idx = np.flatnonzero(has_next)
    bad_w = idx[sufmin[idx + 1] < ws[idx]]
    fail[chain_of[bad_w]] = True

    # Read conditions.
    counts = roff[cl + 1] - roff[cl]
    rops = _csr_gather(rsorted, roff[cl], counts)
    if rops.size:
        rstart = cols.start[rops]
        rj = np.repeat(pos_in, counts)
        rm = np.repeat(m_el, counts)
        rgpos = np.repeat(np.arange(total, dtype=np.int64), counts)
        rchain = np.repeat(chain_of, counts)
        deep = rj <= rm - 3  # a step >= j+2 exists
        safe2 = np.minimum(rgpos + 2, total - 1)
        bad_r = deep & (sufmin[safe2] < rstart)
        fail[rchain[bad_r]] = True

    chain_pass[chain_ids[~fail]] = True
    el_pass = ~fail[chain_of]
    if not el_pass.any():
        return chain_pass, empty, empty

    # Witness assembly for passing chains: reads go to segment j, or j+1
    # when the successor write finishes before they start; each segment is
    # its write followed by its reads ascending — i.e. order by
    # (chunk, segment, write-before-reads, op index).
    w_keep = np.flatnonzero(el_pass)
    parts_ops = [wop[w_keep]]
    parts_seg = [pos_in[w_keep]]
    parts_tag = [np.zeros(w_keep.size, dtype=np.int8)]
    parts_cid = [chain_of[w_keep]]
    if rops.size:
        r_keep = np.flatnonzero(np.repeat(el_pass, counts))
        if r_keep.size:
            rk_j = rj[r_keep]
            has_succ = rk_j <= rm[r_keep] - 2
            safe1 = np.minimum(rgpos[r_keep] + 1, total - 1)
            rseg = rk_j + (has_succ & (wf[safe1] < rstart[r_keep]))
            parts_ops.append(rops[r_keep])
            parts_seg.append(rseg)
            parts_tag.append(np.ones(r_keep.size, dtype=np.int8))
            parts_cid.append(rchain[r_keep])
    ops = np.concatenate(parts_ops)
    seg = np.concatenate(parts_seg)
    tag = np.concatenate(parts_tag)
    cid = np.concatenate(parts_cid)
    order = np.lexsort((ops, tag, seg, cid))
    return chain_pass, ops[order], chain_ids[cid[order]]


# ----------------------------------------------------------------------
# Result-level wrappers (identical strings/stats to gk.py / fzf.py)
# ----------------------------------------------------------------------
_GK = "GK"
_FZF = "FZF"


def gk_result_np(col) -> VerificationResult:
    """GK verdict over an encoding, vectorized end to end (non-empty input).

    Twin of :func:`repro.algorithms.gk.verify_1atomic`, with the NO-reason
    clusters decoded from the numpy table (no O(n) object work on the NO
    path).
    """
    from .zones import Zone

    if has_anomalies(col):
        return VerificationResult.no(
            1, _GK, reason="history contains Section II-C anomalies"
        )
    violation = gk_violation_np(col)
    stats = {"clusters": col.num_writes}
    if violation is None:
        return VerificationResult.yes(
            1,
            _GK,
            reason="no overlapping forward zones and no backward zone inside a forward zone",
            stats=stats,
        )
    condition, a, b = violation
    ct = cluster_table(col)

    def zone(c: int) -> Zone:
        return Zone(
            min_finish=float(ct.min_finish[c]), max_start=float(ct.max_start[c])
        )

    def value(c: int) -> Hashable:
        return col.value_of(int(ct.write[c]))

    return VerificationResult.no(
        1,
        _GK,
        reason=(
            f"{condition}: cluster of value {value(a)!r} "
            f"(zone {zone(a)!r}) conflicts "
            f"with cluster of value {value(b)!r} "
            f"(zone {zone(b)!r})"
        ),
        stats=stats,
    )


class ColumnarVerdict(NamedTuple):
    """A verdict over an encoding whose YES witness may still be positions.

    When ``positions`` is set, ``result.witness`` is ``None`` and the witness
    is ``times.operations(positions)``: ``positions`` is an ``int32`` array of
    positions into the register's canonical order, and ``times`` is the
    normalised encoding carrying the witness operations' start/finish times.
    The numpy path only runs on distinct timestamps, which normalisation never
    reorders, so the positions index the unnormalised encoding as well.
    """

    result: VerificationResult
    positions: Any = None
    times: Any = None

    def decoded(self) -> VerificationResult:
        """The result with its witness decoded into operations."""
        if self.positions is None:
            return self.result
        witness = self.times.operations(self.positions.tolist())
        return dataclasses.replace(self.result, witness=tuple(witness))


def _fzf_verdict(col) -> ColumnarVerdict:
    """FZF over an encoding, the YES witness left as positions."""
    if has_anomalies(col):
        return ColumnarVerdict(
            VerificationResult.no(
                2, _FZF, reason="history contains Section II-C anomalies"
            )
        )
    outcome = fzf_verdict_np(col)
    if not outcome.ok:
        return ColumnarVerdict(
            VerificationResult.no(2, _FZF, reason=outcome.reason, stats=outcome.stats)
        )
    return ColumnarVerdict(
        VerificationResult.yes(2, _FZF, witness=None, stats=outcome.stats),
        np.asarray(outcome.witness, dtype=np.int32),
        col,
    )


# ----------------------------------------------------------------------
# LBT setup columns
# ----------------------------------------------------------------------
def lbt_setup(history) -> Dict[str, list]:
    """Vectorized construction of :class:`LBTChecker`'s index columns.

    Returns plain Python lists (the epoch loops index Python lists faster
    than numpy scalars) with exactly the contents the object-path setup
    builds: ``h_starts``, ``h_is_write``, ``h_of_w`` (writes sorted by
    ``(finish, op_id)``), ``w_starts``/``w_finishes``, ``dictated_of_w`` and
    ``dictating_w_of_h``.
    """
    from .columnar import columnar_of

    col = columnar_of(history)
    c = _columns(col)
    writes = c.writes
    order = np.lexsort((c.op_ids[writes], c.finish[writes]))
    h_of_w = writes[order]
    rank_of_ord = np.empty(writes.size, dtype=np.int64)
    rank_of_ord[order] = np.arange(writes.size, dtype=np.int64)
    reads = c.reads
    dictating_w_of_h = np.full(col.n, -1, dtype=np.int64)
    dictated_of_w: List[List[int]] = [[] for _ in range(int(writes.size))]
    if reads.size:
        # Reads of never-written values keep -1, exactly like the object
        # setup (verify() reports the anomaly before the columns matter).
        d = c.dictating[reads]
        reads = reads[d >= 0]
    if reads.size:
        wi_of_read = rank_of_ord[c.write_ord[c.dictating[reads]]]
        dictating_w_of_h[reads] = wi_of_read
        o2 = np.argsort(wi_of_read, kind="stable")
        reads_sorted = reads[o2]
        counts = np.bincount(wi_of_read, minlength=int(writes.size))
        off = np.concatenate(([0], np.cumsum(counts)))
        for wi in range(int(writes.size)):
            dictated_of_w[wi] = reads_sorted[off[wi] : off[wi + 1]].tolist()
    return {
        "h_starts": c.start.tolist(),
        "h_is_write": (c.is_write != 0).tolist(),
        "h_of_w": h_of_w.tolist(),
        "w_starts": c.start[h_of_w].tolist(),
        "w_finishes": c.finish[h_of_w].tolist(),
        "dictated_of_w": dictated_of_w,
        "dictating_w_of_h": dictating_w_of_h.tolist(),
    }


# ----------------------------------------------------------------------
# Building encodings straight from numpy columns (the .rcol read path)
# ----------------------------------------------------------------------
def columnar_from_numpy(
    *,
    key: Optional[Hashable],
    start,
    finish,
    is_write,
    value_id,
    values,
    op_ids,
    weights=None,
    client_id=None,
    clients=None,
    has_key: bool = True,
):
    """Build a :class:`ColumnarHistory` from (possibly memmap-backed) columns.

    The vectorized twin of ``ColumnarHistory.from_rows`` for pre-sorted,
    pre-validated columns: the derived links (writer table, dictating
    indices, write ordinals) are built with array ops instead of Python
    loops, and the decoded-operation cache is sparse, so constructing the
    encoding of a multi-million-operation register allocates a few index
    arrays — never a per-operation object.

    ``values`` may be any sequence (including a lazily-decoding one); only
    duplicate-write errors and per-operation decoding index into it.
    """
    from .columnar import ColumnarHistory
    from .errors import DuplicateValueError

    n = int(start.shape[0])
    col = ColumnarHistory()
    col.key = key
    col.n = n
    col.start = start
    col.finish = finish
    col.is_write = is_write
    col.has_key = (
        np.ones(n, dtype=np.uint8) if has_key else np.zeros(n, dtype=np.uint8)
    )
    col.value_id = value_id
    col.op_ids = op_ids
    col.values = values
    col.weights = (
        weights if weights is not None else np.ones(n, dtype=np.int64)
    )
    if client_id is not None:
        col.client_id = client_id
        col.clients = list(clients or [])
    else:
        col.client_id = np.full(n, -1, dtype=np.int32)
        col.clients = []
    col._ops = _SparseOps()

    iw = _as_np(is_write, np.uint8)
    vid = _as_np(value_id, np.int32)
    writes = np.flatnonzero(iw)
    wvals = vid[writes]
    if writes.size:
        order = np.argsort(wvals, kind="stable")
        sv = wvals[order]
        dup = np.flatnonzero(sv[1:] == sv[:-1])
        if dup.size:
            # Report the same pair as the sequential scan: it trips on the
            # globally earliest *second* write of any duplicated value, and
            # pairs it with that value's first write.
            seconds = writes[order[dup + 1]]
            j = int(dup[int(np.argmin(seconds))])
            first, second = int(writes[order[j]]), int(writes[order[j + 1]])
            raise DuplicateValueError(
                f"two writes assign the value {values[int(sv[j])]!r} "
                f"(operations #{int(op_ids[first])} and "
                f"#{int(op_ids[second])}); the model requires uniquely-valued "
                "writes (Section II-C)"
            )
    write_of_value = np.full(len(values), -1, dtype=np.int32)
    write_of_value[wvals] = writes.astype(np.int32)
    write_ord = np.where(
        iw != 0, np.cumsum(iw, dtype=np.int64) - 1, -1
    ).astype(np.int32)
    dictating = np.where(
        iw != 0, np.arange(n, dtype=np.int32), write_of_value[vid]
    )
    col.write_of_value = write_of_value
    col.write_ord = write_ord
    col.dictating = dictating
    col.writes_idx = writes
    return col


def _with_finish(col, finish):
    """A normalised sibling of ``col`` sharing every column except finish."""
    from .columnar import ColumnarHistory

    # Encodings built from a History defer the decode-only columns; the
    # sibling decodes lazily, so it needs them materialised.
    col._ensure_decode_columns()
    out = ColumnarHistory()
    out.key = col.key
    out.n = col.n
    out.start = col.start
    out.finish = finish
    out.is_write = col.is_write
    out.has_key = col.has_key
    out.value_id = col.value_id
    out.client_id = col.client_id
    out.op_ids = col.op_ids
    out.weights = col.weights
    out.values = col.values
    out.clients = col.clients
    # The derived links are timestamp-independent; share them.
    out.write_of_value = col.write_of_value
    out.dictating = col.dictating
    out.write_ord = col.write_ord
    out.writes_idx = col.writes_idx
    out._ops = _SparseOps() if isinstance(col._ops, _SparseOps) else [None] * col.n
    return out


# ----------------------------------------------------------------------
# Kernel-level verification (no Operation materialisation)
# ----------------------------------------------------------------------
def _anomaly_result_np(col, k: int) -> Optional[VerificationResult]:
    """Replicate ``api.verify``'s preprocess NO verdict, decoding only the
    (at most three) described anomalies."""
    c = _columns(col)
    r = c.reads
    if not r.size:
        return None
    d = c.dictating[r]
    bad = (d < 0) | (c.finish[r] < c.start[np.maximum(d, 0)])
    idx = np.flatnonzero(bad)
    if not idx.size:
        return None
    from .preprocess import Anomaly, AnomalyKind

    described = []
    for j in idx[:3].tolist():
        read_op = col.operation(int(r[j]))
        w = int(d[j])
        if w < 0:
            described.append(Anomaly(AnomalyKind.READ_WITHOUT_WRITE, read_op))
        else:
            described.append(
                Anomaly(AnomalyKind.READ_BEFORE_WRITE, read_op, col.operation(w))
            )
    reasons = "; ".join(a.describe() for a in described)
    more = "" if idx.size <= 3 else f" (+{int(idx.size) - 3} more)"
    return VerificationResult.no(
        k,
        "preprocess",
        reason=f"history contains anomalies that rule out k-atomicity: {reasons}{more}",
    )


def _normalized_columnar(col, *, epsilon: float = 1e-9):
    """Vectorized replica of :func:`repro.core.preprocess.normalize`.

    Returns the normalised encoding (possibly ``col`` itself when already
    normal), or ``None`` when the history has timestamp ties — the
    sequential tie-perturbation is not order-free, so those (rare, clock
    granularity) cases take the materialised object path instead.
    """
    c = _columns(col)
    ts = np.concatenate((c.start, c.finish))
    if np.unique(ts).size != ts.size:
        return None
    r = c.reads
    if not r.size:
        return col
    d = c.dictating[r]
    order = np.argsort(d, kind="stable")
    sd = d[order]
    grp = np.flatnonzero(np.concatenate(([True], sd[1:] != sd[:-1])))
    uw = sd[grp].astype(np.int64)  # write op indices that have reads
    mrf = np.minimum.reduceat(c.finish[r[order]], grp)  # min read finish
    wf = c.finish[uw]
    ws = c.start[uw]
    shorten = wf >= mrf
    if not bool(shorten.any()):
        return col
    # Same float arithmetic as shorten_writes(), element-wise.
    new_finish = mrf - epsilon
    degenerate = new_finish <= ws
    halfway = ws + (mrf - ws) / 2.0
    new_finish = np.where(degenerate, halfway, new_finish)
    apply = shorten & (new_finish > ws)
    if not bool(apply.any()):
        return col
    finish2 = c.finish.copy()
    finish2[uw[apply]] = new_finish[apply]
    # Step 4 of normalize(): shortening may land a finish exactly on an
    # existing timestamp; distinct-timestamp histories stay on the fast path,
    # collisions fall back to the object perturbation.
    ts2 = np.concatenate((c.start, finish2))
    if np.unique(ts2).size != ts2.size:
        return None
    return _with_finish(col, finish2)


def verify_columnar(
    col,
    k: int,
    *,
    algorithm: str = "auto",
    preprocess: bool = True,
    max_exact_ops: int = 40,
    kernel: Optional[str] = None,
    decode_witness: bool = True,
) -> VerificationResult:
    """Verify a :class:`ColumnarHistory` without materialising operations.

    The kernel-level twin of :func:`repro.core.api.verify`: identical
    verdicts, reasons and stats for every input, with Operation objects
    decoded only where a result needs them (NO-reasons, anomaly
    descriptions, and — unless ``decode_witness=False`` — YES witnesses).

    Falls back to the materialised object path whenever exactness demands it:
    ``kernel="object"``, timestamp ties during normalisation, and the
    LBT/exact algorithms (``k >= 3``).  Those paths always decode their
    witness.
    """
    verdict = columnar_verdict(
        col,
        k,
        algorithm=algorithm,
        preprocess=preprocess,
        max_exact_ops=max_exact_ops,
        kernel=kernel,
    )
    return verdict.decoded() if decode_witness else verdict.result


def columnar_verdict(
    col,
    k: int,
    *,
    algorithm: str = "auto",
    preprocess: bool = True,
    max_exact_ops: int = 40,
    kernel: Optional[str] = None,
) -> ColumnarVerdict:
    """:func:`verify_columnar` with a numpy-path YES witness kept as positions.

    The engine's process workers ship those positions back to the host
    instead of operations; every fallback returns its decoded result.
    """
    if k < 1:
        raise VerificationError(f"k must be a positive integer, got {k!r}")
    resolved = resolve_kernel(kernel)

    def materialised(history_preprocess: bool) -> ColumnarVerdict:
        from .api import verify

        return ColumnarVerdict(
            verify(
                col.to_history(),
                k,
                algorithm=algorithm,
                preprocess=history_preprocess,
                max_exact_ops=max_exact_ops,
                kernel=kernel,
            )
        )

    if resolved != "numpy" or col.n == 0:
        return materialised(preprocess)
    work = col
    if preprocess:
        anomalous = _anomaly_result_np(col, k)
        if anomalous is not None:
            return ColumnarVerdict(anomalous)
        work = _normalized_columnar(col)
        if work is None:  # timestamp ties: sequential perturbation required
            return materialised(True)
    name = algorithm
    if algorithm == "auto":
        if k == 1:
            name = "gk"
        elif k == 2:
            name = "fzf"
        elif work.n > max_exact_ops:
            raise VerificationError(
                f"k={k} requires the exact (exponential) oracle, but the history has "
                f"{work.n} operations (> max_exact_ops={max_exact_ops}); "
                "no polynomial algorithm for k >= 3 is known (the paper leaves it open). "
                "Pass algorithm='exact' or raise max_exact_ops to force the search."
            )
        else:
            name = "exact"
    from ..algorithms.registry import get_algorithm

    spec = get_algorithm(name)
    if not spec.supports(k):
        raise VerificationError(
            f"algorithm {spec.name!r} cannot decide {k}-atomicity; "
            f"it supports k in {tuple(spec.supported_k)}"
        )
    if spec.name == "gk":
        return ColumnarVerdict(gk_result_np(work))
    if spec.name == "fzf":
        return _fzf_verdict(work)
    # LBT variants and the exact oracle need the object model; materialise
    # just this register (already normalised, so preprocessing is done).
    from .api import verify

    return ColumnarVerdict(
        verify(
            work.to_history(),
            k,
            algorithm=name,
            preprocess=False,
            max_exact_ops=max_exact_ops,
        )
    )
