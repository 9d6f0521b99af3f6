"""FZF — "Forward Zones First" 2-atomicity verification (Section IV).

FZF decides 2-atomicity in ``O(n log n)`` time even in the worst case.  It
runs in three stages:

* **Stage 1** splits the history into the *chunk set* ``CS(H)`` — maximal
  chunks whose forward zones form continuous intervals — plus *dangling*
  backward clusters (implemented in :mod:`repro.core.chunks`).
* **Stage 2** examines each chunk ``K`` independently.  It builds the order
  ``T_F`` of forward-cluster dictating writes by increasing zone low endpoint
  and its first-two-swapped variant ``T'_F`` (Lemma 4.2 shows no other order
  over the forward writes can be viable), extends them with the at most two
  backward-cluster writes prepended/appended (Lemma 4.3; three or more
  backward clusters are an immediate NO), and tests each candidate order for
  *viability* with a simplified, non-backtracking LBT pass.
* **Stage 3** outputs YES iff every chunk admitted a viable order
  (Lemma 4.1 stitches the per-chunk orders and the dangling clusters into a
  witness for the full history).

The implementation returns a witness total order on YES by concatenating the
per-chunk witnesses and the dangling clusters in increasing order of their low
endpoints, which extends the ``<=_H`` relation used in the Lemma 4.1 proof.

This module is the reference.  The default ``numpy`` kernel
(:func:`repro.core.vector.fzf_verdict_np`) vectorizes Stages 1 and 3 and the
common chunk shapes, and hands every other chunk to :func:`check_viable` and
:func:`candidate_write_orders` here, so each concept has one implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import vector
from ..core.columnar import columnar_of
from ..core.chunks import Chunk, compute_chunk_set
from ..core.history import History
from ..core.operation import Operation
from ..core.preprocess import has_anomalies, normalize
from ..core.result import VerificationResult
from ..core.zones import Cluster, build_clusters

__all__ = [
    "verify_2atomic_fzf",
    "is_2atomic_fzf",
    "check_viable",
    "candidate_orders",
    "candidate_write_orders",
]

_ALGORITHM = "FZF"


# ======================================================================
# Viability subroutine (simplified LBT, Section IV-C)
# ======================================================================
def check_viable(
    order: Sequence[Operation],
    chunk_ops: Sequence[Operation],
    dictating: Dict[Operation, Operation],
    dictated: Dict[Operation, Tuple[Operation, ...]],
) -> Optional[List[Operation]]:
    """Test whether a write order is *viable* for a chunk.

    ``order`` is a candidate total order over **all** dictating writes of the
    chunk; ``chunk_ops`` are all operations of the chunk (``H|K``).  The order
    is viable iff it extends to a valid 2-atomic total order over
    ``chunk_ops``.  Following Section IV-C, the test processes the writes of
    ``order`` in reverse, without backtracking: the operations that start
    after the current write's finish must all be reads dictated either by the
    current write or by its immediate predecessor in ``order`` (otherwise some
    write would end up with separation at least two), and each such read is
    placed immediately after the current write.

    Returns the extended total order (a witness over ``chunk_ops``) when the
    order is viable, or ``None`` otherwise.

    The pass runs in ``O(m log m)`` time for a chunk with ``m`` operations:
    the chunk's operations are sorted by start time once, after which the
    operations starting after each write's finish form a suffix that is
    consumed by a linked-list walk with O(1) removals.
    """
    order = list(order)
    ops = sorted(chunk_ops, key=lambda o: (o.start, o.finish, o.op_id))
    n = len(ops)
    index = {op: i for i, op in enumerate(ops)}
    if len(index) != n:
        return None
    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    if n:
        nxt[n - 1] = -1
    tail = n - 1
    removed = [False] * n
    remaining_count = n

    def remove(i: int) -> None:
        nonlocal tail, remaining_count
        if removed[i]:
            return
        p, nx = prev[i], nxt[i]
        if p != -1:
            nxt[p] = nx
        if nx != -1:
            prev[nx] = p
        else:
            tail = p
        removed[i] = True
        remaining_count -= 1

    segments: List[List[Operation]] = []
    for i in range(len(order) - 1, -1, -1):
        w = order[i]
        pred = order[i - 1] if i > 0 else None
        w_idx = index.get(w)
        if w_idx is None or removed[w_idx]:
            return None
        container: List[Operation] = []
        # Operations starting after w.finish form a suffix of the remaining
        # operations sorted by start time.
        j = tail
        while j != -1 and ops[j].start > w.finish:
            op = ops[j]
            nxt_j = prev[j]
            if op.is_write:
                # A later-ordered write starts after w finishes: the candidate
                # order contradicts the precedence partial order.
                return None
            dw = dictating.get(op)
            if dw is not w and dw is not pred:
                return None
            container.append(op)
            remove(j)
            j = nxt_j
        for r in dictated.get(w, ()):
            r_idx = index.get(r)
            if r_idx is not None and not removed[r_idx]:
                container.append(r)
                remove(r_idx)
        remove(w_idx)
        container.sort(key=lambda o: (o.start, o.finish, o.op_id))
        segments.append([w] + container)
    if remaining_count:
        # Some operation was never placed (e.g. a read whose dictating write
        # is not part of the candidate order) — not a viable extension.
        return None
    witness: List[Operation] = []
    for segment in reversed(segments):
        witness.extend(segment)
    return witness


# ======================================================================
# Candidate order construction (Stage 2)
# ======================================================================
def candidate_orders(chunk: Chunk) -> List[Tuple[Operation, ...]]:
    """Build the candidate write orders FZF tests for a chunk.

    Following Figure 4: ``T_F`` orders the forward-cluster writes by
    increasing zone low endpoint and ``T'_F`` swaps its first two elements;
    with ``B`` backward clusters the candidates are

    * ``B = 0``: ``{T_F, T'_F}``,
    * ``B = 1``: ``{w·T_F, T_F·w, w·T'_F, T'_F·w}``,
    * ``B = 2``: ``{w1·T_F·w2, w2·T_F·w1, w1·T'_F·w2, w2·T'_F·w1}``,
    * ``B >= 3``: the empty set (the chunk — hence the history — is not
      2-atomic, Lemma 4.3 Case 4).

    Duplicate orders (e.g. when ``T_F = T'_F``) are removed while preserving
    the order in which Figure 4 lists them.
    """
    return candidate_write_orders(
        [cl.write for cl in chunk.forward_clusters],
        [cl.write for cl in chunk.backward_clusters],
    )


def candidate_write_orders(
    forward_writes: Sequence[Operation], backward_writes: Sequence[Operation]
) -> List[Tuple[Operation, ...]]:
    """:func:`candidate_orders` over a chunk's writes: ``forward_writes`` in
    ``T_F`` order (increasing zone low endpoint) and the backward-cluster
    writes."""
    tf = tuple(forward_writes)
    if len(tf) >= 2:
        tf_prime = (tf[1], tf[0]) + tf[2:]
    else:
        tf_prime = tf
    b = len(backward_writes)
    raw: List[Tuple[Operation, ...]]
    if b == 0:
        raw = [tf, tf_prime]
    elif b == 1:
        w = backward_writes[0]
        raw = [(w,) + tf, tf + (w,), (w,) + tf_prime, tf_prime + (w,)]
    elif b == 2:
        w1, w2 = backward_writes
        raw = [
            (w1,) + tf + (w2,),
            (w2,) + tf + (w1,),
            (w1,) + tf_prime + (w2,),
            (w2,) + tf_prime + (w1,),
        ]
    else:
        raw = []
    seen = set()
    unique: List[Tuple[Operation, ...]] = []
    for order in raw:
        key = tuple(op.op_id for op in order)
        if key not in seen:
            seen.add(key)
            unique.append(order)
    return unique


def _dangling_witness(cluster: Cluster) -> List[Operation]:
    """A valid 2-atomic (indeed 1-atomic) order for a single dangling cluster.

    A dangling cluster is backward, so all of its operations are pairwise
    concurrent; placing the write first and its reads afterwards (by start
    time) is a valid 1-atomic order.
    """
    return [cluster.write] + sorted(
        cluster.reads, key=lambda o: (o.start, o.finish, o.op_id)
    )


# ======================================================================
# The full algorithm
# ======================================================================
def verify_2atomic_fzf(
    history: History,
    *,
    preprocess: bool = False,
    kernel: Optional[str] = None,
) -> VerificationResult:
    """Decide whether ``history`` is 2-atomic using FZF.

    Parameters
    ----------
    history:
        The history to verify.  Must satisfy the Section II-C assumptions
        unless ``preprocess=True``.
    preprocess:
        When true, normalise the history first (timestamp tie-breaking and
        write shortening); anomalous histories yield a NO verdict.
    kernel:
        ``"object"`` (this module, the reference) or ``"numpy"``
        (:func:`repro.core.vector.fzf_verdict_np`, the default): identical
        verdicts, reasons and stats; the numpy run decodes indices back to
        operations only for the witness.

    Returns
    -------
    VerificationResult
        YES with a stitched witness order, or NO naming the chunk that failed.
    """
    if history.is_empty:
        return VerificationResult.yes(2, _ALGORITHM, witness=())
    if vector.resolve_kernel(kernel) == "numpy":
        if preprocess:
            # Check anomalies on the raw history (cheap object scan, cached)
            # so only the normalised history gets encoded.
            if has_anomalies(history):
                return VerificationResult.no(
                    2, _ALGORITHM, reason="history contains Section II-C anomalies"
                )
            history = normalize(history)
            col = columnar_of(history)
        else:
            col = columnar_of(history)
            if vector.has_anomalies(col):
                return VerificationResult.no(
                    2, _ALGORITHM, reason="history contains Section II-C anomalies"
                )
        outcome = vector.fzf_verdict_np(col)
        if not outcome.ok:
            return VerificationResult.no(
                2, _ALGORITHM, reason=outcome.reason, stats=outcome.stats
            )
        ops = history.operations
        return VerificationResult.yes(
            2,
            _ALGORITHM,
            witness=[ops[i] for i in outcome.witness],
            stats=outcome.stats,
        )
    if has_anomalies(history):
        return VerificationResult.no(
            2, _ALGORITHM, reason="history contains Section II-C anomalies"
        )
    if preprocess:
        history = normalize(history)

    clusters = build_clusters(history)
    chunk_set = compute_chunk_set(history, clusters)
    dictating = {r: history.dictating_write(r) for r in history.reads}
    dictated = {w: history.dictated_reads(w) for w in history.writes}

    stats = {
        "chunks": chunk_set.num_chunks,
        "dangling_clusters": chunk_set.num_dangling,
        "orders_tested": 0,
    }

    # Stage 2: test each maximal chunk.
    pieces: List[Tuple[float, List[Operation]]] = []
    for chunk in chunk_set.chunks:
        if chunk.num_backward >= 3:
            return VerificationResult.no(
                2,
                _ALGORITHM,
                reason=(
                    f"chunk spanning [{chunk.interval[0]:g}, {chunk.interval[1]:g}] "
                    f"contains {chunk.num_backward} backward clusters (>= 3), "
                    "so no viable write order exists (Lemma 4.3)"
                ),
                stats=stats,
            )
        chunk_ops = chunk.operations()
        chunk_witness: Optional[List[Operation]] = None
        for order in candidate_orders(chunk):
            stats["orders_tested"] += 1
            extended = check_viable(order, chunk_ops, dictating, dictated)
            if extended is not None:
                chunk_witness = extended
                break
        if chunk_witness is None:
            return VerificationResult.no(
                2,
                _ALGORITHM,
                reason=(
                    f"no candidate write order is viable for the chunk spanning "
                    f"[{chunk.interval[0]:g}, {chunk.interval[1]:g}] "
                    f"({chunk.num_forward} forward / {chunk.num_backward} backward clusters)"
                ),
                stats=stats,
            )
        pieces.append((chunk.low, chunk_witness))

    # Dangling clusters are individually 1-atomic; order all pieces by their
    # low endpoint, which extends the <=_H partial order of Lemma 4.1.
    for cluster in chunk_set.dangling:
        pieces.append((cluster.zone.low, _dangling_witness(cluster)))
    pieces.sort(key=lambda item: item[0])
    witness: List[Operation] = []
    for _, piece in pieces:
        witness.extend(piece)

    # Stage 3.
    return VerificationResult.yes(2, _ALGORITHM, witness=witness, stats=stats)


def is_2atomic_fzf(history: History, *, preprocess: bool = False) -> bool:
    """Boolean convenience wrapper around :func:`verify_2atomic_fzf`."""
    return bool(verify_2atomic_fzf(history, preprocess=preprocess))
