"""Compact binary codecs for shard work crossing the process boundary.

Both directions of a process-executor shard travel as *columns*, never as
pickled :class:`~repro.core.operation.Operation` object graphs (well over a
hundred bytes and a lot of pickler time per operation).

**Tasks** (:func:`encode_shard_items`).  Each register history is converted to
its columnar encoding (:meth:`~repro.core.columnar.ColumnarHistory.to_columns`
— raw ``array`` buffers plus the small interning side tables) and the whole
shard is pickled as a flat list of those tuples: roughly 40–50 bytes per
operation.  The worker verifies each register straight from those columns
(:meth:`~repro.core.columnar.ColumnarHistory.from_columns` and
:func:`repro.core.vector.columnar_verdict`); it builds no ``History`` and
decodes no operation on the numpy YES path.

**Results** (:func:`encode_shard_results`).  Verdict, algorithm, reason and
stats travel as plain values; a YES witness travels as an ``int32`` array of
positions into the register's canonical order, plus the normalised start and
finish times of the positions that normalisation moved.  A fallback result
whose witness the worker did decode (timestamp ties, LBT, the exact oracle,
non-numpy kernels) is encoded the same way, by op id → position.  The host
holds every register's :class:`~repro.core.history.History` and rebuilds each
witness from those operations (:func:`decode_shard_results`), with copies
carrying the moved times: about 4 bytes per witness operation instead of a
pickled operation.
"""

from __future__ import annotations

import pickle
from array import array
from typing import Any, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.columnar import ColumnarHistory, columnar_of
from ..core.history import History
from ..core.operation import Operation, OpType, trusted_operation
from ..core.result import VerificationResult

__all__ = [
    "encode_shard_items",
    "decode_shard_items",
    "decode_shard_columns",
    "encode_shard_results",
    "decode_shard_results",
    "encode_feed_batches",
    "decode_feed_batches",
]

#: Bump when the column layout changes incompatibly.
_CODEC_VERSION = 1

#: Separate version for the shard-result layout.
_RESULT_CODEC_VERSION = 1

#: Separate version for the stream-order feed-batch layout below.
_BATCH_CODEC_VERSION = 1


def encode_shard_items(
    items: Sequence[Tuple[Hashable, History]]
) -> bytes:
    """Serialise ``(key, History)`` pairs as compact column buffers."""
    payload = [
        (key, columnar_of(history).to_columns()) for key, history in items
    ]
    return pickle.dumps((_CODEC_VERSION, payload), protocol=pickle.HIGHEST_PROTOCOL)


def decode_shard_columns(blob: bytes) -> List[Tuple[Hashable, ColumnarHistory]]:
    """The ``(key, ColumnarHistory)`` pairs encoded by :func:`encode_shard_items`."""
    version, payload = pickle.loads(blob)
    if version != _CODEC_VERSION:
        raise ValueError(
            f"unsupported shard codec version {version!r} (expected {_CODEC_VERSION})"
        )
    return [(key, ColumnarHistory.from_columns(columns)) for key, columns in payload]


def decode_shard_items(blob: bytes) -> List[Tuple[Hashable, History]]:
    """Rebuild the ``(key, History)`` pairs encoded by :func:`encode_shard_items`.

    Each history comes back with its columnar encoding pre-cached, so the
    verifiers' fast path needs no re-encoding.
    """
    return [(key, col.to_history()) for key, col in decode_shard_columns(blob)]


def encode_shard_results(entries: Iterable[Tuple[Hashable, ColumnarHistory, Any]]) -> bytes:
    """Serialise ``(key, col, verdict)`` triples for the trip back to the host.

    ``col`` is the register's encoding as the worker received it and
    ``verdict`` its :class:`~repro.core.vector.ColumnarVerdict`.  The inverse
    is :func:`decode_shard_results`.
    """
    payload = []
    for key, col, verdict in entries:
        result = verdict.result
        payload.append(
            (
                key,
                result.is_k_atomic,
                result.k,
                result.algorithm,
                result.reason,
                result.stats,
                _encode_witness(col, verdict),
            )
        )
    return pickle.dumps((_RESULT_CODEC_VERSION, payload), protocol=pickle.HIGHEST_PROTOCOL)


def _encode_witness(col: ColumnarHistory, verdict: Any) -> Optional[Tuple]:
    """``(positions, moved)`` for a witness, ``None`` without one.

    ``moved`` is ``None`` when every witness operation keeps its times, else
    ``(positions, starts, finishes)`` of the operations normalisation moved.
    """
    if verdict.positions is not None:
        positions = verdict.positions
        moved = None
        if verdict.times is not col:
            from ..core import vector  # numpy is present on this path

            np = vector.np
            was, now = vector._columns(col), vector._columns(verdict.times)
            where = np.flatnonzero((was.start != now.start) | (was.finish != now.finish))
            if where.size:
                moved = (
                    where.astype(np.int32).tobytes(),
                    now.start[where].tobytes(),
                    now.finish[where].tobytes(),
                )
        return positions.tobytes(), moved
    witness = verdict.result.witness
    if witness is None:
        return None
    # A witness the worker decoded: map it back by op id (an operation's
    # identity) and keep the times of the operations normalisation moved.
    position_of = {op_id: i for i, op_id in enumerate(col.op_ids)}
    positions = array("i", [position_of[op.op_id] for op in witness])
    start, finish = col.start, col.finish
    moved_at = array("i")
    moved_start = array("d")
    moved_finish = array("d")
    for i, op in zip(positions, witness):
        if op.start != start[i] or op.finish != finish[i]:
            moved_at.append(i)
            moved_start.append(op.start)
            moved_finish.append(op.finish)
    moved = None
    if moved_at:
        moved = (moved_at.tobytes(), moved_start.tobytes(), moved_finish.tobytes())
    return positions.tobytes(), moved


def decode_shard_results(
    blob: bytes, histories: Mapping[Hashable, History]
) -> List[Tuple[Hashable, VerificationResult]]:
    """Rebuild the ``(key, VerificationResult)`` pairs of :func:`encode_shard_results`.

    ``histories`` maps every register key in the shard to the history the
    task was built from; witnesses are rebuilt from its operations.
    """
    version, payload = pickle.loads(blob)
    if version != _RESULT_CODEC_VERSION:
        raise ValueError(
            f"unsupported shard-result codec version {version!r} "
            f"(expected {_RESULT_CODEC_VERSION})"
        )
    results = []
    for key, ok, k, algorithm, reason, stats, witness in payload:
        if witness is not None:
            witness = _decode_witness(histories[key].operations, *witness)
        results.append(
            (
                key,
                VerificationResult(
                    is_k_atomic=ok,
                    k=k,
                    algorithm=algorithm,
                    witness=witness,
                    reason=reason,
                    stats=stats,
                ),
            )
        )
    return results


def _decode_witness(
    ops: Sequence[Operation], positions_b: bytes, moved: Optional[Tuple]
) -> Tuple[Operation, ...]:
    positions = array("i")
    positions.frombytes(positions_b)
    if moved is not None:
        ops = list(ops)
        at, starts, finishes = array("i"), array("d"), array("d")
        at.frombytes(moved[0])
        starts.frombytes(moved[1])
        finishes.frombytes(moved[2])
        for i, start, finish in zip(at, starts, finishes):
            op = ops[i]
            # The worker's normalisation kept finish > start.
            ops[i] = trusted_operation(
                op.op_type,
                op.value,
                start,
                finish,
                key=op.key,
                client=op.client,
                op_id=op.op_id,
                weight=op.weight,
            )
    return tuple([ops[i] for i in positions])


# ----------------------------------------------------------------------
# Feed batches: stream-order operation sequences for the worker pool
# ----------------------------------------------------------------------
# The shard-item codec above ships *whole register histories* in canonical
# (start, finish, id) order — right for batch shard tasks, wrong for the
# audit pool, whose incremental checkers must see each register's operations
# in *stream* order with their original op ids (verdict parity with the
# single-process path is id- and order-sensitive).  A feed batch therefore
# keeps the operations exactly as fed and columnarises them positionally:
# type flags, timestamp arrays, id arrays, interned values/clients, with the
# uniform columns (all-1 weights, no clients, the batch-wide register key)
# collapsed to single values.  Same wire economics as the shard codec
# (~35-40 B/op), no canonicalisation.


def _encode_ops(ops: Sequence[Operation]) -> Tuple:
    is_write = bytearray(len(ops))
    start = array("d")
    finish = array("d")
    op_ids = array("q")
    value_ids = array("i")
    weights = array("q")
    values: List[Hashable] = []
    value_index: dict = {}
    clients: List[Hashable] = []
    client_index: dict = {}
    client_ids = array("i")
    any_client = False
    any_weight = False
    for i, op in enumerate(ops):
        if op.is_write:
            is_write[i] = 1
        start.append(op.start)
        finish.append(op.finish)
        op_ids.append(op.op_id)
        weights.append(op.weight)
        if op.weight != 1:
            any_weight = True
        value_id = value_index.get(op.value)
        if value_id is None:
            value_id = value_index[op.value] = len(values)
            values.append(op.value)
        value_ids.append(value_id)
        if op.client is None:
            client_ids.append(-1)
        else:
            any_client = True
            client_id = client_index.get(op.client)
            if client_id is None:
                client_id = client_index[op.client] = len(clients)
                clients.append(op.client)
            client_ids.append(client_id)
    return (
        len(ops),
        bytes(is_write),
        start.tobytes(),
        finish.tobytes(),
        op_ids.tobytes(),
        value_ids.tobytes(),
        values,
        None if not any_client else (client_ids.tobytes(), clients),
        None if not any_weight else weights.tobytes(),
    )


def _decode_ops(columns: Tuple, key: Hashable) -> List[Operation]:
    n, is_write, start_b, finish_b, op_ids_b, value_ids_b, values, client_cols, weights_b = columns
    start = array("d")
    start.frombytes(start_b)
    finish = array("d")
    finish.frombytes(finish_b)
    op_ids = array("q")
    op_ids.frombytes(op_ids_b)
    value_ids = array("i")
    value_ids.frombytes(value_ids_b)
    if client_cols is not None:
        client_ids = array("i")
        client_ids.frombytes(client_cols[0])
        clients = client_cols[1]
    if weights_b is not None:
        weights = array("q")
        weights.frombytes(weights_b)
    ops: List[Operation] = []
    for i in range(n):
        client = None
        if client_cols is not None and client_ids[i] >= 0:
            client = clients[client_ids[i]]
        ops.append(
            trusted_operation(
                OpType.WRITE if is_write[i] else OpType.READ,
                values[value_ids[i]],
                start[i],
                finish[i],
                key=key,
                client=client,
                op_id=op_ids[i],
                weight=weights[i] if weights_b is not None else 1,
            )
        )
    return ops


def encode_feed_batches(
    batches: Sequence[Tuple[Hashable, Sequence[Operation]]]
) -> bytes:
    """Serialise ``(register_key, ops-in-stream-order)`` batches compactly.

    Each batch is one register's slice of a closed window, exactly as the
    event loop would have fed it to an in-process checker.  Operation order,
    ids, clients and weights survive the round trip bit-for-bit — the
    contract that makes pooled verdict streams identical to single-process
    ones.  Every operation in a batch must carry the batch's register key
    (the service groups by ``op.key``, so this holds by construction).
    """
    payload = [(key, _encode_ops(ops)) for key, ops in batches]
    return pickle.dumps(
        (_BATCH_CODEC_VERSION, payload), protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_feed_batches(blob: bytes) -> List[Tuple[Hashable, List[Operation]]]:
    """Rebuild the ``(register_key, ops)`` batches from :func:`encode_feed_batches`."""
    version, payload = pickle.loads(blob)
    if version != _BATCH_CODEC_VERSION:
        raise ValueError(
            f"unsupported feed-batch codec version {version!r} "
            f"(expected {_BATCH_CODEC_VERSION})"
        )
    return [(key, _decode_ops(columns, key)) for key, columns in payload]
