"""The sharded verification engine.

Pipeline (each stage pluggable):

1. **Ingestion** — a trace *file* (:meth:`Engine.verify_file`) is read as
   per-register columns and never as one operation object per record.  JSONL
   is cut into newline-aligned byte ranges that a decode round on the
   engine's own executor turns into column fragments
   (:func:`repro.io.formats.decode_jsonl_range`); other row formats build the
   same fragments on the host from their operation stream.  The host joins
   the fragments in file order, mints op ids in that order and raises what
   loading the file would raise (:func:`repro.io.formats.merge_ranges`).
   ``.rcol`` files stay on disk until each worker maps its registers.  An
   in-memory trace (:meth:`Engine.verify_trace`: a
   :class:`~repro.core.history.MultiHistory`, a
   :class:`~repro.core.builder.TraceBuilder` or a raw iterable of operations)
   takes the reference object path, one
   :class:`~repro.core.history.History` per register.
2. **Sharding** — a :mod:`partitioner <repro.engine.partition>` groups
   registers into shard tasks.
3. **Execution** — an :mod:`executor <repro.engine.executors>` runs the shard
   tasks serially or on a process pool.  In-process history shards verify
   each :class:`~repro.core.history.History` with the unified
   :func:`repro.core.api.verify` entry point; file shards, and
   history shards crossing the process boundary, travel as columns
   (:mod:`repro.engine.codec`) and are sorted and verified from those
   columns by :func:`repro.core.vector.columnar_verdict`.
4. **Aggregation** — shard results stream back in completion order (column
   results with witnesses as row positions, decoded into operations from the
   host's columns on the first read of a result's witness) and are merged
   into a :class:`~repro.analysis.report.TraceVerificationReport`,
   optionally short-circuiting on the first failing register.

Correctness rests on the paper's locality theorem (Section II-B): a
multi-register trace is k-atomic iff every per-register projection is, so the
per-register verdicts are independent and any partitioning/scheduling of
registers yields the same aggregate answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..core.builder import TraceBuilder
from ..core.errors import VerificationError
from ..core.history import History, MultiHistory
from ..core.operation import Operation
from ..core.result import VerificationResult
from ..analysis.report import ShardStats, TraceVerificationReport
from .executors import ShardExecutor, default_jobs, get_executor
from .partition import Partitioner, get_partitioner

__all__ = [
    "ShardTask",
    "EncodedShardTask",
    "RcolShardTask",
    "ShardOutcome",
    "Engine",
    "DEFAULT_MAX_EXACT_OPS",
]

# Re-exported so the engine can be configured without importing core.api.
from ..core.api import DEFAULT_MAX_EXACT_OPS
from ..core.columnar import columnar_of
from .codec import (
    decode_shard_columns,
    decode_shard_items,
    decode_shard_results,
    encode_shard_columns,
    encode_shard_items,
    encode_shard_results,
)

TraceLike = Union[MultiHistory, TraceBuilder, Iterable[Operation]]


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: a group of per-register histories plus verify options.

    Everything here pickles by value — algorithm dispatch is a *name*,
    resolved against the registry where the shard runs.  In-process executors
    run the task as is; executors that cross the process boundary ship its
    encoded form (:meth:`encode`).
    """

    shard_id: int
    items: Tuple[Tuple[Hashable, History], ...]
    k: int
    algorithm: str
    preprocess: bool
    max_exact_ops: int
    kernel: Optional[str] = None

    @property
    def num_ops(self) -> int:
        """Total operations across the shard's registers."""
        return sum(len(h) for _, h in self.items)

    def encode(self) -> "EncodedShardTask":
        """Re-pack the shard with its histories as compact column buffers."""
        return EncodedShardTask(
            shard_id=self.shard_id,
            payload=encode_shard_items(self.items),
            num_ops=self.num_ops,
            k=self.k,
            algorithm=self.algorithm,
            preprocess=self.preprocess,
            max_exact_ops=self.max_exact_ops,
            kernel=self.kernel,
        )


@dataclass(frozen=True)
class EncodedShardTask:
    """A shard task whose histories travel as compact column buffers.

    Created by :meth:`ShardTask.encode` for executors that cross the process
    boundary: the payload pickles to a fraction of the object graph's size
    (raw timestamp/flag/id columns plus small interning tables instead of one
    pickled dataclass per operation), and the worker verifies each register
    straight from its columns.
    """

    shard_id: int
    payload: bytes
    num_ops: int
    k: int
    algorithm: str
    preprocess: bool
    max_exact_ops: int
    kernel: Optional[str] = None

    def decode_items(self) -> Tuple[Tuple[Hashable, History], ...]:
        """Rebuild the ``(key, History)`` pairs."""
        return tuple(decode_shard_items(self.payload))


@dataclass(frozen=True)
class RcolShardTask:
    """A shard of registers to verify straight from an ``.rcol`` trace file.

    Instead of carrying histories (or column buffers), the task carries the
    *file path* plus the register keys assigned to this shard: each worker
    memory-maps the file independently and ingests only its own registers'
    columns, so a multi-million-operation trace is verified without any
    process ever materialising it — the out-of-core path.  Pickles trivially
    (a path and a key tuple), so process-pool executors need no IPC encoding.
    """

    shard_id: int
    path: str
    keys: Tuple[Hashable, ...]
    num_ops: int
    k: int
    algorithm: str
    preprocess: bool
    max_exact_ops: int
    kernel: Optional[str] = None


@dataclass(frozen=True)
class ShardOutcome:
    """The results of one executed shard, with timing."""

    shard_id: int
    results: Tuple[Tuple[Hashable, VerificationResult], ...]
    num_ops: int
    elapsed_s: float
    #: The results in the result codec (:func:`~repro.engine.codec.encode_shard_results`)
    #: when a column-encoded shard comes back from a worker; ``results`` is
    #: empty until :meth:`resolve` rebuilds it on the host.
    payload: Optional[bytes] = None

    @property
    def has_failure(self) -> bool:
        """True iff any register in the shard failed verification."""
        return any(not r for _, r in self.results)

    def resolve(self, columns: Mapping[Hashable, object]) -> "ShardOutcome":
        """Decode :attr:`payload` against the host's register columns.

        ``columns`` maps each register key to the columns the shard was
        encoded from (a :class:`~repro.core.columnar.RowColumns` or
        :class:`~repro.core.columnar.ColumnarHistory`).
        """
        if self.payload is None:
            return self
        results = tuple(decode_shard_results(self.payload, columns))
        return replace(self, results=results, payload=None)


def _column_verdicts(task, registers) -> Iterator[Tuple]:
    """Verify ``(key, ColumnarHistory)`` registers; yield ``(key, col, verdict)``.

    The one worker loop of the column-fed shards (encoded and ``.rcol``).
    The exact fallbacks (timestamp ties, LBT/exact, ``k >= 3``,
    ``kernel="object"``) live inside :func:`repro.core.vector.columnar_verdict`.
    """
    from ..core import vector

    for key, col in registers:
        yield key, col, vector.columnar_verdict(
            col,
            task.k,
            algorithm=task.algorithm,
            preprocess=task.preprocess,
            max_exact_ops=task.max_exact_ops,
            kernel=task.kernel,
        )


def _rcol_registers(task: RcolShardTask) -> Iterator[Tuple[Hashable, object]]:
    """Memory-map the task's file and load its registers' columns lazily."""
    from ..io.rcol import RcolFile

    with RcolFile(task.path) as rf:
        for key in task.keys:
            yield key, rf.load_columnar(key)


def _decode_range(task: Tuple[int, str, int, int]) -> Tuple[int, object]:
    """Decode-round worker: one byte range of a JSONL trace, as columns."""
    from ..io.formats import decode_jsonl_range

    index, path, begin, end = task
    return index, decode_jsonl_range(path, begin, end)


def run_shard(
    task: Union[ShardTask, EncodedShardTask, RcolShardTask]
) -> ShardOutcome:
    """Verify every register of one shard (module-level: picklable).

    Worker processes receive this function by qualified name and the task by
    value; the algorithm is resolved from the registry *here*, inside the
    worker, never shipped as a function object.  Column-encoded tasks are
    verified from their columns and return their results encoded
    (:attr:`ShardOutcome.payload`); ``.rcol`` shards are memory-mapped here,
    inside the worker that owns them, and return YES witnesses undecoded.
    """
    t0 = time.perf_counter()
    payload = None
    if isinstance(task, EncodedShardTask):
        registers = decode_shard_columns(task.payload)
        payload = encode_shard_results(_column_verdicts(task, registers))
        results: Tuple = ()
    elif isinstance(task, RcolShardTask):
        results = tuple(
            (key, verdict.result)
            for key, _col, verdict in _column_verdicts(task, _rcol_registers(task))
        )
    else:
        results = tuple(_object_results(task))
    return ShardOutcome(
        shard_id=task.shard_id,
        results=results,
        num_ops=task.num_ops,
        elapsed_s=time.perf_counter() - t0,
        payload=payload,
    )


def _object_results(task: ShardTask) -> Iterator[Tuple]:
    """The reference object path of in-process shards."""
    from ..core.api import verify  # local import keeps worker start-up lean

    for key, history in task.items:
        yield key, verify(
            history,
            task.k,
            algorithm=task.algorithm,
            preprocess=task.preprocess,
            max_exact_ops=task.max_exact_ops,
            kernel=task.kernel,
        )


class Engine:
    """Sharded, parallel k-atomicity verification of multi-register traces.

    Parameters
    ----------
    executor:
        ``"serial"`` (default) or ``"processes"`` — or a
        :class:`~repro.engine.executors.ShardExecutor` instance.
    jobs:
        Worker count for pool executors (default: available CPUs; always 1
        for the serial executor unless given explicitly).  The process
        executor keeps one pool of ``jobs`` warm workers per process, built
        on the first run (not here) and reused by both rounds of every
        audit and by every engine asking for the same ``jobs``.
    partitioner:
        ``"hash"``, ``"round-robin"`` or ``"size-balanced"`` (default) — or a
        :class:`~repro.engine.partition.Partitioner` instance.
    shards_per_job:
        Shards created per worker.  Values above 1 (default 2) let completion
        order smooth out imbalance that the partitioner could not predict.
    algorithm, preprocess, max_exact_ops:
        Forwarded to :func:`repro.core.api.verify` for every register.
    kernel:
        ``"object"`` or ``"numpy"`` (the default, ``None``), forwarded to
        :func:`repro.core.api.verify`.  Carried inside the shard task so
        worker processes honour it too.
    fail_fast:
        When true, stop dispatching after the first shard containing a
        failing register; unverified registers are reported as skipped.

    Example
    -------
    >>> from repro import Engine
    >>> from repro.core.builder import TraceBuilder
    >>> from repro.core.operation import read, write
    >>> builder = TraceBuilder([
    ...     write("a", 0.0, 1.0, key="x"), read("a", 2.0, 3.0, key="x"),
    ...     write("b", 0.0, 1.0, key="y"), read("b", 2.0, 3.0, key="y"),
    ... ])
    >>> report = Engine().verify_trace(builder, 1)
    >>> report.is_k_atomic, sorted(report.results)
    (True, ['x', 'y'])
    """

    def __init__(
        self,
        *,
        executor: Union[str, ShardExecutor] = "serial",
        jobs: Optional[int] = None,
        partitioner: Union[str, Partitioner] = "size-balanced",
        shards_per_job: int = 2,
        algorithm: str = "auto",
        preprocess: bool = True,
        max_exact_ops: int = DEFAULT_MAX_EXACT_OPS,
        kernel: Optional[str] = None,
        fail_fast: bool = False,
    ):
        self.executor = get_executor(executor) if isinstance(executor, str) else executor
        self.partitioner = (
            get_partitioner(partitioner) if isinstance(partitioner, str) else partitioner
        )
        if jobs is not None and jobs < 1:
            raise VerificationError(f"jobs must be >= 1, got {jobs}")
        if shards_per_job < 1:
            raise VerificationError(f"shards_per_job must be >= 1, got {shards_per_job}")
        self.jobs = jobs if jobs is not None else (
            1 if self.executor.name == "serial" else default_jobs()
        )
        self.shards_per_job = shards_per_job
        self.algorithm = algorithm
        self.preprocess = preprocess
        self.max_exact_ops = max_exact_ops
        self.kernel = kernel
        self.fail_fast = fail_fast

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @staticmethod
    def _as_register_histories(trace: TraceLike) -> "List[Tuple[Hashable, History]]":
        """Normalise any accepted trace shape into ``(key, History)`` pairs."""
        if isinstance(trace, MultiHistory):
            return [(key, trace[key]) for key in trace.keys()]
        if isinstance(trace, History):
            return [(trace.key, trace)]
        if not isinstance(trace, TraceBuilder):
            trace = TraceBuilder(trace)  # raw operation stream
        return [(key, trace.history(key)) for key in trace.keys()]

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def plan(self, registers: "List[Tuple[Hashable, History]]", k: int) -> List[ShardTask]:
        """Partition registers into shard tasks (exposed for inspection)."""
        by_key = dict(registers)
        return [
            ShardTask(items=tuple((key, by_key[key]) for key in keys), **fields)
            for keys, fields in self._shards([(key, len(h)) for key, h in registers], k)
        ]

    def _shards(self, sized: "List[Tuple[Hashable, int]]", k: int) -> Iterator[Tuple[List, Dict]]:
        """Partition ``(key, size)`` registers; yield each shard's keys and
        the task fields every shard kind shares."""
        num_shards = max(1, min(len(sized), self.jobs * self.shards_per_job))
        assignment = self.partitioner.partition(sized, num_shards) if sized else []
        shard_id = 0
        for keys in assignment:
            if not keys:
                continue
            yield keys, dict(
                shard_id=shard_id,
                k=k,
                algorithm=self.algorithm,
                preprocess=self.preprocess,
                max_exact_ops=self.max_exact_ops,
                kernel=self.kernel,
            )
            shard_id += 1

    # ------------------------------------------------------------------
    # Execution + aggregation
    # ------------------------------------------------------------------
    def verify_file(
        self, path, k: int, *, fmt: Optional[str] = None
    ) -> TraceVerificationReport:
        """Verify a trace file in any registered format.

        ``fmt`` names a format from the registry (``"jsonl"``, ``"csv"``,
        ``"jepsen"``, ``"porcupine"``, ...); ``None`` sniffs the extension.
        A file is read as columns, never as one operation object per record:
        JSONL in a decode round on this engine's executor, one newline-aligned
        byte range per task (:func:`repro.io.formats.decode_jsonl_range`);
        every other row format from its operation stream on the host.  The
        host joins the ranges in file order, raises what loading the file
        would raise, and ships each shard's file-order columns to the verify
        round; only witness operations are ever built, each on the first read
        of its result's witness.  Memory-mapped
        ``.rcol`` traces take the out-of-core route instead: shard tasks carry
        only the path and register keys, and workers map their registers'
        columns lazily.
        """
        from ..io import formats
        from ..io.registry import resolve_format  # io builds on the engine's inputs

        spec = resolve_format(path, fmt)
        if spec.name == "rcol":
            return self._verify_rcol_file(path, k)
        if spec.name == "jsonl":
            spans = formats.split_jsonl(path, self.jobs * self.shards_per_job)
            tasks = [(index, str(path), begin, end) for index, (begin, end) in enumerate(spans)]
            decoded = dict(self.executor.run(_decode_range, tasks, self.jobs))
            ranges = [decoded[index] for index in range(len(tasks))]
        else:
            ranges = [formats.operations_range(spec.reader(path))]
        registers = formats.merge_ranges(path, ranges)
        sizes = {key: len(rows) for key, rows in registers.items()}
        tasks = [
            EncodedShardTask(
                payload=encode_shard_columns([(key, registers[key].to_columns()) for key in keys]),
                num_ops=sum(sizes[key] for key in keys),
                **fields,
            )
            for keys, fields in self._shards(list(sizes.items()), k)
        ]
        return self._execute(tasks, sizes, k, columns=registers)

    def _verify_rcol_file(self, path, k: int) -> TraceVerificationReport:
        """Verify an ``.rcol`` trace out-of-core: shards carry the file path
        and register keys, and each worker memory-maps only its share."""
        from ..io.rcol import RcolFile

        with RcolFile(path) as rf:
            sized = rf.register_sizes()
        size_of = dict(sized)
        tasks = [
            RcolShardTask(
                path=str(path),
                keys=tuple(keys),
                num_ops=sum(size_of[key] for key in keys),
                **fields,
            )
            for keys, fields in self._shards(sized, k)
        ]
        return self._execute(tasks, size_of, k)

    def verify_trace(self, trace: TraceLike, k: int) -> TraceVerificationReport:
        """Verify every register of ``trace`` and aggregate the results.

        The reference object path: each register is a
        :class:`~repro.core.history.History`, verified as is in process and
        from its canonical columns across the process boundary.
        """
        registers = self._as_register_histories(trace)
        tasks: List[Union[ShardTask, EncodedShardTask]] = list(self.plan(registers, k))
        columns = None
        if self.executor.crosses_process_boundary:
            tasks = [task.encode() for task in tasks]
            columns = {key: columnar_of(history) for key, history in registers}
        sizes = {key: len(history) for key, history in registers}
        return self._execute(tasks, sizes, k, columns=columns)

    def _execute(
        self,
        tasks,
        sizes: Mapping[Hashable, int],
        k: int,
        columns: Optional[Mapping[Hashable, object]] = None,
    ) -> TraceVerificationReport:
        """Run planned shard tasks and merge their outcomes into a report.

        ``sizes`` maps every register key to its operation count, in the
        trace's register order.
        """
        merged: Dict[Hashable, VerificationResult] = {}
        stats: List[ShardStats] = []
        t0 = time.perf_counter()
        outcome_stream = self.executor.run(run_shard, tasks, self.jobs)
        try:
            for outcome in outcome_stream:
                outcome = outcome.resolve(columns)
                merged.update(outcome.results)
                stats.append(
                    ShardStats(
                        shard_id=outcome.shard_id,
                        num_registers=len(outcome.results),
                        num_ops=outcome.num_ops,
                        elapsed_s=outcome.elapsed_s,
                    )
                )
                if self.fail_fast and outcome.has_failure:
                    break
        finally:
            outcome_stream.close()
        elapsed = time.perf_counter() - t0

        results = {key: merged[key] for key in sizes if key in merged}
        skipped = tuple(key for key in sizes if key not in merged)
        return TraceVerificationReport(
            k=k,
            results=results,
            executor=self.executor.name,
            partitioner=self.partitioner.name,
            jobs=self.jobs,
            num_shards=len(tasks),
            shard_stats=tuple(stats),
            elapsed_s=elapsed,
            skipped_keys=skipped,
            register_sizes=dict(sizes),
        )
