"""repro — k-atomicity verification for replicated storage histories.

A faithful, production-oriented reproduction of

    Wojciech Golab, Jeremy Hurwitz, Xiaozhou (Steve) Li.
    "On the k-Atomicity-Verification Problem."  ICDCS 2013.

The library provides:

* the operation/history model of the paper (Section II) with anomaly
  detection and normalisation,
* the **LBT** and **FZF** 2-atomicity-verification algorithms (Sections III
  and IV), a Gibbons–Korach 1-AV baseline, and an exact oracle for any ``k``,
* the **weighted k-AV** problem and its NP-completeness reduction from bin
  packing (Section V),
* a Dynamo-style sloppy-quorum store simulator, workload generators and
  analysis tools for auditing the consistency that such systems actually
  deliver — the motivating use case of the paper,
* an **online verification** stack: incremental checkers
  (:mod:`repro.algorithms.online`), stream windowing
  (:mod:`repro.core.windows`), a streaming engine
  (:mod:`repro.engine.streaming`) and live simulation auditing
  (:class:`repro.simulation.LiveAuditor`), so verdicts exist while
  operations are still arriving,
* an **audit service** (:mod:`repro.service`): an asyncio server
  multiplexing many concurrent trace sessions with bounded-queue
  backpressure, checkpoint/resume via the checkers'
  ``snapshot()``/``restore()`` state API, and a remote-verification client
  (``repro serve`` / ``repro verify --remote``),
* **durable state** (:mod:`repro.state`): one fsync-ed file-per-key
  ``(namespace, key) -> bytes`` store carrying session checkpoints and
  spilled window timelines (``repro serve --checkpoint-dir``,
  ``repro watch --state-dir``),
* **foreign-trace interop** (:mod:`repro.io`): Jepsen/Knossos event
  histories and Porcupine operation logs behind one format registry, so
  every entry point accepts ``--format jepsen|porcupine|jsonl|csv``
  uniformly,
* an **experiment harness** (:mod:`repro.experiments`): declarative
  TOML/JSON grids over workload/algorithm/engine knobs that regenerate the
  paper's evaluation (per-k staleness spectra, runtime scaling) as
  JSON/CSV/Markdown reports (``repro experiment run``).

Quickstart
----------
>>> from repro import History, read, write, verify
>>> h = History([
...     write("a", 0.0, 1.0),
...     write("b", 2.0, 3.0),
...     read("a", 4.0, 5.0),
... ])
>>> bool(verify(h, 1)), bool(verify(h, 2))
(False, True)
"""

from .core import (
    History,
    HistoryBuilder,
    MinimalKBound,
    MultiHistory,
    Operation,
    OpType,
    TraceBuilder,
    VerificationResult,
    find_anomalies,
    minimal_k,
    minimal_k_bound,
    normalize,
    read,
    verify,
    verify_trace,
    write,
)
from .algorithms import (
    verify_1atomic,
    verify_2atomic,
    verify_2atomic_fzf,
    verify_k_atomic_exact,
    verify_weighted_k_atomic,
)
from .engine import Engine, StreamingEngine

#: Single source of truth for the package version: ``pyproject.toml`` reads
#: it via ``[tool.setuptools.dynamic]`` and the CLI exposes it as
#: ``repro --version``.  Bump it here and nowhere else.
__version__ = "1.9.0"

__all__ = [
    "Engine",
    "History",
    "StreamingEngine",
    "HistoryBuilder",
    "MinimalKBound",
    "MultiHistory",
    "Operation",
    "OpType",
    "TraceBuilder",
    "VerificationResult",
    "__version__",
    "find_anomalies",
    "minimal_k",
    "minimal_k_bound",
    "normalize",
    "read",
    "verify",
    "verify_1atomic",
    "verify_2atomic",
    "verify_2atomic_fzf",
    "verify_k_atomic_exact",
    "verify_trace",
    "verify_weighted_k_atomic",
    "write",
]
