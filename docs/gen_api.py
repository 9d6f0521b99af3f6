#!/usr/bin/env python
"""Generate docs/api.md from the public surface's docstrings.

The reference is *generated*, never hand-edited: each curated symbol
contributes its signature, its docstring summary, and (for classes) its
public methods.  Because everything comes from the live docstrings, the
reference cannot drift from the code — and ``--check`` (run by
``docs/check_docs.py`` and CI) fails when ``docs/api.md`` was not
regenerated after a docstring change::

    python docs/gen_api.py          # rewrite docs/api.md
    python docs/gen_api.py --check  # verify it is up to date
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

OUTPUT = REPO_ROOT / "docs" / "api.md"

#: The curated public surface: (section title, module, symbol names).
SECTIONS = [
    ("Unified verification API", "repro.core.api",
     ["verify", "verify_trace", "minimal_k", "minimal_k_bound", "MinimalKBound"]),
    ("Operation and history model", "repro.core.operation",
     ["Operation", "read", "write"]),
    ("Histories", "repro.core.history",
     ["History", "MultiHistory"]),
    ("Streaming builders", "repro.core.builder",
     ["HistoryBuilder", "TraceBuilder"]),
    ("Results and verdicts", "repro.core.result",
     ["VerificationResult", "StreamVerdict"]),
    ("Algorithm registry", "repro.algorithms.registry",
     ["AlgorithmSpec", "get_algorithm", "algorithms_for_k", "available_algorithms",
      "CheckerSpec", "get_checker"]),
    ("Incremental checkers", "repro.algorithms.online",
     ["Checker", "IncrementalGKChecker", "IncrementalLBTChecker"]),
    ("Vectorized kernels", "repro.core.vector",
     ["resolve_kernel", "verify_columnar", "columnar_from_numpy"]),
    ("Batch engine", "repro.engine.engine",
     ["Engine"]),
    ("Streaming engine", "repro.engine.streaming",
     ["StreamingEngine", "StreamSession"]),
    ("Tiered streams", "repro.engine.tiering",
     ["get_tier_policy", "TierPolicy", "TierStreamState"]),
    ("Durable state store", "repro.state",
     ["StateStore", "write_file_atomic", "fsync_directory", "TimelineRetention"]),
    ("Audit service", "repro.service.server",
     ["AuditServer"]),
    ("Audit sessions", "repro.service.session",
     ["SessionConfig", "AuditSession"]),
    ("Session checkpoints", "repro.service.checkpoint",
     ["CheckpointStore"]),
    ("Service client", "repro.service.client",
     ["AuditClient", "verify_remote"]),
    ("Trace I/O (native formats)", "repro.io.formats",
     ["stream_trace", "load_trace", "dump_jsonl", "iter_jsonl", "load_jsonl",
      "follow_jsonl", "JsonlDecoder", "dump_csv", "iter_csv", "load_csv",
      "load_columnar", "split_jsonl", "decode_jsonl_range", "merge_ranges"]),
    ("Out-of-core traces (.rcol)", "repro.io.rcol",
     ["RcolFile", "RcolWriter", "iter_rcol", "dump_rcol"]),
    ("Format registry", "repro.io.registry",
     ["TraceFormat", "register_format", "get_format", "detect_format",
      "available_formats", "dump_trace"]),
    ("Foreign-trace interop", "repro.io.interop",
     ["iter_jepsen", "load_jepsen", "dump_jepsen", "iter_porcupine",
      "load_porcupine", "dump_porcupine"]),
    ("Experiment harness", "repro.experiments",
     ["ExperimentSpec", "load_spec", "run_experiment", "TrialResult",
      "ExperimentReport", "load_report", "validate_report"]),
    ("Staleness analysis", "repro.analysis.spectrum",
     ["staleness_bucket", "atomicity_spectrum", "StalenessSpectrum",
      "OnlineSpectrum"]),
    ("Reports", "repro.analysis.report",
     ["audit_trace", "format_table", "TraceVerificationReport",
      "StreamVerificationReport", "ServiceReport"]),
]

HEADER = """\
# API reference

*Generated from docstrings by `docs/gen_api.py` — do not edit by hand.
Regenerate with `python docs/gen_api.py`; CI fails if this file is stale.*

Import everything through its documented module (stable paths); the most
common names are also re-exported at the package root (`from repro import
History, verify, Engine, ...`).
"""


def summary_of(obj) -> str:
    """First paragraph of the docstring, unwrapped to one flowing block."""
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines()).strip()


def signature_of(name: str, obj) -> str:
    try:
        if inspect.isclass(obj):
            return f"class {name}{inspect.signature(obj)}"
        return f"{name}{inspect.signature(obj)}"
    except (TypeError, ValueError):
        return name


def public_methods(cls) -> list:
    methods = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        func = member
        if isinstance(member, (staticmethod, classmethod)):
            func = member.__func__
        if isinstance(member, property):
            methods.append((name, "(property)", summary_of(member)))
            continue
        if not inspect.isfunction(func):
            continue
        try:
            sig = str(inspect.signature(func))
        except (TypeError, ValueError):
            sig = "(...)"
        methods.append((name, sig, summary_of(func)))
    return methods


def render() -> str:
    lines = [HEADER]
    for title, module_name, names in SECTIONS:
        module = importlib.import_module(module_name)
        lines.append(f"## {title}")
        lines.append("")
        lines.append(f"Module: `{module_name}` — {summary_of(module)}")
        lines.append("")
        for name in names:
            obj = getattr(module, name)
            lines.append(f"### `{module_name}.{name}`")
            lines.append("")
            lines.append("```python")
            lines.append(signature_of(name, obj))
            lines.append("```")
            lines.append("")
            summary = summary_of(obj)
            if summary:
                lines.append(summary)
                lines.append("")
            if inspect.isclass(obj):
                methods = public_methods(obj)
                if methods:
                    lines.append("| member | signature | summary |")
                    lines.append("|---|---|---|")
                    for method_name, sig, doc in methods:
                        sig_cell = sig.replace("|", "\\|")
                        doc_cell = doc.replace("|", "\\|")
                        lines.append(f"| `{method_name}` | `{sig_cell}` | {doc_cell} |")
                    lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv) -> int:
    content = render()
    if "--check" in argv:
        current = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if current != content:
            print(
                "docs/api.md is stale: regenerate it with `python docs/gen_api.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    OUTPUT.write_text(content, encoding="utf-8")
    print(f"wrote {OUTPUT} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
