"""What every workload shares: the metric catalogue, set-up timing, and the
alternating untraced/traced pass loop that yields the per-layer metrics."""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from .stats import Tally, min_samples_for, percentile
from .tracing import (
    NullTracer,
    Tracer,
    coverage,
    durations,
    layer_self_times,
    total_durations,
)

#: End-to-end metrics (``--trace 0``): name -> unit.  Every workload reports
#: every one of them; see README.md for what each means per workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
}

#: The layers of ``src/repro`` that traced runs attribute self time to.
LAYERS = ("io", "core", "algorithms", "engine", "analysis", "service", "state")

#: Per-layer metrics summed from span durations: metric -> span names.
SPAN_SUMS = {
    "io.decode_s": ("io.decode",),
    "io.rcol_load_s": ("io.rcol_load",),
    "io.stream_decode_s": ("io.stream_decode",),
    "core.build_s": ("core.build",),
    "core.normalize_s": ("core.normalize",),
    "core.columnar_s": ("core.columnar",),
    "core.window_assemble_s": ("core.window_assemble",),
    "algorithms.kernel_s": ("algorithms.kernel",),
    "algorithms.online_feed_s": ("algorithms.online_feed",),
    "algorithms.online_check_s": ("algorithms.online_check",),
    "engine.plan_s": ("engine.plan",),
    "engine.codec_encode_s": ("engine.codec_encode",),
    "engine.codec_decode_s": ("engine.codec_decode",),
    "engine.feed_codec_s": ("engine.feed_codec",),
    "analysis.render_s": ("analysis.render",),
    "service.frame_s": ("service.frame",),
    "service.session_open_s": ("service.session_open",),
    "service.finish_s": ("service.finish",),
    "service.pooled_feed_s": ("service.pooled_feed",),
    "state.save_s": ("state.save",),
}

#: Per-layer counts recorded with ``Tracer.add`` under the same name.
COUNTS = (
    "io.decode_ops",
    "algorithms.no_registers",
    "algorithms.online_checks",
    "engine.codec_bytes",
    "engine.feed_bytes",
    "state.save_bytes",
    "state.saves",
)

#: Spans whose durations are window flushes (a feed that closed a window).
FLUSH_SPANS = ("service.window_flush", "service.pooled_feed")

#: Per-layer metrics (``--trace 1``): name -> unit.  Values are medians over
#: traced passes of per-pass totals, except the flush percentiles (over all
#: flushes) and ``trace.overhead_frac`` (over all passes).
PER_LAYER = {
    **{name: "s" for name in SPAN_SUMS},
    "io.decode_ops": "count",
    "algorithms.no_registers": "count",
    "algorithms.online_checks": "count",
    "algorithms.recheck_ratio": "ratio",
    "engine.codec_bytes": "bytes",
    "engine.shard_busy_s": "s",
    "engine.shard_skew": "ratio",
    "engine.dispatch_s": "s",
    "engine.feed_bytes": "bytes",
    "service.window_flush_p50_ms": "ms",
    "service.window_flush_p95_ms": "ms",
    "state.save_bytes": "bytes",
    "state.saves": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5

#: Hard cap on any wait for the system under test, in seconds.
IO_TIMEOUT = 60.0


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    correct: bool
    tally: Tally
    metrics: Dict[str, float]
    shape: Dict[str, object]
    notes: List[str] = field(default_factory=list)
    spans: list = field(default_factory=list)


def wait_for_line(proc: subprocess.Popen, marker: str, timeout: float = IO_TIMEOUT) -> str:
    """Read the child's stdout until a line containing ``marker`` arrives."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"process exited before printing {marker!r}")
        if marker in line:
            return line
    raise RuntimeError(f"timed out waiting for {marker!r}")


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for a child to end, killing it if it overstays ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
#: A pass runs one unit of work under the given tracer and returns its root
#: span id (``None`` when untraced), a per-pass metrics dict for values not
#: derived from spans (shard statistics), and whether its verdicts were right.
PassFn = Callable[[Tracer, int], Tuple[Optional[str], Dict[str, float], bool]]


@dataclass
class TracedRun:
    plain_walls: List[float] = field(default_factory=list)
    traced_walls: List[float] = field(default_factory=list)
    per_pass: List[Dict[str, float]] = field(default_factory=list)
    flushes: List[float] = field(default_factory=list)
    spans: list = field(default_factory=list)
    self_times: Dict[str, float] = field(default_factory=dict)
    correct: bool = True


def run_traced(seconds: float, one_pass: PassFn, *, min_passes: int = 2,
               min_flushes: int = 0, cap_s: float = 120.0) -> TracedRun:
    """Alternate untraced and traced passes of the same work for ``seconds``.

    The untraced passes use a :class:`NullTracer` (no hooks, no spans), so
    the ratio of median walls is the tracing overhead.  Runs past
    ``seconds`` until each side has ``min_passes`` passes and the traced side
    has ``min_flushes`` window flushes (for a p95 with ten samples beyond
    it), but never past ``cap_s``.
    """
    run = TracedRun()
    t0 = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - t0
        enough = (
            len(run.plain_walls) >= min_passes
            and len(run.traced_walls) >= min_passes
            and len(run.flushes) >= min_flushes
        )
        if (elapsed >= seconds and enough) or elapsed >= cap_s:
            break
        traced = index % 2 == 1
        tracer = Tracer(prefix=f"p{index}.") if traced else NullTracer()
        start = time.perf_counter()
        root_id, extra, ok = one_pass(tracer, index)
        wall = time.perf_counter() - start
        run.correct &= ok
        index += 1
        if not traced:
            run.plain_walls.append(wall)
            continue
        run.traced_walls.append(wall)
        layers = layer_self_times(tracer.spans)
        run.per_pass.append(_pass_metrics(tracer, root_id, layers, extra))
        for name in FLUSH_SPANS:
            run.flushes.extend(durations(tracer.spans, name))
        run.spans.extend(tracer.spans)
        for layer, value in layers.items():
            run.self_times[layer] = run.self_times.get(layer, 0.0) + value
    return run


def _pass_metrics(tracer: Tracer, root_id: str, layers: Dict[str, float],
                  extra: Dict[str, float]) -> Dict[str, float]:
    spans = tracer.spans
    metrics = {name: 0.0 for name in PER_LAYER}
    totals = total_durations(spans)
    for metric, names in SPAN_SUMS.items():
        metrics[metric] = sum(totals.get(name, 0.0) for name in names)
    for name in COUNTS:
        metrics[name] = tracer.counts.get(name, 0.0)
    fed = tracer.counts.get("algorithms.fed_ops", 0.0)
    if fed:
        metrics["algorithms.recheck_ratio"] = tracer.counts.get("algorithms.reverified_ops", 0.0) / fed
    for layer, value in layers.items():
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] = value
    metrics["trace.coverage"] = coverage(spans, root_id)
    metrics.update(extra)
    return metrics


def per_layer_metrics(run: TracedRun) -> Dict[str, float]:
    """Fold a traced run into the per-layer metric values."""
    metrics = {
        name: median([p[name] for p in run.per_pass]) for name in PER_LAYER
    }
    if run.flushes:
        metrics["service.window_flush_p50_ms"] = percentile(run.flushes, 50) * 1e3
        if len(run.flushes) >= min_samples_for(95):
            metrics["service.window_flush_p95_ms"] = percentile(run.flushes, 95) * 1e3
    metrics["trace.overhead_frac"] = median(run.traced_walls) / median(run.plain_walls) - 1.0
    return metrics


def self_time_table(run: TracedRun) -> str:
    """Per-layer self time over all traced passes, as a text table."""
    wall = sum(run.traced_walls)
    rows = sorted(run.self_times.items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':<12}{'self s':>10}{'share':>8}"]
    for layer, value in rows:
        label = "unexplained" if layer == "bench" else layer
        lines.append(f"{label:<12}{value:>10.4f}{value / wall:>8.1%}")
    lines.append(f"{'traced wall':<12}{wall:>10.4f}  (worker spans overlap, so shares may pass 100%)")
    return "\n".join(lines)
