"""Declarative experiment harness: reproduce the paper's evaluation.

The harness turns a small declarative spec (TOML or JSON) into a parameter
grid, runs one trial per grid point (times repeats), and aggregates the
:class:`~repro.experiments.report.TrialResult` rows into an
:class:`~repro.experiments.report.ExperimentReport` with CSV / JSON /
Markdown emitters.  Two experiment kinds cover the paper's evaluation axes:

* ``"spectrum"`` — per-k staleness spectra of a workload as the knobs vary
  (read/write ratio, key-popularity skew, quorum sizes): how many registers
  are 1-atomic, 2-atomic, worse;
* ``"runtime"`` — wall-clock scaling of the verification configurations
  (GK / LBT / FZF, batch vs. online, object vs. numpy kernel, executors)
  over growing traces.

Canned specs live in the repository's ``experiments/`` directory; run them
with ``repro experiment run experiments/staleness_spectrum.toml``.
"""

from .report import (
    REPORT_SCHEMA_VERSION,
    ExperimentReport,
    TrialResult,
    load_report,
    validate_report,
)
from .runner import run_experiment, run_trial
from .spec import ExperimentError, ExperimentSpec, TrialSpec, load_spec

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "ExperimentError",
    "ExperimentReport",
    "ExperimentSpec",
    "TrialResult",
    "TrialSpec",
    "load_report",
    "load_spec",
    "run_experiment",
    "run_trial",
    "validate_report",
]
