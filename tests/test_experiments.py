"""Tests for the declarative experiment harness.

Spec parsing (TOML and JSON), grid expansion, trial determinism, both
measurement kinds, the report schema (what CI's smoke job asserts), the
three emitters, and the ``repro experiment`` CLI.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import (
    REPORT_SCHEMA_VERSION,
    ExperimentError,
    ExperimentReport,
    ExperimentSpec,
    load_report,
    load_spec,
    run_experiment,
    run_trial,
    validate_report,
)
from repro.experiments.runner import build_workload

REPO_ROOT = Path(__file__).parent.parent
CANNED_SPECS = REPO_ROOT / "experiments"


def tiny_spectrum_spec(**overrides) -> ExperimentSpec:
    doc = {
        "experiment": {"name": "tiny", "kind": "spectrum", "seed": 11, "repeats": 2},
        "workload": {
            "kind": "synthetic",
            "registers": 3,
            "ops_per_register": 40,
            "staleness_probability": 0.2,
        },
        "grid": {"write_ratio": [0.1, 0.4]},
    }
    doc["experiment"].update(overrides)
    return ExperimentSpec.from_dict(doc)


def tiny_runtime_spec() -> ExperimentSpec:
    return ExperimentSpec.from_dict(
        {
            "experiment": {"name": "tiny-rt", "kind": "runtime", "seed": 5},
            "workload": {"kind": "synthetic", "registers": 3, "ops_per_register": 60},
            "grid": {"ops_per_register": [40, 80]},
            "engines": [
                {"name": "fzf", "algorithm": "fzf", "k": 2},
                {"name": "stream", "mode": "stream", "k": 2, "window": 16},
            ],
        }
    )


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestSpec:
    def test_grid_expansion_row_major(self):
        spec = ExperimentSpec.from_dict(
            {
                "experiment": {"name": "g", "kind": "spectrum"},
                "grid": {"a": [1, 2], "b": ["x", "y"]},
            }
        )
        assert [t.params for t in spec.trials()] == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_trials_cover_repeats_and_engines(self):
        spec = tiny_runtime_spec()
        trials = spec.trials()
        # 2 grid points x 2 engines x 1 repeat.
        assert len(trials) == 4
        assert {t.params["engine"] for t in trials} == {"fzf", "stream"}
        # The engine axis must not perturb the workload seed.
        by_point = {}
        for t in trials:
            by_point.setdefault(t.params["ops_per_register"], set()).add(t.seed)
        assert all(len(seeds) == 1 for seeds in by_point.values())

    def test_trials_sharing_a_workload_are_consecutive(self):
        # The runner holds one generated workload at a time, so every run of
        # seeds in the trial order must be contiguous — engines innermost.
        spec = ExperimentSpec.from_dict(
            {
                "experiment": {"name": "c", "kind": "runtime", "repeats": 3},
                "workload": {"kind": "synthetic"},
                "grid": {"ops_per_register": [40, 80]},
                "engines": [{"name": "a"}, {"name": "b"}],
            }
        )
        seeds = [t.seed for t in spec.trials()]
        regenerations = 1 + sum(
            1 for prev, cur in zip(seeds, seeds[1:]) if prev != cur
        )
        assert regenerations == len(set(seeds)) == 6  # 2 points x 3 repeats

    def test_grid_overrides_workload_knob(self):
        spec = tiny_spectrum_spec()
        trials = spec.trials()
        assert trials[0].workload["write_ratio"] == 0.1
        assert trials[-1].workload["write_ratio"] == 0.4

    def test_smoke_shrinks_grid_and_sizes(self):
        spec = tiny_spectrum_spec()
        smoke = spec.smoke()
        assert [t.params for t in smoke.trials()] == [{"write_ratio": 0.1}]
        assert smoke.workload["registers"] <= 4
        assert smoke.repeats == 1

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"experiment": {"kind": "spectrum"}}, "name"),
            ({"experiment": {"name": "x", "kind": "quantum"}}, "kind"),
            ({"experiment": {"name": "x"}, "bogus": {}}, "unknown top-level"),
            ({"experiment": {"name": "x", "turbo": 1}}, "unknown \\[experiment\\]"),
            ({"experiment": {"name": "x", "repeats": 0}}, "repeats"),
            ({"experiment": {"name": "x"}, "grid": {"a": []}}, "non-empty list"),
            ({"experiment": {"name": "x"}, "workload": {"kind": "cloud"}}, "workload kind"),
            (
                {"experiment": {"name": "x", "kind": "runtime"}, "engines": [{"k": 2}]},
                "with a name",
            ),
        ],
    )
    def test_invalid_specs_rejected(self, doc, message):
        with pytest.raises(ExperimentError, match=message):
            ExperimentSpec.from_dict(doc)

    def test_load_spec_toml_and_json_agree(self, tmp_path):
        toml_spec = load_spec(CANNED_SPECS / "staleness_spectrum.toml")
        json_spec = load_spec(CANNED_SPECS / "staleness_spectrum.json")
        assert toml_spec.name == json_spec.name == "staleness-spectrum"
        assert toml_spec.grid == json_spec.grid
        assert toml_spec.workload == json_spec.workload
        assert toml_spec.seed == json_spec.seed
        assert len(toml_spec.trials()) == len(json_spec.trials())

    def test_load_spec_rejects_bad_files(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ExperimentError, match="invalid JSON"):
            load_spec(path)
        yaml_path = tmp_path / "spec.yaml"
        yaml_path.write_text("experiment: {}\n")
        with pytest.raises(ExperimentError, match="unsupported spec extension"):
            load_spec(yaml_path)
        with pytest.raises(ExperimentError, match="cannot read"):
            load_spec(tmp_path / "missing.toml")

    def test_canned_runtime_spec_parses(self):
        spec = load_spec(CANNED_SPECS / "runtime_scaling.toml")
        assert spec.kind == "runtime"
        assert len(spec.engines) == 5


# ----------------------------------------------------------------------
# Workloads and trials
# ----------------------------------------------------------------------
class TestRunner:
    def test_workloads_are_deterministic_from_the_seed(self):
        spec = tiny_spectrum_spec()
        trial = spec.trials()[0]
        a = build_workload(trial.workload, trial.seed)
        b = build_workload(trial.workload, trial.seed)
        assert {k: len(a[k]) for k in a.keys()} == {k: len(b[k]) for k in b.keys()}
        ops_a = [(o.op_type, o.value, o.start) for k in a.keys() for o in a[k].operations]
        ops_b = [(o.op_type, o.value, o.start) for k in b.keys() for o in b[k].operations]
        assert ops_a == ops_b

    def test_unknown_workload_knob_rejected(self):
        with pytest.raises(ExperimentError, match="unknown synthetic workload knob"):
            build_workload({"kind": "synthetic", "temperature": 451}, "s")
        with pytest.raises(ExperimentError, match="unknown simulation workload knob"):
            build_workload({"kind": "simulation", "sharding": 2}, "s")

    def test_spectrum_trial_metrics(self):
        spec = tiny_spectrum_spec()
        result = run_trial(spec, spec.trials()[0])
        for metric in ("frac_k1", "frac_k2", "frac_k3_plus", "stale_read_fraction"):
            assert metric in result.metrics
        fractions = [
            result.metrics["frac_k1"],
            result.metrics["frac_k2"],
            result.metrics["frac_k3_plus"],
            result.metrics["frac_anomalous"],
        ]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert result.registers == 3
        assert result.ops > 0

    def test_runtime_trial_metrics(self):
        spec = tiny_runtime_spec()
        by_engine = {t.params["engine"]: t for t in spec.trials() if t.repeat == 0}
        for trial in by_engine.values():
            result = run_trial(spec, trial)
            assert result.metrics["verify_s"] > 0
            assert (
                result.metrics["registers_yes"] + result.metrics["registers_no"]
                == result.registers
            )

    def test_unknown_engine_knob_rejected(self):
        spec = ExperimentSpec.from_dict(
            {
                "experiment": {"name": "x", "kind": "runtime"},
                "workload": {"kind": "synthetic", "registers": 2, "ops_per_register": 20},
                "engines": [{"name": "bad", "warp": 9}],
            }
        )
        with pytest.raises(ExperimentError, match="unknown engine knob"):
            run_trial(spec, spec.trials()[0])


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestReport:
    def test_run_experiment_produces_schema_valid_report(self):
        report = run_experiment(tiny_spectrum_spec())
        doc = report.to_dict()
        validate_report(doc)  # must not raise
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert len(doc["rows"]) == 2 * 2  # 2 grid points x 2 repeats
        assert report.num_trials == 2

    def test_aggregation_averages_repeats(self):
        report = run_experiment(tiny_spectrum_spec())
        merged = report.aggregated()
        assert len(merged) == 2
        for row in merged:
            group = [r for r in report.rows if r.trial == row.trial]
            expected = sum(r.metrics["frac_k1"] for r in group) / len(group)
            assert row.metrics["frac_k1"] == pytest.approx(expected)

    def test_emitters_and_json_round_trip(self, tmp_path):
        report = run_experiment(tiny_spectrum_spec())
        paths = report.write(tmp_path)
        assert sorted(paths) == ["csv", "json", "md"]
        loaded = load_report(paths["json"])
        assert loaded.name == report.name
        assert [r.to_dict() for r in loaded.rows] == [r.to_dict() for r in report.rows]
        csv_text = paths["csv"].read_text()
        assert csv_text.splitlines()[0].startswith("trial,repeat,param:write_ratio")
        md_text = paths["md"].read_text()
        assert "## per-k staleness spectrum" in md_text
        assert "| k=1 | k=2 | k>=3 |" in md_text.replace("  ", " ")

    def test_runtime_report_has_engine_axis(self):
        report = run_experiment(tiny_runtime_spec())
        assert report.axes["engine"] == ("fzf", "stream")
        assert {row.params["engine"] for row in report.rows} == {"fzf", "stream"}

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("rows"), "missing key"),
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d["rows"].append({"trial": 0}), "missing key"),
            (lambda d: d["rows"][0].update(params=3), "must be objects"),
            (lambda d: d.update(axes=[1, 2]), "axes"),
        ],
    )
    def test_validate_report_rejects_malformed_documents(self, mutate, message):
        doc = run_experiment(tiny_spectrum_spec().smoke()).to_dict()
        mutate(doc)
        with pytest.raises(ExperimentError, match=message):
            validate_report(doc)

    def test_load_report_validates(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ExperimentError, match="missing key"):
            load_report(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestExperimentCli:
    def test_run_smoke_on_canned_spec(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "experiment", "run",
                str(CANNED_SPECS / "staleness_spectrum.toml"),
                "--smoke", "--quiet", "--out", str(tmp_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "[smoke]" in text
        for suffix in (".json", ".csv", ".md"):
            assert (tmp_path / f"staleness-spectrum{suffix}").exists()
        # The written JSON is schema-valid and marked as a smoke run.
        loaded = load_report(tmp_path / "staleness-spectrum.json")
        assert loaded.smoke
        assert len(loaded.rows) == 1

    def test_run_json_spec_and_report_reemit(self, tmp_path):
        out = io.StringIO()
        assert main(
            [
                "experiment", "run",
                str(CANNED_SPECS / "staleness_spectrum.json"),
                "--smoke", "--quiet", "--out", str(tmp_path),
            ],
            out=out,
        ) == 0
        for emit, needle in [
            ("markdown", "# experiment: staleness-spectrum"),
            ("csv", "trial,repeat"),
            ("json", '"schema_version"'),
            ("table", "write_ratio"),
        ]:
            buf = io.StringIO()
            assert main(
                [
                    "experiment", "report",
                    str(tmp_path / "staleness-spectrum.json"),
                    "--emit", emit,
                ],
                out=buf,
            ) == 0
            assert needle in buf.getvalue()

    def test_run_reports_spec_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": {"name": "x", "kind": "quantum"}}))
        out = io.StringIO()
        assert main(["experiment", "run", str(bad)], out=out) == 2
        assert "error:" in out.getvalue()

    def test_report_reports_schema_errors(self, tmp_path):
        bad = tmp_path / "bad-report.json"
        bad.write_text(json.dumps({"name": "x"}))
        out = io.StringIO()
        assert main(["experiment", "report", str(bad)], out=out) == 2
        assert "error:" in out.getvalue()
