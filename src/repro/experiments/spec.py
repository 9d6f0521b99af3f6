"""Experiment specifications: declarative grids over workload/engine knobs.

A spec file (TOML or JSON) describes one experiment::

    [experiment]
    name = "staleness-spectrum"
    kind = "spectrum"              # or "runtime" / "skew"
    seed = 7
    repeats = 1

    [workload]
    kind = "simulation"            # or "synthetic"
    clients = 8
    ops_per_client = 40

    [grid]                         # every combination becomes one trial
    write_ratio = [0.1, 0.3, 0.5]
    zipf_theta = [0.0, 0.99]

    [[engines]]                    # runtime kind only: timed configurations
    name = "fzf-numpy"
    algorithm = "fzf"
    k = 2

Grid axes override the base ``[workload]`` values per trial, so the same
knob can be fixed (workload) or swept (grid).  Trial seeds derive
deterministically from the experiment seed, the grid point and the repeat
index: re-running a spec reproduces the identical workloads.

    >>> spec = ExperimentSpec.from_dict({
    ...     "experiment": {"name": "demo", "kind": "spectrum"},
    ...     "workload": {"kind": "synthetic", "registers": 4},
    ...     "grid": {"write_ratio": [0.1, 0.5]},
    ... })
    >>> [t.params for t in spec.trials()]
    [{'write_ratio': 0.1}, {'write_ratio': 0.5}]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import ReproError

__all__ = ["ExperimentError", "ExperimentSpec", "TrialSpec", "load_spec"]


class ExperimentError(ReproError):
    """An experiment spec or report is malformed, or the harness was misused."""


_KINDS = ("spectrum", "runtime", "skew")
_WORKLOAD_KINDS = ("synthetic", "simulation")
_TOP_LEVEL_KEYS = {"experiment", "workload", "grid", "engines"}
_EXPERIMENT_KEYS = {"name", "kind", "description", "seed", "repeats", "k_values"}

#: Caps applied by :meth:`ExperimentSpec.smoke` so CI grids stay tiny.
_SMOKE_CAPS = {
    "registers": 4,
    "ops_per_register": 60,
    "num_clients": 4,
    "clients": 4,
    "ops_per_client": 15,
    "keys": 4,
}


@dataclass(frozen=True)
class TrialSpec:
    """One point of the expanded grid: what a single trial should run."""

    #: 0-based index over the expanded grid (stable across repeats).
    index: int
    #: Repeat number, 0-based.
    repeat: int
    #: The grid-point parameters (axis name → chosen value).  For runtime
    #: experiments this includes the ``engine`` axis (the config's name).
    params: Mapping[str, object]
    #: Full workload configuration with the grid point folded in.
    workload: Mapping[str, object]
    #: The timed engine configuration (runtime kind only).
    engine: Optional[Mapping[str, object]]
    #: Deterministic seed string for this trial's random streams.
    seed: str


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated, immutable experiment description."""

    name: str
    kind: str
    description: str = ""
    seed: int = 0
    repeats: int = 1
    k_values: Tuple[int, ...] = (1, 2)
    workload: Mapping[str, object] = field(default_factory=dict)
    grid: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)
    engines: Tuple[Mapping[str, object], ...] = ()
    #: Where the spec was loaded from (informational; "<dict>" for in-memory).
    source: str = "<dict>"

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping, *, source: str = "<dict>") -> "ExperimentSpec":
        """Validate a parsed spec document into an :class:`ExperimentSpec`."""
        if not isinstance(data, Mapping):
            raise ExperimentError(f"{source}: spec must be a table/object")
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise ExperimentError(
                f"{source}: unknown top-level section(s) {sorted(unknown)}; "
                f"expected {sorted(_TOP_LEVEL_KEYS)}"
            )
        experiment = data.get("experiment")
        if not isinstance(experiment, Mapping) or "name" not in experiment:
            raise ExperimentError(
                f"{source}: spec needs an [experiment] section with a name"
            )
        unknown = set(experiment) - _EXPERIMENT_KEYS
        if unknown:
            raise ExperimentError(
                f"{source}: unknown [experiment] key(s) {sorted(unknown)}"
            )
        kind = experiment.get("kind", "spectrum")
        if kind not in _KINDS:
            raise ExperimentError(
                f"{source}: experiment kind must be one of {_KINDS}, got {kind!r}"
            )
        repeats = int(experiment.get("repeats", 1))
        if repeats < 1:
            raise ExperimentError(f"{source}: repeats must be >= 1, got {repeats}")
        k_values = tuple(int(k) for k in experiment.get("k_values", (1, 2)))
        if any(k < 1 for k in k_values) or not k_values:
            raise ExperimentError(f"{source}: k_values must be positive, got {k_values}")

        workload = dict(data.get("workload", {}))
        workload.setdefault("kind", "synthetic")
        if workload["kind"] not in _WORKLOAD_KINDS:
            raise ExperimentError(
                f"{source}: workload kind must be one of {_WORKLOAD_KINDS}, "
                f"got {workload['kind']!r}"
            )

        grid_raw = data.get("grid", {})
        if not isinstance(grid_raw, Mapping):
            raise ExperimentError(f"{source}: [grid] must be a table of value lists")
        grid: Dict[str, Tuple[object, ...]] = {}
        for axis, values in grid_raw.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ExperimentError(
                    f"{source}: grid axis {axis!r} must be a non-empty list, "
                    f"got {values!r}"
                )
            grid[axis] = tuple(values)

        engines_raw = data.get("engines", ())
        if not isinstance(engines_raw, (list, tuple)):
            raise ExperimentError(f"{source}: [[engines]] must be an array of tables")
        engines: List[Mapping[str, object]] = []
        for position, engine in enumerate(engines_raw, start=1):
            if not isinstance(engine, Mapping) or "name" not in engine:
                raise ExperimentError(
                    f"{source}: engine #{position} must be a table with a name"
                )
            engines.append(dict(engine))
        if kind == "runtime" and not engines:
            # A runtime experiment with no engine table times the default
            # batch configuration, named after what it runs.
            engines = [{"name": "batch-auto"}]

        return cls(
            name=str(experiment["name"]),
            kind=kind,
            description=str(experiment.get("description", "")),
            seed=int(experiment.get("seed", 0)),
            repeats=repeats,
            k_values=k_values,
            workload=workload,
            grid=grid,
            engines=tuple(engines),
            source=source,
        )

    # ------------------------------------------------------------------
    @property
    def axes(self) -> Tuple[str, ...]:
        """Grid axis names, in spec order."""
        return tuple(self.grid)

    def grid_points(self) -> List[Dict[str, object]]:
        """Expand the grid into its cartesian product, in row-major order."""
        points: List[Dict[str, object]] = [{}]
        for axis, values in self.grid.items():
            points = [dict(p, **{axis: v}) for p in points for v in values]
        return points

    def trials(self) -> List[TrialSpec]:
        """Expand the spec into the full trial list (grid × engines × repeats).

        The engine axis runs *innermost* and the seed ignores it on purpose:
        every timed configuration of a runtime trial sees the identical
        workload, and trials sharing a workload are consecutive — which is
        what lets the runner hold a single generated workload at a time.
        """
        trials: List[TrialSpec] = []
        engine_axis: Sequence[Optional[Mapping[str, object]]] = (
            self.engines if self.kind == "runtime" else (None,)
        )
        for point_index, point in enumerate(self.grid_points()):
            workload = dict(self.workload)
            workload.update(point)
            for repeat in range(self.repeats):
                seed = f"{self.name}:{self.seed}:{sorted(point.items())!r}:{repeat}"
                for engine_index, engine in enumerate(engine_axis):
                    params = dict(point)
                    if engine is not None:
                        params["engine"] = engine["name"]
                    trials.append(
                        TrialSpec(
                            index=point_index * len(engine_axis) + engine_index,
                            repeat=repeat,
                            params=params,
                            workload=workload,
                            engine=engine,
                            seed=seed,
                        )
                    )
        return trials

    def smoke(self) -> "ExperimentSpec":
        """A shrunk copy for CI: one grid point, tiny workload, one repeat.

        The first value of every axis is kept (so the schema exercises every
        axis column) and size-like workload knobs are capped, which keeps the
        smoke run to a few seconds while producing a structurally complete
        report.
        """
        grid = {axis: values[:1] for axis, values in self.grid.items()}
        workload = {
            knob: (min(int(value), _SMOKE_CAPS[knob]) if knob in _SMOKE_CAPS else value)
            for knob, value in self.workload.items()
        }
        return replace(self, grid=grid, workload=workload, repeats=1)


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Load an experiment spec from a ``.toml`` or ``.json`` file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ExperimentError(f"cannot read experiment spec {p}: {exc}") from exc
    if p.suffix.lower() == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # Python 3.10: no stdlib TOML parser
            raise ExperimentError(
                f"{p}: TOML specs need Python >= 3.11 (tomllib); "
                "use the .json form of the spec instead"
            ) from exc
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ExperimentError(f"{p}: invalid TOML: {exc}") from exc
    elif p.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"{p}: invalid JSON: {exc}") from exc
    else:
        raise ExperimentError(
            f"{p}: unsupported spec extension {p.suffix!r} (expected .toml or .json)"
        )
    return ExperimentSpec.from_dict(data, source=str(p))
