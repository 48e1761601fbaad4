"""Configuration, experiment harness, and CSV emission.

Config files are UTF-8 JSON with flat dotted keys (``{"latency.fs_rate_bps":
9e10}``).  Every key has a default, so an empty config runs.  CLI flags
override file keys.  Output is plain CSV; the output directory comes from
``--out`` or the ``OPTPIPE_OUTDIR`` environment variable (default ``.``).

Commands:

* ``run``      one policy over the configured workload and seeds;
* ``compare``  all three policies over the full grid with paired placements
               and background seeds per cell, plus a summary with relative
               improvement columns against each baseline;
* ``validate`` the built-in oracle suite (closed-form bubble check,
               brute-force selection equivalence, spectrum audit, ...).

``run`` and ``compare`` hand their cells to ``run_cells``, which reads two
keys for both: ``jobs`` (compare's ``--jobs`` sets it) for the worker
processes, and ``output.event_log`` for the event log.  Rows hold plain
numbers; ``csv`` writes a float as its ``repr``, so the CSVs round-trip.

Exit codes: 0 success, 1 validation failure, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Sequence

from . import cba, engine, topology, workload
from .latency import LatencyParams
from .rng import default_rng

# Densest NSFNET region: every inter-DC pair has several near-equal-length
# routes, so route-and-spectrum choice (not raw propagation) dominates.
DEFAULT_DC_NODES = ["IL", "PA", "MI", "NY", "NJ", "DC"]
_PLACEMENT_STREAM = 101
# Caps on the work of a run with or without background, about 100x the
# largest shipped config (11 x 2 x 8 x 128 tasks; 320 compare cells): every
# iteration adds rows, and every task is simulated or held in memory.  The
# first two bound one factor each; the third bounds their product, the tasks
# of one policy over a whole compare grid or every run seed (about 7.2x10^6
# for the shipped config).
MAX_RUN_TASKS = 2_000_000
MAX_CELLS = 30_000
MAX_GRID_TASKS = 720_000_000
# Cap on the slots per link: every spectrum operation costs time linear in it,
# and a C-band at 6.25 GHz spacing has 768.
MAX_FS_TOTAL = 4096
# Caps on the per-request search of a run, about 100x and 13x the defaults:
# a blocked request retries without drawing an arrival when the backoff is 0,
# and the candidate paths of one node pair grow with the count of simple
# paths, which explodes on a dense custom topology.
MAX_RETRIES = 500
MAX_K = 64
# Cap on the worker processes of run and compare: a pool forks all of them at
# its first task, and a cell is CPU-bound, so more workers than cores only cost
# memory.
MAX_JOBS = 64
# Prewarmed start states one process keeps (see prewarmed_start): run_cells
# dispatches the cells of one size seed by seed, so a worker needs one or two.
START_STATES = 4
# The keys behind each term of an event time (see engine.TimeOverflowError).
_TIME_KEYS = {
    "compute": ["model.fwd_time_per_layer_s", "model.bwd_time_per_layer_s"],
    "transfer": [f"latency.{p.name}" for p in fields(LatencyParams)] + ["engine.fallback_penalty"],
    "retry": ["engine.retry_backoff_s"],
}

RESULT_COLUMNS = [
    "policy", "model", "schedule", "microbatches", "seed", "iteration",
    "runtime_s", "bubble_ratio", "requests", "blocked", "blocking_prob",
]

SUMMARY_COLUMNS = [
    "policy", "model", "schedule", "microbatches",
    "mean_runtime_s", "mean_bubble_ratio", "mean_blocking_prob",
    "d_runtime_pct_vs_ksp_ff", "d_bubble_vs_ksp_ff", "d_blocking_vs_ksp_ff",
    "d_runtime_pct_vs_sd_ff", "d_bubble_vs_sd_ff", "d_blocking_vs_sd_ff",
]


class ConfigError(ValueError):
    """A config key failed validation; the message names the key."""


def _as_int(v) -> int:
    # int() would also take true/false, numeric strings and truncate 2.5
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError("expected an integer")


def _as_str(v) -> str:
    # str() would also take 7 and true
    if isinstance(v, str):
        return v
    raise ValueError("expected a string")


def _as_float(v) -> float:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ValueError("expected a number")


def _optional(conv):
    return lambda v: v if v is None else conv(v)


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    raise ValueError("expected true/false")


def _as_int_list(v) -> list[int]:
    if isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        return list(v)
    raise ValueError("expected a list of integers")


def _as_str_list(v) -> list[str]:
    if isinstance(v, list) and all(isinstance(x, str) for x in v):
        return list(v)
    raise ValueError("expected a list of strings")


# The background traffic model's keys, with the values bg.preset=loaded gives
# the unset ones.
_LOADED_PRESET = topology.loaded_background(0)
_LOADED_BG = {
    "bg.arrival_rate_per_s": _LOADED_PRESET.arrival_rate_per_s,
    "bg.mean_hold_s": _LOADED_PRESET.mean_hold_s,
    "bg.fs_demand_min": _LOADED_PRESET.fs_demand_range[0],
    "bg.fs_demand_max": _LOADED_PRESET.fs_demand_range[1],
}

# key -> (default, converter).  Converters raise ValueError on bad input.
KEY_TABLE: dict[str, tuple[Any, Any]] = {
    "topology.path": (None, _optional(_as_str)),
    "topology.fs_total": (80, _as_int),
    "run.policy": ("cba", _as_str),
    "run.schedule": ("gpipe", _as_str),
    "run.model": ("llama3-8b-like", _as_str),
    "run.microbatches": (16, _as_int),
    "run.seeds": ([0], _as_int_list),
    "pp.stages": (8, _as_int),
    "placement.dc_nodes": (DEFAULT_DC_NODES, _as_str_list),
    "compare.seeds": ([0, 1, 2], _as_int_list),
    "compare.microbatch_grid": ([16, 32, 64, 128], _as_int_list),
    "compare.models": (["llama3-8b-like", "llama3-70b-like"], _as_str_list),
    "compare.schedules": (["gpipe", "1f1b"], _as_str_list),
    "model.n_layers": (None, _optional(_as_int)),
    "model.fwd_time_per_layer_s": (None, _optional(_as_float)),
    "model.bwd_time_per_layer_s": (None, _optional(_as_float)),
    "model.msg_bytes_per_microbatch": (None, _optional(_as_int)),
    "latency.prop_s_per_km": (5.0e-6, _as_float),
    "latency.per_hop_overhead_s": (1.0e-4, _as_float),
    "latency.fs_rate_bps": (7.5e10, _as_float),
    "latency.intra_dc_latency_s": (5.0e-5, _as_float),
    "latency.intra_dc_rate_bps": (4.0e11, _as_float),
    "rsa.k": (5, _as_int),
    "fs.base": (4, _as_int),
    "fs.boost_factor": (2.0, _as_float),
    "fs.max": (16, _as_int),
    "engine.max_retries": (5, _as_int),
    "engine.retry_backoff_s": (1e-3, _as_float),
    "engine.fallback_penalty": (3.0, _as_float),
    "cba.n_iterations": (11, _as_int),
    "cba.blocking_prob_threshold": (0.05, _as_float),
    "cba.epsilon_bubble_s": (1e-6, _as_float),
    "bg.preset": ("off", _as_str),
    "bg.arrival_rate_per_s": (None, _optional(_as_float)),
    "bg.mean_hold_s": (None, _optional(_as_float)),
    "bg.fs_demand_min": (None, _optional(_as_int)),
    "bg.fs_demand_max": (None, _optional(_as_int)),
    "bg.prewarm_s": (None, _optional(_as_float)),
    "output.event_log": (False, _as_bool),
    "jobs": (None, _optional(_as_int)),
}


@dataclass
class RunConfig:
    """Validated configuration; ``flat`` preserves the resolved key values."""

    flat: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_flat(cls, overrides: dict[str, Any] | None = None) -> "RunConfig":
        flat = {}
        overrides = dict(overrides or {})
        for key, (default, conv) in KEY_TABLE.items():
            if key in overrides:
                raw = overrides.pop(key)
                try:
                    flat[key] = conv(raw)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"{key}: invalid value {raw!r} ({exc})") from exc
            else:
                flat[key] = default
            if isinstance(flat[key], float) and not math.isfinite(flat[key]):
                raise ConfigError(f"{key}: must be finite (got {flat[key]!r})")
        if overrides:
            unknown = sorted(overrides)
            raise ConfigError(f"unknown config keys: {unknown}")
        cfg = cls(flat)
        cfg._validate()
        return cfg

    @classmethod
    def from_file(cls, path: str, overrides: dict[str, Any] | None = None) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh, object_pairs_hook=topology.unique_keys)
        except topology.RepeatedKeyError as exc:
            raise ConfigError(f"{exc.args[0]}: given more than once in {path}") from exc
        except (OSError, ValueError) as exc:
            # ValueError covers bad JSON, bad UTF-8 and integers past Python's digit limit
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object of dotted keys")
        doc.update(overrides or {})
        return cls.from_flat(doc)

    def __getitem__(self, key: str):
        return self.flat[key]

    def _validate(self) -> None:
        f = self.flat
        def require(cond: bool, key: str, msg: str) -> None:
            if not cond:
                raise ConfigError(f"{key}: {msg} (got {f[key]!r})")

        require(not f["topology.path"] or os.path.isfile(f["topology.path"]),
                "topology.path", "no such file")
        require(1 <= f["topology.fs_total"] <= MAX_FS_TOTAL, "topology.fs_total",
                f"must be in [1, {MAX_FS_TOTAL}]")
        require(f["pp.stages"] >= 1, "pp.stages", "must be >= 1")
        require(f["run.microbatches"] >= 1, "run.microbatches", "must be >= 1")
        require(f["run.policy"] in engine.SELECTORS, "run.policy",
                f"must be one of {engine.SELECTORS}")
        require(f["run.schedule"] in ("gpipe", "1f1b"), "run.schedule",
                "must be 'gpipe' or '1f1b'")
        for key in ("run.seeds", "compare.seeds", "compare.microbatch_grid", "compare.models",
                    "compare.schedules", "placement.dc_nodes"):
            require(len(f[key]) >= 1, key, "must not be empty")
        # placement.dc_nodes may repeat a name: a repeat weights the draw
        for key in ("run.seeds", "compare.seeds", "compare.microbatch_grid", "compare.models",
                    "compare.schedules"):
            seen: set = set()
            for value in f[key]:
                if value in seen:  # the seed lists are too long to echo back
                    raise ConfigError(f"{key}: entries must be distinct ({value!r} repeats)")
                seen.add(value)
        for key in ("run.seeds", "compare.seeds"):
            negative = [seed for seed in f[key] if seed < 0]
            if negative:  # the seed lists are too long to echo back
                raise ConfigError(f"{key}: seeds must be >= 0 (got {negative[0]})")
        require(all(m >= 1 for m in f["compare.microbatch_grid"]),
                "compare.microbatch_grid", "entries must be >= 1")
        require(all(s in ("gpipe", "1f1b") for s in f["compare.schedules"]),
                "compare.schedules", "entries must be 'gpipe' or '1f1b'")
        require(1 <= f["rsa.k"] <= MAX_K, "rsa.k", f"must be in [1, {MAX_K}]")
        require(f["fs.base"] >= 1, "fs.base", "must be >= 1")
        require(f["fs.boost_factor"] >= 1, "fs.boost_factor", "must be >= 1")
        require(1 <= f["fs.max"] <= f["topology.fs_total"], "fs.max",
                "must be in [1, topology.fs_total]")
        require(f["fs.base"] <= f["fs.max"], "fs.base", "must be <= fs.max")
        for key in ("latency.prop_s_per_km", "latency.per_hop_overhead_s",
                    "latency.intra_dc_latency_s"):
            require(f[key] >= 0, key, "must be nonnegative")
        for key in ("latency.fs_rate_bps", "latency.intra_dc_rate_bps"):
            require(f[key] > 0, key, "must be positive")
        require(0 <= f["engine.max_retries"] <= MAX_RETRIES, "engine.max_retries",
                f"must be in [0, {MAX_RETRIES}]")
        require(f["engine.retry_backoff_s"] >= 0, "engine.retry_backoff_s",
                "must be nonnegative")
        require(f["engine.fallback_penalty"] >= 1, "engine.fallback_penalty",
                "must be >= 1")
        require(f["cba.n_iterations"] >= 2, "cba.n_iterations", "must be >= 2")
        require(0 <= f["cba.blocking_prob_threshold"] <= 1,
                "cba.blocking_prob_threshold", "must be in [0, 1]")
        require(f["cba.epsilon_bubble_s"] >= 0, "cba.epsilon_bubble_s",
                "must be nonnegative")
        require(f["bg.preset"] in ("off", "loaded"), "bg.preset", "must be off or loaded")
        if f["bg.preset"] == "off":
            for key in (*_LOADED_BG, "bg.prewarm_s"):
                require(f[key] is None, key, "has no effect when bg.preset=off")
        for key in ("bg.arrival_rate_per_s", "bg.mean_hold_s", "bg.prewarm_s"):
            require(f[key] is None or f[key] >= 0, key, "must be nonnegative")
        require(f["bg.fs_demand_min"] is None or f["bg.fs_demand_min"] >= 1,
                "bg.fs_demand_min", "must be >= 1")
        if f["bg.preset"] != "off":
            lo, hi = self._bg("bg.fs_demand_min"), self._bg("bg.fs_demand_max")
            key = "bg.fs_demand_min" if f["bg.fs_demand_min"] is not None else "bg.fs_demand_max"
            require(lo <= hi, key, f"effective demand range [{lo}, {hi}] needs min <= max")
            require(hi <= f["topology.fs_total"], "bg.fs_demand_max",
                    f"effective maximum demand {hi} must be <= topology.fs_total "
                    f"({f['topology.fs_total']})")
        for key, models in (("run.model", [f["run.model"]]),
                            ("compare.models", f["compare.models"])):
            for model in models:
                if model != "custom" and model not in workload.profile_presets():
                    raise ConfigError(
                        f"{key}: model {model!r} is not a preset "
                        f"{workload.profile_presets()} or 'custom'"
                    )
        custom = f["run.model"] == "custom" or "custom" in f["compare.models"]
        for key in ("model.n_layers", "model.fwd_time_per_layer_s",
                    "model.bwd_time_per_layer_s", "model.msg_bytes_per_microbatch"):
            require(custom or f[key] is None, key,
                    "has no effect unless run.model or compare.models names custom")
            if custom:
                require(f[key] is not None, key, "required for the custom model")
                require(f[key] > 0, key, "must be positive")
        # counts that no float holds, too long to echo back
        for key, scale, what in (
            ("model.n_layers", 1, "the layer count is"),
            ("model.msg_bytes_per_microbatch", 8, "the message's bits (8x) are"),
        ):
            if custom and scale * f[key] > sys.float_info.max:
                raise ConfigError(f"{key}: must be at most {sys.float_info.max / scale:.4g}, "
                                  f"so that {what} a finite float")
        require(f["jobs"] is None or 1 <= f["jobs"] <= MAX_JOBS, "jobs",
                f"must be in [1, {MAX_JOBS}]")
        if f["pp.stages"] > MAX_RUN_TASKS:  # too long to echo back
            raise ConfigError(
                f"pp.stages: must be at most {MAX_RUN_TASKS}, the cap on tasks per policy run")
        tasks = self.tasks_per_policy_run()
        require(tasks <= MAX_RUN_TASKS, "cba.n_iterations",
                f"expects {tasks} tasks per policy run (cba.n_iterations x 2 x pp.stages "
                f"x the largest microbatch count); the cap is {MAX_RUN_TASKS}")
        # the seed lists are too long to echo back
        cells = self.compare_cells()
        if cells > MAX_CELLS:
            raise ConfigError(
                f"compare.seeds: {len(f['compare.seeds'])} seeds make {cells} compare cells "
                f"(models x schedules x microbatch counts x seeds); the cap is {MAX_CELLS}")
        if len(f["run.seeds"]) > MAX_CELLS:
            raise ConfigError(
                f"run.seeds: {len(f['run.seeds'])} seeds; the cap is {MAX_CELLS}")
        for key, runs, what in (("compare.seeds", cells, "compare cells"),
                                ("run.seeds", len(f["run.seeds"]), "run seeds")):
            if runs * tasks > MAX_GRID_TASKS:
                raise ConfigError(
                    f"{key}: {runs} {what} of up to {tasks} tasks per policy run make "
                    f"{runs * tasks} tasks per policy; the cap is {MAX_GRID_TASKS}")
        # the integer caps above bound p, m and cba.n_iterations, so the
        # arrival estimate's float arithmetic cannot overflow
        if f["bg.preset"] != "off":
            rate, prewarm = self._bg("bg.arrival_rate_per_s"), self.prewarm_s()
            # only a set holding time makes the default prewarm overflow, and
            # the estimate would read that infinity times a rate of 0 as nan
            require(math.isfinite(prewarm), "bg.mean_hold_s",
                    "five holding times, the default bg.prewarm_s, must be a finite float")
            expected, cap = self.expected_bg_arrivals(), topology.MAX_BG_ARRIVALS
            if not expected <= cap:
                # a prewarm that alone draws past the cap names the key that set it:
                # bg.prewarm_s, or the holding time whose 5x is the default prewarm
                keys = ("bg.prewarm_s", "bg.mean_hold_s") if rate * prewarm > cap else ()
                key = next((k for k in keys if f[k] is not None), "bg.arrival_rate_per_s")
                got = rate if key == "bg.arrival_rate_per_s" else f[key]
                raise ConfigError(
                    f"{key}: expects about {expected:.3g} background arrivals per policy run "
                    f"(rate {rate:.3g}/s x (prewarm {prewarm:.3g} s + cba.n_iterations x "
                    f"zero-latency makespan of the largest cell)); the cap is {cap} "
                    f"(got {got!r})")

    # ------------------------------------------------------------------
    # constructed objects

    def build_network(self) -> topology.Network:
        """A fresh, all-free network of the configured topology."""
        net = _load_network(self.flat["topology.path"], self.flat["topology.fs_total"])
        self._check_dc_nodes(net)
        return net

    def start_state(self, seed: int) -> topology.NetworkSnapshot:
        """The prewarmed start state of every policy run with background ``seed``.

        The process's memo (``prewarmed_start``) holds it; restore it onto its
        network (``snapshot.network.restore(snapshot)``) before each run.
        """
        f = self.flat
        bg = self.background(seed)
        state = prewarmed_start(f["topology.path"], f["topology.fs_total"], bg,
                                self.prewarm_s() if bg is not None else 0.0)
        self._check_dc_nodes(state.network)
        return state

    def _check_dc_nodes(self, net: topology.Network) -> None:
        missing = [d for d in self.dc_nodes() if d not in net.adjacency]
        if missing:
            raise ConfigError(f"placement.dc_nodes: not in topology: {missing}")

    def dc_nodes(self) -> list[str]:
        return list(self.flat["placement.dc_nodes"])

    def profile(self, name: str) -> workload.ModelProfile:
        if name != "custom":
            return workload.build_profile(name)
        f = self.flat
        return workload.build_profile(
            "custom",
            n_layers=f["model.n_layers"],
            fwd_time_per_layer_s=f["model.fwd_time_per_layer_s"],
            bwd_time_per_layer_s=f["model.bwd_time_per_layer_s"],
            msg_bytes_per_microbatch=f["model.msg_bytes_per_microbatch"],
        )

    def latency_params(self) -> LatencyParams:
        f = self.flat
        return LatencyParams(
            prop_s_per_km=f["latency.prop_s_per_km"],
            per_hop_overhead_s=f["latency.per_hop_overhead_s"],
            fs_rate_bps=f["latency.fs_rate_bps"],
            intra_dc_latency_s=f["latency.intra_dc_latency_s"],
            intra_dc_rate_bps=f["latency.intra_dc_rate_bps"],
        )

    def policy(self, selector: str) -> engine.PolicyConfig:
        f = self.flat
        return engine.PolicyConfig(
            selector=selector,
            k=f["rsa.k"],
            base_fs=f["fs.base"],
            boost_factor=f["fs.boost_factor"],
            fs_max=f["fs.max"],
            max_retries=f["engine.max_retries"],
            retry_backoff_s=f["engine.retry_backoff_s"],
            fallback_penalty=f["engine.fallback_penalty"],
        )

    def orchestrator(self) -> cba.OrchestratorConfig:
        f = self.flat
        return cba.OrchestratorConfig(
            n_iterations=f["cba.n_iterations"],
            blocking_prob_threshold=f["cba.blocking_prob_threshold"],
            epsilon_bubble_s=f["cba.epsilon_bubble_s"],
        )

    def _bg(self, key: str) -> Any:
        """A background model key's value, or the loaded preset's when unset."""
        value = self.flat[key]
        return _LOADED_BG[key] if value is None else value

    def background(self, seed: int) -> topology.BackgroundTrafficModel | None:
        if self.flat["bg.preset"] == "off":
            return None
        return topology.BackgroundTrafficModel(
            arrival_rate_per_s=self._bg("bg.arrival_rate_per_s"),
            mean_hold_s=self._bg("bg.mean_hold_s"),
            fs_demand_range=(self._bg("bg.fs_demand_min"), self._bg("bg.fs_demand_max")),
            rng_seed=seed,
        )

    def placement(self, seed: int, p: int) -> list[str]:
        """p names drawn uniformly, with replacement, from the placement pool:
        ``numpy.random.default_rng([seed, 101]).integers(0, len(pool), size=p)``."""
        dcs = self.dc_nodes()
        rng = default_rng([seed, _PLACEMENT_STREAM])
        return [dcs[i] for i in rng.integers(0, len(dcs), size=p)]

    def prewarm_s(self) -> float:
        """Seconds of background evolution before iteration 0.

        ``bg.prewarm_s`` when set; otherwise the loaded preset defaults to
        five of its effective holding times (``bg.mean_hold_s`` when set) so
        measured iterations see steady-state occupancy instead of a cold start.
        """
        f = self.flat
        if f["bg.prewarm_s"] is not None:
            return f["bg.prewarm_s"]
        if f["bg.preset"] == "off":
            return 0.0
        return 5.0 * self._bg("bg.mean_hold_s")

    def expected_bg_arrivals(self) -> float:
        """Background arrivals one policy run draws, estimated before the run.

        The rate times the prewarm plus ``cba.n_iterations`` zero-latency
        makespans of the largest configured cell, (m + p - 1) times the
        slowest stage's forward plus backward time.  Communication only
        stretches iterations, so a real run usually draws somewhat more; one
        that would draw past the cap stops instead (``topology.ArrivalCapError``).
        """
        f = self.flat
        p = f["pp.stages"]
        slowest_stage = max(
            -(-prof.n_layers // p) * (prof.fwd_time_per_layer_s + prof.bwd_time_per_layer_s)
            for prof in map(self.profile, {f["run.model"], *f["compare.models"]})
        )
        m = max(f["run.microbatches"], *f["compare.microbatch_grid"])
        makespan = (m + p - 1) * slowest_stage
        rate = self._bg("bg.arrival_rate_per_s")
        return rate * (self.prewarm_s() + f["cba.n_iterations"] * makespan)

    def tasks_per_policy_run(self) -> int:
        """Tasks one policy run simulates at most: ``cba.n_iterations`` x 2·p·m,
        with the largest m of ``run.microbatches`` and the compare grid."""
        f = self.flat
        m = max(f["run.microbatches"], *f["compare.microbatch_grid"])
        return f["cba.n_iterations"] * 2 * f["pp.stages"] * m

    def compare_cells(self) -> int:
        """Cells of the compare grid: models x schedules x microbatch counts x seeds."""
        f = self.flat
        return (len(f["compare.models"]) * len(f["compare.schedules"])
                * len(f["compare.microbatch_grid"]) * len(f["compare.seeds"]))

    def check_model_depth(self, models: Iterable[str]) -> None:
        p = self.flat["pp.stages"]
        for name in models:
            profile = self.profile(name)
            if p > profile.n_layers:
                raise ConfigError(
                    f"pp.stages: p={p} exceeds n_layers={profile.n_layers} "
                    f"of model {name!r}"
                )


def _load_network(path: str | None, fs_total: int) -> topology.Network:
    """A fresh network of the topology file at ``path``, or of NSFNET."""
    if not path:
        return topology.load_nsfnet(fs_total)
    try:
        return topology.load_topology_file(path, fs_total)
    except (OSError, UnicodeDecodeError, topology.TopologyError) as exc:
        raise ConfigError(f"topology.path: {exc}") from exc


@functools.lru_cache(maxsize=START_STATES)
def prewarmed_start(path: str | None, fs_total: int,
                    bg: topology.BackgroundTrafficModel | None,
                    prewarm_s: float) -> topology.NetworkSnapshot:
    """One network, its routes and arrival tape, prewarmed once per process.

    The arguments are the immutable config values a start state depends on.
    The snapshot is the state ``prewarm_s`` seconds into the background;
    every policy run of every cell with these values restores it onto its
    network and then extends the same tape.  Routes accumulate in the
    network's catalog as cells ask for them.  The memo is bounded
    (``START_STATES``); ``prewarmed_start.cache_clear()`` empties it.
    """
    net = _load_network(path, fs_total)
    if bg is not None:
        net.attach_background(bg)
        topology.advance_network(net, prewarm_s)
    return net.snapshot()


# ----------------------------------------------------------------------
# cell execution (shared by run, compare, and the test suite)


@dataclass
class CellOutcome:
    """What one or more cells produced: measured rows of plain numbers,
    event-log lines (empty unless collected) and ``counts``, summed over the
    cells: ``audited_transfers`` and ``label_checks`` count what was simulated
    and checked, ``first_fit_reused`` the cells whose second first-fit
    baseline was copied, and ``reused_iterations`` the iterations that
    repeated an earlier iteration's timeline."""

    rows: list[list] = field(default_factory=list)
    event_lines: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


# The two first-fit baselines: same candidates, possibly different trial order.
_FIRST_FIT_TWIN = {"ksp_ff": "sd_ff", "sd_ff": "ksp_ff"}


def _routed_pairs(stages: Sequence[workload.Stage],
                  tasks: Sequence[workload.Task]) -> set[tuple[str, str]]:
    """Every ordered (src DC, dst DC) pair whose messages go through selection."""
    dc = [stages[t.stage_id].dc_node for t in tasks]
    return {(dc[a], dc[b]) for a, b in workload.message_edges(tasks) if dc[a] != dc[b]}


def _sd_ff_order_is_ksp_ff(net: topology.Network, pairs: Iterable[tuple[str, str]],
                           k: int, params: LatencyParams) -> bool:
    """True when SD-FF tries every pair's candidates in shortest-path order."""
    orders = (net.paths.delay_order(src, dst, k, params) for src, dst in pairs)
    return all(list(order) == sorted(order) for order in orders)


def run_cell(
    cfg: RunConfig,
    policy_names: Sequence[str],
    model: str,
    schedule: str,
    m: int,
    seed: int,
    collect_events: bool = False,
) -> CellOutcome:
    """Run one (model, schedule, m, seed) cell for the given policies.

    All policies observe the identical placement and share one immutable
    stage and task list.  Each simulated policy starts from the same
    prewarmed state, ``RunConfig.start_state(seed)``: the process builds one
    network per background seed, with its routes and arrival tape, prewarms
    it once and restores that snapshot before every run, so the policies'
    spectrum evolution stays independent and every cell of the seed extends
    the one tape.  Every simulated iteration is audited for spectrum
    discipline, and under CBA its CB labels are checked.
    The event log is built only when ``collect_events`` asks for it; the
    audit then replays its lines (``engine.audit_event_log``), and otherwise
    it reads the timeline's transfer records (``engine.audit_transfers``),
    with the same checks on the same values.

    KSP-FF and SD-FF differ only in the order in which they try the same
    candidate paths, and the simulation is deterministic.  When the cell runs
    both and SD-FF's order is the shortest-path order for every routed pair,
    the second of the two is not simulated: it takes the first one's
    results.  Every policy's rows and event lines then come out of one loop
    over its results.  Each distinct result is audited, label-checked (CBA's
    alone carry labels), serialised and reduced to its row values once; an
    iteration that ``orchestrate`` reused (no background, a repeated demand
    map) or a copied twin's is that same object: it repeats under its own
    number and adds nothing to the audit and label counts.
    """
    p = cfg["pp.stages"]
    k = cfg["rsa.k"]
    profile = cfg.profile(model)
    placement = cfg.placement(seed, p)
    params = cfg.latency_params()
    orch = cfg.orchestrator()
    msg_bits = profile.msg_bytes_per_microbatch * 8
    stages = workload.partition_stages(profile, p, placement)
    tasks = workload.build_schedule(workload.ScheduleKind(schedule), stages, m)

    start = cfg.start_state(seed)
    net = start.network
    out = CellOutcome()
    counts = out.counts
    runs: dict[str, list[cba.IterationResult]] = {}
    for policy_name in policy_names:
        twin = runs.get(_FIRST_FIT_TWIN.get(policy_name))
        if twin is not None and _sd_ff_order_is_ksp_ff(
            net, _routed_pairs(stages, tasks), k, params
        ):
            runs[policy_name] = twin
            counts["first_fit_reused"] = 1
            continue
        net.restore(start)
        runs[policy_name] = results = cba.orchestrate(
            orch, net, stages, tasks, cfg.policy(policy_name), params, msg_bits=msg_bits,
        )
        counts["reused_iterations"] += len(results) - len({id(r) for r in results})

    # id(result) -> its row values and log lines (empty without collect_events)
    seen: dict[int, tuple[list, list[str]]] = {}
    for policy_name, results in runs.items():
        for it, r in enumerate(results):
            if id(r) not in seen:
                tl = r.timeline
                if collect_events:
                    lines = tl.event_log_lines()
                    audited = engine.audit_event_log(net, lines, tl.iteration_makespan)
                else:
                    lines = []
                    audited = engine.audit_transfers(net, tl.transfers, tl.iteration_makespan)
                counts["audited_transfers"] += audited
                if r.labels is not None:
                    counts["label_checks"] += cba.verify_label_soundness(
                        tl, r.labels, orch.epsilon_bubble_s)
                seen[id(r)] = [
                    tl.iteration_makespan, engine.bubble_ratio(tl), tl.cross_dc_requests,
                    tl.blocked_requests, engine.blocking_probability(tl),
                ], lines
            values, lines = seen[id(r)]
            if collect_events:
                out.event_lines.append(
                    f"RUN\tpolicy={policy_name}\tmodel={model}\tschedule={schedule}"
                    f"\tm={m}\tseed={seed}\titeration={it}"
                )
                out.event_lines.extend(lines)
            if it >= 1:
                out.rows.append([policy_name, model, schedule, m, seed, it, *values])
    return out


def run_cells(cfg: RunConfig, policies: Sequence[str],
              cells: Sequence[tuple[str, str, int, int]], verbose: bool = True) -> CellOutcome:
    """Run each (model, schedule, m, seed) cell for ``policies``; one summed outcome.

    The cells' models must fit ``pp.stages``.  ``output.event_log`` decides
    whether the cells collect the event log, and ``jobs`` (default: up to 8
    cores) how many worker processes run them, at most one per cell; each
    worker gets the validated ``cfg``.  Cells are dispatched largest first by
    task count and, within one size, by seed, so a worker's consecutive cells
    share a prewarmed start state (``prewarmed_start``).  The rows, lines and
    counts are summed in the given cell order.
    """
    cfg.check_model_depth(dict.fromkeys(cell[0] for cell in cells))
    jobs = cfg["jobs"] or min(os.cpu_count() or 1, 8)
    job = functools.partial(run_cell, cfg, policies, collect_events=cfg["output.event_log"])
    # largest cells (2*p*m tasks) first, so no worker is left with a long cell at the end
    order = sorted(range(len(cells)), key=lambda i: (-cells[i][2], cells[i][3]))
    outcomes: list[CellOutcome | None] = [None] * len(cells)
    # a pool forks all its workers at once, however few cells there are
    workers = min(jobs, len(cells))
    parallel = workers > 1
    if parallel:  # imported here, so a serial run does not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else contextlib.nullcontext() as pool:
        cell_map = pool.map if pool else map
        try:
            done = cell_map(job, *zip(*(cells[i] for i in order)))
            for n, (i, out) in enumerate(zip(order, done), 1):
                outcomes[i] = out
                if verbose:
                    print(f"cell {n}/{len(cells)} {cells[i]} done", file=sys.stderr, flush=True)
        except BaseException:
            if pool is not None:  # a failed cell ends the run: drop the queued ones
                pool.shutdown(cancel_futures=True)
            raise

    total = CellOutcome()
    for out in outcomes:
        total.rows.extend(out.rows)
        total.event_lines.extend(out.event_lines)
        total.counts.update(out.counts)
    return total


# ----------------------------------------------------------------------
# commands


def _outdir(explicit: str | None) -> str:
    return explicit or os.environ.get("OPTPIPE_OUTDIR") or "."


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(cfg: RunConfig, outdir: str, command: str, out: CellOutcome,
                   summary_rows: list[list] | None = None) -> dict[str, str]:
    """Write ``<command>.csv``, the summary if given and the event log if
    configured; returns their paths.  ``csv`` writes a float as its ``repr``."""
    paths = {"results": os.path.join(outdir, f"{command}.csv")}
    _write_csv(paths["results"], RESULT_COLUMNS, out.rows)
    if summary_rows is not None:
        paths["summary"] = os.path.join(outdir, f"{command}_summary.csv")
        _write_csv(paths["summary"], SUMMARY_COLUMNS, summary_rows)
    if cfg["output.event_log"]:
        paths["events"] = os.path.join(outdir, f"{command}_events.log")
        with open(paths["events"], "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(out.event_lines) + "\n")
    return paths


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def cmd_run(cfg: RunConfig, outdir: str, verbose: bool = True) -> dict[str, str]:
    """The configured policy's cell at each of ``run.seeds``, in that order,
    then a mean row over every measured row."""
    os.makedirs(outdir, exist_ok=True)
    cell = (cfg["run.model"], cfg["run.schedule"], cfg["run.microbatches"])
    out = run_cells(cfg, [cfg["run.policy"]], [(*cell, seed) for seed in cfg["run.seeds"]],
                    verbose)
    out.rows.append([cfg["run.policy"], *cell, "all", "mean",
                     *(_mean([r[col] for r in out.rows]) for col in range(6, len(RESULT_COLUMNS)))])
    return _write_outputs(cfg, outdir, "run", out)


def compare_grid(cfg: RunConfig, verbose: bool = True) -> tuple[CellOutcome, list[list]]:
    """Run the full paired grid: all three policies on every cell of the
    models x schedules x microbatch counts x seeds.  Returns the summed
    outcome, its rows sorted by (policy, model, schedule, m, seed,
    iteration), and the summary rows."""
    cells = list(itertools.product(cfg["compare.models"], cfg["compare.schedules"],
                                   cfg["compare.microbatch_grid"], cfg["compare.seeds"]))
    out = run_cells(cfg, engine.SELECTORS, cells, verbose)
    out.rows.sort(key=lambda r: r[:6])
    return out, _summarize(cfg, out.rows)


def _summarize(cfg: RunConfig, rows: list[list]) -> list[list]:
    """Per (model, schedule, m) and policy: the mean runtime, bubble ratio and
    blocking probability, and their improvement over each first-fit baseline."""
    per: dict[tuple, dict[str, list[list]]] = {}
    for r in rows:
        per.setdefault(tuple(r[1:4]), {}).setdefault(r[0], []).append(r)
    out: list[list] = []
    for model, schedule, m in itertools.product(cfg["compare.models"], cfg["compare.schedules"],
                                                cfg["compare.microbatch_grid"]):
        means = {policy: [_mean([r[col] for r in rs]) for col in (6, 7, 10)]
                 for policy, rs in per[model, schedule, m].items()}
        for policy in engine.SELECTORS:
            rt, bub, blk = means[policy]
            row = [policy, model, schedule, m, rt, bub, blk]
            for base in ("ksp_ff", "sd_ff"):
                brt, bbub, bblk = means[base]
                row.extend([100.0 * (brt - rt) / brt if brt else 0.0, bbub - bub, bblk - blk])
            out.append(row)
    return out


def cmd_compare(cfg: RunConfig, outdir: str, verbose: bool = True) -> dict[str, str]:
    os.makedirs(outdir, exist_ok=True)
    out, summary_rows = compare_grid(cfg, verbose)
    paths = _write_outputs(cfg, outdir, "compare", out, summary_rows)
    if verbose:
        counts = out.counts
        print(f"compare: audited {counts['audited_transfers']} transfers; "
              f"{counts['first_fit_reused']} cells reused the KSP-FF trajectory for SD-FF; "
              f"{counts['reused_iterations']} iterations reused an earlier iteration's "
              f"timeline; wrote {paths['results']}", file=sys.stderr, flush=True)
    return paths


def cmd_validate(verbose: bool = True) -> int:
    try:
        from . import validate
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "numpy":
            raise
        raise RuntimeError("optpipe validate needs numpy: install optpipe[validate]") from exc
    report = validate.run_all()
    failed = 0
    for name, ok, detail in report:
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status}" + (f" ({detail})" if detail else ""))
        failed += 0 if ok else 1
    return 1 if failed else 0


# ----------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="optpipe",
        description="Pipeline-parallel training over multi-DC elastic optical networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one policy over the configured workload")
    p_run.add_argument("--config", help="JSON config of flat dotted keys")
    p_run.add_argument("--policy", choices=engine.SELECTORS)
    p_run.add_argument("--seed", type=int, help="replace run.seeds with one seed")
    p_run.add_argument("--out", help="output directory (or $OPTPIPE_OUTDIR)")

    p_cmp = sub.add_parser("compare", help="run all three policies over the grid")
    p_cmp.add_argument("--config", help="JSON config of flat dotted keys")
    p_cmp.add_argument("--jobs", type=int, help="parallel worker processes")
    p_cmp.add_argument("--out", help="output directory (or $OPTPIPE_OUTDIR)")

    sub.add_parser("validate", help="run the built-in oracle suite")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate()
        overrides: dict[str, Any] = {}
        if args.command == "run":
            if args.policy:
                overrides["run.policy"] = args.policy
            if args.seed is not None:
                overrides["run.seeds"] = [args.seed]
        elif args.jobs is not None:
            overrides["jobs"] = args.jobs
        cfg = (
            RunConfig.from_file(args.config, overrides)
            if args.config
            else RunConfig.from_flat(overrides)
        )
        outdir = _outdir(args.out)
        if args.command == "run":
            paths = cmd_run(cfg, outdir)
        else:
            paths = cmd_compare(cfg, outdir)
        for kind, path in paths.items():
            print(f"{kind}: {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except topology.ArrivalCapError as exc:
        # the estimate behind the config check assumes zero-latency iterations
        print(f"config error: bg.arrival_rate_per_s: {exc}; slow links or long retry "
              "backoffs stretch a run far past the expected arrivals", file=sys.stderr)
        return 1
    except engine.TimeOverflowError as exc:
        print(f"config error: {', '.join(_TIME_KEYS[exc.args[0]])}: a {exc.args[0]} time "
              "overflowed the simulated clock", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
