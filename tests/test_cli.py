from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os

import pytest

from optpipe import cba, cli, engine, rsa, topology, validate
from optpipe.cli import ConfigError, RunConfig
from optpipe.engine import SELECTORS
from optpipe.latency import LatencyParams


class TestConfig:
    def test_empty_config_runs_with_defaults(self):
        cfg = RunConfig.from_flat({})
        assert cfg["pp.stages"] == 8
        assert cfg["topology.fs_total"] == 80
        assert cfg["compare.microbatch_grid"] == [16, 32, 64, 128]
        assert cfg["run.seeds"] == [0]
        assert cfg["compare.seeds"] == [0, 1, 2]

    def test_invalid_p_names_key(self):
        with pytest.raises(ConfigError, match="pp.stages"):
            RunConfig.from_flat({"pp.stages": 0})

    def test_invalid_fs_max_names_key(self):
        with pytest.raises(ConfigError, match="fs.max"):
            RunConfig.from_flat({"fs.max": 100})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_flat({"latency.warp_factor": 9})

    def test_bad_type_names_key(self):
        with pytest.raises(ConfigError, match="rsa.k"):
            RunConfig.from_flat({"rsa.k": "five"})

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"run.microbatches": 4, "cba.n_iterations": 3}))
        cfg = RunConfig.from_file(str(path))
        assert cfg["run.microbatches"] == 4
        assert cfg["cba.n_iterations"] == 3

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"run.policy": "ksp_ff"}))
        cfg = RunConfig.from_file(str(path), {"run.policy": "sd_ff"})
        assert cfg["run.policy"] == "sd_ff"

    def test_model_depth_checked(self):
        cfg = RunConfig.from_flat({"pp.stages": 40, "run.model": "llama3-8b-like"})
        with pytest.raises(ConfigError, match="pp.stages"):
            cfg.check_model_depth(["llama3-8b-like"])

    def test_placement_is_seed_deterministic(self):
        cfg = RunConfig.from_flat({})
        assert cfg.placement(3, 8) == cfg.placement(3, 8)
        assert cfg.placement(3, 8) != cfg.placement(4, 8)
        assert set(cfg.placement(3, 8)) <= set(cfg.dc_nodes())

    def test_placement_pool_may_repeat_a_name(self):
        # a repeated name weights the draw; only the run and grid axes must be distinct
        cfg = RunConfig.from_flat({"placement.dc_nodes": ["IL", "IL", "PA"]})
        assert cfg.dc_nodes() == ["IL", "IL", "PA"]

    def test_placement_draws_from_the_whole_pool(self):
        pool = [*cli.DEFAULT_DC_NODES, "GA"]
        cfg = RunConfig.from_flat({"placement.dc_nodes": pool})
        assert cfg.dc_nodes() == pool
        assert any("GA" in cfg.placement(seed, 8) for seed in range(200))

    @pytest.mark.parametrize("key, value", [
        ("topology.slot_width_ghz", 12.5),
        ("topology.per_direction", False),
        ("placement.n_dcs", 6),
        ("latency.queue_penalty_per_conflict_s", 0.0),
        ("cba.boost_outgoing", False),
        ("rsa.ci_mode", "window"),
    ])
    def test_removed_keys_are_unknown(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            RunConfig.from_flat({key: value})

    @pytest.mark.parametrize("key", ["topology.path", "run.policy", "run.schedule", "run.model",
                                     "bg.preset"])
    @pytest.mark.parametrize("value", [7, True])
    def test_string_keys_take_strings_only(self, key, value):
        # str() would turn 7 into '7' and true into 'True'
        with pytest.raises(ConfigError, match=f"{key}: invalid value .*expected a string"):
            RunConfig.from_flat({key: value})

    def test_integral_floats_are_accepted_for_int_keys(self):
        cfg = RunConfig.from_flat({"rsa.k": 4.0, "run.model": "custom", "model.n_layers": 32.0,
                                   "model.fwd_time_per_layer_s": 1e-3,
                                   "model.bwd_time_per_layer_s": 2e-3,
                                   "model.msg_bytes_per_microbatch": 8.0})
        assert cfg["rsa.k"] == 4 and isinstance(cfg["rsa.k"], int)
        assert cfg["model.n_layers"] == 32 and isinstance(cfg["model.n_layers"], int)
        assert cfg["model.msg_bytes_per_microbatch"] == 8
        assert isinstance(cfg["model.msg_bytes_per_microbatch"], int)

    def test_loaded_preset_prewarm_default(self):
        cfg = RunConfig.from_flat({"bg.preset": "loaded"})
        assert cfg.prewarm_s() == pytest.approx(30.0)
        assert RunConfig.from_flat({}).prewarm_s() == 0.0

    def test_loaded_preset_prewarm_follows_hold_override(self):
        cfg = RunConfig.from_flat({"bg.preset": "loaded", "bg.mean_hold_s": 0.6})
        assert cfg.prewarm_s() == pytest.approx(3.0)

    def test_loaded_preset_demand_overrides(self):
        cfg = RunConfig.from_flat({"bg.preset": "loaded", "bg.fs_demand_min": 1,
                                   "bg.fs_demand_max": 3})
        assert cfg.background(5).fs_demand_range == (1, 3)
        only_max = RunConfig.from_flat({"bg.preset": "loaded", "bg.fs_demand_max": 4})
        assert only_max.background(5).fs_demand_range == (2, 4)
        assert RunConfig.from_flat({"bg.preset": "loaded"}).background(5) == (
            topology.loaded_background(5))

    def test_background_work_estimate(self):
        # loaded preset: 30 arrivals/s over a 30 s prewarm plus 11 iterations of the
        # largest default cell, 70B with 10 layers per stage at m=128: 135 x 0.18 s
        cfg = RunConfig.from_flat({"bg.preset": "loaded"})
        assert cfg.expected_bg_arrivals() == pytest.approx(30 * (30 + 11 * 135 * 0.18))
        assert cfg.expected_bg_arrivals() < topology.MAX_BG_ARRIVALS / 100

    def test_work_estimate(self):
        # 11 iterations of 2 x 8 stages x 128 micro-batches; 2 x 2 x 4 x 3 cells
        cfg = RunConfig.from_flat({"run.microbatches": 200})
        assert cfg.tasks_per_policy_run() == 11 * 2 * 8 * 200
        assert cfg.compare_cells() == 48
        shipped = RunConfig.from_file(
            os.path.join(os.path.dirname(__file__), "..", "configs", "loaded.json"))
        assert shipped.tasks_per_policy_run() < cli.MAX_RUN_TASKS / 80
        assert shipped.compare_cells() < cli.MAX_CELLS / 80
        grid_tasks = shipped.compare_cells() * shipped.tasks_per_policy_run()
        assert grid_tasks == 320 * 11 * 2 * 8 * 128 < cli.MAX_GRID_TASKS / 80

    def test_defaults_are_the_librarys(self):
        # LIBRARY_KEYS names one key for every field of the three classes, so
        # an empty config builds each class with all of its own defaults
        targets = list(cli.LIBRARY_KEYS.values())
        for cls in (LatencyParams, engine.PolicyConfig, cba.OrchestratorConfig):
            for spec in dataclasses.fields(cls):
                assert targets.count((cls, spec.name)) == 1, (cls, spec.name)
        assert len(targets) == 16
        cfg = RunConfig.from_flat({})
        assert cfg.latency_params() == LatencyParams()
        for selector in SELECTORS:
            assert cfg.policy(selector) == engine.PolicyConfig(selector=selector)
        assert cfg.orchestrator() == cba.OrchestratorConfig()
        assert cfg["topology.fs_total"] == topology.DEFAULT_FS_TOTAL

    def test_shipped_loaded_config_parses(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs", "loaded.json")
        cfg = RunConfig.from_file(root)
        assert cfg["bg.preset"] == "loaded"
        assert len(cfg["compare.seeds"]) >= 20


SMALL = {
    "run.microbatches": 2,
    "cba.n_iterations": 3,
    "compare.seeds": [0, 1],
    "compare.microbatch_grid": [2],
    "compare.models": ["llama3-8b-like"],
    "compare.schedules": ["gpipe"],
    "jobs": 1,
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCmdRun:
    def test_row_count_contract(self, tmp_path):
        cfg = RunConfig.from_flat({**SMALL, "run.seeds": [0]})
        paths = cli.cmd_run(cfg, str(tmp_path), verbose=False)
        rows = read_csv(paths["results"])
        header, body = rows[0], rows[1:]
        assert header == cli.RESULT_COLUMNS
        assert len(body) == 2 + 1  # (n_iterations - 1) measured + summary
        assert body[-1][4] == "all" and body[-1][5] == "mean"
        assert all(int(r[5]) >= 1 for r in body[:-1])

    def test_two_seeds_double_rows_and_summary_mean(self, tmp_path):
        cfg = RunConfig.from_flat({**SMALL, "run.seeds": [0, 1]})
        paths = cli.cmd_run(cfg, str(tmp_path), verbose=False)
        body = read_csv(paths["results"])[1:]
        measured, summary = body[:-1], body[-1]
        assert len(measured) == 4
        want = math.fsum(float(r[6]) for r in measured) / len(measured)
        assert float(summary[6]) == want  # recomputable from raw rows

    def test_csv_roundtrip_exact(self, tmp_path):
        cfg = RunConfig.from_flat({**SMALL, "run.seeds": [0]})
        paths = cli.cmd_run(cfg, str(tmp_path), verbose=False)
        rows = read_csv(paths["results"])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerows(rows)
        assert buf.getvalue() == open(paths["results"], encoding="utf-8").read()

    def test_rows_keep_the_order_of_run_seeds(self, tmp_path):
        # compare sorts its rows; run writes its seeds as configured
        cfg = RunConfig.from_flat({**SMALL, "run.seeds": [3, 1]})
        body = read_csv(cli.cmd_run(cfg, str(tmp_path), verbose=False)["results"])[1:-1]
        assert [r[4] for r in body] == ["3", "3", "1", "1"]

    def test_one_and_two_jobs_write_the_same_bytes(self, tmp_path):
        flat = {**SMALL, "run.seeds": [2, 0, 1], "bg.preset": "loaded", "output.event_log": True}
        a = cli.cmd_run(RunConfig.from_flat({**flat, "jobs": 1}), str(tmp_path / "a"),
                        verbose=False)
        b = cli.cmd_run(RunConfig.from_flat({**flat, "jobs": 2}), str(tmp_path / "b"),
                        verbose=False)
        for key in ("results", "events"):
            assert open(a[key], "rb").read() == open(b[key], "rb").read()


class TestCmdCompare:
    def test_grid_row_count_and_pairing(self, tmp_path):
        cfg = RunConfig.from_flat(SMALL)
        paths = cli.cmd_compare(cfg, str(tmp_path), verbose=False)
        body = read_csv(paths["results"])[1:]
        # 3 policies x 1 cell x 2 seeds x 2 measured iterations
        assert len(body) == 12
        summary = read_csv(paths["summary"])
        assert summary[0] == cli.SUMMARY_COLUMNS
        assert len(summary[1:]) == 3

    def test_self_deltas_zero(self, tmp_path):
        cfg = RunConfig.from_flat(SMALL)
        paths = cli.cmd_compare(cfg, str(tmp_path), verbose=False)
        for row in read_csv(paths["summary"])[1:]:
            policy = row[0]
            if policy == "ksp_ff":
                assert float(row[7]) == 0.0 and float(row[8]) == 0.0 and float(row[9]) == 0.0
            if policy == "sd_ff":
                assert float(row[10]) == 0.0 and float(row[11]) == 0.0 and float(row[12]) == 0.0

    def test_summary_recomputable_within_tolerance(self, tmp_path):
        cfg = RunConfig.from_flat(SMALL)
        paths = cli.cmd_compare(cfg, str(tmp_path), verbose=False)
        body = read_csv(paths["results"])[1:]
        per = {}
        for r in body:
            per.setdefault(r[0], []).append(float(r[6]))
        for row in read_csv(paths["summary"])[1:]:
            want = math.fsum(per[row[0]]) / len(per[row[0]])
            assert abs(float(row[4]) - want) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        cfg = RunConfig.from_flat({**SMALL, "output.event_log": True, "bg.preset": "loaded"})
        a = cli.cmd_compare(cfg, str(tmp_path / "a"), verbose=False)
        b = cli.cmd_compare(cfg, str(tmp_path / "b"), verbose=False)
        for key in ("results", "summary", "events"):
            assert open(a[key], "rb").read() == open(b[key], "rb").read()

    def test_largest_cells_dispatched_first(self, monkeypatch):
        flat = {**SMALL, "compare.microbatch_grid": [2, 4, 3], "compare.seeds": [0]}
        dispatched = []
        real_cell = cli.run_cell

        def spy(cfg, policies, model, schedule, m, seed, **kwargs):
            dispatched.append(m)
            return real_cell(cfg, policies, model, schedule, m, seed, **kwargs)

        monkeypatch.setattr(cli, "run_cell", spy)
        out, _ = cli.compare_grid(RunConfig.from_flat(flat), verbose=False)
        assert dispatched == [4, 3, 2]
        unsorted = {m: real_cell(RunConfig.from_flat(flat), SELECTORS, "llama3-8b-like",
                                 "gpipe", m, 0).rows
                    for m in (2, 3, 4)}
        assert out.rows == sorted((r for m in (2, 3, 4) for r in unsorted[m]),
                                  key=lambda r: (r[0], r[3]))

    def test_counts_are_the_sums_of_the_cells(self):
        cfg = RunConfig.from_flat({**SMALL, "bg.preset": "loaded"})
        out, _ = cli.compare_grid(cfg, verbose=False)
        cells = [cli.run_cell(cfg, SELECTORS, "llama3-8b-like", "gpipe", 2, seed)
                 for seed in (0, 1)]
        keys = ("audited_transfers", "label_checks", "first_fit_reused", "reused_iterations")
        assert [out.counts[key] for key in keys] == [sum(c.counts[key] for c in cells)
                                                     for key in keys]
        assert out.counts["audited_transfers"] > 0 and out.counts["first_fit_reused"] == 2

    def test_parallel_matches_serial(self, tmp_path):
        cfg_serial = RunConfig.from_flat(SMALL)
        cfg_par = RunConfig.from_flat({**SMALL, "jobs": 2})
        a = cli.cmd_compare(cfg_serial, str(tmp_path / "s"), verbose=False)
        b = cli.cmd_compare(cfg_par, str(tmp_path / "p"), verbose=False)
        assert open(a["results"], "rb").read() == open(b["results"], "rb").read()


class TestFirstFitReuse:
    LOADED = {"bg.preset": "loaded", "cba.n_iterations": 3}

    def _cell(self, flat, model, schedule):
        cfg = RunConfig.from_flat(flat)
        both = cli.run_cell(cfg, SELECTORS, model, schedule, 4, 0,
                            collect_events=True)
        solo = {name: cli.run_cell(cfg, [name], model, schedule, 4, 0, collect_events=True)
                for name in SELECTORS}
        # every policy's rows and event lines, SD-FF's included, byte for byte
        assert both.rows == [r for name in SELECTORS for r in solo[name].rows]
        assert both.event_lines == [x for name in SELECTORS
                                    for x in solo[name].event_lines]
        return both, solo

    @pytest.mark.parametrize("model", ["llama3-8b-like", "llama3-70b-like"])
    @pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
    def test_reused_sd_ff_matches_solo_run(self, model, schedule):
        both, solo = self._cell(self.LOADED, model, schedule)
        assert both.counts["first_fit_reused"] == 1
        for key in ("audited_transfers", "label_checks"):
            assert both.counts[key] == solo["cba"].counts[key] + solo["ksp_ff"].counts[key]

    def test_reordering_latency_simulates_sd_ff(self, monkeypatch):
        tapes = []

        class CountedTape(topology.ArrivalTape):
            def __init__(self, *args):
                super().__init__(*args)
                tapes.append(self)

        monkeypatch.setattr(topology, "ArrivalTape", CountedTape)
        # a 10 ms per-hop overhead puts fewer-hop routes first on some pool pairs
        both, solo = self._cell({**self.LOADED, "latency.per_hop_overhead_s": 0.01},
                                "llama3-8b-like", "gpipe")
        assert both.counts["first_fit_reused"] == 0
        # one tape per background seed per process: the cell's three policies
        # and the three solo runs all read it
        assert len(tapes) == 1 and len(tapes[0]) > 0
        for key in ("audited_transfers", "label_checks"):
            assert both.counts[key] == sum(o.counts[key] for o in solo.values())


class TestBaselineLabels:
    @pytest.mark.parametrize("policy", ["ksp_ff", "sd_ff"])
    def test_first_fit_cell_neither_labels_nor_verifies(self, monkeypatch, policy):
        calls = []
        for name in ("label_cb_tasks", "verify_label_soundness"):
            real = getattr(cli.cba, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli.cba, name, spy)
        cfg = RunConfig.from_flat({"bg.preset": "loaded", "cba.n_iterations": 3})
        out = cli.run_cell(cfg, [policy], "llama3-8b-like", "1f1b", 4, 0)
        assert out.rows and calls == [] and out.counts["label_checks"] == 0
        # the spies see CBA's labels
        out = cli.run_cell(cfg, ["cba"], "llama3-8b-like", "1f1b", 4, 0)
        assert set(calls) == {"label_cb_tasks", "verify_label_soundness"}
        assert out.counts["label_checks"] > 0


class TestStartStates:
    """Outputs never depend on what the process's start-state memo holds."""

    FLAT = {"bg.preset": "loaded", "cba.n_iterations": 3}

    @staticmethod
    def _run(cfg, model, schedule, m, seed):
        out = cli.run_cell(cfg, SELECTORS, model, schedule, m, seed, collect_events=True)
        return out.rows, out.event_lines

    def test_cell_is_the_same_cold_warmed_and_after_another_seed(self):
        cfg = RunConfig.from_flat(self.FLAT)
        cell = ("llama3-8b-like", "1f1b", 4)
        cold = self._run(cfg, *cell, 0)
        cli.prewarmed_start.cache_clear()
        # another cell of the seed draws the tape further than this one needs
        self._run(cfg, "llama3-8b-like", "gpipe", 8, 0)
        warmed = self._run(cfg, *cell, 0)
        self._run(cfg, *cell, 1)
        after_another_seed = self._run(cfg, *cell, 0)
        assert cold == warmed == after_another_seed
        assert cold[0] and cold[1]
        info = cli.prewarmed_start.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_reversed_grid_order_gives_the_same_cells(self):
        cfg = RunConfig.from_flat(self.FLAT)
        grid = [("llama3-8b-like", schedule, m, seed)
                for schedule in ("gpipe", "1f1b") for m in (2, 4) for seed in (0, 1)]
        forward = {cell: self._run(cfg, *cell) for cell in grid}
        cli.prewarmed_start.cache_clear()
        backward = {cell: self._run(cfg, *cell) for cell in reversed(grid)}
        assert forward == backward

    def test_parallel_grid_with_background_matches_serial(self):
        flat = {**SMALL, **self.FLAT, "compare.microbatch_grid": [2, 4],
                "compare.schedules": ["gpipe", "1f1b"], "output.event_log": True}
        serial = cli.compare_grid(RunConfig.from_flat({**flat, "jobs": 1}), verbose=False)
        parallel = cli.compare_grid(RunConfig.from_flat({**flat, "jobs": 2}), verbose=False)
        assert serial == parallel
        assert serial[0].event_lines

    def test_memo_stays_within_its_bound(self):
        flat = {**SMALL, **self.FLAT, "compare.seeds": list(range(6)),
                "compare.schedules": ["gpipe", "1f1b"]}
        cli.compare_grid(RunConfig.from_flat(flat), verbose=False)
        info = cli.prewarmed_start.cache_info()
        assert info.maxsize == cli.START_STATES < 6
        assert info.currsize == cli.START_STATES
        # cells of one size run seed by seed: each seed is prewarmed once
        assert (info.misses, info.hits) == (6, 6)


class TestIterationReuse:
    QUIET = {"cba.n_iterations": 6}

    def test_reused_iterations_keep_their_log_and_skip_the_audit(self, monkeypatch):
        cfg = RunConfig.from_flat(self.QUIET)
        audits = []
        real_audit = engine.audit_event_log

        def spy(net, lines, makespan):
            audits.append(lines)
            return real_audit(net, lines, makespan)

        monkeypatch.setattr(engine, "audit_event_log", spy)
        reuse = cli.run_cell(cfg, SELECTORS, "llama3-8b-like", "gpipe", 4, 0,
                             collect_events=True)
        reuse_audits = len(audits)
        monkeypatch.setattr(cli.cba, "orchestrate", validate.ref_orchestrate)
        plain = cli.run_cell(cfg, SELECTORS, "llama3-8b-like", "gpipe", 4, 0,
                             collect_events=True)
        # every iteration's header and lines, as if each were simulated
        assert reuse.rows == plain.rows and reuse.event_lines == plain.event_lines
        assert sum(line.startswith("RUN\t") for line in reuse.event_lines) == 3 * 6
        # KSP-FF simulates once; SD-FF is copied from it and adds nothing
        reused = reuse.counts["reused_iterations"]
        assert plain.counts["reused_iterations"] == 0 and reused >= 5
        assert reuse_audits == 2 * 6 - reused
        assert len(audits) - reuse_audits == 2 * 6
        assert 0 < reuse.counts["audited_transfers"] < plain.counts["audited_transfers"]
        assert reuse.counts["label_checks"] <= plain.counts["label_checks"]

    def test_compare_reports_reused_iterations(self, tmp_path, capsys):
        cfg = RunConfig.from_flat({**SMALL, **self.QUIET})
        reused_iterations = cli.compare_grid(cfg, verbose=False)[0].counts["reused_iterations"]
        assert reused_iterations >= 2 * 5  # KSP-FF's at each of two seeds
        cli.cmd_compare(cfg, str(tmp_path))
        assert (f"{reused_iterations} iterations reused an earlier iteration's timeline"
                in capsys.readouterr().err)


class TestLeanAudit:
    CFG = {"bg.preset": "loaded", "cba.n_iterations": 3}
    POLICIES = ["cba", "ksp_ff"]  # no first-fit reuse: every iteration is audited

    def _cell(self, collect_events=False):
        return cli.run_cell(RunConfig.from_flat(self.CFG), self.POLICIES, "llama3-8b-like",
                            "gpipe", 4, 0, collect_events=collect_events)

    def test_audit_reads_the_records_without_the_log(self, monkeypatch):
        full = self._cell(collect_events=True)
        audited = []
        real_audit = engine.audit_transfers

        def spy(net, transfers, makespan):
            audited.append(list(transfers))
            return real_audit(net, transfers, makespan)

        def no_log(*args):
            raise AssertionError("event log built or parsed without collect_events")

        with monkeypatch.context() as m:
            m.setattr(engine, "audit_transfers", spy)
            m.setattr(engine, "audit_event_log", no_log)
            m.setattr(engine.Timeline, "event_log_lines", no_log)
            lean = self._cell()
        # one record list per simulated iteration, and serialised they are
        # the XFER lines of the full log, byte for byte
        assert len(audited) == len(self.POLICIES) * self.CFG["cba.n_iterations"]
        xfer = [line for records in audited
                for line in engine.Timeline([], [], [], records, 0.0).event_log_lines()
                if line.startswith("XFER\t")]
        assert xfer == [x for x in full.event_lines if x.startswith("XFER\t")]
        assert lean.counts == full.counts and full.counts["audited_transfers"] > 0
        assert lean.rows == full.rows and lean.event_lines == []

    def test_written_log_is_audited_from_its_lines(self, monkeypatch):
        audited_lines = []
        real_audit = engine.audit_event_log

        def spy(net, lines, makespan):
            audited_lines.extend(lines)
            return real_audit(net, lines, makespan)

        def no_records(*args):
            raise AssertionError("records audited although the log is written")

        monkeypatch.setattr(engine, "audit_event_log", spy)
        monkeypatch.setattr(engine, "audit_transfers", no_records)
        full = self._cell(collect_events=True)
        assert audited_lines == [x for x in full.event_lines if not x.startswith("RUN\t")]
        assert full.counts["audited_transfers"] > 0


class TestWorkerPool:
    """run_cells' worker pool, replaced by a fake that starts no process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return started

    def test_at_most_one_worker_per_cell(self, pools):
        cli.compare_grid(RunConfig.from_flat({**SMALL, "jobs": cli.MAX_JOBS}), verbose=False)
        assert pools == [2]  # two cells

    def test_jobs_above_the_cap_exit_one(self, pools, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        argv = ["compare", "--config", str(cfg), "--out", str(tmp_path), "--jobs"]
        assert cli.main([*argv, str(cli.MAX_JOBS + 1)]) == 1
        assert capsys.readouterr().err.startswith("config error: jobs: ")
        assert pools == []


# a custom model whose compute times come near the float range
HUGE_MODEL = {"run.microbatches": 2, "cba.n_iterations": 2, "run.model": "custom",
              "model.n_layers": 32, "model.fwd_time_per_layer_s": 1e300,
              "model.bwd_time_per_layer_s": 1e300, "model.msg_bytes_per_microbatch": 8}

# a custom model of 10^400 layers: no float holds its layer count
HUGE_LAYERS = {"model.n_layers": 10**400, "model.fwd_time_per_layer_s": 1e-3,
               "model.bwd_time_per_layer_s": 2e-3, "model.msg_bytes_per_microbatch": 8}


def star(hub: str, km: float = 1.0) -> str:
    """A topology whose routes join the default placement pool through ``hub``."""
    return json.dumps({"nodes": [hub, *cli.DEFAULT_DC_NODES], "links": [
        {"a": hub, "b": dc, "length_km": km} for dc in cli.DEFAULT_DC_NODES]})


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "run.csv").exists()

    def test_run_with_a_three_name_pool_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "placement.dc_nodes": ["IL", "PA", "MI"]}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        body = read_csv(tmp_path / "run.csv")[1:]
        assert len(body) == 3

    def test_jobs_flag_is_checked_as_the_jobs_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        argv = ["compare", "--config", str(cfg), "--out", str(tmp_path), "--jobs"]
        assert cli.main([*argv, "0"]) == 1
        assert capsys.readouterr().err.startswith("config error: jobs: ")

    def test_arrival_cap_exits_one_naming_the_rate(self, tmp_path, capsys, monkeypatch):
        # slow links stretch an iteration to hours of simulated time, far past
        # the zero-latency estimate (about 900 arrivals) that the config passed
        monkeypatch.setattr(topology, "MAX_BG_ARRIVALS", 2000)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "bg.preset": "loaded", "latency.fs_rate_bps": 2e4}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: bg.arrival_rate_per_s: ")
        assert "cap of 2000 arrivals" in err and "s into simulated time" in err

    def test_config_error_exit_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pp.stages": -1}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"latency.fs_rate_bps": 0}', "latency.fs_rate_bps"),
            ('{"latency.intra_dc_rate_bps": -1.0}', "latency.intra_dc_rate_bps"),
            ('{"latency.prop_s_per_km": NaN}', "latency.prop_s_per_km"),
            ('{"engine.retry_backoff_s": Infinity}', "engine.retry_backoff_s"),
            ('{"rsa.k": Infinity}', "rsa.k"),
            ('{"bg.preset": "loaded", "bg.arrival_rate_per_s": 1.0, "bg.mean_hold_s": 1.0,'
             ' "bg.fs_demand_min": 5, "bg.fs_demand_max": 3}', "bg.fs_demand_min"),
            # the loaded preset is the one background model; its keys override it
            ('{"bg.preset": "custom", "bg.arrival_rate_per_s": 1.0, "bg.mean_hold_s": 1.0,'
             ' "bg.fs_demand_min": 1, "bg.fs_demand_max": 3}', "bg.preset"),
            ('{"bg.preset": "loaded", "bg.prewarm_s": -1.0}', "bg.prewarm_s"),
            ('{"topology.path": "no/such/topology.json"}', "topology.path"),
            ('{"fs.base": 8, "fs.max": 4}', "fs.base"),
            ('{"bg.preset": "loaded", "bg.fs_demand_min": 11}', "bg.fs_demand_min"),
            ('{"bg.preset": "loaded", "bg.fs_demand_max": 1}', "bg.fs_demand_max"),
            ('{"bg.preset": "loaded", "bg.fs_demand_min": 4, "bg.fs_demand_max": 3}',
             "bg.fs_demand_min"),
            ('{"bg.preset": "off", "bg.arrival_rate_per_s": 5.0}', "bg.arrival_rate_per_s"),
            ('{"bg.mean_hold_s": 2.0}', "bg.mean_hold_s"),
            ('{"bg.preset": "off", "bg.fs_demand_min": 1}', "bg.fs_demand_min"),
            ('{"bg.preset": "off", "bg.fs_demand_max": 3}', "bg.fs_demand_max"),
            ('{"bg.preset": "off", "bg.prewarm_s": 1.0}', "bg.prewarm_s"),
            ('{"bg.preset": "loaded", "bg.fs_demand_min": 81, "bg.fs_demand_max": 90}',
             "bg.fs_demand_max"),
            ('{"bg.preset": "loaded", "topology.fs_total": 8, "fs.max": 8}',
             "bg.fs_demand_max"),
            ('{"rsa.k": 2.5}', "rsa.k"),
            ('{"cba.n_iterations": 3.9}', "cba.n_iterations"),
            ('{"pp.stages": true}', "pp.stages"),
            ('{"fs.boost_factor": true}', "fs.boost_factor"),
            ('{"topology.fs_total": "80"}', "topology.fs_total"),
            ('{"topology.fs_total": 4097}', "topology.fs_total"),
            ('{"latency.fs_rate_bps": "7.5e10"}', "latency.fs_rate_bps"),
            ('{"compare.microbatch_grid": []}', "compare.microbatch_grid"),
            ('{"compare.models": []}', "compare.models"),
            ('{"compare.schedules": []}', "compare.schedules"),
            ('{"jobs": 0}', "jobs"),
            ('{"jobs": -3}', "jobs"),
            ('{"jobs": 65}', "jobs"),
            ('{"placement.dc_nodes": []}', "placement.dc_nodes"),
            ('{"bg.preset": "loaded", "bg.arrival_rate_per_s": 1e9}', "bg.arrival_rate_per_s"),
            # past the arrival cap through the iterations and through the
            # microbatches of the estimate, under the task cap
            ('{"bg.preset": "loaded", "pp.stages": 1, "cba.n_iterations": 7000}',
             "bg.arrival_rate_per_s"),
            ('{"bg.preset": "loaded", "pp.stages": 1, "cba.n_iterations": 2,'
             ' "compare.microbatch_grid": [500000]}', "bg.arrival_rate_per_s"),
            # a prewarm that alone draws past the arrival cap names the key
            # that set it: bg.prewarm_s, or the holding time it is five times of
            ('{"bg.preset": "loaded", "bg.prewarm_s": 1e9}', "bg.prewarm_s"),
            ('{"bg.preset": "loaded", "bg.mean_hold_s": 1e6}', "bg.mean_hold_s"),
            ('{"bg.preset": "loaded", "bg.mean_hold_s": 1e300}', "bg.mean_hold_s"),
            # a default prewarm (five holding times) past the float range names
            # the holding time, also at a rate that draws nothing
            ('{"bg.preset": "loaded", "bg.mean_hold_s": 1e308}', "bg.mean_hold_s"),
            ('{"bg.preset": "loaded", "bg.arrival_rate_per_s": 0, "bg.mean_hold_s": 1e308}',
             "bg.mean_hold_s"),
            # the task caps run before the arrival estimate, whose float
            # arithmetic would overflow on a count past the float range
            ('{"bg.preset": "loaded", "cba.n_iterations": 100000}', "cba.n_iterations"),
            ('{"bg.preset": "loaded", "compare.microbatch_grid": [1000000]}',
             "cba.n_iterations"),
            pytest.param(json.dumps({"bg.preset": "loaded", "run.microbatches": 10**400}),
                         "cba.n_iterations", id="loaded-microbatches-1e400"),
            ('{"run.model": "custom", "model.n_layers": 0, "model.fwd_time_per_layer_s": 1e-3,'
             ' "model.bwd_time_per_layer_s": 2e-3, "model.msg_bytes_per_microbatch": 8}',
             "model.n_layers"),
            # a layer count past the float range, for either command's model
            # key, with and without the background
            pytest.param(json.dumps({**HUGE_LAYERS, "run.model": "custom"}),
                         "model.n_layers", id="run-layers-1e400"),
            pytest.param(json.dumps({**HUGE_LAYERS, "run.model": "custom", "bg.preset": "loaded"}),
                         "model.n_layers", id="run-loaded-layers-1e400"),
            pytest.param(json.dumps({**HUGE_LAYERS, "compare.models": ["custom"]}),
                         "model.n_layers", id="compare-layers-1e400"),
            pytest.param(json.dumps({**HUGE_LAYERS, "compare.models": ["custom"],
                                     "bg.preset": "loaded"}),
                         "model.n_layers", id="compare-loaded-layers-1e400"),
            # the model keys describe the custom model alone
            ('{"model.n_layers": 5}', "model.n_layers"),
            ('{"model.fwd_time_per_layer_s": 1e-3}', "model.fwd_time_per_layer_s"),
            ('{"model.bwd_time_per_layer_s": 2e-3}', "model.bwd_time_per_layer_s"),
            ('{"compare.models": ["llama3-8b-like"], "model.msg_bytes_per_microbatch": 8}',
             "model.msg_bytes_per_microbatch"),
            # work caps without background: tasks per policy run, cells per command
            ('{"cba.n_iterations": 100000000, "run.microbatches": 2}', "cba.n_iterations"),
            ('{"cba.n_iterations": 1000}', "cba.n_iterations"),
            ('{"compare.microbatch_grid": [1000000]}', "cba.n_iterations"),
            ('{"run.microbatches": 20000}', "cba.n_iterations"),
            (json.dumps({"compare.seeds": list(range(2000))}), "compare.seeds"),
            (json.dumps({"run.seeds": list(range(30001))}), "run.seeds"),
            # ... and their product: each factor is under its own cap
            (json.dumps({"compare.seeds": list(range(1800)), "cba.n_iterations": 900}),
             "compare.seeds"),
            (json.dumps({"run.seeds": list(range(20000)), "cba.n_iterations": 900}),
             "run.seeds"),
            # the seeded draws take non-negative entropy only
            ('{"compare.seeds": [-1]}', "compare.seeds"),
            ('{"run.seeds": [-3]}', "run.seeds"),
            # caps on the per-request search: with zero backoff a retry draws
            # no arrival, so 10^9 of them would never reach the arrival cap
            ('{"engine.max_retries": 501}', "engine.max_retries"),
            ('{"bg.preset": "loaded", "engine.retry_backoff_s": 0,'
             ' "engine.max_retries": 1000000000}', "engine.max_retries"),
            # a model that is not a preset names the key that holds it
            ('{"run.model": "gpt"}', "run.model"),
            ('{"compare.models": ["llama3-8b-like", "gpt"]}', "compare.models"),
            # the string keys take strings only (TestConfig covers each of them)
            ('{"run.model": 7}', "run.model"),
            # a message whose size in bits (8x) no float can hold
            (json.dumps({**HUGE_MODEL, "model.fwd_time_per_layer_s": 1e-3,
                         "model.bwd_time_per_layer_s": 2e-3,
                         "model.msg_bytes_per_microbatch": 2.3e307}),
             "model.msg_bytes_per_microbatch"),
            # a repeated entry would simulate a cell twice and write its rows twice
            ('{"run.seeds": [3, 3]}', "run.seeds"),
            ('{"compare.seeds": [0, 0]}', "compare.seeds"),
            ('{"compare.microbatch_grid": [16, 32, 16]}', "compare.microbatch_grid"),
            ('{"compare.models": ["llama3-8b-like", "llama3-8b-like"]}', "compare.models"),
            ('{"compare.schedules": ["1f1b", "1f1b"]}', "compare.schedules"),
            # a repeated key would silently keep its last value
            ('{"rsa.k": 3, "rsa.k": 4}', "rsa.k"),
        ],
    )
    def test_bad_key_exits_one_naming_it(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    @pytest.mark.parametrize("key, value", [
        ("latency.prop_s_per_km", -1.0),
        ("latency.per_hop_overhead_s", -1.0),
        ("latency.fs_rate_bps", 0),
        ("latency.intra_dc_latency_s", -1.0),
        ("latency.intra_dc_rate_bps", 0),
        ("run.policy", "greedy"),
        ("rsa.k", 0),
        ("fs.base", 0),
        ("fs.boost_factor", 0.5),
        ("fs.max", 0),
        ("engine.max_retries", -1),
        ("engine.retry_backoff_s", -1),
        ("engine.fallback_penalty", 0.5),
        ("cba.n_iterations", 1),
        ("cba.blocking_prob_threshold", 1.5),
        ("cba.epsilon_bubble_s", -1),
    ])
    def test_library_bound_exits_one_naming_the_key(self, tmp_path, capsys, key, value):
        # the library's dataclass holds the bound; the error names the config key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: {cli.LIBRARY_KEYS[key][1]} ")
        assert err.rstrip().endswith(f"(got {cli.KEY_TABLE[key][1](value)!r})")

    @pytest.mark.parametrize(
        "flat, term",
        [
            ({"run.microbatches": 2, "cba.n_iterations": 2, "latency.fs_rate_bps": 1e-300},
             "transfer"),
            ({"run.microbatches": 2, "cba.n_iterations": 2, "latency.prop_s_per_km": 1e308},
             "transfer"),
            ({**HUGE_MODEL, "model.fwd_time_per_layer_s": 1e307,
              "model.bwd_time_per_layer_s": 1e307}, "compute"),
        ],
    )
    def test_time_overflow_exits_one_naming_its_term_keys(self, tmp_path, capsys, flat, term):
        # an event time past the float range names every key of its term
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flat))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        keys = ", ".join(cli._TIME_KEYS[term])
        assert capsys.readouterr().err.startswith(f"config error: {keys}: a {term} time ")

    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        # json.load raises a plain ValueError, not a JSONDecodeError, on it
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pp.stages": 1' + "0" * 4400 + "}")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")

    @pytest.mark.parametrize(
        "flat, key",
        [
            ({"bg.mean_hold_s": 1e6}, "bg.mean_hold_s"),
            ({"bg.prewarm_s": 1e6}, "bg.prewarm_s"),
            ({"pp.stages": 1, "cba.n_iterations": 7000}, "bg.arrival_rate_per_s"),
        ],
    )
    def test_arrival_estimate_error_prints_the_effective_values(self, tmp_path, capsys,
                                                                flat, key):
        # the loaded preset supplies the rate: the message gives it, not None
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bg.preset": "loaded", **flat}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        rate = topology.loaded_background(0).arrival_rate_per_s
        got = flat.get(key, rate)
        assert err.startswith(f"config error: {key}: ")
        assert f"rate {rate:.3g}/s" in err and err.rstrip().endswith(f"(got {got!r})")

    @pytest.mark.parametrize("bg", ["off", "loaded"])
    def test_stage_count_past_the_task_cap_names_it(self, tmp_path, capsys, bg):
        # the task cap's own message mentions pp.stages too: check the named key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bg.preset": bg, "pp.stages": 10**400}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: pp.stages: ")

    def test_transfer_too_short_to_move_a_huge_clock_runs(self, tmp_path):
        # at 10^300 s per layer, now + transfer time == now: no spectrum is held
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(HUGE_MODEL))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_boost_past_the_float_range_runs(self, tmp_path):
        # base_fs x boost overflows to infinity; the width caps at fs.max first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "fs.boost_factor": 1e308}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_rsa_k_is_capped_on_a_dense_topology(self, tmp_path, capsys):
        # a complete graph of 11 nodes has about 10^6 simple paths per pair:
        # the cap runs fast, while a run with k = 10^6 did not end in 30 s
        names = [f"N{i}" for i in range(11)]
        topo = tmp_path / "k11.json"
        topo.write_text(json.dumps({"nodes": names, "links": [
            {"a": a, "b": b, "length_km": 100} for a, b in itertools.combinations(names, 2)]}))
        cfg = tmp_path / "cfg.json"
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path)]
        base = {**SMALL, "topology.path": str(topo), "placement.dc_nodes": names}
        for k in (cli.MAX_K + 1, 10**6):
            cfg.write_text(json.dumps({**base, "rsa.k": k}))
            assert cli.main(argv) == 1
            assert capsys.readouterr().err.startswith("config error: rsa.k: ")
        cfg.write_text(json.dumps({**base, "rsa.k": cli.MAX_K}))
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "topo",
        [
            '{"nodes": ["A", "B"], "links": [',
            '{"nodes": ["A", "B"], "links": 5}',
            '{"nodes": ["A", "B"], "links": [{"a": "A", "b": "A", "length_km": 1}]}',
            '{"nodes": ["A", "B"], "links": [{"a": ["A"], "b": "B", "length_km": 1}]}',
            '{"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "length_km": NaN}]}',
            '{"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "length_km": true}]}',
            '{"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "length_km": "7"}]}',
            '{"nodes": ["A", "B"], "links": [{"a": "A", "b": "B", "length_km": 1, '
            '"length_km": 2}]}',
            # a hub whose name would break the event log's fields
            *(pytest.param(star(f"A{c}X"), id=f"hub-{ord(c)}") for c in ">\t\n\r"),
            # two lengths whose sum is past the float range on every route
            pytest.param(star("HUB", km=1e308), id="hub-1e308-km"),
            # json raises a plain ValueError past Python's integer digit limit
            pytest.param(star("HUB", km=1).replace('"length_km": 1', '"length_km": 1' + "0" * 4400),
                         id="length-4401-digits"),
        ],
    )
    def test_malformed_topology_file_exits_one(self, tmp_path, capsys, command, topo):
        path = tmp_path / "topo.json"
        path.write_text(topo)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL, "topology.path": str(path), "output.event_log": True}))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: topology.path: ")

    def test_validate_passes_and_catches_a_planted_fault(self, capsys, monkeypatch):
        assert cli.main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13 and all(": PASS" in line for line in lines)
        assert "start-state: PASS" in lines[-1]

        real = rsa.select_ksp_ff

        def next_higher_block(net, src, dst, width, k):
            sel = real(net, src, dst, width, k)
            if sel.blocked:
                return sel
            higher = [f for f in validate.ref_blocks(net, sel.path.nodes, width)
                      if f > sel.block.f_start]
            if not higher:
                return sel
            return dataclasses.replace(sel, block=rsa.CandidateBlock(higher[0],
                                                                     higher[0] + width - 1))

        monkeypatch.setattr(rsa, "select_ksp_ff", next_higher_block)
        assert cli.main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "selection-bruteforce: FAIL" in out
        assert "first-fit-lowest-block: FAIL" in out
        assert "start-state: PASS" in out

        real_restore = topology.Network.restore

        def restore_keeping_the_cursor(net, snapshot):
            stream = net._stream
            real_restore(net, snapshot)
            net._stream = stream

        monkeypatch.setattr(topology.Network, "restore", restore_keeping_the_cursor)
        assert cli.main(["validate"]) == 1
        assert "start-state: FAIL" in capsys.readouterr().out

    def test_policy_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        rc = cli.main(["run", "--config", str(cfg), "--policy", "sd_ff",
                       "--out", str(tmp_path)])
        assert rc == 0
        body = read_csv(tmp_path / "run.csv")[1:]
        assert {r[0] for r in body} == {"sd_ff"}

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPTPIPE_OUTDIR", str(tmp_path / "envout"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        assert cli.main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "run.csv").exists()
