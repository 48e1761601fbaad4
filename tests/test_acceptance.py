"""Acceptance criteria, one test (or test group) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and the achieved comparison deltas.  The comparison
experiment, the shipped 20-seed loaded grid, is one shared module-scoped
fixture; everything else is self-contained.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import pytest

from optpipe import cli, validate
from optpipe.engine import SELECTORS, PolicyConfig, simulate_iteration
from optpipe.latency import LatencyParams
from optpipe.topology import load_nsfnet
from optpipe.workload import ScheduleKind, build_profile, build_schedule, partition_stages

LOADED_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "loaded.json")


def report(n: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n} ({name}): {status}{extra}")


def mean(vals) -> float:
    vals = list(vals)
    return math.fsum(vals) / len(vals)


# ----------------------------------------------------------------------
# criterion 1: analytic pipeline bubble


@pytest.mark.parametrize("m", [16, 32, 64, 128])
def test_1_analytic_bubble_oracle(m):
    t0 = time.time()
    ok, detail = validate.check_bubble_closed_form([m])
    elapsed = time.time() - t0
    report(1, f"analytic bubble m={m}", ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s")
    assert ok, detail
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# criterion 2: brute-force selection equivalence


def test_2_bruteforce_rsa_equivalence():
    t0 = time.time()
    n_instances = 1000
    ok, detail = validate.check_selection_bruteforce(n_instances, seed=2024)
    elapsed = time.time() - t0
    report(2, "brute-force RSA equivalence", ok and elapsed < 30,
           f"{n_instances} instances x {len(SELECTORS)} selectors, {elapsed:.1f}s"
           if ok else detail)
    assert ok, detail
    assert elapsed < 30


# ----------------------------------------------------------------------
# criterion 3: contiguity-index exhaustiveness at F=10


def test_3_contiguity_exhaustive():
    # every occupancy vector and width: production fitness and CBA's block
    # on a one-link path equal the slot-by-slot reference exactly
    t0 = time.time()
    checked, mismatch = validate.one_link_exhaustive(10)
    elapsed = time.time() - t0
    ok = mismatch is None and elapsed < 10
    report(3, "contiguity exhaustiveness", ok,
           f"{checked} evaluations, {mismatch or 'no mismatch'}, {elapsed:.1f}s")
    assert mismatch is None
    assert checked == 2 ** 10 * 10
    assert elapsed < 10


# ----------------------------------------------------------------------
# shared comparison runs


@dataclass
class GridOutcome:
    cfg: cli.RunConfig
    rows: list
    summary: list
    audited: int
    label_checks: int
    elapsed: float

    def cells(self):
        per = {}
        for r in self.rows:
            key = (r[1], r[2], int(r[3]))
            per.setdefault(key, {}).setdefault(r[0], []).append(r)
        return per


@pytest.fixture(scope="module")
def loaded_grid() -> GridOutcome:
    """The shipped 20-paired-seed loaded experiment."""
    cfg = cli.RunConfig.from_file(LOADED_CONFIG, {"jobs": 2})
    assert len(cfg["compare.seeds"]) >= 20
    return _grid(cfg)


def _grid(cfg) -> GridOutcome:
    t0 = time.time()
    out, summary = cli.compare_grid(cfg, verbose=False)
    return GridOutcome(cfg, out.rows, summary, out.counts["audited_transfers"],
                       out.counts["label_checks"], time.time() - t0)


# ----------------------------------------------------------------------
# criterion 4: spectrum audit over a full compare grid run


def test_4_spectrum_audit_over_full_grid(loaded_grid):
    # run_cell audits every simulated iteration's transfers and raises on any
    # overlapping or leaked allocation, so reaching here means zero
    # violations; assert the audit actually saw the whole grid
    cfg = loaded_grid.cfg
    # policies x cells x seeds x measured iterations (after the warm-up)
    expected_rows = (len(SELECTORS) * len(cfg["compare.models"]) * len(cfg["compare.schedules"])
                     * len(cfg["compare.microbatch_grid"]) * len(cfg["compare.seeds"])
                     * (cfg["cba.n_iterations"] - 1))
    ok = loaded_grid.audited > 100_000 and len(loaded_grid.rows) == expected_rows
    report(4, "spectrum audit", ok,
           f"replayed {loaded_grid.audited} transfers over {len(loaded_grid.rows)} rows, "
           f"{loaded_grid.elapsed:.0f}s")
    assert len(loaded_grid.rows) == expected_rows
    assert loaded_grid.audited > 100_000


# ----------------------------------------------------------------------
# criterion 5: directional comparison claims at desk scale


def _cell_means(cell_rows, col):
    return {p: mean(float(x[col]) for x in rs) for p, rs in cell_rows.items()}


def test_5_report_achieved_deltas(loaded_grid):
    print(f"\nACCEPTANCE 5 loaded grid: {len(loaded_grid.rows)} measured rows, "
          f"{loaded_grid.elapsed:.0f}s")
    print("cell deltas (positive = adaptive policy better):")
    for key in sorted(loaded_grid.cells()):
        rt = _cell_means(loaded_grid.cells()[key], 6)
        bp = _cell_means(loaded_grid.cells()[key], 10)
        d_ksp = 100 * (rt["ksp_ff"] - rt["cba"]) / rt["ksp_ff"]
        d_sd = 100 * (rt["sd_ff"] - rt["cba"]) / rt["sd_ff"]
        print(f"  {key[0]:16s} {key[1]:5s} m={key[2]:3d}  "
              f"d_runtime={d_ksp:+.2f}%/{d_sd:+.2f}%  d_blocking={bp['ksp_ff'] - bp['cba']:+.4f}")


def test_5a_runtime_per_cell(loaded_grid):
    failures = []
    for key, cell in sorted(loaded_grid.cells().items()):
        rt = _cell_means(cell, 6)
        if not (rt["cba"] <= rt["ksp_ff"] + 1e-12 and rt["cba"] <= rt["sd_ff"] + 1e-12):
            d = 100 * (rt["ksp_ff"] - rt["cba"]) / rt["ksp_ff"]
            failures.append((key, round(d, 2)))
    report(5, "(a) runtime <= baselines in every cell", not failures,
           f"failing cells: {failures}" if failures else "all 16 cells")
    assert not failures, (
        "adaptive-policy mean runtime above a baseline in these cells "
        f"(delta%, positive would be better): {failures}"
    )


def test_5b_blocking_not_worse(loaded_grid):
    by_policy = {}
    for r in loaded_grid.rows:
        by_policy.setdefault(r[0], []).append(float(r[10]))
    cba, ksp = mean(by_policy["cba"]), mean(by_policy["ksp_ff"])
    report(5, "(b) mean blocking <= KSP-FF", cba <= ksp, f"{cba:.4f} vs {ksp:.4f}")
    assert cba <= ksp


def test_5c_model_scale_ordering(loaded_grid):
    cells = loaded_grid.cells()
    bad = []
    for sched in ("gpipe", "1f1b"):
        for m in (16, 32, 64, 128):
            for policy in ("cba", "ksp_ff", "sd_ff"):
                small = _cell_means(cells[("llama3-8b-like", sched, m)], 6)[policy]
                big = _cell_means(cells[("llama3-70b-like", sched, m)], 6)[policy]
                if not big > small:
                    bad.append((sched, m, policy))
    report(5, "(c) larger model runs longer in every cell", not bad, str(bad) if bad else "")
    assert not bad


def test_5d_schedule_bubble_ordering(loaded_grid):
    cells = loaded_grid.cells()
    bad = []
    for model in ("llama3-8b-like", "llama3-70b-like"):
        for m in (16, 32, 64, 128):
            for policy in ("cba", "ksp_ff", "sd_ff"):
                gp = _cell_means(cells[(model, "gpipe", m)], 7)[policy]
                fb = _cell_means(cells[(model, "1f1b", m)], 7)[policy]
                if not fb >= gp - 1e-12:
                    bad.append((model, m, policy))
    report(5, "(d) 1f1b bubble >= gpipe bubble under load", not bad, str(bad) if bad else "")
    assert not bad


def test_5_runtime_budget(loaded_grid):
    report(5, "runtime budget", loaded_grid.elapsed < 600,
           f"{loaded_grid.elapsed:.0f}s < 600s")
    assert loaded_grid.elapsed < 600


# ----------------------------------------------------------------------
# criterion 6: byte-identical repeated runs


def test_6_determinism_byte_identical(tmp_path):
    flat = {
        "bg.preset": "loaded",
        "engine.retry_backoff_s": 0.005,
        "compare.seeds": [0, 1],
        "compare.microbatch_grid": [16, 32],
        "output.event_log": True,
    }
    a = cli.cmd_compare(cli.RunConfig.from_flat({**flat, "jobs": 2}), str(tmp_path / "a"),
                        verbose=False)
    b = cli.cmd_compare(cli.RunConfig.from_flat({**flat, "jobs": 1}), str(tmp_path / "b"),
                        verbose=False)
    same = all(
        open(a[k], "rb").read() == open(b[k], "rb").read()
        for k in ("results", "summary", "events")
    )
    report(6, "determinism", same, "CSV + summary + event logs byte-identical")
    assert same


# ----------------------------------------------------------------------
# criterion 7: labeling soundness


def test_7_labeling_soundness(loaded_grid):
    # every simulated iteration of the grid re-verified each CB label
    # against its timeline (gap > epsilon and cross-DC binding input);
    # any unsound label would have raised inside the harness
    total = loaded_grid.label_checks
    assert total > 10_000

    # zero-latency runs must label nothing
    from optpipe.cba import label_cb_tasks
    empty = 0
    for kind in ScheduleKind:
        profile = build_profile(
            "uniform", n_layers=8, fwd_time_per_layer_s=2e-3, bwd_time_per_layer_s=4e-3,
            msg_bytes_per_microbatch=1,
        )
        stages = partition_stages(profile, 8, ["WA"] * 8)
        tasks = build_schedule(kind, stages, 16)
        net = load_nsfnet()
        tl = simulate_iteration(net, stages, tasks, PolicyConfig(),
                                LatencyParams(intra_dc_latency_s=0.0), msg_bits=0.0)
        labels = label_cb_tasks(tl)
        empty += len(labels.cb_tasks)
    report(7, "labeling soundness", empty == 0,
           f"{total} CB labels verified in-run; zero-latency labeled {empty}")
    assert empty == 0
