"""Tests of the benchmark's own checkers: each must flag a crafted fault and
pass a clean run.

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

The file name does not match pytest's default test-file pattern, so the
repository's own test run does not collect it; name the file to run it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checkers  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def catalog():
    return checkers.PathCatalog.from_file(checkers.topology_file(ROOT))


@pytest.fixture(scope="module")
def short_run(catalog):
    """A tiny real run (8B GPipe m=2, 3 iterations, loaded background): rows, log, cell."""
    from optpipe import cli

    wl = workloads.WORKLOADS["loaded"]
    cseed = workloads.compare_seed(0, catalog)
    flat = workloads.config_for(workloads.load_base(ROOT), wl, wl.grids[0], cseed, smoke=True)
    cfg = cli.RunConfig.from_flat(flat)
    out = cli.run_cell(cfg, ["ksp_ff"], workloads.P8B, "gpipe", 2, cseed, collect_events=True)
    cell = checkers.Cell(workloads.P8B, "gpipe", 2, workloads.placement(cseed),
                         checkers.settings(flat), catalog)
    return checkers.format_rows(out.rows), out.event_lines, cell


def _set(line: str, index: int, value) -> str:
    fields = line.split(",")
    fields[index] = str(value)
    return ",".join(fields)


def test_clean_rows_and_log_pass(short_run):
    rows, log, cell = short_run
    assert checkers.check_rows(rows, cell) == []
    problems, stats = checkers.check_event_log(log, cell, rows)
    assert problems == []
    assert stats.optical_xfers + stats.fallbacks == 2 * cell.requests


def test_wrong_request_count_is_flagged(short_run):
    rows, _, cell = short_run
    bad = [_set(rows[0], 8, cell.requests + 2)] + rows[1:]
    assert any("requests" in p for p in checkers.check_rows(bad, cell))


def test_makespan_below_bound_is_flagged(short_run):
    rows, _, cell = short_run
    bad = [_set(rows[0], 6, repr(cell.makespan_bound() * 0.99))] + rows[1:]
    assert any("longest-path bound" in p for p in checkers.check_rows(bad, cell))


def test_overlapping_log_is_flagged(short_run):
    _, log, cell = short_run
    optical = [i for i, l in enumerate(log) if l.startswith("XFER") and "\toptical\t" in l]
    a, b = optical[0], optical[1]
    fa, fb = log[a].split("\t"), log[b].split("\t")
    # give b the slots, route and holding window of a: same link, same time, same slots
    fb[4:6], fb[7:11], fb[12:15] = fa[4:6], fa[7:11], fa[12:15]
    bad = list(log)
    bad[b] = "\t".join(fb)
    problems, _ = checkers.check_event_log(bad, cell)
    assert any("overlap in time and slots" in p for p in problems)


def test_task_before_message_is_flagged(short_run):
    _, log, cell = short_run
    i = next(i for i, l in enumerate(log)
             if l.startswith("TASK") and cell.tasks[int(l.split("\t")[1])].msg_pred is not None)
    f = log[i].split("\t")
    f[5] = f[6] = repr(0.0)
    bad = list(log)
    bad[i] = "\t".join(f)
    problems, _ = checkers.check_event_log(bad, cell)
    assert any("before its message arrives" in p for p in problems)


def test_selection_spot_check(catalog):
    occ = {frozenset(e): np.zeros(80, dtype=np.uint8)
           for a in catalog.adj for e in [(a, b) for b in catalog.adj[a]]}
    first = catalog.k_shortest("IL", "NY", 5)[0][2]
    ok = checkers.check_selection(catalog, occ, "ksp_ff", "IL", "NY", 4, 5, 5e-6, 1e-4,
                                  (first, 0, 3))
    assert ok == []
    late = checkers.check_selection(catalog, occ, "ksp_ff", "IL", "NY", 4, 5, 5e-6, 1e-4,
                                    (first, 2, 5))
    assert late and "first fit" in late[0]
    blocked = checkers.check_selection(catalog, occ, "cba", "IL", "NY", 4, 5, 5e-6, 1e-4, None)
    assert blocked and "free block" in blocked[0]
    for e in zip(first, first[1:]):
        occ[frozenset(e)][0:2] = 1
    busy = checkers.check_selection(catalog, occ, "cba", "IL", "NY", 4, 5, 5e-6, 1e-4,
                                    (first, 0, 3))
    assert busy and "not a free block" in busy[0]


def test_compare_seed_is_in_the_placement_band(catalog):
    for seed in range(5):
        c = workloads.compare_seed(seed, catalog)
        assert seed * workloads.SEED_STRIDE <= c < (seed + 1) * workloads.SEED_STRIDE
        dcs = workloads.placement(c)
        assert workloads.cross_pairs(dcs) == workloads.CROSS_PAIRS
        lat = workloads.route_latency_s(dcs, catalog)
        assert abs(lat / workloads.ROUTE_TARGET_S - 1) <= workloads.ROUTE_BAND


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = [json.loads(l) for l in proc.stdout.splitlines()]
    assert len(results) == len(workloads.WORKLOADS)
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] > 0 for r in results)
