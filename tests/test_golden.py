"""Golden-output checks: a reduced loaded compare and a small quiet run must
reproduce pinned bytes.

The compare grid covers both models and both schedules at m=4 for one seed,
with the loaded background and event logging on, so every selector, the
background churn and the event-log serialisation feed the hashed files.  The
same grid with the log off must write the same results and summary; it is
audited from the transfer records instead of the log lines.  The run cell
covers ``optpipe run`` with no background: its per-seed rows, its summary row
and its event log.  A change that is meant to alter behaviour must say so and
re-pin these hashes; a performance change must leave them alone.
"""

from __future__ import annotations

import hashlib

from optpipe import cli
from optpipe.cli import RunConfig

GOLDEN_CONFIG = {
    "bg.preset": "loaded",
    "engine.retry_backoff_s": 0.005,
    "cba.blocking_prob_threshold": 0.02,
    "cba.n_iterations": 3,
    "compare.models": ["llama3-8b-like", "llama3-70b-like"],
    "compare.schedules": ["gpipe", "1f1b"],
    "compare.microbatch_grid": [4],
    "compare.seeds": [0],
    "output.event_log": True,
    "jobs": 1,
}

GOLDEN_SHA256 = {
    "results": "70e73ceb866b98ce6f5c9bb6099a4e2098c7f32cc1859504971ef80ed55499bb",
    "summary": "472f97f1b5d7337b55261ec86e38f0f2296e6e6f3f85db6ded55af483187ed69",
    "events": "6cf20e6ca9548a39aae4f669dbecd4f19e440d6e2eb4921ad5877357d4f1edb7",
}


def test_reduced_compare_matches_golden_hashes(tmp_path):
    paths = cli.cmd_compare(RunConfig.from_flat(GOLDEN_CONFIG), str(tmp_path), verbose=False)
    got = {
        key: hashlib.sha256(open(paths[key], "rb").read()).hexdigest()
        for key in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256


def test_reduced_compare_without_the_log_matches_golden_hashes(tmp_path):
    # without the log every iteration is audited from its transfer records
    config = {**GOLDEN_CONFIG, "output.event_log": False}
    paths = cli.cmd_compare(RunConfig.from_flat(config), str(tmp_path), verbose=False)
    assert "events" not in paths
    got = {
        key: hashlib.sha256(open(paths[key], "rb").read()).hexdigest()
        for key in ("results", "summary")
    }
    assert got == {key: GOLDEN_SHA256[key] for key in ("results", "summary")}


GOLDEN_RUN_CONFIG = {
    "bg.preset": "off",
    "run.policy": "cba",
    "run.schedule": "1f1b",
    "run.microbatches": 4,
    "run.seeds": [0, 1],
    "cba.n_iterations": 3,
    "output.event_log": True,
}

GOLDEN_RUN_SHA256 = {
    "results": "30af8eba7442315eda1adde9193c3a49656875dc5a5e8aab3a64d8c80c0cc4b6",
    "events": "ac8a69bf7b32061a09ff4b17a0da16e127f5d172ac8d4fa93ba321d3bada9984",
}


def test_quiet_run_matches_golden_hashes(tmp_path):
    paths = cli.cmd_run(RunConfig.from_flat(GOLDEN_RUN_CONFIG), str(tmp_path), verbose=False)
    got = {
        key: hashlib.sha256(open(paths[key], "rb").read()).hexdigest()
        for key in GOLDEN_RUN_SHA256
    }
    assert got == GOLDEN_RUN_SHA256
