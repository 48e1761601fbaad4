"""Golden-output check: a reduced loaded compare must reproduce pinned bytes.

The grid covers both models and both schedules at m=4 for one seed, with the
loaded background and event logging on, so every selector, the background
churn and the event-log serialisation feed the hashed files.  A change that
is meant to alter behaviour must say so and re-pin these hashes; a
performance change must leave them alone.
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
