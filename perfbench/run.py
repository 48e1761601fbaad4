"""optpipe benchmark.

    python3 perfbench/run.py --workload loaded|quiet|churn|all --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload, tiny, all checks
    python3 perfbench/run.py --hashes --seed N  # sha256 of each workload's rows

Untraced (``--trace 0``): rounds of the real CLI, ``python3 -m optpipe.cli
compare``, run back to back for ``--seconds``; every round's rows are
checked and must be byte-identical to the first round's.  Set-up time is
probed in fresh interpreters before the rounds.  Prints the end-to-end
metrics.

Traced (``--trace 1``): one CLI round, then the same cells in this process
through ``cli.run_cell``, once untraced and once with the layer hooks on.
The event log of the traced pass is checked too.  Prints the per-layer
metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 means the benchmark could not run; nothing is printed
on stdout then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checkers  # noqa: E402
import workloads  # noqa: E402
from workloads import POLICIES, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Tally:
    """Operations attempted and failed, with the failed checks' messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def report(self) -> None:
        for p in self.problems[:20]:
            print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
        if len(self.problems) > 20:
            print(f"perfbench: ... {len(self.problems) - 20} more", file=sys.stderr)


# ----------------------------------------------------------------------
# processes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_proc(cmd: list[str], log: str, deadline: float) -> tuple[float, float, float]:
    """Run to completion in its own process group; (wall s, CPU s, peak RSS MB).

    CPU time and peak RSS cover the process and every child it waited for
    (wait4 accounting); the peak is the largest single process.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    with open(log + ".out", "wb") as so, open(log + ".err", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                _kill_group(proc.pid)
                proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        with open(log + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one workload instance


class Instance:
    """A workload at one seed: generated configs and the checks' cell facts."""

    def __init__(self, wl: workloads.Workload, seed: int, outdir: str, smoke: bool = False):
        self.wl = wl
        cat = checkers.PathCatalog.from_file(checkers.topology_file(ROOT))
        self.catalog = cat
        self.cseed = workloads.compare_seed(seed, cat)
        self.outdir = outdir
        base = workloads.load_base(ROOT)
        self.flats = [workloads.config_for(base, wl, g, self.cseed, smoke) for g in wl.grids]
        self.paths = []
        for i, flat in enumerate(self.flats):
            path = os.path.join(outdir, f"config{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(flat, fh, indent=1)
            self.paths.append(path)
        self.cells: dict[tuple, checkers.Cell] = {}
        self.grid_cells: list[list[tuple[str, str, int]]] = []
        for flat in self.flats:
            s = checkers.settings(flat)
            dcs = workloads.placement(self.cseed, p=s["pp.stages"])
            cells = [(mo, sc, m) for mo in flat["compare.models"]
                     for sc in flat["compare.schedules"] for m in flat["compare.microbatch_grid"]]
            self.grid_cells.append(cells)
            for mo, sc, m in cells:
                self.cells[(mo, sc, str(m), str(self.cseed))] = checkers.Cell(
                    mo, sc, m, dcs, s, cat)
        self.ops = [(pol, *key) for key in self.cells for pol in POLICIES]

    def cli_round(self, tag: str, deadline: float) -> tuple[float, float, float, list[str]]:
        """One round of the real CLI: (wall s, CPU s, peak RSS MB, compare.csv texts)."""
        wall = cpu = rss = 0.0
        texts = []
        for i, path in enumerate(self.paths):
            out = os.path.join(self.outdir, f"{tag}-{i}")
            cmd = [sys.executable, "-m", "optpipe.cli", "compare", "--config", path,
                   "--jobs", str(self.wl.jobs), "--out", out]
            w, c, r = run_proc(cmd, out, deadline)
            wall += w
            cpu += c
            rss = max(rss, r)
            with open(os.path.join(out, "compare.csv"), encoding="utf-8") as fh:
                texts.append(fh.read())
            shutil.rmtree(out)
        return wall, cpu, rss, texts

    def groups(self, texts: list[str]) -> dict[tuple, list[str]]:
        """Rows of a round by (policy, model, schedule, m, seed); checks the header."""
        out: dict[tuple, list[str]] = {}
        for text in texts:
            header, groups = checkers.split_groups(text)
            if header != checkers.RESULT_COLUMNS:
                raise BenchError(f"compare.csv header {header} is not the documented one")
            out.update(groups)
        extra = set(out) - set(self.ops)
        if extra:
            raise BenchError(f"compare.csv has rows of unexpected runs: {sorted(extra)[:3]}")
        return out

    def check_op(self, op: tuple, lines: list[str] | None, ref: dict[tuple, list[str]]) -> list[str]:
        if not lines:
            return [f"{op}: no rows"]
        problems = checkers.check_rows(lines, self.cells[op[1:]])
        if ref.get(op) is not None and lines != ref[op]:
            problems.append(f"{op}: rows differ from the first round's")
        return problems


def setup_probe(inst: Instance, deadline: float) -> list[float]:
    times = []
    want = {"links": sum(len(v) for v in inst.catalog.adj.values()) // 2,
            "tasks": sum(len(c.tasks) for c in inst.cells.values())}
    for i in range(SETUP_PROBES):
        log = os.path.join(inst.outdir, f"setup{i}")
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), *inst.paths]
        wall, _, _ = run_proc(cmd, log, deadline)
        with open(log + ".out", encoding="utf-8") as fh:
            info = json.loads(fh.read().strip().splitlines()[-1])
        src = os.path.join(ROOT, "src")
        if not os.path.abspath(info["module"]).startswith(src + os.sep):
            raise BenchError(f"optpipe imported from {info['module']}, not from {src}")
        if {k: info[k] for k in want} != want:
            raise BenchError(f"set-up probe built {info}, want {want}")
        times.append(wall)
    return times


def sim_iter_ms(ref: dict[tuple, list[str]]) -> dict[str, float]:
    """Per policy: geometric mean over cells of the mean measured runtime (ms)."""
    per: dict[str, list[float]] = {p: [] for p in POLICIES}
    for op, lines in ref.items():
        rows = [dict(zip(checkers.RESULT_COLUMNS, l.split(","))) for l in lines]
        per[op[0]].append(1e3 * math.fsum(float(r["runtime_s"]) for r in rows) / len(rows))
    return {p: statistics.geometric_mean(v) for p, v in per.items()}


# ----------------------------------------------------------------------
# modes


def timed_run(inst: Instance, seconds: float, deadline: float) -> tuple[dict, int, int]:
    setup = setup_probe(inst, deadline)
    walls, cpus, rsss = [], [], []
    ref: dict[tuple, list[str]] = {}
    tally = Tally()
    t_start = time.monotonic()
    while not walls or time.monotonic() - t_start < seconds:
        wall, cpu, rss, texts = inst.cli_round(f"round{len(walls)}", deadline)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        groups = inst.groups(texts)
        for op in inst.ops:
            tally.add(inst.check_op(op, groups.get(op), ref))
        if not ref:
            ref = {op: groups[op] for op in inst.ops if op in groups}
    tally.report()
    if len(ref) != len(inst.ops):
        raise BenchError("first round is missing rows; no simulated metrics")
    sim = sim_iter_ms(ref)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rsss),
        **{f"sim_iter_ms.{p}": v for p, v in sim.items()},
    }
    print(f"perfbench: {inst.wl.name} compare seed {inst.cseed}: {len(walls)} rounds, "
          f"walls {[round(w, 3) for w in walls]}, cpu {[round(c, 3) for c in cpus]}, "
          f"set-up {[round(s, 3) for s in setup]}", file=sys.stderr)
    return metrics, tally.attempted, tally.failed


def traced_run(inst: Instance, deadline: float, spans_path: str | None) -> tuple[dict, int, int]:
    import tracer as tracing

    cli_wall, _, _, texts = inst.cli_round("cli", deadline)
    ref = inst.groups(texts)
    tally = Tally()
    for op in inst.ops:
        tally.add(inst.check_op(op, ref.get(op), {}))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from optpipe import cli
    cfgs = [cli.RunConfig.from_file(p) for p in inst.paths]

    # Each (policy, cell) runs untraced and then traced, back to back, so both
    # see the same machine speed; the gap between the two is the overhead.
    trace = tracing.Tracer(inst.catalog)
    cell_s: list[float] = []
    stats: dict[str, checkers.LogStats] = {}
    untraced_s = traced_s = 0.0
    for cfg, cells in zip(cfgs, inst.grid_cells):
        for model, schedule, m in cells:
            key = (model, schedule, str(m), str(inst.cseed))
            cell_total = 0.0
            for pol in POLICIES:
                if time.monotonic() > deadline:
                    raise BenchError("out of time in the in-process runs")
                t0 = time.perf_counter()
                out = cli.run_cell(cfg, [pol], model, schedule, m, inst.cseed)
                dt = time.perf_counter() - t0
                cell_total += dt
                lines = checkers.format_rows(out.rows)
                tally.add(inst.check_op((pol, *key), lines, ref))

                trace.policy, trace.problems = pol, []
                trace.install()
                try:
                    t0 = time.perf_counter()
                    out = cli.run_cell(cfg, [pol], model, schedule, m, inst.cseed,
                                       collect_events=True)
                    traced_s += time.perf_counter() - t0
                finally:
                    trace.uninstall()
                lines = checkers.format_rows(out.rows)
                p = inst.check_op((pol, *key), lines, ref) + trace.problems
                p2, st = checkers.check_event_log(out.event_lines, inst.cells[key], lines)
                tally.add(p + p2)
                stats.setdefault(pol, checkers.LogStats()).add(st)
            cell_s.append(cell_total)
            untraced_s += cell_total

    if trace.missing:
        print(f"perfbench: hooks absent, their metrics are null: {sorted(trace.missing)}",
              file=sys.stderr)
    if spans_path:
        trace.write(spans_path)
    blocked = {pol: 0 for pol in POLICIES}
    for op, lines in ref.items():
        blocked[op[0]] += sum(int(l.split(",")[9]) for l in lines)
    metrics = trace.layer_metrics(stats, blocked, cell_s, cli_wall, inst.wl.jobs,
                                  untraced_s, traced_s)
    tally.report()
    print(f"perfbench: {inst.wl.name} traced: cli {cli_wall:.3f}s, untraced {untraced_s:.3f}s, "
          f"traced {traced_s:.3f}s, {int(trace.counts['spot_checks'])} selections spot-checked, "
          f"{int(trace.counts['spot_checks_skipped'])} skipped", file=sys.stderr)
    return metrics, tally.attempted, tally.failed


def result_line(metrics: dict, units: dict[str, str], attempted: int, failed: int) -> str:
    """The result object.  A fault that is not one operation's aborts the run
    instead, so every operation that did not fail passed all its checks."""
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not computed: {sorted(missing)}")
    return json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    })


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_checkout() -> None:
    for rel in ("src/optpipe/cli.py", "configs/loaded.json", "src/optpipe/data/nsfnet.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} is missing: run from the root of an optpipe checkout")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload on tiny task graphs, traced, all checks")
    ap.add_argument("--hashes", action="store_true",
                    help="print the sha256 of each workload's compare.csv rows")
    args = ap.parse_args(argv)
    # a terminated benchmark still unwinds, so its process groups get killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    workdir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    try:
        check_checkout()
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        kind = "per_layer" if args.trace or args.smoke else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        lines = []
        for name in names:
            wdir = os.path.join(workdir, name)
            os.makedirs(wdir, exist_ok=True)
            inst = Instance(WORKLOADS[name], args.seed, wdir, smoke=args.smoke)
            if args.hashes:
                *_, texts = inst.cli_round("hash", deadline)
                digest = hashlib.sha256("".join(texts).encode()).hexdigest()
                lines.append(f"{name} seed={args.seed} compare_seed={inst.cseed} {digest}")
                continue
            if args.trace or args.smoke:
                spans = None if args.smoke else os.path.join(OUT_ROOT, f"spans-{name}.npz")
                metrics, attempted, failed = traced_run(inst, deadline, spans)
            else:
                metrics, attempted, failed = timed_run(inst, seconds, deadline)
            for n, u in units.items():
                v = metrics.get(n)
                shown = "absent" if v is None else f"{v:.6g}"
                print(f"perfbench: {name} {n} = {shown} {u}", file=sys.stderr)
            if args.smoke and failed:
                raise BenchError(f"smoke: {failed} of {attempted} operations failed on {name}")
            lines.append(result_line(metrics, units, attempted, failed))
    except (BenchError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
