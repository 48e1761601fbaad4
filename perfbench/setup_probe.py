"""Set-up as a user pays it: import optpipe, parse and validate the configs,
build the network and the schedules of every cell.

Usage: python3 setup_probe.py CONFIG [CONFIG ...]   (optpipe on PYTHONPATH)
Prints one JSON line: the link count, the task count and optpipe's location.
"""

import json
import sys


def main(paths: list[str]) -> None:
    from optpipe import cli, workload

    links = tasks = 0
    for path in paths:
        cfg = cli.RunConfig.from_file(path)
        cfg.check_model_depth(cfg["compare.models"])
        links = len(cfg.build_network().links)
        p = cfg["pp.stages"]
        for model in cfg["compare.models"]:
            profile = cfg.profile(model)
            for schedule in cfg["compare.schedules"]:
                for m in cfg["compare.microbatch_grid"]:
                    for seed in cfg["compare.seeds"]:
                        stages = workload.partition_stages(profile, p, cfg.placement(seed, p))
                        tasks += len(workload.build_schedule(
                            workload.ScheduleKind(schedule), stages, m))
    print(json.dumps({"links": links, "tasks": tasks, "module": cli.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
