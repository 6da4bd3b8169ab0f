"""Set-up probe: a fresh interpreter imports metasim, loads and
validates a workload's input files, and prints one JSON line when it is
ready to run. The caller times the probe from spawn to that line.

    python3 bench/probe.py SRC_DIR {scenario|sweep} FILE...
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    src, kind, *files = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import metasim.cli  # noqa: F401  (the CLI's import cost is the layer measured)
    from metasim import load_scenario, load_sweep

    t1 = time.perf_counter()
    load = load_sweep if kind == "sweep" else load_scenario
    for path in files:
        load(path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
