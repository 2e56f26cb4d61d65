"""Run one gradedgrowth CLI command in this process, as the console script
does, and write where its time went to a JSON file.

    python3 perfbench/child.py TIMING_JSON [--trace TRACE_JSON] CLI_ARGS...

The timing file holds imported_at (when `import gradedgrowth.cli` ended, on
the system-wide monotonic clock, so the parent can subtract the spawn time),
import_s (importing gradedgrowth.cli) and compute_s and compute_cpu_s
(inside gradedgrowth.cli.main).  With --trace, the layer functions are
wrapped before main runs and their spans and counts go to TRACE_JSON.
The exit code is the command's.
"""

import json
import sys
import time


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    t0 = time.perf_counter()
    from gradedgrowth.cli import main as cli_main
    t1, imported_at = time.perf_counter(), time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer(" ".join(argv))
    t2, c2 = time.perf_counter(), time.process_time()
    code = cli_main(argv)
    t3, c3 = time.perf_counter(), time.process_time()
    sys.stdout.flush()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"imported_at": imported_at, "import_s": t1 - t0, "compute_s": t3 - t2,
                   "compute_cpu_s": c3 - c2}, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
