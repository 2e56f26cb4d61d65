"""End-to-end and per-layer benchmark of the gradedgrowth CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each command of the workload runs
in its own process, one at a time, as users run the CLI.  A round runs every
command once; the run repeats whole rounds while one more round fits in
--seconds, so every timed metric is a median over samples taken across the
run.  Every command process is also a start-up sample: the time from its
spawn to the end of `import gradedgrowth.cli`.  Every output is checked
against values computed apart from the program (checks.py); each command
and each check is one operation, and a command that exits non-zero or a
check that fails makes the run incorrect.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each command twice
per round, once plain and once with the layer functions wrapped
(tracer.py), and prints the per-layer metrics, the import-time breakdown
from `python -X importtime`, and the tracing overhead.  The metric names
and units are read from BENCHMARK.json.  The last line of stdout is the
result as JSON; result and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REGISTRY = BENCH / "registry.json"
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # every run must end within 180 s
IMPORTTIME_SAMPLES_PER_ROUND = 2


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Command:
    name: str
    argv: list  # CLI arguments; --out is appended
    check: Callable[[dict], list]  # parsed output -> [(check name, passed)]


# ---------------------------------------------------------------------------
# workloads


def gf2_ladder(seed: int, work: Path) -> list[Command]:
    """Large p = 2 eliminations: the Heisenberg quotients of order 64 and 512,
    (Z/8)^2 and (Z/16)^2, and random right ideals of GF(2)[Q8]."""
    from gradedgrowth.filtration import graded_dims_via_jennings as jennings
    from gradedgrowth.groups import HeisenbergMod, ZdMod

    heis = checks.agreement_prefix(jennings(HeisenbergMod(4), 2),
                                   jennings(HeisenbergMod(8), 2))
    z2 = checks.agreement_prefix(jennings(ZdMod(2, 8), 2), jennings(ZdMod(2, 16), 2))
    return [
        Command("growth-heisenberg", ["growth", "--group", "heisenberg", "--p", "2",
                                      "--format", "json"],
                lambda out: checks.check_growth_prefix(out, heis)),
        Command("growth-z2", ["growth", "--group", "z2", "--p", "2",
                              "--quotient-level", "3", "--format", "json"],
                lambda out: checks.check_growth_prefix(out, z2)),
        _rs_check("q8", 2, 20, seed),
    ]


def odd_ideals(seed: int, work: Path) -> list[Command]:
    """Many echelonizations over odd p: a 243-step ladder over GF(3), two
    elementary abelian ladders, and rs-check's small intersections."""
    ladders = [("c243", 3, 1, 243), ("z5m3", 3, 5, 3), ("z3m5", 5, 3, 5)]
    out = [
        Command(f"growth-{group}", ["growth", "--group", group, "--p", str(p),
                                    "--format", "json"],
                lambda o, e=checks.zd_mod_ladder(d, m): checks.check_growth_finite(o, e))
        for group, p, d, m in ladders
    ]
    out.append(_rs_check("heisenberg_mod_3", 3, 20, seed))
    out.append(_rs_check("z2m9", 3, 10, seed))
    return out


def cayley(seed: int, work: Path) -> list[Command]:
    """Word-metric BFS, shortlex rewriting and the quotient action; no rref.
    The inputs are fixed: the seed changes nothing here."""
    def deadends(group: str, radius: int, check) -> Command:
        return Command(f"deadends-{group}", ["deadends", "--group", group,
                                             "--radius", str(radius)], check)

    def triangle(k: int, radius: int) -> Command:
        rules = checks.triangle_rules(k)
        words = [checks.triangle_family_word(k, n)
                 for n in range(-radius, radius + 1) if n]
        members = [checks.triangle_normal_form(rules, w) for w in words if len(w) < radius]
        return deadends(f"t33{k}", radius,
                        lambda out: checks.check_triangle_dead_ends(out, members))

    lamplighter = checks.lamplighter_dead_ends(19)
    cert = str(work / "tile-z2.out")  # the tile command's --out file
    bound = Fraction(1, 2)
    return [
        triangle(4, 15),
        triangle(5, 12),
        deadends("lamplighter", 19,
                 lambda out: checks.check_lamplighter_dead_ends(out, lamplighter)),
        Command("tile-z2", ["tile", "--group", "z2", "--epsilon", "1/2"],
                lambda out: checks.check_tile(out, checks.Z2_K)),
        Command("verify-tile", ["verify", "--certificate", cert], checks.check_verify),
        Command("folner-z2", ["folner", "--group", "z2", "--bound", "1/2"],
                lambda out: checks.check_folner(out, checks.Z2_K, bound)),
    ]


def _rs_check(group: str, p: int, ideals: int, seed: int) -> Command:
    return Command(f"rs-check-{group}", ["rs-check", "--group", group, "--p", str(p),
                                         "--ideals", str(ideals), "--seed", str(seed)],
                   lambda out: checks.check_rs(out, ideals))


WORKLOADS = {"gf2_ladder": gf2_ladder, "odd_ideals": odd_ideals, "cayley": cayley}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GRADEDGROWTH_BUDGET_MB"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def clock() -> float:
    """The system-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_process(argv: list, env: dict, deadline: float, stderr_path: Path):
    """Run argv to completion; returns (spawn time on clock(), wall seconds,
    exit code, peak RSS in KiB).  The process is killed if it runs past the
    deadline."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, proc.returncode, usage.ru_maxrss


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def importtime_sample(env: dict, deadline: float, work: Path) -> dict:
    """Cumulative import times from `python -X importtime`: the whole
    `import gradedgrowth.cli`, numpy, sympy, and the rest (the package's own
    modules and the standard library they pull in)."""
    err = work / "importtime.txt"
    run_process([sys.executable, "-X", "importtime", "-c", "import gradedgrowth.cli"],
                env, deadline, err)
    cumulative = {}
    for line in err.read_text(encoding="utf-8").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    total = cumulative["gradedgrowth"] + cumulative["gradedgrowth.cli"]
    numpy_s, sympy_s = cumulative.get("numpy", 0.0), cumulative.get("sympy", 0.0)
    return {"cli.import_s": total, "cli.import.numpy_s": numpy_s,
            "cli.import.sympy_s": sympy_s,
            "cli.import.gradedgrowth_s": total - numpy_s - sympy_s}


def reference_s() -> float:
    """A fixed pure-Python loop, timed to tell a slow machine phase apart
    from a slow program.  A diagnostic, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, commands: list[Command], work: Path, deadline: float):
        self.commands = commands
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.wall = {c.name: [] for c in commands}
        self.compute = {c.name: [] for c in commands}
        self.compute_cpu = {c.name: [] for c in commands}
        self.traced_compute = {c.name: [] for c in commands}
        self.rss_kib = 0
        self.setup: list[float] = []
        self.imports: list[dict] = []
        self.layers: list[dict] = []  # per round, summed over the commands
        self.spans: dict = {}  # command name -> trace of its last traced run

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.correct = False
        self.problems.append(problem)

    def command(self, cmd: Command, traced: bool) -> dict:
        """Run one command and check its output; returns the trace, if any."""
        out_path = self.work / f"{cmd.name}.out"
        timing_path = self.work / f"{cmd.name}.timing.json"
        trace_path = self.work / f"{cmd.name}.trace.json"
        for path in (out_path, timing_path, trace_path):
            path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(timing_path)]
        if traced:
            argv += ["--trace", str(trace_path)]
        argv += ["--registry", str(REGISTRY)] + cmd.argv + ["--out", str(out_path)]
        spawned, wall, code, rss = run_process(argv, self.env, self.deadline,
                                               self.work / f"{cmd.name}.stderr")
        self.attempted += 1
        if code != 0:
            self.fail(f"{cmd.name} exited {code}")
            return {}
        try:
            results = cmd.check(json.loads(out_path.read_text(encoding="utf-8")))
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            results = [("output_readable", False)]
            self.problems.append(f"{cmd.name}: unreadable output ({exc!r})")
        for check_name, ok in results:
            self.attempted += 1
            if not ok:
                self.fail(f"{cmd.name}: check {check_name} failed")
        timing = json.loads(timing_path.read_text(encoding="utf-8"))
        if traced:
            self.traced_compute[cmd.name].append(timing["compute_s"])
            return json.loads(trace_path.read_text(encoding="utf-8"))
        self.wall[cmd.name].append(wall)
        self.compute[cmd.name].append(timing["compute_s"])
        self.compute_cpu[cmd.name].append(timing["compute_cpu_s"])
        self.setup.append(timing["imported_at"] - spawned)
        self.rss_kib = max(self.rss_kib, rss)
        return {}

    def round(self, index: int, traced: bool) -> None:
        n = len(self.commands)
        sample_at = {i * n // IMPORTTIME_SAMPLES_PER_ROUND
                     for i in range(IMPORTTIME_SAMPLES_PER_ROUND)}
        layers: dict = {}
        for i, cmd in enumerate(self.commands):
            if traced and i in sample_at:
                self.imports.append(importtime_sample(self.env, self.deadline, self.work))
            # alternate which of the pair goes first, so neither always
            # runs on a cache the other warmed
            order = (False, True) if traced else (False,)
            for t in (order if index % 2 == 0 else order[::-1]):
                trace = self.command(cmd, t)
                if t and trace:
                    self.spans[cmd.name] = trace
                    for key, value in layer_values(trace).items():
                        layers[key] = layers.get(key, 0) + value
        if traced:
            rows, rank = layers.get("subspace.rref.rows_in", 0), layers.get("subspace.rref.rank_out", 0)
            layers["subspace.rref.rank_yield"] = rank / rows if rows else 0.0
            self.layers.append(layers)

    def end_to_end(self) -> dict:
        return {
            "wall_s": sum(_median(v) for v in self.wall.values()),
            "setup_s": _median(self.setup),
            "compute_s": sum(_median(v) for v in self.compute.values()),
            "peak_rss_mb": self.rss_kib / 1024,
        }

    def per_layer(self) -> dict:
        out = {}
        for name in metric_units("per_layer"):
            if name.startswith("cli.import"):
                out[name] = _median([s[name] for s in self.imports])
            elif name != "trace.overhead_s":
                out[name] = _median([r.get(name, 0) for r in self.layers])
        out["trace.overhead_s"] = (sum(_median(v) for v in self.traced_compute.values())
                                   - sum(_median(v) for v in self.compute.values()))
        return out


def layer_values(trace: dict) -> dict:
    """Counts plus, for every span name, its calls, total and self seconds."""
    out = dict(trace["counts"])
    for _, name, t0, t1, _, self_s in trace["spans"]:
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".s"] = out.get(name + ".s", 0) + (t1 - t0)
        out[name + ".self_s"] = out.get(name + ".self_s", 0) + self_s
    return out


def _median(values: list) -> float:
    """The median; 0.0 for no samples, which happens only after a failure
    has already made the run incorrect."""
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not (SRC / "gradedgrowth" / "cli.py").is_file():
        print(f"error: no gradedgrowth sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile once so no timed process compiles
    if subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)]).returncode:
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload](args.seed, work), work, deadline)
    reference = [reference_s()]
    rounds = 0
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        run.round(rounds, bool(args.trace))
        rounds += 1
        reference.append(reference_s())
        # start another round only if one more, as long as the last, ends
        # within --seconds: a run never measures longer than asked unless
        # a single round does
        now = time.monotonic()
        if now + (now - r0) > min(t0 + args.seconds, deadline):
            break

    for name, samples in (run.traced_compute if args.trace else run.wall).items():
        if not samples:
            run.correct = False
            run.problems.append(f"{name}: no run succeeded, so it has no timing")
    metrics = run.per_layer() if args.trace else run.end_to_end()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for name, samples in run.wall.items():
        print(f"# {name}: wall median {_median(samples):.3f} s, compute median "
              f"{_median(run.compute[name]):.3f} s over {len(samples)} samples")
    print(f"# rounds {rounds} in {time.monotonic() - t0:.1f} s; start-up samples "
          f"{len(run.setup)}; reference loop median {_median(reference):.4f} s")
    for problem in run.problems:
        print(f"# problem: {problem}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT / f"result-{label}.json").write_text(json.dumps(
        {**result, "rounds": rounds, "reference_s": _median(reference),
         "wall_samples": run.wall, "compute_samples": run.compute,
         "compute_cpu_samples": run.compute_cpu,
         "setup_samples": run.setup}, indent=1), encoding="utf-8")
    if args.trace:
        (OUT / f"trace-{label}.json").write_text(json.dumps(run.spans), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
