"""End-to-end sweep benchmark of the ``repro`` CLI.

One run::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the workload's grid with ``--seed`` as the sweep's master seed (it
draws every trial's inputs and noise) and then, from the root of a source
checkout:

1. for ``--seconds`` seconds, launches ``python -m repro sweep run|resume
   ... --json -o OUT --cache-dir FRESH`` again and again, each with a cold
   cache (``hop-burst-resume``: a copy of a cache half-filled by an untimed
   ``--shard 0/2`` run), timing each from launch to exit and reading its
   peak resident memory (the CLI process or its largest pool worker);
   with ``--trace 0`` each invocation is followed by a fresh process that
   only sets the invocation up (``setup_probe.py``), timed as ``setup_s``;
2. runs the same command once more under ``traced_cli.py`` (twice with
   ``--trace 1``), recording every layer's spans in every process;
3. checks the outputs: every exit status, each ``--json`` summary against
   the grid, every timed ``-o`` point against the traced run's point field
   for field, and for one sampled trial of every computed point,
   ``run_trial(task, executor, derive_seed(seed, "point[i]"), index)`` on
   the scalar engine against the record the traced run captured from
   ``run_trials``.  With ``--trace 1`` the layer counts of the two traced
   runs must also agree exactly.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` trials, and ``metrics`` -- the end-to-end
metrics of :data:`workloads.END_TO_END` with ``--trace 0``, the per-layer
metrics of :data:`workloads.LAYER_METRICS` with ``--trace 1``.  The line
before it, ``INFO {...}``, records the machine, the planner's backend
decisions, the replay count and the workload's rationale.

Steadiness::

    python3 perfbench/run.py --steadiness [--workload NAME ...] [--runs 10]

runs each workload ``--runs`` times with successive seeds and prints, for
every end-to-end metric, the median, the quartiles and the spread
(quartile distance over median) with unit and sample count, against the
bounds in ``BENCHMARK.json``, plus the failed-trial ratio and the number
of scalar replays.  With ``--runs 1`` it is the one command that prints
every end-to-end metric of every workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

from tracer import NAME, ROOT as ROOT_SPAN, layer_totals, self_times  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    EXACT_COUNTS,
    LAYER_METRICS,
    WORKLOADS,
    Workload,
)

#: A run must end within 180 s; subprocesses are killed past this.
RUN_BUDGET_S = 170.0


#: Process groups of the commands running now, killed if this run is.
_RUNNING: set[int] = set()


def _terminate(signum: int, frame: Any) -> None:
    for pgid in list(_RUNNING):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(128 + signum)


class BudgetExceeded(RuntimeError):
    """The run would not finish within :data:`RUN_BUDGET_S`."""


@dataclasses.dataclass
class Launch:
    wall_s: float
    peak_rss_mb: float
    status: int
    stdout: str


def _env() -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _kill_group(pgid: int) -> None:
    """Kill what is left of a launched process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(argv: list[str], deadline: float, log: Path) -> Launch:
    """Run ``argv`` from the checkout root; time it from launch to exit.

    ``wait4`` reports the peak resident set of the process and of its
    largest waited-for child (a pool worker), whichever is higher.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BudgetExceeded(" ".join(argv[:6]))
    with open(log.with_suffix(".out"), "w+", encoding="utf-8") as out, \
            open(log.with_suffix(".err"), "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdout=out, stderr=err,
            start_new_session=True,
        )
        _RUNNING.add(proc.pid)
        timer = threading.Timer(remaining, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            _RUNNING.discard(proc.pid)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        out.seek(0)
        text = out.read()
    return Launch(wall, usage.ru_maxrss / 1024.0, proc.returncode, text)


def _last_json(text: str) -> dict[str, Any] | None:
    for line in reversed(text.strip().splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            return None
        return value if isinstance(value, dict) else None
    return None


@dataclasses.dataclass
class Invocation:
    launch: Launch
    summary: dict[str, Any] | None
    points: list[dict[str, Any]] | None
    traces: list[dict[str, Any]] | None = None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One measured run of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.grid = workload.grid(seed)
        self.total = self.grid.total_points
        self.computed = workload.computed_indices(self.total)
        self.problems: list[str] = []
        self._serial = 0

    def _path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}-{self._serial}"

    # -- launching ------------------------------------------------------

    def sweep(
        self,
        cache: Path,
        *,
        trace: bool = False,
        shard: str | None = None,
    ) -> Invocation:
        out = self._path("points").with_suffix(".json")
        if trace:
            trace_dir = self._path("trace")
            trace_dir.mkdir()
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir)]
        else:
            argv = [sys.executable, "-m", "repro"]
        verb = "run" if shard else self.workload.verb
        argv += ["sweep", verb, *self.workload.cli_args(self.seed),
                 "--json", "--cache-dir", str(cache)]
        argv += ["--shard", shard] if shard else ["-o", str(out)]
        result = launch(argv, self.deadline, self._path("log"))
        summary = _last_json(result.stdout)
        points = None
        if result.status == 0 and out.is_file():
            points = json.loads(out.read_text(encoding="utf-8"))["points"]
        traces = None
        if trace:
            traces = [
                json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(trace_dir.glob("*.json"))
            ]
        if result.status != 0:
            self.problems.append(
                f"{' '.join(argv[2:5])} exited with {result.status}"
            )
        return Invocation(result, summary, points, traces)

    def fresh_cache(self, prefill: Path | None) -> Path:
        cache = self._path("cache")
        if prefill is not None:
            shutil.copytree(prefill, cache)
        return cache

    def setup_probe(self) -> float:
        """Wall time of one fresh set-up process (see setup_probe.py)."""
        argv = [
            sys.executable, str(HERE / "setup_probe.py"), self.grid.to_json(),
            str(self.workload.workers), *(str(i) for i in self.computed),
        ]
        result = launch(argv, self.deadline, self._path("setup"))
        if result.status != 0:
            self.problems.append(f"set-up probe exited with {result.status}")
        return result.wall_s

    # -- checking -------------------------------------------------------

    def check_summary(self, inv: Invocation) -> bool:
        expected = {
            "grid": self.grid.grid_key(),
            "points": self.total,
            "computed": len(self.computed),
            "hits": self.total - len(self.computed),
        }
        summary = inv.summary or {}
        wrong = {
            key: summary.get(key)
            for key, value in expected.items()
            if summary.get(key) != value
        }
        if wrong:
            self.problems.append(f"--json summary differs: {wrong}")
        return not wrong

    def replay(self, reference: Invocation) -> tuple[int, set[int]]:
        """Scalar-engine replays of one sampled trial per computed point.

        Returns the replay count and the points whose replay differs
        from the record the traced run captured.
        """
        from repro.parallel.runner import run_trial
        from repro.rng import derive_seed

        captured: dict[int, list[dict[str, Any]]] = {}
        for trace in reference.traces or []:
            for batch in trace["batches"]:
                captured[batch["seed"]] = batch["records"]
        chooser = random.Random(self.seed)
        replays, bad = 0, set()
        for index in self.computed:
            trial = chooser.randrange(self.grid.trials)
            point_seed = derive_seed(self.seed, f"point[{index}]")
            records = captured.get(point_seed)
            if records is None:
                self.problems.append(f"point {index}: no captured records")
                bad.add(index)
                continue
            if time.monotonic() > self.deadline:
                raise BudgetExceeded("scalar replays")
            task, executor, _ = self.grid.build_point(self.grid.ns[index])
            record = run_trial(task, executor, point_seed, trial)
            replays += 1
            if dataclasses.asdict(record) != records[trial]:
                self.problems.append(
                    f"point {index} trial {trial}: scalar replay differs"
                )
                bad.add(index)
        return replays, bad

    def failed_trials(
        self, inv: Invocation, reference: Invocation, bad: set[int]
    ) -> int:
        trials = self.grid.trials
        if inv.points is None or not self.check_summary(inv):
            return self.total * trials
        if reference.points is None or len(inv.points) != self.total:
            return self.total * trials
        failed = 0
        for index, point in enumerate(inv.points):
            if index in bad or point != reference.points[index]:
                failed += trials
        return failed

    def exact_counts(self, inv: Invocation) -> dict[str, float]:
        counts: dict[str, float] = {key: 0 for key in EXACT_COUNTS}
        for trace in inv.traces or []:
            for key, value in trace["counts"].items():
                if key in counts:
                    counts[key] += value
        return counts

    # -- the run --------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> tuple[dict, dict]:
        """The result line and the INFO record of this run."""
        phases: dict[str, float] = {}
        mark = time.perf_counter()

        def phase(name: str) -> None:
            nonlocal mark
            now = time.perf_counter()
            phases[name] = now - mark
            mark = now

        prefill = None
        if self.workload.prefill_shard:
            prefill = self._path("prefill")
            filler = self.sweep(prefill, shard=self.workload.prefill_shard)
            if filler.launch.status != 0:
                self.problems.append("prefill run failed")
        phase("prefill")

        # Untimed: warms the bytecode and page caches for what follows.
        self.setup_probe()
        phase("warm-up")

        # Set-up probes alternate with the timed invocations, so both
        # medians sample the same stretch of machine time.
        timed: list[Invocation] = []
        setups: list[float] = []
        start = time.perf_counter()
        while not timed or time.perf_counter() - start < seconds:
            cache = self.fresh_cache(prefill)
            timed.append(self.sweep(cache))
            shutil.rmtree(cache, ignore_errors=True)
            if not trace:
                setups.append(self.setup_probe())
        phase("timed")

        traced = []
        for _ in range(2 if trace else 1):
            cache = self.fresh_cache(prefill)
            traced.append(self.sweep(cache, trace=True))
            shutil.rmtree(cache, ignore_errors=True)
        reference = traced[0]
        if reference.points is None:
            self.problems.append("traced run produced no points")
        for inv in traced:
            self.check_summary(inv)
        phase("traced")
        replays, bad = self.replay(reference)
        phase("replay")

        per_run = self.total * self.grid.trials
        attempted = per_run * len(timed)
        failed = sum(self.failed_trials(inv, reference, bad) for inv in timed)
        deterministic = True
        if trace:
            first, second = (self.exact_counts(inv) for inv in traced)
            if first != second:
                deterministic = False
                self.problems.append(
                    "layer counts differ between traced runs: "
                    + str({k: (first[k], second[k]) for k in first
                           if first[k] != second[k]})
                )
            if traced[1].points != reference.points:
                deterministic = False
                self.problems.append("traced runs returned different points")

        walls = [inv.launch.wall_s for inv in timed]
        if trace:
            metrics = self.layer_metrics(reference, statistics.median(walls), replays)
        else:
            wall_s = statistics.median(walls)
            setup_s = statistics.median(setups)
            values = {
                "wall_s": wall_s,
                "setup_s": setup_s,
                "trials_per_s": per_run / (wall_s - setup_s),
                "peak_rss_mb": statistics.median(
                    inv.launch.peak_rss_mb for inv in timed
                ),
            }
            metrics = {
                key: {"value": values[key], "unit": unit}
                for key, (unit, _) in END_TO_END.items()
            }
        summaries = [inv.summary or {} for inv in timed + traced]
        info = {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": int(trace),
            "machine": machine(),
            "invocations": len(timed),
            "walls_s": walls,
            "phase_s": phases,
            "replays": replays,
            "failed_ratio": failed / attempted,
            "backend_decisions": summaries[0].get("backend_decisions"),
            "last_fallback_reason": summaries[0].get("last_fallback_reason"),
            "same_decisions_every_invocation": all(
                (s.get("backend_decisions"), s.get("last_fallback_reason"))
                == (summaries[0].get("backend_decisions"),
                    summaries[0].get("last_fallback_reason"))
                for s in summaries
            ),
            "why": self.workload.why,
            "loads": list(self.workload.loads),
            "bypasses": list(self.workload.bypasses),
            "problems": self.problems,
            # Wrapped functions that no longer exist: their layer reads 0
            # and its time moves to trace.unattributed_s.
            "unwrapped": sorted({
                target
                for trace in reference.traces or []
                for target in trace.get("missing", [])
            }),
        }
        if trace:
            info["self_time_s"] = dict(
                sorted(layer_totals(reference.traces or []).items(),
                       key=lambda item: -item[1])
            )
        result = {
            "correct": deterministic and failed == 0 and not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return result, info

    def layer_metrics(
        self, traced: Invocation, untraced_wall: float, replays: int
    ) -> dict[str, dict[str, Any]]:
        traces = traced.traces or []
        own = layer_totals(traces)
        counts = self.exact_counts(traced)
        main = [t for t in traces if t["role"] == "main"]
        main_self = sum(
            value
            for trace in main
            for span, value in zip(trace["spans"], self_times(trace["spans"]))
            if span[NAME] != ROOT_SPAN
        )
        timings = [b["timing"] for t in main for b in t["batches"]]
        busy = sum(t["busy_s"] for t in timings)
        capacity = sum(t["elapsed_s"] * t["workers"] for t in timings)
        gets = counts["service.store_gets"]
        values = {
            "vectorized.noise_s": own.get("vectorized.noise", 0.0),
            "tasks.sample_inputs_s": own.get("tasks.sample_inputs", 0.0),
            "vectorized.kernel_s": own.get("vectorized.kernel", 0.0),
            "vectorized.network_driver_s": own.get(
                "vectorized.network_driver", 0.0),
            "network.topology_build_s": own.get("network.topology_build", 0.0),
            "vectorized.scheme_s": own.get("vectorized.scheme", 0.0),
            "vectorized.decode_s": own.get("vectorized.decode", 0.0),
            "parallel.run_trials_s": own.get("parallel.run_trials", 0.0),
            "parallel.busy_s": busy,
            "parallel.wait_s": capacity - busy,
            "parallel.utilization": busy / capacity if capacity else 0.0,
            "parallel.fallbacks": sum(t["fallback"] for t in timings),
            "core.run_protocol_s": own.get("core.run_protocol", 0.0),
            "simulation.simulate_s": own.get("simulation.simulate", 0.0),
            "coding.decode_s": own.get("coding.decode", 0.0),
            "service.store_get_s": own.get("service.store_get", 0.0),
            "service.store_put_s": own.get("service.store_put", 0.0),
            "service.hit_ratio": counts["service.store_hits"] / gets if gets else 0.0,
            "analysis.aggregate_s": own.get("analysis.aggregate", 0.0),
            "trace.unattributed_s": traced.launch.wall_s - main_self,
            "trace.overhead_s": traced.launch.wall_s - untraced_wall,
            "check.replays": replays,
        }
        values.update(
            (key, counts[key]) for key in EXACT_COUNTS if key in LAYER_METRICS
        )
        return {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _, _) in LAYER_METRICS.items()
        }


def machine() -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def run_once(name: str, seed: int, seconds: float, trace: bool) -> None:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        result, info = Run(workload, seed, work).measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    print("INFO " + json.dumps(info))
    print(json.dumps(result, sort_keys=True), flush=True)


def steadiness(names: list[str], runs: int, first_seed: int,
               seconds: float) -> None:
    """Print each end-to-end metric's median, quartiles and spread."""
    bounds: dict[str, float] = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        samples: dict[str, list[float]] = {key: [] for key in END_TO_END}
        attempted = failed = replays = 0
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            result = _last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                continue
            info = json.loads(lines[-2][len("INFO "):])
            attempted += result["attempted"]
            failed += result["failed"]
            replays += info["replays"]
            for key, metric in result["metrics"].items():
                samples[key].append(metric["value"])
            if not result["correct"]:
                print(f"{name} seed {seed}: NOT CORRECT {info['problems']}")
        print(f"\n{name}  ({runs} runs from seed {first_seed}, "
              f"{seconds:g} s each)")
        print(f"  {'metric':<14}{'unit':<7}{'n':>3}{'median':>11}{'q1':>11}"
              f"{'q3':>11}{'spread':>9}{'bound':>7}")
        for key, (unit, _) in END_TO_END.items():
            values = samples[key]
            if not values:
                continue
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / median
            bound = bounds.get(key)
            mark = "" if bound is None else (
                f"{bound:>7g}" + ("" if spread < bound / 3 else "  > bound/3")
            )
            print(f"  {key:<14}{unit:<7}{len(values):>3}{median:>11.4f}"
                  f"{q1:>11.4f}{q3:>11.4f}{spread:>9.4f}{mark}")
        ratio = failed / attempted if attempted else float("nan")
        print(f"  {'failed_ratio':<14}{'ratio':<7}{'':>3}{ratio:>11.4f}"
              f"   ({failed} of {attempted} trials; {replays} scalar replays)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run each workload --runs times and print spreads")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    if args.steadiness:
        steadiness(args.workload or list(WORKLOADS), args.runs, args.seed,
                   args.seconds)
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("one --workload is required")
    try:
        run_once(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except BudgetExceeded as error:
        print(f"run exceeded {RUN_BUDGET_S:g} s at: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
