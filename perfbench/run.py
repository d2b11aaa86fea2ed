"""Benchmark of ``pretopo cluster``: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

A run builds the workload's inputs from the seed several times, each into
fresh directories (``setup_s`` is the median), then spawns fresh
``pretopo cluster`` processes one after another for ``--seconds``.  Each
runs between two ``perfbench/reference.py`` processes, a fixed piece of
work.  ``run_rel`` is the median over the cluster processes of each one's
wall time divided by the mean wall time of the two reference processes
around it: on a shared machine whose speed drifts by a third over minutes,
the ratio follows the program and not the drift.  The wall times
themselves are reported too: on stderr, and as ``cli.run_s`` and
``reference.run_s`` with ``--trace 1``.
``peak_rss_mb`` is the median over the cluster processes.  Workloads whose
cost depends on the drawn data build several inputs a run, and the
processes cycle through them in whole rounds.

Every process's outputs are checked: against the hashes and ARI in
``expected.json`` for the seeds pinned there (0 to 30 and each workload's
default), otherwise against the workload's ARI floor; and every later
output for an input must equal the first byte for byte.

With ``--trace 1`` every CLI process is followed by one of
``perfbench/traced.py``, which runs the same pipeline with a span around
each library call.  Its outputs must match the CLI's byte for byte.  The
per-layer metrics are medians over those traced processes and the setup
repetitions; the spans of every repetition go to
``.perfbench_work/trace-<workload>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable report goes to
stderr.  ``--workload all`` runs every workload at its default seed, prints
every end-to-end metric by name and unit, and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process at a time, no extra threads: cap BLAS before numpy loads,
# here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from traced import OUTPUTS  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import ROOT, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
CHILD_TIMEOUT_S = 60.0
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], log_path: Path) -> tuple[float, int | None, float]:
    """Spawn one process and wait for it.

    Returns the wall time from spawn to exit, the exit code (``None`` when
    killed after ``CHILD_TIMEOUT_S``) and that child's own ``ru_maxrss`` in MB.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=CHILD_ENV, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, None if timed_out else proc.returncode, usage.ru_maxrss / 1024


def digest(paths) -> dict[str, str] | None:
    try:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    except OSError:
        return None


def eval_ari(out_dir: Path, labels: Path) -> float | None:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pretopo.cli", "eval",
             "--assignment", str(out_dir / "assignment.csv"), "--labels", str(labels)],
            capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[-1])["ari"]


class OutputCheck:
    """Decides whether the ``pretopo cluster`` outputs for one input are correct.

    The first output is scored with ``pretopo eval``: when ``expected.json``
    pins this input, its hashes and ARI must equal the pinned ones, otherwise
    its ARI must reach the workload's floor.  Once an output passes, every
    later one must be byte-identical to it.
    """

    def __init__(self, labels: Path, pinned: dict | None, min_ari: float):
        self.labels = labels
        self.pinned = pinned
        self.min_ari = min_ari
        self.reference: dict[str, str] | None = None
        self.ari: float | None = None

    def __call__(self, out_dir: Path) -> bool:
        digests = digest(out_dir / name for name in OUTPUTS)
        if digests is None:
            return False
        if self.reference is not None:
            return digests == self.reference
        self.ari = eval_ari(out_dir, self.labels)
        if self.ari is None:
            return False
        if self.pinned is not None:
            ok = digests == self.pinned["sha256"] and self.ari == self.pinned["ari"]
        else:
            ok = self.ari >= self.min_ari
        if ok:
            self.reference = digests
        return ok


def build_inputs(workload: Workload, seed: int, work: Path):
    """Builds the run's inputs at least ``SETUP_MIN_REPEATS`` times and for at
    least ``SETUP_MIN_SECONDS``, each time into fresh directories.

    Input ``j`` of ``workload.inputs`` is drawn with generator seed
    ``seed * workload.inputs + j``, so runs with different seeds share no input.
    Returns the directories of the first build, the build times, the setup
    tracers and whether every build wrote the same data files.
    """
    times, tracers, digests = [], [], []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        build = work / f"build-{len(times)}"
        dirs = [build / str(j) for j in range(workload.inputs)]
        tracer = Tracer()
        start = time.perf_counter()
        for j, out in enumerate(dirs):
            out.mkdir(parents=True)
            workload.build(seed * workload.inputs + j, out, tracer)
        times.append(time.perf_counter() - start)
        tracers.append(tracer)
        # config.json names its own directory, so only the data files compare
        digests.append([
            digest(sorted(p for p in out.iterdir() if p.name != "config.json"))
            for out in dirs
        ])
        if len(times) == 1:
            inputs = dirs
        else:
            shutil.rmtree(build)
    return inputs, times, tracers, all(d == digests[0] for d in digests)


def sample(seconds: float, rounds_of: int, run_one) -> list[tuple[float, float, bool]]:
    """Calls ``run_one(i)`` in whole rounds of ``rounds_of`` calls until
    ``seconds`` have passed, so every input gets the same number of samples."""
    samples = []
    start = time.perf_counter()
    while len(samples) % rounds_of or not samples or time.perf_counter() - start < seconds:
        samples.append(run_one(len(samples)))
    return samples


class Reference:
    """Times ``reference.py`` processes on both sides of each cluster process.

    The one after a cluster process also serves as the one before the next,
    unless another process ran in between.
    """

    def __init__(self, work: Path):
        self.log = work / "reference.log"
        # wall time of the last process run, while that was a reference one
        self.last: float | None = None

    def run(self) -> float | None:
        wall, code, _ = run_child([sys.executable, str(HERE / "reference.py")], self.log)
        self.last = wall if code == 0 else None
        return self.last

    def around(self, run_cluster):
        """Returns what ``run_cluster()`` returns and the mean wall time of
        the reference processes on either side (``None`` if one failed)."""
        before = self.last if self.last is not None else self.run()
        self.last = None
        result = run_cluster()
        after = self.run()
        return result, None if before is None or after is None else (before + after) / 2


def cli_sample(config: Path, out_dir: Path, check: OutputCheck, work: Path,
               reference: Reference):
    """One ``pretopo cluster`` process between two ``reference.py`` processes.

    Returns the cluster wall time, its ``ru_maxrss`` in MB, whether every
    process succeeded and the outputs passed the check, and the mean
    reference wall time.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    (wall, code, rss), ref_wall = reference.around(lambda: run_child(
        [sys.executable, "-m", "pretopo.cli", "cluster",
         "--config", str(config), "--out-dir", str(out_dir)],
        work / "cluster.log",
    ))
    ok = code == 0 and check(out_dir) and ref_wall is not None
    return wall, rss, ok, ref_wall


def traced_sample(config: Path, out_dir: Path, check: OutputCheck, work: Path,
                  traces: list[dict]):
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_path = work / "trace.json"
    wall, code, rss = run_child(
        [sys.executable, str(HERE / "traced.py"), str(config), str(out_dir), str(trace_path)],
        work / "traced.log",
    )
    ok = (code == 0 and check.reference is not None
          and digest(out_dir / name for name in OUTPUTS) == check.reference)
    if code == 0:
        traces.append(dict(json.loads(trace_path.read_text()), wall_s=wall, rss_mb=rss))
    return wall, rss, ok, None


def per_layer_metrics(setup: list[Tracer], traces: list[dict], run_s: float) -> dict:
    """Medians, over the runs that have the span, of each span's self time and
    of ``ru_maxrss`` after each traced span; counters of the first traced run."""
    samples: dict[str, list[float]] = {}
    for run in [t.to_json_dict() for t in setup] + traces:
        for name, seconds in self_times(run["spans"]).items():
            samples.setdefault(f"{name}_s", []).append(seconds)
    for trace in traces:
        for record in trace["spans"]:
            samples.setdefault(f"{record['name']}.rss_mb", []).append(record["rss_mb"])
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    if traces:
        metrics.update(traces[0]["counts"])
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traces) - run_s
    return metrics


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = json.loads((HERE / "expected.json").read_text())
    pinned = expected.get(workload.name, {}).get(str(seed), [None] * workload.inputs)
    k = workload.inputs
    try:
        inputs, setup_times, setup_tracers, setup_ok = build_inputs(workload, seed, work)
        checks = [OutputCheck(d / "labels.csv", p, workload.min_ari)
                  for d, p in zip(inputs, pinned, strict=True)]
        traces: list[dict] = []
        reference = Reference(work)

        def run_one(i: int):
            # traced runs alternate with CLI runs, so both see the same machine
            j = (i // 2 if trace else i) % k
            if trace and i % 2:
                reference.last = None
                return traced_sample(inputs[j] / "config.json", work / "out-traced",
                                     checks[j], work, traces)
            return cli_sample(inputs[j] / "config.json", work / "out", checks[j], work,
                              reference)

        runs = sample(seconds, 2 * k if trace else k, run_one)
        cli, traced = (runs[::2], runs[1::2]) if trace else (runs, [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passed = [s for s in cli if s[2]]
    timed = passed or cli
    run_s = statistics.median(s[0] for s in timed)
    paired = [s for s in timed if s[3] is not None]
    reference_s = statistics.median(s[3] for s in paired) if paired else 0.0
    # each sample's own ratio, so a stretch where the shared machine runs
    # slow lengthens both sides of it and cancels
    run_rel = statistics.median(s[0] / s[3] for s in paired) if paired else 0.0
    samples = cli + traced
    failed = sum(not s[2] for s in samples)
    result = {
        "workload": workload.name,
        "seed": seed,
        "correct": setup_ok and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "samples": len(cli),
        "run_s_all": sorted(s[0] for s in cli),
        "run_s": run_s,
        "reference_s": reference_s,
        "env": environment(),
        "end_to_end": {
            "run_rel": run_rel,
            "peak_rss_mb": statistics.median(s[1] for s in timed),
            "setup_s": statistics.median(setup_times),
            "ari": statistics.mean(c.ari if c.ari is not None else 0.0 for c in checks),
        },
    }
    if trace:
        result["per_layer"] = dict(per_layer_metrics(setup_tracers, traces, run_s),
                                   **{"cli.run_s": run_s, "reference.run_s": reference_s})
        WORK_ROOT.mkdir(exist_ok=True)
        (WORK_ROOT / f"trace-{workload.name}.json").write_text(json.dumps({
            "workload": workload.name,
            "seed": seed,
            "env": result["env"],
            "setup": [t.to_json_dict() for t in setup_tracers],
            "traced": traces,
            "metrics": result["per_layer"],
        }, indent=1))
    return result


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"no tail percentile at or above the median with {n} samples (needs 20)"
    p = 100 * (n - 10) // n
    return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} s"


def report(result: dict, spec: dict) -> None:
    """Every metric by name and unit, to stderr."""
    print(f"{result['workload']} seed={result['seed']}: correct={result['correct']}, "
          f"{result['failed']}/{result['attempted']} runs failed, env {result['env']}",
          file=sys.stderr)
    print(f"  run_s over {result['samples']} samples: median {result['run_s']:.4f} s, "
          f"{tail_percentile(result['run_s_all'])}; reference.py median "
          f"{result['reference_s']:.4f} s", file=sys.stderr)
    for section in ("end_to_end", "per_layer"):
        if section in result:
            for name, metric in metrics_json(result, spec, section).items():
                print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}",
                      file=sys.stderr)


def metrics_json(result: dict, spec: dict, section: str) -> dict:
    # a layer the workload never enters (ingest on a features input) did no work
    values = result[section]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="default: the workload's own")
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload == "all":
        results = [
            run_workload(w, w.default_seed, seconds, trace=False)
            for w in WORKLOADS.values()
        ]
        for result in results:
            report(result, spec)
            for metric in spec["end_to_end"]:
                print(f"{result['workload']} {metric['name']} "
                      f"{result['end_to_end'][metric['name']]} {metric['unit']}")
            print(f"{result['workload']} failed_frac "
                  f"{result['failed'] / result['attempted']} 1")
        return 0 if all(r["correct"] for r in results) else 1

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    result = run_workload(workload, seed, seconds, bool(args.trace))
    report(result, spec)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_json(result, spec, section),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
