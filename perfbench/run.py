"""binreg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The untraced run (--trace 0) gives the end-to-end metrics of BENCHMARK.json;
the traced run (--trace 1) gives the per-layer metrics. The last line of
standard output is the result object; the line before it records the
environment and sample counts, and a readable table goes to standard error.
Everything runs in this one process and thread, driving ``binreg.cli.main``
from outside the package; inputs and traces go under ``.perfbench/``.
"""

import os
import sys

# One thread everywhere, and no binreg fan-out; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BINREG_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import CHECKS, FULL, SMOKE, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_CODE = "import binreg, binreg.cli; binreg.cli.build_parser()"
# Nominal time of calibration_kernel(); see Speed.
KERNEL_REF_S = 4.0e-3


@dataclass
class Record:
    kind: str
    wall: float
    datasets: int
    checked: int
    error: str
    out_bytes: int
    scaled: float = 0.0  # wall rescaled to the reference speed


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter work, small numpy calls and
    one large-array op, the same mix binreg's operations are made of."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(30_000):
        acc += (k * k) % 7
    small = np.linspace(-3.0, 3.0, 64)
    for _ in range(300):
        np.logaddexp(0.0, small).sum()
    large = np.linspace(-3.0, 3.0, 20_000)
    for _ in range(10):
        np.exp(large).sum()
    return time.perf_counter() - t0


class Speed:
    """Rescales wall times to a reference machine speed.

    The shared machines this runs on change speed by up to 2x in phases that
    last seconds to minutes, which moves every timing alike. A fixed
    calibration kernel runs before and after each timed operation; the
    operation's wall time times KERNEL_REF_S over the mean of the two kernel
    times is its time at the reference speed. The rescaled times tracked the
    raw ones with correlation 0.8 and cut the spread of 10-second window
    medians from 24-50% to 7-10% in a 100-second test on a 2-core VM.
    """

    def __init__(self):
        self.last = calibration_kernel()
        self.factors: list = []

    def rescale(self, wall: float) -> float:
        before, self.last = self.last, calibration_kernel()
        self.factors.append(KERNEL_REF_S / (0.5 * (before + self.last)))
        return wall * self.factors[-1]


def fresh_import_seconds(speed: Speed) -> float:
    """Wall time of a fresh interpreter importing binreg and building the
    CLI parser, rescaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in 50 ms steps
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
    return speed.rescale(time.perf_counter() - t0)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "BINREG_THREADS": os.environ.get("BINREG_THREADS", "cleared"),
    }


def call(op, cli_main) -> Record:
    """Run one CLI operation timed, then check its output untimed."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli_main(op.argv)
    except Exception as exc:  # a crash is a failed operation, not a harness error
        wall = time.perf_counter() - t0
        return Record(op.kind, wall, op.datasets, 0, f"{type(exc).__name__}: {exc}", 0)
    wall = time.perf_counter() - t0
    text = out.getvalue()
    try:
        error, checked = CHECKS[op.kind](op, rc, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        error, checked = f"unreadable output (rc={rc}): {exc}", 0
    return Record(op.kind, wall, op.datasets, checked, error or "", len(text.encode()))


def timed_call(op, cli_main, speed: Speed) -> Record:
    record = call(op, cli_main)
    record.scaled = speed.rescale(record.wall)
    return record


def timed_loop(cycles, seconds: float, cli_main, speed: Speed) -> list:
    """Run whole cycles' operations until ``seconds`` of operation time is
    spent and at least one cycle is complete."""
    records, spent = [], 0.0
    for n_cycle, ops in enumerate(cycles, start=1):
        for k, op in enumerate(ops, start=1):
            records.append(timed_call(op, cli_main, speed))
            spent += records[-1].wall
            if spent >= seconds and (n_cycle > 1 or k == len(ops)):
                return records
    return records


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(records: list, setup: list) -> tuple:
    times = {kind: [r.scaled for r in records if r.kind == kind] for kind in ("fit", "overlap")}
    # On verify_suite, throughput and checked share count suite trials only,
    # so they are the verify loop's own; elsewhere every operation counts.
    answered = [r for r in records if r.kind == "verify"] or records
    datasets = sum(r.datasets for r in answered)
    failed = sum(1 for r in records if r.error)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "fit_p50_s": (_median(times["fit"]), "s"),
        "overlap_p50_s": (_median(times["overlap"]), "s"),
        "datasets_per_s": (datasets / sum(r.scaled for r in answered), "1/s"),
        "checked_frac": (sum(r.checked for r in answered) / datasets, "ratio"),
        "success_rate": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup": len(setup), "fit": len(times["fit"]), "overlap": len(times["overlap"]),
               "operations": len(records), "datasets": datasets,
               "verify_calls": sum(1 for r in records if r.kind == "verify"),
               "raw_fit_p50_s": _median([r.wall for r in records if r.kind == "fit"]),
               "raw_overlap_p50_s": _median([r.wall for r in records if r.kind == "overlap"]),
               "raw_datasets_per_s": datasets / sum(r.wall for r in answered)}
    return metrics, samples


def traced(wl, workload: str, seed: int, cli_main, speed: Speed) -> tuple:
    """Run a fixed number of cycles untraced and then traced; per-layer
    metrics come from the traced pass, the overhead from the difference."""
    import spans  # imports binreg
    ops = [op for cycle in itertools.islice(wl.cycles(), wl.trace_cycles) for op in cycle]
    plain = [timed_call(op, cli_main, speed) for op in ops]
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    undo = spans.install(tracer)
    try:
        records = []
        for request, op in enumerate(ops):
            tracer.request_id = request
            records.append(timed_call(op, traced_main, speed))
    finally:
        spans.uninstall(undo)
    np.savez(WORK / f"trace-{workload}-{seed}.npz", **tracer.arrays())
    metrics = spans.layer_metrics(tracer)
    metrics["verify.skipped"] = (sum(r.datasets - r.checked for r in records
                                     if r.kind == "verify" and not r.error), "count")
    metrics["cli.json_bytes"] = (sum(r.out_bytes for r in records), "count")
    metrics["trace.overhead_s"] = (sum(r.scaled for r in records)
                                   - sum(r.scaled for r in plain), "s")
    samples = {"operations": len(ops), "spans": len(tracer.start)}
    return metrics, samples, plain + records


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> tuple:
    """One run; returns (result object, info object)."""
    speed = Speed()
    setup = [] if trace else [fresh_import_seconds(speed) for _ in range(SETUP_REPEATS)]
    import binreg.cli
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](seed, str(workdir), sizes)
        warm = [call(op, binreg.cli.main) for op in wl.warmup()]
        if trace:
            metrics, samples, records = traced(wl, workload, seed, binreg.cli.main, speed)
        else:
            records = timed_loop(wl.cycles(), seconds, binreg.cli.main, speed)
            metrics, samples = end_to_end(records, setup)
            samples["speed_factor_p50"] = statistics.median(speed.factors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = warm + records
    errors = [r.error for r in records if r.error]
    result = {"correct": not errors, "attempted": len(records), "failed": len(errors),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "samples": samples, "errors": errors[:5], "env": environment()}
    return result, info


def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced; checks that
    every metric of BENCHMARK.json is reported with its unit."""
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run(workload, 1, 1.0, trace, SMOKE)
            got = result["metrics"]
            for metric in SPEC[key]:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: {metric['name']} "
                                    f"missing or not in {metric['unit']}")
            extra = set(got) - {m["name"] for m in SPEC[key]}
            problems += [f"{workload} trace={int(trace)}: unlisted metric {n}" for n in extra]
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
            print(f"smoke {workload} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} operations", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    # One CPU for this process and the interpreters it launches: the CPUs of
    # a small VM speed up and slow down independently, and the calibration
    # kernel (see Speed) must run where the operation it brackets runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # a terminated run still removes its inputs (run's finally clause)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result and its environment as a JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and check the metric names")
    args = parser.parse_args(argv)
    if not (SRC / "binreg" / "__init__.py").is_file():
        print(f"error: binreg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:38s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for error in info["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(dict(info, result=result)) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
