"""Benchmark of gridshock, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see workloads.py): scenario_compound, ladder_beta, bnb_hour17.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics and the tracing overhead.  Every run checks
the outputs.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a record
with the machine, the samples and the metric bounds goes to
``perfbench/results/``.  The exit code is nonzero when any check fails.
"""

import os
import sys

# BLAS threads are fixed here, before numpy loads: the LPs are small, and
# one thread gave a narrower run-to-run spread than OpenBLAS's default.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 8
SETUP_PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "attack_value": "USD", "unserved_mwh": "MWh",
}


def import_package() -> None:
    """Import gridshock from this checkout's src/, and from nowhere else."""
    pkg = SRC / "gridshock"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import gridshock
    if Path(gridshock.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported gridshock from {gridshock.__file__}, not {pkg}")


def timed_setup(workdir: Path, seed: int) -> float:
    """Import, network and demand load, and seeded input generation."""
    t0 = time.perf_counter()
    import_package()
    import workloads
    workloads.make_inputs(workdir, seed)
    return time.perf_counter() - t0


def setup_probe_times(seed: int, workdir: Path) -> list[float]:
    """Set-up times, each in a fresh interpreter so that the import is timed."""
    times = []
    for i in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             str(workdir / f"probe{i}"), "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridshock").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def bounds() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def measure(args, inputs, workdir: Path, tracer) -> dict:
    """Run the workload for ``args.seconds``; untraced, or alternating with traced."""
    import workloads
    fn = workloads.WORKLOADS[args.workload]
    outdir = workdir / "run"
    untraced, traced, outcomes, span_sets = [], [], [], []

    def one(trace: bool) -> None:
        if trace:
            tracer.install()
        try:
            t = time.perf_counter()
            outcomes.append(fn(inputs, outdir))
            (traced if trace else untraced).append(time.perf_counter() - t)
        finally:
            if trace:
                tracer.uninstall()
                span_sets.append(tracer.reset())

    start = time.perf_counter()
    while True:
        one(False)
        if tracer is not None:
            one(True)
        # stop before the next iteration would run past the time given
        per_iter = statistics.median(untraced) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + per_iter > args.seconds:
            break
    return {"untraced": untraced, "traced": traced, "outcomes": outcomes,
            "spans": span_sets}


def attack_quality(inputs, outcome) -> tuple[float, list[dict]]:
    """Attacker value over HiGHS's optimum, on every hour the attacks spend on."""
    import reference
    import workloads
    rows = []
    for a, h in workloads.spending_hours(outcome):
        t = time.perf_counter()
        ref = reference.hourly_optimum(inputs.net, a.profile, h.season, h.hour,
                                       a.costs, h.spend)
        rows.append({"attack": a.label, "hour": h.hour, "spend": h.spend,
                     "value": h.objective, "highs": ref,
                     "highs_s": time.perf_counter() - t})
    highs = sum(r["highs"] for r in rows)
    ratio = sum(r["value"] for r in rows) / highs if highs > 0 else 1.0
    return ratio, rows


def run(args, workdir: Path) -> int:
    import tracing
    import workloads
    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    inputs = workloads.make_inputs(workdir / "inputs", args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup_spans = []
    if tracer is not None:
        tracer.install()
        try:
            workloads.make_inputs(workdir / "traced-inputs", args.seed)
        finally:
            tracer.uninstall()
        setup_spans = tracer.reset()

    try:
        m = measure(args, inputs, workdir, tracer)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase("inputs_and_measure")

    first = m["outcomes"][0]
    try:
        attempted, failures = workloads.check_attacks(inputs, first)
    except Exception:
        traceback.print_exc()
        attempted, failures = 1, ["output checks raised"]

    def check(name: str, ok: bool) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(name)

    prints = {o.fingerprint() for o in m["outcomes"]}
    check(f"all {len(m['outcomes'])} samples give one result", len(prints) == 1)
    phase("checks")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "bounds": bounds()}
    if tracer is None:
        setup = setup_probe_times(args.seed, workdir)
        phase("setup_probes")
        wall = m["untraced"]
        tail = tail_percentile(wall)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "peak_rss_mb": peak_rss_mb,
            "attack_value": first.attack_value,
            "unserved_mwh": first.unserved_mwh,
        }
        units = END_TO_END_UNITS
        record.update(setup_samples=setup, wall_samples=wall,
                      wall_tail=None if tail is None else {"percentile": tail[0],
                                                           "value": tail[1]})
        print(f"wall_s: median of {len(wall)} samples {[round(w, 4) for w in wall]}; "
              + ("no percentile has ten samples beyond it" if tail is None
                 else f"p{tail[0]} = {tail[1]:.4f} s"))
    else:
        per_iter = [tracing.layer_metrics(s) for s in m["spans"]]
        check("traced samples give the same counts",
              all(len({it[k] for it in per_iter}) == 1 for k in tracing.COUNT_METRICS))
        metrics = {k: statistics.median(it[k] for it in per_iter) for k in per_iter[0]}
        load = [s for s in setup_spans
                if s.name in ("network.load_network", "network.load_demand")]
        metrics["network.load.s"] = sum(s.end - s.start for s in load)
        plain = statistics.median(m["untraced"])
        over = statistics.median(m["traced"]) - plain
        metrics["trace.overhead_s"] = over
        metrics["trace.overhead_frac"] = over / plain
        try:
            ratio, record["highs"] = attack_quality(inputs, first)
        except Exception:
            traceback.print_exc()
            ratio = float("nan")
        check("HiGHS proves every reference optimum", ratio == ratio)
        phase("highs")
        metrics["attack.gap"] = 1.0 - ratio
        metrics["checks.fail_frac"] = len(failures) / attempted
        units = {k: tracing.unit(k) for k in metrics}
        record.update(untraced_samples=m["untraced"], traced_samples=m["traced"])
        spans_path = HERE / "results" / (
            f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        spans_path.parent.mkdir(exist_ok=True)
        tracing.write_spans(str(spans_path), [setup_spans] + m["spans"])
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    for name in failures:
        print(f"FAILED CHECK: {name}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record.update(result=result, failures=failures, phases_s=phases)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="scenario_compound")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.setup_probe:
        print(repr(timed_setup(Path(args.setup_probe), args.seed)))
        return 0
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
