"""ohcross benchmark: four CLI workloads, oracle-checked, with a traced mode.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in a fresh worker process with one closed-loop client
and BLAS pinned to one thread. After the worker exits, every output is
checked against the independent oracle in ``oracle.py``, outside the
timed region.

A run draws a fixed pool of requests from the seed, runs all of it, and
repeats it from the start until ``--seconds`` have passed. The oracle
checks each pool entry once; a repeat must reproduce its entry's exit
codes, output and file bytes. So ``attempted`` and ``failed``, which
count output rows of the pool, depend on the seed alone.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same requests
twice in two fresh workers, untraced then traced, checks that their
output bytes match, and prints per-layer calls and self time per request.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is run
metadata. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import GENERATORS, make_request  # noqa: E402

WORKLOADS = tuple(GENERATORS)
SETUP_PROBES = 7
# Requests drawn per run: about three quarters of what a 25-second run
# holds on a slow period of the 2-CPU host the benchmark was written on,
# so the pool is run in full even when the host slows further.
POOL = {"spectrum-sweep": 140, "crossing-catalog": 440,
        "first-crossing": 1300, "audit": 200}
# The traced run's pool, run by each of its two half-length workers; the
# per-layer metrics are means over it, so call counts repeat exactly per seed.
TRACE_REQUESTS = {"spectrum-sweep": 40, "crossing-catalog": 120,
                  "first-crossing": 400, "audit": 40}
# The tail is read at one fixed percentile, so it stays the same statistic
# when host speed or a change alters how many requests fit in a run; it
# needs this many requests beyond it.
TAIL_PERCENT = 90
TAIL_BEYOND = 10
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150
# Times are scaled to the host speed at which the worker's probe takes this
# long; it took 0.9-1.7 ms on the machine the benchmark was written on.
PROBE_REFERENCE_S = 1e-3
UNITS = {"setup_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
         "req_per_s": "1/s", "failed_frac": "ratio", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def tail_latency(latencies) -> tuple:
    """(value, percentile): p90 by nearest rank, which has at least ten
    requests beyond it from 100 requests on. With fewer, the latency with
    exactly ten beyond (the maximum with ten or fewer requests)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = (TAIL_PERCENT * n + 99) // 100
    if n - rank >= TAIL_BEYOND:
        return ordered[rank - 1], float(TAIL_PERCENT)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _worker(root: Path, args: list, timeout: float) -> str:
    env = dict(os.environ, **BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def measure_setup(root: Path) -> list:
    """Scaled import-plus-parser time of SETUP_PROBES fresh processes, after
    one untimed import that leaves the bytecode cache warm."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        out = json.loads(_worker(root, ["--setup-only"], 60))
        if probe:
            times.append(out["setup_s"] * PROBE_REFERENCE_S / out["probe_s"])
    return times


def host_scales(probes, requests: int) -> list:
    """Per request, PROBE_REFERENCE_S over the median of the three probes
    before it and the three after it. probes[i] ran just before request i
    and probes[-1] after the last, so a host that slows down lengthens
    requests and probes alike."""
    return [PROBE_REFERENCE_S / statistics.median(probes[max(0, i - 2):i + 4])
            for i in range(requests)]


def scaled_latencies(phase: dict) -> list:
    raw = [r[0] for r in phase["requests"]]
    return [t * f for t, f in zip(raw, host_scales(phase["probes"], len(raw)))]


def run_phase(root: Path, base: Path, phase: str, workload: str, seed: int,
              seconds: float, pool: int, trace: bool) -> dict:
    workdir = base / phase
    workdir.mkdir(parents=True)
    result = base / f"{phase}.json"
    _worker(root, ["--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds), "--pool", str(pool),
                   "--trace", str(int(trace)), "--workdir", str(workdir),
                   "--result", str(result)], WORKER_TIMEOUT_S)
    with open(result, encoding="utf-8") as fh:
        data = json.load(fh)
    data["workdir"] = workdir
    data["pool"] = pool
    return data


def check_phase(workload: str, seed: int, phase: dict):
    """Oracle over each pool entry once; returns (tally, passed-row share per
    request run, a repeat sharing its entry's share)."""
    tally = oracle.Tally()
    pool = phase["pool"]
    shares = []
    for index in range(pool):
        codes = phase["requests"][index][1]
        _, params = make_request(workload, seed, index)
        rows, failed = tally.rows, tally.failed
        oracle.check_request(workload, params, str(phase["workdir"]), codes, tally)
        shares.append(1.0 - (tally.failed - failed) / max(tally.rows - rows, 1))
    return tally, [shares[i % pool] for i in range(len(phase["requests"]))]


def changed_repeats(phase: dict) -> list:
    """Indices of repeats whose exit codes, stdout, stderr or file digests
    differ from the first run of their pool entry."""
    records, pool = phase["requests"], phase["pool"]
    return [i for i in range(pool, len(records)) if records[i][1:] != records[i % pool][1:]]


def identical_outputs(plain: dict, traced: dict) -> list:
    """Indices of requests whose exit codes, stdout, stderr or file digests
    differ between two phases."""
    common = min(len(plain["requests"]), len(traced["requests"]))
    return [i for i in range(common)
            if plain["requests"][i][1:] != traced["requests"][i][1:]]


def end_to_end(phase: dict, shares: list, tally, setup: list) -> dict:
    raw = [r[0] for r in phase["requests"]]
    latencies = scaled_latencies(phase)
    tail, pct = tail_latency(latencies)
    return {
        "setup_s": statistics.median(setup),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_tail_ms": 1e3 * tail,
        "req_tail_pct": pct,
        "req_per_s": sum(shares) / sum(latencies),
        "failed_frac": tally.failed / max(tally.rows, 1),
        "peak_rss_mb": phase["peak_rss_mb"],
        "unscaled_p50_ms": 1e3 * statistics.median(raw),
        "probe_ms": 1e3 * statistics.median(phase["probes"]),
    }


def src_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = root / ".bench_out" / workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    report = {"workload": workload, "correct": True, "problems": []}
    if not trace:
        setup = measure_setup(root)
        phase = run_phase(root, base, "run", workload, seed, seconds, POOL[workload], False)
        tally, shares = check_phase(workload, seed, phase)
        report["metrics"] = end_to_end(phase, shares, tally, setup)
        phases = [phase]
    else:
        pool = TRACE_REQUESTS[workload]
        plain = run_phase(root, base, "plain", workload, seed, seconds / 2, pool, False)
        traced = run_phase(root, base, "traced", workload, seed, seconds / 2, pool, True)
        tally, _ = check_phase(workload, seed, traced)
        differ = identical_outputs(plain, traced)
        if differ:
            report["problems"].append(
                f"{len(differ)} requests differ with tracing on, first {differ[0]}")
        phases = [plain, traced]
        common = min(len(plain["requests"]), len(traced["requests"]))
        plain_s, traced_s = (sum(scaled_latencies(p)[:common]) for p in (plain, traced))
        spans = [tuple(s) for s in traced["spans"]]
        metrics = tracer.layer_metrics(
            spans, host_scales(traced["probes"], TRACE_REQUESTS[workload]))
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        report["metrics"] = metrics
        report["missing_functions"] = traced["missing"]
        phase = traced
    for done in phases:
        changed = changed_repeats(done)
        if changed:
            report["problems"].append(
                f"{len(changed)} repeated requests differ from their first run, "
                f"first {changed[0]}")
    report["correct"] = not report["problems"]
    for sub in base.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    report.update(requests=len(phase["requests"]), pool=phase["pool"], tally=tally,
                  numpy=phase["numpy"])
    return report


def print_report(report: dict, seed: int, trace: bool) -> None:
    tally, metrics = report["tally"], report["metrics"]
    print(f"== {report['workload']}  seed {seed}  {report['requests']} requests "
          f"(pool of {report['pool']}), 1 closed-loop client, BLAS threads 1")
    if trace:
        for name, value in metrics.items():
            if value:
                unit = "ms" if name.endswith("_ms") else ""
                print(f"  {name:<48} {value:12.6g} {unit}")
        print(f"  functions not present: {', '.join(report['missing_functions']) or 'none'}")
    else:
        for name, unit in UNITS.items():
            note = ""
            if name == "req_tail_ms":
                note = f"  (p{metrics['req_tail_pct']:.2f} of {report['requests']} requests)"
            elif name == "failed_frac":
                note = f"  ({tally.failed} of {tally.rows} rows)"
            elif name == "setup_s":
                note = f"  (median of {SETUP_PROBES} fresh imports)"
            print(f"  {name:<12} {metrics[name]:12.6g} {unit}{note}")
        print(f"  host probe {metrics['probe_ms']:.4g} ms (times scaled to "
              f"{1e3 * PROBE_REFERENCE_S:g} ms); unscaled p50 "
              f"{metrics['unscaled_p50_ms']:.6g} ms")
    print(f"  oracle: {tally.rows - tally.failed} of {tally.rows} rows pass")
    for kind, count in tally.kinds.most_common():
        err, inputs = tally.worst[kind]
        print(f"    FAIL {kind}: {count} rows; worst error {err:.3g} at "
              f"{oracle.describe(inputs)}")
        known = oracle.KNOWN_CAUSES.get(kind)
        print("      cause: " + (known[0] if known else
                                 "none known: not present when the benchmark was introduced"))
    for problem in report["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "ohcross" / "cli.py").is_file():
        sys.stderr.write(f"error: no ohcross sources under {root / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for report in reports:
        print_report(report, args.seed, bool(args.trace))
    meta = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": {r["workload"]: r["requests"] for r in reports},
        "pool": {r["workload"]: r["pool"] for r in reports},
        "src_lines": src_lines(root),
    }
    if not args.trace:
        for key in ("req_tail_pct", "probe_ms", "unscaled_p50_ms"):
            meta[key] = {r["workload"]: r["metrics"][key] for r in reports}
    print("meta " + json.dumps(meta, sort_keys=True))
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    prefix = len(reports) > 1
    out_metrics = {
        (f"{r['workload']}.{m['name']}" if prefix else m["name"]):
            {"value": r["metrics"][m["name"]], "unit": m["unit"]}
        for r in reports for m in wanted}
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["tally"].rows for r in reports),
        "failed": sum(r["tally"].failed for r in reports),
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
