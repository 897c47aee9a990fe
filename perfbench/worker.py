"""One fresh benchmark process: import the CLI, then drive it in a closed loop.

One client sends request k+1 only after request k returns. Each request
is a short list of ``ohcross.cli.run(argv)`` calls, made in process.
Request k is entry k mod ``--pool`` of the seeded request pool: the worker
runs the whole pool once, then repeats it from the start, and stops
starting requests once ``--seconds`` have passed and the pool has been
run. It writes latencies, exit codes, output and output-file digests,
peak RSS and (when tracing) spans to ``--result`` as JSON.

Before every request, and once after the last, the worker times a host
probe: a fixed mix of interpreter work and small LAPACK calls that does
not touch ``ohcross``. Its duration follows the speed the host gives this
process at that moment, which on a shared machine swings by up to 2x
within minutes; the parent scales request times by it.

With ``--setup-only`` it measures ``import ohcross.cli`` plus
``build_parser()`` and prints the seconds taken with a probe time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_ROUNDS = 40
SETUP_PROBE_REPEATS = 5


def host_probe() -> float:
    """Seconds taken by the fixed probe work."""
    import numpy as np

    matrix = np.array([[float((7 * i + 3 * j) % 11) for j in range(8)]
                       for i in range(8)])
    matrix = matrix + matrix.T
    start = time.perf_counter()
    acc = 0.0
    for k in range(PROBE_ROUNDS):
        m = matrix + k * 1e-3
        acc += float(np.linalg.eigvalsh(m)[0]) + float((m @ m).trace())
        acc += sum(i * 0.5 for i in range(20))
        acc += len(",".join(format(float(v), ".12g") for v in m[0]))
    return time.perf_counter() - start


def file_digest(path: str):
    """SHA-256 of a file's bytes, or None when it was not written."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pool", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    start = time.perf_counter()
    import ohcross.cli
    ohcross.cli.build_parser()
    setup_s = time.perf_counter() - start
    import numpy
    if args.setup_only:
        probes = sorted(host_probe() for _ in range(SETUP_PROBE_REPEATS))
        print(json.dumps({"setup_s": setup_s, "probe_s": probes[len(probes) // 2]}))
        return 0

    sys.path.insert(0, HERE)
    from workloads import OUTPUT_KEYS, make_request

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    os.chdir(args.workdir)
    cli = ohcross.cli
    records = []
    probes = []
    clock = time.perf_counter
    deadline = clock() + args.seconds
    while len(records) < args.pool or clock() < deadline:
        index = len(records)
        calls, params = make_request(args.workload, args.seed, index % args.pool)
        probes.append(host_probe())
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = []
            for argv in calls:
                codes.append(cli.run(argv))
                if codes[-1] != 0:
                    break
        elapsed = clock() - t0
        digests = {key: file_digest(params[key]) for key in OUTPUT_KEYS if key in params}
        records.append([elapsed, codes, out.getvalue(), err.getvalue(), digests])
    probes.append(host_probe())

    result = {
        "requests": records,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
