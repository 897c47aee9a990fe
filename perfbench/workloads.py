"""The four benchmark workloads as seeded CLI requests.

Request ``k`` of a workload is drawn from its own generator seeded by
(workload, seed, k), so the worker that times it and the parent that
checks it rebuild the same argv without sharing state. Every request is
a short list of ``ohcross`` CLI calls whose files live in the worker's
working directory, named after the request.
"""

from __future__ import annotations

import random

E_MAX_VCM = 5000.0
SPECIAL_ANGLES_DEG = (0.0, 90.0, 180.0)
SPECTRUM_B_MAX = 0.3
SPECTRUM_POINTS = 201
E_SWEEP_POINTS = 51
THETA_SWEEP_POINTS = 25
E_SWEEP_MIN = 10.0
AUDIT_SAMPLES = 20
# Keys of a request's params that name the files it writes.
OUTPUT_KEYS = ("csv", "svg", "fit", "out")


def _num(value: float) -> str:
    """Shortest text that parses back to the same float."""
    return repr(float(value))


def _field_angle(rng: random.Random) -> tuple:
    """E uniform in 0-5 kV/cm; theta uniform in 0-180 deg, exactly 0, 90 or
    180 deg in about one request of eight."""
    e = rng.uniform(0.0, E_MAX_VCM)
    if rng.random() < 1.0 / 8.0:
        return e, rng.choice(SPECIAL_ANGLES_DEG)
    return e, rng.uniform(0.0, 180.0)


def spectrum_sweep(rng: random.Random, tag: str):
    e, theta = _field_angle(rng)
    csv, svg = f"{tag}.csv", f"{tag}.svg"
    calls = [["spectrum", "--e-vcm", _num(e), "--theta-deg", _num(theta),
              "--b-max", _num(SPECTRUM_B_MAX), "--points", str(SPECTRUM_POINTS),
              "--out", csv],
             ["plot", "--in", csv, "--out", svg]]
    return calls, {"e_vcm": e, "theta_deg": theta, "b_max": SPECTRUM_B_MAX,
                   "points": SPECTRUM_POINTS, "csv": csv, "svg": svg}


def crossing_catalog(rng: random.Random, tag: str):
    e, theta = _field_angle(rng)
    csv = f"{tag}.csv"
    calls = [["crossings", "--e-vcm", _num(e), "--theta-deg", _num(theta),
              "--out", csv]]
    return calls, {"e_vcm": e, "theta_deg": theta, "csv": csv}


def first_crossing(rng: random.Random, tag: str):
    command = rng.choice(("b1", "gap"))
    csv = f"{tag}.csv"
    params = {"command": command, "csv": csv}
    if rng.random() < 0.5:
        # A gap-vs-E sweep is fitted in log-log space, so its gaps must stay
        # above the 1e-12 GHz measurement floor at E = 10 V/cm; within 2 deg
        # of the parallel geometries they do not.
        lo, hi = (10.0, 170.0) if command == "gap" else (0.0, 180.0)
        params.update(vs="e", e_min=E_SWEEP_MIN, e_max=rng.uniform(100.0, E_MAX_VCM),
                      theta_deg=rng.uniform(lo, hi), points=E_SWEEP_POINTS)
        args = ["--vs", "e", "--e-min", _num(E_SWEEP_MIN),
                "--e-max", _num(params["e_max"]),
                "--theta-deg", _num(params["theta_deg"])]
    else:
        lo, hi = sorted(rng.uniform(0.0, 180.0) for _ in range(2))
        params.update(vs="theta", theta_min_deg=lo, theta_max_deg=hi,
                      e_vcm=rng.uniform(E_SWEEP_MIN, E_MAX_VCM),
                      points=THETA_SWEEP_POINTS)
        args = ["--vs", "theta", "--theta-min-deg", _num(lo),
                "--theta-max-deg", _num(hi), "--e-vcm", _num(params["e_vcm"])]
    calls = [[command] + args + ["--points", str(params["points"]), "--out", csv]]
    if command == "gap" and params["vs"] == "e":
        params["fit"] = f"{tag}.fit"
        calls.append(["fit", "--in", csv, "--model", "power-in-E",
                      "--out", params["fit"]])
    return calls, params


def audit(rng: random.Random, tag: str):
    out = f"{tag}.txt"
    calls = [["audit", "--samples", str(AUDIT_SAMPLES),
              "--seed", str(rng.randrange(2 ** 31)), "--out", out]]
    return calls, {"out": out}


GENERATORS = {
    "spectrum-sweep": spectrum_sweep,
    "crossing-catalog": crossing_catalog,
    "first-crossing": first_crossing,
    "audit": audit,
}


def make_request(workload: str, seed: int, index: int):
    """(calls, params) of request `index`: a list of CLI argv lists."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return GENERATORS[workload](rng, f"r{index}")
