"""Independent checks of every CLI output the benchmark produces.

The oracle rebuilds the 8x8 Stark-Zeeman matrix from the model definition
with its own constants and measures levels with LAPACK ``eigvalsh``. It
imports nothing from ``ohcross``, so no refactor of the package can move
the reference. Each check counts output rows: a row passes, fails the
oracle, or is missing. Counts are never filtered.
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np

# Model constants (CODATA 2018 and the OH ground-state defaults).
PLANCK = 6.62607015e-34
BOHR_MAGNETON = 9.2740100783e-24
DEBYE = 1e-21 / 299792458.0
DELTA_GHZ = 1.667
MU_E_DEBYE = 1.66
GHZ_PER_PERCM = 29.9792458

# Matrix entries are GHz / 10: Zeeman (b/10) m, doublet -/+ delta/10,
# electric coupling -(e/10) A(theta).
ZEEMAN_PER_TESLA = 4.0 * BOHR_MAGNETON / PLANCK / 1e9 / 10.0
STARK_PER_VCM = 2.0 * MU_E_DEBYE * DEBYE * 100.0 / PLANCK / 1e9 / 10.0
HALF_SPLITTING = 5.0 * DELTA_GHZ / 10.0
M_PATTERN = np.array([-3.0, -1.0, 1.0, 3.0])

# Acceptance criterion 2: levels agree to 1e-9 of the largest |level|.
SPECTRAL_REL_TOL = 1e-9
# A gap row agrees with eigvalsh to this share of the gap, or to the
# program's 1e-12 measurement floor (below it a gap prints as 0) plus
# eigensolver noise, whichever is larger.
GAP_REL_TOL = 1e-6
GAP_ABS_TOL = 1.01e-12
# SVG coordinates are printed to 0.01 px.
PLOT_PIXEL_TOL = 0.02
# A pair gap (matrix units) below this classifies a crossing as real.
GAP_THRESHOLD = 1e-7
# Acceptance criterion 10: a crossing sits within 1e-4 T of the gap minimum.
MIN_OFFSET_TESLA = 1e-4
LOCAL_STEP_TESLA = 2e-5
LOCAL_HALF_POINTS = 25
# A refined gap minimum is located to this width (tesla).
REFINE_TOL_TESLA = 1e-12
# Scan for real crossings the catalog must list. The largest location seen
# for E <= 5 kV/cm is about 0.31 T.
SCAN_MAX_TESLA = 0.45
SCAN_STEP_TESLA = 5e-4
# A gap can change by at most the spread of Zeeman slopes per tesla, so a
# grid minimum above this cannot hide a real crossing between grid points.
MAX_GAP_SLOPE = 6.0 * ZEEMAN_PER_TESLA
FIT_REL_TOL = 1e-9
# Mirror-image pairs share one gap; the catalog names the upper one.
ADJACENT_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 5))

def hamiltonians(b_tesla, e_vcm, theta) -> np.ndarray:
    """Stack of 8x8 matrices; B, E and theta broadcast against each other."""
    b, e, t = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                    for v in (b_tesla, e_vcm, theta)))
    c, s, r3 = np.cos(t), np.sin(t), math.sqrt(3.0)
    angular = np.zeros(b.shape + (4, 4))
    angular[:, [0, 1, 2, 3], [0, 1, 2, 3]] = np.stack([-3 * c, -c, c, 3 * c], axis=-1)
    for i, weight in ((0, r3), (1, 2.0), (2, r3)):
        angular[:, i, i + 1] = angular[:, i + 1, i] = weight * s
    h = np.zeros(b.shape + (8, 8))
    zeeman = ZEEMAN_PER_TESLA * b[:, None] * M_PATTERN[None, :]
    idx = np.arange(4)
    h[:, idx, idx] = zeeman - HALF_SPLITTING
    h[:, idx + 4, idx + 4] = zeeman + HALF_SPLITTING
    coupling = -STARK_PER_VCM * e[:, None, None] * angular
    h[:, :4, 4:] = coupling
    h[:, 4:, :4] = coupling
    return h


def levels(b_tesla, e_vcm, theta) -> np.ndarray:
    """Levels in matrix units, descending, shape (n, 8)."""
    return np.linalg.eigvalsh(hamiltonians(b_tesla, e_vcm, theta))[:, ::-1]


def pair_gaps(b_tesla, e_vcm: float, theta: float, pair) -> np.ndarray:
    lv = levels(b_tesla, e_vcm, theta)
    return lv[:, pair[0] - 1] - lv[:, pair[1] - 1]


def canonical_pair(pair) -> tuple:
    i, j = pair
    return min((i, j), (9 - j, 9 - i))


def refine_minimum(e_vcm: float, theta: float, pair, lo: float, hi: float) -> float:
    """Field of the gap minimum in [lo, hi]: stacked 33-point grids, each
    narrowing the bracket to the two intervals around its smallest value."""
    while hi - lo > REFINE_TOL_TESLA:
        grid = np.linspace(lo, hi, 33)
        k = int(np.argmin(pair_gaps(grid, e_vcm, theta, pair)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 32)]
    return (lo + hi) / 2.0


def sits_at_gap_minimum(b_loc: float, e_vcm: float, theta: float, pair) -> bool:
    """Criterion 10: the dense-grid gap minimum lies within 1e-4 T of b_loc."""
    offsets = np.arange(-LOCAL_HALF_POINTS, LOCAL_HALF_POINTS + 1) * LOCAL_STEP_TESLA
    gaps = pair_gaps(b_loc + offsets, e_vcm, theta, pair)
    k = int(np.argmin(gaps))
    if b_loc == 0.0:
        # the spectrum is even in B, so B = 0 is always stationary
        return abs(offsets[k]) <= MIN_OFFSET_TESLA
    return 0 < k < offsets.size - 1 and abs(offsets[k]) <= MIN_OFFSET_TESLA


def real_crossings(e_vcm: float, theta: float) -> list:
    """(pair, b_tesla) of every interior gap minimum below GAP_THRESHOLD.

    A gap that reaches zero between grid points is V-shaped there, so its
    grid minimum is at most a quarter of its two neighbours' sum (0.354
    when the V is rounded by a gap at the threshold) and at most the
    largest gap slope times the step. Smooth minima fail one of these and
    are not refined.
    """
    grid = np.arange(0.0, SCAN_MAX_TESLA + SCAN_STEP_TESLA / 2, SCAN_STEP_TESLA)
    lv = levels(grid, e_vcm, theta)
    found = []
    for pair in ADJACENT_PAIRS:
        gaps = lv[:, pair[0] - 1] - lv[:, pair[1] - 1]
        g, left, right = gaps[1:-1], gaps[:-2], gaps[2:]
        candidate = ((g <= left) & (g <= right)
                     & (g <= MAX_GAP_SLOPE * SCAN_STEP_TESLA)
                     & ((g <= 0.4 * (left + right)) | (g < GAP_THRESHOLD)))
        for k in np.flatnonzero(candidate) + 1:
            b_min = refine_minimum(e_vcm, theta, pair, grid[k - 1], grid[k + 1])
            if pair_gaps(b_min, e_vcm, theta, pair)[0] < GAP_THRESHOLD:
                found.append((pair, b_min))
    return found


def critical_field_vcm(theta: float) -> float:
    """E (V/cm) at which the first crossing changes character,
    delta / sqrt(1 - 2 cos 2 theta); infinite where it never does."""
    denom = 1.0 - 2.0 * math.cos(2.0 * theta)
    return HALF_SPLITTING / STARK_PER_VCM / math.sqrt(denom) if denom > 0.0 else math.inf


def _near_critical_field(error: float, inputs: dict) -> bool:
    ratio = inputs["e_vcm"] / critical_field_vcm(math.radians(inputs["theta_deg"]))
    return abs(ratio - 1.0) <= 1e-3 and error <= 1e-3


# Per audit section that failed at the baseline, its worst max_rel in
# 4,680 seeded audits (1.2e-3 and 8.3e-2), rounded up.
AUDIT_BASELINE_BREACH = {"triple-agreement": 2e-3, "determinant-identity": 0.1}


def _audit_breach(error: float, inputs: dict) -> bool:
    failed = inputs.get("failed_sections") or {}
    return bool(failed) and all(rel <= AUDIT_BASELINE_BREACH.get(name, 0.0)
                                for name, rel in failed.items())


# Failure kinds present at the commit that introduced the benchmark: the
# cause found then, and the condition (on the error and the inputs) that
# identifies it. A failure outside its kind's condition, or of another
# kind, is counted under the kind with NEW appended.
KNOWN_CAUSES = {
    "spectrum row at B = 0": (
        "at B = 0 with E > 0 the closed form splits the Stark-degenerate "
        "level pairs (errors up to 87% of max |level| seen)",
        lambda error, inputs: inputs["e_vcm"] > 0.0 and error <= 1.0),
    "spectrum-sweep request exited 2": (
        "weak fields (E below 400 V/cm, most below 250) leave a non-real "
        "lambda^2 root near B = 0 (HermiticityViolationError)",
        lambda error, inputs: inputs["e_vcm"] < 400.0),
    "catalog misses a real crossing": (
        "at theta = 0 or 180 deg the catalog drops real crossings of both "
        "factors that the scan finds",
        lambda error, inputs: inputs["theta_deg"] in (0.0, 180.0)),
    "audit request exited 2": (
        "about one audit seed in 600 breaches the triple-agreement or the "
        "determinant-identity tolerance; the samples were not isolated",
        _audit_breach),
    "b1 row": (
        "within 0.1% of the critical field b1_exact_tilde loses precision "
        "(up to 2.2e-4 relative seen; a 40-digit pencil solve agrees with "
        "the oracle to 1e-15)",
        _near_critical_field),
}
NEW = " (new)"


def describe(inputs: dict) -> str:
    return " ".join(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
                    for key, value in inputs.items())


class Tally:
    """Rows requested and rows failed, with the failures grouped by kind.

    For each kind it keeps the count and the worst error with its inputs,
    so a report can name the cause of a failure, not just its rate.
    """

    def __init__(self) -> None:
        self.rows = 0
        self.failed = 0
        self.kinds = Counter()
        self.worst = {}

    def row(self, ok: bool, kind: str = "", error: float = 0.0, inputs=None) -> None:
        self.rows += 1
        if ok:
            return
        self.failed += 1
        inputs = inputs or {}
        known = KNOWN_CAUSES.get(kind)
        if known is None or not known[1](error, inputs):
            kind += NEW
        self.kinds[kind] += 1
        if kind not in self.worst or error > self.worst[kind][0]:
            self.worst[kind] = (error, inputs)

    def missing(self, count: int, kind: str, inputs=None) -> None:
        for _ in range(count):
            self.row(False, kind, math.inf, inputs)

    def merge(self, other: "Tally") -> None:
        self.rows += other.rows
        self.failed += other.failed
        self.kinds.update(other.kinds)
        for kind, (err, inputs) in other.worst.items():
            if kind not in self.worst or err > self.worst[kind][0]:
                self.worst[kind] = (err, inputs)


def read_csv(path):
    """(provenance dict, header list, rows of cells) of a CLI data file."""
    prov, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    prov[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    return prov, header, rows


def _molecule_matches(prov: dict) -> bool:
    return (float(prov.get("delta_ghz", "nan")) == DELTA_GHZ
            and float(prov.get("mu_e_debye", "nan")) == MU_E_DEBYE)


def check_spectrum(path, e_vcm, theta_deg, b_max, points, tally: Tally) -> list:
    """Each row against eigvalsh at its B; returns the parsed rows."""
    theta = math.radians(theta_deg)
    inputs = {"e_vcm": e_vcm, "theta_deg": theta_deg}
    prov, header, cells = read_csv(path)
    if len(header) != 9 or not _molecule_matches(prov):
        tally.missing(points, "spectrum file malformed", inputs)
        return []
    rows = np.array([[float(c) for c in row] for row in cells[:points]])
    expected_b = np.linspace(0.0, b_max, points)
    ref = levels(rows[:, 0], e_vcm, theta) / GHZ_PER_PERCM if len(rows) else rows
    for k, row in enumerate(rows):
        scale = float(np.max(np.abs(ref[k])))
        err = float(np.max(np.abs(row[1:] - ref[k]))) / scale
        b_ok = abs(row[0] - expected_b[k]) <= 1e-11 * max(b_max, 1.0)
        kind = "spectrum row at B = 0" if row[0] == 0.0 else "spectrum row at B > 0"
        tally.row(b_ok and err <= SPECTRAL_REL_TOL, kind, err,
                  dict(inputs, b_tesla=float(row[0])))
    tally.missing(points - len(rows), "spectrum row missing", inputs)
    return rows


def _affine_residual(data, pixels) -> tuple:
    """(slope, largest residual in px) of the least-squares line pixels ~ data."""
    slope, intercept = np.polyfit(data, pixels, 1)
    return slope, float(np.max(np.abs(pixels - (slope * data + intercept))))


def check_plot(path, rows, tally: Tally) -> None:
    """One row: polyline k draws level k of every spectrum row, with x
    affine in B and y affine in the level, one map shared by all levels
    (SVG y grows downward)."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError):
        tally.row(False, "plot unreadable")
        return
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    ok = len(rows) > 1 and len(lines) == 8
    if ok:
        try:
            points = np.array([[[float(v) for v in pt.split(",")]
                                for pt in el.get("points", "").split()] for el in lines])
        except ValueError:
            points = np.empty(0)
        ok = points.shape == (8, len(rows), 2)
    if ok:
        x_slope, x_res = _affine_residual(np.tile(rows[:, 0], 8), points[..., 0].ravel())
        y_slope, y_res = _affine_residual(rows[:, 1:].T.ravel(), points[..., 1].ravel())
        ok = x_slope > 0 and y_slope < 0 and max(x_res, y_res) <= PLOT_PIXEL_TOL
    tally.row(ok, "plot does not match spectrum")


def check_catalog(path, e_vcm, theta_deg, tally: Tally) -> None:
    """Records sit at gap minima with the printed gap; no real crossing is missing."""
    theta = math.radians(theta_deg)
    inputs = {"e_vcm": e_vcm, "theta_deg": theta_deg}
    prov, header, cells = read_csv(path)
    if header != ["b_tesla", "kind", "pair", "gap_percm", "source"] \
            or not _molecule_matches(prov):
        tally.missing(1, "catalog file malformed", inputs)
        return
    listed = []
    for b_txt, kind, pair_txt, gap_txt, _source in cells:
        b_loc = float(b_txt)
        pair = tuple(int(v) for v in pair_txt.split("-"))
        gap = float(gap_txt) * GHZ_PER_PERCM
        lv = levels(b_loc, e_vcm, theta)[0]
        measured = float(lv[pair[0] - 1] - lv[pair[1] - 1])
        tol = SPECTRAL_REL_TOL * float(np.max(np.abs(lv)))
        if kind == "real":
            ok = gap == 0.0 and measured < GAP_THRESHOLD
        else:
            ok = kind == "avoided" and measured >= GAP_THRESHOLD \
                and abs(measured - gap) <= tol
        ok = ok and sits_at_gap_minimum(b_loc, e_vcm, theta, pair)
        tally.row(ok, f"catalog {kind} record", abs(measured - gap),
                  dict(inputs, pair=pair_txt, b_tesla=b_loc))
        listed.append((canonical_pair(pair), b_loc))
    for pair, b_min in real_crossings(e_vcm, theta):
        if not any(p == canonical_pair(pair) and abs(b - b_min) <= MIN_OFFSET_TESLA
                   for p, b in listed):
            tally.missing(1, "catalog misses a real crossing",
                          dict(inputs, pair=f"{pair[0]}-{pair[1]}", b_tesla=b_min))


def first_crossing_tesla(e_vcm, theta) -> np.ndarray:
    """Location of the first crossing of levels 4 and 5, by its own route.

    det H(B) = 0 at the complex fields B that are eigenvalues of the pencil
    -Z^-1 H(0), Z the Zeeman diagonal per tesla. det H >= 0 on the real
    axis, so roots come in pairs: a conjugate pair sharing its real part, or
    a double real root that rounding may split symmetrically. The first
    crossing is the mean real part of the pair nearest B = 0. E and theta
    broadcast; one location per configuration.
    """
    zeeman = ZEEMAN_PER_TESLA * np.concatenate([M_PATTERN, M_PATTERN])
    roots = np.linalg.eigvals(-hamiltonians(0.0, e_vcm, theta) / zeeman[:, None])
    real = np.sort(np.where(roots.real > 0.0, roots.real, np.inf), axis=-1)
    return (real[:, 0] + real[:, 1]) / 2.0


def b1_approx_tesla(e_vcm, theta):
    """Small-field expansion delta/3 + 3 (3 + cos 2 theta) e^2 / (8 delta)."""
    e, d = 10.0 * STARK_PER_VCM * e_vcm, 10.0 * HALF_SPLITTING
    approx = d / 3.0 + 3.0 * (3.0 + np.cos(2.0 * theta)) * e * e / (8.0 * d)
    return approx / (10.0 * ZEEMAN_PER_TESLA)


def _sweep_points(params) -> tuple:
    """(e_vcm, theta_rad) arrays of every row a b1 or gap sweep asks for."""
    n = params["points"]
    if params["vs"] == "e":
        return (np.linspace(params["e_min"], params["e_max"], n),
                np.full(n, math.radians(params["theta_deg"])))
    return (np.full(n, params["e_vcm"]),
            np.linspace(math.radians(params["theta_min_deg"]),
                        math.radians(params["theta_max_deg"]), n))


def check_sweep(path, params, tally: Tally) -> None:
    """b1 rows match the pencil route; gap rows match eigvalsh there."""
    e_vcm, theta = _sweep_points(params)
    requested = len(e_vcm)
    prov, header, cells = read_csv(path)
    cmd = params["command"]
    if not _molecule_matches(prov) or len(header) != (3 if cmd == "b1" else 2):
        tally.missing(requested, f"{cmd} file malformed")
        return
    n = min(len(cells), requested)
    values = np.array([[float(c) for c in row] for row in cells[:n]]).reshape(n, -1)
    e_vcm, theta = e_vcm[:n], theta[:n]
    x = e_vcm if params["vs"] == "e" else theta
    x_ok = np.abs(values[:, 0] - x) <= 1e-11 * np.maximum(np.abs(x), 1.0)
    b1 = first_crossing_tesla(e_vcm, theta)
    if cmd == "b1":
        approx = b1_approx_tesla(e_vcm, theta)
        err = np.maximum(np.abs(values[:, 1] - b1) / b1,
                         np.abs(values[:, 2] - approx) / approx)
        ok = err <= SPECTRAL_REL_TOL
    else:
        # At a gap minimum the gap is first-order insensitive to the field,
        # so it is checked against its own size, not the spectrum's scale.
        lv = levels(b1, e_vcm, theta)
        gap = lv[:, 3] - lv[:, 4]
        diff = np.abs(values[:, 1] * GHZ_PER_PERCM - gap)
        ok = diff <= GAP_REL_TOL * gap + GAP_ABS_TOL
        err = diff / np.maximum(gap, GAP_ABS_TOL)
    for k in range(n):
        inputs = {"e_vcm": float(e_vcm[k]), "theta_deg": math.degrees(theta[k])}
        tally.row(bool(x_ok[k] and ok[k]), f"{cmd} row", float(err[k]), inputs)
    tally.missing(requested - n, f"{cmd} row missing")


def check_fit(fit_path, data_path, tally: Tally) -> None:
    """One row: the fit equals a log-log least-squares fit of the same CSV."""
    _, _, cells = read_csv(data_path)
    xs = np.array([float(r[0]) for r in cells])
    ys = np.array([float(r[1]) for r in cells])
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    coefficient = math.exp(intercept)
    rms = float(np.sqrt(np.mean(((ys - coefficient * xs ** slope) / ys) ** 2)))
    with open(fit_path, encoding="utf-8") as fh:
        got = dict(line.split(": ", 1) for line in fh.read().splitlines())
    expect = {"coefficient": coefficient, "exponent": slope, "rms_residual": rms,
              "window_min": xs.min(), "window_max": xs.max()}
    err = max(abs(float(got[k]) - v) / max(abs(v), 1e-300) for k, v in expect.items())
    ok = got.get("model") == "power-in-E" and int(got["points_used"]) == xs.size
    tally.row(ok and err <= FIT_REL_TOL, "fit row", err)


AUDIT_SECTIONS = ("triple-agreement", "determinant-identity",
                  "zero-field-form", "special-angle-form")


def check_audit(path, tally: Tally) -> None:
    """Four section rows and the verdict row, each must read PASS."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for name in AUDIT_SECTIONS:
        ok = any(line.startswith(f"[PASS] {name}:") for line in lines)
        tally.row(ok, f"audit section {name}")
    tally.row("audit: PASS" in lines, "audit verdict")


def _expected_rows(workload: str, params) -> int:
    if workload == "spectrum-sweep":
        return params["points"] + 1
    if workload == "first-crossing":
        return params["points"] + ("fit" in params)
    if workload == "audit":
        return len(AUDIT_SECTIONS) + 1
    return 1


def _inputs(params) -> dict:
    return {key: value for key, value in params.items() if isinstance(value, float)}


def _failed_sections(path) -> dict:
    """{section: max_rel} of every FAIL section of an audit report."""
    failed = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("[FAIL] ") and " max_rel=" in line:
                    name = line[len("[FAIL] "):].split(":", 1)[0]
                    failed[name] = float(line.split(" max_rel=", 1)[1].split()[0])
    except (OSError, ValueError):
        pass
    return failed


def check_request(workload: str, params, workdir: str, codes, tally: Tally) -> bool:
    """Check one request's output files into `tally`.

    A request that exits non-zero, or whose files are missing or cannot be
    parsed, loses every row it asked for. Returns False in that case.
    """
    def path(key):
        return os.path.join(workdir, params[key])

    if not codes or any(codes):
        inputs = _inputs(params)
        if workload == "audit":
            inputs["failed_sections"] = _failed_sections(path("out"))
        tally.missing(_expected_rows(workload, params),
                      f"{workload} request exited {max(codes, default=-1)}", inputs)
        return False
    local = Tally()
    try:
        if workload == "spectrum-sweep":
            rows = check_spectrum(path("csv"), params["e_vcm"], params["theta_deg"],
                                  params["b_max"], params["points"], local)
            check_plot(path("svg"), rows, local)
        elif workload == "crossing-catalog":
            check_catalog(path("csv"), params["e_vcm"], params["theta_deg"], local)
        elif workload == "first-crossing":
            check_sweep(path("csv"), params, local)
            if "fit" in params:
                check_fit(path("fit"), path("csv"), local)
        else:
            check_audit(path("out"), local)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.missing(_expected_rows(workload, params),
                      f"{workload} output unreadable ({type(exc).__name__})",
                      _inputs(params))
        return False
    tally.merge(local)
    return True
