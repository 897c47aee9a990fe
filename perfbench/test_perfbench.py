"""Tests of the benchmark's own helpers: percentile rule, self time,
tracer rebinding and the oracle's failure detection."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_tail_is_p90_with_ten_requests_beyond():
    assert run.tail_latency([float(v) for v in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail_latency([float(v) for v in range(1000)]) == (899.0, 90.0)
    assert run.tail_latency([float(v) for v in range(999)]) == (899.0, 90.0)
    assert run.tail_latency([float(v) for v in range(1, 100)]) == (
        89.0, pytest.approx(100 * 89 / 99))
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_scaled_latency_divides_by_the_probes_around_each_request():
    ref = run.PROBE_REFERENCE_S
    # the host halves its speed after the second request
    probes = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    phase = {"requests": [[t, [0], "", ""] for t in (1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0)],
             "probes": probes}
    scaled = run.scaled_latencies(phase)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(1.0)
    assert run.host_scales([ref / 2, ref / 2], 1) == [pytest.approx(2.0)]


def test_pool_is_checked_once_and_repeats_must_reproduce_it(monkeypatch):
    checked = []

    def check(workload, params, workdir, codes, tally):
        checked.append(params["csv"])
        tally.missing(2 if any(codes) else 0, "exit")
        tally.rows += 2

    monkeypatch.setattr(run.oracle, "check_request", check)
    records = [[1.0, [0], "", "", {"csv": "a"}], [1.0, [2], "", "e", {"csv": None}]] * 2
    records.append([1.0, [0], "", "", {"csv": "a"}])
    phase = {"requests": records, "pool": 2, "workdir": "."}
    tally, shares = run.check_phase("crossing-catalog", 1, phase)
    assert checked == ["r0.csv", "r1.csv"]
    assert (tally.rows, tally.failed) == (6, 2)
    assert shares == [1.0, 0.5, 1.0, 0.5, 1.0]
    assert run.changed_repeats(phase) == []
    records[3] = [1.0, [0], "", "", {"csv": "b"}]
    assert run.changed_repeats(phase) == [3]
    other = {"requests": records[:2] + [records[1]], "pool": 2}
    assert run.identical_outputs(phase, other) == [2]


def span(name, start, end, parent, request=0, size=None):
    return (name, start, end, parent, request, size)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.run", 0.0, 10.0, -1),
        span("crossings.crossing_catalog", 1.0, 4.0, 0),
        span("crossings.pair_gap", 2.0, 3.0, 1),
        span("hamiltonian.build_hamiltonian", 5.0, 7.0, 0),
        span("hamiltonian.build_hamiltonian", 6.5, 8.0, 0),  # overlaps its sibling
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.5])


def test_layer_metrics_average_per_request_and_zero_missing():
    spans = [
        span("cli.run", 0.0, 4.0, -1, 0),
        span("crossings.crossing_catalog", 1.0, 3.0, 0, 0, size=2),
        span("crossings.f1_crossings", 1.0, 1.5, 1, 0, size=1),
        span("crossings.f2_crossings", 1.5, 2.0, 1, 0, size=3),
        span("crossings.pair_gap", 2.0, 2.5, 1, 0),
        span("cli.run", 5.0, 6.0, -1, 1),
        span("cli.run", 7.0, 9.0, -1, 2),  # beyond the reported prefix
    ]
    metrics = tracer.layer_metrics(spans, [1.0, 0.5])
    assert metrics["cli.run.calls"] == 1.0
    assert metrics["cli.run.self_ms"] == pytest.approx(1e3 * (2.0 + 0.5 * 1.0) / 2)
    assert metrics["crossings.crossing_catalog.self_ms"] == pytest.approx(1e3 * 0.5 / 2)
    assert metrics["algebra.det_gauss.calls"] == 0.0
    assert metrics["crossings.kept_ratio"] == pytest.approx(2 / 4)
    assert metrics["crossings.pair_gap_per_record"] == pytest.approx(1 / 2)
    assert len(metrics) == 2 * len(tracer.SPAN_NAMES) + 2


def test_tracer_rebinds_imported_names_and_skips_missing(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "algebra.py").write_text("def det(x):\n    return 2 * x\n")
    (pkg / "spectrum.py").write_text(
        "from .algebra import det\n\ndef charpoly(x):\n    return det(x) + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.spectrum
    try:
        t = tracer.Tracer()
        t.install("fakepkg", {"algebra": ("det", "gone"), "spectrum": ("charpoly",),
                              "absent": ("f",)})
        t.request = 7
        assert fakepkg.spectrum.charpoly(3) == 7
        assert t.missing == ["algebra.gone", "absent.f"]
        assert [(s[0], s[3], s[4]) for s in t.spans] == [
            ("spectrum.charpoly", -1, 7), ("algebra.det", 0, 7)]
    finally:
        for name in [n for n in sys.modules if n.startswith("fakepkg")]:
            del sys.modules[name]


def test_oracle_matrix_matches_package():
    from ohcross import FieldConfiguration, MoleculeParameters, scale_parameters
    from ohcross.hamiltonian import build_hamiltonian
    for b, e, deg in ((0.05, 1000.0, 60.0), (0.2, 4000.0, 0.0), (0.0, 10.0, 135.0)):
        p = scale_parameters(MoleculeParameters(), FieldConfiguration(
            e_field=100.0 * e, b_field=b, theta=math.radians(deg)))
        np.testing.assert_allclose(oracle.hamiltonians(b, e, math.radians(deg))[0],
                                   build_hamiltonian(p), rtol=1e-14, atol=1e-15)


def _cli(*argv):
    from ohcross.cli import run as cli_run
    assert cli_run(list(argv)) == 0


def _rewrite_cell(path, line_index, column, factor):
    lines = path.read_text().splitlines()
    cells = lines[line_index].split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[line_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _data_start(path):
    """Index of the first data line, after comments and the header."""
    lines = path.read_text().splitlines()
    return next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1


def test_oracle_flags_corrupted_spectrum_row(tmp_path):
    path = tmp_path / "s.csv"
    _cli("spectrum", "--e-vcm", "1000", "--theta-deg", "60", "--b-max", "0.3",
         "--points", "21", "--out", str(path))
    clean = oracle.Tally()
    oracle.check_spectrum(path, 1000.0, 60.0, 0.3, 21, clean)
    _rewrite_cell(path, -5, 3, 1 + 1e-6)
    corrupt = oracle.Tally()
    oracle.check_spectrum(path, 1000.0, 60.0, 0.3, 21, corrupt)
    assert corrupt.rows == clean.rows == 21
    assert corrupt.failed == clean.failed + 1
    kind = "spectrum row at B > 0" + oracle.NEW
    assert corrupt.kinds[kind] == clean.kinds[kind] + 1


def test_oracle_flags_low_field_gap_row_off_by_ten_percent(tmp_path):
    path = tmp_path / "g.csv"
    _cli("gap", "--vs", "e", "--e-min", "10", "--e-max", "1000", "--theta-deg", "60",
         "--points", "11", "--out", str(path))
    params = {"command": "gap", "vs": "e", "e_min": 10.0, "e_max": 1000.0,
              "theta_deg": 60.0, "points": 11}
    clean = oracle.Tally()
    oracle.check_sweep(path, params, clean)
    assert clean.rows == 11 and clean.failed == 0
    _rewrite_cell(path, _data_start(path), 1, 1.1)  # the E = 10 V/cm row
    corrupt = oracle.Tally()
    oracle.check_sweep(path, params, corrupt)
    assert corrupt.failed == 1
    assert corrupt.kinds["gap row" + oracle.NEW] == 1


def test_oracle_flags_plot_that_does_not_draw_the_spectrum(tmp_path):
    csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    _cli("spectrum", "--e-vcm", "1000", "--theta-deg", "60", "--b-max", "0.3",
         "--points", "21", "--out", str(csv))
    _cli("plot", "--in", str(csv), "--out", str(svg))
    rows = oracle.check_spectrum(csv, 1000.0, 60.0, 0.3, 21, oracle.Tally())
    clean = oracle.Tally()
    oracle.check_plot(svg, rows, clean)
    assert clean.rows == 1 and clean.failed == 0
    text = svg.read_text()
    start = text.index('points="') + len('points="')
    first = text[start:].split()[0]
    x, y = first.split(",")
    moved = text.replace(first, f"{x},{float(y) + 2.0:.2f}", 1)
    # the third point of the first level placed at the second's x
    points = text[start:text.index('"', start)].split()
    squeezed = text.replace(points[2], f"{points[1].split(',')[0]},{points[2].split(',')[1]}", 1)
    for bad in (moved, squeezed):
        svg.write_text(bad)
        tally = oracle.Tally()
        oracle.check_plot(svg, rows, tally)
        assert tally.failed == 1


def test_oracle_flags_dropped_crossing_record(tmp_path):
    e_vcm, theta_deg = 2000.0, 90.0
    found = oracle.real_crossings(e_vcm, math.radians(theta_deg))
    assert found
    header = (f"# delta_ghz = {oracle.DELTA_GHZ}\n# mu_e_debye = {oracle.MU_E_DEBYE}\n"
              "b_tesla,kind,pair,gap_percm,source\n")
    records = [f"{float(b)!r},real,{i}-{j},0,oracle\n" for (i, j), b in found]
    path = tmp_path / "c.csv"
    path.write_text(header + "".join(records))
    complete = oracle.Tally()
    oracle.check_catalog(path, e_vcm, theta_deg, complete)
    assert complete.failed == 0 and complete.rows == len(found)
    path.write_text(header + "".join(records[1:]))
    dropped = oracle.Tally()
    oracle.check_catalog(path, e_vcm, theta_deg, dropped)
    assert dropped.failed == 1
    assert dropped.kinds["catalog misses a real crossing" + oracle.NEW] == 1


def test_known_cause_needs_its_condition_and_exact_kind():
    tally = oracle.Tally()
    tally.missing(1, "catalog misses a real crossing", {"theta_deg": 0.0})
    tally.missing(1, "catalog misses a real crossing", {"theta_deg": 45.0})
    tally.missing(1, "b1 row missing")
    e_crit = oracle.critical_field_vcm(math.radians(90.0))
    tally.row(False, "b1 row", 1e-6, {"e_vcm": e_crit * (1 + 1e-5), "theta_deg": 90.0})
    tally.row(False, "b1 row", 1e-6, {"e_vcm": e_crit / 2, "theta_deg": 90.0})
    tally.missing(1, "audit request exited 2",
                  {"failed_sections": {"triple-agreement": 1.5e-6}})
    tally.missing(1, "audit request exited 2",
                  {"failed_sections": {"triple-agreement": 1.5e-6, "zero-field-form": 1e-11}})
    new = oracle.NEW
    assert tally.kinds == {
        "catalog misses a real crossing": 1, "catalog misses a real crossing" + new: 1,
        "b1 row missing" + new: 1, "b1 row": 1, "b1 row" + new: 1,
        "audit request exited 2": 1, "audit request exited 2" + new: 1}
