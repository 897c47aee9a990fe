"""End-to-end checks of the command line interface."""

import argparse
import ast
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ohcross import algebra, cli, crossings, discriminant
from ohcross.cli import build_parser, run
from ohcross.hamiltonian import build_hamiltonian
from ohcross.model import (FieldConfiguration, MoleculeParameters,
                           b_field_from_tilde, e_tilde_from_field,
                           scale_parameters)
from ohcross.plotting import PlotError

GHZ_PER_PERCM = 29.9792458

# Stdout of these commands must match the files under tests/data byte for
# byte: the README crossings, b1, gap and hamiltonian commands, the dump at
# negative B, and catalogs at 3 kV/cm over the special angles and one
# generic angle. The b1 and gap sweeps pin the one array pass of the
# first-crossing closed form; the sweeps over E and over all angles (the
# 3 kV/cm b1 sweep crosses the critical field and is symmetric about 90
# degrees) pin the array scaling and the stacked matrices. The `--unit ghz`
# variants pin the unit table, and the spectrum sweep pins the `--config`
# path on tests/data/mol.json (commands run in tests/data). The 201-point
# spectra (at 60 deg, and at 0 deg in GHz, where degenerate levels
# overlap) and their `plot` SVGs, with the SVG of b1_readme.csv, pin the
# block-at-a-time CSV writer, the one-call parser and the array renderer.
# When an output change is intended, rewrite the file with
# `ohcross <command> > tests/data/<name>` and say why in CHANGES.md.
GOLDEN = Path(__file__).parent / "data"
GOLDEN_COMMANDS = {
    "crossings_readme.csv": "crossings --theta-deg 60 --e-vcm 1000",
    "hamiltonian_readme.txt": "hamiltonian --b-tesla 0.1 --e-vcm 1000 --theta-deg 60",
    "hamiltonian_negative_b.txt":
        "hamiltonian --b-tesla -0.1 --e-vcm 1000 --theta-deg 60",
    "crossings_3kvcm_theta0.csv": "crossings --theta-deg 0 --e-vcm 3000",
    "crossings_3kvcm_theta90.csv": "crossings --theta-deg 90 --e-vcm 3000",
    "crossings_3kvcm_theta180.csv": "crossings --theta-deg 180 --e-vcm 3000",
    "crossings_3kvcm_theta130.csv": "crossings --theta-deg 130 --e-vcm 3000",
    "b1_readme.csv": "b1 --vs e --e-min 0 --e-max 500 --points 51 --theta-deg 60",
    "gap_readme.csv":
        "gap --vs theta --theta-min-deg 30 --theta-max-deg 90 --points 25 --e-vcm 1400",
    "crossings_readme_ghz.csv": "crossings --theta-deg 60 --e-vcm 1000 --unit ghz",
    "gap_readme_ghz.csv":
        "gap --vs theta --theta-min-deg 30 --theta-max-deg 90 --points 25 "
        "--e-vcm 1400 --unit ghz",
    "spectrum_config.csv":
        "spectrum --e-vcm 1000 --theta-deg 60 --b-max 0.3 --points 31 "
        "--config mol.json",
    "b1_theta_3kvcm.csv":
        "b1 --vs theta --theta-min-deg 0 --theta-max-deg 180 --points 25 --e-vcm 3000",
    "b1_e_theta90.csv": "b1 --vs e --e-min 10 --e-max 5000 --points 51 --theta-deg 90",
    "gap_theta_2kvcm.csv":
        "gap --vs theta --theta-min-deg 0 --theta-max-deg 180 --points 25 --e-vcm 2000",
    "gap_e_theta75.csv": "gap --vs e --e-min 10 --e-max 4000 --points 51 --theta-deg 75",
    "spectrum_e2500_theta60.csv":
        "spectrum --e-vcm 2500 --theta-deg 60 --b-max 0.3 --points 201",
    "spectrum_e2500_theta60.svg": "plot --in spectrum_e2500_theta60.csv",
    "spectrum_e2500_theta0_ghz.csv":
        "spectrum --e-vcm 2500 --theta-deg 0 --b-max 0.3 --points 201 --unit ghz",
    "spectrum_e2500_theta0_ghz.svg": "plot --in spectrum_e2500_theta0_ghz.csv",
    "b1_readme.svg": "plot --in b1_readme.csv",
}


def parse_csv(text):
    """Split CLI CSV output into (comment lines, header list, float rows)."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def float_rows(rows, skip=()):
    return [[cell if k in skip else float(cell) for k, cell in enumerate(row)]
            for row in rows]


class TestSpectrum:
    def test_levels_and_crossing_visible(self, capsys):
        assert run(["spectrum", "--theta-deg", "60", "--b-max", "0.2",
                    "--points", "2001"]) == 0
        comments, header, raw = parse_csv(capsys.readouterr().out)
        assert comments[0] == "# ohcross spectrum"
        assert header == ["b_tesla"] + [f"lambda_{k}_percm"
                                        for k in range(1, 9)]
        rows = float_rows(raw)
        assert len(rows) == 2001

        first = rows[0]
        assert first[0] == 0.0
        # zero field: a four-fold level on each side of zero
        for v in first[1:5]:
            assert v == pytest.approx(0.0278025673348, rel=1e-9)
        for v in first[5:9]:
            assert v == pytest.approx(-0.0278025673348, rel=1e-9)

        # columns come out mirror antisymmetric at every field
        for row in rows[::100]:
            for k in range(1, 5):
                assert row[k] == pytest.approx(-row[9 - k], abs=1e-12)

        # the lowest-pair gap pinches off near the first crossing; the
        # pair also pinches again near 0.149 T, so scan below 0.1 only
        gaps = [(row[4] - row[5], row[0]) for row in rows if row[0] < 0.1]
        gap_min, b_at_min = min(gaps)
        assert b_at_min == pytest.approx(0.049626405976, abs=1e-4)
        # the grid sits within half a step of the true crossing, so the
        # measured pinch is slope-limited, not zero
        assert gap_min < 1e-4
        assert gaps[0][0] > 0.05

    def test_unit_conversion(self, capsys):
        base = ["spectrum", "--theta-deg", "30", "--e-vcm", "500",
                "--b-max", "0.1", "--points", "3"]
        assert run(base) == 0
        _, h_percm, raw_percm = parse_csv(capsys.readouterr().out)
        assert run(base + ["--unit", "ghz"]) == 0
        _, h_ghz, raw_ghz = parse_csv(capsys.readouterr().out)
        assert h_ghz[1] == "lambda_1_ghz"
        for row_p, row_g in zip(float_rows(raw_percm), float_rows(raw_ghz)):
            for vp, vg in zip(row_p[1:], row_g[1:]):
                assert vg == pytest.approx(vp * GHZ_PER_PERCM, rel=1e-11)

    def test_deterministic_output_file(self, tmp_path):
        args = ["spectrum", "--theta-rad", "0.9", "--e-vcm", "800",
                "--b-max", "0.15", "--points", "41"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_field_row_matches_lapack(self, capsys):
        # At this configuration the B = 0 row used to print
        # lambda_1 = 1.12518 GHz with exit 0; LAPACK gives 2.38558 GHz.
        assert run(["spectrum", "--e-vcm", "4458.01", "--theta-deg", "175.581",
                    "--b-max", "0.3", "--points", "3", "--unit", "ghz"]) == 0
        first = float_rows(parse_csv(capsys.readouterr().out)[2])[0]
        p = scale_parameters(MoleculeParameters(), FieldConfiguration(
            e_field=445801.0, theta=math.radians(175.581)))
        want = sorted(np.linalg.eigvalsh(build_hamiltonian(p)), reverse=True)
        assert first[0] == 0.0
        assert first[1] == pytest.approx(2.38558, abs=1e-5)
        for got, expect in zip(first[1:], want):
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("e_vcm, theta_deg, args", [
        (0.0, 60.0, ["--theta-deg", "60", "--b-max", "0.2", "--points", "2001"]),
        (10.0, 60.0, ["--e-vcm", "10", "--theta-deg", "60", "--b-min", "1e-7",
                      "--b-max", "1e-4", "--points", "11"]),
        (1e5, 0.0, ["--e-vcm", "100000", "--theta-deg", "0", "--b-min", "1",
                    "--b-max", "30", "--points", "59"]),
    ], ids=["readme", "weak-field", "strong-parallel"])
    def test_sweep_matches_lapack(self, capsys, e_vcm, theta_deg, args):
        # the README sweep, weak fields near the quartic's quadruple root,
        # and 10 MV/m to 30 T, where det H is far below max|lambda|^8
        assert run(["spectrum"] + args) == 0
        for row in float_rows(parse_csv(capsys.readouterr().out)[2]):
            p = scale_parameters(MoleculeParameters(), FieldConfiguration(
                e_field=e_vcm * 100.0, b_field=row[0],
                theta=math.radians(theta_deg)))
            want = np.sort(np.linalg.eigvalsh(build_hamiltonian(p)))[::-1]
            got = np.array(row[1:]) * GHZ_PER_PERCM
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_provenance_keys(self, capsys):
        assert run(["spectrum", "--b-max", "0.1", "--points", "2"]) == 0
        comments, _, _ = parse_csv(capsys.readouterr().out)
        keys = [c.split("=")[0].strip("# ") for c in comments[1:]]
        assert keys == sorted(keys)
        assert "delta_ghz " in [c[2:].split("=")[0] for c in comments[1:]] or \
            any(c.startswith("# delta_ghz =") for c in comments)
        assert any(c.startswith("# mu_e_debye =") for c in comments)
        assert any(c.startswith("# theta_rad =") for c in comments)


class TestCrossings:
    def test_zero_field_catalog(self, capsys):
        assert run(["crossings", "--theta-deg", "60"]) == 0
        comments, header, raw = parse_csv(capsys.readouterr().out)
        assert comments[0] == "# ohcross crossings"
        assert header == ["b_tesla", "kind", "pair", "gap_percm", "source"]
        rows = float_rows(raw, skip=(1, 2, 4))
        locations = [r[0] for r in rows]
        expect = [0.0, 0.0496264059757, 0.0744396089636,
                  0.148879217927, 0.148879217927]
        assert len(locations) == len(expect)
        for got, want in zip(locations, expect):
            assert got == pytest.approx(want, abs=1e-6)
        assert all(r[1] == "real" for r in rows)
        assert all(r[3] == 0.0 for r in rows)
        pairs = [r[2] for r in rows]
        assert pairs == ["1-2", "4-5", "3-4", "2-3", "4-5"]

    def test_avoided_catalog(self, capsys):
        assert run(["crossings", "--theta-deg", "60", "--e-vcm", "1000",
                    "--unit", "ghz"]) == 0
        _, header, raw = parse_csv(capsys.readouterr().out)
        assert header[3] == "gap_ghz"
        rows = float_rows(raw, skip=(1, 2, 4))
        assert all(r[1] == "avoided" for r in rows)
        first = [r for r in rows if r[2] == "4-5"][0]
        assert first[0] == pytest.approx(0.0546025979, abs=1e-6)
        assert first[3] == pytest.approx(0.0272001, rel=1e-4)

    def test_strong_field_catalog_exits_clean(self, capsys):
        # the f1 quartic's constant term is about 4e14 times its leading 1
        # here; the fixed-degree solver keeps that leading term
        assert run(["crossings", "--theta-deg", "60", "--e-vcm", "40000"]) == 0
        comments, header, _ = parse_csv(capsys.readouterr().out)
        assert comments[0] == "# ohcross crossings"
        assert header == ["b_tesla", "kind", "pair", "gap_percm", "source"]

    def test_split_seeds_refine_to_exact_crossings(self, capsys, monkeypatch):
        # at 11,245 V/cm antiparallel the f1 quartic's double roots come
        # back as four split seeds whose gap is open at the seed; each
        # refined minimum closes below the threshold, so one real (4, 5)
        # record per crossing is printed at that minimum
        refine, refined = crossings._refine_gap_minima, []

        def logged(h0, labels, lo, hi):
            b_min, gap = refine(h0, labels, lo, hi)
            refined.extend(zip(map(tuple, labels.T.tolist()), zip(b_min, gap)))
            return b_min, gap

        monkeypatch.setattr(crossings, "_refine_gap_minima", logged)
        assert run(["crossings", "--theta-deg", "180", "--e-vcm", "11245"]) == 0
        rows = parse_csv(capsys.readouterr().out)[2]
        assert [",".join(r) for r in rows if r[4] == "f1-analytic"] == [
            "0.339346730341,real,4-5,0,f1-analytic",
            "0.367230778603,real,4-5,0,f1-analytic"]
        assert len(refined) == 4
        assert all(pair == (4, 5) and gap < crossings.GAP_CLASSIFICATION_THRESHOLD
                   for pair, (_, gap) in refined)

    def test_parallel_sources(self, capsys):
        assert run(["crossings", "--theta-deg", "0", "--e-vcm", "2000"]) == 0
        _, _, raw = parse_csv(capsys.readouterr().out)
        sources = {row[4] for row in raw}
        assert sources == {"f1-analytic", "f2-parallel"}
        assert all(row[1] == "real" for row in raw)

    def test_mirror_flag(self, capsys):
        assert run(["crossings", "--theta-deg", "60"]) == 0
        plain = parse_csv(capsys.readouterr().out)[2]
        assert run(["crossings", "--theta-deg", "60",
                    "--include-mirror"]) == 0
        mirrored = parse_csv(capsys.readouterr().out)[2]
        positives = sum(1 for r in plain if float(r[0]) > 0.0)
        assert len(mirrored) == len(plain) + positives
        assert min(float(r[0]) for r in mirrored) < 0.0


class TestB1AndGap:
    def test_b1_sweep_endpoints(self, capsys):
        assert run(["b1", "--vs", "e", "--e-min", "0", "--e-max", "500",
                    "--points", "3", "--theta-deg", "60"]) == 0
        _, header, raw = parse_csv(capsys.readouterr().out)
        assert header == ["e_vcm", "b1_exact_tesla", "b1_approx_tesla"]
        rows = float_rows(raw)
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(0.0496264059757, rel=1e-11)
        assert rows[0][2] == pytest.approx(0.0496264059757, rel=1e-11)
        last = rows[-1]
        assert last[1] == pytest.approx(0.050982789, abs=1e-6)
        assert abs(last[1] - last[2]) / last[1] < 0.01

    def test_b1_theta_sweep(self, capsys):
        assert run(["b1", "--vs", "theta", "--theta-min-deg", "20",
                    "--theta-max-deg", "160", "--points", "5",
                    "--e-vcm", "300"]) == 0
        _, header, raw = parse_csv(capsys.readouterr().out)
        assert header[0] == "theta_rad"
        rows = float_rows(raw)
        assert rows[0][0] == pytest.approx(math.radians(20.0), rel=1e-12)
        for row in rows:
            assert row[1] > 0.049

    def test_gap_grows_from_zero(self, capsys):
        assert run(["gap", "--vs", "e", "--e-min", "0", "--e-max", "200",
                    "--points", "5", "--theta-deg", "60",
                    "--unit", "ghz"]) == 0
        _, header, raw = parse_csv(capsys.readouterr().out)
        assert header == ["e_vcm", "gap_ghz"]
        gaps = [row[1] for row in float_rows(raw)]
        assert gaps[0] == 0.0
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_sweep_range_validation(self, capsys):
        assert run(["b1", "--vs", "e", "--e-min", "5", "--e-max", "5",
                    "--points", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["b1", "--vs", "e", "--points", "5", "--theta-deg", "60"],
        ["gap", "--vs", "e", "--e-max", "500", "--theta-deg", "60"],
    ])
    def test_e_sweep_without_bounds_rejected(self, argv, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: sweep needs both --e-min/--e-max\n"

    def test_radian_theta_sweep(self, capsys):
        assert run(["gap", "--vs", "theta", "--theta-min-rad", "0.5",
                    "--theta-max-rad", "1.0", "--points", "3",
                    "--e-vcm", "1000"]) == 0
        comments, header, raw = parse_csv(capsys.readouterr().out)
        assert "# theta_min_rad = 0.5" in comments
        assert "# theta_max_rad = 1" in comments
        assert header == ["theta_rad", "gap_percm"]
        assert raw == [["0.5", "0.00019809323481"],
                       ["0.75", "0.000504001823433"],
                       ["1", "0.000847510446792"]]

    @pytest.mark.parametrize("flags, message", [
        ("--theta-min-deg 10 --theta-max-rad 1.0",
         "theta sweep takes --theta-min-deg with --theta-max-deg, "
         "not mixed with radians"),
        ("--theta-min-deg 10 --theta-max-deg 80 --theta-min-rad 0.5",
         "theta sweep takes --theta-min-deg with --theta-max-deg, "
         "not mixed with radians"),
        ("--theta-min-rad 0.5",
         "theta sweep needs --theta-min-deg/--theta-max-deg "
         "or --theta-min-rad/--theta-max-rad"),
        ("--theta-min-rad 0.5 --theta-max-rad 1.0 --points 1",
         "sweep needs at least 2 points"),
        # a flag the theta sweep does not read, named before any range check
        ("--theta-min-deg 10 --theta-max-deg 80 --theta-deg 30",
         "--vs theta does not read --theta-deg"),
        ("--theta-min-rad 0.5 --theta-max-rad 1.0 --theta-rad 0.7",
         "--vs theta does not read --theta-rad"),
        ("--theta-min-deg 10 --theta-max-deg 80 --e-max 20 --e-min 10",
         "--vs theta does not read --e-min, --e-max"),
        ("--theta-min-deg 10 --theta-deg 30",
         "--vs theta does not read --theta-deg"),
        ("--theta-min-rad 0.5 --theta-max-rad 1.0 --points 1 --e-max 5",
         "--vs theta does not read --e-max"),
    ])
    def test_theta_sweep_flags_rejected(self, flags, message, capsys):
        argv = f"gap --vs theta --e-vcm 1000 --points 3 {flags}".split()
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        ("--e-min 10 --e-max 20 --theta-min-deg 5 --theta-max-deg 9 --e-vcm 777",
         "--vs e does not read --e-vcm, --theta-min-deg, --theta-max-deg"),
        ("--e-min 10 --e-max 20 --e-vcm 0", "--vs e does not read --e-vcm"),
        ("--e-min 10 --e-max 20 --theta-min-rad 0.1 --theta-max-rad 0.2",
         "--vs e does not read --theta-min-rad, --theta-max-rad"),
        ("--e-min 20 --e-max 10 --e-vcm 5", "--vs e does not read --e-vcm"),
    ])
    @pytest.mark.parametrize("command", ["b1", "gap"])
    def test_e_sweep_flags_rejected(self, command, flags, message, capsys):
        argv = f"{command} --vs e --theta-deg 30 --points 2 {flags}".split()
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_theta_sweep_field_defaults_to_zero(self, capsys):
        argv = "b1 --vs theta --theta-min-deg 10 --theta-max-deg 80 --points 3".split()
        assert run(argv) == 0
        omitted = capsys.readouterr().out
        assert run(argv + ["--e-vcm", "0"]) == 0
        assert capsys.readouterr().out == omitted
        assert "# e_vcm = 0\n" in omitted


class TestFit:
    @pytest.fixture()
    def cube_csv(self, tmp_path):
        path = tmp_path / "cube.csv"
        lines = ["x,y"] + [f"{x},{2.0 * x ** 3}" for x in range(1, 11)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_exact_power_law(self, cube_csv, capsys):
        assert run(["fit", "--in", str(cube_csv),
                    "--model", "power-in-E"]) == 0
        out = dict(line.split(": ") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert out["model"] == "power-in-E"
        assert float(out["coefficient"]) == pytest.approx(2.0, rel=1e-10)
        assert float(out["exponent"]) == pytest.approx(3.0, abs=1e-10)
        assert float(out["rms_residual"]) < 1e-10
        assert (float(out["window_min"]), float(out["window_max"])) == (1.0, 10.0)
        assert out["points_used"] == "10"

    def test_window_flags(self, cube_csv, capsys):
        assert run(["fit", "--in", str(cube_csv), "--model", "power-in-E",
                    "--window-min", "2", "--window-max", "8"]) == 0
        out = dict(line.split(": ") for line in
                   capsys.readouterr().out.strip().splitlines())
        assert out["points_used"] == "7"

    def test_half_window_rejected(self, cube_csv, capsys):
        assert run(["fit", "--in", str(cube_csv), "--model", "power-in-E",
                    "--window-min", "2"]) == 1
        assert "window" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["fit", "--in", str(tmp_path / "nope.csv"),
                    "--model", "power-in-E"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_overflowing_coefficient_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        xs = [1e-10 * (1.0 + k / 7.0) for k in range(8)]
        path.write_text("x,y\n" + "".join(f"{x!r},{1e300 * (x / 1e-10) ** 2!r}\n"
                                           for x in xs))
        assert run(["fit", "--in", str(path), "--model", "power-in-E"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: fit coefficient exp(736.8")
        assert err.count("\n") == 1

    def test_bad_column(self, cube_csv, capsys):
        assert run(["fit", "--in", str(cube_csv), "--model", "power-in-E",
                    "--y-col", "9"]) == 1
        assert "column" in capsys.readouterr().err


class TestAudit:
    def test_clean_audit_passes(self, capsys):
        assert run(["audit", "--samples", "120"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out
        assert out.strip().endswith("audit: PASS")

    def test_injected_fault_caught(self, capsys):
        assert run(["audit", "--samples", "120", "--inject-g6-flip"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] triple-agreement" in out
        assert "suspects: g6" in out
        assert out.strip().endswith("audit: FAIL")

    def test_no_suspect_when_no_coefficient_explains_the_breach(self, monkeypatch,
                                                                capsys):
        # the triple-agreement breach at this seed comes from the closed-form
        # spectrum, not from one octic coefficient: every coefficient scores
        # far above LOCALIZE_CONSISTENCY_TOL, so none is named
        reports, audit = [], discriminant.audit_triple

        def spy(**kwargs):
            reports.append(audit(**kwargs))
            return reports[-1]

        monkeypatch.setattr(discriminant, "audit_triple", spy)
        assert run(["audit", "--samples", "20", "--seed", "454419505"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] triple-agreement" in out
        assert "suspects:" not in out
        (report,) = reports
        assert report.scores and report.suspects == ()
        assert min(report.scores.values()) > discriminant.LOCALIZE_CONSISTENCY_TOL

    @pytest.mark.parametrize("samples", ["0", "-4"])
    def test_rejects_sample_count_below_one(self, samples, capsys):
        assert run(["audit", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "samples" in captured.err

    def test_rejects_negative_seed(self, capsys):
        assert run(["audit", "--samples", "20", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "audit seed must be non-negative, got -1" in captured.err


class TestPlot:
    def test_svg_written(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("b,y1,y2\n0,1,2\n1,2,1\n2,4,0\n")
        out = tmp_path / "p.svg"
        assert run(["plot", "--in", str(data), "--title", "demo",
                    "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 2
        assert ">y1<" in svg and ">y2<" in svg

    def test_plot_skips_comment_lines(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("# ohcross gap\n# seed = 1\nx,y\n0,1\n1,3\n2,5\n")
        assert run(["plot", "--in", str(data)]) == 0
        assert "<svg " in capsys.readouterr().out

    def test_malformed_data(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x,y\n0,1\n1\n")
        assert run(["plot", "--in", str(data)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_data(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("x,y\n")
        assert run(["plot", "--in", str(data)]) == 1
        capsys.readouterr()


def _random_floats(n, seed):
    """n float64 values from uniform random bit patterns: every exponent,
    subnormals, signed zeros, infinities and NaN payloads included."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64)
    return bits.view(np.float64)


SPECIAL_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                   1.5e-310, math.inf, -math.inf, math.nan, -math.nan,
                   1.7976931348623157e308, 0.1, 1e16, 123456789012.5,
                   0, 1, -7, 10 ** 15, 2 ** 53 + 1, -(10 ** 300), True,
                   np.float64(0.3), np.float64(-2.5e-320), np.float64("nan")]


class TestTextEquivalences:
    """The block writer and the one-call parser match the per-cell
    format(float(v), ".12g") and float() they replace."""

    def test_number_format_matches_format_on_random_bits(self):
        values = _random_floats(100_000, 11).tolist()
        text = cli._csv("t", {}, ["v"], np.reshape(values, (-1, 1)))
        assert text.splitlines()[2:] == [format(v, ".12g") for v in values]

    def test_number_format_matches_format_on_special_values(self):
        for v in SPECIAL_NUMBERS:
            assert cli._fmt(v) == format(float(v), ".12g"), v
        rows = [[v, "s%s"] for v in SPECIAL_NUMBERS]
        assert cli._csv("t", {}, ["v", "s"], rows).splitlines()[2:] == [
            f"{format(float(v), '.12g')},s%s" for v in SPECIAL_NUMBERS]
        with pytest.raises(OverflowError):
            cli._fmt(10 ** 400)

    def test_block_of_rows_matches_cell_by_cell(self):
        table = _random_floats(9 * 201, 12).reshape(201, 9)
        lines = cli._csv("t", {"k": 0.5}, list("abcdefghi"), table).splitlines()
        assert lines[:3] == ["# ohcross t", "# k = 0.5", "a,b,c,d,e,f,g,h,i"]
        assert lines[3:] == [",".join(format(v, ".12g") for v in row)
                             for row in table.tolist()]
        assert cli._csv("t", {}, ["a"], []) == "# ohcross t\na\n"

    def test_parse_matches_float_on_printed_numbers(self):
        cells = [format(v, ".12g") for v in _random_floats(100_000, 13).tolist()]
        cells += [repr(v) for v in _random_floats(1000, 14).tolist()]
        got = cli._table(["v"], cells).ravel()
        want = np.array([float(c) for c in cells])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("cell", [
        "1_000", " 1.5 ", "infinity", "-Infinity", "NaN", "-nan", "inf ",
        "\uff11\uff12", "\u0661.5", "1e400", "-1e-400", "+.5", "5.", "\xa02",
        "0x10", "1__0", "_1", "1_", "nan(1)", "snan", "1e", ".", "", " ",
        "1 2", "1d5", "0b1", "\uff11\uff0e5",
        # numpy's reader strips U+001C..U+001F around a cell; float() does not
        "\x1c1", "1\x1d", "\x1e2.5", "2.5\x1f"])
    def test_parse_accepts_and_rejects_like_float(self, cell):
        try:
            want = float(cell)
        except ValueError:
            with pytest.raises(PlotError, match="non-numeric"):
                cli._table(["a", "b"], ["0,1", f"0,{cell}"])
        else:
            got = cli._table(["a", "b"], ["0,1", f"0,{cell}"])[1, 1]
            assert np.array([got]).view(np.uint64) == \
                np.array([want]).view(np.uint64)

    def test_parse_matches_row_by_row_float(self):
        # tables of 1-3 columns and 1-3 rows, a row now and then a cell
        # short or long, cells from float()'s syntax, the whitespace that
        # float() and numpy's reader strip, U+001C..U+001F (which only
        # numpy's reader strips), non-ASCII digits, NUL, quotes and '#':
        # the same bits as float() per cell, or the same PlotError message
        def float_rows(width, lines):
            rows = []
            for line in lines:
                cells = line.split(",")
                if len(cells) != width:
                    return f"row has {len(cells)} cells, header has {width}"
                try:
                    rows.append([float(cell) for cell in cells])
                except ValueError:
                    return f"non-numeric value in data row: {line}"
            return np.array(rows, dtype=float).reshape(-1, width)

        pads = " \t\x0b\x0c\x85\xa0\u3000\x00\x1c\x1d\x1e\x1f"
        alphabet = "0123456789+-.eE_infa\uff11\u0661\"'#" + pads
        cell = st.one_of(
            st.text(alphabet, max_size=6),
            st.builds(lambda pre, v, post: pre + v + post,
                      st.text(pads, max_size=2),
                      st.one_of(st.floats().map(repr), st.integers().map(str)),
                      st.text(pads, max_size=2)))

        @st.composite
        def tables(draw):
            width = draw(st.integers(1, 3))
            lines = []
            for _ in range(draw(st.integers(1, 3))):
                size = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
                lines.append(",".join(draw(st.lists(cell, min_size=size,
                                                    max_size=size))))
            return width, lines

        @settings(derandomize=True, max_examples=200, deadline=None,
                  database=None)
        @given(tables())
        @example((1, ["1", ""]))  # numpy's reader skips blank lines
        @example((1, [""]))  # and warns when no line is left
        @example((2, ["0,1", "\x1c1,2"]))
        def check(table):
            width, lines = table
            want = float_rows(width, lines)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = cli._table(["c"] * width, lines)
            except PlotError as exc:
                assert str(exc) == want
            else:
                assert not isinstance(want, str), want
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

        check()

    def test_golden_data_files_take_the_one_call_parse(self, monkeypatch):
        # every numeric data file the golden outputs read parses without
        # the row-by-row pass, so the timed path is the one call
        def refuse(width, lines):
            raise AssertionError("row-by-row parse")

        monkeypatch.setattr(cli, "_float_rows", refuse)
        files = {prefix: sorted(GOLDEN.glob(f"{prefix}_*.csv"))
                 for prefix in ("b1", "gap", "spectrum")}
        assert {k: len(v) for k, v in files.items()} == {
            "b1": 3, "gap": 4, "spectrum": 3}
        for paths in files.values():
            for path in paths:
                header, columns = cli._read_data(path)
                assert columns.shape[0] == len(header) >= 2


# Data file text -> the one line that `plot` and `fit` print on stderr;
# the first bad line in file order decides.
DATA_FILE_ERRORS = [
    ("x,y\n0,1\n1\n", "row has 1 cells, header has 2"),
    ("x,y\n0,1\n1,2,3\n2,abc\n", "row has 3 cells, header has 2"),
    # a long row and a short one that add up to whole rows
    ("x,y\n0,1,2\n3\n", "row has 3 cells, header has 2"),
    ("x,y\n0,1\n1,abc\n2\n", "non-numeric value in data row: 1,abc"),
    ("x,y\n0,1\n 1 , 0x10 \n", "non-numeric value in data row: 1 , 0x10"),
    ("x,y\n0,1\n1,\n", "non-numeric value in data row: 1,"),
    ("x,y\n", "data file has no rows"),
    ("# only a comment\n\n", "data file has no rows"),
    ("", "data file has no rows"),
]


class TestDataFileErrors:
    @pytest.mark.parametrize("command", [
        ["plot"], ["fit", "--model", "power-in-E"]])
    @pytest.mark.parametrize("text, message", DATA_FILE_ERRORS)
    def test_message_and_exit_code(self, tmp_path, capsys, command, text,
                                   message):
        data = tmp_path / "d.csv"
        data.write_text(text, encoding="utf-8")
        assert run(command + ["--in", str(data)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("x,y\n0,1\n", "need at least two x values"),
        ("x,y\n0,1\n1,nan\n", "data contains non-finite values"),
        ("x,y\n0,1\n-inf,2\n", "data contains non-finite values"),
        ("x,y\n1,1\n1,2\n", "x range is singular"),
        ("x\n0\n1\n", "plot needs an x column plus at least one series"),
        ("x,y\n0,1.7e308\n1,-1.7e308\n", "y range -1.7e+308 to 1.7e+308 overflows"),
        ("x,y\n0,1\n5e-323,2\n", "x range 0.0 to 5e-323 is too narrow to tick"),
    ])
    def test_plot_messages(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.csv"
        data.write_text(text, encoding="utf-8")
        assert run(["plot", "--in", str(data)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, axis", [
        ("x,y\n1.0,1\n1.0000000000000002,2\n", "x"),
        ("x,y\n0,1\n1,1.0000000000000002\n", "y"),
    ])
    def test_plot_range_too_narrow_to_tick(self, tmp_path, text, axis):
        # one ulp wide: a tick step of 5e-17 never moves a tick off 1.0, so
        # the command runs in a subprocess whose timeout fails a hang
        data = tmp_path / "d.csv"
        data.write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "ohcross", "plot", "--in", str(data),
             "--out", str(tmp_path / "d.svg")],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (f"error: {axis} range 1.0 to 1.0000000000000002 "
                               "is too narrow to tick\n")
        assert not (tmp_path / "d.svg").exists()

    def test_bad_value_before_undecodable_bytes(self, tmp_path, capsys):
        # The bad row is reported although bytes far past it do not decode,
        # as when each row is parsed as it is read.
        data = tmp_path / "d.csv"
        filler = "".join(f"{k},{k}\n" for k in range(4000)).encode()
        data.write_bytes(b"x,y\n0,1\n1,abc\n" + filler + b"2,\xff\n")
        assert run(["plot", "--in", str(data)]) == 1
        assert capsys.readouterr().err == (
            "error: non-numeric value in data row: 1,abc\n")

    def test_undecodable_bytes_in_the_bad_rows_block(self, tmp_path, capsys):
        # The file is decoded a block at a time: bytes that do not decode in
        # the bad row's own block raise before that row is parsed.
        data = tmp_path / "d.csv"
        data.write_bytes(b"x,y\n0,1\n1,abc\n2,\xff\n")
        assert run(["plot", "--in", str(data)]) == 1
        assert capsys.readouterr() == ("", (
            "error: 'utf-8' codec can't decode byte 0xff in position 16: "
            "invalid start byte\n"))

    def test_undecodable_bytes(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"x,y\n0,1\n2,\xff\n")
        assert run(["plot", "--in", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_fit_reads_float_syntax(self, tmp_path, capsys):
        # underscores, padding, full-width digits: whatever float() takes
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,2\n2, 16 \n3,5_4\n\uff14,128\n5,2.5e2\n",
                        encoding="utf-8")
        assert run(["fit", "--in", str(data), "--model", "power-in-E"]) == 0
        out = capsys.readouterr().out
        assert "exponent: 3\n" in out and "points_used: 5\n" in out


class TestHamiltonian:
    def test_dump_layout(self, capsys):
        assert run(["hamiltonian", "--b-tesla", "0.1", "--e-vcm", "1000",
                    "--theta-deg", "60"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 8
        values = [line.split() for line in lines]
        assert all(len(row) == 8 for row in values)
        assert not any(cell.startswith("-0 ") for line in lines
                       for cell in line.split(","))
        assert "-0 " not in out and not out.startswith("-0")
        # symmetric dump
        for i in range(8):
            for j in range(8):
                assert values[i][j] == values[j][i]


class TestOutputFile:
    """--out rewrites a file in place, without O_TRUNC, and cuts it to length."""

    ARGV = ["hamiltonian", "--b-tesla", "0.1", "--e-vcm", "1000", "--theta-deg", "60"]

    def test_shorter_rewrite_leaves_new_bytes_in_same_inode(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        out.write_bytes(b"x" * 20000)
        inode = out.stat().st_ino
        assert run(self.ARGV + ["--out", str(out)]) == 0
        assert run(self.ARGV) == 0
        want = capsys.readouterr().out.encode()
        assert len(want) < 20000
        assert out.read_bytes() == want
        assert out.stat().st_ino == inode

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null(self, capsys):
        assert run(self.ARGV + ["--out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(os.name != "posix", reason="POSIX errno texts")
    @pytest.mark.parametrize("target, code", [("adir", errno.EISDIR),
                                              ("missing/h.txt", errno.ENOENT)])
    def test_unwritable_target_keeps_its_error_line(self, target, code, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert run(self.ARGV + ["--out", target]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno {code}] {os.strerror(code)}: {target!r}\n")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.skipif(os.name != "posix", reason="RLIMIT_FSIZE")
    def test_failed_write_cuts_the_file(self, tmp_path):
        # a file-size limit below the output's length fails the write part
        # way: the file is cut to zero, never new bytes followed by old ones
        out = tmp_path / "h.txt"
        out.write_bytes(b"x" * 20000)
        code = ("import resource, sys\n"
                "from ohcross.cli import run\n"
                "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
                "resource.setrlimit(resource.RLIMIT_FSIZE, (256, hard))\n"
                f"sys.exit(run({self.ARGV + ['--out', str(out)]!r}))\n")
        done = _fresh(["-c", code], tmp_path)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert out.read_bytes() == b""

    def test_emit_never_passes_o_trunc(self, tmp_path, monkeypatch):
        out = str(tmp_path / "h.txt")
        flags = []
        real_open = os.open

        def spy(path, flag, *rest, **kwargs):
            if path == out:
                flags.append(flag)
            return real_open(path, flag, *rest, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert run(self.ARGV + ["--out", out]) == 0  # creates the file
        assert run(self.ARGV + ["--out", out]) == 0  # rewrites it
        assert len(flags) == 2
        assert all(flag & os.O_WRONLY and flag & os.O_CREAT
                   and not flag & os.O_TRUNC for flag in flags)


class TestOutputPathParity:
    """Every command writes the same bytes, with the same exit code, to
    stdout and to --out; a call that fails writes no file. Commands run in
    tests/data: the README commands with small sweeps, fit on a gap-vs-E
    golden file, plot on a golden CSV and an audit that fails."""

    @pytest.mark.parametrize("line, code", [
        ("spectrum --theta-deg 60 --b-max 0.2 --points 21", 0),
        ("crossings --theta-deg 60 --e-vcm 1000", 0),
        ("b1 --vs e --e-min 0 --e-max 500 --points 11 --theta-deg 60", 0),
        ("gap --vs theta --theta-min-deg 30 --theta-max-deg 90 --points 7 "
         "--e-vcm 1400", 0),
        ("fit --in gap_e_theta75.csv --model power-in-E --window-min 10 "
         "--window-max 500", 0),
        ("audit --samples 20", 0),
        ("audit --samples 20 --inject-g6-flip", 2),
        ("plot --in b1_readme.csv", 0),
        ("hamiltonian --b-tesla 0.1 --e-vcm 1000 --theta-deg 60", 0),
    ])
    def test_file_holds_the_stdout_bytes(self, line, code, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN)
        out = tmp_path / "out"
        assert run(line.split()) == code
        printed = capsys.readouterr()
        assert printed.err == "" and printed.out
        assert run(line.split() + ["--out", str(out)]) == code
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == printed.out.encode()
        if code == 2:
            assert printed.out.endswith("\naudit: FAIL\n")

    @pytest.mark.parametrize("line, message", [
        ("spectrum --b-max -1", "sweep range must satisfy min < max"),
        ("plot --in bad.csv", "non-numeric value in data row: 1,abc"),
        ("hamiltonian --config missing.json",
         "[Errno 2] No such file or directory: 'missing.json'"),
    ])
    def test_failed_call_writes_no_file(self, line, message, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("x,y\n0,1\n1,abc\n", encoding="utf-8")
        assert run(line.split() + ["--out", "out"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert run(GOLDEN_COMMANDS[name].split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


class TestConfigAndErrors:
    def test_config_file_flows_through(self, tmp_path, capsys):
        cfg = tmp_path / "mol.json"
        cfg.write_text(json.dumps({"delta_ghz": 1.6, "mu_e_debye": 1.7}))
        assert run(["spectrum", "--b-max", "0.1", "--points", "2",
                    "--config", str(cfg)]) == 0
        comments = parse_csv(capsys.readouterr().out)[0]
        assert "# delta_ghz = 1.6" in comments
        assert "# mu_e_debye = 1.7" in comments

    def test_missing_config_names_the_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert run(["spectrum", "--b-max", "0.1", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2]") and path in err

    @pytest.mark.parametrize("argv, message", [
        # the config is read before the sweep or its flags are checked
        ("spectrum --config missing.json --b-max -1",
         "[Errno 2] No such file or directory: 'missing.json'"),
        ("b1 --vs e --config missing.json --e-min 5 --e-max 1",
         "[Errno 2] No such file or directory: 'missing.json'"),
        # a flag the sweep does not read, before the range check
        ("b1 --vs e --e-vcm 3 --e-min 5 --e-max 1",
         "--vs e does not read --e-vcm"),
    ])
    def test_error_precedence(self, argv, message, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv.split()) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["hamiltonian", "--b-tesla", "nan"],
        ["spectrum", "--e-vcm", "inf", "--b-max", "0.1", "--points", "3"],
        ["crossings", "--e-vcm", "inf"],
        ["spectrum", "--b-max", "inf", "--points", "3"],
        ["b1", "--vs", "e", "--e-min", "0", "--e-max", "inf", "--points", "3"],
        # NaN is not negative and not out of order: it is not finite
        ["crossings", "--e-vcm", "nan"],
        ["spectrum", "--e-vcm", "nan", "--b-max", "0.1", "--points", "3"],
        ["spectrum", "--b-max", "nan", "--points", "3"],
        ["spectrum", "--b-min", "nan", "--b-max", "0.1", "--points", "3"],
        ["hamiltonian", "--e-vcm", "nan"],
        ["b1", "--vs", "e", "--e-min", "nan", "--e-max", "10", "--points", "3"],
        ["gap", "--vs", "theta", "--theta-min-deg", "nan", "--theta-max-deg", "10",
         "--points", "3"],
        ["b1", "--vs", "theta", "--theta-min-deg", "1", "--theta-max-deg", "10",
         "--e-vcm", "nan", "--points", "3"],
        # a non-finite bound is reported before the order of the bounds
        ["spectrum", "--b-min", "inf", "--b-max", "0.1", "--points", "3"],
    ])
    def test_non_finite_input_rejected(self, argv, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["crossings", "--e-vcm=-1"], "e_field must be >= 0"),
        (["crossings", "--e-vcm=-inf"], "e_field must be >= 0"),
        (["crossings", "--e-vcm", "-inf"], "e_field must be >= 0"),
        (["spectrum", "--b-min", "0.2", "--b-max", "0.1"],
         "sweep range must satisfy min < max"),
    ])
    def test_negative_and_unordered_inputs_keep_their_messages(self, argv, message, capsys):
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["hamiltonian", "--b-tesla", "1e308"],
        ["spectrum", "--b-max", "1e307", "--points", "3"],
        ["gap", "--vs", "e", "--e-min", "0", "--e-max", "1e306",
         "--theta-deg", "60", "--points", "3"],
        # sweep bounds are checked as typed, before any array is built
        ["b1", "--vs", "e", "--e-min", "0", "--e-max", "1e307",
         "--theta-deg", "60", "--points", "3"],
        ["spectrum", "--b-min=-1.7e308", "--b-max", "1.7e308", "--points", "3"],
        ["gap", "--vs", "theta", "--theta-min-rad=-1.7e308",
         "--theta-max-rad", "1.7e308", "--points", "3"],
    ])
    def test_finite_field_that_overflows_rejected(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1
        assert "nan" not in err and "inf" not in err

    @pytest.mark.parametrize("argv", [
        "b1 --vs e --e-min 0 --e-max 1e90 --points 3 --theta-deg 60",
        "gap --vs e --e-min 0 --e-max 1e90 --points 3 --theta-deg 60",
        "b1 --vs theta --theta-min-deg 10 --theta-max-deg 80 --points 3 "
        "--e-vcm 1e90",
    ])
    def test_resolvent_overflow_is_a_validation_failure(self, argv, capsys):
        # the fields pass their scaling, but the closed form does not fit
        # in double precision
        assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: resolvent closed form overflows at "
                              "e_tilde = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "spectrum --b-max 1e37 --points 3",
        "spectrum --b-max 1e150 --points 3",
        "spectrum --e-vcm 1e30 --b-max 1e3",
    ])
    def test_spectrum_overflow_is_a_validation_failure(self, argv, capsys):
        # the fields pass their scaling, but the lambda^2 quartic does not
        # fit in double precision
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: lambda^2 quartic overflows in double precision\n"

    @pytest.mark.parametrize("e_vcm, theta_deg", [
        (e, theta) for e in ("1e20", "1e90", "1e200") for theta in ("0", "60", "90")
    ] + [("1e16", "0"), ("1e16", "180"), ("1e50", "60"), ("1e70", "0"), ("1e78", "90")])
    def test_catalog_overflow_is_a_validation_failure(self, e_vcm, theta_deg, capsys):
        # the field passes its scaling, but a discriminant factor's roots do
        # not fit in double precision (at 1e16 V/cm and parallel fields only
        # the special-angle quartic's; from about 1e42 to 1e79 V/cm only the
        # quartic factor's c0, the square of a finite float, overflows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["crossings", "--e-vcm", e_vcm, "--theta-deg", theta_deg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: discriminant factors overflow at e_tilde = ")
        assert "theta = " in err and " nan" not in err
        assert err.count("\n") == 1

    def test_parallel_corner_matches_mpmath(self, capsys):
        # the discriminant routes disagreed here before the depressed
        # coefficients took their factored forms in sin^2 theta
        from test_crossings import b1_mpmath
        argv = "b1 --vs e --theta-deg 0.5 --e-min 1000 --e-max 100000 --points 21"
        assert run(argv.split()) == 0
        rows = parse_csv(capsys.readouterr().out)[2]
        assert len(rows) == 21
        p = scale_parameters(MoleculeParameters(), FieldConfiguration())
        for e_vcm, b1, _ in rows:
            e_tilde = e_tilde_from_field(float(e_vcm) * 100.0, MoleculeParameters())
            want = b_field_from_tilde(b1_mpmath(e_tilde, p.delta_tilde,
                                                math.radians(0.5)))
            # 12 printed digits
            assert float(b1) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("argv, message", [
        ("b1 --vs theta --theta-min-deg 0.5 --theta-max-deg 200 "
         "--e-vcm 30000 --points 3", "theta must lie in [0, pi]"),
        ("gap --vs e --theta-deg 0.5 --e-min 30000 --e-max 1e306 --points 3",
         "e_field 1e+308 V/m overflows"),
        ("b1 --vs theta --theta-min-deg 10 --theta-max-deg 200 "
         "--e-vcm 1000 --points 7", "theta must lie in [0, pi]"),
        # every point is checked in one call, every rule over all points
        # before any scaling: the theta bound before the overflowing E
        ("b1 --vs theta --theta-min-deg 10 --theta-max-deg 200 "
         "--e-vcm 1e303 --points 3", "theta must lie in [0, pi]"),
        # the typed B bound, not the linspace midpoint 5e+307
        ("spectrum --b-min 0 --b-max 1e308 --points 3",
         "b_field 1e+308 T overflows"),
        # of the overflowing points, the one farthest from zero
        ("spectrum --b-min=-5e307 --b-max 1e308 --points 3",
         "b_field 1e+308 T overflows"),
        # the B sweep is a field too: every rule before any scaling
        ("spectrum --b-max 1e308 --e-vcm -1 --points 3",
         "e_field must be >= 0"),
    ])
    def test_sweep_checks_every_point_before_scaling(self, argv, message, capsys,
                                                     monkeypatch):
        def never(*args):
            raise AssertionError("the closed form ran")

        monkeypatch.setattr(crossings, "b1_exact_tilde", never)
        assert run(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "mol.json"
        cfg.write_text(json.dumps({"delta_ghz": -2.0}))
        assert run(["spectrum", "--b-max", "0.1", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "mol.json"
        cfg.write_text("[1, 2]")
        assert run(["spectrum", "--b-max", "0.1", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config root must be a JSON object\n"

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["spectrum"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_exclusive_theta_flags(self, capsys):
        assert run(["spectrum", "--b-max", "0.1", "--theta-deg", "10",
                    "--theta-rad", "0.2"]) == 1
        capsys.readouterr()

    def test_theta_out_of_range(self, capsys):
        assert run(["crossings", "--theta-deg", "200"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0
        assert "spectrum" in capsys.readouterr().out
        assert run(["hamiltonian", "-h"]) == 0
        assert "--b-tesla" in capsys.readouterr().out

    def test_config_help_is_the_same_everywhere(self, capsys):
        with_config = sorted(name for name, sp in _command_parsers().items()
                             if "--config" in sp._option_string_actions)
        assert with_config == ["audit", "b1", "crossings", "gap",
                               "hamiltonian", "spectrum"]
        for name in with_config:
            assert run([name, "-h"]) == 0
            assert ("--config CONFIG molecule config JSON file "
                    "(keys delta_ghz, mu_e_debye)") in " ".join(
                        capsys.readouterr().out.split()), name

    @pytest.mark.parametrize("spaced", [
        "hamiltonian --b-tesla -2e-2",
        "spectrum --b-min -1e-3 --b-max 1e-3 --points 3",
        "fit --in cube.csv --model power-in-E --window-min -1e3 --window-max 5",
    ])
    def test_negative_exponent_form_is_a_value(self, spaced, tmp_path,
                                               monkeypatch, capsys):
        # argparse alone reads -0.02 as a value but -2e-2 as an option; a
        # value float() reads prints as it does in the --flag=value form
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cube.csv").write_text(
            "x,y\n" + "".join(f"{x},{2 * x ** 3}\n" for x in range(1, 6)))
        joined = re.sub(r" (-[\d.])", r"=\1", spaced)
        assert run(joined.split()) == 0
        want = capsys.readouterr()
        assert run(spaced.split()) == 0
        assert capsys.readouterr() == want


class TestParserReuse:
    def test_runs_share_one_parser(self, capsys):
        assert build_parser() is build_parser()
        argv = ["crossings", "--theta-deg", "60", "--e-vcm", "1000"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert run(["crossings", "--theta-deg", "60", "--e-vcm"]) == 1
        assert "error:" in capsys.readouterr().err
        assert run(argv) == 0
        assert capsys.readouterr().out == first


def _command_parsers():
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    return subs.choices


def _argparse_result(argv):
    """(Namespace or None, exit code or None, stdout, stderr) of
    build_parser().parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


def _values(args) -> dict:
    # repr, so that NaN equals NaN and -0.0 differs from 0.0
    return {key: repr(value) for key, value in vars(args).items()}


# Values the property test draws besides each command's choices and its
# option strings: number forms float() reads, and text no option takes
_NUMBER_LIKE = ["60", "1_0", "-2e-2", "-inf", "nan"]
_MALFORMED = ["-", "", "x"]


@st.composite
def _argvs(draw, command):
    """A command's argv: its options in any order, each with a value from
    its choices or from number-like text, then up to two tokens inserted
    anywhere from its option strings, their prefixes, their --opt=value
    forms, number-like and malformed text."""
    parser = _command_parsers()[command]
    options = sorted(parser._option_string_actions)
    values = st.sampled_from(
        [choice for action in parser._actions if action.choices
         for choice in action.choices] + _NUMBER_LIKE + _MALFORMED + options)
    chunks = []
    for action in parser._actions:
        forms = [[name] if action.nargs == 0 else [name, value]
                 for name in action.option_strings
                 for value in action.choices or _NUMBER_LIKE]
        # an optional action is left out about half the time, help mostly
        help_ = isinstance(action, argparse._HelpAction)
        left_out = 0 if action.required else len(forms) * (9 if help_ else 1)
        chunks.append(draw(st.sampled_from([[]] * left_out + forms)))
    draw(st.randoms(use_true_random=False)).shuffle(chunks)
    argv = [command] + [token for chunk in chunks for token in chunk]
    option = st.sampled_from(options)
    token = st.one_of(
        option, values,
        st.tuples(option, st.integers(1, 6)).map(lambda t: t[0][:t[1]]),
        st.tuples(option, values).map("=".join))
    for extra in draw(st.lists(token, max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


class TestOnePassReader:
    @pytest.mark.parametrize("command", sorted(_command_parsers()))
    def test_reads_what_argparse_reads(self, command):
        @settings(derandomize=True, max_examples=40, deadline=None,
                  database=None)
        @given(_argvs(command))
        def check(argv):
            args, code, _, _ = _argparse_result(argv)
            got = cli._read_argv(argv)
            if code is not None:
                assert got is None
            elif got is not None:
                assert _values(got) == _values(args)

        check()

    def test_every_action_is_one_the_reader_reads(self):
        # the reader takes only the command name from the top-level parser
        top = build_parser()
        assert [type(action) for action in top._actions] == [
            argparse._HelpAction, argparse._SubParsersAction]
        assert top._defaults == {}
        for name, parser in _command_parsers().items():
            for action in parser._actions:
                assert action.option_strings, (name, action.dest)
                kind = type(action)
                assert (kind in (argparse._StoreTrueAction, argparse._HelpAction)
                        or kind is argparse._StoreAction and action.nargs is None), \
                    (name, action.dest, kind)
                if isinstance(action.default, str):
                    assert action.type is None, (name, action.dest)
            assert not any(group.required
                           for group in parser._mutually_exclusive_groups), name

    @pytest.mark.parametrize("line", list(GOLDEN_COMMANDS.values()) + re.findall(
        r"^ohcross (.+)$", (Path(__file__).parents[1] / "README.md").read_text(),
        flags=re.M))
    def test_golden_and_readme_commands_are_read_in_one_pass(self, line):
        argv = line.split()
        got = cli._read_argv(argv)
        assert got is not None
        assert _values(got) == _values(_argparse_result(argv)[0])

    @pytest.mark.parametrize("line, same_as", [
        ("--help", None),
        ("spectrum -h", None),
        ("crossings --e-vcm=-1", "crossings --e-vcm -1"),
        ("crossings --e-v 100", "crossings --e-vcm 100"),
        ("spectrum --b-max 1 --points 3 --points 5", "spectrum --b-max 1 --points 5"),
        ("crossings --theta-deg 1 --theta-rad 1", None),
        ("spectrum --points 3", None),
        ("spectrum --b-max 1 --unit GHZ", None),
        ("spectrum --b-max 1 --points x", None),
        ("audit --foo 1", None),
        ("audit --out", None),
        ("hamiltonian --b-tesla -x", None),
        ("crossings --out --include-mirror", None),
        ("spectrum --help 1 --b-max 1", None),
    ])
    def test_other_forms_go_to_argparse(self, line, same_as, capsys):
        """argparse reads these: where it exits, run() exits with its code
        and output; where it reads them, run() prints what the one-pass
        form of the same Namespace prints."""
        argv = line.split()
        assert cli._read_argv(argv) is None
        args, code, out, err = _argparse_result(argv)
        got = run(argv)
        if same_as is None:
            assert code is not None
            assert (got, *capsys.readouterr()) == (code, out, err)
            return
        assert code is None
        assert _values(args) == _values(cli._read_argv(same_as.split()))
        printed = capsys.readouterr()
        assert (run(same_as.split()), capsys.readouterr()) == (got, printed)


@pytest.mark.parametrize("argv, levels_calls", [
    ("gap --vs e --e-min 10 --e-max 4000 --points 51 --theta-deg 75", 1),
    ("gap --vs theta --theta-min-deg 0 --theta-max-deg 180 --points 51 "
     "--e-vcm 2000", 1),
    ("b1 --vs e --e-min 10 --e-max 5000 --points 51 --theta-deg 90", 0),
])
def test_sweep_is_one_array_pass(argv, levels_calls, monkeypatch, capsys):
    """A 51-point sweep solves its confirming cubics in one row solve and,
    for gap, takes every gap from one stacked eigvalsh call."""
    calls = {"cubic": 0, "levels": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(algebra, "_cubic_monic_roots_rows",
                        counted("cubic", algebra._cubic_monic_roots_rows))
    monkeypatch.setattr(crossings, "numeric_levels",
                        counted("levels", crossings.numeric_levels))
    assert run(argv.split()) == 0
    assert len(capsys.readouterr().out.splitlines()) > 51
    assert calls == {"cubic": 1, "levels": levels_calls}


# What a fresh process has loaded: its ohcross modules and whether json is
# among them, printed before anything else is imported.
LOADED = ("import sys\n"
          "print(([m for m in sys.modules if m.startswith('ohcross')],"
          " 'json' in sys.modules))\n")
SRC = Path(cli.__file__).parents[1]


def _fresh(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=60, env=env)


def _loaded_after(code, cwd):
    done = _fresh(["-c", code + LOADED], cwd)
    assert done.returncode == 0, done.stderr
    modules, json_loaded = ast.literal_eval(done.stdout)
    return set(modules), json_loaded


class TestImportIsolation:
    """Each launch imports only what its command runs."""

    def test_package_loads_no_submodule(self, tmp_path):
        assert _loaded_after("import ohcross\n", tmp_path) == ({"ohcross"}, False)

    def test_parser_loads_model_and_fitting_only(self, tmp_path):
        code = "import ohcross.cli\nohcross.cli.build_parser()\n"
        assert _loaded_after(code, tmp_path) == (
            {"ohcross", "ohcross.cli", "ohcross.model", "ohcross.fitting"}, False)

    @pytest.mark.parametrize("argv, unloaded", [
        ("plot --in d.csv --out d.svg",
         {"algebra", "spectrum", "hamiltonian", "crossings", "discriminant"}),
        ("fit --in d.csv --model power-in-E --out fit.txt",
         {"algebra", "spectrum", "hamiltonian", "crossings", "discriminant"}),
        ("spectrum --b-max 0.1 --points 3 --out s.csv",
         {"crossings", "discriminant", "plotting"}),
        ("hamiltonian --b-tesla 0.1 --out h.txt",
         {"crossings", "discriminant", "plotting"}),
    ])
    def test_command_loads_only_what_it_runs(self, argv, unloaded, tmp_path):
        (tmp_path / "d.csv").write_text("e_vcm,gap\n1,2\n2,8\n3,18\n4,32\n5,50\n",
                                        encoding="utf-8")
        code = f"import ohcross.cli\nassert ohcross.cli.run({argv.split()!r}) == 0\n"
        modules, _ = _loaded_after(code, tmp_path)
        assert not modules & {f"ohcross.{name}" for name in unloaded}, modules


def test_package_errors_exit_2_for_validation_only(monkeypatch, capsys):
    # every exception class the package defines: the three validation
    # families exit 2, malformed input (config, fit and plot data) exits 1
    from ohcross import fitting, hamiltonian, model, plotting, spectrum
    modules = (algebra, crossings, discriminant, fitting, hamiltonian, model,
               plotting, spectrum)
    classes = {cls.__name__: cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == module.__name__}
    exit_2 = {"ValidationError", "AlgebraError", "ResidualError", "RootOverflowError",
              "SpectrumError", "HermiticityViolationError", "CrossingError",
              "NoCriticalFieldError", "BranchError", "ResolventMismatchError"}
    exit_1 = {"ConfigError", "FitError", "InsufficientDataError",
              "NonPositiveDataError", "PlotError"}
    assert set(classes) == exit_2 | exit_1
    for name, cls in classes.items():
        def fail(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_molecule", fail)
        assert run(["hamiltonian"]) == (2 if name in exit_2 else 1), name
        assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("argv, code, message", [
    ("crossings --e-vcm 1e200 --theta-deg 60", 2, "discriminant factors overflow "),
    ("crossings --e-vcm 1e50 --theta-deg 60", 2, "discriminant factors overflow "),
    ("b1 --vs e --e-min 10 --e-max 1e200 --theta-deg 60 --points 3", 2,
     "resolvent closed form overflows "),
    (f"plot --in {GOLDEN / 'mol.json'}", 1, "data file has no rows\n"),
    ("crossings --e-vcm -inf", 1, "e_field must be >= 0\n"),
])
def test_fresh_process_exit_codes(argv, code, message, tmp_path):
    # the error classes that exit 2 share a base class in model, which
    # every launch loads, so a fresh process keeps each exit code
    done = _fresh(["-m", "ohcross", *argv.split()], tmp_path)
    assert done.returncode == code
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {message}") and done.stderr.count("\n") == 1
