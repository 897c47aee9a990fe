"""Each demo runs and prints its headline.

A demo runs in process from a copy in a temporary directory, so its out/
directory is made there and demos/out/ is left alone.
"""

import pathlib
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

HEADLINES = {
    "spectrum_sweep.py": ["levels 4 and 5 first touch at B = 0.049626 T"],
    "discriminant_audit.py": ["  overall: PASS", "  suspect coefficients: g6",
                              "  overall: FAIL"],
    "gap_scaling.py": ["gap shape at 300 V/cm: closest to |sin theta|^3",
                       "gap shape at 1400 V/cm: closest to |sin theta|^2",
                       "gap shape at 4000 V/cm: closest to |sin theta|^1"],
    "locate_crossings.py": ["2 kV/cm, perpendicular fields",
                            "    0.049626  4-5      real             0  f1-analytic"],
}


def test_every_demo_has_a_headline():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_prints_its_headline(name, tmp_path, capsys):
    copy = tmp_path / name
    shutil.copyfile(DEMOS / name, copy)
    runpy.run_path(str(copy), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for headline in HEADLINES[name]:
        assert headline in lines, headline
