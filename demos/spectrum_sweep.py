"""Sweep the magnetic field and watch the middle pair pinch off.

Writes the full eight-level spectrum at theta = 60 deg to out/ as CSV
and SVG, then reports where the lowest positive level meets its mirror.
"""

import math
import pathlib

import numpy as np

from ohcross import (FieldConfiguration, MoleculeParameters,
                     analytic_spectrum, b1_exact_tilde, b_field_from_tilde,
                     render_line_plot, scale_parameters)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

mol = MoleculeParameters()
theta = math.radians(60.0)
b_grid = np.linspace(0.0, 0.2, 401)

p = scale_parameters(mol, FieldConfiguration(b_field=b_grid, theta=theta))
# one closed-form call for the whole grid: rows are points, columns levels
rows = analytic_spectrum(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta)

csv_path = OUT / "spectrum_theta60.csv"
with open(csv_path, "w") as fh:
    fh.write("b_tesla," + ",".join(f"lambda_{k}_ghz" for k in range(1, 9))
             + "\n")
    for b, lams in zip(b_grid, rows):
        fh.write(f"{b:.6g}," + ",".join(f"{v:.9g}" for v in lams) + "\n")

series = list(rows.T)
svg = render_line_plot(b_grid, series,
                       [f"level {k}" for k in range(1, 9)],
                       title="Stark-Zeeman levels, theta = 60 deg",
                       x_label="B (tesla)", y_label="energy (GHz)")
(OUT / "spectrum_theta60.svg").write_text(svg)

print(f"wrote {csv_path}")
# the closed-form first crossing, a one-point call
b1 = b1_exact_tilde(p.e_tilde, p.delta_tilde, p.theta)
print(f"levels 4 and 5 first touch at B = {b_field_from_tilde(b1):.6f} T")
