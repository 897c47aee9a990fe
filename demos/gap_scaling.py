"""How the avoided-crossing gap scales with electric field and angle.

The gap at the first crossing grows like E^3 at small fields, and its
angular shape walks down from |sin theta|^3 through |sin theta|^2 to
|sin theta| as the field grows. Both claims are checked by fits here.
"""

import math
import pathlib

import numpy as np

from ohcross import (FieldConfiguration, MoleculeParameters,
                     b1_exact_tilde, best_shape_exponent, fit_power_law,
                     gap_lowest_pair, render_line_plot, scale_parameters)

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

mol = MoleculeParameters()
theta = math.pi / 3.0


def gaps_at(e_vcm, th):
    """Gaps at the first crossing along a sweep of E (V/cm) or theta: one
    b1 call and one stacked gap measurement for the whole sweep."""
    p = scale_parameters(mol, FieldConfiguration(e_field=e_vcm * 100.0, theta=th))
    b1 = b1_exact_tilde(p.e_tilde, p.delta_tilde, p.theta)
    return gap_lowest_pair(p.with_b_tilde(b1))


es = np.linspace(10.0, 70.0, 13)
gaps_e = gaps_at(es, theta)
fit = fit_power_law(es, gaps_e, "power-in-E")
print(f"gap vs E over [10, 70] V/cm: exponent {fit.exponent:.4f}, "
      f"coefficient {fit.coefficient:.3e} GHz/(V/cm)^{fit.exponent:.0f}")

thetas = np.linspace(math.pi / 6.0, math.pi / 2.0, 25)
shape_series = []
for e_vcm in (300.0, 1400.0, 4000.0):
    gaps_t = gaps_at(e_vcm, thetas)
    p = best_shape_exponent(thetas, gaps_t)
    print(f"gap shape at {e_vcm:.0f} V/cm: closest to |sin theta|^{p}")
    shape_series.append((gaps_t / gaps_t.max()).tolist())

svg = render_line_plot(thetas, shape_series,
                       ["300 V/cm", "1.4 kV/cm", "4 kV/cm"],
                       title="normalized gap vs angle",
                       x_label="theta (rad)", y_label="gap / peak")
(OUT / "gap_shapes.svg").write_text(svg)
print(f"wrote {OUT / 'gap_shapes.svg'}")
