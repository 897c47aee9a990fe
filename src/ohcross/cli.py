"""Command-line driver.

Subcommands:
  spectrum     sweep the magnetic field and tabulate all eight levels
  crossings    validated crossing catalog at a fixed electric configuration
  b1           first-crossing location versus E or versus theta
  gap          crossing gap at the first crossing versus E or theta
  fit          power-law fit of a two-column data file
  audit        randomized discriminant factorization audit
  plot         render a data file as an SVG line plot
  hamiltonian  dump the 8x8 matrix at one configuration

Exit codes: 0 success, 1 usage or input error, 2 validation failure.
Every command is deterministic: identical invocations emit identical bytes.
Each handler returns its text and exit code; run writes the text (to
--out or stdout) and maps errors to exit codes.
Data files are UTF-8 CSV with '#' provenance comments echoing all inputs,
a header row naming columns with units, and 12-significant-digit values.

Each launch is a fresh process, so each command imports only what it runs:
this module loads numpy, argparse and the model and fitting modules the
parser reads, and each handler imports the modules of its own command.

argv is read in one pass when it is well formed: a command, then exact
long options, none repeated, each with a value its type and choices
accept (or none, for a flag). The pass reads the option table, defaults,
required options and exclusive groups of the command's own argparse
parser, and returns the Namespace argparse would. Everything else (-h,
--opt=value, abbreviations, unknown, repeated or malformed options) goes
to argparse unchanged, so help, usage, messages and exit codes are
argparse's. Both read every token float() reads as a value, so -2e-2 and
-inf are values and not options.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys

import numpy as np

from .fitting import FIT_MODELS, fit_power_law
from .model import (DEBYE, GHZ_PER_INVERSE_CM, FieldConfiguration,
                    MoleculeParameters, ValidationError, b_field_from_tilde,
                    molecule_from_config, scale_parameters)

# GHz per output unit: energies print as internal GHz divided by this.
_GHZ_PER_UNIT = {"percm": GHZ_PER_INVERSE_CM, "ghz": 1.0}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)

    def _parse_optional(self, arg_string):
        # every token float() reads is a value: -2e-2 and -inf, not only -0.02
        if _is_number(arg_string):
            return None
        return super()._parse_optional(arg_string)


# Every number in a data file or fit report prints with this format:
# "%.12g" % v is format(float(v), ".12g") for floats, ints and np.float64.
_NUMBER = "%.12g"


def _fmt(value) -> str:
    return _NUMBER % value


def _open_in_place(path, flags):
    # open()'s own flags minus O_TRUNC, with its own 0o666 mode
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _emit(text: str, out_path) -> None:
    """Write text to out_path, or to stdout when out_path is empty.

    A file is rewritten in place: opened without O_TRUNC, written from
    offset 0, then cut to the new length when it was longer. On ext4
    (auto_da_alloc, the default) closing a file that was truncated to zero
    starts its writeback at once: on a 2-CPU ext4 host a rewrite of
    0.3-30 KB took 69-121 us that way against 12-22 us in place. A new
    file costs the same both ways, so only rewrites gain. Only a regular
    file is cut, so /dev/null, /dev/stdout and FIFOs work as before.

    This gives up a crash guarantee of the truncating open. On ext4 that
    flush meant a crash left the file empty or holding the new bytes. Now
    a crash before writeback can leave the old bytes, a mix of old and
    new, or old bytes cut to the new length: a file that looks well formed
    but is stale. Outputs are deterministic, so rerun the command after a
    crash. A write that fails (disk full, I/O error) cuts the file to zero
    before the error is raised, so it never holds new rows followed by
    old ones.
    """
    if not out_path:
        sys.stdout.write(text)
        return
    # unbuffered, so close() has no bytes left to write after a failed
    # write is cut; a raw write may be short, hence the loop
    with open(out_path, "wb", buffering=0, opener=_open_in_place) as fh:
        st = os.fstat(fh.fileno())
        regular = stat.S_ISREG(st.st_mode)
        try:
            data = text.encode("utf-8")
            view = memoryview(data)
            while view:
                view = view[fh.write(view):]
        except BaseException:
            if regular:
                fh.truncate(0)
            raise
        if regular and st.st_size > len(data):
            fh.truncate(len(data))


def _csv(command: str, provenance: dict, header, rows) -> str:
    """CSV text of a provenance block, a header and rows (a 2-D float array
    or a list of lists). The cell types of the first row fix the row
    format, str cells as they are and numbers as _NUMBER, and one
    %-format fills the whole block."""
    lines = [f"# ohcross {command}"]
    for key in sorted(provenance):
        value = provenance[key]
        text = _fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"# {key} = {text}")
    lines.append(",".join(header))
    if len(rows):
        row_fmt = ",".join("%s" if isinstance(cell, str) else _NUMBER
                           for cell in rows[0])
        cells = (rows.ravel().tolist() if isinstance(rows, np.ndarray)
                 else [cell for row in rows for cell in row])
        lines.append("\n".join([row_fmt] * len(rows)) % tuple(cells))
    return "\n".join(lines) + "\n"


def _molecule(args) -> MoleculeParameters:
    if args.config:
        return molecule_from_config(args.config)
    return MoleculeParameters()


def _molecule_provenance(mol: MoleculeParameters) -> dict:
    return {
        "delta_ghz": mol.lambda_doubling / (2.0 * math.pi * 1e9),
        "mu_e_debye": mol.electric_dipole / DEBYE,
    }


def _theta(args) -> float:
    if args.theta_deg is not None:
        return math.radians(args.theta_deg)
    return 0.0 if args.theta_rad is None else args.theta_rad


def _theta_range(args) -> tuple:
    deg = (args.theta_min_deg, args.theta_max_deg)
    rad = (args.theta_min_rad, args.theta_max_rad)
    if deg != (None, None):
        if None in deg or rad != (None, None):
            raise ValueError("theta sweep takes --theta-min-deg with "
                             "--theta-max-deg, not mixed with radians")
        return math.radians(deg[0]), math.radians(deg[1])
    if None in rad:
        raise ValueError("theta sweep needs --theta-min-deg/--theta-max-deg "
                         "or --theta-min-rad/--theta-max-rad")
    return float(rad[0]), float(rad[1])


def _sweep(lo, hi, points: int, bounds: str):
    """np.linspace(lo, hi, points), after rejecting a missing, non-finite
    (NaN included) or unordered sweep range, one whose span max - min
    overflows, or too few points; `bounds` names the bound options in the
    messages. All checks run on Python floats, before the array is built."""
    if lo is None or hi is None:
        raise ValueError(f"sweep needs both {bounds}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{bounds} must be finite")
    if not lo < hi:
        raise ValueError("sweep range must satisfy min < max")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{bounds} span max - min overflows")
    if points < 2:
        raise ValueError("sweep needs at least 2 points")
    return np.linspace(lo, hi, points)


def _table(header: list, lines: list):
    """The data lines as one (row, column) float array from one np.loadtxt
    call, whose C reader gives float()'s value bit for bit. Rows it refuses
    or skips, and lines holding U+001C..U+001F (it strips them around a
    cell, float() refuses them), take the row-by-row pass of _float_rows."""
    width = len(header)
    text = "\n".join(lines)
    # all-blank input would make loadtxt warn that it holds no data
    if text.strip("\n") and not any(c in text for c in "\x1c\x1d\x1e\x1f"):
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape == (len(lines), width):
                return table
    return _float_rows(width, lines)


def _float_rows(width: int, lines: list):
    """The data lines parsed row by row with float(): the (row, column)
    table, or PlotError naming the first bad line."""
    from .plotting import PlotError

    rows = []
    for line in lines:
        cells = line.split(",")
        if len(cells) != width:
            raise PlotError(f"row has {len(cells)} cells, header has {width}")
        try:
            rows.append(list(map(float, cells)))
        except ValueError as exc:
            raise PlotError(f"non-numeric value in data row: {line}") from exc
    return np.array(rows, dtype=float).reshape(-1, width)


def _read_data(path) -> tuple:
    """Parse a CSV data file: ('#' comments skipped) header + float rows.

    Returns the header and a (column, row) float array, the rows parsed
    by _table in one np.loadtxt call. The file is decoded a block (8 KiB)
    at a time, so bytes that do not decode raise as their block is read:
    a bad row before them wins only when it ends in an earlier block.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for raw in fh:
                line = raw.strip()
                if line and not line.startswith("#"):
                    lines.append(line)
        except UnicodeDecodeError:
            if len(lines) > 1:
                _table(lines[0].split(","), lines[1:])
            raise
    if len(lines) < 2:
        from .plotting import PlotError

        raise PlotError("data file has no rows")
    header = lines[0].split(",")
    return header, _table(header, lines[1:]).T


def _cmd_spectrum(args) -> tuple:
    from .spectrum import analytic_spectrum

    mol = _molecule(args)
    theta = _theta(args)
    b = _sweep(args.b_min, args.b_max, args.points, "--b-min/--b-max")
    p = scale_parameters(mol, FieldConfiguration(
        e_field=args.e_vcm * 100.0, b_field=b, theta=theta))
    lams = analytic_spectrum(p.b_tilde, p.e_tilde, p.delta_tilde, p.theta)
    rows = np.column_stack([b, lams / _GHZ_PER_UNIT[args.unit]])
    provenance = {
        "b_min_tesla": float(args.b_min), "b_max_tesla": float(args.b_max),
        "points": args.points, "e_vcm": float(args.e_vcm),
        "theta_rad": theta, "unit": args.unit,
    }
    provenance.update(_molecule_provenance(mol))
    header = ["b_tesla"] + [f"lambda_{k}_{args.unit}" for k in range(1, 9)]
    return _csv("spectrum", provenance, header, rows), 0


def _cmd_crossings(args) -> tuple:
    from .crossings import crossing_catalog

    mol = _molecule(args)
    theta = _theta(args)
    p = scale_parameters(mol, FieldConfiguration(
        e_field=args.e_vcm * 100.0, b_field=0.0, theta=theta))
    records = crossing_catalog(p, include_mirror=args.include_mirror)
    rows = [[rec.b_location, rec.kind, f"{rec.pair[0]}-{rec.pair[1]}",
             rec.gap / _GHZ_PER_UNIT[args.unit], rec.source]
            for rec in records]
    provenance = {
        "e_vcm": float(args.e_vcm), "theta_rad": theta,
        "include_mirror": args.include_mirror, "unit": args.unit,
    }
    provenance.update(_molecule_provenance(mol))
    header = ["b_tesla", "kind", "pair", f"gap_{args.unit}", "source"]
    return _csv("crossings", provenance, header, rows), 0


# the sweep options each --vs leaves unread, in the parser's order
_UNREAD_FLAGS = {
    "e": ("e_vcm", "theta_min_deg", "theta_max_deg", "theta_min_rad", "theta_max_rad"),
    "theta": ("e_min", "e_max", "theta_deg", "theta_rad"),
}


def _sweep_fields(args, mol):
    """The b1 and gap sweep: its column name, its grid, the whole sweep as
    one ScaledParameters of arrays, whose every point has passed
    FieldConfiguration, and its provenance. A flag the sweep variable
    does not read is an error, before any other check.
    """
    unread = [f"--{name.replace('_', '-')}" for name in _UNREAD_FLAGS[args.vs]
              if getattr(args, name) is not None]
    if unread:
        raise ValueError(f"--vs {args.vs} does not read {', '.join(unread)}")
    if args.vs == "e":
        xs = _sweep(args.e_min, args.e_max, args.points, "--e-min/--e-max")
        if not math.isfinite(max(abs(args.e_min), abs(args.e_max)) * 100.0):
            raise ValueError("--e-min/--e-max: a bound overflows in V/m")
        e_field, theta = xs * 100.0, _theta(args)
        x_name = "e_vcm"
        provenance = {
            "vs": "e", "e_min_vcm": float(args.e_min),
            "e_max_vcm": float(args.e_max), "points": args.points,
            "theta_rad": theta,
        }
    else:
        lo, hi = _theta_range(args)
        xs = _sweep(lo, hi, args.points, "the theta bounds")
        e_vcm = 0.0 if args.e_vcm is None else float(args.e_vcm)
        e_field, theta = e_vcm * 100.0, xs
        x_name = "theta_rad"
        provenance = {
            "vs": "theta", "theta_min_rad": lo, "theta_max_rad": hi,
            "points": args.points, "e_vcm": e_vcm,
        }
    provenance.update(_molecule_provenance(mol))
    p = scale_parameters(mol, FieldConfiguration(e_field=e_field, theta=theta))
    return x_name, xs, p, provenance


def _cmd_b1(args) -> tuple:
    from .crossings import b1_approx_tilde, b1_exact_tilde

    x_name, xs, p, provenance = _sweep_fields(args, _molecule(args))
    exact = b1_exact_tilde(p.e_tilde, p.delta_tilde, p.theta)
    approx = b1_approx_tilde(p.e_tilde, p.delta_tilde, p.theta)
    rows = np.column_stack([xs, b_field_from_tilde(exact),
                            b_field_from_tilde(approx)])
    header = [x_name, "b1_exact_tesla", "b1_approx_tesla"]
    return _csv("b1", provenance, header, rows), 0


def _cmd_gap(args) -> tuple:
    from .crossings import b1_exact_tilde, gap_lowest_pair

    x_name, xs, p, provenance = _sweep_fields(args, _molecule(args))
    bt1 = b1_exact_tilde(p.e_tilde, p.delta_tilde, p.theta)
    gap = gap_lowest_pair(p.with_b_tilde(bt1)) / _GHZ_PER_UNIT[args.unit]
    provenance["unit"] = args.unit
    header = [x_name, f"gap_{args.unit}"]
    return _csv("gap", provenance, header, np.column_stack([xs, gap])), 0


def _cmd_fit(args) -> tuple:
    header, columns = _read_data(args.infile)
    if not 1 <= args.x_col <= len(columns) or not 1 <= args.y_col <= len(columns):
        raise ValueError(f"column selection outside 1..{len(columns)}")
    window = None
    if args.window_min is not None or args.window_max is not None:
        if args.window_min is None or args.window_max is None:
            raise ValueError("give both --window-min and --window-max")
        window = (args.window_min, args.window_max)
    xs = columns[args.x_col - 1]
    ys = columns[args.y_col - 1]
    result = fit_power_law(xs, ys, args.model, window=window)
    lo, hi = result.window
    used = np.count_nonzero((lo <= xs) & (xs <= hi))
    lines = [
        f"model: {result.model}",
        f"coefficient: {_fmt(result.coefficient)}",
        f"exponent: {_fmt(result.exponent)}",
        f"rms_residual: {_fmt(result.rms_residual)}",
        f"window_min: {_fmt(result.window[0])}",
        f"window_max: {_fmt(result.window[1])}",
        f"points_used: {used}",
    ]
    return "\n".join(lines) + "\n", 0


def _cmd_audit(args) -> tuple:
    from .discriminant import audit_triple

    mol = _molecule(args)
    fault = ("g6", -1.0) if args.inject_g6_flip else None
    report = audit_triple(molecule=mol, n_samples=args.samples,
                          seed=args.seed, fault=fault)
    lines = []
    for sec in report.sections:
        tag = "PASS" if sec.passed else "FAIL"
        lines.append(f"[{tag}] {sec.name}: max_rel={sec.max_rel_error:.6e} "
                     f"tol={sec.tolerance:.0e} samples={sec.samples}")
    if report.suspects:
        lines.append("suspects: " + ", ".join(report.suspects))
    lines.append(f"audit: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if report.passed else 2


def _cmd_plot(args) -> tuple:
    from .plotting import PlotError, render_line_plot

    header, columns = _read_data(args.infile)
    if len(columns) < 2:
        raise PlotError("plot needs an x column plus at least one series")
    svg = render_line_plot(
        columns[0], columns[1:], header[1:],
        title=args.title if args.title is not None else "",
        x_label=args.x_label if args.x_label is not None else header[0],
        y_label=args.y_label if args.y_label is not None else "")
    return svg, 0


def _cmd_hamiltonian(args) -> tuple:
    from .hamiltonian import build_hamiltonian

    mol = _molecule(args)
    theta = _theta(args)
    p = scale_parameters(mol, FieldConfiguration(
        e_field=args.e_vcm * 100.0, b_field=args.b_tesla, theta=theta))
    # + 0.0 turns negative zeros into plain zeros
    h = build_hamiltonian(p) + 0.0
    row = " ".join([_NUMBER] * len(h))
    return "\n".join([row] * len(h)) % tuple(h.ravel().tolist()) + "\n", 0


def _add_angle_flags(sp) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--theta-deg", type=float,
                       help="angle between fields, degrees")
    group.add_argument("--theta-rad", type=float,
                       help="angle between fields, radians")


def _add_output_flags(sp, unit: bool = True) -> None:
    sp.add_argument("--config", help="molecule config JSON file "
                                     "(keys delta_ghz, mu_e_debye)")
    sp.add_argument("--out", help="output path (default stdout)")
    if unit:
        sp.add_argument("--unit", choices=("percm", "ghz"), default="percm",
                        help="energy output unit (default percm)")


def _add_sweep_flags(sp) -> None:
    sp.add_argument("--vs", choices=("e", "theta"), required=True,
                    help="sweep variable")
    sp.add_argument("--e-vcm", type=float,
                    help="fixed electric field, V/cm (theta sweeps, default 0)")
    sp.add_argument("--e-min", type=float, help="sweep start, V/cm")
    sp.add_argument("--e-max", type=float, help="sweep end, V/cm")
    _add_angle_flags(sp)
    sp.add_argument("--theta-min-deg", type=float)
    sp.add_argument("--theta-max-deg", type=float)
    sp.add_argument("--theta-min-rad", type=float)
    sp.add_argument("--theta-max-rad", type=float)
    sp.add_argument("--points", type=int, default=51)


@functools.cache
def build_parser() -> _Parser:
    """Built once per process; parse_args keeps no state between calls."""
    parser = _Parser(prog="ohcross",
                     description="Level-crossing analysis of the eight-state "
                                 "Stark-Zeeman model")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("spectrum", help="tabulate all levels along B")
    sp.add_argument("--e-vcm", type=float, default=0.0)
    _add_angle_flags(sp)
    sp.add_argument("--b-min", type=float, default=0.0)
    sp.add_argument("--b-max", type=float, required=True)
    sp.add_argument("--points", type=int, default=101)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = subs.add_parser("crossings", help="crossing catalog at fixed E, theta")
    sp.add_argument("--e-vcm", type=float, default=0.0)
    _add_angle_flags(sp)
    sp.add_argument("--include-mirror", action="store_true",
                    help="also list the mirrored negative-B locations")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_crossings)

    sp = subs.add_parser("b1", help="first-crossing location sweep")
    _add_sweep_flags(sp)
    _add_output_flags(sp, unit=False)
    sp.set_defaults(func=_cmd_b1)

    sp = subs.add_parser("gap", help="first-crossing gap sweep")
    _add_sweep_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_gap)

    sp = subs.add_parser("fit", help="power-law fit of a data file")
    sp.add_argument("--in", dest="infile", required=True,
                    help="CSV data file to fit")
    sp.add_argument("--model", choices=FIT_MODELS, required=True)
    sp.add_argument("--window-min", type=float)
    sp.add_argument("--window-max", type=float)
    sp.add_argument("--x-col", type=int, default=1)
    sp.add_argument("--y-col", type=int, default=2)
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_fit)

    sp = subs.add_parser("audit", help="discriminant factorization audit")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--inject-g6-flip", action="store_true",
                    help="corrupt the g6 octic coefficient to exercise "
                         "breach detection and localization")
    _add_output_flags(sp, unit=False)
    sp.set_defaults(func=_cmd_audit)

    sp = subs.add_parser("plot", help="render a data file as SVG")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--title")
    sp.add_argument("--x-label")
    sp.add_argument("--y-label")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_plot)

    sp = subs.add_parser("hamiltonian", help="dump the 8x8 matrix")
    sp.add_argument("--b-tesla", type=float, default=0.0)
    sp.add_argument("--e-vcm", type=float, default=0.0)
    _add_angle_flags(sp)
    _add_output_flags(sp, unit=False)
    sp.set_defaults(func=_cmd_hamiltonian)

    return parser


@functools.cache
def _commands() -> dict:
    """Per command: its parser's option table, the Namespace values before
    any option is read, its required actions and its exclusive groups,
    read off build_parser() on first use."""
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    commands = {}
    for name, sp in subs.choices.items():
        # parse_known_args' order: action defaults, then set_defaults
        values = {}
        for action in sp._actions:
            if (action.dest is not argparse.SUPPRESS
                    and action.default is not argparse.SUPPRESS):
                values.setdefault(action.dest, action.default)
        for dest, value in sp._defaults.items():
            values.setdefault(dest, value)
        commands[name] = (
            sp._option_string_actions, {subs.dest: name, **values},
            frozenset(action for action in sp._actions if action.required),
            [frozenset(group._group_actions)
             for group in sp._mutually_exclusive_groups])
    return commands


def _read_argv(argv):
    """The Namespace build_parser().parse_args(argv) returns, read in one
    pass, or None when argv is not of the one form read here: a command
    name, then exact long options, none repeated, each followed by a value
    its type and choices accept (a value may start with '-' only when
    float() reads it) or, for a store_true flag, by nothing. Every required
    option is given and at most one flag of each exclusive group. argparse
    reads whatever returns None, with its own help, messages and exit codes.
    """
    command = _commands().get(argv[0]) if argv else None
    if command is None:
        return None
    options, values, required, groups = command
    values = dict(values)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        kind = type(action)
        if kind is argparse._StoreTrueAction:
            values[action.dest] = action.const
            continue
        if kind is not argparse._StoreAction or action.nargs is not None:
            return None
        value = next(tokens, None)
        if value is None or value[:1] == "-" and not _is_number(value):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= seen or any(len(group & seen) > 1 for group in groups):
        return None
    return argparse.Namespace(**values)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    try:
        if args is None:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, code = args.func(args)
        _emit(text, args.out)
        return code
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, ValidationError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
