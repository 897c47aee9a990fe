"""SVG rendering contract: structure, determinism, input validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohcross import plotting
from ohcross.plotting import PlotError, _points, render_line_plot


X = [0.0, 1.0, 2.0, 3.0]


def test_basic_structure():
    svg = render_line_plot(X, [[0.0, 1.0, 4.0, 9.0]], ["squares"],
                           title="demo", x_label="x", y_label="y")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'width="800" height="560"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 1
    assert ">squares<" in svg
    assert ">demo<" in svg
    assert ">x<" in svg and ">y<" in svg


def test_one_polyline_per_series():
    svg = render_line_plot(X, [[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 3, 3]],
                           ["a", "b", "c"])
    assert svg.count("<polyline") == 3
    for name in ("a", "b", "c"):
        assert f">{name}<" in svg
    # later series are dashed so they stay distinguishable in grayscale
    assert svg.count("stroke-dasharray") >= 2


def test_deterministic_bytes():
    args = (X, [[0.5, 1.5, 2.5, 3.5]], ["series"])
    first = render_line_plot(*args, title="t", x_label="a", y_label="b")
    second = render_line_plot(*args, title="t", x_label="a", y_label="b")
    assert first == second


def test_escapes_markup_in_text():
    svg = render_line_plot(X, [[1, 2, 3, 4]], ["a<b & c>d"])
    assert "a&lt;b &amp; c&gt;d" in svg
    assert "a<b" not in svg


def test_constant_series_padded_not_error():
    svg = render_line_plot(X, [[2.0, 2.0, 2.0, 2.0]], ["flat"])
    assert "<polyline" in svg


@pytest.mark.parametrize("x, ys, labels, message", [
    ([1.0], [[2.0]], ["a"], "need at least two x values"),
    (X, [], [], "need at least one y series"),
    # ragged series: numpy would refuse them with its own message
    (X, [[1, 2, 3, 4], [1, 2]], ["a", "b"],
     "every series must match the length of x"),
    (X, [[1, 2, 3, 4, 5]], ["a"], "every series must match the length of x"),
    (X, [[1, 2, 3, 4]], ["a", "b"], "labels must match the number of series"),
    (X, [[1, 2, math.inf, 4]], ["a"], "data contains non-finite values"),
    ([0, 1, math.nan, 3], [[1, 2, 3, 4]], ["a"],
     "data contains non-finite values"),
    ([2, 2, 2, 2], [[1, 2, 3, 4]], ["a"], "x range is singular"),
    # hi - lo overflows; a span whose 1-2-5 step would underflow
    (X, [[1.7e308, 0, 0, -1.7e308]], ["a"], "y range -1.7e+308 to 1.7e+308 overflows"),
    ([0, 1e-323, 2e-323, 3e-323], [[1, 2, 3, 4]], ["a"],
     "x range 0.0 to 3e-323 is too narrow to tick"),
])
def test_error_messages(x, ys, labels, message):
    with pytest.raises(PlotError) as info:
        render_line_plot(x, ys, labels)
    assert str(info.value) == message


def test_array_input_matches_list_input():
    x = [0.0, 0.1, 0.25, 0.3]
    ys = [[3.0, -1.5, 0.125, 2.0], [0.0, 1.0, -2.0, 1e-9]]
    svg = render_line_plot(x, ys, ["a", "b"], title="t")
    assert render_line_plot(np.array(x), np.array(ys), ("a", "b"),
                            title="t") == svg
    assert ('<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
            'points="70.00,44.00 305.33,459.80 658.33,309.65 776.00,136.40"/>'
            in svg)


def test_rejects_short_x():
    with pytest.raises(PlotError):
        render_line_plot([1.0], [[2.0]], ["a"])


def test_rejects_no_series():
    with pytest.raises(PlotError):
        render_line_plot(X, [], [])


def test_rejects_length_mismatch():
    with pytest.raises(PlotError):
        render_line_plot(X, [[1.0, 2.0]], ["a"])


def test_rejects_label_count_mismatch():
    with pytest.raises(PlotError):
        render_line_plot(X, [[1, 2, 3, 4]], ["a", "b"])


def test_rejects_non_finite():
    with pytest.raises(PlotError):
        render_line_plot(X, [[1.0, math.nan, 2.0, 3.0]], ["a"])
    with pytest.raises(PlotError):
        render_line_plot([0.0, 1.0, math.inf, 3.0], [[1, 2, 3, 4]], ["a"])


def test_rejects_singular_x_range():
    with pytest.raises(PlotError):
        render_line_plot([2.0, 2.0, 2.0], [[1.0, 2.0, 3.0]], ["a"])


def test_negative_values_plot_fine():
    svg = render_line_plot(X, [[-3.0, -1.0, 1.0, 3.0]], ["signed"])
    assert "<polyline" in svg


def tick_labels(svg, anchor):
    """The tick labels of one axis: x ticks are centred, y ticks end-anchored."""
    cell = f'font-size="11" text-anchor="{anchor}">'
    return [part.split("<", 1)[0] for part in svg.split(cell)[1:]]


@pytest.mark.parametrize("hi,want", [
    (1.0000000000000009, ["1", "1.0000000000000002", "1.0000000000000004",
                          "1.0000000000000007", "1.0000000000000009"]),
    (1.000001, ["1", "1.0000002", "1.0000004", "1.0000006", "1.0000008",
                "1.000001"])])
def test_narrow_range_tick_labels_differ(hi, want):
    # %.6g would print every one of these ticks as 1
    svg = render_line_plot([1.0, hi], [[0.0, 1.0]], ["a"])
    assert tick_labels(svg, "middle") == want


def test_six_digit_tick_labels_where_they_suffice():
    # the x ticks sum 0.1 steps, so the last is 0.30000000000000004
    svg = render_line_plot([0.0, 0.3], [[-2.5, 7.0]], ["a"])
    assert tick_labels(svg, "middle") == ["0", "0.1", "0.2", "0.3"]
    assert tick_labels(svg, "end") == ["-2", "0", "2", "4", "6"]


def format_points(x, ys):
    """Each row's points text through the %-format, coordinate by coordinate."""
    fmt = " ".join(["%.2f,%%.2f"] * len(x)) % tuple(x)
    return [fmt % tuple(row) for row in ys]


def check_points(x, ys):
    got = _points(np.array(x, dtype=float), np.array(ys, dtype=float))
    assert got == format_points(x, ys)
    return got


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.floats(0.0, 1000.0, exclude_max=True), min_size=n, max_size=n),
    min_size=2, max_size=6)))
def test_points_match_the_format(rows):
    check_points(rows[0], rows[1:])


def test_points_at_exact_ties():
    # 100 c is exactly k + 0.5: "%.2f" rounds these half to even
    got = check_points([12.125, 0.375, 0.125], [[2.5, 0.625, 1.875]])
    assert got == ["12.12,2.50 0.38,0.62 0.12,1.88"]


def test_points_near_a_rounding_boundary():
    centre = np.array([0.005, 1.005, 2.675, 123.455, 500.005, 999.985])
    near = [centre]
    for _ in range(4):
        near = [np.nextafter(near[0], -1.0)] + near + [np.nextafter(near[-1], 2000.0)]
    rows = np.array(near).tolist()
    check_points(rows[0], rows[1:])
    check_points(centre.tolist(), rows)
    # 2e-6 from the tie in 100 c: past the guard, so the tables print these
    check_points((centre + 2e-8).tolist(), [(centre - 2e-8).tolist()])


def test_points_at_the_top_of_the_table():
    assert check_points([999.995, 1000.0, 999.99], [[1000.0, 999.994, 0.0]]) == [
        "1000.00,1000.00 1000.00,999.99 999.99,0.00"]


def test_points_keep_negative_zero():
    assert check_points([-0.0, 1.0], [[1.0, -0.0]]) == ["-0.00,1.00 1.00,-0.00"]


def test_one_tie_sends_every_polyline_to_the_format(monkeypatch):
    # px(1/16) = 70 + 706/16 = 114.125 exactly, a tie at two decimals
    x, ys, labels = [0.0, 0.0625, 1.0], [[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], ["a", "b"]
    tied = render_line_plot(x, ys, labels)
    plain = render_line_plot([0.0, 0.5, 1.0], ys, labels)
    assert "points=\"70.00,506.00 114.12,275.00 776.00,44.00\"" in tied
    # with wrong integer parts in the table only the tables' output moves
    monkeypatch.setattr(plotting, "_UNITS", plotting._UNITS[::-1].copy())
    assert render_line_plot(x, ys, labels) == tied
    assert render_line_plot([0.0, 0.5, 1.0], ys, labels) != plain
