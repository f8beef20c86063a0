"""The columnar sweep engine (``run_sweep``) against the scalar reference route
(``evaluate_point``), row by row."""

import itertools
import math

import pytest

from modvalsim.sweep_cli import FIGURES, SweepSpec, evaluate_point, run_sweep

REL_TOL = 1e-13
ABS_FLOOR = 1e-13
EXACT_COLUMNS = {"quantity", "family", "snr_mode", "ps_convention", "n", "m", "dim", "n_total"}


def grid_params(spec):
    names = [name for name, _ in spec.sweeps]
    for combo in itertools.product(*(values for _, values in spec.sweeps)):
        yield {**spec.fixed, **dict(zip(names, combo))}


def scalar_rows(spec):
    return [evaluate_point(spec.family, spec.quantity, params, snr_mode=spec.snr_mode,
                           ps_convention=spec.ps_convention)
            for params in grid_params(spec)]


def assert_rows_agree(got, want):
    assert len(got) == len(want)
    for i, (row, ref) in enumerate(zip(got, want)):
        assert row.keys() == ref.keys()
        for col, expected in ref.items():
            value = row[col]
            if col in EXACT_COLUMNS or isinstance(expected, str):
                assert value == expected, (i, col)
            else:
                assert abs(value - expected) <= max(REL_TOL * abs(expected), ABS_FLOOR), \
                    (i, col, value, expected)


def figure_panels():
    for figure_id, fig in FIGURES.items():
        for suffix, overrides in fig.panels:
            spec = SweepSpec(quantity=fig.quantity, family=fig.family,
                             fixed={**fig.base, **overrides}, sweeps=fig.sweeps)
            yield pytest.param(spec, id=figure_id + suffix)


@pytest.mark.parametrize("spec", figure_panels())
def test_figure_panels_match_scalar_route(spec):
    assert_rows_agree(run_sweep(spec), scalar_rows(spec))


@pytest.mark.parametrize("spec", [
    # dim innermost: consecutive rows alternate dim, so every block is one row
    SweepSpec("mandel_q", "coherent", {"gamma": 1.5, "m": 3},
              (("modval", (1.0, 4.0)), ("dim", (24, 40, 64)))),
    SweepSpec("snr", "squeezed", {"alpha_re": 0.5, "r": 0.3},
              (("dim", (48, 96)), ("modval", (2.0, 7.0, 12.0)), ("quad_theta", (0.0, 0.7)))),
    # one point, no swept axis
    SweepSpec("snr", "cat", {"alpha_re": 1.2, "alpha_im": -0.4, "phi_cat": 0.9,
                             "theta1": 0.8, "phi1": 2.1, "g": 1.1, "m": 3, "n_total": 7},
              (), snr_mode="final", ps_convention="exact"),
    SweepSpec("p_n", "squeezed", {"alpha_re": 0.3, "alpha_im": 0.2, "r": 0.4,
                                  "theta_sq": 1.0, "n": 4, "m": 4}, ()),
], ids=["dim-inner", "dim-outer", "one-point-snr", "one-point-p_n"])
def test_mixed_dim_and_single_point_sweeps_match_scalar_route(spec):
    assert_rows_agree(run_sweep(spec), scalar_rows(spec))


def first_scalar_error(spec):
    for params in grid_params(spec):
        try:
            evaluate_point(spec.family, spec.quantity, params, snr_mode=spec.snr_mode,
                           ps_convention=spec.ps_convention)
        except (ValueError, ArithmeticError) as exc:
            return exc
    raise AssertionError("the grid has no invalid row")


@pytest.mark.parametrize("spec", [
    # orthogonal selection in the middle of the axis
    SweepSpec("mandel_q", "coherent", {"phi1": 0.3, "g": 1.0},
              (("theta1", (0.1, 0.5, math.pi / 2, 1.0)),)),
    # dim too small for one projector level
    SweepSpec("p_n", "coherent", {"gamma": 1.0, "dim": 64}, (("m", (2, 10, 62, 3)),)),
    # row 1 leaves the basis; row 2 fails post-selection, a check that runs first
    SweepSpec("p_n", "cat", {"alpha_re": 1e-7, "phi_cat": math.pi, "m": 1},
              (("modval", (1.0, 0.0)), ("n", (0, 70)))),
    # row 1 leaves the basis; row 2 has a negative modular value, refused on resolving
    SweepSpec("p_n", "coherent", {"gamma": 1.0}, (("modval", (1.0, -1.0)), ("n", (0, 70)))),
], ids=["orthogonal", "dim-too-small", "level-before-floor", "level-before-modval"])
def test_invalid_grid_fails_like_its_first_invalid_row(spec):
    expected = first_scalar_error(spec)
    with pytest.raises(type(expected)) as info:
        run_sweep(spec)
    assert str(info.value) == str(expected)
