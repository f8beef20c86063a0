import csv

import pytest

from modvalsim.sweep_cli import (
    CSV_HEADER,
    FIGURES,
    SweepSpec,
    errata_report,
    evaluate_point,
    evaluate_row,
    main,
    rows_to_csv,
    run_figure,
    run_sweep,
)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_csv_header_pinned():
    assert CSV_HEADER == (
        "quantity,family,n,alpha_re,alpha_im,gamma,phi,r,theta_sq,phi_cat,"
        "g,theta1,phi1,modval_re,modval_im,m,dim,quad_theta,n_total,"
        "snr_mode,ps_convention,ps_exact,ps_paper,truncation_leak,value")


def test_fig1_rows(tmp_path):
    (path,) = run_figure("fig1", out=tmp_path / "fig1.csv")
    rows = read_rows(path)
    assert len(rows) == 4 * 16  # four modular values, levels 0..15
    assert {row["quantity"] for row in rows} == {"p_n"}
    assert {row["family"] for row in rows} == {"coherent"}
    p2 = [float(r["value"]) for r in rows if r["n"] == "2"]
    assert len(p2) == 4
    assert all(a < b for a, b in zip(p2, p2[1:]))


def test_fig1_deterministic(tmp_path):
    (first,) = run_figure("fig1", out=tmp_path / "a.csv")
    (second,) = run_figure("fig1", out=tmp_path / "b.csv")
    assert first.read_bytes() == second.read_bytes()


def test_figure_panel_outputs(tmp_path):
    paths = run_figure("fig5", out=tmp_path / "fig5.csv")
    assert [p.name for p in paths] == ["fig5a.csv", "fig5b.csv"]
    for path in paths:
        rows = read_rows(path)
        assert {row["family"] for row in rows} == {"squeezed"}
        assert all(float(row["truncation_leak"]) < 1e-10 for row in rows)


def test_figure_panel_override_collapses(tmp_path):
    paths = run_figure("fig5", overrides={"r": 0.5}, out=tmp_path / "only.csv")
    assert [p.name for p in paths] == ["only.csv"]
    rows = read_rows(paths[0])
    assert {row["r"] for row in rows} == {"0.5"}


def test_figure_rejects_unknown_override(tmp_path):
    with pytest.raises(ValueError):
        run_figure("fig1", overrides={"squeeze": 1.0}, out=tmp_path / "x.csv")


def test_snr_rows_carry_conventions(tmp_path):
    paths = run_figure("fig3", out=tmp_path / "fig3.csv")
    rows = read_rows(paths[0])
    assert {row["snr_mode"] for row in rows} == {"shift"}
    assert {row["ps_convention"] for row in rows} == {"paper"}
    assert all(row["n_total"] == "1" for row in rows)


def test_sweep_monotone_amplified_probability(tmp_path):
    spec = SweepSpec(quantity="p_n", family="coherent",
                     fixed={"gamma": 2.0, "phi": 0.0, "m": 2, "n": 2},
                     sweeps=(("modval", tuple(float(v) for v in range(1, 21))),),
                     out_path=tmp_path / "sweep.csv")
    rows = run_sweep(spec)
    values = [row["value"] for row in rows]
    assert len(values) == 20
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_degenerate_sweep_single_row():
    rows = run_sweep(SweepSpec(quantity="mandel_q", family="coherent",
                               fixed={}, sweeps=()))
    assert len(rows) == 1


def test_sweep_rejects_dim_too_small_for_projector():
    spec = SweepSpec(quantity="mandel_q", family="coherent",
                     fixed={"m": 10, "dim": 4}, sweeps=())
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_sweep_rejects_unknown_parameter():
    spec = SweepSpec(quantity="mandel_q", family="coherent",
                     fixed={}, sweeps=(("volume", (1.0,)),))
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_rows_are_self_describing(tmp_path):
    paths = run_figure("fig9", out=tmp_path / "fig9.csv")
    rows = read_rows(paths[0])
    for row in rows[::97] + rows[-1:]:
        assert abs(evaluate_row(row) - float(row["value"])) < 1e-12
    (path,) = run_figure("fig1", out=tmp_path / "fig1.csv")
    for row in read_rows(path)[::13]:
        assert abs(evaluate_row(row) - float(row["value"])) < 1e-12


def test_serialization_roundtrip():
    row = evaluate_point("coherent", "mandel_q", {"gamma": 1.234567890123456,
                                                  "modval": 7.0})
    text = rows_to_csv([row])
    parsed = list(csv.DictReader(text.splitlines()))[0]
    assert float(parsed["value"]) == float(row["value"])
    assert float(parsed["theta1"]) == float(row["theta1"])


def test_errata_required_entries():
    text = errata_report()
    for required in ("Eq. 13", "Eq. 31", "Eq. 35"):
        assert required in text
    for agreeing in ("Eq. 18", "Eq. 19", "Eq. 21", "Eq. 28", "Eq. 29"):
        assert agreeing not in text


def test_errata_file_written(tmp_path):
    out = tmp_path / "errata.txt"
    text = errata_report(out)
    assert out.read_text() == text


def test_all_figures_have_definitions():
    assert sorted(FIGURES) == [f"fig{i}" for i in range(1, 10)]


def test_figure_table_points_agree_with_oracle():
    # sample each figure's parameter table through both measurement routes
    import numpy as np

    from modvalsim.measurement_engine import (
        MeasurementConfig,
        align_global_phase,
        final_pointer_analytic,
        final_pointer_oracle,
    )
    from modvalsim.qubit_system import selection_for_modular_value
    from modvalsim.sweep_cli import _pointer_spec

    for figure_id, fig in FIGURES.items():
        panel_overrides = fig.panels[0][1]
        params = {**fig.base, **panel_overrides}
        sweep_values = dict(fig.sweeps)
        modval = sweep_values["modval"][-1]
        for name, values in sweep_values.items():
            if name not in ("modval", "n"):
                params[name] = values[len(values) // 2]
        dim = int(params.get("dim", 64))
        cfg = MeasurementConfig(sel=selection_for_modular_value(float(modval)),
                                pointer=_pointer_spec(fig.family, {**params}),
                                m=int(params["m"]), dim=dim)
        analytic = align_global_phase(final_pointer_analytic(cfg).amplitudes)
        oracle = align_global_phase(final_pointer_oracle(cfg).amplitudes)
        assert np.max(np.abs(analytic - oracle)) < 1e-10, figure_id


def test_cli_figure(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--out", str(out)]) == 0
    assert out.exists()
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_figure_override(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--gamma", "1.0", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert {row["gamma"] for row in rows} == {"1"}


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--pointer", "cat", "--alpha-re", "0.5", "--phi-cat", "0.3",
                 "--quantity", "mandel_q", "--sweep", "modval=1:5:5",
                 "--out", str(out)])
    assert code == 0
    assert len(read_rows(out)) == 5


def test_cli_sweep_explicit_list(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--quantity", "p_n", "--n", "2",
                 "--sweep", "modval=1,5,10,20", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 4


def test_cli_rejects_bad_dim(tmp_path):
    code = main(["sweep", "--m", "10", "--dim", "4", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_check_passes():
    assert main(["check", "--n-configs", "20"]) == 0


def test_cli_errata(tmp_path, capsys):
    out = tmp_path / "errata.txt"
    assert main(["errata", "--out", str(out)]) == 0
    assert "Eq. 31" in capsys.readouterr().out
    assert out.exists()


@pytest.mark.parametrize("argv,param", [
    (["--pointer", "coherent", "--gamma", "nan"], "gamma"),
    (["--pointer", "coherent", "--phi", "inf"], "phi"),
    (["--pointer", "squeezed", "--alpha-re", "nan"], "alpha"),
    (["--pointer", "squeezed", "--r", "inf"], "r"),
    (["--pointer", "squeezed", "--theta-sq", "nan"], "theta_sq"),
    (["--pointer", "cat", "--alpha-im=-inf"], "alpha"),
    (["--pointer", "cat", "--phi-cat", "nan"], "phi_cat"),
    (["--pointer", "coherent", "--sweep", "gamma=inf,2"], "gamma"),
])
def test_cli_rejects_non_finite_pointer_parameters(tmp_path, capsys, argv, param):
    out = tmp_path / "x.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    assert f"{param} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--modval", "5", "--theta1", "0.1"],
    ["--modval", "5", "--phi1", "0.2"],
    ["--modval", "5", "--g", "1.0"],
    ["--modval", "5", "--sweep", "theta1=0.1,0.2"],
    ["--sweep", "modval=1,5", "--g", "1.0"],
])
def test_cli_rejects_modval_with_selection_parameters(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    assert "modval" in capsys.readouterr().err
    assert not out.exists()
