"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from modvalsim import sweep_cli  # noqa: E402


def _modvalsim_bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "modvalsim" or name.startswith("modvalsim.")
            for attr, value in vars(mod).items() if callable(value)}


def test_query_generator_is_deterministic_for_a_seed():
    assert workloads.point_queries(7) == workloads.point_queries(7)
    assert workloads.point_queries(7) != workloads.point_queries(8)
    assert workloads.check_calls(7) == workloads.check_calls(7)
    assert workloads.check_calls(7) != workloads.check_calls(8)


def test_queries_stay_in_the_accepted_domain_and_parse(tmp_path):
    parser = sweep_cli._build_parser()
    for seed in range(3):
        for q in workloads.point_queries(seed):
            dim = q.param("dim")
            assert dim in workloads.DIMS
            assert q.param("theta1") <= 1.4
            if q.family == "squeezed":
                assert q.param("r") <= (1.0 if dim >= 128 else 0.5)
            args = parser.parse_args(q.argv(tmp_path / "q.csv"))
            assert args.pointer == q.family and args.dim == dim and args.m == q.param("m")


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and b [50, 90]
    spans = [(2, "c", 15, 25, 1, 0), (1, "a", 10, 40, 0, 0),
             (3, "b", 50, 90, 0, 0), (0, "root", 0, 100, -1, 0)]
    assert tracing.self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40}


def test_pass_layer_metrics_counts_and_ratios():
    build = tracing.BUILD_POINTER
    spans = [(1, build, 0, 1_000_000, 0, 0), (2, build, 1_000_000, 3_000_000, 0, 0),
             (0, "sweep_cli.main", 0, 4_000_000, -1, 0)]
    out = tracing.pass_layer_metrics(spans, ops=4, distinct={build: 1}, levels=128)
    assert out[f"{build}.calls"] == 2
    assert out[f"{build}.self_ms"] == pytest.approx(3.0)
    assert out["sweep_cli.main.self_ms"] == pytest.approx(1.0)
    assert out[f"{build}.calls_per_op"] == 0.5
    assert out[f"{build}.distinct_ratio"] == 0.5
    assert out[f"{build}.us_per_level"] == pytest.approx(3000 / 128)
    assert out["numerics.mat_exp.large.calls"] == 0


def test_tracer_wraps_every_alias_and_restores_the_originals(tmp_path):
    before = _modvalsim_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = sys.modules["modvalsim.qubit_system"].mat_exp
        assert wrapped is not before[("modvalsim.numerics", "mat_exp")]
        for module in ("numerics", "qubit_system", "pointer_states", "measurement_engine"):
            assert getattr(sys.modules[f"modvalsim.{module}"], "mat_exp") is wrapped
        assert wrapped.__wrapped__ is before[("modvalsim.numerics", "mat_exp")]
        assert sweep_cli.main(["sweep", "--quantity", "mandel_q",
                               "--out", str(tmp_path / "q.csv")]) == 0
    finally:
        tracer.restore()
    assert _modvalsim_bindings() == before
    names = [s[1] for s in tracer.spans]
    assert names.count("numerics.mat_exp.small") == 2
    assert names.count(tracing.BUILD_POINTER) == 2
    by_id = {s[0]: s for s in tracer.spans}
    # every mat_exp span sits inside a modular_value span
    assert all(by_id[s[4]][1] == tracing.MODULAR_VALUE
               for s in tracer.spans if s[1] == "numerics.mat_exp.small")


def test_untraced_pass_leaves_no_wrapper(tmp_path):
    before = _modvalsim_bindings()
    record = worker.run_pass(sweep_cli, "check", 0, tmp_path / "pass")
    assert _modvalsim_bindings() == before
    assert not any(hasattr(f, "__wrapped__") for f in before.values())
    assert "layers" not in record
    assert record["codes"] == [0] * workloads.CHECK_CALLS_PER_PASS


def test_latencies_are_divided_by_the_slowness_around_each_call():
    ref = list(calibrate.REFERENCE_S)
    # calls 0 and 1 fall between samples 0 and 1, call 2 between samples 1 and 2
    record = {"latencies_s": [1.0, 2.0, 3.0], "cal_s": [ref, [3 * t for t in ref], [2 * t for t in ref]],
              "cal_before": [0, 0, 1]}
    assert run.scaled_latencies(record, "figures") == pytest.approx([0.5, 1.0, 1.2])
    other = dict(record, latencies_s=[3.0, 0.0, 3.0])
    assert run.call_latencies("figures", [record, other, record]) == pytest.approx([0.5, 1.0, 1.2])


def test_slowness_weighs_the_kernel_parts_by_workload():
    ref = list(calibrate.REFERENCE_S)
    matmul_twice_as_slow = ref[:2] + [2 * ref[2]] + ref[3:]
    shares = calibrate.SHARES["check"]
    assert calibrate.slowness(ref, "check") == pytest.approx(1.0)
    assert calibrate.slowness(matmul_twice_as_slow, "check") == pytest.approx(
        1 + shares[2] / sum(shares))
    assert set(calibrate.SHARES) == set(workloads.WORKLOADS) | {"setup"}
    assert all(len(shares) == len(calibrate.PARTS) for shares in calibrate.SHARES.values())


def test_pass_brackets_every_call_with_kernel_samples(tmp_path):
    record = worker.run_pass(sweep_cli, "figures", 0, tmp_path / "pass")
    assert len(record["cal_before"]) == len(record["latencies_s"]) == len(workloads.FIGURE_IDS)
    assert record["cal_before"] == sorted(record["cal_before"])
    assert record["cal_before"][-1] + 1 == len(record["cal_s"]) - 1
    assert all(len(parts) == len(calibrate.PARTS) and min(parts) > 0 for parts in record["cal_s"])


def test_reference_comparison_is_exact_on_text_and_tolerant_on_floats():
    header = "quantity,m,value"
    want = f"{header}\nsnr,2,1.0\nsnr,2,3e-15\n"
    assert checks.compare_csv(want, want) == (0, "")
    assert checks.compare_csv(f"{header}\nsnr,2,1.00000000000001\nsnr,2,-2e-14\n", want)[0] == 0
    assert checks.compare_csv(f"{header}\nsnr,2,1.000000000001\nsnr,2,3e-15\n", want)[0] == 1
    assert checks.compare_csv(f"{header}\nSNR,2,1.0\nsnr,3,3e-15\n", want)[0] == 2
    assert checks.compare_csv(f"{header}\nsnr,2,nan\n", want)[0] == 2
