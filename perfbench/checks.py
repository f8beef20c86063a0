"""Correctness gates applied to every pass, outside the timed loop.

* figures: every panel CSV is compared with ``reference/figures.tar.xz``,
  the output of the nine figure verbs at the commit that introduced this
  benchmark (``modvalsim figure figN --out DIR/figN.csv`` for N = 1..9, packed
  with tar and xz).  Text and integer columns must match exactly; float
  columns within ``REL_TOL`` relative, with an absolute floor ``ABS_FLOOR``
  for values that are zero up to rounding (Mandel Q at modular value 1, the
  SNR of an unshifted pointer, the truncation leak of a complete basis).
  Every pass must also be byte-identical to the first pass of the run.
* check: every call must print PASS with a deviation below ``CHECK_TOL``.
* point_queries: every value must be finite; a fixed-size sample of queries
  with ``dim <= 128`` is recomputed through ``final_pointer_oracle`` and the
  observables and must agree within ``ORACLE_TOL``.
"""

from __future__ import annotations

import csv
import math
import re
import tarfile
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.tar.xz"

REL_TOL = 1e-13
#: 20x the largest rounding residue in the reference (4.9e-15, Mandel Q of a
#: coherent pointer at modular value 1 in fig2).
ABS_FLOOR = 1e-13
TEXT_COLUMNS = {"quantity", "family", "snr_mode", "ps_convention"}
INT_COLUMNS = {"n", "m", "dim", "n_total"}

CHECK_TOL = 1e-9
_CHECK_LINE = re.compile(r"max amplitude deviation (\S+) \(tolerance \S+\) -> (PASS|FAIL)")

ORACLE_SAMPLE = 12
ORACLE_MAX_DIM = 128
ORACLE_TOL = 1e-9


def load_reference() -> dict[str, str]:
    """Panel file name -> CSV text of the stored figure outputs."""
    with tarfile.open(REFERENCE, "r:xz") as tar:
        return {m.name: tar.extractfile(m).read().decode() for m in tar.getmembers()}


def _field_ok(column: str, got: str, want: str) -> bool:
    if column in TEXT_COLUMNS or column in INT_COLUMNS or want == "" or got == "":
        return got == want
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(a) and abs(a - b) <= max(REL_TOL * abs(b), ABS_FLOOR)


def compare_csv(got: str, want: str) -> tuple[int, str]:
    """Number of rows of ``want`` that ``got`` does not reproduce, and the first mismatch."""
    want_lines = want.splitlines()
    got_lines = got.splitlines()
    rows = len(want_lines) - 1
    if not got_lines or got_lines[0] != want_lines[0]:
        return rows, "header differs"
    header = want_lines[0].split(",")
    failed, first = 0, ""
    for i in range(1, len(want_lines)):
        want_row = want_lines[i].split(",")
        got_row = got_lines[i].split(",") if i < len(got_lines) else []
        bad = [c for c, g, w in zip(header, got_row, want_row) if not _field_ok(c, g, w)]
        if len(got_row) != len(want_row) or bad:
            failed += 1
            first = first or f"row {i}: columns {bad or 'missing'}"
    extra = max(0, len(got_lines) - len(want_lines))
    if extra and not first:
        first = f"{extra} extra rows"
    return failed + extra, first


def check_figure_pass(out_dir: Path, reference: dict[str, str], first: dict):
    """(failed rows, messages) of one figures pass.

    ``first`` maps each file to the run's first pass text and its comparison;
    a later pass is compared again only where its bytes differ from it.
    """
    failed, messages = 0, []
    for name, want in sorted(reference.items()):
        path = out_dir / name
        got = path.read_text() if path.exists() else ""
        if name not in first:
            first[name] = (got, *compare_csv(got, want))
        first_text, bad, why = first[name]
        if got != first_text:
            bad, why = compare_csv(got, want)
            diff = sum(a != b for a, b in zip(got.splitlines(), first_text.splitlines()))
            bad, why = max(bad, diff, 1), why or "bytes differ from the first pass"
        if bad:
            failed += bad
            messages.append(f"{out_dir.name}/{name}: {bad} rows fail ({why})")
    return failed, messages


def check_call_output(code: int, stdout: str) -> tuple[bool, float]:
    """(passed, max deviation) of one ``check`` call."""
    match = _CHECK_LINE.search(stdout)
    if code != 0 or match is None:
        return False, math.nan
    deviation = float(match.group(1))
    return match.group(2) == "PASS" and deviation < CHECK_TOL, deviation


def row_value(row: str | None) -> float:
    """``value`` column of a one-row CSV data line (NaN when there is no row)."""
    if row is None:
        return math.nan
    return float(next(csv.reader([row]))[-1])


def oracle_value(query: workloads.PointQuery) -> float:
    """The query's value through the joint-unitary oracle route instead of the analytic one."""
    from modvalsim.measurement_engine import MeasurementConfig, final_pointer_oracle
    from modvalsim.observables import (QuadratureSpec, SnrInput, mandel_q, number_distribution,
                                       quadrature_mean, quadrature_second_moment, snr)
    from modvalsim.pointer_states import Cat, Coherent, Squeezed, build_pointer
    from modvalsim.qubit_system import SelectionConfig

    p = dict(query.params)
    if query.family == "coherent":
        spec = Coherent(gamma=p["gamma"], phi=p["phi"])
    elif query.family == "squeezed":
        spec = Squeezed(alpha=complex(p["alpha_re"], p["alpha_im"]), r=p["r"],
                        theta_sq=p["theta_sq"])
    else:
        spec = Cat(alpha=complex(p["alpha_re"], p["alpha_im"]), phi_cat=p["phi_cat"])
    cfg = MeasurementConfig(sel=SelectionConfig(theta1=p["theta1"], phi1=p["phi1"], g=p["g"]),
                            pointer=spec, m=p["m"], dim=p["dim"])
    final = final_pointer_oracle(cfg)
    quad = QuadratureSpec(theta=p.get("quad_theta", 0.0))
    if query.quantity == "p_n":
        return float(number_distribution(final)[p["n"]])
    if query.quantity == "mandel_q":
        return mandel_q(final)
    if query.quantity == "quad_mean":
        return quadrature_mean(final, quad)
    if query.quantity == "quad_second":
        return quadrature_second_moment(final, quad)
    ps = final.ps_paper if p["ps"] == "paper" else final.ps_exact
    return snr(final, build_pointer(spec, p["dim"]), quad,
               SnrInput(n_total=p["n_total"], ps=ps, signal_mode=p["snr_mode"]))


def oracle_agrees(query: workloads.PointQuery, value: float) -> bool:
    want = oracle_value(query)
    return abs(value - want) <= ORACLE_TOL * max(1.0, abs(want))
