"""Photon statistics, quadrature moments, and signal-to-noise ratios.

The numeric pipeline works directly on amplitude vectors through ladder-matrix
elements and makes no family-specific assumptions; it is the source of truth
for all emitted data.  The published closed-form expressions for each pointer
family are also evaluated, verbatim as printed, purely as cross-checks: any
discrepancy is reported, never silently corrected (several of the printed
forms contain typographical defects; see the errata output of the CLI).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .measurement_engine import (
    MeasurementConfig,
    PostSelectedPointer,
    fail_first_row,
    final_pointer_analytic,
)
from .pointer_states import Cat, Coherent, PointerState, Squeezed, annihilation_op, build_pointer
from .qubit_system import modular_value

SNR_MODE_FINAL = "final"   # signal is the final-state quadrature mean
SNR_MODE_SHIFT = "shift"   # signal is the final-minus-initial quadrature shift

#: Marker notes attached to cross-checks that cannot produce a reference value.
NOTE_INCOMPLETE = "incomplete in print"
NOTE_NOT_PRINTED = "no printed closed form"

_State = Union[PointerState, PostSelectedPointer]


@dataclass(frozen=True)
class QuadratureSpec:
    """Angle of the quadrature ``X_theta = (a e^{-i theta} + a+ e^{i theta}) / sqrt(2)``.

    ``theta = 0`` is the position-like x direction.
    """

    theta: float = 0.0


@dataclass(frozen=True)
class SnrInput:
    """Resource count and success probability entering the SNR.

    ``ps`` is whichever post-selection probability convention the caller
    chose (exact or the bare ``cos^2(theta1)``), and ``signal_mode`` selects
    the numerator: the final-state mean or the shift from the initial state.
    """

    n_total: int
    ps: float
    signal_mode: str = SNR_MODE_SHIFT

    def __post_init__(self):
        check_snr_inputs(np.array([self.n_total]), np.array([self.ps]), self.signal_mode)


@dataclass(frozen=True)
class CrossCheckReport:
    """Numeric-pipeline value vs the printed reference form for one quantity.

    ``reference`` is None when no usable printed form exists; ``note`` then
    says why.  Otherwise ``abs_discrepancy == |numeric - reference|``.
    """

    quantity: str
    numeric: float
    reference: Optional[float]
    abs_discrepancy: Optional[float]
    note: str = ""


def _amplitudes(state: _State) -> np.ndarray:
    return np.asarray(state.amplitudes, dtype=complex)


# Kernels over the last axis: each takes a (rows, dim) block of amplitude
# vectors and returns one value per row.  The scalar functions below apply
# them to a single row, so both routes share every formula and every check.

def number_distribution_rows(amps: np.ndarray) -> np.ndarray:
    """Row-wise ``p(n) = |c_n|^2`` of unit-norm states."""
    p = np.abs(amps) ** 2
    total = np.sum(p, axis=-1)
    fail_first_row(np.abs(total - 1.0) > 1e-9, lambda i: ValueError(
        f"state norm {float(total[i])!r} is not 1; distribution undefined"))
    return p


def _mean_number(p: np.ndarray) -> np.ndarray:
    return np.sum(np.arange(p.shape[-1]) * p, axis=-1)


def _second_factorial(p: np.ndarray) -> np.ndarray:
    n = np.arange(p.shape[-1])
    return np.sum(n * (n - 1) * p, axis=-1)


def mandel_q_rows(amps: np.ndarray) -> np.ndarray:
    """Row-wise Mandel Q; fails on the first row with (numerically) no photons."""
    p = number_distribution_rows(amps)
    nbar = _mean_number(p)
    fail_first_row(nbar <= 1e-12, lambda i: ValueError(
        "Mandel Q is undefined for the vacuum (zero mean photon number)"))
    return (_second_factorial(p) - nbar**2) / nbar


def _ladder_expectation(amps: np.ndarray) -> np.ndarray:
    # <a> = sum_k conj(c_k) c_{k+1} sqrt(k+1)
    terms = np.conj(amps[..., :-1])
    terms *= amps[..., 1:]
    terms *= np.sqrt(np.arange(1.0, amps.shape[-1]))
    return np.sum(terms, axis=-1)


def _ladder_squared_expectation(amps: np.ndarray) -> np.ndarray:
    # <a^2> = sum_k conj(c_k) c_{k+2} sqrt((k+1)(k+2))
    k = np.arange(amps.shape[-1] - 2)
    terms = np.conj(amps[..., :-2])
    terms *= amps[..., 2:]
    terms *= np.sqrt((k + 1.0) * (k + 2.0))
    return np.sum(terms, axis=-1)


def quadrature_mean_rows(amps: np.ndarray, theta) -> np.ndarray:
    """Row-wise ``<X_theta>``; ``theta`` is one angle or one per row."""
    return math.sqrt(2.0) * (np.exp(-1j * np.asarray(theta)) * _ladder_expectation(amps)).real


def quadrature_second_moment_rows(amps: np.ndarray, theta) -> np.ndarray:
    """Row-wise ``<X_theta^2> = <n> + 1/2 + Re(e^{-2 i theta} <a^2>)``."""
    nbar = _mean_number(np.abs(amps) ** 2)
    return nbar + 0.5 + (np.exp(-2j * np.asarray(theta))
                         * _ladder_squared_expectation(amps)).real


def check_snr_inputs(n_total: np.ndarray, ps: np.ndarray, signal_mode: str) -> None:
    """Row-wise validation of the SNR resources (see :class:`SnrInput`)."""
    fail_first_row(n_total < 1, lambda i: ValueError("n_total must be a positive integer"))
    fail_first_row(~((0.0 < ps) & (ps <= 1.0)), lambda i: ValueError("ps must lie in (0, 1]"))
    if signal_mode not in (SNR_MODE_FINAL, SNR_MODE_SHIFT):
        raise ValueError(f"unknown signal mode {signal_mode!r}")


def snr_rows(mean_final: np.ndarray, second_final: np.ndarray,
             mean_initial: Optional[np.ndarray], n_total: np.ndarray,
             ps: np.ndarray) -> np.ndarray:
    """Row-wise ``sqrt(N * P_s) |signal| / std(X_theta)`` from the quadrature moments.

    The signal is the final-state mean, or its shift from ``mean_initial``
    when that is given.
    """
    variance = second_final - mean_final**2
    fail_first_row(variance <= 0.0, lambda i: ValueError(
        f"non-positive quadrature variance {float(variance[i])!r}; "
        f"the truncated state is unusable"))
    signal = mean_final if mean_initial is None else mean_final - mean_initial
    return np.sqrt(n_total * ps) * np.abs(signal) / np.sqrt(variance)


def number_distribution(state: _State) -> np.ndarray:
    """``p(n) = |c_n|^2`` of a unit-norm state."""
    return number_distribution_rows(_amplitudes(state)[None])[0]


def mean_photon_number(state: _State) -> float:
    return float(_mean_number(number_distribution(state)))


def second_factorial_moment(state: _State) -> float:
    """``<a+ a+ a a> = sum n (n-1) p(n)``."""
    return float(_second_factorial(number_distribution(state)))


def mandel_q(state: _State) -> float:
    """``(<a+ a+ a a> - <n>^2) / <n>``: 0 for coherent light, -1 for a Fock state."""
    return float(mandel_q_rows(_amplitudes(state)[None])[0])


def quadrature_mean(state: _State, q: QuadratureSpec = QuadratureSpec()) -> float:
    """``<X_theta>`` from ladder matrix elements; no family assumptions."""
    return float(quadrature_mean_rows(_amplitudes(state)[None], q.theta)[0])


def quadrature_second_moment(state: _State, q: QuadratureSpec = QuadratureSpec()) -> float:
    """``<X_theta^2> = <n> + 1/2 + Re(e^{-2 i theta} <a^2>)``."""
    return float(quadrature_second_moment_rows(_amplitudes(state)[None], q.theta)[0])


def quadrature_operator(q: QuadratureSpec, dim: int) -> np.ndarray:
    """Matrix of ``X_theta`` at truncation ``dim`` (oracle route for the moments)."""
    a = annihilation_op(dim)
    return (a * cmath.exp(-1j * q.theta) + a.conj().T * cmath.exp(1j * q.theta)) / math.sqrt(2.0)


def snr(final: PostSelectedPointer, initial: PointerState,
        q: QuadratureSpec, inp: SnrInput) -> float:
    """``sqrt(N * P_s) |signal| / std(X_theta)`` under the final state.

    The signal is the final-state quadrature mean (``final`` mode) or the
    final-minus-initial shift (``shift`` mode); ``P_s`` comes from the caller
    through ``inp`` so either probability convention can be used.
    """
    mean_final = np.array([quadrature_mean(final, q)])
    second_final = np.array([quadrature_second_moment(final, q)])
    mean_initial = None if inp.signal_mode == SNR_MODE_FINAL else quadrature_mean(initial, q)
    return float(snr_rows(mean_final, second_final, mean_initial, inp.n_total, inp.ps)[0])


# --- verbatim published closed forms, evaluated as cross-checks ---------------

def _coherent_reference(spec: Coherent, m: int, mv: complex, delta2: float,
                        quantity: str, theta: float) -> tuple[Optional[float], str]:
    alpha = spec.alpha
    a2 = abs(alpha) ** 2
    expa2 = math.exp(a2)
    mvc = mv.conjugate()
    if quantity == "mean_n":
        value = (math.exp(-a2) / delta2) * (
            a2 * expa2 - a2**m * m / math.factorial(m) * (1.0 - abs(mv) ** 2))
        return value, ""
    if quantity == "mean_n2":
        value = (math.exp(-a2) / delta2) * (
            a2**2 * expa2 - a2**m * m * (m - 1) / math.factorial(m) * (1.0 - abs(mv) ** 2))
        return value, ""
    if quantity == "quad_mean":
        # As printed, the bare exp(|alpha|^2) term sits inside Re() but outside
        # the conj(alpha) * e^{i theta} product; kept verbatim.
        braces = (mv - 1.0) * a2**m / math.factorial(m)
        if m >= 1:
            braces += (mvc - 1.0) * a2**(m - 1) / math.factorial(m - 1)
        value = (math.sqrt(2.0) * math.exp(-a2) / delta2) * \
            (alpha.conjugate() * braces * cmath.exp(1j * theta) + expa2).real
        return value, ""
    if quantity == "quad_second":
        cm2 = math.exp(-a2) * a2**m / math.factorial(m)
        bracket = expa2 + (mv - 1.0) * a2**m / math.factorial(m)
        if m >= 2:
            bracket += (mvc - 1.0) * a2**(m - 2) / math.factorial(m - 2)
        value = (a2 + cm2 * (abs(mv) ** 2 - 1.0) * m) / delta2 + 0.5 \
            + (alpha.conjugate() ** 2 * math.exp(-a2) * cmath.exp(2j * theta)
               * bracket).real / delta2
        return value, ""
    raise ValueError(f"unknown quantity {quantity!r}")


def _squeezed_reference(spec: Squeezed, beta: np.ndarray, m: int, mv: complex,
                        quantity: str, theta: float) -> tuple[Optional[float], str]:
    alpha = complex(spec.alpha)
    ch, sh = math.cosh(spec.r), math.sinh(spec.r)
    a2 = abs(alpha) ** 2
    bm = beta[m]
    bm2 = abs(bm) ** 2
    eta2 = 1.0 - bm2 + bm2 * abs(mv) ** 2
    mvc = mv.conjugate()

    def b(k: int) -> complex:
        return beta[k] if 0 <= k < beta.size else 0.0 + 0.0j

    if quantity == "mean_n":
        # Printed without the 1/eta^2 normalization; kept verbatim.
        return a2 + sh**2 - bm2 * m * (1.0 - abs(mv) ** 2), ""
    if quantity == "mean_n2":
        value = abs(alpha * ch - alpha.conjugate() * cmath.exp(1j * spec.theta_sq) * sh) ** 2 \
            + 2.0 * sh**2 * ch**2 \
            + (a2 + sh**2) * (1.0 + a2 + sh**2) \
            - bm2 * (1.0 - abs(mv) ** 2) * m * (m - 1)
        return value, ""
    if quantity == "quad_mean":
        inner = alpha.conjugate() \
            + (mv - 1.0) * np.conj(b(m + 1)) * bm * math.sqrt(m + 1) \
            + (mvc - 1.0) * np.conj(bm) * b(m - 1) * math.sqrt(m)
        return math.sqrt(2.0) / eta2 * (inner * cmath.exp(1j * theta)).real, ""
    if quantity == "quad_second":
        value = (a2 + sh**2 + bm2 * (abs(mv) ** 2 - 1.0) * m) / eta2 + 0.5
        value += ((mvc - 1.0) * np.conj(bm) * b(m - 2) * math.sqrt(m * (m - 1))
                  * cmath.exp(2j * theta)).real / eta2
        value += ((alpha.conjugate() ** 2
                   - cmath.exp(-1j * spec.theta_sq) * sh * ch
                   + (mv - 1.0) * np.conj(b(m + 2)) * bm * math.sqrt((m + 1) * (m + 2)))
                  * cmath.exp(2j * theta)).real / eta2
        return value, ""
    raise ValueError(f"unknown quantity {quantity!r}")


def _cat_reference(spec: Cat, normalized: np.ndarray, m: int, mv: complex,
                   quantity: str, theta: float) -> tuple[Optional[float], str]:
    if quantity in ("mean_n", "mean_n2"):
        return None, NOTE_NOT_PRINTED
    if quantity == "quad_second":
        # The printed expression starts mid-equation and lacks the <n> + 1/2
        # terms entirely; there is nothing verbatim to evaluate.
        return None, NOTE_INCOMPLETE
    if quantity == "quad_mean":
        alpha = complex(spec.alpha)
        a2 = abs(alpha) ** 2
        norm_const = 2.0 + 2.0 * math.exp(-2.0 * a2) * math.cos(spec.phi_cat)
        # Unnormalized amplitudes and the matching normalizer
        # w^2 = N + |c_m|^2 (|mv|^2 - 1).
        c = normalized * math.sqrt(norm_const)
        w2 = norm_const + abs(c[m]) ** 2 * (abs(mv) ** 2 - 1.0)

        def cc(k: int) -> complex:
            return c[k] if 0 <= k < c.size else 0.0 + 0.0j

        inner = (mv - 1.0) * np.conj(cc(m + 1)) * c[m] * math.sqrt(m + 1) \
            + (mv.conjugate() - 1.0) * np.conj(c[m]) * cc(m - 1) * math.sqrt(m) \
            + alpha.conjugate() * (2.0 + 2j * math.sin(spec.phi_cat) * math.exp(-2.0 * a2))
        return math.sqrt(2.0) / w2 * (inner * cmath.exp(1j * theta)).real, ""
    raise ValueError(f"unknown quantity {quantity!r}")


def closed_form_check(cfg: MeasurementConfig, quantity: str,
                      quad_theta: float = 0.0) -> CrossCheckReport:
    """Compare the numeric pipeline against the printed reference closed form.

    ``quantity`` is one of ``mean_n`` (mean photon number), ``mean_n2``
    (second factorial moment ``<a+ a+ a a>``), ``quad_mean`` (``<X_theta>``),
    or ``quad_second`` (``<X_theta^2>``).  The reference expression is
    evaluated exactly as printed for the pointer family of ``cfg``;
    discrepancies are returned for the caller (the errata report) to record.
    """
    final = final_pointer_analytic(cfg)
    q = QuadratureSpec(theta=quad_theta)
    if quantity == "mean_n":
        numeric = mean_photon_number(final)
    elif quantity == "mean_n2":
        numeric = second_factorial_moment(final)
    elif quantity == "quad_mean":
        numeric = quadrature_mean(final, q)
    elif quantity == "quad_second":
        numeric = quadrature_second_moment(final, q)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")

    mv = modular_value(cfg.sel)
    spec = cfg.pointer
    if isinstance(spec, Coherent):
        reference, note = _coherent_reference(spec, cfg.m, mv, final.delta**2,
                                              quantity, quad_theta)
    elif isinstance(spec, Squeezed):
        beta = build_pointer(spec, cfg.dim).amplitudes
        reference, note = _squeezed_reference(spec, beta, cfg.m, mv, quantity, quad_theta)
    elif isinstance(spec, Cat):
        amps = build_pointer(spec, cfg.dim).amplitudes
        reference, note = _cat_reference(spec, amps, cfg.m, mv, quantity, quad_theta)
    else:
        raise ValueError("no reference closed form exists for a custom pointer")

    discrepancy = None if reference is None else abs(numeric - reference)
    return CrossCheckReport(quantity=quantity, numeric=numeric, reference=reference,
                            abs_discrepancy=discrepancy, note=note)
