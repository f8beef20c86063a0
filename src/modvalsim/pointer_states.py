"""Pointer states of a bosonic mode in a truncated Fock basis.

Three state families are provided as the meter of the post-selected
measurement scheme:

* coherent states ``|alpha>`` with ``alpha = gamma * exp(i*phi)``,
* displaced squeezed states ``D(alpha) S(xi) |0>`` with ``xi = r * exp(i*theta_sq)``,
* Schroedinger cat states ``(|alpha> + exp(i*phi_cat) |-alpha>) / sqrt(N)``.

All constructors build the amplitude vector with stable ratio recurrences
(never a bare ``n!``), keep the raw truncated coefficients without
renormalizing, and record the probability mass lost to the cutoff as
``truncation_leak``.  The displacement and squeeze operators are exposed as
well: applying them to the vacuum is an independent construction route used
to cross-check the recurrences.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .numerics import DEFAULT_EXP_TOL, hermite, mat_exp

#: Default Fock-space truncation.  Large enough that every parameter range
#: swept by the bundled figures leaks less than 1e-10.
DEFAULT_DIM = 64

#: Default upper bound on the probability mass beyond the cutoff.
DEFAULT_LEAK_TOL = 1e-10

#: Squared norm below which a cat superposition cannot be told from zero: the
#: parity factor ``1 + e^{i phi}`` of magnitude up to 2 is rounded to ~2 eps.
_CAT_NORM_FLOOR = (2.0 * sys.float_info.epsilon) ** 2


class TruncationError(ValueError):
    """A truncated Fock expansion left more probability above the cutoff than allowed."""


def _require_finite(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Coherent:
    """Coherent-state parameters; the amplitude is ``gamma * exp(i*phi)``."""

    gamma: float
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(self, "gamma", "phi")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

    @property
    def alpha(self) -> complex:
        return self.gamma * cmath.exp(1j * self.phi)


@dataclass(frozen=True)
class Squeezed:
    """Displaced squeezed state ``D(alpha) S(xi) |0>`` with ``xi = r * exp(i*theta_sq)``."""

    alpha: complex
    r: float
    theta_sq: float = 0.0

    def __post_init__(self):
        _require_finite(self, "alpha", "r", "theta_sq")
        if self.r < 0:
            raise ValueError("squeezing magnitude r must be non-negative")


@dataclass(frozen=True)
class Cat:
    """Cat state ``(|alpha> + exp(i*phi_cat) |-alpha>)`` up to normalization."""

    alpha: complex
    phi_cat: float

    def __post_init__(self):
        _require_finite(self, "alpha", "phi_cat")


@dataclass(frozen=True, eq=False)
class Custom:
    """Caller-supplied amplitude vector, taken as-is."""

    amplitudes: np.ndarray


PointerSpec = Union[Coherent, Squeezed, Cat, Custom]


@dataclass(frozen=True)
class PointerState:
    """Truncated Fock-basis amplitudes plus how they were built.

    ``truncation_leak`` is ``1 - sum |c_n|^2``: the probability mass the ideal
    infinite-dimensional state carries above the cutoff.
    """

    amplitudes: np.ndarray
    dim: int
    spec: PointerSpec
    truncation_leak: float


def _finish(amps: np.ndarray, spec: PointerSpec, leak_tol: float) -> PointerState:
    leak = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leak {leak:.3e} exceeds tolerance {leak_tol:.3e}; "
            f"increase dim beyond {amps.size} for {type(spec).__name__} {spec!r}"
        )
    if leak < -1e-9:
        raise ValueError(f"amplitudes carry more than unit norm (leak {leak:.3e})")
    amps.setflags(write=False)
    return PointerState(amplitudes=amps, dim=amps.size, spec=spec, truncation_leak=leak)


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    # c_0 = exp(-|alpha|^2 / 2), c_n = c_{n-1} * alpha / sqrt(n)
    steps = np.empty(dim, dtype=complex)
    steps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    steps[1:] = alpha / np.sqrt(np.arange(1.0, dim))
    return np.cumprod(steps)


def coherent_state(gamma: float, phi: float = 0.0, dim: int = DEFAULT_DIM,
                   leak_tol: float = DEFAULT_LEAK_TOL) -> PointerState:
    """Coherent state with amplitudes ``exp(-|a|^2/2) a^n / sqrt(n!)``, ``a = gamma e^{i phi}``."""
    spec = Coherent(gamma=gamma, phi=phi)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return _finish(_coherent_amplitudes(spec.alpha, dim), spec, leak_tol)


def squeezed_state(alpha: complex, r: float, theta_sq: float = 0.0,
                   dim: int = DEFAULT_DIM, leak_tol: float = DEFAULT_LEAK_TOL) -> PointerState:
    """Displaced squeezed state ``D(alpha) S(xi) |0>`` in the Fock basis.

    The state is the eigenvector of ``cosh(r) a + e^{i theta} sinh(r) a+`` with
    eigenvalue ``gamma = alpha cosh r + conj(alpha) e^{i theta} sinh r``, which
    gives the stable three-term recurrence used here:

        b_{n+1} = (gamma b_n - e^{i theta} sinh(r) sqrt(n) b_{n-1}) / (cosh(r) sqrt(n+1))

    with ``b_0 = exp(-|alpha|^2/2 - conj(alpha)^2 e^{i theta} tanh(r)/2) / sqrt(cosh r)``.
    This is the Hermite-polynomial closed form evaluated term-ratio-wise (see
    ``squeezed_amplitudes_closed_form``), so it stays finite for every ``r``.
    The removable ``r -> 0`` singularity of the closed form is dispatched to
    the coherent constructor.
    """
    alpha = complex(alpha)
    spec = Squeezed(alpha=alpha, r=r, theta_sq=theta_sq)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if r == 0.0:
        return _finish(_coherent_amplitudes(alpha, dim), spec, leak_tol)

    ch, sh = math.cosh(r), math.sinh(r)
    phase = cmath.exp(1j * theta_sq)
    gamma_eff = alpha * ch + alpha.conjugate() * phase * sh

    b0 = cmath.exp(-0.5 * abs(alpha) ** 2
                   - 0.5 * alpha.conjugate() ** 2 * phase * math.tanh(r)) / math.sqrt(ch)
    amps = [b0, gamma_eff * b0 / ch]
    phase_sh = phase * sh
    roots = np.sqrt(np.arange(float(dim))).tolist()
    for n in range(1, dim - 1):
        amps.append((gamma_eff * amps[n]
                     - phase_sh * roots[n] * amps[n - 1]) / (ch * roots[n + 1]))
    return _finish(np.array(amps[:dim], dtype=complex), spec, leak_tol)


def squeezed_amplitudes_closed_form(alpha: complex, r: float, theta_sq: float,
                                    dim: int) -> np.ndarray:
    """Squeezed-state amplitudes from the explicit Hermite-polynomial form.

    ``b_n = (cosh r)^{-1/2} exp(-|a|^2/2 - conj(a)^2 e^{i t} tanh(r)/2)
            * (e^{i t} tanh(r) / 2)^{n/2} / sqrt(n!) * H_n(gamma (e^{i t} sinh 2r)^{-1/2})``

    using principal square roots throughout.  Requires ``r > 0`` (the Hermite
    argument diverges as ``r -> 0``) and is prone to overflow for very small
    ``r`` at large ``dim``; it exists as an independent cross-check of the
    recurrence in :func:`squeezed_state`, not as the production route.
    """
    if r <= 0:
        raise ValueError("closed-form evaluation requires r > 0")
    alpha = complex(alpha)
    ch, sh = math.cosh(r), math.sinh(r)
    phase = cmath.exp(1j * theta_sq)
    gamma_eff = alpha * ch + alpha.conjugate() * phase * sh
    z = gamma_eff / cmath.sqrt(phase * math.sinh(2.0 * r))
    prefactor = cmath.exp(-0.5 * abs(alpha) ** 2
                          - 0.5 * alpha.conjugate() ** 2 * phase * math.tanh(r)) / math.sqrt(ch)
    half_step = cmath.sqrt(0.5 * phase * math.tanh(r))

    amps = np.zeros(dim, dtype=complex)
    ratio = 1.0 + 0.0j  # (e^{i t} tanh r / 2)^{n/2} / sqrt(n!)
    for n in range(dim):
        amps[n] = prefactor * ratio * hermite(n, z)
        ratio = ratio * half_step / math.sqrt(n + 1)
    return amps


def cat_state(alpha: complex, phi_cat: float, dim: int = DEFAULT_DIM,
              leak_tol: float = DEFAULT_LEAK_TOL) -> PointerState:
    """Normalized cat state ``(|alpha> + e^{i phi} |-alpha>) / sqrt(N)``.

    Fock amplitudes are
    ``N^{-1/2} exp(-|a|^2/2) a^n / sqrt(n!) * (1 + e^{i phi} (-1)^n)`` with
    ``N = 2 + 2 exp(-2|a|^2) cos(phi)``; only this square-root-factorial
    convention is consistent with that normalization constant.  ``N`` is
    evaluated as ``4 cos^2(phi/2) + 2 cos(phi) expm1(-2|a|^2)``: the first term
    equals ``|1 + e^{i phi}|^2`` of the parity factor below, so the odd cat at
    small ``|a|`` and ``phi = pi`` keeps unit norm instead of cancelling.
    """
    alpha = complex(alpha)
    spec = Cat(alpha=alpha, phi_cat=phi_cat)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    norm_const = 4.0 * math.cos(0.5 * phi_cat) ** 2 \
        + 2.0 * math.cos(phi_cat) * math.expm1(-2.0 * abs(alpha) ** 2)
    # Below (2 eps)^2 the norm is the rounding of phi_cat near pi, not the state.
    if norm_const <= _CAT_NORM_FLOOR:
        raise ValueError(
            "degenerate zero-norm cat state (alpha = 0 with phi_cat = pi); no state to build"
        )
    base = _coherent_amplitudes(alpha, dim)
    parity = np.where(np.arange(dim) % 2 == 0,
                      1.0 + cmath.exp(1j * phi_cat),
                      1.0 - cmath.exp(1j * phi_cat))
    return _finish(base * parity / math.sqrt(norm_const), spec, leak_tol)


def custom_state(amplitudes: np.ndarray, leak_tol: float = DEFAULT_LEAK_TOL) -> PointerState:
    """Wrap caller-supplied amplitudes, validating the norm budget."""
    amps = np.array(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size < 1:
        raise ValueError("amplitudes must be a non-empty 1-D vector")
    return _finish(amps, Custom(amplitudes=amps.copy()), leak_tol)


def build_pointer(spec: PointerSpec, dim: int = DEFAULT_DIM,
                  leak_tol: float = DEFAULT_LEAK_TOL) -> PointerState:
    """Construct the pointer state described by ``spec`` at truncation ``dim``."""
    if isinstance(spec, Coherent):
        return coherent_state(spec.gamma, spec.phi, dim, leak_tol)
    if isinstance(spec, Squeezed):
        return squeezed_state(spec.alpha, spec.r, spec.theta_sq, dim, leak_tol)
    if isinstance(spec, Cat):
        return cat_state(spec.alpha, spec.phi_cat, dim, leak_tol)
    if isinstance(spec, Custom):
        if spec.amplitudes.shape != (dim,):
            raise ValueError(
                f"custom amplitudes have dim {spec.amplitudes.shape}, requested {dim}"
            )
        return custom_state(spec.amplitudes, leak_tol)
    raise TypeError(f"unknown pointer spec {type(spec).__name__}")


def annihilation_op(dim: int) -> np.ndarray:
    """Truncated annihilation operator: ``sqrt(n)`` on the superdiagonal."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def displacement_op(alpha: complex, dim: int, tol: float = DEFAULT_EXP_TOL) -> np.ndarray:
    """Displacement operator ``D(alpha) = exp(alpha a+ - conj(alpha) a)`` at truncation ``dim``."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    a = annihilation_op(dim)
    generator = alpha * a.conj().T - np.conj(alpha) * a
    return mat_exp(generator, tol)


def squeeze_op(r: float, theta_sq: float, dim: int, tol: float = DEFAULT_EXP_TOL) -> np.ndarray:
    """Squeeze operator ``S(xi) = exp((conj(xi) a^2 - xi a+^2)/2)``, ``xi = r e^{i theta_sq}``."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    xi = r * cmath.exp(1j * theta_sq)
    a = annihilation_op(dim)
    adag = a.conj().T
    generator = 0.5 * (np.conj(xi) * (a @ a) - xi * (adag @ adag))
    return mat_exp(generator, tol)
