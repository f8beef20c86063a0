"""Post-selected pointer evolution, computed two independent ways.

The coupling is ``g * sigma_x (x) |m><m|``.  The *analytic* route scales the
single pointer amplitude at the projector level ``m`` by the modular value and
renormalizes.  The *oracle* route builds the joint qubit+pointer state,
applies the exact joint unitary, projects onto the post-selected qubit state,
and normalizes.  Because the pointer coupling is a projector ``P``, powers
satisfy ``(A (x) P)^k = A^k (x) P`` for ``k >= 1`` and the joint unitary has
the exact closed form

    U = I (x) I + (exp(-i g sigma_x) - I) (x) |m><m|

which the oracle additionally cross-validates against a brute-force matrix
exponential on every call, so a disagreement localizes bugs immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import kron, mat_exp
from .pointer_states import (
    DEFAULT_DIM,
    DEFAULT_LEAK_TOL,
    Cat,
    Coherent,
    PointerSpec,
    Squeezed,
    build_pointer,
)
from .qubit_system import (
    SIGMA_X,
    SelectionConfig,
    modular_value,
    pre_state,
    selection_for_modular_value,
)

#: Post-selection probabilities below this make the normalized amplitudes
#: numerically meaningless.
DEFAULT_PS_FLOOR = 1e-12

#: Max-entry tolerance for the closed-form vs matrix-exponential unitary check.
UNITARY_CHECK_TOL = 1e-10


class PostSelectionError(ValueError):
    """Post-selection failed: the projected state has (numerically) no weight."""


@dataclass(frozen=True)
class MeasurementConfig:
    """Full description of one experiment: selection, pointer, projector level, cutoff."""

    sel: SelectionConfig
    pointer: PointerSpec
    m: int
    dim: int = DEFAULT_DIM

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not 0 <= self.m < self.dim:
            raise ValueError(f"projector level m={self.m} must satisfy 0 <= m < dim={self.dim}")


@dataclass(frozen=True)
class PostSelectedPointer:
    """Normalized final pointer amplitudes plus the selection bookkeeping.

    ``delta`` is the normalization ``sqrt(1 - |c_m|^2 + |c_m|^2 |modval|^2)``;
    ``ps_exact`` is the exact success probability of the full scheme (equal to
    ``cos^2(theta1) * delta^2``), while ``ps_paper`` is the bare projective
    overlap ``cos^2(theta1)``.  Both conventions are carried so downstream
    signal-to-noise figures can be produced under either.
    """

    amplitudes: np.ndarray
    delta: float
    ps_exact: float
    ps_paper: float


def delta_factor(c_m: complex, modval: complex) -> float:
    """Normalization of the final pointer: ``sqrt(1 - |c_m|^2 + |c_m|^2 |modval|^2)``."""
    cm2 = abs(c_m) ** 2
    return math.sqrt(1.0 - cm2 + cm2 * abs(modval) ** 2)


def fail_first_row(bad: np.ndarray, error) -> None:
    """Raise ``error(i)`` for the first row ``i`` where ``bad`` holds.

    The exception carries the row as ``row``, so a caller evaluating a block
    of rows can tell which row failed first.
    """
    if bad.any():
        i = int(np.argmax(bad))
        exc = error(i)
        exc.row = i
        raise exc


def post_select_rows(amps: np.ndarray, m: np.ndarray, modvals: np.ndarray,
                     ps_paper: np.ndarray) -> np.ndarray:
    """Batched analytic route: scale column ``m`` of each row by its modular value.

    ``amps`` holds one initial pointer per row and is overwritten with the
    normalized final pointers; ``ps_paper`` is ``cos^2(theta1)`` per row and
    the exact post-selection probabilities are returned.  The arithmetic and
    the post-selection floor are those of :func:`final_pointer_analytic`,
    applied row-wise.
    """
    rows = np.arange(amps.shape[0])
    c_m = amps[rows, m]
    cm2 = np.abs(c_m) ** 2
    delta = np.sqrt(1.0 - cm2 + cm2 * np.abs(modvals) ** 2)
    fail_first_row(delta**2 < DEFAULT_PS_FLOOR, lambda i: PostSelectionError(
        f"degenerate post-selection: |c_m| = {abs(c_m[i]):.3e} with modular value "
        f"{complex(modvals[i])!r} leaves no final-state weight"))
    amps[rows, m] *= modvals
    amps /= delta[:, None]
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2, axis=-1))[:, None]
    return ps_paper * delta**2


def final_pointer_analytic(cfg: MeasurementConfig,
                           leak_tol: float = DEFAULT_LEAK_TOL) -> PostSelectedPointer:
    """Final pointer from the per-level closed form.

    Amplitude ``n`` of the result is ``c_n * f(n) / delta`` where ``f(n)`` is
    the generalized modular factor (the modular value at ``n = m``, 1
    elsewhere); only the projector level is rescaled.
    """
    pointer = build_pointer(cfg.pointer, cfg.dim, leak_tol)
    mv = modular_value(cfg.sel)
    c_m = pointer.amplitudes[cfg.m]
    delta = delta_factor(c_m, mv)
    if delta**2 < DEFAULT_PS_FLOOR:
        raise PostSelectionError(
            f"degenerate post-selection: |c_m| = {abs(c_m):.3e} with modular value "
            f"{mv!r} leaves no final-state weight"
        )
    amps = np.array(pointer.amplitudes)
    amps[cfg.m] *= mv
    amps /= delta
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))  # absorb the truncation leak exactly
    amps.setflags(write=False)
    ps_paper = math.cos(cfg.sel.theta1) ** 2
    return PostSelectedPointer(amplitudes=amps, delta=delta,
                               ps_exact=ps_paper * delta**2, ps_paper=ps_paper)


def joint_evolution_operator(g: float, m: int, dim: int) -> np.ndarray:
    """Exact joint unitary ``exp(-i g sigma_x (x) |m><m|)`` on the 2*dim space.

    Built from the projector closed form and cross-validated entrywise against
    the scaled-Taylor matrix exponential of the generator.
    """
    if not 0 <= m < dim:
        raise ValueError(f"projector level m={m} must satisfy 0 <= m < dim={dim}")
    projector = np.zeros((dim, dim), dtype=complex)
    projector[m, m] = 1.0
    # exp(-i g sigma_x) = cos(g) I - i sin(g) sigma_x, since sigma_x^2 = I.
    qubit_evolution = math.cos(g) * np.eye(2, dtype=complex) - 1j * math.sin(g) * SIGMA_X
    unitary = kron(np.eye(2, dtype=complex), np.eye(dim, dtype=complex)) \
        + kron(qubit_evolution - np.eye(2, dtype=complex), projector)

    brute_force = mat_exp(-1j * g * kron(SIGMA_X, projector))
    deviation = float(np.max(np.abs(unitary - brute_force)))
    if deviation > UNITARY_CHECK_TOL:
        raise ArithmeticError(
            f"closed-form joint unitary deviates from the matrix exponential by "
            f"{deviation:.3e} (tolerance {UNITARY_CHECK_TOL:.1e})"
        )
    return unitary


def final_pointer_oracle(cfg: MeasurementConfig, ps_floor: float = DEFAULT_PS_FLOOR,
                         leak_tol: float = DEFAULT_LEAK_TOL) -> PostSelectedPointer:
    """Final pointer from exact joint evolution and projection.

    Evolves ``|pre> (x) |pointer>`` with the joint unitary, projects the qubit
    onto the post-selected ``|up>``, records the squared norm of the
    unnormalized remainder as the exact post-selection probability, then
    normalizes.  The result may differ from the analytic route by a global
    phase (the phase of the selection overlap); comparisons should quotient
    that out, e.g. with :func:`align_global_phase`.
    """
    pointer = build_pointer(cfg.pointer, cfg.dim, leak_tol)
    joint = np.kron(pre_state(cfg.sel).vector(), pointer.amplitudes)
    evolved = joint_evolution_operator(cfg.sel.g, cfg.m, cfg.dim) @ joint
    # Post-selection on |up> keeps the first pointer block of the joint vector.
    projected = evolved[:cfg.dim]
    ps_exact = float(np.vdot(projected, projected).real)
    if ps_exact < ps_floor:
        raise PostSelectionError(
            f"post-selection probability {ps_exact:.3e} is below the floor {ps_floor:.1e}"
        )
    amps = projected / math.sqrt(ps_exact)
    amps.setflags(write=False)
    mv = modular_value(cfg.sel)
    return PostSelectedPointer(amplitudes=amps,
                               delta=delta_factor(pointer.amplitudes[cfg.m], mv),
                               ps_exact=ps_exact,
                               ps_paper=math.cos(cfg.sel.theta1) ** 2)


def post_selection_probability(cfg: MeasurementConfig) -> tuple[float, float]:
    """``(ps_exact, ps_paper)`` for a configuration.

    ``ps_exact`` comes from the oracle's unnormalized projection norm and
    equals ``cos^2(theta1) * delta^2``; ``ps_paper`` is ``cos^2(theta1)``.
    """
    final = final_pointer_oracle(cfg)
    return final.ps_exact, final.ps_paper


def align_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate a state so its largest-magnitude amplitude is real and positive."""
    amps = np.asarray(amplitudes, dtype=complex)
    k = int(np.argmax(np.abs(amps)))
    pivot = amps[k]
    if pivot == 0:
        return amps.copy()
    return amps * (abs(pivot) / pivot)


def random_measurement_configs(n_configs: int, dim: int = DEFAULT_DIM,
                               seed: int = 20260811) -> list[MeasurementConfig]:
    """Deterministic random configurations spanning all three pointer families."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(n_configs):
        sel = SelectionConfig(theta1=rng.uniform(0.0, 1.5),
                              phi1=rng.uniform(0.0, 2.0 * math.pi),
                              g=rng.uniform(0.0, math.pi))
        family = i % 3
        if family == 0:
            spec: PointerSpec = Coherent(gamma=rng.uniform(0.0, 2.0),
                                         phi=rng.uniform(0.0, 2.0 * math.pi))
        elif family == 1:
            mag = rng.uniform(0.0, 1.5)
            arg = rng.uniform(0.0, 2.0 * math.pi)
            spec = Squeezed(alpha=mag * complex(math.cos(arg), math.sin(arg)),
                            r=rng.uniform(0.0, 1.0),
                            theta_sq=rng.uniform(0.0, 2.0 * math.pi))
        else:
            mag = rng.uniform(0.2, 2.0)
            arg = rng.uniform(0.0, 2.0 * math.pi)
            spec = Cat(alpha=mag * complex(math.cos(arg), math.sin(arg)),
                       phi_cat=rng.uniform(0.0, 2.0 * math.pi))
        configs.append(MeasurementConfig(sel=sel, pointer=spec,
                                         m=int(rng.integers(0, 11)), dim=dim))
    return configs


def equivalence_deviations(n_configs: int = 200, dim: int = DEFAULT_DIM,
                           seed: int = 20260811) -> np.ndarray:
    """Max amplitude deviation between the two routes per random configuration.

    Deviations are measured after global-phase alignment; the suite backs both
    the acceptance gate and the CLI ``check`` verb.  The leak budget is relaxed
    here (squeezed tails near r = 1 exceed the strict default at dim = 64):
    both routes share the same truncated initial state, so their agreement is
    independent of how much the ideal state leaks past the cutoff.
    """
    deviations = np.empty(n_configs)
    for i, cfg in enumerate(random_measurement_configs(n_configs, dim=dim, seed=seed)):
        analytic = align_global_phase(final_pointer_analytic(cfg, leak_tol=1e-6).amplitudes)
        oracle = align_global_phase(final_pointer_oracle(cfg, leak_tol=1e-6).amplitudes)
        deviations[i] = float(np.max(np.abs(analytic - oracle)))
    return deviations


def final_pointer_for_modular_value(modval: float, pointer: PointerSpec, m: int,
                                    dim: int = DEFAULT_DIM) -> PostSelectedPointer:
    """Convenience: analytic final pointer under the real-modular-value convention."""
    cfg = MeasurementConfig(sel=selection_for_modular_value(modval),
                            pointer=pointer, m=m, dim=dim)
    return final_pointer_analytic(cfg)
