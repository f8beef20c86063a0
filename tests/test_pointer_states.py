import cmath
import math

import numpy as np
import pytest

from modvalsim.pointer_states import (
    Cat,
    Coherent,
    Custom,
    Squeezed,
    TruncationError,
    annihilation_op,
    build_pointer,
    cat_state,
    coherent_state,
    custom_state,
    displacement_op,
    squeeze_op,
    squeezed_amplitudes_closed_form,
    squeezed_state,
)


def test_vacuum():
    state = coherent_state(0.0, 0.0, dim=8)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_coherent_ground_amplitude():
    # c_0 = exp(-|alpha|^2 / 2) = exp(-2) at gamma = 2
    state = coherent_state(2.0, 0.0)
    assert abs(state.amplitudes[0] - math.exp(-2.0)) < 1e-15


def test_coherent_norm():
    state = coherent_state(2.0, 0.0, dim=64)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


def test_coherent_distribution_is_poisson():
    gamma = 1.7
    state = coherent_state(gamma, 0.4, dim=64)
    p = np.abs(state.amplitudes) ** 2
    for n in range(40):
        expected = math.exp(-gamma**2) * gamma ** (2 * n) / math.factorial(n)
        assert abs(p[n] - expected) <= 1e-10 * max(expected, 1e-300)


def test_coherent_phases():
    phi = 0.7
    state = coherent_state(1.3, phi, dim=20)
    for n in range(1, 20):
        expected = state.amplitudes[0] * (1.3 * cmath.exp(1j * phi)) ** n / math.sqrt(math.factorial(n))
        assert abs(state.amplitudes[n] - expected) < 1e-12


def test_truncation_leak_recorded():
    # with the budget widened, the recorded leak equals the Poisson tail mass
    state = coherent_state(2.0, 0.0, dim=10, leak_tol=1.0)
    tail = 1.0 - sum(math.exp(-4.0) * 4.0**n / math.factorial(n) for n in range(10))
    assert abs(state.truncation_leak - tail) < 1e-12


def test_truncation_rejected_when_dim_too_small():
    with pytest.raises(TruncationError):
        coherent_state(3.0, 0.0, dim=6)


def test_squeezed_zero_r_is_coherent():
    alpha = 0.8 * cmath.exp(0.5j)
    sq = squeezed_state(alpha, 0.0, 1.2, dim=32)
    coh = coherent_state(0.8, 0.5, dim=32)
    assert np.max(np.abs(sq.amplitudes - coh.amplitudes)) < 1e-10
    assert isinstance(sq.spec, Squeezed)


def test_squeezed_vacuum_has_even_support():
    state = squeezed_state(0.0, 0.5, 0.0, dim=32)
    assert np.max(np.abs(state.amplitudes[1::2])) == 0.0
    assert abs(state.amplitudes[0]) > 0.5


def test_squeezed_matches_displace_squeeze_oracle_reference_point():
    state = squeezed_state(1.0, 0.5, 0.0, dim=64)
    oracle = (displacement_op(1.0, 64) @ squeeze_op(0.5, 0.0, 64))[:, 0]
    assert np.max(np.abs(state.amplitudes - oracle)) < 1e-8


@pytest.mark.parametrize("alpha,r,theta", [
    (0.5 + 0.0j, 0.25, 0.0),
    (1.5j, 0.75, 1.3),
    (0.7 + 0.4j, 1.0, 4.0),
    (1.5 + 0.0j, 1.0, 2.0),
])
def test_squeezed_matches_displace_squeeze_oracle_sweep(alpha, r, theta):
    # the operator product needs headroom above the heavy squeezed tail before
    # its own truncation error falls below the comparison tolerance
    dim = 160
    state = squeezed_state(alpha, r, theta, dim=dim)
    oracle = (displacement_op(alpha, dim) @ squeeze_op(r, theta, dim))[:, 0]
    assert np.max(np.abs(state.amplitudes - oracle)) < 1e-8


def test_squeezed_recurrence_equals_hermite_closed_form():
    alpha = 1.2 * cmath.exp(0.4j)
    state = squeezed_state(alpha, 0.7, 1.1, dim=48)
    closed = squeezed_amplitudes_closed_form(alpha, 0.7, 1.1, 48)
    assert np.max(np.abs(state.amplitudes - closed)) < 1e-12


def test_squeezed_closed_form_requires_positive_r():
    with pytest.raises(ValueError):
        squeezed_amplitudes_closed_form(1.0, 0.0, 0.0, 8)


def test_squeezed_mean_photon_number():
    # fixes the operator ordering: displacement applied after squeezing gives |a|^2 + sinh^2 r
    alpha, r = 1.1 + 0.3j, 0.8
    state = squeezed_state(alpha, r, 0.6, dim=96)
    p = np.abs(state.amplitudes) ** 2
    mean_n = float(np.arange(96) @ p)
    assert abs(mean_n - (abs(alpha) ** 2 + math.sinh(r) ** 2)) < 1e-9


@pytest.mark.parametrize("phi_cat,dead_parity", [(0.0, 1), (math.pi, 0)])
def test_cat_parity(phi_cat, dead_parity):
    state = cat_state(1.5, phi_cat, dim=48)
    assert np.max(np.abs(state.amplitudes[dead_parity::2])) < 1e-15


def test_cat_alpha_zero_is_vacuum():
    state = cat_state(0.0, 0.0, dim=8)
    assert abs(state.amplitudes[0] - 1.0) < 1e-15
    assert np.max(np.abs(state.amplitudes[1:])) == 0.0


def test_cat_norm():
    state = cat_state(1.0, math.pi / 3, dim=64)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


def test_cat_degenerate_input_rejected():
    with pytest.raises(ValueError):
        cat_state(0.0, math.pi, dim=8)


def test_displacement_identity():
    assert np.max(np.abs(displacement_op(0.0, 12) - np.eye(12))) < 1e-12


def test_squeeze_identity():
    assert np.max(np.abs(squeeze_op(0.0, 0.0, 12) - np.eye(12))) < 1e-12


def test_displacement_column_matches_coherent():
    col = displacement_op(2.0, 64)[:, 0]
    state = coherent_state(2.0, 0.0, dim=64)
    assert np.max(np.abs(col - state.amplitudes)) < 1e-8


def test_operators_are_unitary():
    for op in (displacement_op(1.0 + 0.5j, 40), squeeze_op(0.8, 1.1, 40)):
        assert np.max(np.abs(op.conj().T @ op - np.eye(40))) < 1e-10


def test_annihilation_matrix_elements():
    a = annihilation_op(5)
    for n in range(4):
        assert a[n, n + 1] == pytest.approx(math.sqrt(n + 1))
    assert np.count_nonzero(a) == 4


def test_custom_state_roundtrip():
    amps = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    state = custom_state(amps)
    assert state.dim == 2
    assert abs(state.truncation_leak) < 1e-12


def test_custom_state_rejects_overfilled_norm():
    with pytest.raises(ValueError):
        custom_state(np.array([1.0, 0.5], dtype=complex))


def test_build_pointer_dispatch():
    for spec in (Coherent(1.0, 0.2), Squeezed(0.5 + 0j, 0.3, 0.1), Cat(0.8 + 0j, 0.5)):
        state = build_pointer(spec, dim=32)
        assert state.spec == spec
        assert state.dim == 32
    custom = Custom(amplitudes=np.array([0.0, 1.0], dtype=complex))
    assert build_pointer(custom, dim=2).amplitudes[1] == 1.0


def test_amplitudes_are_read_only():
    state = coherent_state(1.0, 0.0, dim=32)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


@pytest.mark.parametrize("alpha", [1e-4, 1e-5, 1e-6, 1e-7, 1e-9])
def test_odd_cat_at_small_alpha_is_normalized(alpha):
    # the odd cat (phi_cat = pi) tends to the Fock state |1> as alpha -> 0
    p = np.abs(cat_state(alpha, math.pi, dim=16).amplitudes) ** 2
    assert abs(p.sum() - 1.0) < 1e-12
    assert p[1] > 1.0 - 1e-9


@pytest.mark.parametrize("make,param", [
    pytest.param(lambda bad: Coherent(bad, 0.0), "gamma", id="coherent-gamma"),
    pytest.param(lambda bad: Coherent(1.0, bad), "phi", id="coherent-phi"),
    pytest.param(lambda bad: Squeezed(complex(bad, 0.0), 0.5, 0.0), "alpha", id="squeezed-alpha"),
    pytest.param(lambda bad: Squeezed(1.0 + 0j, bad, 0.0), "r", id="squeezed-r"),
    pytest.param(lambda bad: Squeezed(1.0 + 0j, 0.5, bad), "theta_sq", id="squeezed-theta_sq"),
    pytest.param(lambda bad: Cat(complex(0.0, bad), 0.0), "alpha", id="cat-alpha"),
    pytest.param(lambda bad: Cat(1.0 + 0j, bad), "phi_cat", id="cat-phi_cat"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_specs_reject_non_finite_parameters(make, param, bad):
    with pytest.raises(ValueError, match=f"{param} must be finite"):
        make(bad)
