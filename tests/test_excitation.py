import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arraykit import excitation as exc
from arraykit import lattice as lat
from arraykit.snp import PortMap

MM = 1e-3


def test_gaussian_taper_reference_points():
    w0 = 17 * MM
    vals = exc.gaussian_taper(np.array([[0.0, 0.0], [w0, 0.0], [7.5 * MM, 0.0]]), w0)
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(math.exp(-1), abs=1e-12)
    # direct evaluation of exp(-(7.5/17)^2)
    assert vals[2] == pytest.approx(math.exp(-((7.5 / 17) ** 2)), abs=1e-15)
    assert vals[2] == pytest.approx(0.8231337, abs=1e-6)


def test_gaussian_taper_radial_symmetry():
    w0 = 10 * MM
    r = 4 * MM
    angles = np.radians(np.arange(0, 360, 30))
    pos = r * np.column_stack([np.cos(angles), np.sin(angles)])
    vals = exc.gaussian_taper(pos, w0)
    assert np.allclose(vals, vals[0], rtol=1e-14)


def test_gaussian_taper_rejects_bad_w0():
    with pytest.raises(exc.ExcitationError):
        exc.gaussian_taper(np.zeros((1, 2)), 0.0)
    # w0^2 overflows, is subnormal, or underflows to 0
    for w0 in (1e305, 1e-158, 1e-163):
        with pytest.raises(exc.ExcitationError, match="normal float"):
            exc.gaussian_taper(np.zeros((1, 2)), w0)
        with pytest.raises(exc.ExcitationError, match="normal float"):
            exc.TaperSpec("gaussian", w0)


def test_gaussian_taper_ratio_that_overflows_is_zero():
    # w0^2 is a normal float, but 3^2 / w0^2 overflows: the taper's limit, with no overflow warning
    w0 = 1.5e-154
    np.testing.assert_array_equal(exc.gaussian_taper(np.array([[0.0, 0.0], [3.0, 0.0]]), w0), [1.0, 0.0])


def test_scan_wavevector_examples():
    assert np.array_equal(
        exc.scan_wavevector(exc.ScanSpec(0.0, 123.0, 7e9)), [0.0, 0.0]
    )
    kt = exc.scan_wavevector(exc.ScanSpec(90.0, 0.0, 20e9))
    np.testing.assert_allclose(kt, [418.879, 0.0], atol=2e-3)
    kt = exc.scan_wavevector(exc.ScanSpec(60.0, 45.0, 10e9))
    assert np.linalg.norm(kt) == pytest.approx(181.380, abs=1e-3)


def test_scan_spec_validation():
    with pytest.raises(exc.ExcitationError):
        exc.ScanSpec(-1.0, 0.0, 1e9)
    with pytest.raises(exc.ExcitationError):
        exc.ScanSpec(91.0, 0.0, 1e9)
    with pytest.raises(exc.ExcitationError):
        exc.ScanSpec(0.0, 0.0, 0.0)


def test_plane_phi_convention():
    assert exc.plane_phi("E", "x") == 0.0
    assert exc.plane_phi("H", "x") == 90.0
    assert exc.plane_phi("E", "y") == 90.0
    assert exc.plane_phi("H", "y") == 0.0
    assert exc.plane_phi("D", "x") == exc.plane_phi("D", "y") == 45.0
    with pytest.raises(exc.ExcitationError):
        exc.plane_phi("Q", "x")


def plan_setup(kind="square", shape=None):
    basis = lat.make_basis(kind, 15 * MM)
    shape = shape or lat.RectangleAperture(0, 2, 0, 2)
    aperture = lat.enumerate_aperture(shape)
    return basis, aperture, PortMap.lexicographic(aperture)


def test_broadside_uniform_plan_is_all_ones_on_pol():
    basis, aperture, pm = plan_setup()
    plan = exc.build_plan(
        basis, aperture, pm, exc.TaperSpec("uniform"), exc.ScanSpec(0.0, 0.0, 10e9), "x"
    )
    for idx in aperture:
        assert plan.weights[pm.port_of(idx, "x")] == 1.0
        assert plan.weights[pm.port_of(idx, "y")] == 0.0


def test_gaussian_broadside_plan_weights():
    basis, aperture, pm = plan_setup("triangular", lat.HexagonAperture(1))
    plan = exc.build_plan(
        basis, aperture, pm, exc.TaperSpec("gaussian", 17 * MM), exc.ScanSpec(0.0, 0.0, 10e9), "x"
    )
    center = plan.weights[pm.port_of((0, 0), "x")]
    assert center == pytest.approx(1.0, abs=1e-12)
    edge = basis.lambda_h / math.sqrt(3)
    want = math.exp(-((edge / (17 * MM)) ** 2))
    for idx in aperture:
        if idx == (0, 0):
            continue
        assert plan.weights[pm.port_of(idx, "x")] == pytest.approx(want, rel=1e-12)


def test_broadside_weights_real_positive():
    basis, aperture, pm = plan_setup()
    plan = exc.build_plan(
        basis, aperture, pm, exc.TaperSpec("gaussian", 17 * MM), exc.ScanSpec(0.0, 0.0, 5e9), "y"
    )
    active = plan.weights[np.abs(plan.weights) > 0]
    assert np.all(active.imag == 0)
    assert np.all(active.real > 0)


def test_scan_phase_linear_in_position():
    basis, aperture, pm = plan_setup()
    scan = exc.ScanSpec(42.0, 17.0, 9e9)
    plan = exc.build_plan(basis, aperture, pm, exc.TaperSpec("uniform"), scan, "x")
    kt = exc.scan_wavevector(scan)

    def phase(idx):
        return np.angle(plan.weights[pm.port_of(idx, "x")])

    # (1,1) = (1,0) + (0,1); phases add modulo 2*pi
    lhs = phase((1, 1))
    rhs = phase((1, 0)) + phase((0, 1))
    assert (lhs - rhs) % (2 * math.pi) == pytest.approx(0.0, abs=1e-10) or (
        (lhs - rhs) % (2 * math.pi)
    ) == pytest.approx(2 * math.pi, abs=1e-10)
    assert phase((1, 0)) == pytest.approx(
        math.remainder(-float(lat.aperture_positions(basis, [(1, 0)])[0] @ kt), 2 * math.pi), abs=1e-12
    )


@given(theta=st.floats(0.0, 90.0), phi=st.floats(0.0, 360.0))
def test_mirrored_scan_is_conjugate(theta, phi):
    basis, aperture, pm = plan_setup()
    f = 12e9
    fwd = exc.build_plan(
        basis, aperture, pm, exc.TaperSpec("uniform"), exc.ScanSpec(theta, phi, f), "x"
    )
    mirrored = exc.build_plan(
        basis, aperture, pm, exc.TaperSpec("uniform"),
        exc.ScanSpec(theta, (phi + 180.0) % 360.0, f), "x",
    )
    np.testing.assert_allclose(mirrored.weights, np.conj(fwd.weights), atol=1e-12)


def test_plan_requires_nonzero_weight():
    with pytest.raises(exc.ExcitationError):
        exc.ExcitationPlan(np.zeros(3, complex))
    with pytest.raises(exc.ExcitationError):
        exc.ExcitationPlan(np.zeros(0, complex))


def test_build_plan_needs_port_for_every_element():
    basis, aperture, _ = plan_setup()
    pm = PortMap.lexicographic(aperture[:-1])
    from arraykit.snp import NetworkError

    with pytest.raises(NetworkError):
        exc.build_plan(
            basis, aperture, pm, exc.TaperSpec("uniform"), exc.ScanSpec(0, 0, 1e9), "x"
        )



def reference_plan_weights(basis, aperture, port_map, taper, scan, pol):
    """The per-port loop that built a plan's weights before the batched weight function."""
    pos = lat.aperture_positions(basis, aperture)
    amps = exc.taper_amplitudes(taper, pos - lat.centroid(pos))
    phases = np.exp(-1j * (pos @ exc.scan_wavevector(scan)))
    weights = np.zeros(len(port_map), dtype=complex)
    for i, idx in enumerate(aperture):
        weights[port_map.port_of(idx, pol)] = amps[i] * phases[i]
    return weights


@pytest.mark.parametrize(
    "kind,shape", [("square", lat.RectangleAperture(0, 3, 0, 4)), ("triangular", lat.HexagonAperture(2))]
)
@pytest.mark.parametrize("pol", ["x", "y"])
def test_batched_weights_match_per_frequency_loop(kind, shape, pol):
    basis, aperture, pm = plan_setup(kind, shape)
    taper = exc.TaperSpec("gaussian", 17 * MM)
    freqs = np.linspace(3e9, 20e9, 37)
    weights_at = exc.weight_function(basis, aperture, pm, taper, pol)
    for theta, phi in ((0.0, 0.0), (60.0, 0.0), (37.3, 12.9), (59.9, 89.1), (90.0, 200.0)):
        batched = weights_at(exc.scan_wavevectors(theta, phi, freqs))
        loop = np.array([
            reference_plan_weights(basis, aperture, pm, taper, exc.ScanSpec(theta, phi, float(f)), pol) for f in freqs
        ])
        assert batched.shape == (freqs.size, len(pm))
        assert np.abs(batched - loop).max() <= 1e-14
        one = exc.build_plan(basis, aperture, pm, taper, exc.ScanSpec(theta, phi, float(freqs[5])), pol)
        assert np.abs(one.weights - loop[5]).max() <= 1e-14


def test_scan_wavevectors_match_single_scans():
    freqs = np.array([3e9, 7.7e9, 20e9])
    stack = exc.scan_wavevectors(41.0, 123.0, freqs)
    for f, k in zip(freqs, stack):
        assert np.array_equal(k, exc.scan_wavevector(exc.ScanSpec(41.0, 123.0, float(f))))
