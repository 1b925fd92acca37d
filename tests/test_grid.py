import math

import numpy as np
import pytest

from orlicap import (
    ConfigurationError,
    GridFunction,
    build_domain,
    from_callable,
    integrate,
    level_mask,
)
from orlicap.grid import SetMask, backward_difference, ball_mask, forward_difference, save_csv


@pytest.fixture(scope="module")
def disc():
    return build_domain(2, 1.0, 128)


def tent(domain, r=0.5):
    return from_callable(domain, lambda x: np.maximum(
        0.0, 1.0 - np.sqrt(np.sum(x ** 2, axis=0)) / r))


def divided_differences(vals, domain):
    """D+ u per axis, shape (n, *lattice): forward differences over h."""
    out = np.empty((domain.n,) + domain.shape)
    for a in range(domain.n):
        forward_difference(vals, a, out[a])
        out[a] /= domain.h
    return out


def gradient_magnitude(u):
    return np.sqrt(np.sum(divided_differences(u.values, u.domain) ** 2, axis=0))


def test_build_domain_rejects_bad_dimension():
    with pytest.raises(ConfigurationError):
        build_domain(4, 1.0, 64)
    with pytest.raises(ConfigurationError):
        build_domain(2, 1.0, 16)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_build_domain_rejects_a_non_finite_radius(R):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        build_domain(2, R, 64)


def test_interior_node_count_2d(disc):
    count = int(disc.inside.sum())
    expected = math.pi * 64 ** 2
    assert abs(count - expected) / expected < 0.02


def test_weights_sum_to_area_2d():
    dom = build_domain(2, 1.0, 32)
    assert abs(dom.weights.sum() - math.pi) / math.pi < 0.02


def test_weights_sum_to_volume_3d():
    dom = build_domain(3, 1.0, 32)
    vol = 4.0 * math.pi / 3.0
    assert abs(dom.weights.sum() - vol) / vol < 0.03


def test_interior_nodes_have_neighbors(disc):
    # moving one step from any non-band node stays on the lattice
    idx = np.argwhere(~disc.boundary_band)
    assert idx.min() >= 1 and idx.max() <= disc.resolution - 2


def test_gradient_of_zero(disc):
    assert np.all(divided_differences(np.zeros(disc.shape), disc) == 0.0)


def test_gradient_of_affine_is_exact(disc):
    # clipped far from its evaluation window so differences see pure slope
    a = (0.75, -1.25)
    u = from_callable(disc, lambda x: a[0] * x[0] + a[1] * x[1])
    g = divided_differences(u.values, disc)
    sl = (slice(32, 96), slice(32, 96))
    assert np.allclose(g[0][sl], a[0], atol=1e-12)
    assert np.allclose(g[1][sl], a[1], atol=1e-12)


def test_gradient_of_tent_magnitude(disc):
    r = 0.5
    u = tent(disc, r)
    mag = gradient_magnitude(u)
    ring = (disc.radius > 4 * disc.h) & (disc.radius < r - 4 * disc.h)
    assert np.abs(mag[ring] - 1.0 / r).max() < 3.0 * disc.h / r ** 2


def test_indicator_gradient_supported_on_boundary_band(disc):
    ind = from_callable(disc, lambda x: (np.sqrt(np.sum(x ** 2, axis=0)) <= 0.4) * 1.0)
    mag = gradient_magnitude(ind)
    nz = mag > 0
    assert np.all(np.abs(disc.radius[nz] - 0.4) <= 2.0 * disc.h)


DIFF_SHAPES = [(64, 48), (1, 7), (9, 2), (6, 8, 10), (5, 7, 9), (3, 1, 4), (2, 5, 1)]


@pytest.mark.parametrize("shape", DIFF_SHAPES, ids=str)
def test_differences_match_np_diff_bit_for_bit(shape):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(shape)
    vals.flat[::5] = 0.0  # 0 - 0 is +0.0, which a negation would turn into -0.0
    out = np.full(shape, np.nan)
    for axis in range(len(shape)):
        fwd = forward_difference(vals, axis, out).view(np.int64)
        assert np.array_equal(fwd, np.diff(vals, axis=axis, append=0.0).view(np.int64))
        bwd = backward_difference(vals, axis, out).view(np.int64)
        assert np.array_equal(bwd, np.diff(vals, axis=axis, prepend=0.0).view(np.int64))


@pytest.mark.parametrize("difference", [forward_difference, backward_difference])
def test_differences_reject_layouts_they_cannot_ravel(difference):
    vals = np.random.default_rng(1).standard_normal((6, 8))
    with pytest.raises(ValueError, match="C-contiguous"):
        difference(vals, 1, np.empty((8, 6)).T)
    with pytest.raises(ValueError, match="C-contiguous"):
        difference(np.asfortranarray(vals), 1, np.empty((6, 8)))
    with pytest.raises(ValueError, match="C-contiguous"):
        difference(vals, 0, np.empty((6, 16))[:, ::2])
    with pytest.raises(ValueError, match="shape"):
        difference(vals, 0, np.empty((6, 9)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("resolution", [32, 33, 48])
def test_domain_equals_its_swap_of_the_first_two_axes(n, resolution):
    # the capacity cache serves a mask's swap from the mask's solve, which
    # needs the lattice data to be symmetric bit for bit
    dom = build_domain(n, 1.0, resolution)
    for arr in (dom.radius, dom.inside, dom.boundary_band, dom.weights):
        swapped = np.swapaxes(arr, 0, 1)
        assert arr.dtype == swapped.dtype and arr.tobytes() == swapped.tobytes()


def test_integrate_constant_is_area(disc):
    assert integrate(np.ones(disc.shape), disc) == pytest.approx(math.pi, rel=0.02)


def test_integrate_zero(disc):
    assert integrate(np.zeros(disc.shape), disc) == 0.0


def test_integrate_tent_energy(disc):
    u = tent(disc, 0.5)
    mag = gradient_magnitude(u)
    assert integrate(mag ** 2, disc) == pytest.approx(math.pi, rel=0.05)


def test_integrate_linear_monotone(disc):
    rng = np.random.default_rng(3)
    f1 = rng.uniform(0, 1, disc.shape)
    f2 = f1 + rng.uniform(0, 1, disc.shape)
    a, b = 2.0, 3.0
    lhs = integrate(a * f1 + b * f2, disc)
    assert lhs == pytest.approx(a * integrate(f1, disc) + b * integrate(f2, disc),
                                rel=1e-12)
    assert integrate(f1, disc) <= integrate(f2, disc)


def test_level_mask_empty_cases(disc):
    assert level_mask(GridFunction(disc, np.zeros(disc.shape)), 1.0).is_empty()
    assert level_mask(tent(disc, 0.5), 1.5).is_empty()


def test_level_mask_geometry(disc):
    u = tent(disc, 0.5)
    mask = level_mask(u, 0.5)
    expected = math.pi * 0.25 ** 2 / disc.h ** 2
    assert abs(mask.count - expected) / expected < 0.05


def test_level_mask_nesting(disc):
    rng = np.random.default_rng(11)
    vals = np.where(disc.radius < 0.5, rng.uniform(0, 2, disc.shape), 0.0)
    u = GridFunction(disc, vals)
    for t1, t2 in ((0.1, 0.4), (0.4, 1.0), (1.0, 1.7)):
        m1 = level_mask(u, t1).mask
        m2 = level_mask(u, t2).mask
        assert np.all(m2 <= m1)


def test_setmask_rejects_band_nodes(disc):
    bad = disc.radius < disc.R  # reaches into the band
    with pytest.raises(ValueError):
        SetMask(disc, bad)


def test_setmask_keeps_its_own_copy(disc):
    m = disc.radius < 0.3
    E = SetMask(disc, m)
    key = E.key()
    assert m.flags.writeable and not E.mask.flags.writeable
    m[0, 0], m[64, 64] = True, False  # the caller's array stays the caller's
    assert E.key() == key and E.mask[64, 64]


def test_ball_mask_count(disc):
    m = ball_mask(disc, 0.3)
    expected = math.pi * 0.3 ** 2 / disc.h ** 2
    assert abs(m.count - expected) / expected < 0.05


def test_csv_roundtrip(tmp_path, disc):
    u = tent(disc, 0.5)
    path = tmp_path / "u.csv"
    save_csv(u, path)
    assert path.read_text().splitlines()[0] == "x1,x2,value"
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    grids = np.meshgrid(*disc.axes, indexing="ij")
    assert np.array_equal(data[:, :-1], np.column_stack([g.ravel() for g in grids]))
    assert np.allclose(data[:, -1].reshape(disc.shape), u.values, atol=1e-15)
