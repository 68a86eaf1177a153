import numpy as np
import pytest

import dataclasses

from disentlab import rotation_world
from disentlab.continuous import TWO_PI, DiskRotationWorld, _redraw
from disentlab.errors import WorldError


def test_quarter_rotation_of_unit_vector():
    _, cand = rotation_world()
    out = cand.observe(np.array([[np.pi / 2, 1.0, 0.0]]))[0]
    assert np.allclose(out, [np.pi / 2, 0.0, 1.0], atol=1e-12)


def test_zero_rotation_is_identity():
    _, cand = rotation_world()
    out = cand.observe(np.array([[0.0, 0.5, 0.0]]))[0]
    assert np.allclose(out, [0.0, 0.5, 0.0])


def test_phi_inverse_inverts_phi():
    _, cand = rotation_world()
    rng = np.random.default_rng(0)
    z = cand.sample_latents(rng, 500)
    assert np.allclose(cand.phi_inverse(cand.phi(z)), z, atol=1e-12)


def test_prior_samples_live_on_the_support():
    world, _ = rotation_world()
    rng = np.random.default_rng(1)
    s = world.sample_latents(rng, 10000)
    assert np.all((s[:, 0] >= 0) & (s[:, 0] < TWO_PI))
    assert np.all(s[:, 1] ** 2 + s[:, 2] ** 2 <= 1.0 + 1e-12)


def test_rotation_preserves_disk_distribution():
    # pushforward check: the candidate's observations match the oracle's
    # in distribution (moments of the disk point and the angle)
    world, cand = rotation_world()
    rng = np.random.default_rng(2)
    xs_model = cand.observe(cand.sample_latents(rng, 200000))
    xs_world = world.observe(world.sample_latents(rng, 200000))
    for col in range(3):
        assert abs(xs_model[:, col].mean() - xs_world[:, col].mean()) < 0.02
        assert abs((xs_model[:, col] ** 2).mean() - (xs_world[:, col] ** 2).mean()) < 0.05
    r_model = xs_model[:, 1] ** 2 + xs_model[:, 2] ** 2
    assert abs(r_model.mean() - 0.5) < 0.01  # uniform disk: E r^2 = 1/2


def test_conditional_resampling_respects_the_chord():
    world, _ = rotation_world()
    rng = np.random.default_rng(3)
    s = world.sample_latents(rng, 5000)
    s2 = world.resample_latents(rng, s, [2])
    assert np.allclose(s2[:, :2], s[:, :2])
    assert np.all(s2[:, 1] ** 2 + s2[:, 2] ** 2 <= 1.0 + 1e-12)
    s3 = world.resample_latents(rng, s, [0])
    assert np.allclose(s3[:, 1:], s[:, 1:])
    assert not np.allclose(s3[:, 0], s[:, 0])


def test_angle_independent_of_disk_point():
    world, _ = rotation_world()
    rng = np.random.default_rng(4)
    s = world.sample_latents(rng, 50000)
    # correlations between the angle and the disk coordinates vanish
    c = np.corrcoef(s.T)
    assert abs(c[0, 1]) < 0.02 and abs(c[0, 2]) < 0.02


def test_bad_resample_coordinates_rejected():
    world, _ = rotation_world()
    rng = np.random.default_rng(0)
    s = world.sample_latents(rng, 10)
    with pytest.raises(WorldError):
        world.resample_latents(rng, s, [5])


def test_candidate_is_the_oracle_world_with_a_rotated_generator():
    world, cand = rotation_world()
    assert dataclasses.fields(DiskRotationWorld) == ()
    assert isinstance(cand, DiskRotationWorld) and cand.base is world
    assert (cand.n, cand.ordered) == (world.n, world.ordered) == (3, (True, True, True))
    z = np.array([[np.pi / 2, 1.0, 0.0]])
    assert np.allclose(world.observe(z), z) and np.allclose(cand.observe(z), [[np.pi / 2, 0.0, 1.0]])
    with pytest.raises(TypeError):
        DiskRotationWorld(n=2)


@pytest.mark.parametrize("k", [1, 5, 16384])
@pytest.mark.parametrize("cols", [{0, 1, 2}, {1, 2}])
def test_angle_only_redraw_leaves_the_generator_of_the_full_draw(k, cols):
    """Without the disk the generator is advanced, not drawn from: the angle,
    the generator state and the next draws are those of the full redraw."""
    start = np.random.default_rng(9).random((k, 3))
    ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
    angle_only = _redraw(ours, start.copy(), cols, disk=False)
    full = _redraw(theirs, start.copy(), cols)
    assert np.array_equal(angle_only[:, 0], full[:, 0])
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(7), theirs.random(7))
