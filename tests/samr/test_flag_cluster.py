"""Tests for gradient flagging and Berger-Rigoutsos clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MeshError
from repro.samr import (
    Box,
    DataObject,
    Hierarchy,
    buffer_flags,
    cluster_flags,
    flag_gradient,
)
from repro.samr.flagging import assemble_level_flags, undivided_gradient


# ----------------------------------------------------------- gradients
def test_undivided_gradient_constant_field_is_zero():
    g = undivided_gradient(np.full((6, 6), 3.0))
    assert g.shape == (4, 4)
    assert np.all(g == 0.0)


def test_undivided_gradient_linear_field():
    x = np.arange(6, dtype=float)
    f = np.broadcast_to(2.0 * x[:, None], (6, 6)).copy()
    g = undivided_gradient(f)
    np.testing.assert_allclose(g, 2.0)


def test_undivided_gradient_picks_max_axis():
    x = np.arange(6, dtype=float)
    f = 1.0 * x[:, None] + 5.0 * x[None, :]
    g = undivided_gradient(f)
    np.testing.assert_allclose(g, 5.0)


def test_undivided_gradient_too_small_raises():
    with pytest.raises(MeshError):
        undivided_gradient(np.zeros((2, 5)))


# ----------------------------------------------------------- flagging
def make_field_hierarchy():
    h = Hierarchy((16, 16), extent=(1.0, 1.0), max_levels=2, nghost=2)
    h.build_base_level()
    d = DataObject("f", h, nvar=1)
    return h, d


def test_flag_gradient_marks_step():
    h, d = make_field_hierarchy()
    p = h.level(0).patches[0]
    arr = d.var(p, 0)
    arr[:, :] = 0.0
    arr[:, 10:] = 1.0  # step at interior column
    flags = flag_gradient(d, 0, threshold=0.5, relative=True)
    f = flags[p.id]
    assert f.shape == (16, 16)
    assert f.any()
    cols = np.nonzero(f.any(axis=0))[0]
    assert set(cols) <= {6, 7, 8, 9}  # near the step (ghost offset 2)


def test_flag_gradient_constant_field_flags_nothing():
    h, d = make_field_hierarchy()
    d.fill(1.0)
    flags = flag_gradient(d, 0, threshold=0.1)
    assert not any(f.any() for f in flags.values())


def test_flag_gradient_absolute_threshold():
    h, d = make_field_hierarchy()
    p = h.level(0).patches[0]
    x = np.arange(20, dtype=float)
    d.var(p, 0)[:] = 0.1 * x[None, :]  # gentle slope, gradient 0.1
    assert not flag_gradient(d, 0, 0.5, relative=False)[p.id].any()
    assert flag_gradient(d, 0, 0.05, relative=False)[p.id].all()


def test_flag_gradient_bad_threshold():
    h, d = make_field_hierarchy()
    with pytest.raises(MeshError):
        flag_gradient(d, 0, threshold=0.0)


def test_buffer_flags_dilates():
    f = np.zeros((9, 9), dtype=bool)
    f[4, 4] = True
    b1 = buffer_flags(f, 1)
    assert b1.sum() == 9
    b2 = buffer_flags(f, 2)
    assert b2.sum() == 25
    assert buffer_flags(f, 0).sum() == 1
    with pytest.raises(MeshError):
        buffer_flags(f, -1)


@settings(max_examples=150, deadline=None)
@given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=3),
       n=st.integers(0, 3), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_buffer_flags_is_scipy_full_connectivity_dilation(shape, n, density,
                                                          seed):
    """The shifted-slice OR that replaced it (SciPy is no longer imported
    at start-up) against ``binary_dilation`` itself: 1-3-D, flags on the
    border, axes shorter than the buffer."""
    from scipy import ndimage

    flags = np.random.default_rng(seed).random(shape) < density
    before = flags.copy()
    expected = flags if n == 0 else ndimage.binary_dilation(
        flags, structure=ndimage.generate_binary_structure(flags.ndim,
                                                           flags.ndim),
        iterations=n)
    out = buffer_flags(flags, n)
    assert out.dtype == bool and out is not flags
    assert np.array_equal(out, expected)
    assert np.array_equal(flags, before)


def test_assemble_level_flags_dense():
    h, d = make_field_hierarchy()
    p = h.level(0).patches[0]
    pf = np.zeros(p.box.shape, dtype=bool)
    pf[3, 5] = True
    dense, origin = assemble_level_flags(h, 0, {p.id: pf})
    assert origin == (0, 0)
    assert dense[3, 5] and dense.sum() == 1


# ----------------------------------------------------------- clustering
def test_cluster_empty_returns_nothing():
    assert cluster_flags(np.zeros((8, 8), dtype=bool)) == []


def test_cluster_single_blob_tight_box():
    f = np.zeros((16, 16), dtype=bool)
    f[4:8, 5:11] = True
    boxes = cluster_flags(f, min_efficiency=0.9)
    assert boxes == [Box((4, 5), (7, 10))]


def test_cluster_separated_blobs_split_at_hole():
    f = np.zeros((32, 8), dtype=bool)
    f[2:6, 2:6] = True
    f[24:28, 2:6] = True
    boxes = cluster_flags(f, min_efficiency=0.8, min_size=2)
    assert len(boxes) == 2
    total = sum(b.size for b in boxes)
    assert total < 0.3 * 32 * 8  # far better than one bounding box


def test_cluster_origin_offset():
    f = np.zeros((8, 8), dtype=bool)
    f[0, 0] = True
    boxes = cluster_flags(f, origin=(10, 20), min_size=1)
    assert boxes[0].contains_point((10, 20))


def test_cluster_respects_max_size():
    f = np.ones((40, 40), dtype=bool)
    boxes = cluster_flags(f, max_size=16)
    assert all(max(b.shape) <= 24 for b in boxes)  # bisection granularity
    assert sum(b.size for b in boxes) == 1600


def test_cluster_validation():
    f = np.zeros((4, 4), dtype=bool)
    with pytest.raises(MeshError):
        cluster_flags(f, min_efficiency=0.0)
    with pytest.raises(MeshError):
        cluster_flags(f, min_size=0)
    with pytest.raises(MeshError):
        cluster_flags(f, min_size=8, max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 23), st.integers(0, 23)),
    min_size=1, max_size=40))
def test_cluster_covers_all_flags(points):
    """Invariant: every flagged cell is covered by some box, and boxes are
    reasonably efficient."""
    f = np.zeros((24, 24), dtype=bool)
    for i, j in points:
        f[i, j] = True
    boxes = cluster_flags(f, min_efficiency=0.5, min_size=2)
    for i, j in points:
        assert any(b.contains_point((i, j)) for b in boxes)
    # boxes never wildly exceed the flag count
    assert sum(b.size for b in boxes) <= max(16, 30 * f.sum())
