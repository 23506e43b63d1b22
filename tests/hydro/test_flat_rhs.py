"""The flat reconstruction of ``euler_rhs_patches`` against the per-patch
loop it replaced (``reference_rhs``, ``==``), on ragged patch lists."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hydro import efm_flux, euler_rhs_patches, godunov_flux, prim_to_cons
from repro.hydro.fluxes import RHSScratch
from repro.hydro.limiters import LIMITERS
from tests.hydro import reference_rhs

GAMMA = 1.4
FLUXES = {"godunov": godunov_flux, "efm": efm_flux}


def _patch(rng: np.random.Generator, nx: int, ny: int, g: int) -> np.ndarray:
    """A front crossing rough data: slopes of both signs, equal-state
    faces and wave faces."""
    shape = (nx + 2 * g, ny + 2 * g)
    i, j = np.indices(shape)
    behind = i + 0.6 * j < 0.5 * (nx + ny)
    rough = rng.random(shape) < 0.3
    rho = np.where(behind, 2.0, 1.0) + rough * rng.random(shape)
    u = np.where(behind, 0.8, 0.0) + rough * rng.normal(0.0, 0.4, shape)
    v = np.where(behind, -0.1, 0.0) + rough * rng.normal(0.0, 0.4, shape)
    p = np.where(behind, 2.5, 1.0) + rough * rng.random(shape)
    zeta = (j > ny // 2).astype(float)
    return prim_to_cons(rho, u, v, p, zeta, GAMMA)


@st.composite
def ragged_patches(draw):
    g = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.tuples(st.integers(4, 40), st.integers(4, 40)),
                          min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Us = [_patch(rng, nx, ny, g) for nx, ny in sizes]
    spacings = [(1.0 / nx, 0.5 / ny) for nx, ny in sizes]
    return g, Us, spacings


def _skipping_nan_faces(flux):
    """``flux`` on the faces without a NaN (the exact Riemann solver
    refuses them), NaN on the others; faces are independent, so the clean
    ones get the bits they would get anyway."""
    def fn(prim_l, prim_r, gamma):
        clean = ~np.isnan(np.stack(prim_l + prim_r)).any(axis=0)
        out = np.full((5, clean.size), np.nan)
        out[:, clean] = flux(tuple(q[clean] for q in prim_l),
                             tuple(q[clean] for q in prim_r), gamma)
        return out
    return fn


def _equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))


@settings(max_examples=25, deadline=None)
@given(ragged_patches(), st.sampled_from(sorted(FLUXES)),
       st.sampled_from(sorted(LIMITERS)), st.randoms(use_true_random=False))
def test_flat_rhs_equals_per_patch_reference(drawn, scheme, limiter, random):
    g, Us, spacings = drawn
    kw = dict(flux_fn=FLUXES[scheme], limiter=limiter, nghost=g)
    scratch = RHSScratch()  # reused: the second call replays the layout
    flat = euler_rhs_patches(Us, spacings, GAMMA, scratch=scratch, **kw)
    assert _equal(flat, reference_rhs.euler_rhs_patches(
        Us, spacings, GAMMA, **kw))

    # permuting the patch list permutes the outputs and nothing else
    order = list(range(len(Us)))
    random.shuffle(order)
    shuffled = euler_rhs_patches([Us[k] for k in order],
                                 [spacings[k] for k in order], GAMMA,
                                 scratch=scratch, **kw)
    assert _equal(shuffled, [flat[k] for k in order])


@settings(max_examples=15, deadline=None)
@given(ragged_patches(), st.sampled_from(sorted(FLUXES)),
       st.sampled_from(sorted(LIMITERS)), st.data())
def test_nan_in_one_patch_reaches_no_other(drawn, scheme, limiter, data):
    """The seam index is what keeps a patch's cells out of its
    neighbours' stencils in the flat array."""
    g, Us, spacings = drawn
    kw = dict(flux_fn=_skipping_nan_faces(FLUXES[scheme]), limiter=limiter,
              nghost=g)
    clean = euler_rhs_patches(Us, spacings, GAMMA, **kw)
    victim = data.draw(st.integers(0, len(Us) - 1))
    poisoned = [U.copy() for U in Us]
    poisoned[victim][:] = np.nan
    with np.errstate(all="ignore"):
        dirty = euler_rhs_patches(poisoned, spacings, GAMMA, **kw)
    assert np.isnan(dirty[victim]).all()
    for k, (a, b) in enumerate(zip(clean, dirty)):
        if k != victim:
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(LIMITERS))
def test_limiters_in_place_equal_reference(name):
    """``out=`` / ``work=`` carved by the caller, allocated, or scalar
    inputs: the same bits as the allocating limiter it replaced."""
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, (5, 400))
    b = rng.normal(0.0, 1.0, (5, 400))
    a[:, ::7] = 0.0
    b[:, ::11] = -a[:, ::11]          # a + b == 0
    expected = reference_rhs.LIMITERS[name](a, b)
    assert np.array_equal(LIMITERS[name](a, b), expected)
    out, work = np.full((5, 400), np.nan), np.full((2, 5, 400), np.nan)
    assert LIMITERS[name](a, b, out=out, work=work) is out
    assert np.array_equal(out, expected)
    assert LIMITERS[name](1.0, 2.0) == reference_rhs.LIMITERS[name](1.0, 2.0)
