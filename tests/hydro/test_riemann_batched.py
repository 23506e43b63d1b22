"""The face-independent Riemann solver and the flux kernels built on it:
a face's result does not depend, bit for bit, on which faces share its
call; equal-state faces are their own solution; every check still fires
for one bad face in a large batch."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConvergenceError, HydroError
from repro.hydro import efm_flux, godunov_flux, riemann_exact, sample_riemann

from tests.hydro import reference_riemann

#: ``repro.hydro.riemann_exact`` names the function, not its module
solver = importlib.import_module("repro.hydro.riemann_exact")

GAMMA = 1.4

#: (rho, u, v, p, zeta) left | right.  Toro's five tests (1 is the
#: modified Sod tube whose left rarefaction is sonic), their mirror images
#: (the sonic rarefaction on the right), pure contacts and shears, and
#: supersonic faces where the ray sees an undisturbed state.
_TORO = [
    ((1.0, 0.75, 0.1, 1.0, 1.0), (0.125, 0.0, -0.2, 0.1, 0.0)),
    ((1.0, -2.0, 0.3, 0.4, 0.2), (1.0, 2.0, 0.3, 0.4, 0.8)),
    ((1.0, 0.0, 0.0, 1000.0, 1.0), (1.0, 0.0, 0.5, 0.01, 0.0)),
    ((1.0, 0.0, 0.0, 0.01, 1.0), (1.0, 0.0, 0.5, 100.0, 0.0)),
    ((5.99924, 19.5975, 1.0, 460.894, 0.3),
     (5.99242, -6.19633, -1.0, 46.0950, 0.6)),
]


def _mirror(face):
    (rl, ul, vl, pl, zl), (rr, ur, vr, pr, zr) = face
    return (rr, -ur, vr, pr, zr), (rl, -ul, vl, pl, zl)


POOL = _TORO + [_mirror(f) for f in _TORO] + [
    ((1.0, 0.0, 0.0, 1.0, 1.0), (0.125, 0.0, 0.0, 0.1, 0.0)),    # Sod
    ((1.0, 0.3, 0.0, 1.0, 1.0), (0.25, 0.3, 0.0, 1.0, 0.0)),     # contact
    ((1.0, -0.3, 0.0, 1.0, 1.0), (0.25, -0.3, 0.0, 1.0, 0.0)),
    ((1.0, 10.0, 0.2, 1.0, 0.1), (0.5, 10.0, 0.4, 0.5, 0.9)),    # supersonic
    ((1.0, -10.0, 0.2, 1.0, 0.1), (0.5, -10.0, 0.4, 0.5, 0.9)),
    ((1.0, 1.0, 0.3, 1.0, 0.0), (1.0, -1.0, 0.7, 1.0, 1.0)),     # collision
    # equal states, with a shear and a ζ jump riding on them
    ((1.3, 0.7, -0.4, 2.1, 0.6), (1.3, 0.7, 0.9, 2.1, 0.1)),
    ((1.3, -0.7, -0.4, 2.1, 0.6), (1.3, -0.7, 0.9, 2.1, 0.1)),
    ((0.2, 0.0, 0.0, 5.0, 1.0), (0.2, 0.0, 1.0, 5.0, 0.0)),
    ((2.0, 4.0, 0.0, 0.3, 1.0), (2.0, 4.0, 0.0, 0.3, 1.0)),
]
N_EQUAL = 4  # the last entries of POOL

rhos = st.floats(0.05, 10.0, allow_nan=False)
vels = st.floats(-3.0, 3.0, allow_nan=False)
press = st.floats(0.05, 10.0, allow_nan=False)
zetas = st.floats(0.0, 1.0, allow_nan=False)


def _no_vacuum(face):
    (rl, ul, _vl, pl, _zl), (rr, ur, _vr, pr, _zr) = face
    return (2.0 * (np.sqrt(GAMMA * pl / rl) + np.sqrt(GAMMA * pr / rr))
            / (GAMMA - 1.0) > ur - ul + 0.1)


side = st.tuples(rhos, vels, vels, press, zetas)
faces = st.one_of(st.sampled_from(POOL),
                  st.tuples(side, side).filter(_no_vacuum))
batches = st.lists(faces, min_size=1, max_size=16)


def _split(batch):
    """A list of faces as the kernels' left/right primitive tuples."""
    arr = np.array(batch, dtype=float)          # (n, 2, 5)
    return tuple(arr[:, 0].T.copy()), tuple(arr[:, 1].T.copy())


def _star(kernel):
    return lambda L, R: kernel(L[0], L[1], L[3], R[0], R[1], R[3], GAMMA)


KERNELS = {
    "riemann_exact": _star(riemann_exact),
    "sample_riemann": lambda L, R: sample_riemann(*L, *R, GAMMA),
    "godunov_flux": lambda L, R: godunov_flux(L, R, GAMMA),
    "efm_flux": lambda L, R: efm_flux(L, R, GAMMA),
}


# ------------------------------------------------------- face independence
@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=60, deadline=None)
@given(batch=batches, data=st.data())
def test_any_subset_or_permutation_gives_the_same_bits(name, batch, data):
    kernel = KERNELS[name]
    together = np.array(kernel(*_split(batch)))
    picks = data.draw(st.lists(st.integers(0, len(batch) - 1), min_size=1,
                               max_size=2 * len(batch)))
    apart = np.array(kernel(*_split([batch[k] for k in picks])))
    assert np.array_equal(apart, together[:, picks])


@pytest.mark.parametrize("name", KERNELS)
def test_every_pool_face_alone_equals_the_pool_batch(name):
    kernel = KERNELS[name]
    together = np.array(kernel(*_split(POOL)))
    for k, face in enumerate(POOL):
        assert np.array_equal(np.array(kernel(*_split([face])))[:, 0],
                              together[:, k]), k


def test_face_shapes_and_scalars_are_kept():
    L, R = _split(POOL[:6])
    flat = sample_riemann(*L, *R, GAMMA)
    boxed = sample_riemann(*(x.reshape(2, 3) for x in L),
                           *(x.reshape(2, 3) for x in R), GAMMA)
    for a, b in zip(flat, boxed):
        assert b.shape == (2, 3)
        assert np.array_equal(a, b.ravel())
    assert godunov_flux(tuple(x.reshape(2, 3) for x in L),
                        tuple(x.reshape(2, 3) for x in R),
                        GAMMA).shape == (5, 2, 3)
    (rl, ul, vl, pl, zl), (rr, ur, vr, pr, zr) = POOL[0]
    for scalar, batched in zip(
            sample_riemann(rl, ul, vl, pl, zl, rr, ur, vr, pr, zr, GAMMA),
            flat):
        assert np.ndim(scalar) == 0
        assert scalar == batched[0]


# ---------------------------------------------- same bits as the old solver
REFERENCE = {
    "riemann_exact": _star(reference_riemann.riemann_exact),
    "sample_riemann":
        lambda L, R: reference_riemann.sample_riemann(*L, *R, GAMMA),
}


@pytest.mark.parametrize("name", REFERENCE)
@settings(max_examples=40, deadline=None)
@given(batch=batches)
def test_batch_equals_reference_solver_face_by_face(name, batch):
    """The rewrite evaluates the replaced solver's expressions, only on
    the faces that use them: each face of a batch gets what the reference
    returns when it solves that face alone (its own Newton count)."""
    together = np.array(KERNELS[name](*_split(batch)))
    for k, face in enumerate(batch):
        alone = np.array(REFERENCE[name](*_split([face])))
        assert np.array_equal(alone[:, 0], together[:, k]), face


# -------------------------------------------------------- equal-state faces
@settings(max_examples=60, deadline=None)
@given(rho=rhos, u=st.one_of(vels, st.sampled_from([0.0, -0.0, 8.0, -8.0])),
       p=press, vl=vels, vr=vels, zl=zetas, zr=zetas,
       where=st.integers(0, len(POOL)))
def test_equal_state_face_is_its_own_solution(rho, u, p, vl, vr, zl, zr,
                                              where):
    """Also in a batch with strong shocks and sonic rarefactions; the
    passive v and ζ still follow the sign of u."""
    batch = list(POOL)
    batch.insert(where, ((rho, u, vl, p, zl), (rho, u, vr, p, zr)))
    L, R = _split(batch)
    p_star, u_star = riemann_exact(L[0], L[1], L[3], R[0], R[1], R[3], GAMMA)
    assert p_star[where] == p and u_star[where] == u
    rho_s, u_s, v_s, p_s, zeta_s = (x[where] for x in
                                    sample_riemann(*L, *R, GAMMA))
    assert (rho_s, u_s, p_s) == (rho, u, p)
    assert (v_s, zeta_s) == ((vl, zl) if u >= 0.0 else (vr, zr))
    # ... which is the exact flux of that state
    E = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v_s * v_s)
    assert np.array_equal(
        godunov_flux(L, R, GAMMA)[:, where],
        [rho * u, rho * u * u + p, rho * u * v_s, (E + p) * u,
         rho * zeta_s * u])


def test_all_equal_batch_needs_no_iteration(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("pressure function evaluated")

    monkeypatch.setattr(solver, "_pressure_function", never)
    L, R = _split(POOL[-N_EQUAL:])
    rho, u, v, p, zeta = sample_riemann(*L, *R, GAMMA)
    assert np.array_equal(rho, L[0]) and np.array_equal(p, L[3])


# --------------------------------------------------------------- the checks
def _with_one_bad_face(bad):
    batch = [POOL[-1]] * 7
    batch.insert(3, bad)
    return _split(batch)


@pytest.mark.parametrize("bad, match", [
    (((-1.0, 0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0, 0.0)), "non-physical"),
    (((1.0, 0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)), "non-physical"),
    # an equal-state face is not exempt from the state check
    (((1.0, 0.0, 0.0, -2.0, 0.0), (1.0, 0.0, 0.0, -2.0, 0.0)), "non-physical"),
    (((1.0, -10.0, 0.0, 0.1, 0.0), (1.0, 10.0, 0.0, 0.1, 0.0)), "vacuum"),
])
def test_one_bad_face_among_equal_states_raises(bad, match):
    L, R = _with_one_bad_face(bad)
    for kernel in (KERNELS["riemann_exact"], KERNELS["sample_riemann"],
                   KERNELS["godunov_flux"]):
        with pytest.raises(HydroError, match=match):
            kernel(L, R)


def test_one_unconverged_face_among_equal_states_raises(monkeypatch):
    L, R = _with_one_bad_face(POOL[2])       # Toro 3 needs several steps
    monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
    with pytest.raises(ConvergenceError, match="did not converge"):
        KERNELS["sample_riemann"](L, R)
    monkeypatch.undo()
    # a NaN never converges, and must not be mistaken for an equal state
    nan = float("nan")
    L, R = _with_one_bad_face(((1.0, nan, 0.0, 1.0, 0.0),
                               (1.0, nan, 0.0, 1.0, 0.0)))
    with pytest.raises(ConvergenceError):
        KERNELS["riemann_exact"](L, R)
