"""Dense output against the full-width weights it replaced.

``_lagrange_weights`` forms only the history rows some column uses, and
``_combine`` sums only those.  The oracle below forms all of them, one
``np.where`` per row, as the weights were computed before; the rows no
column uses are the identity there, so ``interpolate`` must be bitwise
equal to it: for one state and for a batch whose columns sit at
different orders and history lengths, at points inside the last step
and at points passed an output ago.
"""

import numpy as np

from repro.integrators.cvode import CVode


def _oracle_lagrange_weights(nodes, count, t):
    rows = np.arange(len(nodes))
    used = rows[:, None, None] < count
    L = np.ones(used.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (t - nodes) / (nodes[:, None] - nodes)
        ratio[rows, rows] = 1.0
        for m in rows:
            L = np.where(used[m], L * ratio[:, m, None], L)
    return np.where(used, L, 0.0)


def _oracle_combine(weights, values):
    out = weights[0][:, None] * values[0]
    for i in range(1, len(weights)):
        out += weights[i][:, None] * values[i]
    return out


def _oracle_interpolate(cv, t):
    t = np.broadcast_to(np.asarray(t, dtype=float), (cv.B,))
    count = np.minimum(cv._order + 1, cv._nhist)
    weights = _oracle_lagrange_weights(cv._ts, count[None], t)
    return _oracle_combine(weights, cv._ys)[0]


def _history_points(cv):
    """(B,) points across each column's interpolation range: its oldest
    usable node, inside the last step, and its current time."""
    count = np.minimum(cv._order + 1, cv._nhist)
    hi = cv._ts[0]
    lo = np.maximum(cv._ts[count - 1, np.arange(cv.B)], cv._t_start)
    return [lo + f * (hi - lo) for f in (0.0, 0.25, 0.5, 0.9, 1.0)]


def _assert_bitwise(cv):
    for t in _history_points(cv):
        got = np.asarray(cv.interpolate(t)).reshape(cv.n, cv.B)
        want = _oracle_interpolate(cv, t)
        assert got.tobytes() == want.tobytes()


def _robertson(t, y, k1):
    a, b, c = y
    return np.array([-k1 * a + 1e4 * b * c,
                     k1 * a - 1e4 * b * c - 3e7 * b * b,
                     3e7 * b * b])


def test_one_state_matches_the_full_width_weights():
    cv = CVode(lambda t, y: _robertson(t, y, 0.04), 0.0,
               np.array([1.0, 0.0, 0.0]), rtol=1e-6, atol=1e-10)
    outputs = np.geomspace(1e-5, 1.0, 12)
    for t_out in outputs:
        cv.integrate_to(t_out, stop=False)
        _assert_bitwise(cv)
    assert cv.order > 1


def test_a_batch_at_mixed_orders_and_history_lengths():
    k1 = np.array([0.04, 0.4, 4.0, 0.004, 0.04])
    y0 = np.tile(np.array([[1.0], [0.0], [0.0]]), (1, len(k1)))
    cv = CVode(lambda t, y, k: _robertson(t, y, k), 0.0, y0,
               rtol=1e-6, atol=1e-10, args=(k1,))
    seen_counts = set()
    # each column stops at its own output: they step different amounts
    for scale in np.geomspace(1e-5, 1e-1, 8):
        cv.integrate_to(scale * np.array([1.0, 3.0, 0.2, 10.0, 0.05]),
                        stop=False)
        _assert_bitwise(cv)
        seen_counts.add(tuple(np.minimum(cv._order + 1, cv._nhist)))
    assert any(len(set(counts)) > 1 for counts in seen_counts)
