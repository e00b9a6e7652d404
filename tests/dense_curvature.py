"""The general n-metric curvature oracle of the tests: the dense assembly that
taubnut.curvature.block_curvature replaced, kept to check the block formulas
against on any metric of two coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from taubnut.numerics import IllConditioned, Jet, jets


def jet_curvature(metric, u: float, v: float, flat: bool):
    """Riemann and Ricci tensors, exact to rounding, of an n-metric of its first two
    coordinates: ``metric(a, b)``, the matrix as rows of Jets and numbers, called on the
    jets of u and v.  Returns (g, g^-1, riem, ric, |Rm|^2), riem[l, k, i, j] = R^l_kij =
    d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik and ric[k, i] = R^l_kli, for
    G^l_ij = g^lm (d_i g_mj + d_j g_mi - d_m g_ij) / 2 and d_p G = g^-1 (d_p G_low - d_p g G).
    IllConditioned where g or a derivative is not finite, g is singular, or the rounding
    bound eps |T| max_i g_ii g^ii, T the sum of the absolute values of R's terms, exceeds
    1e-6 |Rm|; a flat metric is zero to within the bound and exempt from it."""
    rows = metric(*jets(u, v))
    n, nn = len(rows), len(rows) ** 2
    G = np.array([(e.val, e.du, e.dv, e.duu, e.duv, e.dvv) if type(e) is Jet else (e, 0, 0, 0, 0, 0)
                  for row in rows for e in row]).T.reshape(6, n, n)   # g, d_u g, ..., d_vv g
    if not np.isfinite(G).all():
        raise IllConditioned(f"metric or a derivative not finite at ({u}, {v})")
    try:
        g, ginv = G[0], np.linalg.inv(G[0])
    except np.linalg.LinAlgError:
        raise IllConditioned(f"metric singular at ({u}, {v})") from None
    dg = np.zeros((3, n, n, n))   # d_m g_ij, d_m d_u g_ij and d_m d_v g_ij; zero for m >= 2
    dg[:, :2] = G[[1, 2, 3, 4, 4, 5]].reshape(3, 2, n, n)
    low = 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)   # G_mij, d_p G_mij
    gam = ginv @ low[0].reshape(n, nn)
    dgam = np.zeros((n, n, nn))   # dgam[l, i] = d_i G^l, zero for i >= 2
    dgam[:, :2] = (ginv @ (low[1:].reshape(2, n, nn) - G[1:3] @ gam)).transpose(1, 0, 2)
    size = abs(gam)   # terms: d_i G^l_jk + G^l_im G^m_jk at [l, i, j, k], and its sizes
    terms = np.array([dgam.reshape(nn, nn) + gam.reshape(nn, n) @ gam, abs(dgam).reshape(nn, nn)
                      + size.reshape(nn, n) @ size]).transpose(1, 2, 0).reshape(n, n, n, n, 2)
    both = terms + terms.transpose(0, 2, 1, 3, 4) * np.array([-1.0, 1.0])   # R^l_kij and T
    full = both   # l lowered, i, j and k raised, one index a pass, moved last: n^5 work
    for mat in (g, ginv, ginv, ginv):
        full = full.reshape(n, -1).T @ mat
    rm_sq, t_sq = (full.reshape(2, -1) @ both.reshape(-1, 2)).diagonal()
    bound = math.ulp(1.0) * math.sqrt(t_sq) * float((g.diagonal() * ginv.diagonal()).max())
    if not (bound <= 1e-6 * math.sqrt(max(rm_sq, 0.0)) or flat and bound < math.inf):
        raise IllConditioned(f"rounding bound {bound:.2e} of |Rm|^2 = {rm_sq:.2e} at ({u}, {v})")
    riem = both[..., 0]   # R^l_kij at [l, i, j, k]; Ric_ki = R^l_kli its trace over l and i
    return g, ginv, riem.transpose(0, 3, 1, 2), riem.trace().T, float(rm_sq)


def rows(metric):
    """The dense rows of a toric metric as block_curvature takes it: ``metric(a, b)``
    gives (lam, F11, F12, F22), or (lam, F11) for a circle fiber."""
    def dense(a, b):
        lam, *fiber = metric(a, b)
        if len(fiber) == 1:
            return ((lam, 0, 0), (0, lam, 0), (0, 0, fiber[0]))
        e11, e12, e22 = fiber
        return ((lam, 0, 0, 0), (0, lam, 0, 0), (0, 0, e11, e12), (0, 0, e12, e22))
    return dense


def metric4(params, u, v):
    """The 4-metric curvature4_fd curves at (u, v), on the jets (a, b): lam, then the
    fiber in the torus basis params.curvature_fiber(u, v) picks."""
    fiber = params.curvature_fiber(u, v)
    return lambda a, b: (params.conformal_factor(a, b), *fiber(a, b))
