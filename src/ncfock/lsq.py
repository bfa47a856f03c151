"""Levenberg-Marquardt least squares in numpy, batched over starts.

One routine serves both least-squares problems of the package: the
autocorrelation system of ``factorization.outer_factor`` on the hereditary
tree of p, 2n + 1 rows (n Stein forms and the phase gauge) in 2n unknowns,
run on all its starts at once, and the underdetermined witness polish of
``spectrum.variety_witness_search``.  The damping is Nielsen's (Madsen,
Nielsen & Tingleff, *Methods for non-linear least squares problems*, 2004,
Algorithm 3.16); each step solves the damped Gram system of the smaller
side of J (Moré, LNM 630, 1978, for the Levenberg-Marquardt step).
"""

from dataclasses import dataclass

import numpy as np

_TOL = 1e-15     # relative predicted decrease, cost drop and step
_TAU = 1e-3      # initial damping relative to the largest diagonal of J^T J


@dataclass
class LeastSquaresResult:
    x: np.ndarray      # the solution, shaped like x0
    nfev: int          # residual evaluations, summed over the starts


def _damped_step(J, f, mu):
    """The step h = -(J^T J + mu I)^{-1} J^T f of each start, and g = J^T f.

    With fewer rows than unknowns the same step is the minimum-norm form
    h = -J^T (J J^T + mu I)^{-1} f, so each solve has the smaller side."""
    m, n = J.shape[-2:]
    Jt = np.swapaxes(J, -1, -2)
    g = (Jt @ f[..., None])[..., 0]
    gram, rhs = (Jt @ J, g) if m >= n else (J @ Jt, f)
    size = gram.shape[-1]
    gram.reshape(len(gram), -1)[:, ::size + 1] += mu[:, None]
    try:
        u = np.linalg.solve(gram, -rhs[..., None])
    except np.linalg.LinAlgError:
        # an exactly singular system: the least-squares solution of each
        u = np.stack([np.linalg.lstsq(a, -b, rcond=None)[0]
                      for a, b in zip(gram, rhs[..., None])])
    h = u[..., 0] if m >= n else (Jt @ u)[..., 0]
    return h, g


def _norms(v):
    return np.sqrt(np.einsum("sk,sk->s", v, v))


def least_squares(fun, x0, jac, max_nfev):
    """Levenberg-Marquardt on fun from x0 with the exact Jacobian jac.

    x0 is one start of shape (n,) or a batch of shape (s, n).  On a batch,
    fun maps (k, n) points to (k, m) residuals and jac to (k, m, n)
    Jacobians, for any k <= s: each call takes only the starts still
    running, each with its own damping.  On one start they take and return
    the unbatched shapes.

    A start stops when its step predicts no decrease (a zero or non-finite
    step) or is at most 1e-15 of |x|, when it has used max_nfev
    evaluations, or after its last step; a start of zero or non-finite
    residual is returned as it is.  The last step is an
    undamped Gauss-Newton one, taken once a damped step predicts a decrease
    of at most 1e-15 of the cost (half the squared residual) or an accepted
    one lowered it by at most that; its drop is below the rounding of the
    cost, so it is kept where the linear model holds, where f moved by J h
    up to a remainder smaller than J h.  Returns the solutions x, shaped
    like x0, and nfev, the number of residual evaluations summed over the
    starts."""
    x = np.array(x0, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None]
        fun_1, jac_1 = fun, jac

        def fun(X):
            return fun_1(X[0])[None]

        def jac(X):
            return jac_1(X[0])[None]

    out = x.copy()
    nfev = np.ones(len(x), dtype=int)
    # a trial point whose residual overflows fails rho > 0 and is rejected,
    # so its warnings would say nothing
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.array(fun(x), dtype=float)       # updated in place below
        J = np.array(jac(x), dtype=float)
        cost = 0.5 * np.einsum("sm,sm->s", f, f)
        mu = _TAU * np.einsum("smn,smn->sn", J, J).max(axis=1)
        nu = np.full(len(x), 2.0)
        final = np.zeros(len(x), dtype=bool)
        ids = np.arange(len(x))     # the starts still running, by row
        keep = (cost > 0) & np.isfinite(cost) & (max_nfev > 1)
        while True:
            if not keep.all():
                ids, x, f, J, cost, mu, nu, final = (
                    a[keep] for a in (ids, x, f, J, cost, mu, nu, final))
            if not ids.size:
                break
            h, g = _damped_step(J, f, mu)
            predicted = 0.5 * np.einsum("sn,sn->s", h, mu[:, None] * h - g)
            last = final | (predicted <= _TOL * cost)
            if last.any():
                h[last], g[last] = _damped_step(J[last], f[last],
                                                np.zeros(last.sum()))
                predicted[last] = -0.5 * np.einsum("sn,sn->s", h[last],
                                                   g[last])
            keep = (predicted > 0) & (_norms(h) > _TOL * (_norms(x) + _TOL))
            if not keep.all():
                ids, x, f, J, cost, mu, nu, final, h, predicted, last = (
                    a[keep] for a in (ids, x, f, J, cost, mu, nu, final, h,
                                      predicted, last))
                if not ids.size:
                    break
            x_new = x + h
            f_new = fun(x_new)
            nfev[ids] += 1
            cost_new = 0.5 * np.einsum("sm,sm->s", f_new, f_new)
            drop = cost - cost_new
            rho = drop / predicted
            accept = rho > 0
            if last.any():
                moved = np.einsum("smn,sn->sm", J[last], h[last])
                accept[last] |= (_norms(f_new[last] - f[last] - moved)
                                 <= _norms(moved))
            if accept.any():
                final[accept] = drop[accept] <= _TOL * cost[accept]
                x[accept], f[accept], cost[accept] = (
                    x_new[accept], f_new[accept], cost_new[accept])
                out[ids[accept]] = x_new[accept]
                J[accept] = jac(x_new[accept])
                mu[accept] *= np.maximum(1 / 3,
                                         1 - (2 * rho[accept] - 1) ** 3)
                nu[accept] = 2.0
            mu[~accept] *= nu[~accept]
            nu[~accept] *= 2.0
            keep = (nfev[ids] < max_nfev) & ~last
    return LeastSquaresResult(x=out[0] if single else out,
                              nfev=int(nfev.sum()))
