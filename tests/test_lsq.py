import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfock.lsq import least_squares


@st.composite
def _linear_problem(draw, underdetermined):
    """A random J (m x n, full rank, condition number below about 1e3), a
    right-hand side b and a start x0; with m < n, b = J x for some x, so
    the system is consistent."""
    n = draw(st.integers(2 if underdetermined else 1, 6))
    m = draw(st.integers(1, n - 1) if underdetermined
             else st.integers(n, n + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U, _ = np.linalg.qr(rng.standard_normal((m, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = min(m, n)
    s = np.exp(rng.uniform(-3.0, 3.0, k) * np.log(10) / 2)
    J = U[:, :k] @ np.diag(s) @ V[:, :k].T
    b = J @ rng.standard_normal(n) if m < n else rng.standard_normal(m)
    return J, b, rng.standard_normal(n)


def _solve(J, b, x0):
    return least_squares(lambda x: J @ x - b, x0, jac=lambda x: J,
                         max_nfev=200).x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_linear_problem(underdetermined=False))
def test_overdetermined_linear_least_squares_gives_lstsq(problem):
    J, b, x0 = problem
    want = np.linalg.lstsq(J, b, rcond=None)[0]
    assert np.allclose(_solve(J, b, x0), want, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_linear_problem(underdetermined=True))
def test_underdetermined_linear_least_squares_gives_the_nearest_solution(
        problem):
    """The minimum-norm steps never leave x0 + range(J^T), so they end at
    the solution nearest to x0."""
    J, b, x0 = problem
    want = x0 - np.linalg.pinv(J) @ (J @ x0 - b)
    assert np.allclose(_solve(J, b, x0), want, rtol=0, atol=1e-10)


def test_a_batch_solves_each_start_on_its_own():
    """Each start of a batch keeps its own damping: the batch gives each
    start's solution and the total of their evaluations."""
    J = np.array([[2.0, 1.0], [0.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, -2.0, 0.5])
    starts = np.array([[0.0, 0.0], [5.0, -3.0], [100.0, 40.0]])

    def fun(X):
        return X @ J.T - b

    def jac(X):
        return np.broadcast_to(J, (len(X),) + J.shape).copy()

    batch = least_squares(fun, starts, jac=jac, max_nfev=200)
    single = [least_squares(lambda x: J @ x - b, x0, jac=lambda x: J,
                            max_nfev=200) for x0 in starts]
    assert batch.x.shape == starts.shape
    for got, one in zip(batch.x, single):
        assert np.array_equal(got, one.x)
    assert batch.nfev == sum(one.nfev for one in single)
    assert isinstance(batch.nfev, int)
