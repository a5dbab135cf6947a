"""Unit tests for LHS, Spearman, GP, acquisition and KPCA."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    EIMCMC,
    _erf,
    expected_improvement,
    norm_cdf,
    norm_pdf,
    sample_hypers,
)
from repro.core.gp import _JITTER, GP, Hyper, log_marginal_likelihood, rbf_kernel
from repro.core.kpca import KERNELS, KernelPCA
from repro.core.lhs import latin_hypercube
from repro.core.spearman import rankdata, spearman, spearman_matrix


# ---------------------------------------------------------------- LHS
class TestLHS:
    def test_shape(self):
        u = latin_hypercube(7, 3, np.random.default_rng(0))
        assert u.shape == (7, 3)
        assert np.all((u >= 0) & (u <= 1))

    def test_stratification(self):
        n = 10
        u = latin_hypercube(n, 4, np.random.default_rng(1))
        for j in range(4):
            strata = np.floor(u[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_deterministic_given_seed(self):
        a = latin_hypercube(5, 2, np.random.default_rng(42))
        b = latin_hypercube(5, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n,dim", [(0, 1), (1, 0)])
    def test_rejects_bad_sizes(self, n, dim):
        with pytest.raises(ValueError):
            latin_hypercube(n, dim, np.random.default_rng(0))

    @given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_every_stratum_hit(self, n, dim, seed):
        u = latin_hypercube(n, dim, np.random.default_rng(seed))
        for j in range(dim):
            assert len(set(np.floor(u[:, j] * n).astype(int))) == n


# ------------------------------------------------------------ Spearman
class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, x**3) == pytest.approx(1.0)
        assert spearman(x, -(x**3)) == pytest.approx(-1.0)

    def test_constant_is_zero(self):
        assert spearman(np.ones(10), np.arange(10.0)) == 0.0

    def test_ties_averaged(self):
        assert rankdata(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_matrix(self):
        rng = np.random.default_rng(0)
        X = rng.random((50, 3))
        y = 3 * X[:, 0] - 2 * X[:, 2] + 0.01 * rng.standard_normal(50)
        scc = spearman_matrix(X, y)
        assert scc[0] > 0.7
        assert scc[2] < -0.5
        assert abs(scc[1]) < 0.4

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            spearman(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            spearman(np.array([1.0]), np.array([1.0]))

    def test_known_value(self):
        # hand-computed Spearman rho for a small example
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        assert spearman(x, y) == pytest.approx(0.8)


# ------------------------------------------------------------------ GP
class TestGP:
    def _fit(self, noise=1e-6):
        rng = np.random.default_rng(0)
        X = rng.random((20, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1]
        return X, y, GP(X, y, Hyper(np.array([0.3, 0.3]), 1.0, noise))

    def test_interpolates_training_points(self):
        X, y, gp = self._fit()
        mu, var = gp.predict(X)
        assert np.abs(mu - y).max() < 1e-2
        assert np.all(var >= 0)

    def test_uncertainty_grows_off_data(self):
        X, y, gp = self._fit()
        _, var_on = gp.predict(X[:1])
        _, var_off = gp.predict(np.array([[5.0, 5.0]]))
        assert var_off[0] > var_on[0] * 10

    def test_lml_finite_and_prefers_good_hypers(self):
        X, y, _ = self._fit()
        ys = (y - y.mean()) / y.std()
        good = log_marginal_likelihood(X, ys, Hyper(np.array([0.3, 0.3]), 1.0, 1e-2))
        bad = log_marginal_likelihood(X, ys, Hyper(np.array([1e-4, 1e-4]), 1.0, 1e-2))
        assert np.isfinite(good) and good > bad

    def test_hyper_log_vector_roundtrip(self):
        h = Hyper(np.array([0.5, 2.0]), 1.5, 0.01)
        h2 = Hyper.from_log_vector(h.as_log_vector())
        np.testing.assert_allclose(h2.lengthscales, h.lengthscales)
        assert h2.signal_var == pytest.approx(h.signal_var)
        assert h2.noise_var == pytest.approx(h.noise_var)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GP(np.zeros((3, 2)), np.zeros(4), Hyper(np.ones(2), 1.0, 0.1))


def _dense_K(X, h):
    return rbf_kernel(X, X, h) + (h.noise_var + _JITTER) * np.eye(len(X))


def _gp_case(n, d, noise=1e-2, dup=False, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if dup:
        X[n // 2 :] = X[: n - n // 2]
    y = np.sin(3 * X[:, 0]) + X[:, 1] + 0.1 * rng.standard_normal(n)
    return X, y, Hyper(np.full(d, 0.3 if d == 2 else 1.5), 1.3, noise)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls of ``np.linalg.cholesky`` and ``np.linalg.solve``."""
    calls = {"cholesky": 0, "solve": 0}
    for name in calls:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestGPFactorization:
    """The bordered factorization against dense LU references."""

    CASES = [
        (n, d, noise, dup)
        for n in (1, 2, 30, 220)
        for d in (2, 39)
        for noise in (1e-2, 1e-6)
        for dup in (False, True)
    ]

    @pytest.mark.parametrize("n,d,noise,dup", CASES)
    def test_lml_matches_dense_reference(self, n, d, noise, dup):
        X, y, h = _gp_case(n, d, noise, dup)
        ys = (y - y.mean()) / (y.std() or 1.0)
        K = _dense_K(X, h)
        sign, logdet = np.linalg.slogdet(K)
        assert sign == 1.0
        ref = -0.5 * ys @ np.linalg.solve(K, ys) - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi)
        assert log_marginal_likelihood(X, ys, h) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n,d,noise,dup", CASES)
    def test_predict_matches_dense_reference(self, n, d, noise, dup):
        X, y, h = _gp_case(n, d, noise, dup)
        Xs = np.random.default_rng(1).random((40, d))
        mu, var = GP(X, y, h).predict(Xs)
        K, Ks = _dense_K(X, h), rbf_kernel(X, Xs, h)
        sd = y.std() or 1.0
        mu_ref = Ks.T @ np.linalg.solve(K, (y - y.mean()) / sd) * sd + y.mean()
        var_ref = (h.signal_var - np.sum(Ks * np.linalg.solve(K, Ks), axis=0)) * sd**2
        # Two backward-stable solves of one system agree to about cond(K)·eps;
        # that exceeds 1e-9 only at noise 1e-6 on 220 points in 2-d (cond ≈ 1e8).
        tol = 1e-9 + np.linalg.cond(K) * np.finfo(float).eps
        assert np.max(np.abs(mu - mu_ref)) <= tol * np.max(np.abs(mu_ref))
        # Posterior variance is the prior variance minus the explained part,
        # so its error is measured on the prior's scale.
        assert np.max(np.abs(var - var_ref)) <= 1e-9 * h.signal_var * sd**2

    def test_indefinite_kernel_rejected(self):
        X, y, _ = _gp_case(30, 2)
        h = Hyper(np.full(2, 0.3), 1.0, -2.0)
        assert log_marginal_likelihood(X, y, h) == -np.inf
        with pytest.raises(np.linalg.LinAlgError):
            GP(X, y, h)

    def test_border_never_rejects_a_factorable_kernel(self):
        """LML is finite exactly when K itself factors, out to the prior's tails.

        Near-duplicate rows and white targets make ‖L⁻¹y‖² approach its
        bound yᵀy / (noise + jitter); the draws with long lengthscales, tiny
        noise and large signal variance push it past that bound.
        """
        rng = np.random.default_rng(0)
        d = 2
        base = rng.random((100, d))
        X = np.vstack([base, base + 1e-7 * rng.standard_normal((100, d))])
        ys = rng.standard_normal(len(X))
        ys = (ys - ys.mean()) / ys.std()
        # MH prior of acquisition._log_prior, widened 2.5x.
        mean = np.r_[np.full(d, math.log(0.3)), 0.0, math.log(1e-2)]
        sd = np.r_[np.ones(d), 1.0, 1.5]
        vs = mean + 2.5 * sd * rng.standard_normal((300, d + 2))
        tails = vs[::5]  # a view: every fifth draw goes into one of four tails
        tails[0::4, -1] = math.log(1e-14)
        tails[1::4, :d] = math.log(1e3)
        tails[2::4, :d] = math.log(1e-3)
        tails[3::4, :d] = math.log(1e2)
        tails[3::4, -1] = math.log(1e-12)
        tails[3::4, -2] = np.log(rng.choice([1e5, 1e6, 1e7], len(tails[3::4])))
        outcomes = set()
        for v in vs:
            h = Hyper.from_log_vector(v)
            try:
                np.linalg.cholesky(_dense_K(X, h))
                factorable = True
            except np.linalg.LinAlgError:
                factorable = False
            outcomes.add(factorable)
            assert np.isfinite(log_marginal_likelihood(X, ys, h)) == factorable, v
        assert outcomes == {True, False}

    def test_one_factorization_per_state_and_no_solve_on_y(self, linalg_calls):
        X, y, h = _gp_case(30, 2)
        log_marginal_likelihood(X, y, h)
        assert linalg_calls == {"cholesky": 1, "solve": 0}
        linalg_calls.update(cholesky=0, solve=0)
        gp = GP(X, y, h)
        assert linalg_calls == {"cholesky": 1, "solve": 0}
        linalg_calls.update(cholesky=0, solve=0)
        gp.predict(X[:5])
        assert linalg_calls == {"cholesky": 0, "solve": 1}


# ---------------------------------------------------------- acquisition
class TestAcquisition:
    def test_erf_matches_math_erf(self):
        z = np.linspace(-4, 4, 101)
        expected = np.array([math.erf(v) for v in z])
        np.testing.assert_allclose(_erf(z), expected, atol=2e-7)

    def test_norm_cdf_bounds(self):
        z = np.linspace(-8, 8, 50)
        c = norm_cdf(z)
        assert np.all((c >= 0) & (c <= 1))
        assert np.all(np.diff(c) >= 0)
        assert norm_cdf(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_norm_pdf_peak(self):
        assert norm_pdf(np.array([0.0]))[0] == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_ei_nonnegative_and_zero_far_above_best(self):
        ei = expected_improvement(np.array([10.0]), np.array([1e-6]), best=1.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)
        ei2 = expected_improvement(np.array([0.0]), np.array([1.0]), best=1.0)
        assert ei2[0] > 0.9

    def test_sample_hypers_count_and_positivity(self):
        rng = np.random.default_rng(0)
        X = rng.random((15, 3))
        y = X.sum(axis=1)
        hs = sample_hypers(X, y, rng, n_hyper=5)
        assert len(hs) == 5
        for h in hs:
            assert np.all(h.lengthscales > 0)
            assert h.signal_var > 0 and h.noise_var > 0

    def test_eimcmc_scores_and_prefers_promising(self):
        rng = np.random.default_rng(0)
        X = rng.random((25, 1))
        y = (X[:, 0] - 0.3) ** 2
        acq = EIMCMC(X, y, rng, n_hyper=4)
        scores = acq.score(np.array([[0.3], [0.95]]))
        assert scores.shape == (2,)
        assert np.all(scores >= 0)
        assert scores[0] > scores[1]


# ---------------------------------------------------------------- KPCA
class TestKPCA:
    def _X(self, n=30, d=5, seed=0):
        return np.random.default_rng(seed).random((n, d))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fit_transform_shapes(self, kernel):
        X = self._X()
        kp = KernelPCA(3, kernel=kernel).fit(X)
        Z = kp.transform(X)
        assert Z.shape == (30, 3)
        assert np.all(np.diff(kp.eigenvalues_) <= 1e-9)  # descending

    def test_gaussian_preimage_roundtrip_reasonable(self):
        X = self._X(n=40, d=4, seed=1)
        kp = KernelPCA(3).fit(X)
        Xi = kp.inverse_transform(kp.transform(X[:10]))
        assert Xi.shape == (10, 4)
        assert np.all((Xi >= 0) & (Xi <= 1))
        assert np.abs(Xi - X[:10]).mean() < 0.15

    def test_preimage_better_than_mean_baseline(self):
        X = self._X(n=40, d=4, seed=2)
        kp = KernelPCA(3).fit(X)
        Xi = kp.inverse_transform(kp.transform(X))
        err = np.abs(Xi - X).mean()
        base = np.abs(X.mean(axis=0)[None, :] - X).mean()
        assert err < base

    def test_latent_bounds_contain_projections(self):
        X = self._X()
        kp = KernelPCA(3).fit(X)
        lo, hi = kp.latent_bounds()
        Z = kp.transform(X)
        assert np.all(Z >= lo - 1e-9) and np.all(Z <= hi + 1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            KernelPCA(0)
        with pytest.raises(ValueError):
            KernelPCA(2, kernel="nope")
        with pytest.raises(RuntimeError):
            KernelPCA(2).transform(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            KernelPCA(2).fit(np.zeros((1, 3)))

    def test_caps_components_at_positive_eigenvalues(self):
        X = np.vstack([self._X(4, 3, 3)] * 2)  # rank-deficient
        kp = KernelPCA(10).fit(X)
        assert kp.alphas_.shape[1] <= 8
