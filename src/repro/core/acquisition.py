"""Expected Improvement with MCMC hyperparameter marginalization (EI-MCMC).

LOCAT's acquisition function (paper Section 3.4): Expected Improvement,
with GP hyperparameters integrated out by Markov-Chain Monte Carlo
instead of point-estimated, following Snoek et al. 2012. This removes
the need for external GP hyperparameter tuning — exactly the property
the paper cites.

Implementation: Metropolis–Hastings random walk in log-hyperparameter
space under a weak log-normal prior, thinned to ``n_hyper`` posterior
samples; EI is averaged over the sampled GPs, and a sample the chain
repeats is fitted and scored once. Each chain state is factored once: the
GP of a sample reuses the Cholesky factor the chain computed for its
likelihood. The normal CDF comes from
``_erf``, a vectorized Abramowitz & Stegun 7.1.26 approximation (the
project does not depend on scipy, and ``math.erf`` is scalar-only).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.gp import GP, Hyper, log_marginal_likelihood

__all__ = ["norm_pdf", "norm_cdf", "expected_improvement", "sample_hypers", "EIMCMC"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Metropolis–Hastings chain: burn-in steps, thinning interval and the
#: random-walk step in log-hyperparameter space.
_N_BURN = 30
_THIN = 3
_STEP = 0.25

_LOG_03 = math.log(0.3)
_LOG_1EM2 = math.log(1e-2)


def norm_pdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorized erf (Abramowitz & Stegun 7.1.26, |err| < 1.5e-7).

    No scipy in this environment and ``math.erf`` is scalar-only; this
    polynomial is plenty accurate for ranking EI values.
    """
    sign = np.sign(x)
    x = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-x * x))


def norm_cdf(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return 0.5 * (1.0 + _erf(z / _SQRT2))


def expected_improvement(mu: np.ndarray, var: np.ndarray, best: float) -> np.ndarray:
    """EI for *minimization*: E[max(best - f(x), 0)] under N(mu, var)."""
    sigma = np.sqrt(np.maximum(var, 1e-18))
    z = (best - mu) / sigma
    return (best - mu) * norm_cdf(z) + sigma * norm_pdf(z)


def _log_prior(h: Hyper) -> float:
    """Weak log-normal priors keeping hyperparameters in a sane range."""
    lp = 0.0
    # lengthscales ~ LogNormal(log 0.3, 1) on the unit cube
    z = np.log(h.lengthscales)
    z -= _LOG_03
    z *= z
    z *= -0.5
    lp += float(z.sum())
    # signal variance ~ LogNormal(0, 1) (targets are standardized)
    lp += -0.5 * math.log(h.signal_var) ** 2
    # noise variance ~ LogNormal(log 1e-2, 1.5)
    lp += -0.5 * ((math.log(h.noise_var) - _LOG_1EM2) / 1.5) ** 2
    return lp


def sample_hypers(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    n_hyper: int,
    _factors: dict | None = None,
) -> list[Hyper]:
    """MH posterior samples of GP hyperparameters given (X, y).

    ``y`` is standardized internally (mirroring :class:`GP`) so the priors
    above are scale-free. A ``_factors`` dict receives, per distinct sample,
    the ``(L, β)`` its likelihood was computed from (none for a state whose
    kernel does not factor), so a :class:`GP` of that sample need not factor
    it again. Only the current and the proposed state's factors are held
    besides the samples'.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    ys = (y - y.mean()) / (y.std() or 1.0)
    d = X.shape[1]
    cur = Hyper(np.full(d, 0.3), 1.0, 1e-2)
    cur_f: list = []
    cur_lp = log_marginal_likelihood(X, ys, cur, _keep=cur_f) + _log_prior(cur)
    v = cur.as_log_vector()
    samples: list[Hyper] = []
    total = _N_BURN + _THIN * n_hyper
    for i in range(total):
        prop_v = v + _STEP * rng.standard_normal(len(v))
        prop = Hyper.from_log_vector(prop_v)
        prop_f: list = []
        lp = log_marginal_likelihood(X, ys, prop, _keep=prop_f) + _log_prior(prop)
        if math.isfinite(lp) and math.log(rng.random() + 1e-300) < lp - cur_lp:
            cur, cur_lp, v, cur_f = prop, lp, prop_v, prop_f
        if i >= _N_BURN and (i - _N_BURN) % _THIN == 0:
            samples.append(cur)
            if _factors is not None and cur_f:
                _factors[cur] = cur_f[0]
    return samples


@dataclass
class EIMCMC:
    """EI-MCMC acquisition over a fitted sample set.

    Scores candidates by the *average* EI across one GP per sampled
    hyperparameter setting. The chain repeats a ``Hyper`` object when it
    rejects every proposal between two thinned samples; each distinct
    sample is fitted and scored once, and its EI is added once per time it
    was sampled, in sample order, so the average is the same float as over
    one GP per sample. Each GP takes the Cholesky factor the chain kept for
    its sample: the chain standardized ``y`` with the same operations as
    :class:`GP`, so the factor is the one ``GP`` would compute. ``best`` is
    the incumbent (minimal observed execution time).
    """

    X: np.ndarray
    y: np.ndarray
    rng: np.random.Generator
    n_hyper: int

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        #: Posterior samples in chain order, repeats included.
        factors: dict = {}
        self._hypers = sample_hypers(self.X, self.y, self.rng, n_hyper=self.n_hyper, _factors=factors)
        self._gps = {h: GP(self.X, self.y, h, factors.get(h)) for h in dict.fromkeys(self._hypers)}
        self.best = float(self.y.min())

    def score(self, candidates: np.ndarray) -> np.ndarray:
        """Average EI of each candidate row (larger is better)."""
        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        eis = {h: expected_improvement(*gp.predict(candidates), self.best) for h, gp in self._gps.items()}
        total = np.zeros(len(candidates))
        for h in self._hypers:
            total += eis[h]
        return total / len(self._hypers)
