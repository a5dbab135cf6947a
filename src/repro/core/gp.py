"""Gaussian Process regression — the surrogate model of LOCAT's BO.

Pure-numpy GP with an ARD squared-exponential (RBF) kernel and Gaussian
observation noise, fitted by Cholesky factorization (paper eq. 8–10:
zero-mean prior, normal likelihood, closed-form posterior). Hyper-
parameters are *not* point-optimized here: LOCAT marginalizes them with
MCMC inside the acquisition function (EI-MCMC, see
:mod:`repro.core.acquisition`), exactly as Snoek et al.'s Spearmint does.

Each hyperparameter state is factored exactly once. The kernel matrix
``K`` is assembled in contiguous memory (elementwise steps on a strided
view run several times slower), then copied once into an ``(n+1)×(n+1)``
buffer whose last row is ``y``, and ``noise + jitter`` is added on its
diagonal. One Cholesky of that bordered matrix yields both the factor
``L`` and ``β = L⁻¹y`` (its last row). The marginal
likelihood needs only ``‖β‖²`` and ``diag(L)``, and the posterior mean is
``vᵀβ`` with the ``v = L⁻¹K*`` the variance already solves for, so no
solve is spent on ``y``. (Without scipy, ``np.linalg.solve`` runs a full LU
even on a triangular factor.) The MCMC chain of
:mod:`repro.core.acquisition` keeps the ``(L, β)`` of its current state
(``log_marginal_likelihood``'s ``_keep``) and hands it to :class:`GP` for
each posterior sample, so a sampled state is not factored a second time.

Targets are standardized internally so kernel amplitude priors are
scale-free; posteriors are reported back in the original units.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Hyper", "GP", "log_marginal_likelihood"]

_JITTER = 1e-8
# Any border constant above ‖β‖² leaves L and β untouched; only the last
# pivot sees it. yᵀy / (noise + jitter) bounds ‖β‖² in exact arithmetic, but
# rounding in K can push ‖β‖² past that bound at tiny noise, so the border is
# a fixed constant far above any finite ‖β‖² a factorable K produces.
_BORDER = 1e300
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class Hyper:
    """GP hyperparameters: ARD lengthscales, signal variance, noise variance.

    Hashed and compared by identity: a Metropolis–Hastings chain that
    rejects a proposal repeats the same object, so a repeated sample is a
    repeated key.
    """

    lengthscales: np.ndarray  # (d,) positive
    signal_var: float
    noise_var: float

    def as_log_vector(self) -> np.ndarray:
        return np.concatenate(
            [np.log(self.lengthscales), [np.log(self.signal_var), np.log(self.noise_var)]]
        )

    @staticmethod
    def from_log_vector(v: np.ndarray) -> "Hyper":
        v = np.asarray(v, dtype=float)
        return Hyper(np.exp(v[:-2]), float(np.exp(v[-2])), float(np.exp(v[-1])))


def rbf_kernel(A: np.ndarray, B: np.ndarray, hyper: Hyper) -> np.ndarray:
    """ARD RBF kernel matrix K(A, B), as a fresh C-contiguous array.

    Squared distances are ``(aa + bb) − 2·A·Bᵀ`` on the ARD-scaled rows,
    clamped at 0; then ``σ²·exp(−½·d²)``, each step in place on the
    contiguous result. When ``B is A`` the rows are scaled and their norms
    summed once.
    """
    same = B is A
    A = A / hyper.lengthscales
    aa = (A * A).sum(axis=1)
    if same:
        B, bb = A, aa
    else:
        B = B / hyper.lengthscales
        bb = (B * B).sum(axis=1)
    out = aa[:, None] + bb[None, :]
    # ``2.0 * A`` is a fresh operand, so this is a gemm even when B is A
    # (``A @ A.T`` would be a syrk, which may round differently).
    out -= 2.0 * A @ B.T
    np.maximum(out, 0.0, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= hyper.signal_var
    return out


def _factor(X: np.ndarray, y: np.ndarray, hyper: Hyper) -> tuple[np.ndarray, np.ndarray]:
    """``(L, β)``: the Cholesky factor of ``K + (noise + jitter)·I`` and ``L⁻¹y``.

    One ``np.linalg.cholesky`` of ``[[K + (noise + jitter)·I, y], [yᵀ, c]]``,
    whose factor is ``[[L, 0], [βᵀ, √(c − ‖β‖²)]]``. ``K`` is built
    contiguous, copied into the bordered buffer once, and the noise is added
    on the buffer's diagonal, a strided view of the flat buffer. Raises
    ``np.linalg.LinAlgError`` when the kernel is not positive definite.
    """
    n = len(y)
    buf = np.empty((n + 1, n + 1))
    buf[:n, :n] = rbf_kernel(X, X, hyper)
    buf.reshape(-1)[: n * (n + 2) : n + 2] += hyper.noise_var + _JITTER
    buf[n, :n] = y
    buf[:n, n] = y
    buf[n, n] = _BORDER
    C = np.linalg.cholesky(buf)
    return C[:n, :n], C[n, :n]


def log_marginal_likelihood(X: np.ndarray, y: np.ndarray, hyper: Hyper, *, _keep: list | None = None) -> float:
    """Log p(y | X, hyper) under the zero-mean GP prior.

    Returns ``-inf`` for numerically unfactorizable kernels so MCMC simply
    rejects those hyperparameter proposals. A ``_keep`` list receives the
    ``(L, β)`` of a factorable kernel, for a :class:`GP` at the same state.
    """
    try:
        L, beta = _factor(X, y, hyper)
    except np.linalg.LinAlgError:
        return -np.inf
    if _keep is not None:
        _keep.append((L, beta))
    return float(-0.5 * beta @ beta - np.log(L.diagonal()).sum() - 0.5 * len(y) * _LOG_2PI)


class GP:
    """A fitted GP posterior for one fixed hyperparameter setting.

    ``X`` is an ``(n, d)`` input matrix (normalized configurations, plus
    the data-size coordinate for DAGP) and ``y`` the observed execution
    times. ``predict`` returns the posterior mean and variance of eq. 10.
    ``_chol`` is the ``(L, β)`` that ``log_marginal_likelihood`` kept for
    the same ``X``, ``hyper`` and standardized ``y``; without it the GP
    factors its own kernel.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, hyper: Hyper, _chol: tuple | None = None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError("X must be (n, d) and y (n,)")
        self.X = X
        self.hyper = hyper
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        self._yn = (y - self._y_mean) / self._y_std
        self._L, self._beta = _factor(X, self._yn, hyper) if _chol is None else _chol

    def predict(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at rows of ``Xs`` (original units)."""
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        Ks = rbf_kernel(self.X, Xs, self.hyper)  # (n, m)
        v = np.linalg.solve(self._L, Ks)
        mu_n = v.T @ self._beta
        v *= v
        var_n = self.hyper.signal_var - v.sum(axis=0)
        var_n = np.maximum(var_n, 1e-12)
        mu = mu_n * self._y_std + self._y_mean
        var = var_n * self._y_std**2
        return mu, var
