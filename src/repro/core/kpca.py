"""Kernel Principal Component Analysis — LOCAT's CPE step.

Configuration Parameter Extraction (CPE, Section 3.3.2) runs KPCA over
the parameters that survive CPS, producing a small set of *new*
parameters (nonlinear combinations of the originals) that BO then tunes.
After BO converges in the extracted space, the original configuration is
recovered with a kernel *pre-image* step (Mika et al.'s fixed-point
iteration for the Gaussian kernel).

Three kernels are supported — ``gaussian``, ``polynomial`` and
``perceptron`` — because the paper selects the Gaussian kernel
empirically (Figure 6); the kernel-comparison experiment reruns that
selection. The perceptron kernel ``k(x, y) = -||x - y||`` is only
conditionally positive definite; KPCA centering makes it usable, and
negative-eigenvalue components are discarded.
"""
from __future__ import annotations

import numpy as np

__all__ = ["KernelPCA", "KERNELS", "pairwise_sqdist"]

KERNELS = ("gaussian", "polynomial", "perceptron")

#: Degree of the polynomial kernel ``(x·y + 1)^d``.
_DEGREE = 3
#: Pre-image fixed-point iteration: step cap and convergence tolerance.
_PREIMAGE_ITERS = 60
_PREIMAGE_TOL = 1e-8
#: Padding of the BO search box around the training projections, as a
#: fraction of each axis's span.
_LATENT_MARGIN = 0.15


def pairwise_sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``A`` and ``B``."""
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * A @ B.T, 0.0)


class KernelPCA:
    """KPCA with pre-image support, pure numpy.

    The Gaussian kernel's ``gamma`` is ``1 / d`` (the common median-free
    heuristic on unit-cube data). ``n_components`` is fixed by the
    caller — LOCAT uses roughly one third of the CPS-selected parameter
    count (Figure 10).
    """

    def __init__(self, n_components: int, kernel: str = "gaussian"):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        self.n_components = n_components
        self.kernel = kernel
        self._fitted = False

    # -- kernel ----------------------------------------------------------
    def _k(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if self.kernel == "gaussian":
            return np.exp(-self._gamma * pairwise_sqdist(A, B))
        if self.kernel == "polynomial":
            return (A @ B.T + 1.0) ** _DEGREE
        # perceptron: conditionally positive definite distance kernel
        return -np.sqrt(pairwise_sqdist(A, B))

    # -- fit / transform -------------------------------------------------
    def fit(self, X: np.ndarray) -> "KernelPCA":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or len(X) < 2:
            raise ValueError("X must be (n >= 2, d)")
        self.X = X
        n, d = X.shape
        self._gamma = 1.0 / d
        K = self._k(X, X)
        one = np.full((n, n), 1.0 / n)
        Kc = K - one @ K - K @ one + one @ K @ one
        vals, vecs = np.linalg.eigh(Kc)  # ascending
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        pos = vals > 1e-10
        vals, vecs = vals[pos], vecs[:, pos]
        m = min(self.n_components, len(vals))
        if m == 0:
            raise ValueError("no positive-eigenvalue components; degenerate input")
        self.eigenvalues_ = vals[:m]
        # alphas scaled so projections are <phi(x), v_i> with unit-norm v_i
        self.alphas_ = vecs[:, :m] / np.sqrt(vals[:m])
        self._K_fit = K
        self._K_fit_rowmean = K.mean(axis=1)
        self._K_fit_allmean = K.mean()
        self._fitted = True
        return self

    def _center_cross(self, Knew: np.ndarray) -> np.ndarray:
        """Center a cross-kernel matrix K(new, fit) consistently with fit."""
        return (
            Knew
            - Knew.mean(axis=1, keepdims=True)
            - self._K_fit_rowmean[None, :]
            + self._K_fit_allmean
        )

    def transform(self, Xnew: np.ndarray) -> np.ndarray:
        """Project new points into the extracted-parameter space (n, m)."""
        if not self._fitted:
            raise RuntimeError("fit() first")
        Xnew = np.atleast_2d(np.asarray(Xnew, dtype=float))
        Kc = self._center_cross(self._k(Xnew, self.X))
        return Kc @ self.alphas_

    # -- pre-image -------------------------------------------------------
    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        """Approximate pre-images of latent points ``Z`` (m,) or (n, m).

        For the Gaussian kernel this is Mika et al.'s fixed-point
        iteration ``z <- sum_i w_i k(z, x_i) x_i / sum_i w_i k(z, x_i)``
        with ``w = alphas @ z_latent`` (plus the centering constant). For
        the other kernels it falls back to the linear weighted mean of the
        training points, which is exact for the linear part and adequate
        for the kernel-comparison experiment.
        """
        if not self._fitted:
            raise RuntimeError("fit() first")
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n = len(self.X)
        out = np.empty((len(Z), self.X.shape[1]))
        for r, z in enumerate(Z):
            # weight of each training point in the latent reconstruction
            w = self.alphas_ @ z  # (n,)
            w = w - w.mean() + 1.0 / n  # undo centering: uniform base weight
            if self.kernel != "gaussian":
                w = np.clip(w, 0.0, None)
                s = w.sum()
                out[r] = (w @ self.X) / s if s > 1e-12 else self.X.mean(axis=0)
                continue
            x = self.X.mean(axis=0)
            for _ in range(_PREIMAGE_ITERS):
                k = np.exp(-self._gamma * np.sum((self.X - x) ** 2, axis=1))
                num = (w * k) @ self.X
                den = float(w @ k)
                if abs(den) < 1e-12:
                    break
                x_new = num / den
                if not np.all(np.isfinite(x_new)):
                    break
                if np.linalg.norm(x_new - x) < _PREIMAGE_TOL:
                    x = x_new
                    break
                x = x_new
            out[r] = np.clip(x, 0.0, 1.0)
        return out

    def latent_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box around the training projections, padded by
        ``_LATENT_MARGIN`` of each side's span — the BO search region in the
        extracted-parameter space."""
        Ztr = self.transform(self.X)
        lo, hi = Ztr.min(axis=0), Ztr.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        return lo - _LATENT_MARGIN * span, hi + _LATENT_MARGIN * span
