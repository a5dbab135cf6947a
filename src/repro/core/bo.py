"""Bayesian Optimization loop over a box-bounded continuous space.

Shared engine for LOCAT's phase-2 search (in the IICP-extracted latent
space) and the BO-based baselines (Tuneful, GBO-RL) which search the
raw normalized configuration space. Follows the paper's Section 3.4:

* start points from Latin Hypercube Sampling;
* EI-MCMC acquisition (:class:`repro.core.acquisition.EIMCMC`);
* stop when at least ``min_iters`` iterations ran *and* the maximum EI
  falls below ``ei_frac`` (10%) of the incumbent objective — the
  CherryPick-inspired exploration/exploitation balance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.acquisition import EIMCMC
from repro.core.lhs import latin_hypercube

__all__ = ["BOResult", "N_INIT", "bo_minimize"]

#: LHS start points when no samples seed the surrogate (paper Section 3.4).
N_INIT = 3


@dataclass
class BOResult:
    """Trace of one BO run (in the search space's own coordinates)."""

    best_x: np.ndarray
    best_y: float
    X: np.ndarray
    y: np.ndarray
    n_iters: int
    ei_history: list[float] = field(default_factory=list)
    stopped_early: bool = False


def bo_minimize(
    f: Callable[[np.ndarray], float],
    lo: np.ndarray,
    hi: np.ndarray,
    rng: np.random.Generator,
    *,
    min_iters: int = 10,
    max_iters: int = 40,
    ei_frac: float = 0.10,
    n_candidates: int = 400,
    n_hyper: int = 6,
    init_X: np.ndarray | None = None,
    init_y: np.ndarray | None = None,
    fixed_dims: dict[int, float] | None = None,
    local_refine: bool = True,
    cand_base: np.ndarray | None = None,
) -> BOResult:
    """Minimize ``f`` over the box ``[lo, hi]``.

    ``init_X`` / ``init_y`` seed the surrogate with pre-existing samples
    (LOCAT reuses its bootstrap executions; ``N_INIT`` LHS points are
    drawn only when no seed is given). ``fixed_dims`` pins coordinates of
    *proposed* candidates (DAGP pins the data-size dimension to the
    current size while the surrogate still learns across sizes from the
    seeded samples). ``max_iters`` counts new evaluations of ``f``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    span = hi - lo
    if np.any(span <= 0):
        raise ValueError("empty box")

    def apply_fixed(U: np.ndarray) -> np.ndarray:
        if fixed_dims:
            for j, v in fixed_dims.items():
                U[:, j] = (v - lo[j]) / span[j]
        return U

    X_list: list[np.ndarray] = []
    y_list: list[float] = []
    if init_X is not None:
        X_list = [np.asarray(x, dtype=float) for x in init_X]
        y_list = [float(v) for v in init_y]
    else:
        for u in apply_fixed(latin_hypercube(N_INIT, d, rng)):
            x = lo + u * span
            X_list.append(x)
            y_list.append(float(f(x)))

    ei_history: list[float] = []
    n_new = 0
    stopped = False
    while n_new < max_iters:
        X = np.vstack(X_list)
        y = np.asarray(y_list)
        # normalize inputs to the unit box for the GP
        Xn = (X - lo) / span
        acq = EIMCMC(Xn, y, rng, n_hyper=n_hyper)
        if cand_base is not None and len(cand_base):
            # Propose near known-meaningful points (e.g. LOCAT's projected
            # training configurations: uniform draws in a KPCA latent box
            # mostly fall *off* the data manifold, where the pre-image is
            # meaningless). 70% jittered around base rows, 30% uniform.
            base_n = ((np.asarray(cand_base, dtype=float) - lo) / span)
            n_loc = (7 * n_candidates) // 10
            rows = base_n[rng.integers(len(base_n), size=n_loc)]
            scales = rng.uniform(0.02, 0.25, size=(n_loc, 1))
            near = np.clip(rows + scales * rng.standard_normal((n_loc, d)), 0.0, 1.0)
            cand = np.vstack([near, rng.random((n_candidates - n_loc, d))])
            cand = apply_fixed(cand)
        else:
            cand = apply_fixed(rng.random((n_candidates, d)))
        if local_refine:
            # Densify near the incumbent for exploitation. Only meaningful
            # when the candidate set can actually cover the space — i.e.
            # in low dimension. High-dimensional candidate-based EI
            # maximization is exploration-only (curse of dimensionality),
            # which is exactly why IICP's dimension reduction accelerates
            # BO convergence (paper Sections 3.3 / 5.5).
            best_i = int(np.argmin(y))
            local = Xn[best_i] + 0.05 * rng.standard_normal((n_candidates // 4, d))
            local = apply_fixed(np.clip(local, 0.0, 1.0))
            cand = np.vstack([cand, local])
        scores = acq.score(cand)
        j = int(np.argmax(scores))
        ei_max = float(scores[j])
        ei_history.append(ei_max)
        if n_new >= min_iters and ei_max < ei_frac * abs(float(y.min())):
            stopped = True
            break
        x_next = lo + cand[j] * span
        X_list.append(x_next)
        y_list.append(float(f(x_next)))
        n_new += 1

    X = np.vstack(X_list)
    y = np.asarray(y_list)
    best_i = int(np.argmin(y))
    return BOResult(X[best_i], float(y[best_i]), X, y, n_new, ei_history, stopped)
