"""Bit pin for the GP marginal likelihood, the MH prior, the chain and EI-MCMC.

Every BO proposal of every tuner ranks its candidates by ``EIMCMC.score``,
and the Metropolis–Hastings chain behind it accepts or rejects on the last
bits of ``log_marginal_likelihood + _log_prior``. A change to how these are
computed must keep every bit, or the chain walks elsewhere and every
campaign after it changes. ``PINNED`` hashes the ``repr`` of:

* ``log_marginal_likelihood`` and ``_log_prior`` on LOCAT-like cases
  (n 30–120, d 6–7) and a GBO-RL-like case (n 200, d 38), at hyperparameters
  drawn around the prior, at extreme lengthscales and noise, and at a
  kernel that does not factor (``-inf``);
* the log-vectors of the samples ``sample_hypers`` returns on three cases;
* ``EIMCMC.score`` of 312 candidates (LOCAT's 250 plus the quarter
  ``bo_minimize`` adds around the incumbent) on two LOCAT-like cases.

The kernels behind these numbers (``A @ B.T``, ``exp``, the Cholesky, the LU
solve) are SIMD kernels of NumPy and OpenBLAS, so the pin is host-bound: it
was captured on an Intel Xeon with AVX-512 (NumPy 1.26.4, OpenBLAS 0.3.23),
on the code whose ``EIMCMC`` factored each posterior sample a second time.
OpenBLAS also blocks its work by thread count, which moves the last bits from
n ≈ 120 up, so the digest is computed in a child process at one BLAS thread,
as perfbench runs. A change meant to alter these numbers recaptures it
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_gp_bits.py``
prints the digest) and says why in CHANGES.md.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np

from repro.core.acquisition import EIMCMC, _log_prior, sample_hypers
from repro.core.gp import Hyper, log_marginal_likelihood

#: (n, d) of the likelihood cases: LOCAT's latent space and GBO-RL's full space.
SHAPES = ((30, 6), (60, 7), (120, 7), (200, 38))
N_CAND = 312


def _case(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    X[n - n // 10 :] = X[: n // 10] + 1e-9  # near-duplicate rows
    y = 50.0 + 20.0 * np.sin(3 * X[:, 0]) + 10.0 * X[:, 1] ** 2 + rng.standard_normal(n)
    return X, y


def _hypers(d, rng):
    """Prior-like draws, then extremes: tiny and huge lengthscales, tiny
    noise, huge signal, and a negative noise that no kernel factors with."""
    mean = np.r_[np.full(d, np.log(0.3)), 0.0, np.log(1e-2)]
    sd = np.r_[np.ones(d), 1.0, 1.5]
    hs = [Hyper.from_log_vector(mean + sd * rng.standard_normal(d + 2)) for _ in range(6)]
    hs += [
        Hyper(np.full(d, 1e-4), 1.0, 1e-2),
        Hyper(np.full(d, 1e4), 1.0, 1e-2),
        Hyper(np.full(d, 1e3), 1e6, 1e-14),
        Hyper(np.geomspace(1e-3, 1e3, d), 2.5, 1e-8),
        Hyper(np.full(d, 0.3), 1.0, -2.0),
    ]
    return hs


def _digest():
    h = hashlib.sha256()
    finite = []
    for seed, (n, d) in enumerate(SHAPES):
        X, y = _case(n, d, seed)
        ys = (y - y.mean()) / (y.std() or 1.0)
        for hyp in _hypers(d, np.random.default_rng(100 + seed)):
            lml = log_marginal_likelihood(X, ys, hyp)
            finite.append(np.isfinite(lml))
            prior = _log_prior(hyp) if hyp.noise_var > 0 else None
            h.update(repr((lml, prior)).encode())
    for seed, (n, d), n_hyper in ((0, (30, 6), 8), (2, (120, 7), 5), (3, (200, 38), 3)):
        X, y = _case(n, d, seed)
        hs = sample_hypers(X, y, np.random.default_rng(7 + seed), n_hyper=n_hyper)
        h.update(repr([v.as_log_vector().tolist() for v in hs]).encode())
    for seed, (n, d) in ((0, (30, 6)), (1, (60, 7))):
        X, y = _case(n, d, seed)
        acq = EIMCMC(X, y, np.random.default_rng(11 + seed), n_hyper=8)
        cand = np.random.default_rng(20 + seed).random((N_CAND, d))
        h.update(repr(acq.score(cand).tolist()).encode())
    return h.hexdigest(), finite


PINNED = "a179541075ed86766b9da222110c8a3da0a35e5d728ebc52a2e1a1a062b05e14"


def test_gp_bits_pinned():
    path = [str(pathlib.Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    one_thread = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **one_thread)
    out = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.split()
    assert out == [PINNED, "mixed"]


if __name__ == "__main__":
    digest, finite = _digest()
    # "mixed": the pinned cases include kernels that factor and one that does not.
    print(digest, "mixed" if any(finite) and not all(finite) else "uniform")
