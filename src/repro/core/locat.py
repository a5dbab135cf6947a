"""LOCAT — the full low-overhead online configuration auto-tuner.

Pipeline (paper Figure 3):

1. **Bootstrap** — ``N_QCSA`` = 30 executions of the *full* application,
   recording per-query times: three from Latin Hypercube Sampling, then
   random feasible configurations up to ``N_IICP`` = 20 runs, then the
   last 10 proposed by BO with DAGP over the raw configuration space. The
   paper stresses these are not extra samples: "we leverage the samples
   (executions) performed by the BO iterations" (Section 5.1).
2. **QCSA** — classify queries by CV over the bootstrap runs; drop the
   configuration-insensitive ones, leaving the RQA.
3. **IICP** — CPS (Spearman filter) on the first ``N_IICP`` = 20
   bootstrap samples, then CPE (Gaussian-kernel KPCA) produces the
   extracted low-dimensional parameters.
4. **DAGP-BO** — BO over (extracted parameters, data size), evaluating
   only the RQA, with EI-MCMC acquisition, until at least 10 iterations
   ran and EI dropped under ``EI_FRAC`` = 10% of the incumbent.

Online re-tuning across data sizes (Section 3.4): ``Locat`` is a
:class:`BaseTuner`, so ``tune_multi`` runs one campaign per size. The
first campaign runs the whole pipeline and leaves its samples and
QCSA/IICP results on the tuner as ``state``; every later campaign is a
short DAGP-BO continuation from that state. One tuner instance serves one
executor's campaigns.

``use_qcsa`` / ``use_iicp`` switches support the paper's ablations: all
-parameter tuning (Figure 15's AP vs IP) and grafting QCSA/IICP onto
other tuners (Figure 21).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.acquisition import EIMCMC
from repro.core.bo import N_INIT, bo_minimize
from repro.core.configspace import ConfigSpace
from repro.core.dagp import DS_BOX, augment_with_ds, ds_normalize
from repro.core.iicp import N_IICP, IICPResult, cpe, iicp
from repro.core.qcsa import N_QCSA, QCSAResult, classify, qcsa_from_runs
from repro.core.result import BaseTuner
from repro.execmodel.interface import Executor, RunResult

__all__ = ["EI_FRAC", "Locat", "LocatState"]

#: Stop rule: EI below this fraction of the incumbent (paper Section 3.4).
EI_FRAC = 0.10
#: BO iterations between refits of CPE's KPCA.
_REFIT_EVERY = 8


@dataclass
class LocatState:
    """Carry-over state enabling online re-tuning across data sizes."""

    qcsa: QCSAResult
    iicp: IICPResult | None
    Z: list[np.ndarray]  # latent (or normalized-conf) coordinates of each run
    runs: list[RunResult]  # the bootstrap and search runs, from the executor's log
    rng: np.random.Generator  # the stream every re-tune after the first size draws from

    @property
    def y(self) -> np.ndarray:
        """RQA execution time of each run."""
        rqa = set(self.qcsa.rqa)
        return np.array([sum(t for q, t in r.times.items() if q in rqa) for r in self.runs])


class Locat(BaseTuner):
    """The LOCAT tuner over a :class:`ConfigSpace`."""

    name = "LOCAT"

    def __init__(
        self,
        space: ConfigSpace,
        *,
        seed: int = 0,
        n_qcsa: int = N_QCSA,
        n_iicp: int = N_IICP,
        min_iters: int = 10,
        max_iters: int = 35,
        retune_min_iters: int = 6,
        retune_max_iters: int = 16,
        n_hyper: int = 5,
        n_candidates: int = 250,
        use_qcsa: bool = True,
        use_iicp: bool = True,
    ):
        super().__init__(space, seed=seed)
        self.n_qcsa = n_qcsa
        self.n_iicp = n_iicp
        self.min_iters = min_iters
        self.max_iters = max_iters
        self.retune_min_iters = retune_min_iters
        self.retune_max_iters = retune_max_iters
        self.n_hyper = n_hyper
        self.n_candidates = n_candidates
        self.use_qcsa = use_qcsa
        self.use_iicp = use_iicp
        self.state: LocatState | None = None  # set by the first campaign

    # -- phase 1: bootstrap ---------------------------------------------
    def _bootstrap(self, executor: Executor, ds: float, rng) -> list[RunResult]:
        """30 full-application runs doubling as the QCSA/IICP sample sets.

        The first ``n_iicp`` runs use 3 LHS starts plus *random feasible*
        configurations — Section 3.3 requires the IICP sample matrix S' to
        come from random configurations (BO-concentrated samples restrict
        each parameter's range and destroy the Spearman signal). The
        remaining runs are DAGP-BO proposals, so the bootstrap still
        doubles as the start of the optimization itself (Section 5.1).
        """
        runs = [
            executor.run(executor.repair(conf, self.space), ds)
            for conf in self.space.sample_lhs(min(N_INIT, self.n_qcsa), rng)
        ]
        while len(runs) < min(self.n_iicp, self.n_qcsa):
            runs.append(executor.run(executor.sample_feasible(self.space, rng), ds))
        while len(runs) < self.n_qcsa:
            Xn = augment_with_ds(self.space.matrix([r.conf for r in runs]), [r.ds for r in runs])
            y = np.array([r.total for r in runs])
            acq = EIMCMC(Xn, y, rng, n_hyper=self.n_hyper)
            cand, conf_of = executor.sample_candidates(self.space, rng, self.n_candidates)
            j = int(np.argmax(acq.score(augment_with_ds(cand, ds))))
            runs.append(executor.run(conf_of(j), ds))
        return runs

    # -- phase 2: DAGP-BO over the reduced problem ----------------------
    def _refit_extraction(self) -> None:
        """Refit CPE's KPCA on every configuration sampled so far and
        re-project the sample coordinates. The extraction starts from only
        ``N_IICP`` samples; as DAGP-BO adds evaluations, refitting widens
        the reachable configuration manifold (the GP model "is improved
        after each execution", Section 3.4)."""
        state = self.state
        ii = state.iicp
        kp = cpe(state.runs, ii.subspace, n_components=ii.n_components)
        state.iicp = IICPResult(ii.space, ii.cps_result, ii.subspace, kp)
        state.Z = [state.iicp.to_latent(r.conf) for r in state.runs]

    def _search(
        self,
        executor: Executor,
        ds: float,
        rng,
        *,
        min_iters: int,
        max_iters: int,
    ) -> None:
        """Run BO at data size ``ds``, appending evaluations to ``self.state``."""
        state = self.state
        rqa = state.qcsa.rqa
        ds_n = ds_normalize(ds)
        done = 0
        while done < max_iters:
            if state.iicp is not None:
                if done > 0:
                    self._refit_extraction()
                z_lo, z_hi = state.iicp.latent_bounds()
            else:
                z_lo = np.zeros(self.space.dim)
                z_hi = np.ones(self.space.dim)
            lo = np.concatenate([z_lo, [DS_BOX[0]]])
            hi = np.concatenate([z_hi, [DS_BOX[1]]])
            iicp_now = state.iicp

            def f(x: np.ndarray) -> float:
                z = x[:-1]
                if iicp_now is not None:
                    conf = iicp_now.to_conf(z)
                else:
                    conf = self.space.from_vector(z)
                conf = executor.repair(conf, self.space)
                r = executor.run(conf, ds, rqa)
                state.Z.append(np.asarray(z, dtype=float))
                state.runs.append(r)
                return r.total

            chunk = min(_REFIT_EVERY, max_iters - done)
            X = augment_with_ds(np.vstack(state.Z), [r.ds for r in state.runs])
            # min_iters == max_iters: bo_minimize's own EI stop never fires,
            # the rule below is applied once per chunk instead
            res = bo_minimize(
                f,
                lo,
                hi,
                rng,
                min_iters=chunk,
                max_iters=chunk,
                n_candidates=self.n_candidates,
                n_hyper=self.n_hyper,
                init_X=X,
                init_y=state.y,
                fixed_dims={len(lo) - 1: ds_n},
                cand_base=X,
            )
            done += res.n_iters
            # stop rule: enough iterations and the last chunk's EI faded
            if done >= min_iters and res.ei_history and res.ei_history[-1] < EI_FRAC * abs(res.best_y):
                break

    def _best_at(self, executor: Executor, ds: float) -> dict:
        """Recommend a configuration for size ``ds`` by confirmation runs.

        Re-runs the RQA (charged) under the 3 best configurations observed
        at this size and the 2 best observed at other sizes, and returns the
        one with the lowest confirmed time. At this size a re-run is
        averaged with the first observation; a configuration from another
        size is scored by its re-run alone. Single noisy observations
        over-reward lucky runs (winner's curse), which the re-run damps."""
        state = self.state
        y = state.y
        at_ds = [i for i, r in enumerate(state.runs) if abs(r.ds - ds) < 1e-9]
        at_ds_set = set(at_ds)
        other = [i for i in range(len(y)) if i not in at_ds_set]
        # top candidates observed at this size, plus the best configurations
        # found at *other* sizes re-scored here — reusing prior optima across
        # data sizes is the datasize-awareness payoff (Section 3.4)
        top = sorted(at_ds, key=lambda i: y[i])[:3]
        top += sorted(other, key=lambda i: y[i])[:2]
        best_i, best_t = None, np.inf
        rqa = state.qcsa.rqa
        for i in top:
            # confirmation run (charged): averages out single-run noise so a
            # lucky observation is not crowned (CherryPick-style check)
            t2 = executor.run(state.runs[i].conf, ds, rqa).total
            avg = 0.5 * (y[i] + t2) if i in at_ds_set else t2
            if avg < best_t:
                best_i, best_t = i, avg
        return state.runs[best_i].conf

    # -- the campaign ----------------------------------------------------
    def _tune(self, executor: Executor, ds: float, rng) -> dict:
        """The first size pays the full pipeline with ``rng``; each later
        size reuses the QCSA/IICP results and every prior DAGP sample, so
        only a short BO continuation runs, drawing from the state's own
        stream — the datasize-awareness the SOTA approaches lack
        (Figure 20)."""
        if self.state is None:
            runs = self._bootstrap(executor, ds, rng)
            qres = qcsa_from_runs(runs) if self.use_qcsa else classify(
                {q: 1.0 for q in executor.query_names}
            )
            ii = iicp(runs[: self.n_iicp], self.space) if self.use_iicp else None
            to_z = ii.to_latent if ii is not None else self.space.to_vector
            self.state = LocatState(
                qres, ii, [to_z(r.conf) for r in runs], runs, np.random.default_rng(self.seed + 1)
            )
            min_iters, max_iters = self.min_iters, self.max_iters
        else:
            rng = self.state.rng
            min_iters, max_iters = self.retune_min_iters, self.retune_max_iters
        self._search(executor, ds, rng, min_iters=min_iters, max_iters=max_iters)
        return self._best_at(executor, ds)
