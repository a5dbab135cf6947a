"""LOCAT — the full low-overhead online configuration auto-tuner.

Pipeline (paper Figure 3):

1. **Bootstrap** — ``N_QCSA`` = 30 executions of the *full* application,
   the first three from Latin Hypercube Sampling and the rest proposed by
   BO with DAGP over the raw configuration space, recording per-query
   times. The paper stresses these are not extra samples: "we leverage
   the samples (executions) performed by the BO iterations"
   (Section 5.1).
2. **QCSA** — classify queries by CV over the bootstrap runs; drop the
   configuration-insensitive ones, leaving the RQA.
3. **IICP** — CPS (Spearman filter) on the first ``N_IICP`` = 20
   bootstrap samples, then CPE (Gaussian-kernel KPCA) produces the
   extracted low-dimensional parameters.
4. **DAGP-BO** — BO over (extracted parameters, data size), evaluating
   only the RQA, with EI-MCMC acquisition, until at least 10 iterations
   ran and EI dropped under ``EI_FRAC`` = 10% of the incumbent.

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
from repro.core.iicp import IICPResult, cpe, iicp
from repro.core.qcsa import QCSAResult, classify, qcsa_from_runs
from repro.core.result import TuneResult, tune_result
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
    Z: list[np.ndarray]  # latent (or normalized-conf) sample coordinates
    ds: list[float]  # data size of each sample
    y: list[float]  # RQA execution time of each sample
    confs: list[dict]  # the full configuration of each sample


def _rqa_total(r: RunResult, rqa: list[str]) -> float:
    keep = set(rqa)
    return float(sum(r.times[q] for q in r.times if q in keep))


class Locat:
    """The LOCAT tuner over a :class:`ConfigSpace`."""

    def __init__(
        self,
        space: ConfigSpace,
        *,
        seed: int = 0,
        n_qcsa: int = 30,
        n_iicp: int = 20,
        min_iters: int = 10,
        max_iters: int = 35,
        retune_min_iters: int = 6,
        retune_max_iters: int = 16,
        n_hyper: int = 5,
        n_candidates: int = 250,
        use_qcsa: bool = True,
        use_iicp: bool = True,
    ):
        self.space = space
        self.seed = seed
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

    # -- phase 1: bootstrap ---------------------------------------------
    def _bootstrap(self, executor: Executor, ds: float, rng) -> tuple[list[dict], list[RunResult]]:
        """30 full-application runs doubling as the QCSA/IICP sample sets.

        The first ``n_iicp`` runs use 3 LHS starts plus *random feasible*
        configurations — Section 3.3 requires the IICP sample matrix S' to
        come from random configurations (BO-concentrated samples restrict
        each parameter's range and destroy the Spearman signal). The
        remaining runs are DAGP-BO proposals, so the bootstrap still
        doubles as the start of the optimization itself (Section 5.1).
        """
        confs: list[dict] = []
        runs: list[RunResult] = []
        for conf in self.space.sample_lhs(min(N_INIT, self.n_qcsa), rng):
            conf = executor.repair(conf, self.space)
            confs.append(conf)
            runs.append(executor.run(conf, ds))
        while len(runs) < min(self.n_iicp, self.n_qcsa):
            conf = executor.sample_feasible(self.space, rng)
            confs.append(conf)
            runs.append(executor.run(conf, ds))
        while len(runs) < self.n_qcsa:
            Xn = augment_with_ds(self.space.matrix(confs), [r.ds for r in runs])
            y = np.array([r.total for r in runs])
            acq = EIMCMC(Xn, y, rng, n_hyper=self.n_hyper)
            cand_confs = [executor.sample_feasible(self.space, rng) for _ in range(self.n_candidates)]
            cand = augment_with_ds(self.space.matrix(cand_confs), ds)
            j = int(np.argmax(acq.score(cand)))
            conf = cand_confs[j]
            confs.append(conf)
            runs.append(executor.run(conf, ds))
        return confs, runs

    # -- phase 2: DAGP-BO over the reduced problem ----------------------
    def _refit_extraction(self, state: LocatState) -> None:
        """Refit CPE's KPCA on every configuration sampled so far and
        re-project the sample coordinates. The extraction starts from only
        ``N_IICP`` samples; as DAGP-BO adds evaluations, refitting widens
        the reachable configuration manifold (the GP model "is improved
        after each execution", Section 3.4)."""
        ii = state.iicp
        kp = cpe(state.confs, ii.subspace, n_components=ii.n_components)
        state.iicp = IICPResult(ii.space, ii.cps_result, ii.subspace, kp, kp.n_components)
        state.Z = [state.iicp.to_latent(c) for c in state.confs]

    def _search(
        self,
        executor: Executor,
        ds: float,
        rng,
        state: LocatState,
        *,
        min_iters: int,
        max_iters: int,
    ) -> None:
        """Run BO at data size ``ds``, appending evaluations to ``state``."""
        rqa = state.qcsa.rqa
        ds_n = ds_normalize(ds)
        done = 0
        while done < max_iters:
            if state.iicp is not None:
                if done > 0:
                    self._refit_extraction(state)
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
                    conf = self.space.from_vector(np.clip(z, 0.0, 1.0))
                conf = executor.repair(conf, self.space)
                r = executor.run(conf, ds, rqa)
                state.Z.append(np.asarray(z, dtype=float))
                state.ds.append(ds)
                state.y.append(r.total)
                state.confs.append(conf)
                return r.total

            chunk = min(_REFIT_EVERY, max_iters - done)
            res = bo_minimize(
                f,
                lo,
                hi,
                rng,
                min_iters=chunk,
                max_iters=chunk,
                ei_frac=EI_FRAC,
                n_candidates=self.n_candidates,
                n_hyper=self.n_hyper,
                init_X=augment_with_ds(np.vstack(state.Z), state.ds),
                init_y=np.array(state.y),
                fixed_dims={len(lo) - 1: ds_n},
                cand_base=augment_with_ds(np.vstack(state.Z), state.ds),
            )
            done += res.n_iters
            # stop rule: enough iterations and the last chunk's EI faded
            if done >= min_iters and res.ei_history and res.ei_history[-1] < EI_FRAC * abs(
                min(state.y)
            ):
                break

    def _best_at(self, executor: Executor, ds: float, state: LocatState) -> tuple[dict, float]:
        """Recommend a configuration for size ``ds`` by confirmation runs.

        Re-runs the RQA (charged) under the 3 best configurations observed
        at this size and the 2 best observed at other sizes, and returns the
        one with the lowest confirmed time. At this size a re-run is
        averaged with the first observation; a configuration from another
        size is scored by its re-run alone. Single noisy observations
        over-reward lucky runs (winner's curse), which the re-run damps."""
        y = np.asarray(state.y)
        at_ds = [i for i, d in enumerate(state.ds) if abs(d - ds) < 1e-9]
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
            t2 = executor.run(state.confs[i], ds, rqa).total
            avg = 0.5 * (y[i] + t2) if i in at_ds_set else t2
            if avg < best_t:
                best_i, best_t = i, avg
        return state.confs[best_i], float(best_t)

    # -- public API ------------------------------------------------------
    def tune(self, executor: Executor, ds: float) -> TuneResult:
        """Full pipeline at one input data size."""
        rng = np.random.default_rng(self.seed)
        t0 = executor.charged_seconds
        n0 = executor.n_runs

        confs, runs = self._bootstrap(executor, ds, rng)
        qres = qcsa_from_runs(runs) if self.use_qcsa else classify(
            {q: 1.0 for q in executor.query_names}
        )
        ii = (
            iicp(confs[: self.n_iicp], np.array([r.total for r in runs[: self.n_iicp]]), self.space)
            if self.use_iicp
            else None
        )
        state = LocatState(qres, ii, [], [], [], [])
        for conf, r in zip(confs, runs):
            z = ii.to_latent(conf) if ii is not None else self.space.to_vector(conf)
            state.Z.append(z)
            state.ds.append(ds)
            state.y.append(_rqa_total(r, qres.rqa))
            state.confs.append(conf)

        self._search(executor, ds, rng, state, min_iters=self.min_iters, max_iters=self.max_iters)
        best_conf, _ = self._best_at(executor, ds, state)
        extras = {"state": state, "qcsa": qres, "iicp": ii}
        return tune_result("LOCAT", executor, best_conf, ds, n0, t0, extras)

    def tune_multi(self, executor: Executor, ds_list: list[float]) -> dict[float, TuneResult]:
        """Online tuning across changing input data sizes.

        The first size pays the full pipeline; each subsequent size reuses
        the QCSA/IICP results and every prior DAGP sample, so only a short
        BO continuation runs — the datasize-awareness the SOTA approaches
        lack (Figure 20).
        """
        out: dict[float, TuneResult] = {}
        first = self.tune(executor, ds_list[0])
        out[ds_list[0]] = first
        state: LocatState = first.extras["state"]
        rng = np.random.default_rng(self.seed + 1)
        for ds in ds_list[1:]:
            t0 = executor.charged_seconds
            n0 = executor.n_runs
            self._search(
                executor,
                ds,
                rng,
                state,
                min_iters=self.retune_min_iters,
                max_iters=self.retune_max_iters,
            )
            best_conf, _ = self._best_at(executor, ds, state)
            out[ds] = tune_result("LOCAT", executor, best_conf, ds, n0, t0, {"state": state})
        return out
