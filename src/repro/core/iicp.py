"""IICP — Identifying Important Configuration Parameters (Section 3.3).

A *hybrid* of feature selection and feature extraction:

* **CPS** (Configuration Parameter Selection): Spearman correlation of
  each parameter against application execution time over the ``N_IICP``
  samples; parameters with ``|SCC| < 0.2`` (the standard poor-correlation
  boundary) are dropped, leaving ``r_conf`` (eq. 6).
* **CPE** (Configuration Parameter Extraction): Gaussian-kernel KPCA over
  the CPS survivors produces a small set of *new* parameters — nonlinear
  functions of the originals — that BO tunes directly. Figure 10: CPS
  keeps about two thirds of the 38 parameters, CPE extracts about one
  third of those.

Both steps read their samples straight from the executor's run log: a
:class:`RunResult` carries the configuration and the application time.
After BO converges in the extracted space, original parameter values are
recovered via the KPCA pre-image (:meth:`IICPResult.to_conf`), with the
non-selected parameters pinned at their defaults.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.configspace import ConfigSpace
from repro.core.kpca import KernelPCA
from repro.core.spearman import spearman_matrix
from repro.execmodel.interface import RunResult

__all__ = ["SCC_THRESHOLD", "N_IICP", "CPSResult", "IICPResult", "cps", "cpe", "iicp"]

#: |SCC| below this marks a poorly-correlated (unimportant) parameter.
SCC_THRESHOLD = 0.2
#: Paper Section 5.3: 20 samples suffice to stabilize the selection.
N_IICP = 20


@dataclass(frozen=True)
class CPSResult:
    """CPS output: surviving parameter names and the full SCC vector."""

    kept: list[str]  # r_conf, in Table 2 order
    scc: dict[str, float]  # every parameter's SCC vs execution time

    def ranking(self) -> list[tuple[str, float]]:
        """Parameters sorted by |SCC| descending (Table 3's ordering)."""
        return sorted(self.scc.items(), key=lambda kv: -abs(kv[1]))

    def top(self, n: int) -> list[str]:
        return [name for name, _ in self.ranking()[:n]]


@dataclass
class IICPResult:
    """Full IICP output: the reduced space and the fitted extractor."""

    space: ConfigSpace  # the full original space
    cps_result: CPSResult
    subspace: ConfigSpace  # the CPS-selected parameters
    kpca: KernelPCA  # fitted on normalized subspace samples

    @property
    def n_components(self) -> int:
        return self.kpca.n_components

    def to_latent(self, conf: dict) -> np.ndarray:
        """Project a full configuration into the extracted space."""
        return self.kpca.transform(self.subspace.to_vector(conf)[None, :])[0]

    def to_conf(self, z: np.ndarray) -> dict:
        """Pre-image a latent point back to a full configuration.

        Non-selected parameters stay at their defaults — tuning only the
        important ones is the point of IICP (Figure 15).
        """
        u = self.kpca.inverse_transform(np.asarray(z, dtype=float)[None, :])[0]
        conf = self.space.default_conf()
        conf.update(self.subspace.from_vector(u))
        return conf

    def latent_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.kpca.latent_bounds()


def cps(runs: list[RunResult], space: ConfigSpace) -> CPSResult:
    """Configuration Parameter Selection over the runs' (configuration,
    application time) samples."""
    scc = spearman_matrix(space.matrix([r.conf for r in runs]), np.array([r.total for r in runs]))
    kept = [space.names[j] for j in range(space.dim) if abs(scc[j]) >= SCC_THRESHOLD]
    if not kept:  # degenerate flat response: keep the single best-correlated
        kept = [space.names[int(np.argmax(np.abs(scc)))]]
    return CPSResult(kept, dict(zip(space.names, map(float, scc))))


def cpe(runs: list[RunResult], subspace: ConfigSpace, *, kernel: str = "gaussian", n_components: int | None = None) -> KernelPCA:
    """Configuration Parameter Extraction: KPCA over the CPS survivors of
    the runs' configurations.

    ``n_components`` defaults to one third of the subspace dimension
    (Figure 10's CPE ratio), never below 2 (nor above the sample count).
    """
    X = subspace.matrix([r.conf for r in runs])
    if n_components is None:
        n_components = max(2, round(subspace.dim / 3))
    n_components = min(n_components, len(X) - 1, subspace.dim)
    return KernelPCA(n_components, kernel=kernel).fit(X)


def iicp(runs: list[RunResult], space: ConfigSpace) -> IICPResult:
    """CPS followed by Gaussian-kernel CPE — the full IICP pipeline."""
    c = cps(runs, space)
    sub = space.subspace(c.kept)
    return IICPResult(space, c, sub, cpe(runs, sub))
