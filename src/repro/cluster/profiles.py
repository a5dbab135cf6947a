"""Per-query resource profiles driving the cluster simulator.

The paper evaluates five Spark SQL applications: TPC-DS (104 queries),
TPC-H (22 queries), and HiBench Join / Scan / Aggregation (one query
each). We cannot run 100 GB-1 TB of the real benchmarks in this
container, so each query is summarized by the resource profile the
simulator consumes: map-side CPU work per GB, shuffle volume per GB,
working-set size, and its Pavlo-style category (Section 5.11:
'selection' queries barely touch the tuned resources; 'join' /
'aggregation' queries with large shuffles are configuration sensitive).

Profile constants are anchored to the paper's own measurements:

* Q72 shuffles 52 GB per 100 GB of input (sensitive, CV 3.49);
* Q08 shuffles 5 MB per 100 GB (insensitive);
* Q04 is long (~80 s) but insensitive (CV 0.24);
* Q14b is long (~49 s) and sensitive (CV 2.8);
* the 23 CSQs the paper keeps for TPC-DS (Section 5.2) get large
  shuffle volumes, everything else small ones;
* the 13 'selection' queries listed in Section 5.11 are filter-only.

All remaining per-query variation is drawn deterministically from the
query name, so profiles are stable across processes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QueryProfile",
    "TPCDS_CSQ",
    "TPCDS_CSQ_NAMES",
    "TPCDS_SELECTION",
    "tpcds_profiles",
    "tpch_profiles",
    "hibench_profiles",
    "PROFILE_SETS",
]


@dataclass(frozen=True)
class QueryProfile:
    """Resource profile of one query for the analytic simulator."""

    name: str
    category: str  # 'selection' | 'join' | 'aggregation'
    cpu_per_gb: float  # map-side core-seconds per GB of read input
    shuffle_per_gb: float  # GB shuffled per GB of read input
    reduce_frac: float  # reduce-side CPU as a fraction of map-side CPU
    mem_per_gb: float  # cluster-wide working set GB per GB of read input
    input_frac: float  # fraction of the benchmark dataset this query reads
    base_s: float  # fixed per-query overhead seconds (planning, startup)
    broadcast_kb: float  # small-table size in KB (0 = no broadcastable join)
    max_cores: int = 1_000_000  # parallelism ceiling: Section 5.11 notes that
    # insensitive queries "only consume 5 CPU cores and 8GB memory on
    # average", i.e. extra resources do not speed them up

    def __post_init__(self) -> None:
        if self.category not in ("selection", "join", "aggregation"):
            raise ValueError(f"bad category {self.category!r} for {self.name}")


def _u01(key: bytes) -> float:
    """Deterministic uniform(0,1) from the bytes of a key."""
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") / 2**64


def _h01(*key: object) -> float:
    """Deterministic uniform(0,1) from a hashable key: :func:`_u01` of the
    ``|``-joined ``str`` of its parts."""
    return _u01("|".join(map(str, key)).encode())


#: The 23 configuration-sensitive TPC-DS queries LOCAT keeps (Section 5.2).
TPCDS_CSQ = [
    "Q72", "Q29", "Q14b", "Q43", "Q41", "Q99", "Q57", "Q33", "Q14a", "Q69",
    "Q40", "Q64a", "Q50", "Q21", "Q70", "Q95", "Q54", "Q23a", "Q23b", "Q15",
    "Q58", "Q62", "Q20",
]

#: 'Selection'-category queries per Section 5.11 (filter-only, insensitive).
TPCDS_SELECTION = [
    "Q09", "Q13", "Q16", "Q28", "Q32", "Q38", "Q48", "Q61", "Q84", "Q87",
    "Q88", "Q94", "Q96",
]


def _padded(q: str) -> str:
    """A paper name like "Q72" or "Q14b" as our zero-padded query name."""
    return f"Q{int(q[1:-1]):02d}{q[-1]}" if q[-1] in "ab" else f"Q{int(q[1:]):02d}"


#: :data:`TPCDS_CSQ` under the zero-padded names the simulator uses.
TPCDS_CSQ_NAMES = frozenset(map(_padded, TPCDS_CSQ))
_SELECTION_NAMES = frozenset(map(_padded, TPCDS_SELECTION))

#: Query numbers with a/b variants in the Spark TPC-DS kit the paper uses
#: (Q14a/b ... Q64a/b appear by name in Section 5.2), giving 104 queries.
_AB_VARIANTS = (14, 23, 24, 39, 64)


def tpcds_query_names() -> list[str]:
    """The 104 TPC-DS query names (99 numbered, five split into a/b)."""
    names: list[str] = []
    for i in range(1, 100):
        if i in _AB_VARIANTS:
            names += [f"Q{i:02d}a", f"Q{i:02d}b"]
        else:
            names.append(f"Q{i:02d}")
    return names


def _tpcds_profile(name: str) -> QueryProfile:
    u = _h01("tpcds", name)
    if name in _SELECTION_NAMES:
        category = "selection"
        cpu = 0.6 + 0.9 * u  # scan-bound filter work
        shuffle = 0.00002 + 0.00008 * u
        mem = 0.002
        reduce_frac = 0.05
        bkb = 0.0
        max_cores = 4 + int(5 * _h01("mc", name))
    elif name in TPCDS_CSQ_NAMES:
        category = "join" if u < 0.6 else "aggregation"
        # Heavy shuffles: 0.20-0.60 GB per GB of input (Q72 pinned below).
        cpu = 10.0 + 12.0 * _h01("cpu", name)
        shuffle = 0.20 + 0.40 * _h01("shf", name)
        mem = 0.15 + 0.25 * _h01("mem", name)
        reduce_frac = 0.5 + 0.4 * _h01("red", name)
        bkb = 0.0
        max_cores = 1_000_000
    else:
        # Insensitive join/aggregation: small shuffles (Q08-like).
        category = "join" if u < 0.5 else "aggregation"
        cpu = 1.5 + 3.5 * _h01("cpu", name)
        shuffle = 0.00005 + 0.004 * _h01("shf", name)
        mem = 0.004
        reduce_frac = 0.2
        bkb = 512.0 + 4096.0 * _h01("bc", name)
        max_cores = 16 + int(32 * _h01("mc", name))
    overrides = {
        "Q72": dict(shuffle=0.52, cpu=18.0, mem=0.35),
        # Q04: long (~80 s) but insensitive — its parallelism ceiling, not
        # the configuration, bounds its speed (paper Section 5.2).
        "Q04": dict(cpu=16.0, shuffle=0.002, mem=0.01, max_cores=24),
        "Q14b": dict(cpu=14.0, shuffle=0.45, mem=0.3),  # long and sensitive
        "Q08": dict(shuffle=0.00005),
    }
    o = overrides.get(name, {})
    cpu = o.get("cpu", cpu)
    shuffle = o.get("shuffle", shuffle)
    mem = o.get("mem", mem)
    max_cores = o.get("max_cores", max_cores)
    return QueryProfile(
        name=name,
        category=category,
        cpu_per_gb=cpu,
        shuffle_per_gb=shuffle,
        reduce_frac=reduce_frac,
        mem_per_gb=mem,
        input_frac=0.25 + 0.5 * _h01("in", name),
        base_s=1.0 + 2.0 * _h01("base", name),
        broadcast_kb=bkb,
        max_cores=max_cores,
    )


def tpcds_profiles() -> list[QueryProfile]:
    """Profiles for the 104 TPC-DS queries."""
    return [_tpcds_profile(n) for n in tpcds_query_names()]


#: TPC-H queries with heavyweight multi-join shuffles.
_TPCH_HEAVY = {"Q05", "Q07", "Q08", "Q09", "Q17", "Q18", "Q20", "Q21"}
#: Near-pure selection queries.
_TPCH_SELECT = {"Q06"}


def tpch_profiles() -> list[QueryProfile]:
    """Profiles for the 22 TPC-H queries."""
    out = []
    for i in range(1, 23):
        name = f"Q{i:02d}"
        if name in _TPCH_SELECT:
            out.append(QueryProfile(name, "selection", 0.8, 0.00005, 0.05, 0.002, 0.85, 2.0, 0.0, 6))
        elif name in _TPCH_HEAVY:
            out.append(
                QueryProfile(
                    name,
                    "join",
                    9.0 + 9.0 * _h01("hcpu", name),
                    0.25 + 0.30 * _h01("hshf", name),
                    0.6,
                    0.15 + 0.2 * _h01("hmem", name),
                    0.6 + 0.3 * _h01("hin", name),
                    3.0,
                    0.0,
                )
            )
        else:
            cat = "aggregation" if i in (1, 13, 22) else "join"
            out.append(
                QueryProfile(
                    name,
                    cat,
                    1.0 + 1.5 * _h01("lcpu", name),
                    0.001 + 0.02 * _h01("lshf", name),
                    0.3,
                    0.005,
                    0.4 + 0.4 * _h01("lin", name),
                    2.0,
                    1024.0 + 3072.0 * _h01("lbc", name),
                    16 + int(32 * _h01("lmc", name)),
                )
            )
    return out


def hibench_profiles() -> dict[str, list[QueryProfile]]:
    """HiBench Scan / Join / Aggregation, one query each (Section 4.2)."""
    return {
        "Scan": [QueryProfile("Scan", "selection", 0.6, 0.0001, 0.02, 0.002, 1.0, 2.0, 0.0, 8)],
        "Join": [QueryProfile("Join", "join", 10.0, 0.45, 0.7, 0.3, 1.0, 3.0, 0.0)],
        "Aggregation": [QueryProfile("Aggregation", "aggregation", 8.0, 0.30, 0.6, 0.22, 1.0, 3.0, 0.0)],
    }


def PROFILE_SETS() -> dict[str, list[QueryProfile]]:
    """The paper's five benchmarks (Table 1) as profile lists."""
    hb = hibench_profiles()
    return {
        "TPC-DS": tpcds_profiles(),
        "TPC-H": tpch_profiles(),
        "Join": hb["Join"],
        "Scan": hb["Scan"],
        "Aggregation": hb["Aggregation"],
    }
