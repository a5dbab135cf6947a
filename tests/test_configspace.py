"""Unit tests for the Table 2 configuration space."""
import math

import numpy as np
import pytest

from repro.core.configspace import TABLE2, ConfigParam, ConfigSpace, arm_space, x86_space

ARM = arm_space()
X86 = x86_space()
NAMES = ARM.names


def test_has_38_parameters():
    assert ARM.dim == 38
    assert X86.dim == 38
    assert len(TABLE2) == 38


def test_numeric_boolean_split_matches_printed_table():
    numeric = [p for p in ARM.params if p.kind != "bool"]
    booleans = [p for p in ARM.params if p.kind == "bool"]
    assert len(numeric) == 27
    assert len(booleans) == 11


def test_resource_parameters_starred():
    starred = {p.name for p in ARM.params if p.resource}
    assert starred == {
        "spark.driver.cores",
        "spark.driver.memory",
        "spark.executor.cores",
        "spark.executor.memory",
        "spark.executor.memoryOverhead",
        "spark.memory.offHeap.size",
    }


def _normalize(p: ConfigParam, value) -> float:
    """One value of ``p`` mapped into [0, 1] on Python floats: the reference
    ``ConfigSpace.normalize`` matches bit for bit."""
    if p.kind == "bool":
        return 1.0 if value else 0.0
    return float((float(value) - p.lo) / (p.hi - p.lo))


@pytest.mark.parametrize("name", NAMES)
def test_normalize_denormalize_roundtrip(name):
    p = ARM[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(5):
        v = p.sample(rng)
        assert p.denormalize(_normalize(p, v)) == v


@pytest.mark.parametrize("name", NAMES)
def test_sample_within_range(name):
    p = ARM[name]
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = p.sample(rng)
        if p.kind == "bool":
            assert isinstance(v, bool)
        else:
            assert p.lo <= v <= p.hi


@pytest.mark.parametrize("name", NAMES)
def test_clip_respects_bounds(name):
    p = ARM[name]
    if p.kind == "bool":
        assert p.clip(True) is True
    else:
        assert p.clip(p.lo - 1e9) == (int(p.lo) if p.kind == "int" else p.lo)
        assert p.clip(p.hi + 1e9) == (int(p.hi) if p.kind == "int" else p.hi)


@pytest.mark.parametrize("name", NAMES)
def test_x86_ranges_differ_only_where_table2_says(name):
    pa, pb = ARM[name], X86[name]
    wider_on_x86 = {
        "spark.driver.cores",
        "spark.driver.memory",
        "spark.executor.cores",
        "spark.executor.memory",
        "spark.executor.memoryOverhead",
        "spark.memory.offHeap.size",
    }
    if name == "spark.executor.instances":
        assert (pa.lo, pa.hi) == (48, 384)
        assert (pb.lo, pb.hi) == (9, 112)
    elif name in wider_on_x86:
        assert pb.hi >= pa.hi
    else:
        assert (pa.lo, pa.hi, pa.kind) == (pb.lo, pb.hi, pb.kind)


def test_specific_table2_rows():
    p = ARM["spark.sql.shuffle.partitions"]
    assert (p.default, p.lo, p.hi) == (200, 100, 1000)
    p = ARM["spark.memory.fraction"]
    assert p.kind == "float" and (p.lo, p.hi) == (0.5, 0.9)
    p = ARM["spark.executor.memoryOverhead"]
    assert (p.default, p.lo, p.hi) == (384, 0, 32768)
    assert X86["spark.executor.memoryOverhead"].hi == 49152


def test_default_conf_is_range_clipped():
    conf = ARM.default_conf()
    for p in ARM.params:
        if p.kind != "bool":
            assert p.lo <= conf[p.name] <= p.hi
    # Spark's out-of-range defaults clip to the range edge
    assert conf["spark.executor.instances"] == 48
    assert conf["spark.executor.memory"] == 4


def test_vector_roundtrip():
    rng = np.random.default_rng(1)
    conf = ARM.sample_random(rng)
    v = ARM.to_vector(conf)
    assert v.shape == (38,)
    assert np.all((v >= 0) & (v <= 1))
    assert ARM.from_vector(v) == conf


def test_from_vector_clamps_to_unit_cube():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.uniform(-0.5, 1.5, ARM.dim)
        assert ARM.from_vector(u) == ARM.from_vector(np.clip(u, 0.0, 1.0))


def test_from_vector_shape_check():
    with pytest.raises(ValueError):
        ARM.from_vector(np.zeros(5))


def test_matrix_stacks():
    rng = np.random.default_rng(2)
    confs = [ARM.sample_random(rng) for _ in range(4)]
    m = ARM.matrix(confs)
    assert m.shape == (4, 38)


def test_subspace_preserves_order_and_rejects_unknown():
    sub = ARM.subspace(["spark.executor.memory", "spark.sql.shuffle.partitions"])
    assert sub.names == ["spark.executor.memory", "spark.sql.shuffle.partitions"]
    with pytest.raises(KeyError):
        ARM.subspace(["nope"])


def test_complete_fills_defaults_and_clips():
    conf = ARM.complete({"spark.sql.shuffle.partitions": 5000})
    assert conf["spark.sql.shuffle.partitions"] == 1000  # clipped to hi
    assert conf["spark.executor.memory"] == 4
    with pytest.raises(KeyError):
        ARM.complete({"bogus": 1})


def test_lhs_sampling_produces_valid_confs():
    rng = np.random.default_rng(3)
    confs = ARM.sample_lhs(5, rng)
    assert len(confs) == 5
    for c in confs:
        v = ARM.to_vector(c)
        assert np.all((v >= -1e-9) & (v <= 1 + 1e-9))


def test_duplicate_names_rejected():
    p = ConfigParam("x", "int", 1, 0, 10)
    with pytest.raises(ValueError):
        ConfigSpace([p, p])


def test_bad_param_definitions_rejected():
    with pytest.raises(ValueError):
        ConfigParam("x", "weird", 1, 0, 10)
    with pytest.raises(ValueError):
        ConfigParam("x", "int", 1, 10, 10)


# -- the array conversions against the scalar ConfigParam methods ---------

SPACES = {"ARM": ARM, "x86": X86}


def _typed(conf: dict) -> list:
    return [(k, type(v), v) for k, v in conf.items()]


def _tie_units(space) -> list[float]:
    """For each int parameter, unit coordinates whose value scales exactly to
    ``k + 0.5``, for an even and an odd ``k`` where one exists, so rounding
    half away from zero and half to even disagree on one of them."""
    out = []
    for p in space.params:
        if p.kind != "int":
            continue
        span = float(p.hi - p.lo)
        parities = set()
        for k in range(int(p.lo), int(p.hi)):
            if k % 2 in parities:
                continue
            u = (k + 0.5 - p.lo) / span
            for x in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)):
                if p.lo + x * span == k + 0.5:
                    out.append((p.name, k % 2, x))
                    parities.add(k % 2)
                    break
            if len(parities) == 2:
                break
    return out


def _edge_rows(space) -> list[np.ndarray]:
    """Unit points with every edge of the scalar clamp and rounding: below 0,
    above 1, -0.0, NaN, infinities, exactly 0, 0.5 and 1, and int ties."""
    rng = np.random.default_rng(11)
    specials = [-0.3, -1e-300, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, 1.7, np.nan, np.inf, -np.inf]
    rows = [np.full(space.dim, x) for x in specials]
    rows += [rng.choice(specials, space.dim) for _ in range(20)]
    rows += [rng.uniform(-0.5, 1.5, space.dim) for _ in range(20)]
    names = space.names
    for name, _, x in _tie_units(space):
        u = rng.random(space.dim)
        u[names.index(name)] = x
        rows.append(u)
    return rows


@pytest.mark.parametrize("space", SPACES)
def test_tie_units_cover_even_and_odd_ties(space):
    ties = _tie_units(SPACES[space])
    assert {parity for _, parity, _ in ties} == {0, 1}
    # half to even keeps an even k, so at least one tie rounds down
    p = {q.name: q for q in SPACES[space].params}
    assert any(p[name].denormalize(x) % 2 == 0 for name, parity, x in ties if parity == 0)


@pytest.mark.parametrize("space", SPACES)
def test_from_vector_equals_scalar_denormalize(space):
    s = SPACES[space]
    for u in _edge_rows(s):
        want = {p.name: p.denormalize(x) for p, x in zip(s.params, u)}
        assert _typed(s.from_vector(u)) == _typed(want)


@pytest.mark.parametrize("space", SPACES)
def test_sample_lhs_equals_scalar_denormalize(space):
    from repro.core.lhs import latin_hypercube

    s = SPACES[space]
    got = s.sample_lhs(7, np.random.default_rng(5))
    want = [{p.name: p.denormalize(x) for p, x in zip(s.params, u)}
            for u in latin_hypercube(7, s.dim, np.random.default_rng(5))]
    assert [_typed(c) for c in got] == [_typed(c) for c in want]


@pytest.mark.parametrize("space", SPACES)
def test_matrix_and_to_vector_equal_scalar_normalize(space):
    s = SPACES[space]
    confs = [s.from_vector(u) for u in _edge_rows(s)]
    # values the denormalized dicts never hold: out of range, ints as floats,
    # NaN, -0.0 and booleans given as numbers
    odd = {}
    for p in s.params:
        odd[p.name] = {"int": p.lo - 3, "float": float(p.hi) + 0.25, "bool": 0}[p.kind]
    confs += [odd, {k: -0.0 for k in s.names}, {k: np.nan for k in s.names}, {k: 2.5 for k in s.names}]
    m = s.matrix(confs)
    want = [[_normalize(p, c[p.name]) for p in s.params] for c in confs]
    assert m.dtype == np.float64 and m.shape == (len(confs), s.dim)
    assert repr(m.tolist()) == repr(want)
    for c, w in zip(confs, want):
        assert repr(s.to_vector(c).tolist()) == repr(w)


@pytest.mark.parametrize("space", SPACES)
def test_sample_random_is_the_scalar_stream(space):
    s = SPACES[space]
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for i in range(30):
        assert _typed(s.sample_random(rng)) == _typed({p.name: p.sample(ref) for p in s.params})
        assert rng.integers(1, 7 + i) == ref.integers(1, 7 + i)  # interleaved draws
    assert rng.random() == ref.random()


def test_default_conf_is_a_fresh_copy():
    a = ARM.default_conf()
    a["spark.executor.memory"] = 31
    assert ARM.default_conf() == {p.name: p.clip(p.default) for p in ARM.params}
