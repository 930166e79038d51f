"""Array-pass sampling of hash functions against numpy's seeding and the per-function sampler it replaced.

`util.pcg64_states` replays numpy's SeedSequence and PCG64 seeding as
array arithmetic, and `util.derived_seeds` a stream's first
`integers(0, 2**63 - 1)` draw; `index._sample_functions` draws an index's
k * l functions in four passes over those states; `stable._cms_transform` turns
all of their draws into stable variates in bounded chunks, split over
`util._split`'s workers. Each must give bit for bit what the per-seed,
serial code gives.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import SeedSequence

from lplsh import IndexParams, tuned_scheme
from lplsh import stable, util
from lplsh.index import _sample_functions
from lplsh.lattice import STACK_PREFIX, LatticeParams, ShiftedLatticeSet
from lplsh.scheme import sample_hash
from lplsh.stable import StableParams, _cms_transform, sample_stable
from lplsh.util import _seed_draws, derive_rng, derived_generators, derived_seeds, pcg64_states

from conftest import cheap_scheme

ROOTS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]
# the index's function-seed path: one (11, ell, j) per root, broadcast together
PER_ROOT_TAGS = (11, np.array([0, 3, 130, 2**32 - 1, 7, 519]), np.array([5, 0, 2, 1, 2**32 - 1, 6]))
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def numpy_generator(root, tags):
    return np.random.default_rng(SeedSequence(root, spawn_key=tags))


def first_draws(gen):
    return gen.integers(0, 2**63 - 1), gen.random(3).tolist(), gen.standard_exponential(3).tolist()


@pytest.mark.parametrize("tags", [(0,), (1,), (2,), ()])
def test_states_match_numpy_for_shared_tags(tags):
    got = pcg64_states(np.array(ROOTS, dtype=np.uint64), *tags)
    for root, state, gen in zip(ROOTS, got, derived_generators(np.array(ROOTS, dtype=np.uint64), *tags)):
        want = numpy_generator(root, tags)
        assert state == (want.bit_generator.state["state"]["state"], want.bit_generator.state["state"]["inc"])
        assert first_draws(gen) == first_draws(want)


def root_tags(tags, i):
    """The tags of root i when each tag is a number or one value per root."""
    return tuple(int(np.broadcast_to(tag, len(ROOTS))[i]) for tag in tags)


def test_states_match_numpy_for_per_root_tags():
    assert len(pcg64_states(np.array(ROOTS, dtype=np.uint64), *PER_ROOT_TAGS)) == len(ROOTS)
    gens = derived_generators(np.array(ROOTS, dtype=np.uint64), *PER_ROOT_TAGS)
    for i, (root, gen) in enumerate(zip(ROOTS, gens)):
        want = numpy_generator(root, root_tags(PER_ROOT_TAGS, i))
        assert gen.bit_generator.state == want.bit_generator.state
        assert first_draws(gen) == first_draws(want)


@pytest.mark.parametrize("tags", [(0,), (1,), (2,), (), PER_ROOT_TAGS], ids=["0", "1", "2", "none", "per-root"])
def test_seed_draws_match_numpy(tags):
    got = derived_seeds(np.array(ROOTS, dtype=np.uint64), *tags)
    assert got.dtype == np.int64 and got.shape == (len(ROOTS),)
    want = [int(numpy_generator(root, root_tags(tags, i)).integers(0, 2**63 - 1)) for i, root in enumerate(ROOTS)]
    assert got.tolist() == want


def pcg64_generator(state, inc):
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def halves(values):
    """128-bit integers as uint64 arrays of their high and low words."""
    return tuple(np.array([v >> shift & (2**64 - 1) for v in values], dtype=np.uint64) for shift in (64, 0))


def rotl64(x, r):
    return ((x << r) | (x >> (64 - r))) & (2**64 - 1) if r else x


@pytest.mark.parametrize("raw", [0, 2**63 - 1], ids=["raw-0", "raw-2^63-1"])
@pytest.mark.parametrize("rot", [0, 1, 37, 63])
def test_seed_draws_redraw_where_numpy_does(raw, rot):
    # hand-built states whose next raw output is 0 (post-step hi == lo) or
    # 2**63 - 1: the only outputs Lemire's bound rejects, so numpy draws again
    inc = 0x5851F42D4C957F2D14057B7EF767814F
    hi = rot << 58 | 0x0123456789ABCDEF
    post = hi << 64 | (hi ^ rotl64(raw, rot))
    special = (post - inc) * pow(PCG_MULT, -1, 2**128) % 2**128
    assert pcg64_generator(special, inc).bit_generator.random_raw() == raw
    # between two ordinary states, so the redraw lands at its own index
    states = [(12345, inc), (special, inc), (2**128 - 7, inc)]
    got = _seed_draws(*halves([state for state, _ in states]), *halves([inc for _, inc in states]))
    want = [int(pcg64_generator(state, inc).integers(0, 2**63 - 1)) for state, inc in states]
    assert got.tolist() == want
    # the first output's own high word would have been wrong
    assert want[1] != raw * (2**63 - 1) >> 64


def test_scalar_root_and_derive_rng_agree():
    [(state, inc)] = pcg64_states(7201, 11, 2, 3)
    want = derive_rng(7201, 11, 2, 3).bit_generator.state["state"]
    assert (state, inc) == (want["state"], want["inc"])


@pytest.mark.parametrize(
    "roots,tags",
    [
        ([-1], (0,)),
        ([2**64], (0,)),
        (np.array([1.0, 2.0]), (0,)),
        (np.array([True]), (0,)),
        ([1], (-1,)),
        ([1], (2**32,)),
        ([1], (np.array([0, 2**32]),)),
        ([1], (0.5,)),
    ],
)
def test_out_of_range_roots_and_tags_are_rejected(roots, tags):
    # numpy would take a root >= 2**64 or a tag >= 2**32 as more entropy words; the replay does not
    with pytest.raises(ValueError):
        pcg64_states(roots, *tags)


def frozen_sample_functions(scheme, d, params):
    """The per-function sampler of the previous release, kept as the reference."""
    k, t = params.k, scheme.t
    projection = np.empty((k * params.l * t, d))
    sets = []
    for i in range(k * params.l):
        seed = int(derive_rng(params.seed, 11, *divmod(i, k)).integers(0, 2**63 - 1))
        a = sample_stable(StableParams(scheme.p), derive_rng(seed, 1), size=(t, d))
        projection[i * t : (i + 1) * t] = scheme.T ** (-1.0 / scheme.p) * a
        sets.append(ShiftedLatticeSet(scheme.lattice, derive_rng(seed, 2).integers(0, 2**63 - 1)))
    size = min(STACK_PREFIX, scheme.lattice.num_shifts)
    prefix = np.empty((t, size, len(sets)))
    for i, lattices in enumerate(sets):
        prefix[:, :, i] = derive_rng(lattices.seed, 0).uniform(0.0, lattices.params.spacing, size=(size, t)).T
    return projection, sets, prefix


def one_coordinate_scheme(u):
    """A stand-in scheme with t = 1: SchemeParams needs t >= 2, the sampler reads only t, p, T and lattice."""
    lattice = LatticeParams(w=1.3, t=1, num_shifts=u, delta=3.0)
    return SimpleNamespace(t=1, p=1.5, T=0.7, lattice=lattice)


def bits(a):
    return a.dtype, a.shape, a.view(np.uint64).tobytes()


SAMPLER_CASES = [
    ("t1-u-below-prefix", lambda: one_coordinate_scheme(40), 5, 2, 3, 11),
    ("d1", lambda: cheap_scheme(t=3, u=300), 1, 3, 2, 2**63 + 5),
    ("one-function", lambda: cheap_scheme(t=4, u=3000), 7, 1, 1, 2**64 - 1),
    ("u-below-prefix", lambda: cheap_scheme(t=3, u=100), 6, 2, 4, 0),
    ("tuned", lambda: tuned_scheme(2.0, 1.5, threshold_samples=10_000), 16, 3, 5, 7201),
    # 135 functions: stack_prefix's full 128-set buffer, then a short one
    ("two-prefix-buffers", lambda: cheap_scheme(t=3, u=200), 2, 3, 45, 2201),
]


@pytest.mark.parametrize("case,make_scheme,d,k,l,seed", SAMPLER_CASES, ids=[c[0] for c in SAMPLER_CASES])
def test_sample_functions_match_the_per_function_sampler(case, make_scheme, d, k, l, seed):
    scheme = make_scheme()
    params = IndexParams(k=k, l=l, seed=seed)
    got = _sample_functions(scheme, d, params)
    projection, sets, prefix = frozen_sample_functions(scheme, d, params)
    assert bits(got.projection) == bits(projection)
    assert bits(got.prefix) == bits(prefix)
    assert got.prefix.flags.c_contiguous
    assert [(s.params, s.seed) for s in got.sets] == [(s.params, s.seed) for s in sets]


def test_sample_hash_is_the_one_seed_case():
    scheme = cheap_scheme(t=3)
    for seed in (0, 3, 2**63 + 1):
        h = sample_hash(scheme, 6, seed)
        a = sample_stable(StableParams(scheme.p), derive_rng(seed, 1), size=(3, 6))
        assert bits(h.projection) == bits(scheme.T ** (-1.0 / scheme.p) * a)
        assert h.lattices.seed == int(derive_rng(seed, 2).integers(0, 2**63 - 1))


def one_shot(p, u, e):
    """The transform as sample_stable computed it before it was chunked: one pass over the whole arrays."""
    return (np.sin(p * u) / np.power(np.cos(u), 1.0 / p)) * np.power(np.cos((1.0 - p) * u) / e, (1.0 - p) / p)


@pytest.mark.parametrize("offset", [-1, 0, 1, 5])
@pytest.mark.parametrize("p", [1.5, 1.3, 2.0])
def test_chunked_transform_matches_one_shot(p, offset):
    size = 2 * stable._TRANSFORM_CHUNK + offset
    rng = derive_rng(0, 9950, int(p * 10), offset + 1)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = rng.exponential(1.0, size=size)
    want = one_shot(p, u, e)
    assert bits(_cms_transform(p, u, e)) == bits(want)
    # written over its own angles, as the index does
    shaped_u, shaped_e = u[: size - size % 3].reshape(3, -1).copy(), e[: size - size % 3].reshape(3, -1)
    assert bits(_cms_transform(p, shaped_u, shaped_e, out=shaped_u)) == bits(want[: size - size % 3].reshape(3, -1))


@pytest.mark.parametrize("size", [1, 6, 7, 8, 22])
def test_small_chunks_match_one_shot(monkeypatch, size):
    monkeypatch.setattr(stable, "_TRANSFORM_CHUNK", 7)
    rng = derive_rng(0, 9951, size)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=(size, 2))
    e = rng.exponential(1.0, size=(size, 2))
    assert bits(_cms_transform(1.5, u, e)) == bits(one_shot(1.5, u, e))


def test_scalar_draw_is_a_float():
    x = sample_stable(StableParams(1.5), derive_rng(0, 9952))
    rng = derive_rng(0, 9952)
    u, e = rng.uniform(-np.pi / 2.0, np.pi / 2.0), rng.exponential(1.0)
    assert type(x) is float and x == float(one_shot(1.5, u, e))


def serial(p, u, e):
    """The transform's chunk loop on the calling thread alone, over the whole arrays."""
    out = np.empty(np.shape(u))
    stable._cms_run(p, np.ravel(u), np.ravel(e), out.reshape(-1), 0, out.size, 1)
    return out


@pytest.fixture
def transform_runs(monkeypatch):
    """The (lo, hi, workers) of every chunk run _cms_transform starts."""
    runs = []
    run = stable._cms_run

    def recording(p, u, e, out, lo, hi, workers):
        runs.append((lo, hi, workers))
        return run(p, u, e, out, lo, hi, workers)

    monkeypatch.setattr(stable, "_cms_run", recording)
    return runs


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_split_transform_matches_serial_and_one_shot(monkeypatch, transform_runs, cpus, offset):
    # around the smallest call that splits: minimum share x workers - 1, + 0 and + 1
    monkeypatch.setattr(util, "_cpus", lambda: cpus)
    workers = min(cpus, util._MAX_WORKERS)
    size = stable._TRANSFORM_SHARE * util._MAX_WORKERS + offset
    rng = derive_rng(0, 9953, cpus, offset + 1)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = rng.exponential(1.0, size=size)
    want = one_shot(1.5, u, e)
    assert bits(serial(1.5, u, e)) == bits(want)
    transform_runs.clear()
    assert bits(_cms_transform(1.5, u, e)) == bits(want)
    split = workers if offset >= 0 else 1
    cuts = [size * i // split for i in range(split + 1)]
    assert sorted(transform_runs) == [(lo, hi, split) for lo, hi in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("shape", [(3, 21845, 2), (2, 3, 11, 997)], ids=["shaped", "odd"])
def test_split_transform_over_its_own_angles(monkeypatch, transform_runs, cpus, shape):
    # written over its angles, as sample_stack passes them, on shaped and odd-sized arrays
    monkeypatch.setattr(util, "_cpus", lambda: cpus)
    rng = derive_rng(0, 9954, cpus, len(shape))
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=shape)
    e = rng.exponential(1.0, size=shape)
    p = 2.0 if cpus == 64 else 1.3
    want = one_shot(p, u, e)
    assert bits(serial(p, u, e)) == bits(want)
    transform_runs.clear()
    got = _cms_transform(p, u, e, out=u)
    assert got is u and bits(u) == bits(want)
    assert len(transform_runs) == min(cpus, util._MAX_WORKERS, u.size // stable._TRANSFORM_SHARE)


def test_split_transform_with_more_workers_than_cores(monkeypatch, transform_runs):
    # five workers on an uneven split, each stepping through a fifth of the
    # chunk, interleaved by a short switch interval; every run writes only
    # its own elements, in place over the angles
    monkeypatch.setattr(util, "_cpus", lambda: 64)
    monkeypatch.setattr(util, "_MAX_WORKERS", 5)
    size = 5 * stable._TRANSFORM_SHARE + 7
    rng = derive_rng(0, 9955)
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = rng.exponential(1.0, size=size)
    want = one_shot(1.5, u, e)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            got = u.copy()
            _cms_transform(1.5, got, e, out=got)
            assert bits(got) == bits(want)
    finally:
        sys.setswitchinterval(interval)
    cuts = [size * i // 5 for i in range(6)]
    assert sorted(transform_runs) == sorted([(lo, hi, 5) for lo, hi in zip(cuts, cuts[1:])] * 3)


def test_split_covers_every_unit_in_order(monkeypatch):
    # runs are contiguous and returned in order; the policy caps workers by the
    # CPUs, _MAX_WORKERS, what the caller's work pays for and the units
    monkeypatch.setattr(util, "_cpus", lambda: 4)
    monkeypatch.setattr(util, "_MAX_WORKERS", 3)
    for units, most, workers in [(10, 10, 3), (10, 2, 2), (2, 10, 2), (10, 0, 1), (0, 5, 1)]:
        runs = util._split(units, most, lambda lo, hi, n: (lo, hi, n))
        assert [n for _, _, n in runs] == [workers] * workers
        assert [lo for lo, _, _ in runs] == [0] + [hi for _, hi, _ in runs[:-1]] and runs[-1][1] == units

