"""Array-pass sampling of hash functions against numpy's seeding and the per-function sampler it replaced.

`util.pcg64_states` replays numpy's SeedSequence and PCG64 seeding as
array arithmetic; `index._sample_functions` draws an index's k * l
functions in four passes over those states; `stable._cms_transform` turns
all of their draws into stable variates in bounded chunks. Each must give
bit for bit what the per-seed code gives.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import SeedSequence

from lplsh import IndexParams, tuned_scheme
from lplsh import stable
from lplsh.index import _sample_functions
from lplsh.lattice import STACK_PREFIX, LatticeParams, ShiftedLatticeSet
from lplsh.scheme import sample_hash
from lplsh.stable import StableParams, _cms_transform, sample_stable
from lplsh.util import derive_rng, derived_generators, pcg64_states

from conftest import cheap_scheme

ROOTS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]


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


def test_states_match_numpy_for_per_root_tags():
    # the index's function-seed path: one (11, ell, j) per root, broadcast together
    ell = np.array([0, 3, 130, 2**32 - 1, 7, 519])
    slot = np.array([5, 0, 2, 1, 2**32 - 1, 6])
    assert len(pcg64_states(np.array(ROOTS, dtype=np.uint64), 11, ell, slot)) == len(ROOTS)
    for root, a, b, gen in zip(ROOTS, ell, slot, derived_generators(np.array(ROOTS, dtype=np.uint64), 11, ell, slot)):
        want = numpy_generator(root, (11, int(a), int(b)))
        assert gen.bit_generator.state == want.bit_generator.state
        assert first_draws(gen) == first_draws(want)


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
