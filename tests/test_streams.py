"""Cross-commit stream guard: pinned trajectory digests on 2x2 Hubbard.

The determinism tests compare two runs of the same code.  These pins compare
a run with the bytes an earlier version of the package wrote, so a refactor
that moves a random stream, the order in which elements are measured or the
rounding of an estimator fails here even when every run still reproduces
itself.

The pins were recorded with numpy 2.4 on Python 3.11.  A numpy upgrade that
changes the `Generator` streams (Philox, binomial or multinomial) moves these
digests without any change in the package; then re-pin them and log the old
and new values in CHANGES.md.

The package derives each stream's Philox key itself (`matelem.KeyedStreams`)
instead of building numpy's `SeedSequence`, and the oracle tests below hold
that derivation to `SeedSequence`.  A numpy change to `SeedSequence`'s mixing
therefore fails `test_derived_keys_match_seed_sequence` first, before any
pin; the derivation then has to follow numpy, or the pins move.
"""

import hashlib

import numpy as np
import pytest

import qcfciqmc.fciqmc as fciqmc
from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.fciqmc import RunConfig, run, trajectory_to_csv
from qcfciqmc.matelem import (ElementSource, KeyedStreams, MatelemError, SampledBackend,
                              row_arrays)
from qcfciqmc.operators import HubbardSpec, build_hubbard, jordan_wigner
from qcfciqmc.simulator import Circuit
from qcfciqmc.vqa import hubbard_hv_generator_groups, layered_ansatz, lowest_diagonal_reference

IDENTITY_EXACT_SHA256 = "4f4bdbc00145f781c2f25be8782f904e36882847372ffbcef909d1c0e76e47fa"
LAYERED_SAMPLED_SHA256 = "58b06ee584749f73a64809db9bf9ce334994ad38d3e232c9aded09df8494d7c2"


def hubbard2x2():
    spec = HubbardSpec((2, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    ref = lowest_diagonal_reference(h, number_sector_indices(spec.n_qubits, n_up=2, n_dn=2))
    return spec, h, ref


def digest(traj) -> str:
    return hashlib.sha256(trajectory_to_csv(traj).encode()).hexdigest()


def test_identity_exact_trajectory_pinned():
    spec, h, ref = hubbard2x2()
    cfg = RunConfig(delta_tau=0.01, total_time=3.0, initial_walkers=500, seed=5,
                    damping=0.1, threshold=2000)
    traj = run(h, Circuit(spec.n_qubits, []), (), cfg, phi0=ref)
    assert len(traj.records) == 301
    assert digest(traj) == IDENTITY_EXACT_SHA256


def test_layered_sampled_trajectory_pinned():
    spec, h, ref = hubbard2x2()
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, ref, spec.n_qubits)
    params = 0.03 * (-1.0) ** np.arange(circuit.n_slots)  # fixed angles
    cfg = RunConfig(delta_tau=0.01, total_time=0.1, initial_walkers=2000, seed=7)
    traj = run(h, circuit, params, cfg, backend=SampledBackend(), phi0=0)
    assert len(traj.records) == 11
    assert digest(traj) == LAYERED_SAMPLED_SHA256


def seed_sequence_rng(seed, *key):
    """The reference stream: numpy's own SeedSequence and Philox."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**130 + 7]
KEYS = [(0,), (1,), (6000,), (2**32 - 1,), (5, 7, 1), (9, 3), (2**40 + 5, 2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_derived_keys_match_seed_sequence(seed):
    streams = KeyedStreams(seed)
    for key in KEYS:
        expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
        assert streams.key(*key).tolist() == expected.tolist(), key


@pytest.mark.parametrize("seed", [42, 2**130 + 7])
def test_batched_step_keys_equal_scalar_keys(seed):
    streams = KeyedStreams(seed)
    batched = streams.key(np.arange(1, 6001))
    assert batched.shape == (6000, 2)
    assert batched.tolist() == [streams.key(step).tolist() for step in range(1, 6001)]


def test_rekeyed_generator_draws_as_a_fresh_one():
    """Draws left half a 64-bit word and a part-used buffer behind; re-keying
    starts the new stream from scratch all the same."""
    streams = KeyedStreams(42)
    used = streams.stream(3)
    used.multinomial(1000, [0.2, 0.3, 0.5])
    used.integers(0, 2**32, size=3, dtype=np.uint32)
    rng, fresh = streams.stream(5, 7, 1), seed_sequence_rng(42, 5, 7, 1)
    assert rng.binomial(10**4, 0.37) == fresh.binomial(10**4, 0.37)
    assert rng.multinomial(10**6, [0.1, 0.6, 0.3]).tolist() == \
        fresh.multinomial(10**6, [0.1, 0.6, 0.3]).tolist()
    assert rng.random(5).tolist() == fresh.random(5).tolist()
    assert rng.random(3, dtype=np.float32).tolist() == fresh.random(3, dtype=np.float32).tolist()


@pytest.mark.parametrize("seed, key", [(-3, (1,)), (1, (-1,)), (1, (4, -2)),
                                       (1, (np.array([1, -2]),)), (1, (np.array([2**32]),))])
def test_negative_or_oversized_key_words_are_rejected(seed, key):
    with pytest.raises(MatelemError):
        KeyedStreams(seed).key(*key)


def test_negative_source_seed_is_rejected():
    spec, h, _ = hubbard2x2()
    with pytest.raises(MatelemError):
        ElementSource(h, Circuit(spec.n_qubits, []), seed=-1)


def test_rows_resolved_mid_step_leave_the_step_stream_alone(monkeypatch):
    """Every step, after the step's generator is keyed, resolve a fresh row on
    the sampled source (keyed element draws), then compare the step
    generator's next draws with numpy's stream for (seed, step)."""
    spec, h, ref = hubbard2x2()
    sector = number_sector_indices(spec.n_qubits, n_up=2, n_dn=2).tolist()
    real_spawn_step = fciqmc.spawn_step
    seen = []

    def resolve_a_row_then_spawn(pop, src, delta_tau, rng):
        n_rows = len(src._rows)
        row_arrays(src, [next(i for i in sector if src._row_len[i] < 0)])
        assert len(src._rows) == n_rows + 1  # a fresh magnitude draw was made
        peek = np.random.Generator(np.random.Philox(0))
        peek.bit_generator.state = rng.bit_generator.state
        seen.append(peek.random(4).tolist())
        return real_spawn_step(pop, src, delta_tau, rng)

    monkeypatch.setattr(fciqmc, "spawn_step", resolve_a_row_then_spawn)
    cfg = RunConfig(delta_tau=0.01, total_time=0.05, initial_walkers=50, seed=11)
    run(h, Circuit(spec.n_qubits, []), (), cfg, backend=SampledBackend(10**4, 10**3), phi0=ref)
    assert len(seen) == 5
    for step, draws in enumerate(seen, start=1):
        assert draws == seed_sequence_rng(11, step).random(4).tolist(), step
