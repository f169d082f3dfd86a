"""Keyed streams: the key layout, stream independence and pinned trajectories.

Every random draw of the package comes from a Philox stream keyed by
[domain << 62 | a << 31 | b, w], with w = SeedSequence(seed).generate_state(1,
np.uint64)[0] (`matelem.KeyedStreams`).  The layout tests hold the streams to
that key with numpy's own Philox.  The independence tests check that the
engine's stream is none of the element source's streams, and that element
draws made in the middle of a step leave the engine's generator alone.

The determinism tests compare two runs of the same code.  The pins compare
a run with the bytes an earlier version of the package wrote, so a refactor
that moves a random stream or the rounding of an estimator fails here even
when every run still reproduces itself.

The pins were recorded with numpy 2.4 on Python 3.11.  A numpy upgrade that
changes the `Generator` streams (Philox, binomial or multinomial) or the
`SeedSequence` word of a seed moves these digests without any change in the
package; then re-pin them and log the old and new values in CHANGES.md.
"""

import hashlib
import itertools

import numpy as np
import pytest

import qcfciqmc.fciqmc as fciqmc
from qcfciqmc.exactdiag import number_sector_indices
from qcfciqmc.fciqmc import RunConfig, run, trajectory_to_csv
from qcfciqmc.matelem import (DIAGONAL, ENGINE, MAGNITUDE, SIGN, ElementSource, KeyedStreams,
                              MatelemError, SampledBackend, row_arrays)
from qcfciqmc.operators import HubbardSpec, PauliSum, PauliTerm, PauliWord, build_hubbard, jordan_wigner
from qcfciqmc.simulator import Circuit
from qcfciqmc.vqa import hubbard_hv_generator_groups, layered_ansatz, lowest_diagonal_reference

IDENTITY_EXACT_SHA256 = "4713d7f92b95c9246206da1ae567d47d5e68c5cf0c01e85a6267e507f3d77adb"
LAYERED_SAMPLED_SHA256 = "5c127748326f4b44d298bdaf9b0916821aa43ee69322b0f83b6365df0d0b7536"

FIELD_MAX = 2**31 - 1


def hubbard2x2():
    spec = HubbardSpec((2, 2), t=1.0, u=4.0)
    h = jordan_wigner(build_hubbard(spec))
    ref = lowest_diagonal_reference(h, number_sector_indices(spec.n_qubits, n_up=2, n_dn=2))
    return spec, h, ref


def digest(traj) -> str:
    return hashlib.sha256(trajectory_to_csv(traj).encode()).hexdigest()


def next_draws(rng, n=4) -> tuple:
    """The next n uniforms of rng, read from a copy so rng does not move."""
    peek = np.random.Generator(np.random.Philox(0))
    peek.bit_generator.state = rng.bit_generator.state
    return tuple(peek.random(n).tolist())


def layout_rng(seed, domain, a=0, b=0):
    """The reference stream: numpy's own Philox, keyed by the layout."""
    w = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
    key = np.array([domain << 62 | a << 31 | b, w], dtype=np.uint64)  # a list would pass floats
    return np.random.Generator(np.random.Philox(key=key))


def test_identity_exact_trajectory_pinned():
    spec, h, ref = hubbard2x2()
    cfg = RunConfig(delta_tau=0.01, total_time=3.0, initial_walkers=500, seed=5,
                    damping=0.1, threshold=2000)
    traj = run(ElementSource(h, Circuit(spec.n_qubits, []), seed=cfg.seed), cfg, phi0=ref)
    assert len(traj.records) == 301
    assert digest(traj) == IDENTITY_EXACT_SHA256


def test_layered_sampled_trajectory_pinned():
    spec, h, ref = hubbard2x2()
    circuit = layered_ansatz(hubbard_hv_generator_groups(spec), 1, ref, spec.n_qubits)
    params = 0.03 * (-1.0) ** np.arange(circuit.n_slots)  # fixed angles
    cfg = RunConfig(delta_tau=0.01, total_time=0.1, initial_walkers=2000, seed=7)
    src = ElementSource(h, circuit, params, backend=SampledBackend(), seed=cfg.seed)
    traj = run(src, cfg, phi0=0)
    assert len(traj.records) == 11
    assert digest(traj) == LAYERED_SAMPLED_SHA256


KEYS = [(MAGNITUDE, 0, 0), (MAGNITUDE, 6000, 0), (SIGN, 5, 7), (SIGN, FIELD_MAX, FIELD_MAX),
        (DIAGONAL, 9, 0), (ENGINE, 0, 0)]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**130 + 7])
def test_derived_keys_match_seed_sequence(seed):
    """Each stream's Philox key is the layout word and the seed's
    SeedSequence word, and the stream is numpy's Philox with that key."""
    streams = KeyedStreams(seed)
    w = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
    for domain, a, b in KEYS:
        rng = streams.stream(domain, a, b)
        assert rng.bit_generator.state["state"]["key"].tolist() == \
            [domain << 62 | a << 31 | b, int(w)]
        assert rng.random(4).tolist() == layout_rng(seed, domain, a, b).random(4).tolist()


def test_key_layout_is_injective():
    streams = KeyedStreams(3)
    fields = [0, 1, 2, 2**30, FIELD_MAX]
    keys = {}
    for key in itertools.product(range(4), fields, fields):
        philox_key = tuple(streams.stream(*key).bit_generator.state["state"]["key"].tolist())
        assert keys.setdefault(philox_key, key) == key, (key, keys[philox_key])
    assert len(keys) == 4 * len(fields) ** 2


@pytest.mark.parametrize("seed, key", [(-3, (MAGNITUDE, 1)), (1, (MAGNITUDE, -1)),
                                       (1, (SIGN, 4, -2)), (1, (SIGN, 2**31, 0)),
                                       (1, (SIGN, 0, 2**31)), (1, (DIAGONAL, 2**40))])
def test_negative_or_oversized_key_words_are_rejected(seed, key):
    """Seeds must be non-negative and both key fields lie in [0, 2**31)."""
    with pytest.raises(MatelemError):
        KeyedStreams(seed).stream(*key)


def test_negative_source_seed_is_rejected():
    spec, h, _ = hubbard2x2()
    with pytest.raises(MatelemError):
        ElementSource(h, Circuit(spec.n_qubits, []), seed=-1)


def test_rekeyed_generator_draws_as_a_fresh_one():
    """Draws left half a 64-bit word and a part-used buffer behind; re-keying
    starts the new stream from scratch all the same."""
    streams = KeyedStreams(42)
    used = streams.stream(MAGNITUDE, 3)
    used.multinomial(1000, [0.2, 0.3, 0.5])
    used.integers(0, 2**32, size=3, dtype=np.uint32)
    rng, fresh = streams.stream(SIGN, 5, 7), layout_rng(42, SIGN, 5, 7)
    assert rng.binomial(10**4, 0.37) == fresh.binomial(10**4, 0.37)
    assert rng.multinomial(10**6, [0.1, 0.6, 0.3]).tolist() == \
        fresh.multinomial(10**6, [0.1, 0.6, 0.3]).tolist()
    assert rng.random(5).tolist() == fresh.random(5).tolist()
    assert rng.random(3, dtype=np.float32).tolist() == fresh.random(3, dtype=np.float32).tolist()


def test_engine_draws_are_no_element_draws(monkeypatch):
    """With one seed for the engine and the source, no step of the engine
    draws the numbers of a stream the source keyed: in particular the
    engine's step k and row k's magnitude and sign draws differ.  Each row
    keys its sign stream once, for all of its Hadamard tests; the Y term
    makes some entries purely imaginary, and those are tested too."""
    h = PauliSum([
        PauliTerm(0.4, PauliWord(2, 0b01, 0)),
        PauliTerm(-0.3, PauliWord(2, 0b10, 0b10)),
        PauliTerm(0.25, PauliWord(2, 0, 0b01)),
        PauliTerm(0.6, PauliWord(2, 0b11, 0b11)),
    ])
    src = ElementSource(h, Circuit(2, []), backend=SampledBackend(10**4, 10**3), seed=7)
    element_draws, keys = set(), []
    keyed_stream = src._streams.stream

    def recorded_stream(*key):
        rng = keyed_stream(*key)
        keys.append(key)
        element_draws.add(next_draws(rng))
        return rng

    monkeypatch.setattr(src._streams, "stream", recorded_stream)
    real_advance = fciqmc.advance
    engine_draws = []

    def recorded_advance(pop, table, shift, rng):
        engine_draws.append(next_draws(rng))
        return real_advance(pop, table, shift, rng)

    monkeypatch.setattr(fciqmc, "advance", recorded_advance)
    cfg = RunConfig(delta_tau=0.05, total_time=0.5, initial_walkers=200, seed=7)
    run(src, cfg, phi0=0)
    assert (src._row_len >= 0).sum() == 4  # every row, so rows 1 to 3 had magnitude draws
    assert sorted(k for k in keys if k[0] == SIGN) == [(SIGN, i) for i in range(4)]
    assert len(engine_draws) == 10
    assert not element_draws & set(engine_draws)


def test_binomial_draws_nothing_for_no_walkers_or_zero_probability():
    """The engine's spawn and death/clone calls run over every row of its
    spawn table, occupied or not.  That keeps each trajectory what one call
    over the occupied rows alone draws only because numpy's binomial returns
    0 for n = 0 or p = 0 without consuming its stream: entries with n = 0,
    p = 0 or both, interleaved with the others, leave the same values and
    the same generator state as one call over the other entries alone.  The
    n and p ranges reach both of numpy's binomial samplers (n p below and
    above 30) and p above one half."""
    pick = np.random.default_rng(8)
    size = 400
    n = pick.integers(1, 5000, size=size) * (pick.random(size) < 0.7)
    p = pick.random(size) * (pick.random(size) < 0.7)
    p[pick.random(size) < 0.2] = 1.0
    kept = (n > 0) & (p > 0)
    assert 0 < kept.sum() < size and (n * p)[kept].min() < 30 < (n * p).max()
    engine, alone = KeyedStreams(3).stream(ENGINE), KeyedStreams(3).stream(ENGINE)
    draws = engine.binomial(n, p)
    assert draws[kept].tolist() == alone.binomial(n[kept], p[kept]).tolist()
    assert not draws[~kept].any()
    np.testing.assert_equal(engine.bit_generator.state, alone.bit_generator.state)
    assert next_draws(engine) == next_draws(alone)


def test_rows_resolved_mid_step_leave_the_step_stream_alone(monkeypatch):
    """Every step, after the engine's generator is keyed, resolve a fresh row
    on the sampled source (keyed element draws); the engine generator's
    state is the same before and after, and its first step starts the
    ENGINE stream of the run's seed."""
    spec, h, ref = hubbard2x2()
    sector = number_sector_indices(spec.n_qubits, n_up=2, n_dn=2).tolist()
    real_advance = fciqmc.advance
    seen = []

    def resolve_a_row_then_advance(pop, table, shift, rng):
        src = table.source
        before, n_rows = next_draws(rng), (src._row_len >= 0).sum()
        # a full-space source: the position of walker index i is i
        row_arrays(src, [next(i for i in sector if src._row_len[i] < 0)])
        assert (src._row_len >= 0).sum() == n_rows + 1  # a fresh magnitude draw was made
        assert next_draws(rng) == before
        seen.append(before)
        return real_advance(pop, table, shift, rng)

    monkeypatch.setattr(fciqmc, "advance", resolve_a_row_then_advance)
    cfg = RunConfig(delta_tau=0.01, total_time=0.05, initial_walkers=50, seed=11)
    run(ElementSource(h, Circuit(spec.n_qubits, []), backend=SampledBackend(10**4, 10**3),
                      seed=cfg.seed), cfg, phi0=ref)
    assert len(seen) == 5
    assert seen[0] == tuple(layout_rng(11, ENGINE).random(4).tolist())
