"""Executable specs for the single-instance annealing paths.

The annealer front-end and the s_p sweep used to keep a single-instance
implementation next to the batched one: ``sample_ising`` ran its own
``_sample_logical`` path, ``sample_qubo`` rebuilt every sample set with QUBO
energies (``_requbo_sampleset``), and ``sweep_switch_point`` repeated the
grid loop of ``sweep_switch_point_batch``.  Those entry points are now the
batched call with one instance.  The deleted code is kept below as the
specification, and Hypothesis checks the library against it record for
record: assignments, energies (``float.hex``), occurrence counts, chain-break
fractions, record order and metadata.
"""

from dataclasses import astuple
from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.device import DeviceModel
from repro.annealing.sa_backend import ScheduleDrivenAnnealingBackend
from repro.annealing.sampler import QuantumAnnealerSimulator
from repro.annealing.sampleset import SampleRecord, SampleSet
from repro.annealing.schedule import (
    forward_anneal_schedule,
    forward_reverse_anneal_schedule,
    reverse_anneal_schedule,
)
from repro.annealing.svmc import SpinVectorMonteCarloBackend
from repro.exceptions import ConfigurationError
from repro.hybrid.parameters import (
    SwitchPointRecord,
    paper_switch_point_grid,
    sweep_switch_point,
)
from repro.metrics.tts import time_to_solution
from repro.qubo.ising import bits_to_spins, qubo_to_ising
from repro.qubo.model import QUBOModel
from repro.utils.rng import ensure_rng, spawn_rngs

BACKENDS = [SpinVectorMonteCarloBackend, ScheduleDrivenAnnealingBackend]


# ---------------------------------------------------------------------- #
# The deleted single-instance paths, as they were
# ---------------------------------------------------------------------- #


def spec_requbo_sampleset(qubo: QUBOModel, sampleset: SampleSet) -> SampleSet:
    """Rebuild a sample set with energies re-evaluated under the QUBO."""
    assignments = np.array([record.assignment for record in sampleset.records])
    occurrences = sampleset.occurrences()
    energies = qubo.energies(assignments) if len(sampleset) else np.empty(0)
    records = [
        SampleRecord(
            assignment=assignment,
            energy=float(energy),
            num_occurrences=int(count),
            chain_break_fraction=record.chain_break_fraction,
        )
        for assignment, energy, count, record in zip(
            assignments, energies, occurrences, sampleset.records
        )
    ]
    return SampleSet(records, metadata=sampleset.metadata)


def spec_sample_logical(sampler, ising, schedule, num_reads, initial_spins, generator):
    """Normalise, add control noise, run one backend call, score on ``ising``."""
    scale = sampler.device.normalisation_scale(ising)
    fields = ising.fields / scale
    couplings = ising.couplings / scale
    fields, couplings = sampler.device.apply_control_noise(fields, couplings, generator)
    spins = sampler.backend.run(
        fields=fields,
        couplings=couplings,
        schedule=schedule,
        num_reads=num_reads,
        annealing_functions=sampler.device.annealing,
        relative_temperature=sampler.device.relative_temperature,
        initial_spins=initial_spins,
        rng=spawn_rngs(generator, 1)[0],
    )
    bits = ((spins + 1) // 2).astype(np.int8)
    energies = ising.energies(spins)
    return SampleSet.from_arrays(bits, energies, metadata={"embedded": False})


def spec_sample_ising(sampler, ising, schedule, num_reads=100, initial_spins=None, rng=None):
    """The old ``QuantumAnnealerSimulator.sample_ising``."""
    if num_reads <= 0:
        raise ConfigurationError(f"num_reads must be positive, got {num_reads}")
    generator = ensure_rng(rng) if rng is not None else sampler._rng
    if schedule.requires_initial_state and initial_spins is None:
        raise ConfigurationError(
            f"schedule {schedule.name!r} starts from a classical state; "
            "supply initial_state/initial_spins"
        )
    if sampler.use_embedding and ising.num_spins > 1:
        sampleset = sampler._sample_embedded(ising, schedule, num_reads, initial_spins, generator)
    else:
        sampleset = spec_sample_logical(
            sampler, ising, schedule, num_reads, initial_spins, generator
        )
    sampleset.metadata.update(sampler._metadata(schedule, num_reads))
    return sampleset


def spec_sample_qubo(sampler, qubo, schedule, num_reads=100, initial_state=None, rng=None):
    """The old ``QuantumAnnealerSimulator.sample_qubo``."""
    ising = qubo_to_ising(qubo)
    initial_spins = None
    if initial_state is not None:
        initial_spins = bits_to_spins(np.asarray(initial_state, dtype=int))
    sampleset = spec_sample_ising(sampler, ising, schedule, num_reads, initial_spins, rng)
    return spec_requbo_sampleset(qubo, sampleset)


def spec_sweep_switch_point(
    qubo,
    ground_energy,
    method="RA",
    switch_values=None,
    initial_state=None,
    sampler=None,
    num_reads=500,
    pause_duration_us=1.0,
    anneal_time_us=1.0,
    confidence_percent=99.0,
    rng=None,
) -> List[SwitchPointRecord]:
    """The old ``sweep_switch_point`` grid loop."""
    method = method.upper()
    if method not in ("FA", "RA", "FR"):
        raise ConfigurationError(f"method must be 'FA', 'RA' or 'FR', got {method!r}")
    if method == "RA" and initial_state is None:
        raise ConfigurationError("reverse annealing sweeps require an initial_state")

    values = np.asarray(
        switch_values if switch_values is not None else paper_switch_point_grid(), dtype=float
    )
    annealer = sampler if sampler is not None else QuantumAnnealerSimulator()
    generator = ensure_rng(rng)

    records: List[SwitchPointRecord] = []
    for switch_s in values:
        switch_s = float(switch_s)
        turning_s: Optional[float] = None
        if method == "FA":
            schedule = forward_anneal_schedule(anneal_time_us, switch_s, pause_duration_us)
            sampleset = spec_sample_qubo(annealer, qubo, schedule, num_reads, None, generator)
        elif method == "RA":
            schedule = reverse_anneal_schedule(switch_s, pause_duration_us)
            sampleset = spec_sample_qubo(
                annealer, qubo, schedule, num_reads, initial_state, generator
            )
        else:
            turning_s = min(switch_s + 0.2, 0.95)
            schedule = forward_reverse_anneal_schedule(
                turning_s, switch_s, pause_duration_us, anneal_time_us
            )
            sampleset = spec_sample_qubo(annealer, qubo, schedule, num_reads, None, generator)

        probability = sampleset.success_probability(ground_energy)
        tts = time_to_solution(probability, schedule.duration_us, confidence_percent)
        records.append(
            SwitchPointRecord(
                method=method,
                switch_s=switch_s,
                success_probability=probability,
                tts=tts,
                expectation_energy=sampleset.expectation_energy(),
                duration_us=schedule.duration_us,
                turning_s=turning_s,
            )
        )
    return records


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #


def _hex(value):
    if isinstance(value, tuple):
        return tuple(_hex(item) for item in value)
    return float(value).hex() if isinstance(value, float) else value


def fingerprint(sampleset: SampleSet):
    """Everything a sample set carries, floats as ``float.hex``, in order."""
    records = [
        (
            record.assignment.dtype.str,
            record.assignment.tobytes(),
            _hex(record.energy),
            record.num_occurrences,
            _hex(record.chain_break_fraction),
        )
        for record in sampleset.records
    ]
    return records, sampleset.metadata


def record_fingerprint(record: SwitchPointRecord):
    return _hex(astuple(record))


def _schedule(method: str):
    if method == "FA":
        return forward_anneal_schedule(0.5, pause_s=0.45, pause_duration_us=0.25)
    if method == "RA":
        return reverse_anneal_schedule(0.45, pause_duration_us=0.25)
    return forward_reverse_anneal_schedule(0.7, 0.45, pause_duration_us=0.25, anneal_time_us=0.5)


def _qubo(rng: np.random.Generator, size: int) -> QUBOModel:
    # Few distinct coefficients make energy ties (and so the key tie-break of
    # the record order) common; thirds are inexact in binary, so energies
    # scored on the Ising form would round differently from the QUBO's.
    coefficients = np.triu(rng.integers(-2, 3, size=(size, size))) / 3.0
    return QUBOModel(coefficients, offset=float(rng.integers(-3, 4)) / 3.0)


def _twin_samplers(backend_class, embedding: bool, noise: bool, seed: int):
    """Two identically configured and seeded samplers (library, spec)."""
    device = DeviceModel(
        field_noise_sigma=0.02 if noise else 0.0, coupling_noise_sigma=0.01 if noise else 0.0
    )

    def build():
        return QuantumAnnealerSimulator(
            device=device,
            backend=backend_class(sweeps_per_microsecond=8),
            use_embedding=embedding,
            seed=seed,
        )

    return build(), build()


def _call_rng(kind: str, seed: int):
    """A fresh rng argument: an int, a Generator, or None (the sampler seed)."""
    if kind == "int":
        return seed
    if kind == "generator":
        return np.random.default_rng(seed)
    return None


case = st.fixed_dictionaries(
    {
        "backend_class": st.sampled_from(BACKENDS),
        "method": st.sampled_from(["FA", "RA", "FR"]),
        "sizes": st.lists(st.integers(0, 5), min_size=1, max_size=4),
        "num_reads": st.integers(1, 6),
        "rng_kind": st.sampled_from(["int", "generator", "sampler"]),
        "embedding": st.booleans(),
        "noise": st.booleans(),
        "seed": st.integers(0, 2**16),
    }
)


def _instances(case):
    rng = np.random.default_rng(case["seed"])
    qubos = [_qubo(rng, size) for size in case["sizes"]]
    states = None
    if case["method"] == "RA":
        states = [rng.integers(0, 2, size=size) for size in case["sizes"]]
    return qubos, states


# ---------------------------------------------------------------------- #
# Differentials
# ---------------------------------------------------------------------- #


class TestSamplerAgainstSpec:
    @settings(max_examples=60, deadline=None)
    @given(case=case)
    def test_sample_qubo_and_ising_match_spec(self, case):
        qubos, states = _instances(case)
        schedule = _schedule(case["method"])
        library, spec = _twin_samplers(
            case["backend_class"], case["embedding"], case["noise"], case["seed"]
        )
        for index, qubo in enumerate(qubos):
            state = None if states is None else states[index]
            seed = case["seed"] + index
            expected = spec_sample_qubo(
                spec, qubo, schedule, case["num_reads"], state, _call_rng(case["rng_kind"], seed)
            )
            actual = library.sample_qubo(
                qubo, schedule, case["num_reads"], state, _call_rng(case["rng_kind"], seed)
            )
            assert fingerprint(actual) == fingerprint(expected)

            ising = qubo_to_ising(qubo)
            spins = None if state is None else bits_to_spins(state)
            expected = spec_sample_ising(
                spec, ising, schedule, case["num_reads"], spins, _call_rng(case["rng_kind"], seed)
            )
            actual = library.sample_ising(
                ising, schedule, case["num_reads"], spins, _call_rng(case["rng_kind"], seed)
            )
            assert fingerprint(actual) == fingerprint(expected)

    @settings(max_examples=60, deadline=None)
    @given(case=case)
    def test_sample_qubo_batch_matches_spec_loop(self, case):
        qubos, states = _instances(case)
        schedule = _schedule(case["method"])
        library, spec = _twin_samplers(
            case["backend_class"], case["embedding"], case["noise"], case["seed"]
        )
        root = _call_rng(case["rng_kind"], case["seed"])
        children = spawn_rngs(root if root is not None else spec._rng, len(qubos))
        expected = [
            spec_sample_qubo(
                spec,
                qubo,
                schedule,
                case["num_reads"],
                None if states is None else states[index],
                child,
            )
            for index, (qubo, child) in enumerate(zip(qubos, children))
        ]
        actual = library.sample_qubo_batch(
            qubos,
            schedule,
            case["num_reads"],
            states,
            _call_rng(case["rng_kind"], case["seed"]),
        )
        assert [fingerprint(item) for item in actual] == [fingerprint(item) for item in expected]


class TestSweepAgainstSpec:
    @settings(max_examples=30, deadline=None)
    @given(
        backend_class=st.sampled_from(BACKENDS),
        method=st.sampled_from(["FA", "RA", "FR"]),
        size=st.integers(1, 5),
        num_reads=st.integers(1, 8),
        rng_kind=st.sampled_from(["int", "generator"]),
        embedding=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_sweep_switch_point_matches_spec(
        self, backend_class, method, size, num_reads, rng_kind, embedding, seed
    ):
        rng = np.random.default_rng(seed)
        qubo = _qubo(rng, size)
        bits = (np.arange(2**size)[:, None] >> np.arange(size)) & 1
        ground = float(np.min(qubo.energies(bits)))
        state = rng.integers(0, 2, size=size) if method == "RA" else None
        library, spec = _twin_samplers(backend_class, embedding, False, seed)
        kwargs = dict(
            method=method,
            switch_values=(0.35, 0.6),
            initial_state=state,
            num_reads=num_reads,
            pause_duration_us=0.25,
            anneal_time_us=0.5,
        )
        expected = spec_sweep_switch_point(
            qubo, ground, sampler=spec, rng=_call_rng(rng_kind, seed), **kwargs
        )
        actual = sweep_switch_point(
            qubo, ground, sampler=library, rng=_call_rng(rng_kind, seed), **kwargs
        )
        assert [record_fingerprint(r) for r in actual] == [record_fingerprint(r) for r in expected]
