"""Lazy transmission payloads against the eager construction they replace.

:func:`~repro.wireless.mimo.simulate_transmission` makes its random draws
up front and derives the modulated symbols, ``y = H x + n`` and the
:class:`~repro.wireless.mimo.MIMOInstance` on first read.
``_eager_simulate_transmission`` below is the executable spec: the
construction that built everything at once.  Every field of a lazily
materialised transmission must equal the spec's bitwise, the generator
must be left in the same state, and the timing-only serving studies must
never build a detection instance at all.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro import cli
from repro.exceptions import DimensionError
from repro.serving import build_scenario, generate_serving_jobs, uniform_cell_profiles
from repro.utils.rng import ensure_rng
from repro.wireless import traffic
from repro.wireless.channel import (
    ChannelModel,
    RayleighFadingChannel,
    UnitGainRandomPhaseChannel,
    apply_channel,
)
from repro.wireless.fading import ChannelImpairments, FadingChannel, estimate_channel
from repro.wireless.mimo import MIMOConfig, MIMOInstance, simulate_transmission
from repro.wireless.traffic import TrafficGenerator


@dataclass(frozen=True)
class _EagerTransmission:
    instance: MIMOInstance
    transmitted_symbols: np.ndarray
    transmitted_bits: np.ndarray
    noise_variance: float
    true_channel: Optional[np.ndarray] = None
    csi_error_variance: float = 0.0
    interference_power: float = 0.0

    # What ``ChannelUse`` read from the payload before it was lazy.
    @property
    def qubo_variable_count(self) -> int:
        return self.instance.qubo_variable_count

    @property
    def modulation(self) -> str:
        return self.instance.modulation


def _eager_simulate_transmission(
    config, channel_model=None, rng=None, impairments=None, channel_matrix=None
):
    """Executable spec: the eager body of ``simulate_transmission``."""
    generator = ensure_rng(rng)
    modulation = config.modulation_scheme
    active = impairments is not None and not impairments.is_identity

    if channel_matrix is not None:
        channel = np.asarray(channel_matrix, dtype=complex)
        expected = (config.receive_antennas, config.num_users)
        if channel.shape != expected:
            raise DimensionError(
                f"channel_matrix has shape {channel.shape}, expected {expected}"
            )
    else:
        if active and impairments.has_spatial_structure:
            model: ChannelModel = FadingChannel(impairments, base_model=channel_model)
        elif channel_model is not None:
            model = channel_model
        elif active:
            model = FadingChannel(impairments)
        else:
            model = UnitGainRandomPhaseChannel()
        channel = model.sample(config.receive_antennas, config.num_users, generator)

    bits = modulation.random_bits(config.num_users, generator)
    symbols = modulation.modulate_bits(bits)
    noise_variance = config.noise_variance
    interference_power = impairments.interference_power if active else 0.0
    received = apply_channel(
        channel,
        symbols,
        noise_variance,
        generator,
        interference_power=interference_power,
    )

    csi_error_variance = impairments.csi_error_variance if active else 0.0
    if csi_error_variance > 0:
        visible = estimate_channel(channel, csi_error_variance, generator)
        true_channel: Optional[np.ndarray] = channel
    else:
        visible = channel
        true_channel = None

    instance = MIMOInstance(
        channel_matrix=visible, received=received, modulation=config.modulation
    )
    return _EagerTransmission(
        instance=instance,
        transmitted_symbols=symbols,
        transmitted_bits=bits,
        noise_variance=noise_variance,
        true_channel=true_channel,
        csi_error_variance=csi_error_variance,
        interference_power=interference_power,
    )


def _assert_bitwise(actual, expected):
    if expected is None:
        assert actual is None
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_same_transmission(lazy, eager):
    # Size and modulation come straight from the draws, before anything is built.
    assert lazy.qubo_variable_count == eager.qubo_variable_count
    assert lazy.modulation == eager.modulation
    assert "instance" not in vars(lazy)
    _assert_bitwise(lazy.instance.channel_matrix, eager.instance.channel_matrix)
    _assert_bitwise(lazy.instance.received, eager.instance.received)
    assert lazy.instance.modulation == eager.instance.modulation
    _assert_bitwise(lazy.transmitted_symbols, eager.transmitted_symbols)
    _assert_bitwise(lazy.transmitted_bits, eager.transmitted_bits)
    _assert_bitwise(lazy.true_channel, eager.true_channel)
    assert lazy.noise_variance == eager.noise_variance
    assert lazy.csi_error_variance == eager.csi_error_variance
    assert lazy.interference_power == eager.interference_power
    # Derived once, then cached.
    assert lazy.instance is lazy.instance
    assert lazy.transmitted_symbols is lazy.transmitted_symbols


_CASES = {
    "unit-gain": dict(config=MIMOConfig(4, "QPSK")),
    "unit-gain-64qam-tall": dict(config=MIMOConfig(2, "64-QAM", num_receive_antennas=5)),
    "rayleigh": dict(config=MIMOConfig(3, "16-QAM"), channel_model=RayleighFadingChannel()),
    "snr-noise": dict(config=MIMOConfig(3, "16-QAM", snr_db=12.0)),
    "csi-error": dict(
        config=MIMOConfig(4, "BPSK", snr_db=8.0),
        impairments=ChannelImpairments(csi_error_variance=0.05),
    ),
    "interference": dict(
        config=MIMOConfig(2, "QPSK"),
        impairments=ChannelImpairments(interference_power=0.3),
    ),
    "spatial-structure": dict(
        config=MIMOConfig(3, "QPSK", snr_db=15.0),
        impairments=ChannelImpairments(
            rx_correlation=0.6, rician_k=2.0, csi_error_variance=0.02, interference_power=0.1
        ),
    ),
    "identity-impairments": dict(config=MIMOConfig(2, "16-QAM"), impairments=ChannelImpairments()),
}


class TestLazyMatchesEager:
    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_simulate_transmission(self, case, seed):
        lazy_rng, eager_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        lazy = simulate_transmission(rng=lazy_rng, **_CASES[case])
        eager = _eager_simulate_transmission(rng=eager_rng, **_CASES[case])
        # Same draws in the same order: both generators end in the same state.
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state
        _assert_same_transmission(lazy, eager)

    def test_supplied_channel_matrix(self):
        config = MIMOConfig(2, "QPSK", snr_db=10.0)
        channel = RayleighFadingChannel().sample(2, 2, np.random.default_rng(3))
        impairments = ChannelImpairments(csi_error_variance=0.1, interference_power=0.2)
        lazy = simulate_transmission(config, rng=5, impairments=impairments, channel_matrix=channel)
        eager = _eager_simulate_transmission(
            config, rng=5, impairments=impairments, channel_matrix=channel
        )
        _assert_same_transmission(lazy, eager)

    def test_reading_the_instance_first_matches_reading_symbols_first(self):
        config = MIMOConfig(3, "16-QAM", snr_db=9.0)
        instance_first = simulate_transmission(config, rng=11)
        symbols_first = simulate_transmission(config, rng=11)
        symbols_first.transmitted_symbols
        _assert_bitwise(instance_first.instance.received, symbols_first.instance.received)
        _assert_bitwise(instance_first.transmitted_symbols, symbols_first.transmitted_symbols)


def _eager_stream(monkeypatch, build):
    """Run ``build()`` with the traffic layer calling the eager spec."""
    with monkeypatch.context() as patch:
        patch.setattr(traffic, "simulate_transmission", _eager_simulate_transmission)
        return build()


class TestLazyStreamsMatchEager:
    def test_fading_process_blocks_with_csi_error_and_interference_scale(self, monkeypatch):
        impairments = ChannelImpairments(
            temporal_correlation=0.9, csi_error_variance=0.05, interference_power=0.4
        )

        def build():
            generator = TrafficGenerator(
                [MIMOConfig(2, "QPSK", snr_db=10.0), MIMOConfig(3, "16-QAM")],
                symbol_period_us=10.0,
                impairments=impairments,
                interference_scale=lambda t_us: 0.5 + t_us / 40.0,
            )
            return generator.generate(8, rng=21)

        eager = _eager_stream(monkeypatch, build)
        lazy = build()
        assert len({use.transmission.interference_power for use in lazy}) > 1
        for lazy_use, eager_use in zip(lazy, eager, strict=True):
            assert lazy_use.arrival_time_us == eager_use.arrival_time_us
            assert lazy_use.qubo_variable_count == eager_use.qubo_variable_count
            assert lazy_use.modulation == eager_use.modulation
            _assert_same_transmission(lazy_use.transmission, eager_use.transmission)

    def test_random_job_mix(self, monkeypatch):
        mix = [
            MIMOConfig(2, "BPSK"),
            MIMOConfig(2, "QPSK", snr_db=6.0),
            MIMOConfig(3, "16-QAM", num_receive_antennas=4),
        ]

        def build():
            generator = TrafficGenerator(
                mix,
                arrival_process="poisson",
                channel_model=RayleighFadingChannel(),
                job_mix="random",
            )
            return generator.generate(12, rng=4)

        eager = _eager_stream(monkeypatch, build)
        lazy = build()
        assert len({use.modulation for use in lazy}) > 1
        for lazy_use, eager_use in zip(lazy, eager, strict=True):
            assert lazy_use.arrival_time_us == eager_use.arrival_time_us
            _assert_same_transmission(lazy_use.transmission, eager_use.transmission)

    def test_scenario_workload_with_neighbour_interference(self, monkeypatch):
        profiles = uniform_cell_profiles(
            num_cells=3,
            users_per_cell=2,
            configs=[MIMOConfig(2, "QPSK"), MIMOConfig(2, "16-QAM", snr_db=12.0)],
            symbol_period_us=40.0,
            job_mix="random",
        )
        scenario = build_scenario("flash-crowd", num_cells=3, horizon_us=800.0)
        impairments = ChannelImpairments(temporal_correlation=0.8, interference_power=0.2)

        def build():
            return generate_serving_jobs(
                profiles, 30, rng=9, scenario=scenario, impairments=impairments
            )

        eager = _eager_stream(monkeypatch, build)
        lazy = build()
        assert len(lazy) > 20
        for lazy_job, eager_job in zip(lazy, eager, strict=True):
            for name in ("job_id", "cell_id", "arrival_us", "deadline_us", "num_variables"):
                assert getattr(lazy_job, name) == getattr(eager_job, name)
            _assert_same_transmission(
                lazy_job.channel_use.transmission, eager_job.channel_use.transmission
            )


class TestServingJobFields:
    def test_resolved_fields_follow_the_channel_use(self):
        jobs = generate_serving_jobs(
            uniform_cell_profiles(2, 2, [MIMOConfig(2, "QPSK"), MIMOConfig(3, "16-QAM")]),
            4,
            rng=3,
        )
        for job in jobs:
            use = job.channel_use
            assert job.arrival_us == use.arrival_time_us
            assert job.deadline_us == use.deadline_us
            assert job.has_deadline == use.has_deadline
            assert job.num_variables == use.transmission.instance.qubo_variable_count
            assert job.modulation == use.transmission.instance.modulation
        moved = dataclasses.replace(jobs[0], cell_id=1)
        assert moved.arrival_us == jobs[0].arrival_us
        assert moved.num_variables == jobs[0].num_variables


class TestTimingOnlyStudiesBuildNoPayload:
    @pytest.mark.parametrize("study", ["scenarios", "qos"])
    def test_quick_study_never_builds_a_detection_instance(self, study, monkeypatch, capsys):
        built = []
        original = MIMOInstance.__post_init__

        def counting_post_init(instance):
            built.append(instance)
            original(instance)

        monkeypatch.setattr(MIMOInstance, "__post_init__", counting_post_init)
        transmissions = []
        draw = traffic.simulate_transmission

        def recording_draw(*args, **kwargs):
            transmissions.append(draw(*args, **kwargs))
            return transmissions[-1]

        monkeypatch.setattr(traffic, "simulate_transmission", recording_draw)
        assert cli.main([study, "--quick", "--no-cache"]) == 0
        assert capsys.readouterr().out
        assert transmissions, "the study generated no traffic"
        assert built == []
        # The counter is live: reading one payload builds exactly one instance.
        transmissions[0].instance
        assert len(built) == 1
