import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptstar.adaptive import (
    SCHEDULES,
    BatchConfig,
    BatchState,
    ChargeConfig,
    adapt_batch_size,
    alternate_charge_schedule,
    bernoulli_number,
    decay_factor,
    informed_ratio,
    sigmoid_smooth,
    tanh_taylor_charge,
    vertex_charge,
)
from aptstar.geometry import lebesgue_measure

from oracles import bernoulli_at


class TestSigmoidSmooth:
    def test_midpoint(self):
        assert sigmoid_smooth(0.5) == 0.5

    def test_upper_end(self):
        assert sigmoid_smooth(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-12)

    def test_lower_limit(self):
        assert sigmoid_smooth(1e-15) == pytest.approx(
            math.exp(-5.0) / (1.0 + math.exp(-5.0)), abs=1e-12
        )

    def test_branch_agreement_at_half(self):
        lo = sigmoid_smooth(0.5 - 1e-12)
        hi = sigmoid_smooth(0.5 + 1e-12)
        assert abs(lo - hi) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            sigmoid_smooth(0.0)
        with pytest.raises(ValueError):
            sigmoid_smooth(1.1)

    def test_monotone(self):
        gs = np.linspace(0.01, 1.0, 200)
        vals = [sigmoid_smooth(g) for g in gs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestDecayFactor:
    def test_endpoints(self):
        assert decay_factor(1.0, 10.0) == pytest.approx(1.0, abs=1e-15)
        assert decay_factor(1e-300, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        assert decay_factor(0.5, 10.0) == pytest.approx(
            math.log(6.0) / math.log(11.0), abs=1e-15
        )

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            decay_factor(0.5, 0.0)


class TestInformedRatio:
    def test_equal(self):
        assert informed_ratio(2.0, 2.0) == 1.0

    def test_half(self):
        assert informed_ratio(1.0, 2.0) == 0.5

    def test_fixture_quarter(self):
        zeta_i = lebesgue_measure(2.0, 1.0, 2)
        assert informed_ratio(zeta_i / 4.0, zeta_i) == pytest.approx(0.25, abs=1e-5)

    def test_zero_initial_rejected(self):
        with pytest.raises(ValueError):
            informed_ratio(0.0, 0.0)


class TestAdaptBatchSize:
    def test_first_solution_4d(self):
        cfg = BatchConfig(m_min=1, m_max=199)
        state = BatchState()
        batch = adapt_batch_size(2.0, 1.0, 4, cfg, state)
        # G=1, sigma = 1/(1+e^-5), theta = ln(50 sigma + 1)/ln 51, floor
        assert batch == 198

    def test_endpoint_formula(self):
        cfg = BatchConfig(m_min=1, m_max=199)
        # theta=1 and theta=0 map onto m_max and m_min respectively
        assert math.floor(cfg.m_min + 1.0 * (cfg.m_max - cfg.m_min)) == cfg.m_max
        assert math.floor(cfg.m_min + 0.0 * (cfg.m_max - cfg.m_min)) == cfg.m_min

    def test_equal_cost_reuses_batch(self):
        cfg = BatchConfig()
        state = BatchState()
        b1 = adapt_batch_size(2.0, 1.0, 2, cfg, state)
        b2 = adapt_batch_size(2.0, 1.0, 2, cfg, state)
        assert b1 == b2

    def test_cost_below_bound_rejected(self):
        with pytest.raises(ValueError):
            adapt_batch_size(0.5, 1.0, 2, BatchConfig(), BatchState())

    def test_zeta_initial_written_once(self):
        cfg = BatchConfig()
        state = BatchState()
        adapt_batch_size(3.0, 1.0, 3, cfg, state)
        frozen = state.zeta_initial
        for c in (2.5, 2.0, 1.5, 1.2):
            adapt_batch_size(c, 1.0, 3, cfg, state)
            assert state.zeta_initial == frozen

    def test_fixed_batch(self):
        # an equal m_min and m_max is a fixed batch, before and after a solution
        for m in (1, 25, 100):
            cfg = BatchConfig(m, m)
            state = BatchState()
            assert cfg.m_default == m
            for c in (3.0, 2.0, 1.5, 1.01):
                assert adapt_batch_size(c, 1.0, 4, cfg, state) == m

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        cfg = BatchConfig()
        state = BatchState()
        c_min = float(rng.uniform(0.5, 1.5))
        costs = np.sort(rng.uniform(c_min * 1.0001, c_min * 4.0, 8))[::-1]
        last = None
        for c in costs:
            b = adapt_batch_size(float(c), c_min, n, cfg, state)
            assert cfg.m_min <= b <= cfg.m_max
            if last is not None:
                assert b <= last
            last = b


class TestBernoulli:
    def test_b0(self):
        assert bernoulli_number(0) == 1.0

    def test_b2(self):
        assert bernoulli_number(2) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_b4(self):
        assert bernoulli_number(4) == pytest.approx(-1.0 / 30.0, rel=1e-14)

    def test_oracle_recurrence(self):
        for two_i in (2, 4, 6, 8, 10, 12):
            want = float(bernoulli_at(two_i))
            assert bernoulli_number(two_i) == pytest.approx(want, rel=1e-12)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(3)


class TestTanhTaylorCharge:
    def test_midpoint(self):
        assert tanh_taylor_charge(0.0, 0.1, 1.9, 100) == pytest.approx(1.0, abs=1e-15)

    def test_positive_x(self):
        want = 1.0 - 0.9 * math.tanh(1.0)
        assert tanh_taylor_charge(1.0, 0.1, 1.9, 100) == pytest.approx(want, abs=1e-6)

    def test_negative_x_symmetry(self):
        want = 1.0 + 0.9 * math.tanh(1.0)
        assert tanh_taylor_charge(-1.0, 0.1, 1.9, 100) == pytest.approx(want, abs=1e-6)

    def test_series_agreement_alpha100(self):
        xs = np.linspace(-1.4, 1.4, 1000)
        errs = [
            abs(
                tanh_taylor_charge(x, 0.1, 1.9, 100)
                - (1.0 - 0.9 * math.tanh(x))
            )
            for x in xs
        ]
        assert max(errs) <= 1e-6

    def test_series_agreement_alpha10(self):
        xs = np.linspace(-1.0, 1.0, 1000)
        errs = [
            abs(tanh_taylor_charge(x, 0.1, 1.9, 10) - (1.0 - 0.9 * math.tanh(x)))
            for x in xs
        ]
        assert max(errs) <= 1e-3

    def test_argument_clamped(self):
        assert tanh_taylor_charge(3.0, 0.1, 1.9, 100) == tanh_taylor_charge(
            1.4, 0.1, 1.9, 100
        )

    def test_result_bounds(self):
        for x in np.linspace(-5, 5, 101):
            q = tanh_taylor_charge(float(x), 0.1, 1.9, 100)
            assert 0.1 <= q <= 1.9


class TestVertexCharge:
    BATCH = BatchConfig(m_min=1, m_max=199)

    def test_midpoint(self):
        cfg = ChargeConfig()
        assert vertex_charge(100, cfg, self.BATCH) == pytest.approx(1.0, abs=1e-12)

    def test_dense_batch_small_charge(self):
        cfg = ChargeConfig()
        q = vertex_charge(199, cfg, self.BATCH)
        assert 0.10 <= q <= 0.11

    def test_sparse_batch_large_charge(self):
        cfg = ChargeConfig()
        q = vertex_charge(1, cfg, self.BATCH)
        assert 1.89 <= q <= 1.90

    def test_out_of_range_warns_and_clamps(self):
        cfg = ChargeConfig()
        with pytest.warns(UserWarning):
            q = vertex_charge(500, cfg, self.BATCH)
        assert q == vertex_charge(199, cfg, self.BATCH)

    def test_bounds_all_schedules(self):
        for schedule in (
            "tanh_closed",
            "tanh_taylor",
            "exponential",
            "polynomial",
            "logarithmic",
            "iteration",
        ):
            cfg = ChargeConfig(schedule=schedule)
            for b in range(1, 200, 7):
                q = vertex_charge(b, cfg, self.BATCH)
                assert cfg.q_min <= q <= cfg.q_max, (schedule, b)

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_fixed_batch_takes_the_charge_of_m_default(self, schedule):
        # an empty range puts the batch at u = 1/2, where m_default sits in
        # the default range
        cfg = ChargeConfig(schedule=schedule)
        want = vertex_charge(100, cfg, self.BATCH)
        for m in (1, 25, 100, 250):
            assert vertex_charge(m, cfg, BatchConfig(m, m)) == want

    def test_taylor_matches_closed_inside_clamp(self):
        closed = ChargeConfig(schedule="tanh_closed")
        taylor = ChargeConfig(schedule="tanh_taylor")
        # batches whose biased argument stays inside the clamp window
        for b in range(85, 116):
            assert vertex_charge(b, taylor, self.BATCH) == pytest.approx(
                vertex_charge(b, closed, self.BATCH), abs=1e-6
            )


class TestAlternateSchedules:
    def test_endpoint_qmax(self):
        for schedule in ("exponential", "polynomial", "logarithmic", "iteration"):
            cfg = ChargeConfig(schedule=schedule)
            # u=0 maps through x = epsilon * beta
            x0 = cfg.epsilon * cfg.beta
            assert alternate_charge_schedule(x0, cfg) == pytest.approx(1.9, abs=1e-12)

    def test_exponential_at_one(self):
        cfg = ChargeConfig(schedule="exponential")
        x1 = cfg.epsilon * (1.0 + cfg.beta)
        assert alternate_charge_schedule(x1, cfg) == pytest.approx(
            0.1 + 1.8 * math.exp(-5.0), abs=1e-12
        )

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(13)
        for schedule in ("exponential", "polynomial", "logarithmic", "iteration"):
            cfg = ChargeConfig(schedule=schedule)
            for _ in range(1000):
                u1, u2 = np.sort(rng.uniform(0.0, 1.0, 2))
                x1 = cfg.epsilon * (u1 + cfg.beta)
                x2 = cfg.epsilon * (u2 + cfg.beta)
                assert alternate_charge_schedule(x2, cfg) <= alternate_charge_schedule(
                    x1, cfg
                ) + 1e-12

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfig(schedule="mystery")


class TestConfigs:
    def test_batch_config_validation(self):
        # an equal pair is a fixed batch
        assert BatchConfig(m_min=5, m_max=5).m_default == 5
        with pytest.raises(ValueError, match="m_min <= m_max"):
            BatchConfig(m_min=6, m_max=5)
        with pytest.raises(ValueError):
            BatchConfig(m_min=0, m_max=10)

    def test_batch_defaults(self):
        cfg = BatchConfig()
        assert cfg.m_min == 1
        assert cfg.m_max == 199
        assert cfg.m_default == 100

    def test_tau(self):
        assert BatchConfig(m_min=1, m_max=199).tau(4) == 50.0

    def test_schedule_takes_its_dimension_per_call(self):
        # the dimension is an argument of adapt_batch_size, not a setting
        assert [f.name for f in fields(BatchConfig)] == ["m_min", "m_max"]
        assert [f.name for f in fields(BatchState)] == ["zeta_initial"]
        with pytest.raises(TypeError, match="n_dim"):
            BatchConfig(n_dim=4)

    def test_charge_config_validation(self):
        with pytest.raises(ValueError):
            ChargeConfig(q_min=2.0, q_max=1.0)
        with pytest.raises(ValueError):
            ChargeConfig(alpha=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("q_max", math.inf),
            ("q_max", math.nan),
            ("q_min", math.nan),
            ("epsilon", math.nan),
            ("epsilon", math.inf),
            # the alternate schedules divide by epsilon
            ("epsilon", 0.0),
            ("epsilon", False),
            ("beta", math.nan),
            ("beta", -math.inf),
            ("alpha", 2.5),
            ("alpha", 100.0),
            ("alpha", True),
        ],
    )
    def test_charge_config_rejects_nonfinite_or_fractional(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChargeConfig(**{field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [{"m_max": 199.5}, {"m_max": 199.0}, {"m_min": 1.0}, {"m_min": math.nan},
         {"m_max": math.inf}, {"m_min": True}],
    )
    def test_batch_config_rejects_non_integer_sizes(self, kwargs):
        with pytest.raises(ValueError, match="m_min and m_max must be integers"):
            BatchConfig(**kwargs)

    def test_integer_configs_accepted(self):
        assert BatchConfig(m_min=np.int64(2), m_max=50).m_default == 26
        assert ChargeConfig(alpha=np.int32(10), epsilon=-3.0, beta=0.0).alpha == 10
