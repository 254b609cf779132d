"""Tests for the scalar replay oracle, its fixtures, and kernel/oracle agreement."""

import warnings
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest

from adaplus.errors import DimensionMismatch, NonFiniteValue
from adaplus.kernels import KERNEL_IDS, HyperParams, drive_stream
from adaplus.oracle import _REPLAYS, MAX_DIM, _pack, replay
from adaplus.transcript import (
    ALL_FIELDS,
    FIELD_ORDER,
    format_transcripts,
    parse_transcripts,
    scaled_deviation,
)

FIXTURES = Path(__file__).parent / "fixtures"

getcontext().prec = 50


def load_fixture(name):
    return parse_transcripts((FIXTURES / name).read_text())


def decimal_adaplus(theta0, gradients, weight_decay=0.0):
    """Independent recomputation of the full kernel at 50-digit precision.

    Brute-force per-step arithmetic over exact decimal values of the float64
    hyper-parameters; used to pin the fixture files.
    """
    b1, b2, eps, lr = Decimal(0.9), Decimal(0.999), Decimal(1e-8), Decimal(0.001)
    lam = Decimal(weight_decay)
    theta, m, s = Decimal(theta0), Decimal(0), Decimal(0)
    rows = []
    for t, g_raw in enumerate(gradients, start=1):
        g = Decimal(g_raw)
        theta = theta - lr * lam * theta
        m = b1 * m + (1 - b1) * g
        s = b2 * s + (1 - b2) * (g - m) ** 2 + eps
        m_bar = b1 * m + (1 - b1) * g
        m_hat = m_bar / (1 - b1**t)
        s_hat = s / (1 - b2**t)
        delta = -(lr * m_hat) / (s_hat.sqrt() + eps)
        theta = theta + delta
        rows.append([g, m, s, m_bar, m_hat, s_hat, delta, theta])
    return rows


def assert_matches_decimal(transcripts, decimal_rows, rtol):
    for tr, row in zip(transcripts, decimal_rows):
        for field, value in zip(FIELD_ORDER, row):
            np.testing.assert_allclose(
                getattr(tr, field), [float(value)], rtol=rtol, atol=0, err_msg=field
            )


class TestFixtures:
    """Fixture files are pinned by the in-test decimal recomputation."""

    def test_adaplus_first_step_fixture_is_consistent(self):
        fixture = load_fixture("adaplus_first_step.txt")
        assert_matches_decimal(fixture, decimal_adaplus(0.0, [1.0]), rtol=1e-15)

    def test_adaplus_three_step_fixture_is_consistent(self):
        fixture = load_fixture("adaplus_constant_three_steps.txt")
        assert_matches_decimal(fixture, decimal_adaplus(0.0, [1.0, 1.0, 1.0]), rtol=1e-15)

    @pytest.mark.parametrize(
        "name, kernel, theta0, gradient",
        [
            ("adaplus_first_step.txt", "adaplus", 0.0, 1.0),
            ("adaplus_zero_grad.txt", "adaplus", 1.0, 0.0),
            ("adam_first_step.txt", "adam", 0.0, 1.0),
            ("nadam_first_step.txt", "nadam", 0.0, 1.0),
            ("adabelief_first_step.txt", "adabelief", 0.0, 1.0),
        ],
    )
    def test_replay_reproduces_fixture(self, name, kernel, theta0, gradient):
        fixture = load_fixture(name)
        got = replay(kernel, [[gradient]], [theta0], HyperParams(weight_decay=0.0), [1e-3])
        assert len(got) == len(fixture)
        for a, b in zip(got, fixture):
            for field in FIELD_ORDER:
                np.testing.assert_allclose(
                    getattr(a, field), getattr(b, field), rtol=1e-15, atol=0, err_msg=field
                )

    @pytest.mark.parametrize(
        "name, kernel, theta0, gradients",
        [
            ("adaplus_first_step.txt", "adaplus", 0.0, [1.0]),
            ("adaplus_constant_three_steps.txt", "adaplus", 0.0, [1.0, 1.0, 1.0]),
            ("adam_first_step.txt", "adam", 0.0, [1.0]),
            ("nadam_first_step.txt", "nadam", 0.0, [1.0]),
            ("adabelief_first_step.txt", "adabelief", 0.0, [1.0]),
        ],
    )
    def test_kernel_reproduces_fixture(self, name, kernel, theta0, gradients):
        fixture = load_fixture(name)
        hp = HyperParams(weight_decay=0.0)
        got = drive_stream(kernel, [[g] for g in gradients], [theta0], hp, [1e-3] * len(gradients))
        for a, b in zip(got, fixture):
            for field in FIELD_ORDER:
                np.testing.assert_allclose(
                    getattr(a, field), getattr(b, field), rtol=1e-12, atol=0, err_msg=field
                )


class TestReplayBasics:
    def test_zero_gradient_trivial_transcript(self):
        tr = replay("adaplus", [[0.0]], [1.0], HyperParams(weight_decay=0.0), [1e-3])[0]
        np.testing.assert_array_equal(tr.m, [0.0])
        np.testing.assert_array_equal(tr.second_moment, [1e-8])
        np.testing.assert_array_equal(tr.delta_theta, [0.0])

    def test_adam_equals_adamw_without_decay(self):
        rng = np.random.default_rng(41)
        stream = [rng.standard_normal(3) for _ in range(50)]
        theta0 = rng.standard_normal(3)
        lrs = [1e-3] * 50
        adam = replay("adam", stream, theta0, HyperParams(), lrs)
        adamw = replay("adamw", stream, theta0, HyperParams(weight_decay=0.0), lrs)
        for a, b in zip(adam, adamw):
            assert a == b

    def test_replay_is_pure(self):
        rng = np.random.default_rng(42)
        stream = [rng.standard_normal(2) for _ in range(20)]
        theta0 = rng.standard_normal(2)
        hp = HyperParams()
        for kernel in KERNEL_IDS:
            first = replay(kernel, stream, theta0, hp, [1e-3] * 20)
            second = replay(kernel, stream, theta0, hp, [1e-3] * 20)
            for a, b in zip(first, second):
                assert a == b

    def test_replay_does_not_mutate_inputs(self):
        stream = [np.array([1.0, -2.0])]
        theta0 = np.array([0.5, 0.5])
        snapshot_g = stream[0].copy()
        snapshot_t = theta0.copy()
        replay("adaplus", stream, theta0, HyperParams(), [1e-3])
        np.testing.assert_array_equal(stream[0], snapshot_g)
        np.testing.assert_array_equal(theta0, snapshot_t)


class TestReplayValidation:
    def test_replays_cover_the_kernel_table_in_order(self):
        assert tuple(_REPLAYS) == KERNEL_IDS

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            replay("sgd", [[1.0]], [0.0], HyperParams(), [1e-3])

    def test_empty_stream(self):
        with pytest.raises(ValueError, match="non-empty"):
            replay("adam", [], [0.0], HyperParams(), [])

    def test_lr_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            replay("adam", [[1.0], [1.0]], [0.0], HyperParams(), [1e-3])

    def test_dim_cap(self):
        dim = MAX_DIM + 1
        with pytest.raises(ValueError, match="dim"):
            replay("adam", [np.ones(dim)], np.zeros(dim), HyperParams(), [1e-3])

    def test_non_finite_gradient_reports_step_and_index(self):
        with pytest.raises(NonFiniteValue) as exc:
            replay("adam", [[1.0, 1.0], [1.0, np.nan]], [0.0, 0.0], HyperParams(), [1e-3, 1e-3])
        assert exc.value.step == 2
        assert exc.value.index == 1

    @pytest.mark.parametrize("tail", [[], [[1.0]]], ids=["same-length", "short-step-4"])
    def test_first_bad_gradient_is_named_before_any_arithmetic(self, tail):
        # the stage is "gradient", not the transcript's "g": nothing was computed
        stream = [[1.0, 1.0], [1.0, np.inf], [np.nan, 1.0]] + tail
        with pytest.raises(NonFiniteValue) as exc:
            replay("adam", stream, [0.0, 0.0], HyperParams(), [1e-3] * len(stream))
        assert (exc.value.stage, exc.value.step, exc.value.index) == ("gradient", 2, 1)

    def test_wrong_length_before_a_non_finite_gradient_is_named_first(self):
        stream = [[1.0, 1.0], [1.0], [np.nan, 1.0]]
        with pytest.raises(DimensionMismatch, match="step 2"):
            replay("adam", stream, [0.0, 0.0], HyperParams(), [1e-3] * 3)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_first_bad_rate_is_named_by_step(self, bad):
        with pytest.raises(ValueError, match="lr at step 3 must be a positive finite real"):
            replay("adam", [[1.0]] * 4, [0.0], HyperParams(), [1e-3, 1e-3, bad, -1.0])

    def test_rates_of_any_real_type_are_accepted(self):
        stream = [[0.5, -0.5]] * 3
        want = replay("adam", stream, [0.0, 0.0], HyperParams(), [1.0, 2.0, 1.0])
        for lrs in ([1, 2, 1], [np.float32(1), 2, True], np.array([1.0, 2.0, 1.0])):
            assert replay("adam", stream, [0.0, 0.0], HyperParams(), lrs) == want

    def test_non_finite_intermediate_reports_stage(self):
        # a gradient of 1e200 overflows the squared-gradient EMA
        with pytest.raises(NonFiniteValue) as exc:
            replay("adam", [[1e200]], [0.0], HyperParams(), [1e-3])
        assert exc.value.stage == "second_moment"
        assert exc.value.step == 1

    def test_zero_denominator_raises_only_the_structured_error(self):
        # with eps = 0 a zero gradient gives 0/0 in the update; numpy must
        # not warn about it before the NonFiniteValue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                replay("adaplus", [[1e-300, 0.0]] * 3, [0.5, 0.5], HyperParams(eps=0.0), [1e-3] * 3)
        assert exc.value.stage == "delta_theta"
        assert exc.value.step == 1


class TestPack:
    """A step's extended-precision columns become float64 in one cast, element for element as ``float``."""

    # positional field order of StepTranscript, the order _pack takes its columns in
    COLUMNS = ("g", "m", "second_moment", "m_bar", "m_hat", "s_hat", "decay_applied", "delta_theta", "theta_after")

    def columns(self, rng, dim):
        ld = np.longdouble
        cols = []
        for _ in range(9):
            # float64 values with bits below float64 precision added, across the range
            base = rng.standard_normal(dim) * 10.0 ** rng.uniform(-300, 300, size=dim)
            cols.append([ld(b) * (ld(1) + ld(e) * ld(2) ** -60) for b, e in zip(base, rng.standard_normal(dim))])
        specials = [ld(2) ** -1075, ld(2) ** -1074 * ld(1.5), ld(2) ** -1060 / ld(3), ld(-0.0), ld(5e-324), ld(1.7976931348623157e308)]
        n = min(dim, len(specials))
        cols[0][:n] = specials[:n]
        return cols

    def test_same_bits_as_float_element_by_element(self):
        rng = np.random.default_rng(21)
        assert set(self.COLUMNS) == set(ALL_FIELDS)
        for dim in (1, 6, 64):
            cols = self.columns(rng, dim)
            tr = _pack(5, *cols)
            assert tr.t == 5
            for name, col in zip(self.COLUMNS, cols):
                want = np.array([float(x) for x in col])
                assert getattr(tr, name).tobytes() == want.tobytes(), name

    def test_beyond_float64_range_raises_at_the_earliest_stage(self):
        rng = np.random.default_rng(22)
        cols = self.columns(rng, 6)
        cols[self.COLUMNS.index("theta_after")][0] = np.longdouble("1e400")
        cols[self.COLUMNS.index("m_hat")][4] = np.longdouble("-1e400")
        cols[self.COLUMNS.index("m_hat")][5] = np.longdouble("1e400")
        # replay runs _pack with overflow warnings off
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue) as exc:
            _pack(3, *cols)
        assert (exc.value.stage, exc.value.index, exc.value.step) == ("m_hat", 4, 3)

    def test_nan_raises_at_its_stage(self):
        rng = np.random.default_rng(23)
        cols = self.columns(rng, 3)
        cols[self.COLUMNS.index("delta_theta")][2] = np.longdouble("nan")
        with pytest.raises(NonFiniteValue) as exc:
            _pack(7, *cols)
        assert (exc.value.stage, exc.value.index, exc.value.step) == ("delta_theta", 2, 7)

    def test_overflow_in_decay_alone_is_not_a_stage(self):
        # decay_applied is not in FIELD_ORDER: it is carried, not reported
        rng = np.random.default_rng(24)
        cols = self.columns(rng, 2)
        cols[self.COLUMNS.index("decay_applied")][1] = np.longdouble("1e400")
        with np.errstate(over="ignore"):
            tr = _pack(1, *cols)
        assert tr.decay_applied[1] == np.inf


class TestFixtureFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        stream = [rng.standard_normal(3) for _ in range(4)]
        transcripts = replay("adaplus", stream, rng.standard_normal(3), HyperParams(), [1e-3] * 4)
        parsed = parse_transcripts(format_transcripts(transcripts))
        assert len(parsed) == len(transcripts)
        for a, b in zip(transcripts, parsed):
            assert a.t == b.t
            for field in FIELD_ORDER:
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="columns"):
            parse_transcripts("1 0 1.0 2.0\n")

    def test_rejects_out_of_order_elements(self):
        good = "1 0 " + " ".join(["0.5"] * 8)
        bad = "1 2 " + " ".join(["0.5"] * 8)
        with pytest.raises(ValueError, match="out of order"):
            parse_transcripts(good + "\n" + bad + "\n")

    def test_skips_comments_and_blanks(self):
        text = "# comment\n\n1 0 " + " ".join(["0.25"] * 8) + "\n"
        parsed = parse_transcripts(text)
        assert len(parsed) == 1


class TestDifferentialAgreement:
    """Vectorized kernels against the scalar oracle on seeded random streams."""

    def test_all_kernels_match_oracle(self):
        rng = np.random.default_rng(99)
        hp = HyperParams()
        for kernel in KERNEL_IDS:
            for _ in range(4):
                dim = int(rng.integers(1, 17))
                steps = int(rng.integers(50, 150))
                stream = [rng.standard_normal(dim) * rng.uniform(0.2, 2.0) for _ in range(steps)]
                theta0 = rng.standard_normal(dim)
                lrs = list(rng.uniform(1e-4, 1e-2, size=steps))
                got = drive_stream(kernel, stream, theta0, hp, lrs)
                want = replay(kernel, stream, theta0, hp, lrs)
                assert scaled_deviation(got, want) <= 1e-12, kernel

    def test_toggled_variants_match_oracle(self):
        rng = np.random.default_rng(100)
        variants = [
            ("adaplus", HyperParams(use_nesterov=False)),
            ("adaplus", HyperParams(use_belief=False)),
            ("adabelief", HyperParams(decoupled_decay=True)),
            ("nadam", HyperParams(use_nesterov=False)),
            ("sgdm", HyperParams(use_nesterov=False)),
            ("sgdm", HyperParams(use_nesterov=True)),
        ]
        for kernel, hp in variants:
            stream = [rng.standard_normal(4) for _ in range(80)]
            theta0 = rng.standard_normal(4)
            lrs = [1e-3] * 80
            got = drive_stream(kernel, stream, theta0, hp, lrs)
            want = replay(kernel, stream, theta0, hp, lrs)
            assert scaled_deviation(got, want) <= 1e-12, (kernel, hp)

    def test_deviation_helper_flags_real_differences(self):
        rng = np.random.default_rng(101)
        stream = [rng.standard_normal(3) for _ in range(30)]
        theta0 = rng.standard_normal(3)
        lrs = [1e-3] * 30
        adam = drive_stream("adam", stream, theta0, HyperParams(), lrs)
        nadam = drive_stream("nadam", stream, theta0, HyperParams(), lrs)
        same = replay("adam", stream, theta0, HyperParams(), lrs)
        assert scaled_deviation(adam, nadam) > 1e-3
        assert scaled_deviation(adam, same) <= 1e-12
