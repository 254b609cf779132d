"""Tests for the scalar replay oracle, its fixtures, and kernel/oracle agreement."""

import hashlib
import itertools
import re
import warnings
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trajectories import by_step

from adaplus.cli import _selftest_streams, main
from adaplus.errors import DimensionMismatch, NonFiniteValue, OptimizerError
from adaplus.kernels import (
    KERNEL_IDS,
    KERNEL_STEPS,
    REDUCTIONS,
    SCALAR_MAX,
    HyperParams,
    OptimizerState,
    ParamVector,
    drive_stream,
)
from adaplus.oracle import _REPLAYS, MAX_DIM, _pack, replay
from adaplus.transcript import ALL_FIELDS, FIELD_ORDER, StepTranscript, scaled_deviation

FIXTURES = Path(__file__).parent / "fixtures"

# SHA-256 of every step (``t`` as an int64, then the bytes of the
# trajectory's ``[t - 1]``, its nine fields in order) that ``replay`` gives
# for the selftest's 48 streams, kernel by kernel
ORACLE_SHA256 = "3f0589ef9ba6de40251a43e46db9a43375d38a89ab9b2dddbd7720116a8f60b7"
# the same digest of the trajectories ``drive_stream`` gives for those streams
KERNEL_SHA256 = "d3bfff13a39c402ddcd92a9d298161260e0f7feaf1143bd4ff766bafed0f318e"
# SHA-256 of the stdout of ``adaplus-bench selftest``
SELFTEST_STDOUT_SHA256 = "cbedf4b48dd4d98a20dc83c1e41a7ee2c4c96dfd93957ecc6431c6c54650f95c"

getcontext().prec = 50


def parse_transcripts(text: str) -> list[StepTranscript]:
    """Parse the fixture format into transcripts, step ``t`` at index ``t - 1``.

    One record per parameter element per step::

        t idx g m s mbar mhat shat dtheta theta

    The steps must run 1..n, as a transcript's step is its position.  The
    format does not carry the decay column; parsed transcripts get an
    all-zero ``decay_applied`` row.
    """
    per_step: dict[int, list[list[float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2 + len(FIELD_ORDER):
            raise ValueError(f"fixture line {lineno}: expected {2 + len(FIELD_ORDER)} columns, got {len(tokens)}")
        t, idx = int(tokens[0]), int(tokens[1])
        rows = per_step.setdefault(t, [])
        if idx != len(rows):
            raise ValueError(f"fixture line {lineno}: element index {idx} out of order")
        rows.append([float(tok) for tok in tokens[2:]])

    if sorted(per_step) != list(range(1, len(per_step) + 1)):
        raise ValueError(f"fixture steps {sorted(per_step)} do not run 1..{len(per_step)}")
    transcripts = []
    for t in sorted(per_step):
        cols = np.array(per_step[t], dtype=np.float64)
        # the columns in FIELD_ORDER become their rows of a block, decay_applied's left zero
        block = np.zeros((len(ALL_FIELDS), cols.shape[0]))
        block[[ALL_FIELDS.index(name) for name in FIELD_ORDER]] = cols.T
        tr = StepTranscript(block)
        if not np.isfinite(tr.theta_after).all():
            raise ValueError(f"fixture step {t}: non-finite theta")
        transcripts.append(tr)
    return transcripts


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
        for a, b in zip(by_step(got), fixture):
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
        for a, b in zip(by_step(got), fixture):
            for field in FIELD_ORDER:
                np.testing.assert_allclose(
                    getattr(a, field), getattr(b, field), rtol=1e-12, atol=0, err_msg=field
                )


class TestReplayBasics:
    def test_zero_gradient_trivial_transcript(self):
        (tr,) = by_step(replay("adaplus", [[0.0]], [1.0], HyperParams(weight_decay=0.0), [1e-3]))
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
        assert np.array_equal(adam, adamw)

    @pytest.mark.parametrize("label, left, right", REDUCTIONS, ids=[label for label, _, _ in REDUCTIONS])
    def test_replays_hold_each_reduction_bit_for_bit(self, label, left, right):
        # the six restatements agree exactly where the kernels do.  At beta1 = 0.999 every step's
        # t * (1 - beta1) lies in [1e-3, 0.3], where the bias correction is 1 - beta1**t: a replay
        # that took it another way would round some m_hat differently from its partner
        rng = np.random.default_rng(43)
        stream, theta0, lrs = [rng.standard_normal(8) for _ in range(300)], rng.standard_normal(8), [1e-3] * 300
        left_run, right_run = (replay(kernel, stream, theta0, HyperParams(beta1=0.999, **overrides), lrs)
                               for kernel, overrides in (left, right))
        assert np.array_equal(left_run, right_run), label

    def test_replay_is_pure(self):
        rng = np.random.default_rng(42)
        stream = [rng.standard_normal(2) for _ in range(20)]
        theta0 = rng.standard_normal(2)
        hp = HyperParams()
        for kernel in KERNEL_IDS:
            first = replay(kernel, stream, theta0, hp, [1e-3] * 20)
            second = replay(kernel, stream, theta0, hp, [1e-3] * 20)
            assert np.array_equal(first, second)

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

    def test_theta0_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^parameter vector must be a non-empty 1-D array$"):
            replay("adam", [[1.0]], [[0.0]], HyperParams(), [1e-3])

    def test_dim_cap(self):
        dim = MAX_DIM + 1
        with pytest.raises(ValueError, match="dim"):
            replay("adam", [np.ones(dim)], np.zeros(dim), HyperParams(), [1e-3])

    def test_dim_cap_is_the_documented_64(self):
        # the README promises oracle runs of up to 64 elements: 64 replays, 65 is refused by name
        assert replay("adam", [np.ones(64)], np.zeros(64), HyperParams(), [1e-3]).shape == (1, 9, 64)
        with pytest.raises(ValueError, match="^replay supports dim <= 64, got 65$"):
            replay("adam", [np.ones(65)], np.zeros(65), HyperParams(), [1e-3])

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

    @pytest.mark.parametrize("bad", ["0.1", 10**400, True, None], ids=["str", "int-beyond-float", "bool", "None"])
    def test_rate_that_is_no_positive_real_is_named_by_step(self, bad):
        # '0.1' and 10**400 raised TypeError from np.isfinite, and True replayed at rate 1.0
        message = f"^lr at step 1 must be a positive finite real, got {re.escape(repr(bad)[:80])}$"
        with pytest.raises(ValueError, match=message):
            replay("adam", [[1.0]] * 3, [0.0], HyperParams(), [bad] * 3)

    @pytest.mark.parametrize("bad", [0.0, np.nan, "0.1", True], ids=["zero", "nan", "str", "bool"])
    def test_a_bad_last_rate_of_sixty_is_named_by_its_step(self, bad):
        # the rates are read under one name; only a refused one is read again under its step's name
        message = f"^lr at step 60 must be a positive finite real, got {re.escape(repr(bad))}$"
        for run in (replay, drive_stream):
            with pytest.raises(ValueError, match=message):
                run("adam", [[1.0]] * 60, [0.0], HyperParams(), [1e-3] * 59 + [bad])

    def test_rates_of_any_real_type_are_accepted(self):
        stream = [[0.5, -0.5]] * 3
        want = replay("adam", stream, [0.0, 0.0], HyperParams(), [1.0, 2.0, 1.0])
        for lrs in ([1, 2, 1], [np.float32(1), 2, np.int64(1)], np.array([1.0, 2.0, 1.0])):
            assert np.array_equal(replay("adam", stream, [0.0, 0.0], HyperParams(), lrs), want)

    def test_a_bool_among_float_rates_is_refused_by_both_sides(self):
        # each rate is read alone, as a step reads its lr_t: a bool is no rate, whatever its neighbours
        args = ("adam", [[0.5, -0.5]] * 3, [0.0, 0.0], HyperParams(), [0.1, True, 0.1])
        for run in (replay, drive_stream):
            with pytest.raises(ValueError, match="^lr at step 2 must be a positive finite real, got True$"):
                run(*args)

    def test_non_finite_intermediate_reports_stage(self):
        # a gradient of 1e200 overflows the squared-gradient EMA
        with pytest.raises(NonFiniteValue) as exc:
            replay("adam", [[1e200]], [0.0], HyperParams(), [1e-3])
        assert exc.value.stage == "second_moment"
        assert exc.value.step == 1

    @pytest.mark.parametrize("kernel", ["adaplus", "adam"])
    def test_first_failing_step_is_named_when_later_steps_fail_too(self, kernel):
        # step 1 overflows the second moment at element 1, step 2 at element 0
        stream = [[1.0, 1e200], [1e200, 1.0], [1e300, 1e300]]
        with pytest.raises(NonFiniteValue) as exc:
            replay(kernel, stream, [0.0, 0.0], HyperParams(), [1e-3] * 3)
        assert (exc.value.stage, exc.value.step, exc.value.index) == ("second_moment", 1, 1)

    def test_zero_denominator_raises_only_the_structured_error(self):
        # with eps = 0 a zero gradient gives 0/0 in the update; numpy must
        # not warn about it before the NonFiniteValue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as exc:
                replay("adaplus", [[1e-300, 0.0]] * 3, [0.5, 0.5], HyperParams(eps=0.0), [1e-3] * 3)
        assert exc.value.stage == "delta_theta"
        assert exc.value.step == 1


def outcome(run, kernel, stream, theta0, lrs):
    """What ``run`` does with a run's arguments: the type and text of its error, or None."""
    try:
        run(kernel, stream, theta0, HyperParams(), lrs)
    except (ValueError, OptimizerError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def corrupted_runs(draw):
    """A small run whose arguments are corrupted in at most one place, at one step."""
    kernel = draw(st.sampled_from(KERNEL_IDS))
    dim, steps = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    vector = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    stream = [draw(vector) for _ in range(steps)]
    theta0 = draw(vector)
    lrs = draw(st.lists(st.floats(1e-4, 1.0), min_size=steps, max_size=steps))
    k, i = draw(st.integers(0, steps - 1)), draw(st.integers(0, dim - 1))
    non_finite = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    where = draw(st.sampled_from(["nothing", "theta0", "row length", "row element", "rate"]))
    if where == "theta0":
        theta0 = draw(st.sampled_from([theta0[:i] + [non_finite] + theta0[i + 1:], [theta0], []]))
    elif where == "row length":
        stream[k] = draw(st.sampled_from([stream[k][:-1], stream[k] + [0.0]]))
    elif where == "row element":
        stream[k][i] = non_finite
    elif where == "rate":
        lrs[k] = draw(st.sampled_from([0.0, -1e-3, np.nan, np.inf, True, "0.1", None, 10**400]))
    return kernel, stream, theta0, lrs


class TestRefusalParity:
    """``drive_stream`` and ``replay`` read their arguments with one reader: an
    input refused by one is refused by the other, with the same error."""

    CASES = {
        "theta0-inf": ("adam", [[1.0]], [np.inf], [1e-3]),
        "theta0-2d": ("adam", [[1.0]], [[0.0]], [1e-3]),
        "short-row-at-step-2": ("adam", [[1.0, 1.0], [1.0]], [0.0, 0.0], [1e-3, 1e-3]),
        "nan-gradient-and-bool-rate": ("adam", [[np.nan]], [0.0], [True]),
        "theta0-inf-and-long-row": ("adam", [[1.0, 1.0]], [np.inf], [1e-3]),
        "negative-rate-then-nan-gradient": ("adam", [[1.0], [np.nan]], [0.0], [-1.0, 1e-3]),
        "bool-among-float-rates": ("adam", [[0.5, -0.5]] * 3, [0.0, 0.0], [0.1, True, 0.1]),
        "empty-stream": ("adam", [], [0.0], []),
        "length-mismatch": ("adam", [[1.0], [1.0]], [0.0], [1e-3]),
        "unknown-kernel": ("lion", [[1.0]], [0.0], [1e-3]),
    }

    @pytest.mark.parametrize("args", CASES.values(), ids=CASES)
    def test_both_sides_raise_the_same_error(self, args):
        refused = outcome(drive_stream, *args)
        assert refused is not None
        assert outcome(replay, *args) == refused

    @pytest.mark.parametrize("kernel", [k for k in KERNEL_IDS if k != "sgdm"])
    def test_overflowing_s_hat_is_refused_by_both_sides(self, kernel):
        # the second moment is finite at about 3e305; s_hat, that over 1 - b2, is not
        args = (kernel, [[2e154]], [1.0], [1e-3])
        want = (NonFiniteValue, "non-finite value in s_hat at step 1, element 0")
        assert outcome(drive_stream, *args) == outcome(replay, *args) == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(run=corrupted_runs())
    def test_a_corrupted_run_is_refused_alike(self, run):
        assert outcome(drive_stream, *run) == outcome(replay, *run)


class TestPack:
    """A trajectory's extended-precision rows become float64 in one cast, element for element as ``float``."""

    # positional field order of StepTranscript, the order of the nine values in each row _pack takes
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

    @staticmethod
    def rows(trajectory):
        """Each step's nine columns as _pack takes them: one row per element."""
        return [list(zip(*cols)) for cols in trajectory]

    def test_same_bits_as_float_element_by_element(self):
        rng = np.random.default_rng(21)
        assert set(self.COLUMNS) == set(ALL_FIELDS)
        for dim in (1, 6, 64):
            cols = [self.columns(rng, dim) for _ in range(5)]
            trajectory = _pack(self.rows(cols))
            assert trajectory.shape == (5, 9, dim) and trajectory.flags.c_contiguous
            for t, (tr, step) in enumerate(zip(by_step(trajectory), cols), start=1):
                for name, col in zip(self.COLUMNS, step):
                    want = np.array([float(x) for x in col])
                    assert getattr(tr, name).tobytes() == want.tobytes(), (t, name)

    def test_beyond_float64_range_raises_at_the_earliest_stage(self):
        rng = np.random.default_rng(22)
        cols = [self.columns(rng, 6) for _ in range(3)]
        cols[2][self.COLUMNS.index("theta_after")][0] = np.longdouble("1e400")
        cols[2][self.COLUMNS.index("m_hat")][4] = np.longdouble("-1e400")
        cols[2][self.COLUMNS.index("m_hat")][5] = np.longdouble("1e400")
        # replay runs _pack with overflow warnings off
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue) as exc:
            _pack(self.rows(cols))
        assert (exc.value.stage, exc.value.index, exc.value.step) == ("m_hat", 4, 3)

    def test_nan_raises_at_its_stage(self):
        rng = np.random.default_rng(23)
        cols = [self.columns(rng, 3) for _ in range(7)]
        cols[6][self.COLUMNS.index("delta_theta")][2] = np.longdouble("nan")
        with pytest.raises(NonFiniteValue) as exc:
            _pack(self.rows(cols))
        assert (exc.value.stage, exc.value.index, exc.value.step) == ("delta_theta", 2, 7)

    def test_overflow_in_decay_alone_is_not_a_stage(self):
        # decay_applied is not in FIELD_ORDER: it is carried, not reported
        rng = np.random.default_rng(24)
        cols = [self.columns(rng, 2)]
        cols[0][self.COLUMNS.index("decay_applied")][1] = np.longdouble("1e400")
        with np.errstate(over="ignore"):
            (tr,) = by_step(_pack(self.rows(cols)))
        assert tr.decay_applied[1] == np.inf

    def test_first_failing_step_is_named_not_a_later_earlier_stage(self):
        # step 1 overflows only in decay_applied; steps 2 and 3 both hold
        # non-finite stages, and step 3's is the earlier stage and index
        rng = np.random.default_rng(25)
        cols = [self.columns(rng, 4) for _ in range(3)]
        cols[0][self.COLUMNS.index("decay_applied")][0] = np.longdouble("1e400")
        cols[1][self.COLUMNS.index("theta_after")][3] = np.longdouble("nan")
        cols[1][self.COLUMNS.index("delta_theta")][2] = np.longdouble("-1e400")
        cols[2][self.COLUMNS.index("g")][0] = np.longdouble("inf")
        cols[2][self.COLUMNS.index("m")][1] = np.longdouble("nan")
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue) as exc:
            _pack(self.rows(cols))
        assert (exc.value.stage, exc.value.index, exc.value.step) == ("delta_theta", 2, 2)


def selftest_digest(run):
    """The SHA-256 of every step ``run`` gives on the selftest's 48 streams, and the count of steps."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(20240901)  # the selftest's seed
    count = 0
    for kernel in KERNEL_IDS:
        for stream, theta0, lrs in _selftest_streams(rng):
            for t, fields in enumerate(run(kernel, stream, theta0, HyperParams(), lrs), start=1):
                digest.update(np.int64(t).tobytes())
                digest.update(fields.tobytes())
                count += 1
    return digest.hexdigest(), count


X87 = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="the digest is of x87 80-bit extended precision"
)


class TestOracleBits:
    @X87
    def test_selftest_transcripts_match_pinned_digest(self):
        """Every bit the oracle gives on the selftest's streams, for all six kernels.

        The digest holds where ``np.longdouble`` is x87 extended precision
        (a 63-bit mantissa, as on x86-64 Linux).  Elsewhere ``longdouble`` is
        float64 or IEEE quad precision, the replay's intermediates round
        differently, and some transcript bits differ by design.
        """
        assert selftest_digest(replay) == (ORACLE_SHA256, 3765)

    def test_selftest_kernel_trajectories_match_pinned_digest(self):
        # every bit of every kernel's transcripts on the selftest's streams,
        # whichever core steps them
        assert selftest_digest(drive_stream) == (KERNEL_SHA256, 3765)

    @X87
    def test_selftest_stdout_matches_pinned_digest(self, capsys):
        # the printed worst deviations read the oracle's bits, as above
        assert main(["selftest"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SELFTEST_STDOUT_SHA256


class TestFixtureFormat:
    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="columns"):
            parse_transcripts("1 0 1.0 2.0\n")

    def test_rejects_out_of_order_elements(self):
        good = "1 0 " + " ".join(["0.5"] * 8)
        bad = "1 2 " + " ".join(["0.5"] * 8)
        with pytest.raises(ValueError, match="out of order"):
            parse_transcripts(good + "\n" + bad + "\n")

    def test_rejects_non_finite_theta(self):
        line = "1 0 " + " ".join(["0.5"] * 7) + " nan"
        with pytest.raises(ValueError, match="fixture step 1: non-finite theta"):
            parse_transcripts(line + "\n")

    @pytest.mark.parametrize("steps", [(1, 3), (2,), (0, 1)], ids=["gap", "no-first", "zero"])
    def test_rejects_steps_that_do_not_run_from_one(self, steps):
        text = "".join(f"{t} 0 " + " ".join(["0.5"] * 8) + "\n" for t in steps)
        with pytest.raises(ValueError, match="do not run 1"):
            parse_transcripts(text)

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

    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_ufunc_core_matches_oracle(self, kernel):
        # every transcript steps in Python floats, so drive_stream never runs
        # the ufunc core: a lean step above SCALAR_MAX sweeps it, and after
        # each step its parameters and moments are read against the oracle's
        rng = np.random.default_rng(110 + KERNEL_IDS.index(kernel))
        dim = int(rng.integers(SCALAR_MAX + 1, MAX_DIM + 1))
        steps = int(rng.integers(50, 150))
        stream = rng.standard_normal((steps, dim)) * rng.uniform(0.2, 2.0)
        theta0 = rng.standard_normal(dim)
        lrs = list(rng.uniform(1e-4, 1e-2, size=steps))
        params = ParamVector(theta0)
        state = OptimizerState(dim)
        got = []
        for g, lr in zip(stream, lrs):
            assert KERNEL_STEPS[kernel](state, params, g, HyperParams(), lr) is None
            got.append((params.values.copy(), state.m.copy(), state.second_moment.copy()))
        rows = [ALL_FIELDS.index(f) for f in ("theta_after", "m", "second_moment")]
        want = replay(kernel, stream, theta0, HyperParams(), lrs)[:, rows]
        assert scaled_deviation(np.array(got), want) <= 1e-12, (kernel, dim)

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

    def test_betas_at_zero_and_near_one_match_oracle(self):
        rng = np.random.default_rng(102)

        def check(hp, steps):
            for kernel in KERNEL_IDS:
                dim = int(rng.integers(1, 9))
                stream = rng.standard_normal((steps, dim))
                theta0 = rng.standard_normal(dim)
                lrs = list(rng.uniform(1e-4, 1e-2, size=steps))
                got = drive_stream(kernel, stream, theta0, hp, lrs)
                want = replay(kernel, stream, theta0, hp, lrs)
                assert scaled_deviation(got, want) <= 1e-12, (kernel, hp.beta1, hp.beta2, steps)

        betas = (0.0, 0.5, 0.9, 0.999, 1.0 - 1e-4)
        for beta1, beta2 in itertools.product(betas, repeat=2):
            check(HyperParams(beta1=beta1, beta2=beta2), 80)
        # nearer 1 the bias correction 1 - b^t stays small against the
        # rounding of b^t for hundreds of steps; each beta is varied alone
        for beta in (1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            check(HyperParams(beta1=beta), 400)
            check(HyperParams(beta2=beta), 400)

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


# Any beta, for the properties that hold bit for bit
BETAS = st.sampled_from([0.0, 1.0 - 1e-12]) | st.floats(0.0, 1.0, exclude_max=True)
# Betas where the kernels agree with ``replay`` within 1e-12 (the oracle module
# docstring gives the bound's domain): 0, and 0.01 up to the largest float
# below 1, log-uniform in 1 - beta; not in (0, 0.01), where the belief
# residual ``g - m`` loses digits to cancellation at every step
BOUND_BETAS = st.just(0.0) | st.floats(-16.0, 0.0).map(lambda e: 1.0 - 0.99 * 10.0**e)


@st.composite
def hyper_params(draw, betas, toggles=True):
    """The float fields of a ``HyperParams``, and its three toggles unless ``toggles`` is false."""
    fields = {
        "beta1": draw(betas),
        "beta2": draw(betas),
        "eps": draw(st.sampled_from([0.0, 1e-300, 1e-8])),
        # a smaller decay can make lr * wd * theta subnormal in float64 alone
        "weight_decay": draw(st.just(0.0) | st.floats(1e-6, 0.1)),
    }
    if toggles:
        for field in ("use_nesterov", "use_belief", "decoupled_decay"):
            fields[field] = draw(st.booleans())
    return fields


@st.composite
def oracle_runs(draw):
    """A kernel and hyper-parameters inside the 1e-12 bound's domain, and a drawn run."""
    kernel, hp = draw(st.sampled_from(KERNEL_IDS)), draw(hyper_params(BOUND_BETAS))
    if kernel == "adabelief" or kernel == "adaplus" and hp["use_belief"]:
        # at beta2 = 0 the belief denominator is this step's |g - m| alone,
        # and a g near m leaves it little but the rounding of m
        hp["beta2"] = draw(BOUND_BETAS.filter(bool))
    stream, theta0, lrs = draw(streams())
    return kernel, stream, theta0, HyperParams(**hp), lrs


@st.composite
def streams(draw):
    """``(stream, theta0, lrs)`` from a drawn seed: a normal stream at one drawn magnitude, some
    of whose columns may be zero (with ``eps = 0``, a 0/0), perhaps one non-finite element, and
    rates mixing ``float``, ``np.float64`` and ``int``, perhaps with one ``bool``.

    The magnitude keeps ``(1 - b2) * g**2`` inside float64's normal range for every beta drawn,
    where the oracle's 80-bit arithmetic neither overflows nor underflows where float64 does.
    """
    dim, steps = draw(st.integers(1, 64)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # half the magnitudes are 1, where eps = 1e-8 is not lost in the denominator
    stream = rng.standard_normal((steps, dim)) * 10.0 ** draw(st.just(0) | st.integers(-120, 140))
    stream[:, draw(st.lists(st.integers(0, dim - 1), max_size=2))] = 0.0
    rates = rng.uniform(1e-4, 1.0, steps)
    lrs = [(float, np.float64, lambda r: 1 + int(2 * r))[kind](r) for kind, r in zip(rng.integers(0, 3, steps), rates)]
    k, i = rng.integers(steps), rng.integers(dim)
    where = draw(st.sampled_from(["nothing"] * 4 + ["element", "rate"]))
    if where == "element":
        stream[k, i] = rng.choice([np.nan, np.inf, -np.inf])
    elif where == "rate":
        lrs[k] = bool(rng.integers(2))
    return stream, rng.standard_normal(dim), lrs


def differential_outcome(run, kernel, stream, theta0, hp, lrs):
    """A run's trajectory, or what stopped it: a ``NonFiniteValue``'s (stage, step, index) or a
    ``ValueError``'s text."""
    try:
        return run(kernel, stream, theta0, hp, lrs)
    except NonFiniteValue as exc:
        return exc.stage, exc.step, exc.index
    except ValueError as exc:
        return str(exc)


class TestKernelOracleProperties:
    """The kernels against ``replay`` on drawn runs, each property at most 100 examples."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(run=oracle_runs())
    def test_kernel_agrees_with_oracle_or_both_raise_alike(self, run):
        got, want = differential_outcome(drive_stream, *run), differential_outcome(replay, *run)
        assert type(got) is type(want), (got, want)
        if isinstance(want, np.ndarray):
            assert scaled_deviation(got, want) <= 1e-12
        else:
            assert got == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kernel=st.sampled_from(KERNEL_IDS), hp=hyper_params(BETAS), run=streams(), transcript=st.booleans())
    def test_a_raising_step_leaves_state_and_params_as_they_were(self, kernel, hp, run, transcript):
        stream, theta0, lrs = run
        step, hp = KERNEL_STEPS[kernel], HyperParams(**hp)
        state, params = OptimizerState(theta0.size), ParamVector(theta0)

        def snapshot():
            return state.t, state.m.tobytes(), state.second_moment.tobytes(), params.values.tobytes()

        for g, lr in zip(stream, lrs):
            before = snapshot()
            try:
                step(state, params, g, hp, lr, transcript=transcript)
            except (ValueError, OptimizerError):
                # the next step starts from the state the raising one found
                assert snapshot() == before

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(hp=hyper_params(BETAS, toggles=False), run=streams())
    def test_reductions_hold_on_drawn_streams(self, hp, run):
        stream, theta0, lrs = run
        for label, *sides in REDUCTIONS:
            got, want = (differential_outcome(drive_stream, kernel, stream, theta0, HyperParams(**{**hp, **overrides}), lrs)
                         for kernel, overrides in sides)
            assert type(got) is type(want), (label, got, want)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), label
            else:
                assert got == want, label
