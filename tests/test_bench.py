"""Tests for config parsing, the experiment runner, record emission, compare, and the CLI."""

import hashlib
import inspect
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reads import HP_FIELDS, HYPER_PARAMS, reads

from adaplus import bench, cli
from adaplus.bench import (
    LogRow,
    RunRecord,
    RunSummary,
    build_problem,
    compare,
    config_to_text,
    emit,
    load_record,
    parse_config,
    record_to_csv,
    run,
)
from adaplus.errors import ConfigError
from adaplus.kernels import KERNEL_IDS, OptimizerState
from adaplus.problems import NOISE_KINDS, PROBLEMS, GradientSource, NoiseSpec, Problem, quadratic

QUAD_CONFIG = """
# one-dimensional convex sanity run
problem = quadratic
problem.dim = 1
optimizer = adaplus
epochs = 1
steps_per_epoch = 500
seeds = 1
log_every = 50
"""

LGSC_TEMPLATE = """
problem = large_grad_small_curvature
problem.g_mag = 10.0
problem.curvature = 1e-3
optimizer = {optimizer}
weight_decay = 0.0
epochs = 1
steps_per_epoch = 50
seeds = 1
log_every = 1
theta0 = zeros
"""


LOGISTIC_CONFIG = """
problem = logistic_regression_synthetic
problem.n_samples = 40
problem.dim = 3
problem.margin = 0.5
problem.seed = 5
optimizer = adaplus
epochs = 1
steps_per_epoch = 5
seeds = 1
"""

# numpy's generators refuse each of these seeds once a run starts
NEGATIVE_SEED_CONFIGS = {
    "seeds": QUAD_CONFIG.replace("seeds = 1", "seeds = 2,-1"),
    "noise.seed": QUAD_CONFIG + "noise = gaussian_additive\nnoise.scale = 0.1\nnoise.seed = -3\n",
}

# configs the run rejects before its first step: problem parameters the
# problem's constructor rejects, minibatch noise on a problem without samples,
# numbers that are not finite, a schedule whose rate underflows to 0, values
# out of their key's domain and lines that are not 'key = value'; with the
# error each must report
RUN_REJECTED_CONFIGS = {
    # 711 PiB, beyond any 64-bit address space, so the request fails without
    # touching memory: in the problem (quadratic) or at the start point (rosenbrock)
    "quadratic_too_large_to_allocate": (
        QUAD_CONFIG.replace("problem.dim = 1", "problem.dim = 100000000000000000"), "Unable to allocate",
    ),
    "rosenbrock_too_large_to_allocate": (
        QUAD_CONFIG.replace("problem = quadratic", "problem = rosenbrock")
        .replace("problem.dim = 1", "problem.dim = 100000000000000000"),
        "Unable to allocate",
    ),
    "zero_dim": (QUAD_CONFIG.replace("problem.dim = 1", "problem.dim = 0"), "problem quadratic: dim"),
    "odd_rosenbrock_dim": (
        QUAD_CONFIG.replace("problem = quadratic\nproblem.dim = 1", "problem = rosenbrock\nproblem.dim = 3"),
        "problem rosenbrock: dim",
    ),
    "condition_number_below_1": (
        QUAD_CONFIG + "problem.condition_number = 0.5\n",
        "problem quadratic: condition_number",
    ),
    "negative_problem_seed": (
        LOGISTIC_CONFIG.replace("problem.seed = 5", "problem.seed = -2"),
        "problem logistic_regression_synthetic: seed must be non-negative, got -2",
    ),
    "minibatch_noise_on_quadratic": (
        QUAD_CONFIG + "noise = minibatch_subset\nnoise.scale = 0.5\n",
        "minibatch_subset noise needs a finite-sample problem",
    ),
    "lr_not_a_number": (QUAD_CONFIG + "lr = abc\n", "bad value for 'lr': could not convert string to float: 'abc'"),
    "lr_inf": (QUAD_CONFIG + "lr = inf\n", "bad value for 'lr': expected a finite number, got 'inf'"),
    "lr_overflows": (QUAD_CONFIG + "lr = 1e400\n", "bad value for 'lr': expected a finite number, got '1e400'"),
    "decay_factor_inf": (
        QUAD_CONFIG.replace("epochs = 1", "epochs = 2") + "milestones = 1\ndecay_factor = inf\n",
        "bad value for 'decay_factor': expected a finite number, got 'inf'",
    ),
    "rate_underflows": (
        QUAD_CONFIG.replace("epochs = 1", "epochs = 3") + "milestones = 1,2\ndecay_factor = 1e-200\n",
        "lr = 0.001 with decay_factor = 1e-200 gives the rate 0.0 at epoch 2; it must be positive and finite",
    ),
    "noise_scale_nan": (
        QUAD_CONFIG + "noise = gaussian_additive\nnoise.scale = nan\n",
        "bad value for 'noise.scale': expected a finite number, got 'nan'",
    ),
    "eps_nan": (QUAD_CONFIG + "eps = nan\n", "bad value for 'eps': expected a finite number, got 'nan'"),
    "weight_decay_inf": (
        QUAD_CONFIG + "weight_decay = inf\n",
        "bad value for 'weight_decay': expected a finite number, got 'inf'",
    ),
    "condition_number_nan": (
        QUAD_CONFIG + "problem.condition_number = nan\n",
        "bad value for 'problem.condition_number': expected a finite number, got 'nan'",
    ),
    "use_nesterov_not_a_bool": (
        QUAD_CONFIG + "use_nesterov = yes\n",
        "bad value for 'use_nesterov': expected true or false, got 'yes'",
    ),
    "zero_epochs": (QUAD_CONFIG.replace("epochs = 1", "epochs = 0"), "epochs must be >= 1, got 0"),
    "zero_steps_per_epoch": (
        QUAD_CONFIG.replace("steps_per_epoch = 500", "steps_per_epoch = 0"),
        "steps_per_epoch must be >= 1, got 0",
    ),
    "zero_log_every": (QUAD_CONFIG.replace("log_every = 50", "log_every = 0"), "log_every must be >= 1, got 0"),
    "empty_seeds": (QUAD_CONFIG.replace("seeds = 1", "seeds ="), "seeds must be non-empty"),
    "theta0_ones": (QUAD_CONFIG + "theta0 = ones\n", "theta0 must be one of ('seeded', 'zeros'), got 'ones'"),
    "line_without_equals": (QUAD_CONFIG + "momentum\n", "line 10: expected 'key = value', got 'momentum'"),
    "empty_key": (QUAD_CONFIG + " = 1\n", "line 10: empty key"),
}

# each problem's problem.* keys in order, as key -> (converter, default);
# a default of None marks a required key
PROBLEM_KEYS = {
    "quadratic": {"dim": (int, None), "condition_number": (float, 1.0)},
    "rosenbrock": {"dim": (int, None)},
    "large_grad_small_curvature": {"g_mag": (float, None), "curvature": (float, None)},
    "logistic_regression_synthetic": {
        "n_samples": (int, None),
        "dim": (int, None),
        "margin": (float, None),
        "seed": (int, 0),
    },
}

README = Path(__file__).resolve().parent.parent / "README.md"
CONFIGS = README.parent / "configs"

# momentum at lr = 5 on the unit quadratic grows geometrically: the loss
# overflows at step 200, after three finite log rows
DIVERGING_SGDM_CONFIG = QUAD_CONFIG.replace("optimizer = adaplus", "optimizer = sgdm\nlr = 5")
TWO_SEED_CONFIG = QUAD_CONFIG.replace("seeds = 1", "seeds = 1,2")
RAMP_ADAMW = (CONFIGS / "ramp_adamw.cfg").read_text()
QUAD_ADAPLUS = (CONFIGS / "quadratic_adaplus.cfg").read_text()
# two config texts that differ only in what their run never reads, with the
# hash both now have; at 5,000 steps, any cadence from 5,000 on logs the last step alone
ONE_COMPUTATION = {
    "adamw-toggles": (RAMP_ADAMW + "use_nesterov = false\nuse_belief = false\n", RAMP_ADAMW, "4563858a0bfb"),
    "adamw-decoupled_decay": (RAMP_ADAMW + "decoupled_decay = true\n", RAMP_ADAMW, "4563858a0bfb"),
    "noise-of-scale-0": (QUAD_ADAPLUS + "noise = gaussian_additive\nnoise.scale = 0\n", QUAD_ADAPLUS, "35d54dbc3728"),
    "noise.seed-without-noise": (QUAD_ADAPLUS + "noise.seed = 5\n", QUAD_ADAPLUS, "35d54dbc3728"),
    "log_every-past-the-last-step": (
        QUAD_ADAPLUS.replace("log_every = 100", "log_every = 9000"),
        QUAD_ADAPLUS.replace("log_every = 100", "log_every = 5000"),
        "12dff99f0aeb",
    ),
}
# a quadratic run short enough to run twice per drawn example
SHORT_CONFIG = """
problem = quadratic
problem.dim = 3
optimizer = adaplus
lr = 1e-2
epochs = 1
steps_per_epoch = 6
seeds = 1,2
log_every = 4
"""
# edits of ramp_adamw.cfg's JSON record, each with the error compare reports
# for the edited record, or None where the edit leaves the record's config as it was
EDITED_RAMP_RECORDS = {
    "relabelled_with_another_lr": ((("optimizer_id", "sgdm"), ("config.lr", "0.5")), "field 'config_hash' is"),
    "zero_padded_epochs": ((("config.epochs", "01"),), None),
    "unknown_optimizer": (
        (("config.optimizer", "rmsprop"), ("config.epochs", "0")),
        "field 'config': unknown optimizer 'rmsprop'",
    ),
}
# edits of ramp_adaplus.cfg's JSON record that put flat-file syntax in a config
# value, each with the error load_record reports after "field 'config': ": a
# value is read as it is, so a '#' cuts nothing and a newline adds no key
SYNTAX_IN_CONFIG_VALUES = {
    "comment_in_seeds": (
        (("config.seeds", "1 # 2,3"),),
        "bad value for 'seeds': invalid literal for int() with base 10: '1 # 2'",
    ),
    "newline_adds_a_key": (
        (("config.problem", "large_grad_small_curvature\ntheta0 = zeros"), ("config.theta0", None)),
        f"unknown problem 'large_grad_small_curvature\\ntheta0 = zeros'; expected one of {tuple(PROBLEMS)}",
    ),
    "newline_repeats_a_key": (
        (("config.theta0", "zeros\nlr = 10"),),
        "theta0 must be one of ('seeded', 'zeros'), got 'zeros\\nlr = 10'",
    ),
}
NON_FINITE_LOSSES = pytest.mark.parametrize("loss", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
# row seeds of a two-seed record that do not cover its seeds, each with the error it gives
UNCOVERED_SEEDS = {
    "seed 1 alone": ((1,), "rows cover seeds [1], config names [1, 2]"),
    "no rows": ((), "rows cover seeds [], config names [1, 2]"),
    "seed 2 as 3": ((1, 3), "rows cover seeds [1, 3], config names [1, 2]"),
}


@pytest.fixture(scope="module")
def ramp_record():
    """The record of ramp_adaplus.cfg: one seed, 50 rows."""
    return run(bench.load_config(CONFIGS / "ramp_adaplus.cfg"))


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no ``NaN``, ``Infinity`` or ``-Infinity``."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def with_last_loss(record, loss):
    """``record`` with the loss of its last row set to ``loss``."""
    return replace(record, rows=(*record.rows[:-1], replace(record.rows[-1], loss=loss)))


def cover_seeds(rows, seeds):
    """The rows of the first ``len(seeds)`` record seeds in order, relabelled as ``seeds``."""
    relabel = dict(zip(sorted({row.seed for row in rows}), seeds))
    return [replace(row, seed=relabel[row.seed]) for row in rows if row.seed in relabel]


def edit_record(doc, field, value):
    """Set the value at the dotted path ``field`` (``rows.0.0``, ``summary.aborted``); ``None`` deletes it."""
    *parents, key = (int(part) if part.isdigit() else part for part in field.split("."))
    for parent in parents:
        doc = doc[parent]
    if value is None:
        del doc[key]
    else:
        doc[key] = value


def write_edited_record(path, record, *edits):
    """Emit ``record`` to ``path`` as JSON with each ``(field, value)`` of ``edits`` applied by ``edit_record``."""
    emit(record, "json", path)
    doc = json.loads(path.read_text())
    for field, value in edits:
        edit_record(doc, field, value)
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_parses_full_config(self):
        config = parse_config(QUAD_CONFIG)
        assert config.problem == "quadratic"
        assert dict(config.problem_params) == {"dim": 1, "condition_number": 1.0}
        assert config.optimizer == "adaplus"
        assert config.epochs == 1
        assert config.steps_per_epoch == 500
        assert config.seeds == (1,)
        assert config.log_every == 50
        assert config.lr == 1e-3
        assert config.milestones == ()
        assert config.noise.kind == "none"
        assert config.theta0 == "seeded"

    def test_round_trip_through_canonical_text(self):
        config = parse_config(QUAD_CONFIG)
        assert parse_config(config_to_text(config)) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(QUAD_CONFIG + "\nmomentum = 0.9\n")

    def test_wrong_problem_param_rejected(self):
        bad = QUAD_CONFIG.replace("problem.dim = 1", "problem.dim = 1\nproblem.margin = 0.5")
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(bad)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="missing required key 'seeds'"):
            parse_config(QUAD_CONFIG.replace("seeds = 1", ""))

    def test_run_config_built_in_code_rejects_an_infinite_rate(self):
        # the float writer refuses an infinite lr itself; finite factors can
        # still overflow once a milestone is passed
        config = parse_config(QUAD_CONFIG)
        with pytest.raises(ConfigError, match="gives the rate inf at epoch 1; it must be positive and finite"):
            replace(config, lr=1e308, milestones=(1,), decay_factor=10.0, epochs=2)

    @pytest.mark.parametrize(
        "field, value, shown",
        [("epochs", 2.0, "2.0"), ("steps_per_epoch", 3.0, "3.0"), ("log_every", 2.5, "2.5"), ("seeds", (1.5,), "1.5")],
        ids=["epochs", "steps_per_epoch", "log_every", "seeds"],
    )
    def test_run_config_built_in_code_rejects_a_count_or_seed_that_is_not_an_integer(self, field, value, shown):
        # range and numpy's generators would raise a TypeError naming no key
        # once the run starts, and log_every = 2.5 would log every 5th step
        config = parse_config(QUAD_CONFIG)
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(shown)}$"):
            replace(config, **{field: value})

    def test_run_config_built_in_code_rejects_an_unknown_problem(self):
        # config text names an unknown problem to _read_config first
        config = parse_config(QUAD_CONFIG)
        with pytest.raises(ConfigError, match="^unknown problem 'cifar10'"):
            replace(config, problem="cifar10")

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError, match="unknown optimizer"):
            parse_config(QUAD_CONFIG.replace("optimizer = adaplus", "optimizer = lion"))

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            parse_config(QUAD_CONFIG.replace("problem = quadratic", "problem = cifar10"))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 3,3"))

    @pytest.mark.parametrize("key", NEGATIVE_SEED_CONFIGS)
    def test_negative_seed_rejected_by_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be non-negative"):
            parse_config(NEGATIVE_SEED_CONFIGS[key])

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(QUAD_CONFIG + "\nepochs = 2\n")

    def test_bad_hyperparameter_becomes_config_error(self):
        with pytest.raises(ConfigError, match="beta1"):
            parse_config(QUAD_CONFIG + "\nbeta1 = 1.0\n")

    def test_hash_is_stable_and_ignores_formatting(self):
        config = parse_config(QUAD_CONFIG)
        reparsed = parse_config("# different comments\n" + QUAD_CONFIG.replace(" = ", "="))
        assert config.config_hash() == reparsed.config_hash()
        assert len(config.config_hash()) == 64

    def test_hash_changes_with_values(self):
        a = parse_config(QUAD_CONFIG)
        b = parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 4"))
        assert a.config_hash() != b.config_hash()


# a float key's value built in code as an int or a numpy float, with the text
# parse_config reads the same key from
FLOAT_KEYS_BUILT_IN_CODE = {
    "lr-np.float64": (lambda c: replace(c, lr=np.float64(0.01)), "lr = 0.01\n"),
    "lr-int": (lambda c: replace(c, lr=1), "lr = 1\n"),
    "condition_number-int": (
        lambda c: replace(c, problem_params=(("dim", 1), ("condition_number", 100))),
        "problem.condition_number = 100\n",
    ),
}
# summaries whose abort flag and reason disagree, which run never writes
DISAGREEING_SUMMARIES = pytest.mark.parametrize(
    "aborted, reason", [(False, "seed 1: boom"), (True, "")], ids=["finished-with-reason", "aborted-without"]
)
BOOL_FIELDS = ("use_nesterov", "use_belief", "decoupled_decay")
HP_FLOAT_FIELDS = ("beta1", "beta2", "eps", "weight_decay")
COUNT_FIELDS = ("epochs", "steps_per_epoch", "log_every")
NOISE_KEYS = {"noise": "kind", "noise.scale": "scale", "noise.seed": "seed"}
# a value outside its key's domain, for each key whose spoils are listed below
OUT_OF_DOMAIN = {
    "beta1": 1.0, "beta2": -0.5, "eps": -1e-8, "weight_decay": -1, "epochs": 0, "steps_per_epoch": -3,
    "log_every": 0, "theta0": "random", "noise": "salt_and_pepper", "noise.scale": -0.1, "noise.seed": -1,
}
# for each of those keys, a str, None, a bool, NaN and its out-of-domain
# value, and in a float key an int that no float holds, as {key: value} by id
SPOILS = {
    f"{key}-{label}": {key: value}
    for key in OUT_OF_DOMAIN
    for label, value in [("str", "0.5"), ("None", None), ("bool", True), ("nan", math.nan),
                         ("out-of-domain", OUT_OF_DOMAIN[key])]
    + ([("int-beyond-float", 10**400)] if key in HP_FLOAT_FIELDS + ("noise.scale",) else [])
}
# one value with no config text, by its key: an int that no float holds
# (float() raises OverflowError on it), a bool field's value that is no bool,
# an integer list that is no tuple or list, a bool in an integer list, or
# one of the spoils above
NO_CONFIG_TEXT = st.one_of(
    st.fixed_dictionaries({"lr": st.integers(10**309, 10**400)}),
    st.fixed_dictionaries({"condition_number": st.integers(10**309, 10**400)}),
    st.sampled_from(BOOL_FIELDS).flatmap(lambda field: st.fixed_dictionaries({field: st.sampled_from(["no", 0, 1])})),
    st.sampled_from([{"seeds": 5}, {"milestones": 5}, {"milestones": (True,)}]),
    st.sampled_from(list(SPOILS.values())),
)


def built_in_code(values):
    """QUAD_CONFIG's run with the config keys in ``values`` replaced, each
    given to the type that holds it; ``problem.dim`` is 1."""
    base = parse_config(QUAD_CONFIG)
    values = dict(values)
    condition_number = values.pop("condition_number", 1.0)
    hp = {field: values.pop(field) for field in BOOL_FIELDS + HP_FLOAT_FIELDS if field in values}
    noise = {name: values.pop(key) for key, name in NOISE_KEYS.items() if key in values}
    return replace(
        base, problem_params=(("dim", 1), ("condition_number", condition_number)), hp=replace(base.hp, **hp),
        noise=NoiseSpec(**noise), **values,
    )


def refusal_of(key):
    """The start of the message that refuses a value of ``key``; the noise
    kind's key is ``noise``, named as the kind of noise."""
    return "^unknown noise kind" if key == "noise" else f"^(problem\\.)?{re.escape(key)} must "


def floats_of_any_type(low, high):
    """A float in ``[low, high]`` built as a float or a numpy float, or an int in that range."""
    return st.one_of(
        st.integers(math.ceil(low), math.floor(high)), st.floats(low, high), st.floats(low, high).map(np.float64)
    )


def ints_of_any_type(low, high):
    return st.one_of(st.integers(low, high), st.integers(low, high).map(np.int64))


# an integer list built in code as a tuple, a list, or numpy integers in a list
INT_LIST_FORMS = st.sampled_from([tuple, list, lambda values: [np.int64(v) for v in values]])
# an integer key's value built in code as true, each with the key it is refused by
BOOLS_IN_INTEGER_KEYS = {
    "epochs": lambda c: replace(c, epochs=True),
    "seeds": lambda c: replace(c, seeds=(True,)),
    "problem.dim": lambda c: replace(c, problem_params=(("dim", True), ("condition_number", 1.0))),
    "noise.seed": lambda c: replace(c, noise=NoiseSpec(seed=True)),
}


class TestNormalForm:
    """A config built in code has the canonical text, hash and problem id of the parsed one."""

    @settings(max_examples=100, deadline=None, derandomize=True, report_multiple_bugs=False)
    @given(
        lr=floats_of_any_type(1e-6, 10.0),
        # ascending, as a schedule's milestones must be
        milestones=st.lists(st.integers(1, 10**6), max_size=3, unique=True).map(sorted),
        milestones_as=INT_LIST_FORMS,
        decay_factor=floats_of_any_type(1e-3, 10.0),
        condition_number=st.one_of(st.integers(1, 10**6), st.floats(1.0, 1e6)),
        seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True),
        seeds_as=INT_LIST_FORMS,
        bools=st.fixed_dictionaries(
            dict.fromkeys(BOOL_FIELDS, st.sampled_from([True, False, np.bool_(True), np.bool_(False)]))
        ),
        hp_floats=st.fixed_dictionaries(
            {"beta1": floats_of_any_type(0.0, 0.999), "beta2": floats_of_any_type(0.0, 0.9999),
             "eps": floats_of_any_type(0.0, 1.0), "weight_decay": floats_of_any_type(0.0, 3.0)}
        ),
        counts=st.fixed_dictionaries(dict.fromkeys(COUNT_FIELDS, ints_of_any_type(1, 10**6))),
        theta0=st.sampled_from(["seeded", "zeros"]),
        noise=st.fixed_dictionaries(
            {"noise": st.sampled_from(NOISE_KINDS), "noise.scale": floats_of_any_type(0.0, 1.0),
             "noise.seed": ints_of_any_type(0, 2**62)}
        ),
        # in about one draw of four, one value is replaced by one with no config text
        spoiled=st.one_of(st.just({}), st.just({}), st.just({}), NO_CONFIG_TEXT),
    )
    def test_config_built_in_code_reads_back_from_its_text(
        self, lr, milestones, milestones_as, decay_factor, condition_number, seeds, seeds_as, bools, hp_floats,
        counts, theta0, noise, spoiled,
    ):
        values = {"lr": lr, "milestones": milestones_as(milestones), "decay_factor": decay_factor,
                  "condition_number": condition_number, "seeds": seeds_as(seeds), "theta0": theta0,
                  **bools, **hp_floats, **counts, **noise, **spoiled}
        if spoiled:
            with pytest.raises(ValueError, match=refusal_of(next(iter(spoiled)))):
                built_in_code(values)
            return
        config = built_in_code(values)
        assert all(type(getattr(config.hp, field)) is bool for field in BOOL_FIELDS)
        parsed = parse_config(config_to_text(config))
        assert parsed == config
        assert parsed.config_hash() == config.config_hash()
        assert parsed.problem_id() == config.problem_id()
        assert config.seeds == tuple(sorted(seeds)) and all(type(s) is int for s in config.seeds)
        # a milestone at epoch `epochs` or later passes in no epoch of the run: dropped
        assert config.milestones == tuple(m for m in milestones if m < config.epochs)
        assert all(type(m) is int for m in config.milestones)
        held = [config.lr, config.decay_factor, config.noise.scale, *(getattr(config.hp, f) for f in HP_FLOAT_FIELDS)]
        assert all(type(value) is float for value in held)

    @pytest.mark.parametrize("case", SPOILS)
    def test_value_with_no_config_text_is_refused_by_key(self, case):
        # each spoil the property above draws from, each alone
        spoiled = SPOILS[case]
        with pytest.raises(ValueError, match=refusal_of(next(iter(spoiled)))):
            built_in_code(spoiled)

    @pytest.mark.parametrize("key", BOOLS_IN_INTEGER_KEYS)
    def test_integer_key_built_in_code_refuses_a_bool(self, key):
        # True would run as 1, but its text 'true' is no integer to parse_config
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be an integer, got True$"):
            BOOLS_IN_INTEGER_KEYS[key](parse_config(QUAD_CONFIG))

    @pytest.mark.parametrize(
        "params, message",
        [
            ((("dim", 3.0), ("condition_number", 1.0)), "problem.dim must be an integer, got 3.0"),
            ((("dim", 1), ("condition_number", math.nan)), "problem.condition_number must be a finite number, got nan"),
            # float() raises OverflowError, which is no ValueError; the value is cut to 80 characters
            (
                (("dim", 1), ("condition_number", 10**400)),
                f"problem.condition_number must be a finite number, got 1{'0' * 79}",
            ),
            # math.isfinite raised TypeError, which is no ValueError
            ((("dim", 1), ("condition_number", "100")), "problem.condition_number must be a finite number, got '100'"),
        ],
        ids=["float-dim", "nan-condition_number", "int-beyond-float-condition_number", "str-condition_number"],
    )
    def test_problem_parameter_without_config_text_refused_at_construction(self, params, message):
        # refused when the config is built, not first when run builds the problem
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(parse_config(QUAD_CONFIG), problem_params=params)

    @pytest.mark.parametrize("case", FLOAT_KEYS_BUILT_IN_CODE)
    def test_float_key_built_in_code_hashes_as_parsed(self, case):
        build, line = FLOAT_KEYS_BUILT_IN_CODE[case]
        built = build(parse_config(QUAD_CONFIG))
        parsed = parse_config(QUAD_CONFIG + line)
        assert config_to_text(built) == config_to_text(parsed)
        assert built.record_ids() == parsed.record_ids()

    def test_seeds_are_held_and_written_in_ascending_order(self):
        config = parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 2,1"))
        assert config.seeds == (1, 2)
        assert "seeds = 1,2\n" in config_to_text(config)
        assert config.config_hash() == parse_config(TWO_SEED_CONFIG).config_hash()
        assert replace(config, seeds=[2, 1]) == config

    def test_record_with_unsorted_seeds_and_their_old_hash_refused(self, tmp_path):
        # records written before seeds were held sorted hashed the seeds' text as given
        config = parse_config(TWO_SEED_CONFIG)
        old_text = "\n".join(f"{k}={'2,1' if k == 'seeds' else v}" for k, v in config.canonical_items())
        old_hash = hashlib.sha256(old_text.encode("utf-8")).hexdigest()
        summary = RunSummary(wall_time_s=0.0)
        record = RunRecord(**config.record_ids(), config=config, rows=(), summary=summary)
        path = write_edited_record(tmp_path / "old.json", record, ("config.seeds", "2,1"), ("config_hash", old_hash))
        with pytest.raises(ConfigError) as exc:
            load_record(path)
        assert str(exc.value) == (
            f"{path}: field 'config_hash' is {old_hash!r}, its config gives {config.config_hash()!r}"
        )

    @pytest.mark.parametrize("case", ONE_COMPUTATION)
    def test_what_the_run_never_reads_moves_no_hash(self, case):
        text, other, digest = ONE_COMPUTATION[case]
        config = parse_config(text)
        assert config == parse_config(other)
        assert config.config_hash()[:12] == digest
        # the config's text drops what its run ignores, and reads back as the same config
        assert config_to_text(config) == config_to_text(parse_config(other))
        assert parse_config(config_to_text(config)) == config

    @settings(max_examples=100, deadline=None, derandomize=True, report_multiple_bugs=False)
    @given(kernel=st.sampled_from(KERNEL_IDS), hp=HYPER_PARAMS, redrawn=HYPER_PARAMS)
    def test_redrawing_what_the_kernel_ignores_moves_no_hash_and_no_row(self, kernel, hp, redrawn):
        config = replace(parse_config(SHORT_CONFIG), optimizer=kernel, hp=hp)
        ignored = set(HP_FIELDS) - reads(kernel, hp)
        other = replace(config, hp=replace(hp, **{field: getattr(redrawn, field) for field in ignored}))
        assert other.config_hash() == config.config_hash()
        first, second = run(config), run(other)
        # eps = 0 can abort a run with a 0/0, and an aborted record has no CSV
        assert first.rows == second.rows and first.summary.abort_reason == second.summary.abort_reason
        if not first.summary.aborted:
            assert record_to_csv(first) == record_to_csv(second)

    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_a_value_out_of_domain_is_refused_where_the_run_ignores_it(self, kernel):
        # the checks run before the normal form, so no kernel lets beta2 = 1.5 through
        with pytest.raises(ConfigError, match=r"^beta2 must lie in \[0, 1\), got 1\.5$"):
            parse_config(QUAD_CONFIG.replace("adaplus", kernel) + "beta2 = 1.5\n")

    def test_record_of_an_ignored_field_and_its_old_hash_refused(self, tmp_path):
        # records written before the normal form hashed the toggles adamw ignores
        config = parse_config(RAMP_ADAMW)
        old_items = dict(config.canonical_items()) | {"use_belief": "false", "use_nesterov": "false"}
        old_hash = hashlib.sha256("\n".join(map("=".join, sorted(old_items.items()))).encode("utf-8")).hexdigest()
        assert old_hash.startswith("57a96d5d0188")
        record = RunRecord(**config.record_ids(), config=config, rows=(), summary=RunSummary(wall_time_s=0.0))
        path = write_edited_record(
            tmp_path / "old.json", record, ("config.use_belief", "false"), ("config.use_nesterov", "false"),
            ("config_hash", old_hash),
        )
        with pytest.raises(ConfigError) as exc:
            load_record(path)
        assert str(exc.value) == (
            f"{path}: field 'config_hash' is {old_hash!r}, its config gives {config.config_hash()!r}"
        )

    @pytest.mark.parametrize(
        "make",
        [lambda: OptimizerState(True), lambda: quadratic(True), lambda: Problem(True, lambda t: (0.0, t), abs)],
        ids=["OptimizerState", "quadratic", "Problem"],
    )
    def test_a_size_refuses_a_bool(self, make):
        with pytest.raises(ValueError, match="^dim must be an integer, got True$"):
            make()


# a value text of each key's own kind, in its domain or near it; a size is at
# most 64 or at least 10**20, which numpy refuses without allocating
FLOAT_TEXT = st.one_of(st.floats(0.0, 0.999).map(repr), st.floats(1e-3, 1e3).map(repr), st.integers(1, 100).map(str))
INT_TEXT = st.integers(1, 100).map(str)
SIZE_TEXT = st.one_of(st.integers(-1, 64), st.integers(10**20, 10**400)).map(str)
INT_LIST_TEXT = st.lists(st.integers(1, 100), min_size=1, max_size=3, unique=True).map(
    lambda values: ",".join(map(str, sorted(values)))
)
KEY_TEXT = {
    "optimizer": st.sampled_from(KERNEL_IDS),
    **dict.fromkeys(("beta1", "beta2"), st.floats(0.0, 0.999).map(repr)),
    **dict.fromkeys(("eps", "weight_decay", "lr", "decay_factor", "noise.scale"), FLOAT_TEXT),
    **dict.fromkeys(BOOL_FIELDS, st.sampled_from(["true", "false", "True"])),
    **dict.fromkeys(COUNT_FIELDS, INT_TEXT),
    **dict.fromkeys(("milestones", "seeds"), INT_LIST_TEXT),
    "theta0": st.sampled_from(["seeded", "zeros"]),
    "noise": st.sampled_from(NOISE_KINDS),
    "noise.seed": INT_TEXT,
}
PROBLEM_TEXT = {"dim": SIZE_TEXT, "n_samples": SIZE_TEXT, "seed": INT_TEXT}
# characters that are no decimal digit in any script: int() and float() read those of every script
NO_DIGITS = st.characters(exclude_categories=("Nd", "Cs"))
# a value that no key reads, or that only some keys read: empty, an int
# beyond float range, a float that overflows or is NaN, true, non-ASCII text,
# and text holding '#' or '='
ODD_TEXT = st.one_of(
    st.just(""),
    st.integers(10**20, 10**400).map(str),
    st.sampled_from(["1e400", "-1e400", "nan", "true"]),
    st.text(st.characters(min_codepoint=128, exclude_categories=("Nd", "Cs")), min_size=1, max_size=6),
    st.tuples(st.text(NO_DIGITS, max_size=3), st.sampled_from("#="), st.text(NO_DIGITS, max_size=3)).map("".join),
)


@st.composite
def config_texts(draw):
    """A config text over the README's key table: every required key, some
    optional ones, up to two values replaced by odd ones, and in about one
    draw of four a line given twice."""
    problem = draw(st.sampled_from(sorted(PROBLEMS)))
    names = inspect.signature(PROBLEMS[problem]).parameters
    params = {f"problem.{name}": PROBLEM_TEXT.get(name, FLOAT_TEXT) for name in names}
    required = ("optimizer", "epochs", "steps_per_epoch", "seeds")
    items = draw(st.fixed_dictionaries(
        {"problem": st.just(problem), **params, **{key: KEY_TEXT[key] for key in required}},
        optional={key: text for key, text in KEY_TEXT.items() if key not in required},
    ))
    for key in draw(st.lists(st.sampled_from(sorted(items)), max_size=2, unique=True)):
        items[key] = draw(ODD_TEXT)
    lines = [f"{key} = {value}" for key, value in items.items()]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(lines)))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=100, deadline=None, derandomize=True, report_multiple_bugs=False)
@given(text=config_texts())
def test_config_text_builds_its_problem_or_raises_a_value_error(text):
    # run is never called: only the problem is built, at sizes numpy allocates
    # at once (<= 64) or refuses without allocating (>= 10**20)
    try:
        build_problem(parse_config(text))
    except ValueError:
        pass


def test_bad_input_of_every_reader_is_a_value_error(tmp_path):
    assert issubclass(ConfigError, ValueError)
    path = tmp_path / "record.json"
    path.write_text("{}")
    for call in (
        lambda: NoiseSpec("salt_and_pepper"),
        lambda: GradientSource(quadratic(2), NoiseSpec("minibatch_subset", 0.5)),
        lambda: parse_config(QUAD_CONFIG + "use_belief = maybe\n"),
        lambda: load_record(path),
    ):
        with pytest.raises(ValueError):
            call()


def schedule(**fields):
    """QUAD_CONFIG's run with its ``lr``, ``milestones`` and ``decay_factor`` fields replaced."""
    return replace(parse_config(QUAD_CONFIG), **fields)


class TestRate:
    """The run's step-decay schedule: ``RunConfig.rate`` and the checks of its three keys."""

    def test_no_milestone_passed(self):
        assert schedule(lr=0.01, milestones=(150,), epochs=151).rate(0) == 0.01

    def test_decay_at_milestone(self):
        # drop by 0.1 exactly at the milestone epoch
        assert schedule(lr=0.01, milestones=(150,), epochs=151).rate(150) == pytest.approx(0.001)

    def test_two_milestones_passed(self):
        assert schedule(lr=1e-3, milestones=(100, 145), epochs=147).rate(146) == pytest.approx(1e-5)

    def test_factor_counts_passed_milestones(self):
        config = schedule(lr=1.0, milestones=(2, 5, 9), decay_factor=0.5, epochs=12)
        for epoch in range(12):
            k = sum(1 for m in config.milestones if m <= epoch)
            assert config.rate(epoch) == 0.5**k

    @pytest.mark.parametrize(
        "milestones, message",
        [
            ((5, 5), "milestones must be strictly increasing"),
            ((7, 3), "milestones must be strictly increasing"),
            ((0,), "milestones must be positive epoch indices"),
        ],
        ids=["duplicate", "unsorted", "zero"],
    )
    def test_rejects_unsorted_milestones(self, milestones, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            schedule(milestones=milestones)

    @pytest.mark.parametrize("milestone", [True, 1.5], ids=["bool", "float"])
    def test_milestone_that_is_not_an_integer_rejected_as_a_config_integer_is(self, milestone):
        # bool is an int to Python, so True would be epoch 1
        with pytest.raises(ValueError, match=f"^milestones must be an integer, got {milestone!r}$"):
            schedule(milestones=(milestone,))

    @pytest.mark.parametrize("key", ["milestones", "seeds"])
    @pytest.mark.parametrize("value, shown", [(5, "5"), (iter([1, 2]), "<list_iterator")], ids=["int", "iterator"])
    def test_integer_list_that_is_no_tuple_or_list_rejected_by_key(self, key, value, shown):
        # iterating the int raised a TypeError, which cli.main's boundary would
        # not catch, and writing the text would spend an iterator
        with pytest.raises(ConfigError, match=f"^{key} must be a tuple or list of integers, got {shown}"):
            schedule(**{key: value})

    @pytest.mark.parametrize("field", ["lr", "decay_factor"])
    @pytest.mark.parametrize("value", ["0.1", None], ids=["str", "None"])
    def test_rate_that_is_no_real_number_rejected_by_name(self, field, value):
        # math.isfinite raised TypeError, which cli.main's boundary would not catch
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number, got {re.escape(repr(value))}$"):
            schedule(**{field: value})

    @pytest.mark.parametrize("epoch", [-1, 3, 10])
    def test_rate_is_defined_on_the_runs_epochs_only(self, epoch):
        config = schedule(lr=1.0, milestones=(1, 2), decay_factor=0.5, epochs=3)
        assert [config.rate(e) for e in range(3)] == [1.0, 0.5, 0.25]
        with pytest.raises(ValueError, match=f"^epoch {epoch} is outside the run's epochs 0..2$"):
            config.rate(epoch)

    @pytest.mark.parametrize(
        "schedule, same_as",
        [("milestones = 6,8,12", "milestones = 6,8"), ("milestones = 6,8,10", "milestones = 6,8"),
         ("decay_factor = 0.5", "")],
        ids=["milestone-past-the-run", "milestone-at-epochs", "factor-without-milestones"],
    )
    def test_schedule_values_no_epoch_reads_leave_the_hash(self, schedule, same_as):
        # quadratic_adaplus.cfg runs 10 epochs: a milestone at epoch 10 or
        # later passes in none of them, and with no milestone the factor is
        # never applied, so each pair runs the same steps under one hash
        text = (CONFIGS / "quadratic_adaplus.cfg").read_text(encoding="utf-8")
        one, other = (parse_config(text.replace("milestones = 6,8", line)) for line in (schedule, same_as))
        assert one == other and one.config_hash() == other.config_hash()

    def test_int_decay_factor_steps_at_the_rate_of_its_parsed_text(self):
        # 1e-3 * 10**23 and 1e-3 * 10.0**23 differ in the last bit
        built = schedule(milestones=tuple(range(1, 24)), decay_factor=10, epochs=24)
        assert built.rate(23) == parse_config(config_to_text(built)).rate(23)

    def test_integer_milestones_are_kept_as_a_tuple_of_ints(self):
        config = schedule(milestones=[np.int64(2), 5], epochs=6)
        assert config.milestones == (2, 5) and all(type(m) is int for m in config.milestones)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"lr": 0.0}, "lr must be positive and finite, got 0.0"),
            ({"lr": -1e-3}, "lr must be positive and finite, got -0.001"),
            ({"lr": np.inf}, "lr must be a finite number, got inf"),
            # float() raises OverflowError, which is no ValueError; the value is cut to 80 characters
            ({"lr": 10**400}, f"lr must be a finite number, got 1{'0' * 79}"),
            ({"decay_factor": np.inf}, "decay_factor must be a finite number, got inf"),
            ({"decay_factor": 0.0}, "decay_factor must be positive and finite, got 0.0"),
        ],
        ids=["lr-0", "lr-negative", "lr-inf", "lr-int-beyond-float", "decay_factor-inf", "decay_factor-0"],
    )
    def test_rejects_out_of_domain_rate_by_name(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            schedule(**fields)


class TestProblemTable:
    """``problems.PROBLEMS`` defines each problem's config keys through its constructor."""

    def test_problems_in_order(self):
        assert tuple(PROBLEMS) == tuple(PROBLEM_KEYS)

    @pytest.mark.parametrize("problem", PROBLEM_KEYS)
    def test_keys_converters_defaults_and_required_keys(self, problem):
        keys = PROBLEM_KEYS[problem]
        head = f"problem = {problem}\noptimizer = adam\nepochs = 1\nsteps_per_epoch = 1\nseeds = 1\n"
        required = {key: f"problem.{key} = 2\n" for key, (_, default) in keys.items() if default is None}
        config = parse_config(head + "".join(required.values()))
        got = [(key, type(value), value) for key, value in config.problem_params]
        assert got == [(key, conv, conv(2) if default is None else default) for key, (conv, default) in keys.items()]
        for key, (conv, default) in keys.items():
            if default is None:
                lines = "".join(line for other, line in required.items() if other != key)
                with pytest.raises(ConfigError, match=f"missing required key 'problem.{key}'"):
                    parse_config(head + lines)
            else:
                config = parse_config(head + "".join(required.values()) + f"problem.{key} = 3\n")
                value = dict(config.problem_params)[key]
                assert type(value) is conv and value == 3

    @pytest.mark.parametrize(
        "params",
        [
            (("dim", 1), ("margin", 0.5)),  # a key of another problem
            (("dim", 1),),  # a defaulted key left out
            (("condition_number", 1.0), ("dim", 1)),  # out of order
        ],
    )
    def test_run_config_rejects_keys_other_than_the_constructor_parameters(self, params):
        with pytest.raises(ConfigError, match="problem quadratic takes the parameters"):
            replace(parse_config(QUAD_CONFIG), problem_params=params)

    def test_readme_key_table_names_every_problem_and_parameter(self):
        rows = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if cells[0] in ("`problem`", "`problem.*`"):
                rows[cells[0]] = cells
        for name, constructor in PROBLEMS.items():
            assert f"`{name}`" in rows["`problem`"][1]
            parameters = inspect.signature(constructor).parameters.values()
            assert f"`{name}`: " + ", ".join(f"`{p.name}`" for p in parameters) in rows["`problem.*`"][1]
            for p in parameters:
                if p.default is not p.empty:
                    assert f"`{p.name}` (`{p.default!r}`)" in rows["`problem.*`"][2]

    def test_readme_key_table_gives_every_run_key_and_default(self):
        # a default cell reads "required" or holds one item per key of its
        # row: the value's text in backticks, or a bare word for empty text
        defaults = {}
        for line in README.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if not line.startswith("| `") or cells[0] == "`problem.*`":
                continue
            keys = re.findall(r"`([^`]+)`", cells[0])
            if cells[2] == "required":
                defaults.update(dict.fromkeys(keys, "required"))
                continue
            items = [item.strip() for item in cells[2].split(",")]
            assert len(items) == len(keys), line
            defaults.update((key, item.strip("`") if item.startswith("`") else "") for key, item in zip(keys, items))
        schema = []
        for field, conv, default in bench._parameters(bench.RunConfig):
            if field in bench._NESTED:
                schema += [(key, c, d) for key, _, c, d in bench._NESTED[field]]
            elif field != "problem_params":
                schema.append((field, conv, default))
        assert len(schema) == 20
        for key, conv, default in schema:
            if default is inspect.Parameter.empty:
                assert defaults[key] == "required", key
            else:
                assert conv(defaults[key]) == default, key


class TestRun:
    def test_one_dimensional_quadratic_converges(self):
        record = run(parse_config(QUAD_CONFIG))
        assert not record.summary.aborted
        assert bench.seed_losses(record.rows)[1].mean() < 1e-6

    def test_identical_configs_give_identical_records(self):
        config = parse_config(QUAD_CONFIG)
        a, b = run(config), run(config)
        assert a.rows == b.rows
        assert a.config_hash == b.config_hash
        assert record_to_csv(a) == record_to_csv(b)

    def test_rows_strictly_ordered_and_log_every_respected(self):
        config = parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 5,2"))
        record = run(config)
        keys = [(r.seed, r.epoch, r.step) for r in record.rows]
        assert keys == sorted(keys)
        # 500 steps logged every 50 -> 10 rows per seed
        assert len(record.rows) == 20
        assert {r.step for r in record.rows} == {50, 100, 150, 200, 250, 300, 350, 400, 450, 500}

    def test_schedule_drop_shows_in_lr_column(self):
        text = QUAD_CONFIG.replace("epochs = 1", "epochs = 10").replace(
            "steps_per_epoch = 500", "steps_per_epoch = 10"
        ).replace("log_every = 50", "log_every = 10") + "milestones = 5\n"
        record = run(parse_config(text))
        lrs = {r.epoch: r.lr for r in record.rows}
        for epoch in range(10):
            expected = 1e-3 if epoch < 5 else 1e-4
            assert lrs[epoch] == pytest.approx(expected, rel=1e-15)

    def test_aborting_run_is_flagged_with_partial_rows(self):
        # a huge rate on the banana function overflows within a few steps
        text = """
problem = rosenbrock
problem.dim = 2
optimizer = sgdm
lr = 1e6
epochs = 1
steps_per_epoch = 100
seeds = 1
log_every = 1
"""
        record = run(parse_config(text))
        assert record.summary.aborted
        assert "seed 1" in record.summary.abort_reason
        assert len(record.rows) < 100

    def test_an_overflowing_parameter_norm_aborts_the_replica(self):
        # on a problem of zero loss and unit gradient, one adam step of rate
        # 1e308 moves each of four elements by about 1e308: every element,
        # the loss and the gradient's norm stay finite, but the parameter's
        # norm, which squares them, does not
        config = parse_config("""
problem = quadratic
problem.dim = 4
optimizer = adam
lr = 1e308
epochs = 1
steps_per_epoch = 1
seeds = 1
""")
        problem = Problem(4, lambda theta: (0.0, np.ones(4)), lambda theta: np.ones(4))
        rows, reason = bench._run_replica(config, problem, 1)
        assert rows == [] and reason == "seed 1: non-finite param_norm at step 1"

    def test_replica_holds_no_full_size_array_past_its_last_use(self):
        # besides the problem's own arrays a replica needs 7 arrays of
        # 8 * dim bytes at a time: params, m, s, the kernel's three scratch
        # buffers and one gradient (the step's or the log row's)
        dim = 2**18
        config = parse_config(f"""
problem = quadratic
problem.dim = {dim}
optimizer = adaplus
epochs = 2
steps_per_epoch = 3
seeds = 1
log_every = 2
""")
        problem = bench.build_problem(config)
        tracemalloc.start()
        try:
            rows, reason = bench._run_replica(config, problem, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reason is None and [row.step for row in rows] == [2, 4, 6]
        assert peak < 8 * (8 * dim)


class TestEmit:
    def make_record(self, rows):
        config = parse_config(QUAD_CONFIG)
        return RunRecord(
            config_hash=config.config_hash(),
            problem_id=config.problem_id(),
            optimizer_id=config.optimizer,
            config=config,
            rows=tuple(rows),
            summary=RunSummary(wall_time_s=0.1),
        )

    def test_empty_record_gives_header_only_csv(self):
        assert record_to_csv(self.make_record([])) == "seed,epoch,step,lr,loss,grad_norm,param_norm\n"

    def test_three_rows_give_four_csv_lines(self):
        rows = [LogRow(1, 0, i, 1e-3, 1.0 / (i + 1), 0.1, 2.0) for i in range(3)]
        text = record_to_csv(self.make_record(rows))
        assert len(text.splitlines()) == 4

    def test_csv_has_17_significant_digit_decimals(self):
        rows = [LogRow(1, 0, 1, 1e-3, 1.0 / 3.0, 0.1, 2.0)]
        line = record_to_csv(self.make_record(rows)).splitlines()[1]
        assert line.split(",")[4] == f"{1.0 / 3.0:.17g}"

    def test_csv_values_round_trip_losslessly(self):
        record = run(parse_config(QUAD_CONFIG))
        lines = record_to_csv(record).splitlines()[1:]
        for line, row in zip(lines, record.rows):
            seed, epoch, step, lr, loss, grad_norm, param_norm = line.split(",")
            assert (int(seed), int(epoch), int(step)) == (row.seed, row.epoch, row.step)
            assert float(lr) == row.lr
            assert float(loss) == row.loss
            assert float(grad_norm) == row.grad_norm
            assert float(param_norm) == row.param_norm

    def test_json_round_trip(self, tmp_path):
        record = run(parse_config(QUAD_CONFIG))
        path = tmp_path / "record.json"
        emit(record, "json", path)
        assert load_record(path) == record

    def test_aborted_record_refuses_csv(self, tmp_path):
        record = self.make_record([])
        flagged = RunRecord(
            config_hash=record.config_hash,
            problem_id=record.problem_id,
            optimizer_id=record.optimizer_id,
            config=record.config,
            rows=record.rows,
            summary=RunSummary(0.1, aborted=True, abort_reason="boom"),
        )
        with pytest.raises(ValueError, match="aborted"):
            emit(flagged, "csv", tmp_path / "x.csv")
        emit(flagged, "json", tmp_path / "x.json")
        assert load_record(tmp_path / "x.json").summary.aborted

    @DISAGREEING_SUMMARIES
    def test_summary_refuses_an_abort_flag_its_reason_disagrees_with(self, aborted, reason):
        # compare would take a finished summary with a reason as finished
        message = f"summary field 'aborted' is {aborted!r}, but 'abort_reason' is {reason!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunSummary(0.0, aborted=aborted, abort_reason=reason)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit(self.make_record([]), "yaml", tmp_path / "x.yaml")

    @pytest.mark.parametrize(
        "field, value",
        [("config_hash", "f" * 64), ("problem_id", "quadratic(dim=1)"), ("optimizer_id", "adam")],
        ids=["config_hash", "problem_id", "optimizer_id"],
    )
    def test_record_whose_ids_disagree_with_its_config_is_refused(self, field, value):
        record = self.make_record([])
        with pytest.raises(ConfigError, match=rf"^field '{field}' is '{re.escape(value)}', its config gives"):
            replace(record, **{field: value})


class TestLoadRecord:
    """A malformed JSON record raises ConfigError naming the file and the field."""

    @pytest.fixture
    def doc(self, tmp_path):
        path = tmp_path / "record.json"
        emit(run(parse_config(QUAD_CONFIG)), "json", path)
        return json.loads(path.read_text())

    def load(self, tmp_path, doc):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return load_record(path)

    @pytest.mark.parametrize("key", ["config_hash", "problem_id", "optimizer_id", "config", "rows", "summary"])
    def test_missing_top_level_key(self, tmp_path, doc, key):
        del doc[key]
        with pytest.raises(ConfigError, match=rf"edited\.json.*{key}"):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize(
        "row",
        [1, [1, 0, 1, 1e-3, 1.0, 0.1], [1, 0, 1, 1e-3, 1.0, 0.1, 2.0, 3.0], [1, 0, 1, 1e-3, "1.0", 0.1, 2.0],
         [1, 0, 1, 1e-3, True, 0.1, 2.0], [1, 0, 1, 1e-3, None, 0.1, 2.0], [1.7, 0, 1, 1e-3, 1.0, 0.1, 2.0],
         [1, 0, 1, 1e-3, 10**400, 0.1, 2.0]],
    )
    def test_row_that_is_not_seven_numbers(self, tmp_path, doc, row):
        doc["rows"][1] = row
        with pytest.raises(ConfigError, match=r"edited\.json.*rows\[1\]"):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize("edit", ["drop", "add", "replace"])
    def test_summary_keys_must_match_run_summary(self, tmp_path, doc, edit):
        if edit != "add":
            del doc["summary"]["wall_time_s"]
        if edit != "drop":
            doc["summary"]["elapsed_s"] = 0.1
        with pytest.raises(ConfigError, match=r"edited\.json.*summary"):
            self.load(tmp_path, doc)

    @pytest.mark.parametrize(
        "field, value",
        [("problem_id", ["quadratic"]), ("config_hash", 1), ("optimizer_id", ["adaplus"]), ("config.seeds", [1]),
         ("summary.aborted", "false"), ("summary.wall_time_s", "x"), ("summary.abort_reason", 0)],
    )
    def test_value_of_the_wrong_type(self, tmp_path, doc, field, value):
        edit_record(doc, field, value)
        with pytest.raises(ConfigError, match=rf"edited\.json: field '{re.escape(field)}' must be"):
            self.load(tmp_path, doc)

    @DISAGREEING_SUMMARIES
    def test_summary_whose_abort_flag_and_reason_disagree(self, tmp_path, doc, aborted, reason):
        doc["summary"].update(aborted=aborted, abort_reason=reason)
        with pytest.raises(ConfigError) as exc:
            self.load(tmp_path, doc)
        path = tmp_path / "edited.json"
        assert str(exc.value) == f"{path}: summary field 'aborted' is {aborted!r}, but 'abort_reason' is {reason!r}"

    def test_unknown_top_level_key(self, tmp_path, doc):
        doc["elapsed_s"] = 0.1
        with pytest.raises(ConfigError, match=r"edited\.json: field 'elapsed_s' is unknown"):
            self.load(tmp_path, doc)

    def test_unknown_config_keys_are_quoted(self, tmp_path, ramp_record):
        # unquoted, an empty key and a key with a space would not show
        path = write_edited_record(tmp_path / "edited.json", ramp_record, ("config.", "1"), ("config. lr", "1"))
        with pytest.raises(ConfigError) as exc:
            load_record(path)
        assert str(exc.value) == f"{path}: field 'config': unknown config keys: '', ' lr'"

    def test_json_integer_in_a_float_column_loads_as_a_float(self, tmp_path, doc):
        doc["rows"][1][4] = 2
        doc["summary"]["wall_time_s"] = 0
        record = self.load(tmp_path, doc)
        assert type(record.rows[1].loss) is float and record.rows[1].loss == 2.0
        assert type(record.summary.wall_time_s) is float

    @pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.cfg")))
    def test_shipped_config_reads_back_as_its_run_config(self, tmp_path, name):
        config = bench.load_config(CONFIGS / name)
        summary = RunSummary(wall_time_s=0.0)
        emit(RunRecord(**config.record_ids(), config=config, rows=(), summary=summary), "json", tmp_path / "record.json")
        assert load_record(tmp_path / "record.json").config == config

    @pytest.mark.parametrize("case", SYNTAX_IN_CONFIG_VALUES)
    def test_config_values_are_read_as_they_are(self, tmp_path, ramp_record, case):
        edits, message = SYNTAX_IN_CONFIG_VALUES[case]
        path = write_edited_record(tmp_path / "edited.json", ramp_record, *edits)
        with pytest.raises(ConfigError) as exc:
            load_record(path)
        assert str(exc.value) == f"{path}: field 'config': {message}"

    @pytest.mark.parametrize("value", ["zeros\nmomentum", "zeros\n = 1", "zeros\nlr = 10"])
    def test_no_config_error_names_a_line(self, tmp_path, ramp_record, value):
        # each value holds a line the flat format refuses by its number
        path = write_edited_record(tmp_path / "edited.json", ramp_record, ("config.theta0", value))
        with pytest.raises(ConfigError) as exc:
            load_record(path)
        assert str(exc.value) == f"{path}: field 'config': theta0 must be one of ('seeded', 'zeros'), got {value!r}"
        assert not re.search(r"\bline \d", str(exc.value))

    @pytest.mark.parametrize(
        "opening, pair",
        [("{", '"problem_id": "quadratic"'), ('"summary": {', '"aborted": true'), ('"config": {', '"lr": "10"')],
        ids=["record", "summary", "config"],
    )
    def test_duplicate_key_refused_in_every_object(self, tmp_path, doc, opening, pair):
        # json would keep the emitted value, the second, and drop the first unseen
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc).replace(opening, f"{opening}{pair}, ", 1))
        key = pair.split('"')[1]
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: duplicate key '{key}'$"):
            load_record(path)

    def test_non_object_fields(self, tmp_path, doc):
        for key, value in (("rows", {"a": 1}), ("config", [1]), ("summary", [1])):
            edited = dict(doc, **{key: value})
            with pytest.raises(ConfigError, match=rf"edited\.json.*{key}"):
                self.load(tmp_path, edited)
        with pytest.raises(ConfigError, match=r"edited\.json"):
            self.load(tmp_path, [doc])


class TestCompare:
    def test_single_record_table_equals_summary(self):
        record = run(parse_config(TWO_SEED_CONFIG))
        table = compare([record])
        assert len(table.rows) == 1
        row = table.rows[0]
        # each seed's final and best loss, taken from its own rows
        losses = [[r.loss for r in record.rows if r.seed == seed] for seed in record.config.seeds]
        finals, bests = [seed[-1] for seed in losses], [min(seed) for seed in losses]
        assert row.final_mean == pytest.approx(np.mean(finals), rel=1e-15)
        assert row.best_mean == pytest.approx(np.mean(bests), rel=1e-15)
        assert table.best("final_mean").label == "adaplus"

    def test_zero_stddev_for_identical_trajectories(self):
        # fixed start, no noise: both seeds trace the same trajectory
        text = QUAD_CONFIG.replace("seeds = 1", "seeds = 1,2") + "theta0 = zeros\n"
        record = run(parse_config(text))
        table = compare([record])
        assert table.rows[0].final_std == 0.0
        assert table.rows[0].best_std == 0.0

    def test_mismatched_problems_rejected(self):
        a = run(parse_config(QUAD_CONFIG))
        b = run(parse_config(QUAD_CONFIG.replace("problem.dim = 1", "problem.dim = 2")))
        with pytest.raises(ConfigError, match="different problems"):
            compare([a, b])

    def test_aborted_record_rejected(self):
        finished = run(parse_config(QUAD_CONFIG))
        aborted = run(parse_config(DIVERGING_SGDM_CONFIG))
        assert aborted.summary.aborted and aborted.rows
        with pytest.raises(ConfigError, match="aborted"):
            compare([finished, aborted])
        with pytest.raises(ConfigError, match="aborted"):
            compare([aborted])

    def test_different_seed_sets_rejected(self):
        a = run(parse_config(QUAD_CONFIG))
        b = run(parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 1,2")))
        with pytest.raises(ConfigError, match="seed sets"):
            compare([a, b])

    def test_seed_losses_give_each_seeds_final_and_best_in_row_order(self):
        rows = [LogRow(2, 0, step, 1e-3, loss, 0.0, 0.0) for step, loss in ((1, 3.0), (2, 1.0), (3, 2.0))]
        seeds, finals, bests = bench.seed_losses([*rows, LogRow(1, 0, 1, 1e-3, 5.0, 0.0, 0.0)])
        assert seeds == (2, 1)
        assert finals.tolist() == [2.0, 5.0] and bests.tolist() == [1.0, 5.0]

    def test_seed_sets_compare_as_sets(self):
        a = run(parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 1,2,3")))
        b = run(parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 3,1,2")))
        assert a.rows == b.rows
        table = compare([a, b])
        assert table.rows[0].final_mean == table.rows[1].final_mean
        c = run(parse_config(QUAD_CONFIG.replace("seeds = 1", "seeds = 1,2,4")))
        with pytest.raises(ConfigError, match=r"different seed sets: \[\[1, 2, 3\], \[1, 2, 4\]\]"):
            compare([a, c])

    @pytest.mark.parametrize("case", UNCOVERED_SEEDS)
    def test_rows_that_do_not_cover_the_config_seeds_rejected(self, case):
        seeds, message = UNCOVERED_SEEDS[case]
        full = run(parse_config(TWO_SEED_CONFIG))
        adamw = run(parse_config(TWO_SEED_CONFIG.replace("optimizer = adaplus", "optimizer = adamw")))
        edited = replace(full, rows=tuple(cover_seeds(full.rows, seeds)))
        with pytest.raises(ConfigError, match=re.escape(f"record adaplus ({full.config_hash[:12]}): {message}")):
            compare([edited, adamw])

    @NON_FINITE_LOSSES
    def test_row_whose_loss_is_not_finite_rejected(self, ramp_record, loss):
        message = f"record adaplus ({ramp_record.config_hash[:12]}): the loss of seed 1 at step 50 is {loss!r}, not finite"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            compare([with_last_loss(ramp_record, loss)])

    @pytest.mark.parametrize("key", ["seeds", "epochs", "steps_per_epoch"])
    def test_record_config_without_a_compared_key_is_named(self, tmp_path, key):
        path = write_edited_record(tmp_path / "edited.json", run(parse_config(QUAD_CONFIG)), (f"config.{key}", None))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: field 'config': missing required key '{key}'")):
            load_record(path)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="compare needs at least one record"):
            compare([])

    def test_malformed_seeds_text_is_named(self, tmp_path):
        path = write_edited_record(tmp_path / "edited.json", run(parse_config(QUAD_CONFIG)), ("config.seeds", "1,x"))
        message = f"{path}: field 'config': bad value for 'seeds': invalid literal for int()"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_record(path)

    def test_different_step_budgets_rejected(self):
        a = run(parse_config(QUAD_CONFIG))
        for budget in ("epochs = 2", "steps_per_epoch = 400"):
            key = budget.split(" =")[0]
            line = next(line for line in QUAD_CONFIG.splitlines() if line.startswith(key))
            b = run(parse_config(QUAD_CONFIG.replace(line, budget)))
            with pytest.raises(ConfigError, match="step budgets"):
                compare([a, b])

    def test_different_log_cadences_rejected(self):
        # the trajectories are the same, but a best loss is the lowest logged row's
        a = run(parse_config(QUAD_CONFIG))
        b = run(parse_config(QUAD_CONFIG.replace("log_every = 50", "log_every = 1")))
        assert a.rows[-1] == b.rows[-1] and min(r.loss for r in b.rows) < min(r.loss for r in a.rows)
        with pytest.raises(ConfigError, match=re.escape("records log at different cadences (log_every): [1, 50]")):
            compare([a, b])

    def test_belief_kernel_beats_variance_kernel_on_ramp(self):
        records = [
            run(parse_config(LGSC_TEMPLATE.format(optimizer=opt)))
            for opt in ("adaplus", "adamw")
        ]
        table = compare(records)
        assert table.best("final_mean").label == "adaplus"
        by_label = {row.label: row for row in table.rows}
        assert by_label["adaplus"].final_mean < by_label["adamw"].final_mean

    def test_records_that_share_an_optimizer_get_distinct_labels_and_one_mark_per_column(self):
        adaplus = run(parse_config(LGSC_TEMPLATE.format(optimizer="adaplus")))
        faster = run(parse_config(LGSC_TEMPLATE.format(optimizer="adaplus") + "lr = 0.01\n"))
        adamw = run(parse_config(LGSC_TEMPLATE.format(optimizer="adamw")))
        # the same record twice gives two equal rows, of which only the first is marked
        table = compare([adamw, faster, adaplus, faster])
        hashes = [r.config_hash[:12] for r in (faster, adaplus, faster)]
        assert [row.label for row in table.rows] == ["adamw", *(f"adaplus ({h})" for h in hashes)]
        lines = table.render().splitlines()
        final_col, best_col = lines[1].index("final_loss"), lines[1].index("best_loss")
        number = r"[* ] -?\d\.\d{6}e[+-]\d\d \+/- "
        for line, row in zip(lines[2:], table.rows, strict=True):
            assert line.startswith(row.label + " ")
            assert re.match(number, line[final_col:]) and re.match(number, line[best_col:])
        assert [line[final_col] for line in lines[2:]].count("*") == 1
        assert [line[best_col] for line in lines[2:]].count("*") == 1
        assert lines[3][final_col] == "*" and table.best("final_mean").label == f"adaplus ({hashes[0]})"
        # optimizers that all differ keep their ids as labels, in a column 14 wide
        lines = compare([adamw, adaplus]).render().splitlines()
        assert [line[:15] for line in lines[1:]] == ["optimizer      ", "adamw          ", "adaplus        "]

    def test_render_marks_best(self):
        records = [
            run(parse_config(LGSC_TEMPLATE.format(optimizer=opt)))
            for opt in ("adaplus", "adamw")
        ]
        text = compare(records).render()
        lines = text.splitlines()
        assert lines[0].startswith("problem: large_grad_small_curvature")
        adaplus_line = next(line for line in lines if line.startswith("adaplus"))
        assert "*" in adaplus_line


class TestCli:
    def write_config(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_run_writes_csv_and_exits_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, QUAD_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        produced = out / "run.csv"
        assert produced.exists()
        assert produced.read_text().splitlines()[0] == bench.CSV_HEADER
        assert "final loss" in capsys.readouterr().out

    def test_run_is_byte_identical_across_executions(self, tmp_path):
        cfg = self.write_config(tmp_path, QUAD_CONFIG)
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, QUAD_CONFIG + "\nbogus = 1\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", NEGATIVE_SEED_CONFIGS)
    def test_negative_seed_exits_one_naming_the_key(self, tmp_path, capsys, key):
        cfg = self.write_config(tmp_path, NEGATIVE_SEED_CONFIGS[key])
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {key} must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_one(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1

    def test_out_that_is_a_file_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, QUAD_CONFIG)
        out = tmp_path / "out"
        out.write_text("")
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_compare_out_in_a_missing_directory_prints_the_table_and_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, QUAD_CONFIG)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
        capsys.readouterr()
        code = cli.main(["compare", "--inputs", str(tmp_path / "run.json"), "--out", str(tmp_path / "no" / "t.txt")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("problem:")
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("case", RUN_REJECTED_CONFIGS)
    def test_config_the_run_rejects_exits_one(self, tmp_path, capsys, case):
        text, message = RUN_REJECTED_CONFIGS[case]
        cfg = self.write_config(tmp_path, text)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        # one line, no traceback
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_exits_one_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(QUAD_CONFIG.replace("# one-dimensional", "# caf\xe9 one-dimensional").encode("latin-1"))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    def test_numerical_abort_exits_two_and_flags_output(self, tmp_path, capsys):
        text = """
problem = rosenbrock
problem.dim = 2
optimizer = sgdm
lr = 1e6
epochs = 1
steps_per_epoch = 100
seeds = 1
log_every = 1
"""
        cfg = self.write_config(tmp_path, text, name="diverge.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 2
        flagged = out / "diverge.aborted.json"
        assert flagged.exists()
        assert strict_json(flagged.read_text())["summary"]["aborted"] is True
        assert not (out / "diverge.csv").exists()

    def test_kernel_abort_exits_two_naming_each_seed_in_seed_order(self, tmp_path, capsys):
        # beta1 = 0 makes the belief residual g - m zero, so with eps = 0 the
        # step divides a nonzero m_hat by 0
        text = QUAD_CONFIG.replace("problem.dim = 1", "problem.dim = 3").replace("seeds = 1", "seeds = 2,1")
        cfg = self.write_config(tmp_path, text + "beta1 = 0\neps = 0\n", name="zero.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        doc = strict_json((out / "zero.aborted.json").read_text())
        assert doc["rows"] == [] and doc["summary"]["aborted"] is True
        reason = "; ".join(f"seed {seed}: non-finite value in delta_theta at step 1, element 0" for seed in (1, 2))
        assert doc["summary"]["abort_reason"] == reason
        assert capsys.readouterr().err.startswith(f"error: run aborted ({reason})\n")

    def test_loss_abort_of_every_seed_writes_strict_json(self, tmp_path, capsys):
        # the first step's rate overflows the loss of both seeds, so no seed logs a row
        text = """
problem = quadratic
problem.dim = 2
optimizer = adam
lr = 1e300
epochs = 1
steps_per_epoch = 3
seeds = 1,2
"""
        cfg = self.write_config(tmp_path, text, name="overflow.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        doc = strict_json((out / "overflow.aborted.json").read_text())
        reason = "seed 1: non-finite loss at step 1; seed 2: non-finite loss at step 1"
        assert doc["rows"] == [] and doc["summary"]["abort_reason"] == reason

    def test_overflowing_gradient_norm_aborts_instead_of_writing_inf(self, tmp_path, capsys):
        # after one step the loss, 4.5e306, and every gradient element are
        # finite, but the gradient's norm squares them and overflows
        text = """
problem = quadratic
problem.dim = 2
problem.condition_number = 100
optimizer = adam
lr = 3e152
epochs = 1
steps_per_epoch = 1
seeds = 1
"""
        cfg = self.write_config(tmp_path, text, name="steep.cfg")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 2
        assert not (out / "steep.csv").exists()
        doc = strict_json((out / "steep.aborted.json").read_text())
        assert doc["rows"] == [] and doc["summary"]["abort_reason"] == "seed 1: non-finite grad_norm at step 1"

    def test_compare_command(self, tmp_path, capsys):
        paths = []
        for opt in ("adaplus", "adamw"):
            cfg = self.write_config(tmp_path, LGSC_TEMPLATE.format(optimizer=opt), name=f"{opt}.cfg")
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
            paths.append(str(tmp_path / f"{opt}.json"))
        capsys.readouterr()
        table_out = tmp_path / "table.txt"
        assert cli.main(["compare", "--inputs", *paths, "--out", str(table_out)]) == 0
        text = table_out.read_text()
        assert "adaplus" in text and "adamw" in text
        assert capsys.readouterr().out.startswith("problem:")

    def test_compare_mismatched_problems_exits_one(self, tmp_path, capsys):
        cfg_a = self.write_config(tmp_path, QUAD_CONFIG, name="a.cfg")
        cfg_b = self.write_config(
            tmp_path, QUAD_CONFIG.replace("problem.dim = 1", "problem.dim = 2"), name="b.cfg"
        )
        for cfg in (cfg_a, cfg_b):
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
        code = cli.main(
            ["compare", "--inputs", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_compare_aborted_record_exits_one(self, tmp_path, capsys):
        cfg_ok = self.write_config(tmp_path, QUAD_CONFIG, name="ok.cfg")
        cfg_bad = self.write_config(tmp_path, DIVERGING_SGDM_CONFIG, name="bad.cfg")
        assert cli.main(["run", "--config", str(cfg_ok), "--out", str(tmp_path), "--format", "json"]) == 0
        assert cli.main(["run", "--config", str(cfg_bad), "--out", str(tmp_path), "--format", "json"]) == 2
        capsys.readouterr()
        code = cli.main(["compare", "--inputs", str(tmp_path / "ok.json"), str(tmp_path / "bad.aborted.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        assert captured.out == ""

    def test_compare_different_seed_sets_exits_one(self, tmp_path, capsys):
        cfg_a = self.write_config(tmp_path, QUAD_CONFIG, name="a.cfg")
        cfg_b = self.write_config(tmp_path, QUAD_CONFIG.replace("seeds = 1", "seeds = 2"), name="b.cfg")
        for cfg in (cfg_a, cfg_b):
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
        code = cli.main(["compare", "--inputs", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 1
        assert "seed sets" in capsys.readouterr().err

    def test_compare_different_step_budgets_exits_one(self, tmp_path, capsys):
        cfg_a = self.write_config(tmp_path, QUAD_CONFIG, name="a.cfg")
        cfg_b = self.write_config(tmp_path, QUAD_CONFIG.replace("epochs = 1", "epochs = 2"), name="b.cfg")
        for cfg in (cfg_a, cfg_b):
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
        code = cli.main(["compare", "--inputs", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 1
        assert "step budgets" in capsys.readouterr().err

    def test_compare_different_log_cadences_exits_one(self, tmp_path, capsys):
        cfg_a = self.write_config(tmp_path, QUAD_CONFIG, name="a.cfg")
        cfg_b = self.write_config(tmp_path, QUAD_CONFIG.replace("log_every = 50", "log_every = 1"), name="b.cfg")
        for cfg in (cfg_a, cfg_b):
            cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
        capsys.readouterr()
        code = cli.main(["compare", "--inputs", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: records log at different cadences (log_every): [1, 50]\n"

    def test_compare_malformed_record_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, QUAD_CONFIG)
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
        doc = json.loads((tmp_path / "run.json").read_text())
        doc["rows"] = [1]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["compare", "--inputs", str(tmp_path / "bad.json")]) == 1
        err = capsys.readouterr().err
        assert "bad.json" in err and "rows[0]" in err
        [line] = err.splitlines()
        assert line.startswith(f"error: {tmp_path / 'bad.json'}: field 'rows[0]'")
        # text that is not JSON, and bytes that are not UTF-8
        for name, payload, reason in (
            ("text.json", b"not json", "Expecting value: line 1 column 1 (char 0)"),
            ("bytes.json", b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        ):
            path = tmp_path / name
            path.write_bytes(payload)
            assert cli.main(["compare", "--inputs", str(path)]) == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {path}: {reason}")

    def test_compare_json_nested_too_deep_exits_one_naming_the_file(self, tmp_path, capsys):
        # json's decoder raises RecursionError, which is no ValueError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert cli.main(["compare", "--inputs", str(path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("case", UNCOVERED_SEEDS)
    def test_compare_record_whose_rows_do_not_cover_its_seeds_exits_one(self, tmp_path, capsys, case):
        seeds, message = UNCOVERED_SEEDS[case]
        for opt in ("adaplus", "adamw"):
            cfg = self.write_config(tmp_path, TWO_SEED_CONFIG.replace("adaplus", opt), name=f"{opt}.cfg")
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
        doc = json.loads((tmp_path / "adaplus.json").read_text())
        rows = [LogRow(*row) for row in doc["rows"]]
        doc["rows"] = [list(bench._row_values(row)) for row in cover_seeds(rows, seeds)]
        (tmp_path / "edited.json").write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["compare", "--inputs", str(tmp_path / "edited.json"), str(tmp_path / "adamw.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "field, value, message",
        [("rows.0.0", 1.7, "field 'rows[0]' must be int"),
         ("problem_id", ["quadratic"], "field 'problem_id' must be str"),
         ("config.seeds", [1], "field 'config.seeds' must be str"),
         ("summary.aborted", "false", "field 'summary.aborted' must be bool"),
         ("summary.wall_time_s", "x", "field 'summary.wall_time_s' must be float"),
         ("config.epochs", None, "missing required key 'epochs'")],
    )
    def test_compare_mistyped_record_exits_one_with_one_error_line(self, tmp_path, capsys, field, value, message):
        cfg = self.write_config(tmp_path, QUAD_CONFIG)
        cli.main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"])
        doc = json.loads((tmp_path / "run.json").read_text())
        edit_record(doc, field, value)
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["compare", "--inputs", str(tmp_path / "run.json"), str(tmp_path / "bad.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("case", EDITED_RAMP_RECORDS)
    def test_compare_reads_each_record_config_with_parse_config(self, tmp_path, capsys, case):
        edits, message = EDITED_RAMP_RECORDS[case]
        for name in ("ramp_adaplus", "ramp_adamw"):
            cfg = str(CONFIGS / f"{name}.cfg")
            assert cli.main(["run", "--config", cfg, "--out", str(tmp_path), "--format", "json"]) == 0
        inputs = [str(tmp_path / "ramp_adaplus.json"), str(tmp_path / "ramp_adamw.json")]
        capsys.readouterr()
        assert cli.main(["compare", "--inputs", *inputs]) == 0
        table = capsys.readouterr().out
        edited = write_edited_record(tmp_path / "edited.json", load_record(inputs[1]), *edits)
        code = cli.main(["compare", "--inputs", inputs[0], str(edited)])
        captured = capsys.readouterr()
        if message is None:
            assert code == 0 and captured.err == ""
            assert captured.out == table
        else:
            assert code == 1 and captured.out == ""
            [line] = captured.err.splitlines()
            assert line.startswith(f"error: {edited}: {message}")

    @pytest.mark.parametrize("case", SYNTAX_IN_CONFIG_VALUES)
    def test_compare_reads_record_config_values_as_they_are(self, tmp_path, capsys, ramp_record, case):
        edits, message = SYNTAX_IN_CONFIG_VALUES[case]
        path = write_edited_record(tmp_path / "edited.json", ramp_record, *edits)
        assert cli.main(["compare", "--inputs", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: field 'config': {message}\n"

    @NON_FINITE_LOSSES
    def test_compare_record_with_a_non_finite_loss_exits_one(self, tmp_path, capsys, ramp_record, loss):
        # json writes the loss as NaN, Infinity or -Infinity, none of which is
        # JSON, so load_record refuses the record naming the file and the constant
        path = tmp_path / "edited.json"
        emit(with_last_loss(ramp_record, loss), "json", path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["compare", "--inputs", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        constant = json.dumps(loss)
        assert captured.err == f"error: {path}: {constant} is not JSON\n"

    def test_compare_record_holding_non_json_constants_exits_one(self, tmp_path, capsys):
        # json.load reads Infinity and NaN; a record holding them is refused naming the first
        assert cli.main(["run", "--config", str(CONFIGS / "ramp_adamw.cfg"), "--out", str(tmp_path), "--format", "json"]) == 0
        good = tmp_path / "ramp_adamw.json"
        bad = write_edited_record(
            tmp_path / "bad.json", load_record(good), ("rows.3.5", math.inf), ("summary.wall_time_s", math.nan)
        )
        capsys.readouterr()
        assert cli.main(["compare", "--inputs", str(bad), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {bad}: Infinity is not JSON\n"

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest: OK" in out
        assert out.count("PASS") >= 10

    def test_selftest_fails_a_wrong_reduction(self, capsys, monkeypatch):
        # adaplus keeps its Nesterov numerator here, so it is not adabelief
        wrong = ("adaplus(wd=0) == adabelief", ("adaplus", {"weight_decay": 0.0}), ("adabelief", {}))
        monkeypatch.setattr(cli, "REDUCTIONS", cli.REDUCTIONS + (wrong,))
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "selftest reduction[adaplus(wd=0) == adabelief]: FAIL" in out
        assert out.endswith("selftest: 1 FAILURES\n")

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        # exit code 2 is reserved for numerical aborts
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", "x", "--out", str(tmp_path), "--format", "xml"])
        assert exc.value.code == 1
