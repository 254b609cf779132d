"""Golden outputs: the CSV and JSON records of each shipped IEEE-exact config, pinned by SHA-256.

The quadratic and ramp runs use only elementwise IEEE arithmetic and dot
products, so their CSV bytes are the same on every machine.  A change that
alters any bit of a trajectory (reordered arithmetic, a different reduction,
a skipped or repeated step) changes a digest here.  The logistic config is
left out: it goes through ``exp``, whose SIMD implementation varies between
CPUs.

The JSON digests are taken with ``wall_time_s`` set to 0.0, the one value of
a record that is not a function of its config.  They pin the JSON layout as
well as the numbers: key names and order, row lists, the summary and the
config pairs.

``quadratic_adaplus.cfg`` is pinned again under each other kernel and under
``sgdm`` without Nesterov: at its dim of 10 a lean step runs in Python
floats (``kernels.SCALAR_MAX``), so these digests pin every kernel's scalar
path.  They were taken when every lean step ran in ufuncs.

A short quadratic run under ``gaussian_additive`` noise is pinned as well:
its draws come from numpy's generator without ``exp``, so its bytes are
fixed for one numpy version, and the digest pins the noise's values.

The ``config_hash`` of every shipped config is pinned too: it is the SHA-256
of the canonical key/value text, so a change to a key, a default or the
text form of a value changes it.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from adaplus.bench import load_config, parse_config, record_to_csv, record_to_json, run
from adaplus.kernels import HyperParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN_SHA256 = {
    "quadratic_adaplus.cfg": "5ca30f793e8eecdd44ecde68f31184f4b15d2dd21ce3619c3cb48299d0f4e6a9",
    "ramp_adaplus.cfg": "754c089fc38ef3481deddab16c44f6ad701bd4e637c92bcf825eddb53bab87ac",
    "ramp_adamw.cfg": "ddb80541e7741c823c79870c480b60459866ef8c427e23d02341d5b410e375aa",
}

GOLDEN_JSON_SHA256 = {
    "quadratic_adaplus.cfg": "f1cd25b15d638e61e8e6bdd06b7117ff15aecf2b2ff8ee7b4a5ce65506e1f20d",
    "ramp_adaplus.cfg": "894ea72306780ee3ed9203a962d15269f8fc1388ea5cbf453940b6d2868bc444",
    "ramp_adamw.cfg": "d09af6d516a7e130a9ccfd1a5c7a22152348aaeb105213645fcf9b13deb4b9b9",
}

# quadratic_adaplus.cfg under (optimizer, HyperParams overrides)
KERNEL_GOLDEN_SHA256 = {
    ("adam", ()): "eb71a74451f3a7e7b88af2f39aa7e2f9e18b805ea3a90207052c8c253a40a2ee",
    ("nadam", ()): "439be6c9c74727d972aec75a11f970a08d49b55ea83bfb42fbead0fde0770397",
    ("adabelief", ()): "d8923121c706a4789878f85fd9c103110eb3cec5e864d809b8410af3c31b742b",
    ("sgdm", ()): "2c48ff3ad52d63bdc94976df5b129c117ee55464b68d157d80d9e12ceee0bfa3",
    ("sgdm", (("use_nesterov", False),)): "9c21e2dbbd06f891bc1118e0958683c331a47ad76e98348460f0e6e1624839be",
}

NOISY_QUADRATIC = """
problem = quadratic
problem.dim = 6
problem.condition_number = 10
optimizer = adaplus
epochs = 2
steps_per_epoch = 25
seeds = 1,2
log_every = 10
noise = gaussian_additive
noise.scale = 0.5
noise.seed = 3
"""
NOISY_QUADRATIC_SHA256 = "e821c006b3762232db8ed9e37b2753deb9ba3c2b01500ab35359d2704ec6083e"

CONFIG_HASHES = {
    "logistic_adaplus.cfg": "015e33d3f7a21e6d8a48a89f282d8ba80b5f74536b5459d26cecdbbd49b3af47",
    "quadratic_adaplus.cfg": "35d54dbc37280f73a6937e44c2cde8e391f1c2b49d83079c1f3bd0319504a6fe",
    "ramp_adamw.cfg": "4563858a0bfb1d5d40a6e7148da7b6c118202e2cd76f2c99a9e8538ed44a6c61",
    "ramp_adaplus.cfg": "50434be851ec095fc5b8384c40a1609f1904601da629ed5ac798ebec7c6c5116",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_shipped_config_csv_matches_golden_digest(name):
    record = run(load_config(CONFIGS / name))
    assert not record.summary.aborted
    digest = hashlib.sha256(record_to_csv(record).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON_SHA256))
def test_shipped_config_json_matches_golden_digest(name):
    record = run(load_config(CONFIGS / name))
    assert not record.summary.aborted
    record = replace(record, summary=replace(record.summary, wall_time_s=0.0))
    digest = hashlib.sha256(record_to_json(record).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_JSON_SHA256[name]


@pytest.mark.parametrize("optimizer, overrides", sorted(KERNEL_GOLDEN_SHA256))
def test_quadratic_config_under_each_kernel_matches_golden_digest(optimizer, overrides):
    config = replace(load_config(CONFIGS / "quadratic_adaplus.cfg"), optimizer=optimizer,
                     hp=HyperParams(**dict(overrides)))
    record = run(config)
    assert not record.summary.aborted
    digest = hashlib.sha256(record_to_csv(record).encode("utf-8")).hexdigest()
    assert digest == KERNEL_GOLDEN_SHA256[optimizer, overrides]


def test_noisy_quadratic_run_matches_golden_digest():
    # the noise is the noiseless gradient plus scale times standard normal draws
    record = run(parse_config(NOISY_QUADRATIC))
    assert not record.summary.aborted
    assert hashlib.sha256(record_to_csv(record).encode("utf-8")).hexdigest() == NOISY_QUADRATIC_SHA256


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_shipped_config_hash_matches_golden(name):
    assert load_config(CONFIGS / name).config_hash() == CONFIG_HASHES[name]
