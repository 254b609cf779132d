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

The ``config_hash`` of every shipped config is pinned too: it is the SHA-256
of the canonical key/value text, so a change to a key, a default or the
text form of a value changes it.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from adaplus.bench import load_config, record_to_csv, record_to_json, run

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


@pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
def test_shipped_config_hash_matches_golden(name):
    assert load_config(CONFIGS / name).config_hash() == CONFIG_HASHES[name]
