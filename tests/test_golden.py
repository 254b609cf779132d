"""Golden outputs: the CSV of each shipped IEEE-exact config, pinned by SHA-256.

The quadratic and ramp runs use only elementwise IEEE arithmetic and dot
products, so their CSV bytes are the same on every machine.  A change that
alters any bit of a trajectory (reordered arithmetic, a different reduction,
a skipped or repeated step) changes a digest here.  The logistic config is
left out: it goes through ``exp``, whose SIMD implementation varies between
CPUs.
"""

import hashlib
from pathlib import Path

import pytest

from adaplus.bench import load_config, record_to_csv, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN_SHA256 = {
    "quadratic_adaplus.cfg": "5ca30f793e8eecdd44ecde68f31184f4b15d2dd21ce3619c3cb48299d0f4e6a9",
    "ramp_adaplus.cfg": "754c089fc38ef3481deddab16c44f6ad701bd4e637c92bcf825eddb53bab87ac",
    "ramp_adamw.cfg": "ddb80541e7741c823c79870c480b60459866ef8c427e23d02341d5b410e375aa",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_shipped_config_csv_matches_golden_digest(name):
    record = run(load_config(CONFIGS / name))
    assert not record.summary.aborted
    digest = hashlib.sha256(record_to_csv(record).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[name]
