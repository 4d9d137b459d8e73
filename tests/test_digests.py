"""The package's answers keep their bits: every digest of scripts/digests.py
equals the one recorded in tests/digests.json.

Other tests compare runs of the same code with each other; these compare
today's answers with recorded ones, computed under one pinned OpenBLAS
thread. The bits belong to one numpy build and one BLAS kernel, so where the
environment differs from the recorded one the tests skip and name the field
that differs. A change that moves bits on purpose regenerates the file with
``python3 scripts/digests.py``, which prints every digest that moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from semiconv import synth

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("digests", ROOT / "scripts" / "digests.py")
digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(digests)
RECORDED = json.loads(digests.FILE.read_text())


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    env = digests.environment()
    for key, want in sorted(RECORDED["environment"].items()):
        if env.get(key) != want:
            pytest.skip(f"digests recorded under {key} {want!r}, this environment has "
                        f"{env.get(key)!r}")
    with synth._one_blas_thread():
        return digests.compute(tmp_path_factory.mktemp("cli"))


@pytest.mark.parametrize("name", sorted(RECORDED["digests"]))
def test_digest_keeps_its_bits(computed, name):
    assert computed.get(name) == RECORDED["digests"][name]


def test_every_digest_is_recorded(computed):
    assert digests.moved(RECORDED["digests"], computed) == []


def test_moved_names_changed_added_and_gone_digests():
    assert digests.moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == \
        ["b", "c", "d"]
