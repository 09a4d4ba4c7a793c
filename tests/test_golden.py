"""The census routes give the outputs recorded in ``golden/digests.json``.

The file is written by ``golden/write_digests.py``; see its docstring for
the canonical form and for when to rewrite it.
"""

import json

import pytest

from golden.write_digests import ALL_LABELS, LABELS, PATH, SLOW_LABELS, record

RECORDED = json.loads(PATH.read_text(encoding="utf-8"))


def test_the_recorded_labels_are_the_scripts_labels():
    assert sorted(RECORDED) == sorted(ALL_LABELS)


@pytest.mark.parametrize("label", sorted(LABELS) + [
    pytest.param(label, marks=pytest.mark.slow) for label in sorted(SLOW_LABELS)])
def test_census_output_matches_its_golden_digest(label):
    # the route, field and worker count as recorded, and the same sha256
    assert record(label) == RECORDED[label]
