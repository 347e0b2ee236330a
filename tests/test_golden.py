"""Replay the golden CLI corpus in process.

tests/golden/cli.jsonl holds one record per CLI run (see
tests/golden/make_corpus.py). Exit codes and stderr must match exactly.
stdout must match once every number in it is cut out, so labels, keys,
verdicts and layout are exact; the numbers must then agree within
FLOAT_ULPS units in the last place plus FLOAT_ABS, the roundoff that
numpy 1.24 to 2.x and their BLAS builds may leave in a probability or
an eigenvalue. Integers such as shot counts match exactly under that
rule, since neighbouring integers lie far more than a few ulps apart.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).with_name("golden")))

from make_corpus import CORPUS, corpus_argvs, run  # noqa: E402

FLOAT_ULPS = 4
FLOAT_ABS = 1e-15

# JSON and CSV spellings of a number, NaN and the infinities included.
_NUMBER = re.compile(
    r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bNaN\b|-?\bInfinity\b|\bnan\b|-?\binf\b"
)

RECORDS = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def _numbers(text):
    return _NUMBER.sub("#", text), [float(m) for m in _NUMBER.findall(text)]


def _close(a, b):
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= FLOAT_ULPS * math.ulp(max(abs(a), abs(b))) + FLOAT_ABS


def assert_same_output(got, want):
    got_layout, got_nums = _numbers(got)
    want_layout, want_nums = _numbers(want)
    assert got_layout == want_layout
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got_nums, want_nums)) if not _close(g, w)]
    assert not bad, f"numbers differ (index, got, want): {bad[:5]}"


def test_corpus_lists_every_run():
    assert [r["argv"] for r in RECORDS] == corpus_argvs()


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay(record):
    got = run(record["argv"])
    assert got["code"] == record["code"]
    assert got["stderr"] == record["stderr"]
    assert_same_output(got["stdout"], record["stdout"])


def test_comparison_rejects_a_moved_number_or_label():
    text = '{"labels": ["id(+)"], "counts": [499], "probs": [0.25, 1e-17]}'
    assert_same_output(text.replace("1e-17", "-3e-17"), text)
    assert_same_output(text.replace("0.25", "0.25000000000000006"), text)
    for old, new in (("0.25", "0.25000000000001"), ("499", "500"), ("id(+)", "id(-)")):
        with pytest.raises(AssertionError):
            assert_same_output(text.replace(old, new), text)
