"""Self-test of the benchmark:  python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json

import pytest

import fingerprint
import run

TINY = run.Workload(
    "selftest",
    {"n_case": 5, "n_control": 5, "duration_s": 1.0, **run._SEPARATION},
    ("--features", "EgemapsLike88,CompareLike,NgramTfidf,Lexical")
    + run._README_FLAGS + ("--workers", "1"),
)


@pytest.fixture(scope="module")
def golden():
    bench = run.Bench(TINY, 0, golden=None, log=lambda line: None)
    result, raw = bench.train_eval(bench.corpus_dir())
    assert result.ok, result.problems
    return fingerprint.fingerprint(json.loads(raw))


def test_flipped_label_fails_the_run(golden):
    flipped = copy.deepcopy(golden)
    block = flipped[sorted(flipped)[0]]
    block["labels"] = ("H" if block["labels"][0] == "C" else "C") + block["labels"][1:]
    result = run.Bench(TINY, 0, flipped, log=lambda line: None).measure(0.1, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_metric_tolerance(golden):
    actual = copy.deepcopy(golden)
    metrics = actual[sorted(actual)[0]]["metrics"]["Binary"]
    metrics["f1"] += 1e-12
    assert fingerprint.compare(golden, actual) == []
    metrics["f1"] += 1e-6
    assert fingerprint.compare(golden, actual) != []
    metrics["f1"] = float("nan")
    assert fingerprint.compare(golden, actual) != []


def test_traced_run_emits_every_per_layer_metric(golden):
    result = run.Bench(TINY, 0, golden, log=lambda line: None).measure(0.1, trace=True)
    assert result["correct"] is True, result
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["dsp.decodes_per_recording"] == 2.0
    assert values["acoustic.llds_per_recording"] == 2.0
    assert values["dsp.read_wav_calls"] == 2 * 40  # 10 subjects x 4 tasks, two sets
