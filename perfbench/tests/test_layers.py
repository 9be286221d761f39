"""The per-layer prediction table matches BENCHMARK.json."""

import json
from pathlib import Path

from layers import LAYERS

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_every_per_layer_metric_has_a_prediction():
    assert set(LAYERS) == {m["name"] for m in DECLARED["per_layer"]}


def test_predictions_name_declared_workloads_and_metrics():
    workloads = {w["name"] for w in DECLARED["workloads"]}
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    for layer in LAYERS.values():
        assert set(layer.workloads) <= workloads
        assert set(layer.moves) <= end_to_end
