import json
import re
from pathlib import Path

import layers
from run import END_TO_END
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_declared_metrics_match_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_names_are_valid_metric_names():
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in BENCHMARK[section]:
            assert NAME.match(entry["name"]), entry["name"]
