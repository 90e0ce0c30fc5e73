"""Smoke test of the benchmark at tiny sizes: grid(3), star(5), nested_pair(2).

Run from the repository root (it is not part of the library's test suite):

    python3 -m pytest bench/tests
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, tmp_path, workload, trace, reference):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.1",
                     "--trace", str(trace)],
                    tiny=True, reference_path=str(reference),
                    work=os.path.relpath(str(tmp_path), run.ROOT))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit_and_nothing_fails(capsys, tmp_path, workload,
                                                                   trace):
    detail, result = _run(capsys, tmp_path, workload, trace, tmp_path / "none.json")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_frac"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_reference_digest_counts_as_a_failure(capsys, tmp_path, workload):
    ref = tmp_path / "reference.json"
    run.record_reference([workload], [0], str(ref), tiny=True,
                         work=os.path.relpath(str(tmp_path), run.ROOT))
    detail, clean = _run(capsys, tmp_path, workload, 0, ref)
    assert detail["reference"] is not None and clean["failed"] == 0

    data = json.loads(ref.read_text())
    (key,) = data
    data[key][sorted(data[key])[0]]["stdout"] = "0" * 64
    ref.write_text(json.dumps(data))
    _, broken = _run(capsys, tmp_path, workload, 0, ref)
    assert not broken["correct"] and broken["failed"] >= 1
