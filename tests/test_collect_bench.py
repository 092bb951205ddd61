"""``tools/collect_bench.py --perfbench``: saved perfbench runs folded into a snapshot."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def collect_bench():
    spec = importlib.util.spec_from_file_location(
        "collect_bench", ROOT / "tools" / "collect_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOST = {"cpu_model": "cpu", "cpu_count": 2, "blas_threads": 1, "commit": "abc", "source_digest": "d"}


def _save(root: Path, name: str, **fields) -> None:
    result = {
        "workload": "hotspot-library",
        "seed": 1,
        "seconds": 10,
        "trace": 0,
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "setup_s": 3.0,
            "patterns": 100,
            "legality": 1.0,
            "diversity_h": 6.0,
            "peak_rss_mb": 90.0,
        },
        "host": HOST,
    }
    result.update(fields)
    path = root / result["workload"] / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result))


def test_medians_seeds_and_hosts(collect_bench, tmp_path):
    metrics = {"setup_s": 3.0, "patterns": 100, "legality": 1.0, "diversity_h": 6.0}
    for seed, setup in ((1, 3.0), (2, 5.0), (3, 4.0)):
        _save(
            tmp_path, f"s{seed}.json", seed=seed, failed=seed - 1,
            metrics={**metrics, "setup_s": setup, "peak_rss_mb": 90.0 + seed},
        )
    # A traced run and an incorrect run are not folded in.
    _save(tmp_path, "traced.json", trace=1, metrics={"legalize.s": 1.0})
    _save(tmp_path, "wrong.json", correct=False, seed=9)

    snapshot = collect_bench.collect_perfbench(tmp_path)
    workload = snapshot["hotspot-library"]
    assert (workload["seeds"], workload["runs"], workload["seconds"]) == ([1, 2, 3], 3, 10)
    assert (workload["attempted"], workload["failed"]) == (30, 3)
    assert workload["metrics"]["setup_s"] == {"median": 4.0, "unit": "s"}
    assert workload["metrics"]["peak_rss_mb"] == {"median": 92.0, "unit": "MB"}
    assert set(workload["metrics"]) == {
        "setup_s", "patterns", "legality", "diversity_h", "peak_rss_mb",
    }
    assert workload["hosts"] == [HOST]


def test_mixed_seconds_refused(collect_bench, tmp_path):
    _save(tmp_path, "a.json")
    _save(tmp_path, "b.json", seconds=20)
    with pytest.raises(ValueError, match="seconds"):
        collect_bench.collect_perfbench(tmp_path)


def test_cli_writes_both_parts(collect_bench, tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "metrics_table2.json").write_text(json.dumps({"speedup": 2.0}))
    _save(tmp_path / "perfbench", "a.json")
    out = tmp_path / "BENCH.json"
    code = collect_bench.main(
        ["LABEL", "--results", str(results), "--perfbench", str(tmp_path / "perfbench"),
         "--out", str(out)]
    )
    assert code == 0
    snapshot = json.loads(out.read_text())
    assert snapshot["benchmarks"] == {"table2": {"speedup": 2.0}}
    assert snapshot["perfbench"]["hotspot-library"]["runs"] == 1
    assert collect_bench.main(
        ["LABEL", "--results", str(results), "--perfbench", str(tmp_path / "empty"),
         "--out", str(tmp_path / "unused.json")]
    ) == 1
    assert not (tmp_path / "unused.json").exists()
