"""CLI smoke tests: generate -> library on disk -> inspect-library reads it back."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.library import PatternLibrary
from repro.pipeline import DiffPatternPipeline


@pytest.fixture(scope="module")
def smoke_args() -> list[str]:
    """Knobs that shrink the smoke scenario to unit-test scale.

    The CI bench-smoke job runs the scenario at its shipped scale; here it
    only has to prove the CLI wiring, so training is cut to seconds.
    """
    return ["--train-iterations", "40", "--training-patterns", "32", "--generate", "6"]


@pytest.fixture(scope="module")
def generated_library(tmp_path_factory, smoke_args):
    """One `generate --scenario smoke --out DIR` run shared by the tests."""
    out = tmp_path_factory.mktemp("cli") / "lib"
    code = main(["generate", "--scenario", "smoke", "--out", str(out), *smoke_args])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_resumable_library(self, generated_library):
        assert (generated_library / "manifests" / "main.json").exists()
        library = PatternLibrary(generated_library)
        assert library.num_chunks == 2               # 6 samples / chunks of 4
        assert library.fingerprint["num_samples"] == 6
        records = library.records_in_order()
        assert sum(r.num_sampled for r in records) == 6
        assert len(library.load_patterns()) == library.num_patterns

    def test_resume_replays_to_identical_library(self, generated_library, smoke_args, capsys):
        before = PatternLibrary(generated_library).summary()
        code = main(
            ["resume", "--scenario", "smoke", "--out", str(generated_library), *smoke_args]
        )
        assert code == 0
        assert PatternLibrary(generated_library).summary() == before
        assert "legal patterns" in capsys.readouterr().out

    def test_fingerprint_mismatch_is_a_clean_error(self, generated_library, smoke_args, capsys):
        code = main(
            ["resume", "--scenario", "smoke", "--out", str(generated_library),
             *smoke_args[:-2], "--generate", "7"]      # different run shape
        )
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_resume_without_out_rejected(self, smoke_args, capsys):
        code = main(["generate", "--scenario", "smoke", "--resume", *smoke_args])
        assert code == 1
        assert "--out" in capsys.readouterr().err


class TestInspectLibrary:
    def test_reads_back_summary_and_chunks(self, generated_library, capsys):
        code = main(["inspect-library", str(generated_library), "--chunks"])
        assert code == 0
        out = capsys.readouterr().out
        library = PatternLibrary(generated_library)
        assert f"patterns           {library.num_patterns}" in out
        assert "fingerprint:" in out
        assert "shard" in out                        # chunk table header
        for record in library.records_in_order():
            assert f"\n{record.chunk:>5} " in out

    def test_missing_library_is_a_clean_error(self, tmp_path, capsys):
        code = main(["inspect-library", str(tmp_path / "nope")])
        assert code == 1
        assert "manifest.json" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_builtins(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "paper-tables", "fewstep-tables", "dense",
                     "sparse", "rule-migration", "hotspot-expansion"):
            assert name in out

    def test_shows_sampler_for_fewstep_builtins(self, capsys):
        # Scenarios that stride the sampler say so; full-chain ones stay
        # silent (the engine line already covers their knobs).
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert out.count("sampler=6/32 steps") == 2   # fewstep-tables, hotspot-expansion
        lines = out.splitlines()
        smoke_detail = lines[next(i for i, ln in enumerate(lines)
                                  if ln.startswith("smoke")) + 1]
        assert "sampler=" not in smoke_detail

    def test_scenario_file_shows_up(self, tmp_path, capsys):
        path = tmp_path / "extra.toml"
        path.write_text('[my-run]\nextends = "smoke"\ndescription = "mine"\n')
        assert main(["list-scenarios", "--scenario-file", str(path)]) == 0
        assert "my-run" in capsys.readouterr().out

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        code = main(["generate", "--scenario", "nope"])
        assert code == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_metrics(self, tmp_path, smoke_args, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["bench", "--scenario", "smoke", "--metrics", str(metrics_path), *smoke_args]
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["scenario"] == "smoke"
        assert metrics["num_generated"] == 6
        assert metrics["sampling_samples_per_second"] > 0
        assert metrics["sampling_steps"] == metrics["sampling_chain_steps"] == 8
        assert metrics["sampling_model_evals"] >= 8
        assert "sampling stage:" in capsys.readouterr().out

    def test_steps_flag_strides_the_sampler(self, tmp_path, smoke_args, capsys):
        metrics_path = tmp_path / "strided.json"
        code = main(
            ["bench", "--scenario", "smoke", "--steps", "3",
             "--metrics", str(metrics_path), *smoke_args]
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["sampling_steps"] == 3
        assert metrics["sampling_chain_steps"] == 8
        out = capsys.readouterr().out
        assert "3 of 8 steps (respaced)" in out

    def test_invalid_steps_is_a_clean_error(self, smoke_args, capsys):
        code = main(["generate", "--scenario", "smoke", "--steps", "99", *smoke_args])
        assert code == 1
        assert "sampling.steps" in capsys.readouterr().err


class TestServeWiring:
    """`repro serve` is registered and list-scenarios flags servability."""

    def test_serve_subcommand_parses(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.max_pending == 8
        assert args.max_batch == 64

    def test_serve_knobs_parse(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9999",
             "--max-pending", "3", "--max-batch", "16"]
        )
        assert (args.host, args.port) == ("0.0.0.0", 9999)
        assert (args.max_pending, args.max_batch) == (3, 16)

    def test_list_scenarios_notes_servability(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        # Every listed scenario carries a servability note; tiny presets
        # advertise the fast warmup, heavier ones warn about training cost.
        assert out.count("servable (") >= 7
        assert "fast warmup on first request" in out
        assert "heavy warmup, trains at first request" in out


class TestV2CliSurface:
    @pytest.fixture(scope="class")
    def v2_library(self, tmp_path_factory, smoke_args):
        out = tmp_path_factory.mktemp("cli-v2") / "lib"
        code = main(
            ["generate", "--scenario", "smoke", "--out", str(out),
             "--writer", "alpha", "--dedup", *smoke_args]
        )
        assert code == 0
        return out

    def test_writer_flag_builds_v2_layout(self, v2_library):
        assert (v2_library / "manifests" / "alpha.json").exists()
        assert not (v2_library / "manifest.json").exists()

    def test_writer_without_out_rejected(self, smoke_args, capsys):
        code = main(["generate", "--scenario", "smoke", "--writer", "w", *smoke_args])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_inspect_shows_v2_layout_and_query(self, v2_library, capsys):
        code = main(
            ["inspect-library", str(v2_library), "--chunks", "--band", "0:",
             "--limit", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "writers            alpha\n" in out
        assert "index" in out
        assert "query matched" in out
        assert "seq" in out

    def test_inspect_bad_band_is_a_clean_error(self, v2_library, capsys):
        assert main(["inspect-library", str(v2_library), "--band", "oops"]) == 1
        assert "--band" in capsys.readouterr().err

    def test_compact_library_roundtrip(self, v2_library, capsys):
        before = PatternLibrary(v2_library).num_patterns
        code = main(["compact-library", str(v2_library)])
        assert code == 0
        out = capsys.readouterr().out
        assert "compacted pattern library" in out
        assert PatternLibrary(v2_library).num_patterns == before
        # inspecting after compaction still works end to end
        assert main(["inspect-library", str(v2_library)]) == 0

    def test_compact_missing_library_is_a_clean_error(self, tmp_path, capsys):
        assert main(["compact-library", str(tmp_path / "nope")]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_serve_parser_takes_library(self):
        args = build_parser().parse_args(["serve", "--library", "/tmp/lib"])
        assert str(args.library) == "/tmp/lib"


@pytest.mark.parametrize(
    "setting", ["num_states = 3", 'transition_kind = "absorbing"'],
    ids=["num_states", "transition_kind"],
)
def test_scenario_file_with_a_removed_diffusion_key_fails_before_work(
    tmp_path, monkeypatch, capsys, setting
):
    # The chain is binary-only: a removed key is refused before data
    # synthesis and training.
    calls = []
    for stage in ("prepare_data", "train"):
        monkeypatch.setattr(
            DiffPatternPipeline, stage, lambda *args, **kwargs: calls.append(args)
        )
    path = tmp_path / "multi.toml"
    path.write_text(f'[multi]\nextends = "smoke"\n[multi.diffusion]\n{setting}\n')
    assert main(["generate", "--scenario-file", str(path), "--scenario", "multi"]) == 1
    captured = capsys.readouterr()
    assert "[1/3]" not in captured.out
    assert calls == []
    assert setting.split()[0] in _one_error_line(captured.err)


def _one_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestLibraryOpensBeforeTraining:
    """`generate`/`resume` open the output library before any data or
    training, so a library that cannot be opened costs nothing."""

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            DiffPatternPipeline, "train", lambda *args, **kwargs: calls.append(args)
        )
        return calls

    def _expect_error(self, argv, capsys, train_calls) -> str:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "[1/3]" not in captured.out
        assert train_calls == []
        return _one_error_line(captured.err)

    def test_bad_writer_id(self, tmp_path, smoke_args, capsys, train_calls):
        error = self._expect_error(
            ["generate", "--scenario", "smoke", "--out", str(tmp_path / "lib"),
             "--writer", "../evil", *smoke_args],
            capsys, train_calls,
        )
        assert "writer id" in error
        assert not (tmp_path / "lib").exists()

    def test_corrupt_ledger(self, tmp_path, smoke_args, capsys, train_calls):
        (tmp_path / "lib" / "manifests").mkdir(parents=True)
        (tmp_path / "lib" / "manifests" / "main.json").write_text("{not json")
        error = self._expect_error(
            ["resume", "--scenario", "smoke", "--out", str(tmp_path / "lib"), *smoke_args],
            capsys, train_calls,
        )
        assert "main.json" in error

    def test_v1_directory(self, tmp_path, smoke_args, capsys, train_calls, write_v1_library):
        root = write_v1_library(tmp_path / "lib", [])
        error = self._expect_error(
            ["resume", "--scenario", "smoke", "--out", str(root), *smoke_args],
            capsys, train_calls,
        )
        assert "compact-library" in error


class TestV1Library:
    def test_refused_then_migrated_by_compact_library(
        self, tmp_path, capsys, write_v1_library
    ):
        from repro.library import ChunkRecord
        from repro.squish import SquishPattern

        topology = np.eye(2, dtype=np.uint8)
        pattern = SquishPattern(topology, np.array([64, 64]), np.array([48, 80]))
        record = ChunkRecord(
            chunk=0, start=0, num_sampled=1, num_kept=1, num_rejected=0,
            unsolved=0, num_patterns=1, num_stored=0, duplicates_skipped=0,
            num_clean=1, shard=None,
        )
        root = write_v1_library(tmp_path / "lib", [(record, [pattern])])
        assert main(["inspect-library", str(root)]) == 1
        assert "compact-library" in _one_error_line(capsys.readouterr().err)

        assert main(["compact-library", str(root)]) == 0
        out = capsys.readouterr().out
        assert "migrated               1\n" in out
        assert not (root / "manifest.json").exists()
        assert main(["inspect-library", str(root)]) == 0
        assert "writers            legacy\n" in capsys.readouterr().out
