"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_parse(self):
        for command in (
            "table1", "table2", "table3", "table4", "traffic",
            "ablations", "future-work", "generality", "duel", "energy",
            "autotune", "deviation", "all",
            "calibrate",
        ):
            args = build_parser().parse_args([command])
            assert args.command == command

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert tuple(args.shape) == (24, 16, 8)
        assert args.steps == 2

    def test_recommend_options(self):
        args = build_parser().parse_args(
            ["recommend", "-P", "8", "--shape", "64", "32", "16"]
        )
        assert args.processors == 8
        assert tuple(args.shape) == (64, 32, 16)

    def test_engine_fault_options(self):
        args = build_parser().parse_args(
            [
                "engine", "--faults", "crash@island=1,step=3",
                "corrupt@island=0,step=7", "--checkpoint-every", "5",
                "--checkpoint-dir", "ckpts", "--retries", "3",
                "--rollbacks", "4", "--mass-drift-limit", "1e-6",
            ]
        )
        assert args.faults == [
            "crash@island=1,step=3", "corrupt@island=0,step=7",
        ]
        assert args.checkpoint_every == 5
        assert args.checkpoint_dir == "ckpts"
        assert args.retries == 3
        assert args.rollbacks == 4
        assert args.mass_drift_limit == 1e-6
        assert not args.no_guards

    def test_engine_defaults_select_steady_state_mode(self):
        args = build_parser().parse_args(["engine"])
        assert args.faults is None
        assert args.checkpoint_every is None
        assert args.checkpoint_dir is None
        assert not args.tiled
        assert not args.autotune_blocks

    def test_engine_tiled_options(self):
        args = build_parser().parse_args(
            [
                "engine", "--tiled", "--block-shape", "16", "8", "8",
                "--intra-threads", "4", "--block-cache-kib", "1024",
                "--timings",
            ]
        )
        assert args.tiled
        assert tuple(args.block_shape) == (16, 8, 8)
        assert args.intra_threads == 4
        assert args.block_cache_kib == 1024
        assert args.timings


class TestEngineValidation:
    """Inconsistent engine flag mixes fail fast with a parser error."""

    def _error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    def test_block_shape_requires_tiled(self, capsys):
        err = self._error(
            capsys, ["engine", "--block-shape", "8", "8", "8"]
        )
        assert "--tiled" in err

    def test_intra_threads_require_tiled(self, capsys):
        err = self._error(capsys, ["engine", "--intra-threads", "2"])
        assert "blocks" in err

    def test_block_shape_must_fit_island_part(self, capsys):
        err = self._error(
            capsys,
            [
                "engine", "--tiled", "--shape", "32", "16", "8",
                "--islands", "2", "--block-shape", "64", "8", "8",
            ],
        )
        assert "exceeds the island part" in err

    def test_block_shape_extents_positive(self, capsys):
        err = self._error(
            capsys, ["engine", "--tiled", "--block-shape", "8", "0", "8"]
        )
        assert "positive" in err

    def test_faults_conflict_with_tiled(self, capsys):
        err = self._error(
            capsys,
            ["engine", "--tiled", "--faults", "crash@island=0,step=1"],
        )
        assert "fault-tolerant" in err

    def test_islands_must_be_positive(self, capsys):
        err = self._error(capsys, ["engine", "--islands", "0"])
        assert "--islands" in err

    @pytest.mark.parametrize("argv, axis", [
        (["--islands", "9"], "axis i"),
        (["--variant", "B", "--shape", "16", "8", "8", "--islands", "9"],
         "axis j"),
        (["--variant", "2D", "--grid", "9", "1"], "axis i"),
        (["--variant", "2D", "--grid", "1", "9"], "axis j"),
    ])
    def test_islands_must_fit_the_split_axis(self, capsys, argv, axis):
        err = self._error(
            capsys, ["engine", "--shape", "8", "8", "8", "--steps", "1"] + argv
        )
        assert axis in err
        assert "only 8 cells" in err


class TestCommands:
    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "B(paper)" in out

    def test_table4_output(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "sustained performance" in out

    def test_verify_passes(self, capsys):
        code = main(
            ["verify", "--shape", "14", "12", "8", "--islands", "2", "--steps", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 configurations bit-exact" in out

    def test_calibrate_output(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "616 B/point/step" in out
        assert "fused_flops" in out

    def test_recommend_output(self, capsys):
        assert main(["recommend", "-P", "4", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "best first" in out
        assert "islands" in out

    def test_engine_fault_run_recovers_bit_identical(self, capsys, tmp_path):
        code = main(
            [
                "engine", "--shape", "16", "12", "8", "--steps", "8",
                "--islands", "3",
                "--faults", "crash@island=1,step=2", "corrupt@island=0,step=5",
                "--checkpoint-every", "3",
                "--checkpoint-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Recovery report: 8/8 steps completed" in out
        assert "bit-identical to fault-free run: True" in out
        assert list(tmp_path.glob("*.npz"))  # checkpoints really landed

    def test_engine_tiled_run_bit_identical(self, capsys, tmp_path):
        json_path = tmp_path / "tiled.json"
        code = main(
            [
                "engine", "--tiled", "--shape", "16", "12", "8",
                "--steps", "2", "--islands", "2",
                "--block-shape", "5", "4", "8", "--intra-threads", "2",
                "--timings", "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical (all modes vs flat): True" in out
        assert "tiled+team" in out
        assert "critical path" in out
        import json

        written = json.loads(json_path.read_text())
        assert written["bit_identical"] is True
        assert set(written["modes"]) == {"flat", "tiled", "tiled+team"}

    def test_engine_fault_run_unrecoverable_exit_code(self, capsys):
        code = main(
            [
                "engine", "--shape", "16", "12", "8", "--steps", "6",
                "--islands", "2",
                "--faults", "crash@island=0,step=3,attempts=99",
                "--checkpoint-every", "2", "--retries", "1",
                "--rollbacks", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "UNRECOVERABLE" in out
