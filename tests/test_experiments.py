"""Experiment harness: presets, single runs, report, CLI, tables."""

import io
from contextlib import redirect_stdout

import pytest

from repro.api import RunOptions, simulate
from repro.cli import main
from repro.config import NetworkConfig, Protocol
from repro.errors import ExperimentError
from repro.experiments import (
    get_preset,
    preset_config,
    render_table,
    table1_tone_spec,
    table2_parameters,
    write_csv,
)


class TestPresets:
    def test_full_matches_table2(self):
        cfg = preset_config("full", Protocol.PURE_LEACH)
        assert cfg.n_nodes == 100
        assert cfg.energy.initial_energy_j == 10.0
        assert cfg.leach.round_duration_s == 20.0

    def test_quick_is_smaller(self):
        full = preset_config("full", Protocol.PURE_LEACH)
        quick = preset_config("quick", Protocol.PURE_LEACH)
        assert quick.n_nodes < full.n_nodes
        assert quick.energy.initial_energy_j < full.energy.initial_energy_j

    def test_load_and_seed_wired(self):
        cfg = preset_config("smoke", Protocol.CAEM_FIXED, load_pps=17.0, seed=5)
        assert cfg.traffic.packets_per_second == 17.0
        assert cfg.seed == 5
        assert cfg.protocol is Protocol.CAEM_FIXED

    def test_unknown_preset(self):
        with pytest.raises(ExperimentError):
            get_preset("galactic")


class TestRunner:
    def test_run_scenario_collects_everything(self):
        cfg = preset_config("smoke", Protocol.PURE_LEACH)
        run = simulate(cfg, RunOptions(horizon_s=20.0, sample_interval_s=2.0))
        assert run.protocol == "pure_leach"
        assert len(run.sample_times_s) == len(run.mean_energy_j)
        assert len(run.alive_counts) == len(run.sample_times_s)
        assert run.generated > 0 and run.delivered > 0
        assert run.total_consumed_j > 0
        assert run.energy_per_packet_j > 0
        assert 0 < run.delivery_rate <= 1.0
        assert run.wall_time_s > 0
        assert len(run.death_times_s) == cfg.n_nodes

    def test_energy_series_decreasing(self):
        cfg = preset_config("smoke", Protocol.CAEM_ADAPTIVE)
        run = simulate(cfg, RunOptions(horizon_s=15.0, sample_interval_s=1.0))
        assert run.mean_energy_j[0] > run.mean_energy_j[-1]

    def test_stop_when_dead(self):
        cfg = preset_config("smoke", Protocol.PURE_LEACH)
        run = simulate(cfg, RunOptions(
            horizon_s=500.0, sample_interval_s=2.0, stop_when_dead=True
        ))
        # Smoke tier batteries (0.5 J) cannot last 500 s.
        assert run.lifetime_s is not None
        assert run.sample_times_s[-1] < 500.0

    def test_collect_queues(self):
        cfg = preset_config("smoke", Protocol.CAEM_FIXED)
        run = simulate(cfg, RunOptions(
            horizon_s=10.0, sample_interval_s=2.0, collect_queues=True
        ))
        assert run.queue_snapshots
        assert all(isinstance(s, list) for s in run.queue_snapshots)

    def test_bad_horizon(self):
        with pytest.raises(ExperimentError):
            simulate(preset_config("smoke", Protocol.PURE_LEACH),
                     RunOptions(horizon_s=0.0))


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [10, None]])
        lines = text.strip().splitlines()
        assert lines[0].startswith("a")
        assert "—" in lines[-1]

    def test_row_width_checked(self):
        with pytest.raises(ExperimentError):
            render_table(["a"], [[1, 2]])

    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["x", "y"], [[1, 2.0], [3, None]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,2.0"
        assert lines[2] == "3,"


class TestTables:
    def test_table1_rows(self):
        t = table1_tone_spec()
        assert t.figure_id == "table1"
        states = t.series("state")
        assert states == ["idle", "receive", "transmit", "collision"]
        durations = t.series("pulse duration (ms)")
        assert durations == [1.0, 0.5, 0.5, 0.5]

    def test_table2_tracks_config(self):
        t = table2_parameters(NetworkConfig(n_nodes=42))
        rows = dict(zip(t.series("parameter"), t.series("value")))
        assert rows["Number of nodes"] == 42
        assert rows["Transmit power (data)"] == "0.66 W"
        assert rows["Buffer size"] == "50 packets"

    def test_series_unknown_column(self):
        with pytest.raises(ExperimentError):
            table1_tone_spec().series("nonexistent")


class TestCli:
    def _run(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    def test_table1(self):
        code, out = self._run("table1")
        assert code == 0 and "idle" in out and "50" in out

    def test_table2(self):
        code, out = self._run("table2")
        assert code == 0 and "0.66 W" in out

    def test_fig8_smoke(self):
        code, out = self._run("fig8", "--preset", "smoke")
        assert code == 0
        assert "pure LEACH" in out and "Scheme 2" in out

    def test_csv_output(self, tmp_path):
        code, out = self._run("table1", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("run", "fig8", "--jobs", "2"),
        ("run", "fig8", "--retries", "1"),
        ("run", "fig8", "--cell-timeout", "5"),
        ("serve", "--jobs", "2"),
    ])
    def test_removed_execution_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_bench_command_is_a_usage_error(self, capsys):
        # "bench" is no command, so the pre-registry alias reads it as
        # "run bench", and argparse rejects the experiment name.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--tier", "quick", "--fail-threshold", "2.0"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_cli_run_accepts_profile(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "table1", "--profile", "out.pstats"]
        )
        assert args.profile == "out.pstats"

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            self._run("fig99")
