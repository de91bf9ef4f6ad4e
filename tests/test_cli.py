import json
import time

import pytest

from dagmix import graph
from dagmix.cli import IdMap, _output_file, main
from dagmix.dags import WALK_STEP_CAP
from dagmix.samplers import PosteriorSamples


def write_cycle4(path):
    path.write_text("0,1\n1,2\n2,3\n0,3\n")
    return path


def write_ratings(path, rows):
    path.write_text("".join(f"{u},{v}\n" for u, v in rows))
    return path


def drop_elapsed(csv_text):
    return ["," .join(line.split(",")[:-1]) for line in csv_text.strip().split("\n")]


class TestCount:
    def test_lattice_trees(self, capsys):
        assert main(["count", "--rows", "3", "--cols", "3", "--order", "first",
                     "--what", "trees"]) == 0
        assert capsys.readouterr().out.strip() == "192"

    def test_file_graph_orientations(self, tmp_path, capsys):
        g = write_cycle4(tmp_path / "g.csv")
        assert main(["count", "--graph", str(g), "--what", "orientations"]) == 0
        assert capsys.readouterr().out.strip() == "14"

    def test_tree_input(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        g.write_text("0,1\n1,2\n")
        assert main(["count", "--graph", str(g), "--what", "trees"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_ao_cap_is_runtime_failure(self, capsys):
        code = main(["count", "--rows", "4", "--cols", "4", "--order", "second",
                     "--what", "orientations"])
        assert code == 1
        assert "intractable" in capsys.readouterr().err

    def test_negative_ao_cap_is_usage_error(self, capsys):
        assert main(["count", "--rows", "2", "--cols", "2", "--what", "orientations",
                     "--ao-cap", "-1"]) == 2
        assert "--ao-cap must be at least 0, got -1" in capsys.readouterr().err

    def test_graph_and_lattice_conflict(self, tmp_path):
        g = write_cycle4(tmp_path / "g.csv")
        assert main(["count", "--graph", str(g), "--rows", "2", "--cols", "2",
                     "--what", "trees"]) == 2

    def test_empty_lattice_is_usage_error(self, capsys):
        assert main(["count", "--rows", "0", "--cols", "3", "--what", "trees"]) == 2
        assert "at least one row and one column" in capsys.readouterr().err

    def test_disconnected_graph_fails(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        g.write_text("0,1\n2,3\n")
        assert main(["count", "--graph", str(g), "--what", "trees"]) == 1
        assert "disconnected" in capsys.readouterr().err


class TestSimulate:
    def run_small(self, tmp_path, name="study.csv", extra=()):
        out = tmp_path / name
        code = main([
            "simulate", "--rows", "3", "--cols", "3", "--order", "second",
            "--beta-grid", "0.1", "--eta", "0.05", "--obs", "fixed:2",
            "--reps", "2", "--models", "mdgm-st", "--seed", "7",
            "--iters", "60", "--burnin", "30", "--out", str(out), *extra,
        ])
        return code, out

    def test_single_cell_csv(self, tmp_path):
        code, out = self.run_small(tmp_path)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "s0" and row[1] == "mdgm-st"
        assert float(row[2]) == 0.1 and float(row[3]) == 0.05
        assert (tmp_path / "study.csv.manifest.json").exists()

    def test_determinism_modulo_timing(self, tmp_path):
        _, a = self.run_small(tmp_path, "a.csv")
        _, b = self.run_small(tmp_path, "b.csv")
        assert drop_elapsed(a.read_text()) == drop_elapsed(b.read_text())

    def test_multi_beta_and_models(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main([
            "simulate", "--rows", "3", "--cols", "3", "--order", "first",
            "--beta-grid", "0.1,0.2", "--eta", "0.2", "--obs", "poisson:2.3",
            "--reps", "1", "--models", "mdgm-st,amrf", "--seed", "1",
            "--iters", "50", "--burnin", "20", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # 2 settings x 2 models
        assert lines[1].split(",")[4] == "2.3"  # lambda recorded

    def test_unknown_order_is_usage_error(self, tmp_path):
        code = main([
            "simulate", "--rows", "3", "--cols", "3", "--order", "third",
            "--beta-grid", "0.1", "--eta", "0.05", "--obs", "fixed:2",
            "--reps", "1", "--models", "mdgm-st", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_missing_required_flag(self, tmp_path):
        assert main(["simulate", "--rows", "3", "--cols", "3",
                     "--eta", "0.05", "--obs", "fixed:2", "--reps", "1",
                     "--models", "mdgm-st", "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_obs_spec(self, tmp_path):
        code = main([
            "simulate", "--rows", "3", "--cols", "3",
            "--beta-grid", "0.1", "--eta", "0.05", "--obs", "weekly:2",
            "--reps", "1", "--models", "mdgm-st", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_unknown_model(self, tmp_path):
        code = main([
            "simulate", "--rows", "3", "--cols", "3",
            "--beta-grid", "0.1", "--eta", "0.05", "--obs", "fixed:2",
            "--reps", "1", "--models", "mdgm-potts", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_every_cell_failed_still_writes_the_csv(self, tmp_path, capsys):
        # a one-update CFTP cap stalls every dataset draw
        code, out = self.run_small(tmp_path, extra=("--models", "mdgm-st,amrf", "--cftp-cap", "1"))
        assert code == 1
        assert "every cell failed" in capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [r[1] for r in rows] == ["mdgm-st", "amrf"]
        assert all(v == "nan" for r in rows for v in r[5:])

    def test_negative_true_beta_is_usage_error(self, tmp_path):
        code, out = self.run_small(tmp_path, extra=("--beta-grid", "0.1,-0.1"))
        assert code == 2
        assert not out.exists()


    def test_empty_lattice_is_usage_error(self, tmp_path, capsys):
        code, out = self.run_small(tmp_path, extra=("--rows", "0"))
        assert code == 2
        assert "at least one row and one column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        code, out = self.run_small(tmp_path, extra=("--threads", threads))
        assert code == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def setup_inputs(self, tmp_path):
        ratings = [(i, v) for i in range(9) for v in ([1, 1] if i % 3 == 0 else [0, 1])]
        data = write_ratings(tmp_path / "y.csv", ratings)
        return data

    def test_record_count_5000_minus_1000(self, tmp_path):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "samples.jsonl"
        code = main([
            "fit", "--rows", "3", "--cols", "3", "--order", "second",
            "--data", str(data), "--model", "mdgm-st", "--iters", "5000",
            "--burnin", "1000", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4001  # 4000 records + acceptance trailer
        rec = json.loads(lines[0])
        assert rec["iter"] == 1000 and len(rec["z"]) == 9
        assert "tree_edges" in rec
        trailer = json.loads(lines[-1])
        assert "acceptance" in trailer
        assert "cftp_horizons" not in trailer

    def test_exact_mrf_trailer_has_cftp_horizons(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "DOS_MAX_ENTRIES", 0)  # no table: exchange moves with CFTP
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "exact.jsonl"
        code = main([
            "fit", "--rows", "3", "--cols", "3", "--order", "second",
            "--data", str(data), "--model", "exact-mrf", "--iters", "60",
            "--burnin", "20", "--seed", "4", "--beta-max", "0.45", "--out", str(out),
        ])
        assert code == 0
        trailer = json.loads(out.read_text().strip().split("\n")[-1])
        horizons = trailer["cftp_horizons"]
        assert horizons and all(int(h) & (int(h) - 1) == 0 for h in horizons)
        assert all(isinstance(c, int) and c > 0 for c in horizons.values())
        assert sum(horizons.values()) <= trailer["acceptance"]["beta"][1] == 60

    def test_exact_mrf_under_the_table_cap_writes_no_horizons(self, tmp_path):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "exact.jsonl"
        code = main([
            "fit", "--rows", "3", "--cols", "3", "--order", "second",
            "--data", str(data), "--model", "exact-mrf", "--iters", "60",
            "--burnin", "20", "--seed", "4", "--beta-max", "0.45", "--out", str(out),
        ])
        assert code == 0
        trailer = json.loads(out.read_text().strip().split("\n")[-1])
        assert set(trailer) == {"acceptance", "eta_stalls"}

    @pytest.mark.parametrize("model", ["amrf", "mdgm-st"])
    def test_both_models_accepted_on_same_inputs(self, tmp_path, model):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / f"{model}.jsonl"
        code = main([
            "fit", "--rows", "3", "--cols", "3", "--order", "first",
            "--data", str(data), "--model", model, "--iters", "80",
            "--burnin", "40", "--seed", "4", "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("flag, value", [
        ("--beta-sd", "nan"), ("--beta-sd", "inf"), ("--beta-max", "inf"), ("--beta-max", "nan"),
    ])
    def test_non_finite_chain_setting_is_usage_error(self, tmp_path, flag, value):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "fit.jsonl"
        code = main([
            "fit", "--rows", "3", "--cols", "3", "--data", str(data), "--model", "amrf",
            "--iters", "20", "--burnin", "10", flag, value, "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_empty_lattice_is_usage_error(self, tmp_path, capsys):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "fit.jsonl"
        code = main(["fit", "--rows", "3", "--cols", "0", "--data", str(data),
                     "--model", "amrf", "--out", str(out)])
        assert code == 2
        assert "at least one row and one column" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_step_cap_ends_a_high_beta_tree_fit(self, tmp_path, capsys):
        # The chain starts at beta_max / 2 = 20. On a mixed field a tree walk
        # then needs about e^20 steps to leave a same-value region, and the
        # draw raises at its step cap instead: 0.1 s on a 2-core VM, stated as 30.
        rows = [(i, v) for i in range(64) for v in ([1, 1] if i * 5 % 7 < 3 else [0, 0])]
        data = write_ratings(tmp_path / "y.csv", rows)
        out = tmp_path / "fit.jsonl"
        start = time.perf_counter()
        code = main([
            "fit", "--rows", "8", "--cols", "8", "--order", "second",
            "--data", str(data), "--model", "mdgm-st", "--beta-max", "40",
            "--iters", "20", "--burnin", "10", "--out", str(out),
        ])
        assert time.perf_counter() - start < 30.0
        assert code == 1
        cap = WALK_STEP_CAP * 64
        assert f"error: WalkCapError: the tree draw took more than {cap} walk steps" in capsys.readouterr().err
        assert not out.exists()

    def test_side_outputs(self, tmp_path):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "fit.jsonl"
        main([
            "fit", "--rows", "3", "--cols", "3", "--order", "first",
            "--data", str(data), "--model", "amrf", "--iters", "60",
            "--burnin", "30", "--seed", "4", "--out", str(out),
        ])
        zmean = (tmp_path / "fit.jsonl.zmean.csv").read_text().strip().split("\n")
        assert zmean[0] == "unit_id,posterior_mean_z"
        assert len(zmean) == 10
        idmap = json.loads((tmp_path / "fit.jsonl.idmap.json").read_text())
        assert idmap == {str(i): i for i in range(9)}
        manifest = json.loads((tmp_path / "fit.jsonl.manifest.json").read_text())
        assert manifest["config"]["model"] == "amrf"

    def test_deterministic_outputs(self, tmp_path):
        data = self.setup_inputs(tmp_path)
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            main([
                "fit", "--rows", "3", "--cols", "3", "--order", "first",
                "--data", str(data), "--model", "mdgm-st", "--iters", "80",
                "--burnin", "40", "--seed", "4", "--out", str(out),
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_data_flag(self, tmp_path):
        assert main(["fit", "--rows", "3", "--cols", "3", "--model", "amrf",
                     "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_unknown_unit_id_reported(self, tmp_path, capsys):
        data = write_ratings(tmp_path / "y.csv", [(0, 1), (99, 0)])
        code = main([
            "fit", "--rows", "2", "--cols", "2", "--data", str(data),
            "--model", "amrf", "--iters", "40", "--burnin", "20",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 1
        assert "99" in capsys.readouterr().err

    def test_idmap_indices_must_be_the_graphs_units(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        g.write_text("0,1\n")
        (tmp_path / "ids.json").write_text(json.dumps({"a": 0, "b": 5}))
        data = write_ratings(tmp_path / "y.csv", [("a", 1), ("a", 0)])
        code = main([
            "fit", "--graph", str(g), "--idmap", str(tmp_path / "ids.json"),
            "--data", str(data), "--model", "amrf", "--iters", "20",
            "--burnin", "10", "--out", str(tmp_path / "fit.jsonl"),
        ])
        assert code == 2
        assert "0..1" in capsys.readouterr().err
        assert not (tmp_path / "fit.jsonl.zmean.csv").exists()

    def test_graph_file_with_idmap(self, tmp_path):
        g = write_cycle4(tmp_path / "g.csv")
        (tmp_path / "ids.json").write_text(json.dumps({"a": 0, "b": 1, "c": 2, "d": 3}))
        data = write_ratings(tmp_path / "y.csv", [("a", 1), ("a", 1), ("b", 0), ("c", 1)])
        out = tmp_path / "fit.jsonl"
        code = main([
            "fit", "--graph", str(g), "--idmap", str(tmp_path / "ids.json"),
            "--data", str(data), "--model", "mdgm-st", "--iters", "60",
            "--burnin", "30", "--out", str(out),
        ])
        assert code == 0
        zmean = (tmp_path / "fit.jsonl.zmean.csv").read_text()
        assert zmean.splitlines()[1].startswith("a,")

    def test_failed_write_leaves_old_outputs_intact(self, tmp_path, monkeypatch, capsys):
        data = self.setup_inputs(tmp_path)
        out = tmp_path / "fit.jsonl"
        args = ["fit", "--rows", "3", "--cols", "3", "--order", "first",
                "--data", str(data), "--model", "amrf", "--iters", "60",
                "--burnin", "30", "--out", str(out)]
        assert main([*args, "--seed", "4"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def torn_to_jsonl(self, fh):
            fh.write('{"iter": 30, "be')
            raise OSError("disk full")

        monkeypatch.setattr(PosteriorSamples, "to_jsonl", torn_to_jsonl)
        assert main([*args, "--seed", "5"]) == 1
        assert "disk full" in capsys.readouterr().err
        # every old output byte-identical, and no temporary file left behind
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestOutputFile:
    def test_replaces_only_when_complete(self, tmp_path):
        path = tmp_path / "out.csv"
        with _output_file(path) as fh:
            fh.write("first\n")
            assert not path.exists()
        assert path.read_text() == "first\n"
        with _output_file(path) as fh:
            fh.write("second\n")
            assert path.read_text() == "first\n"
        assert path.read_text() == "second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_raising_block_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\r\nbytes")
        with pytest.raises(KeyboardInterrupt):
            with _output_file(path) as fh:
                fh.write("partial")
                fh.flush()
                raise KeyboardInterrupt
        assert path.read_bytes() == b"old\r\nbytes"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


class TestCrossval:
    def test_smoke_run(self, tmp_path):
        ratings = [(i, v) for i in range(9) for v in (1, 0, 1)]
        data = write_ratings(tmp_path / "y.csv", ratings)
        out = tmp_path / "cv.csv"
        code = main([
            "crossval", "--rows", "3", "--cols", "3", "--order", "first",
            "--data", str(data), "--models", "mdgm-st,amrf", "--holdout", "1",
            "--iterations", "1", "--iters", "60", "--burnin", "30",
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iteration,model,mae"
        assert len(lines) == 3

    def test_empty_lattice_is_usage_error(self, tmp_path, capsys):
        data = write_ratings(tmp_path / "y.csv", [(0, 1), (1, 0)])
        out = tmp_path / "cv.csv"
        code = main(["crossval", "--rows", "-1", "--cols", "2", "--data", str(data),
                     "--models", "amrf", "--holdout", "1", "--iterations", "1", "--out", str(out)])
        assert code == 2
        assert "at least one row and one column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--holdout", "0"), ("--iterations", "0"),
                                             ("--iterations", "-2")])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        data = write_ratings(tmp_path / "y.csv", [(0, 1), (1, 0)])
        out = tmp_path / "cv.csv"
        args = {"--holdout": "1", "--iterations": "1", flag: value}
        code = main(["crossval", "--rows", "2", "--cols", "2", "--data", str(data),
                     "--models", "amrf", "--out", str(out)]
                    + [part for item in args.items() for part in item])
        assert code == 2
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_holdout_exceeds_rated_units(self, tmp_path, capsys):
        data = write_ratings(tmp_path / "y.csv", [(0, 1), (1, 0)])
        code = main([
            "crossval", "--rows", "2", "--cols", "2", "--data", str(data),
            "--models", "amrf", "--holdout", "3", "--iterations", "1",
            "--iters", "40", "--burnin", "20", "--out", str(tmp_path / "cv.csv"),
        ])
        assert code == 1
        assert "hold out" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "rows": 3, "cols": 3, "order": "first", "beta-grid": "0.1",
            "eta": 0.05, "obs": "fixed:2", "reps": 1, "models": "mdgm-st",
            "iters": 50, "burnin": 20, "seed": 5,
        }))
        out = tmp_path / "study.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "rows": 3, "cols": 3, "beta-grid": "0.1", "eta": 0.05,
            "obs": "fixed:2", "reps": 1, "models": "mdgm-st",
            "iters": 50, "burnin": 20, "seed": 5,
        }))
        out = tmp_path / "study.csv"
        code = main(["simulate", "--config", str(cfg), "--eta", "0.2",
                     "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[3]) == 0.2

    def test_config_equals_form(self, tmp_path):
        g = write_cycle4(tmp_path / "g.csv")
        data = write_ratings(tmp_path / "y.csv", [(0, 1), (0, 1), (1, 0), (2, 1), (3, 0)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(data), "model": "amrf",
                                   "iters": 20, "burnin": 10}))
        out = tmp_path / "samples.jsonl"
        assert main(["fit", "--graph", str(g), f"--config={cfg}", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11

    @pytest.mark.parametrize("key, value", [
        ("iters", 30.0), ("seed", 1.5), ("models", ["amrf"]), ("reps", True),
        ("eta", None), ("obs", {"fixed": 2}),
    ])
    def test_value_of_wrong_type_is_a_usage_error(self, key, value, tmp_path, capsys):
        # a number goes through the flag's own type, like the same text on the
        # command line; a list, object, boolean or null names its key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "rows": 3, "cols": 3, "beta-grid": "0.1", "eta": 0.05, "obs": "fixed:2",
            "reps": 1, "models": "mdgm-st", "iters": 50, "burnin": 20, "seed": 5, key: value,
        }))
        out = tmp_path / "study.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            assert repr(key) in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rows": 3, "colz": 3}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestIdMap:
    def test_identity(self):
        m = IdMap.identity(3)
        assert m.mapping == {"0": 0, "1": 1, "2": 2}
        assert m.name_of(2) == "2"

    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            IdMap({"a": 0, "b": 0})

    def test_json_roundtrip(self, tmp_path):
        m = IdMap({"north": 0, "south": 1})
        m.to_json(tmp_path / "ids.json")
        back = IdMap.from_json(tmp_path / "ids.json")
        assert back.mapping == m.mapping


def test_version_flag():
    assert main(["--version"]) == 0
