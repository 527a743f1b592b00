import hashlib
import json

import pytest
from conftest import kernels

from dmlbench.cli import main
from dmlbench.encoder import load_encoder
from dmlbench.harness import FoldPlan, load_dataset, make_fold_plans
from dmlbench.proxies import load_proxies


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.tsv"
    assert main(["synth", "--classes", "2", "--size", "60", "--noise", "0.1",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


class TestSynthCommand:
    def test_writes_loadable_dataset(self, data_file):
        ds = load_dataset(data_file)
        assert ds.size == 60
        assert ds.num_classes == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for out in (a, b):
            main(["synth", "--size", "30", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestFoldsCommand:
    def test_stdout_json(self, data_file, capsys):
        assert main(["folds", "--data", str(data_file), "--folds", "3",
                     "--shots", "20", "--seed", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["shot"] == 20 and obj["master_seed"] == 3 and obj["num_folds"] == 3
        plans = make_fold_plans(load_dataset(data_file).labels, 3, 20, 3)
        assert [FoldPlan(**f) for f in obj["folds"]] == plans

    def test_file_output_byte_identical(self, data_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["folds", "--data", str(data_file), "--folds", "2", "--shots", "20"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_shot_value(self, data_file):
        assert main(["folds", "--data", str(data_file), "--shots", "37"]) == 2


class TestTrainEvalCommands:
    def test_train_eval_round_trip(self, data_file, tmp_path, capsys):
        # softtriple's bank has --k proxies per class; both checkpoints score blended
        for loss, flags, per_class in (("proxyanchor", [], 1), ("softtriple", ["--k", "3"], 3)):
            enc = tmp_path / f"{loss}.enc"
            prox = tmp_path / f"{loss}.prox"
            log = tmp_path / f"{loss}.json"
            code = main([
                "train", "--data", str(data_file), "--loss", loss, *flags,
                "--beta", "0.5", "--epochs", "2", "--out-encoder", str(enc),
                "--out-proxies", str(prox), "--out-log", str(log),
            ])
            assert code == 0
            assert f"trained {loss}" in capsys.readouterr().out
            params = load_encoder(enc)
            bank = load_proxies(prox)
            assert params.num_classes == 2 and bank.classes == 2
            assert bank.proxies_per_class == per_class
            assert json.loads(log.read_text())["config"]["epochs"] == 2

            assert main(["eval", "--data", str(data_file), "--encoder", str(enc)]) == 0
            result = json.loads(capsys.readouterr().out)
            assert set(result) == {"macro_f1", "per_class_f1", "confusion", "n_test"}
            assert result["n_test"] == 60

            assert main(["eval", "--data", str(data_file), "--encoder", str(enc),
                         "--proxies", str(prox), "--blended", "--beta-inf", "0.5"]) == 0
            blended = json.loads(capsys.readouterr().out)
            assert 0.0 <= blended["macro_f1"] <= 1.0

    def test_proxyfree_loss_refuses_proxy_output(self, data_file, tmp_path, capsys, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("trained before refusing")

        monkeypatch.setattr("dmlbench.cli.train", no_train)
        code = main([
            "train", "--data", str(data_file), "--loss", "supcon",
            "--epochs", "1", "--out-proxies", str(tmp_path / "p.bin"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--loss", "softtriple", "--lam", "0"], "st_lambda must be positive"),
            (["--loss", "triplet", "--margin", "-1"], "margin must be >= 0"),
        ],
    )
    def test_bad_loss_field_is_refused_before_training(
        self, data_file, capsys, monkeypatch, flags, message
    ):
        def no_train(*args, **kwargs):
            raise AssertionError("trained before refusing")

        monkeypatch.setattr("dmlbench.cli.train", no_train)
        assert main(["train", "--data", str(data_file), *flags, "--epochs", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_blended_eval_needs_proxies(self, data_file, tmp_path, capsys):
        enc = tmp_path / "enc.bin"
        main(["train", "--data", str(data_file), "--epochs", "1",
              "--out-encoder", str(enc)])
        capsys.readouterr()
        assert main(["eval", "--data", str(data_file), "--encoder", str(enc),
                     "--blended"]) == 2

    def test_truncated_encoder_header(self, data_file, tmp_path, capsys):
        enc = tmp_path / "short.enc"
        enc.write_bytes(b"ENC1" + b"\x00" * 3)
        assert main(["eval", "--data", str(data_file), "--encoder", str(enc)]) == 2
        assert "error:" in capsys.readouterr().err


class TestGridReportCommands:
    def test_grid_and_report(self, data_file, tmp_path, capsys):
        # the desk grids: npairs sweeps beta only; softtriple's has st_k 5
        for loss, n_points, rows in (
            ("npairs", 5, ["cce", "npairs"]),
            ("softtriple", 20, ["cce", "softtriple", "softtriple+inf"]),
        ):
            report_path = tmp_path / f"{loss}.json"
            code = main([
                "grid", "--data", str(data_file), "--loss", loss,
                "--folds", "2", "--shots", "20", "--epochs", "1",
                "--seed", "3", "--out", str(report_path),
            ])
            assert code == 0
            table = capsys.readouterr().out
            assert table.startswith("loss")
            assert loss in table

            report = json.loads(report_path.read_text())
            assert report["grid"]["n_points"] == n_points
            assert [row["name"] for row in report["rows"]] == rows
            assert report["num_folds"] == 2

            assert main(["report", "--report", str(report_path), "--format", "csv"]) == 0
            csv_out = capsys.readouterr().out
            assert csv_out.startswith("name,fold,macro_f1")
            # one row per (loss row, fold) pair plus the header
            assert len(csv_out.strip().split("\n")) == 1 + 2 * len(report["rows"])

            assert main(["report", "--report", str(report_path), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("content", ["object", "list", "fold plan"])
    def test_report_refuses_what_is_not_a_report(self, content, fmt, data_file, tmp_path, capsys):
        path = tmp_path / "not_a_report.json"
        if content == "fold plan":
            assert main(["folds", "--data", str(data_file), "--folds", "2",
                         "--out", str(path)]) == 0
        else:
            path.write_text("{}" if content == "object" else "[1, 2]", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize(
        "field, value",
        [("p_value", "x"), ("per_fold", 3), ("per_fold", [1.0, "x"]), ("name", 7),
         ("mean", None), ("std", True)],
    )
    def test_report_refuses_rows_of_the_wrong_types(self, field, value, fmt, tmp_path, capsys):
        row = {"name": "cce", "per_fold": [1.0], "mean": 1.0, "std": 0.0, "p_value": None}
        path = tmp_path / "bad_types.json"
        path.write_text(json.dumps({"rows": [row, {**row, field: value}]}), encoding="utf-8")
        assert main(["report", "--report", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"row 1 {field} must be" in captured.err

    @pytest.mark.parametrize("loss", ["triplet", "proxyanchor"])
    def test_grid_rejects_beta_inf_outside_the_unit_interval(self, loss, data_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "grid", "--data", str(data_file), "--loss", loss, "--folds", "2", "--shots", "20",
            "--epochs", "1", "--beta-inf", "2", "--out", str(report_path),
        ])
        assert code == 2
        captured = capsys.readouterr()
        # refused before any cell, so the message names none
        assert captured.out == "" and captured.err == "error: beta_inf must lie in [0, 1]\n"
        assert not report_path.exists()

    def test_grid_rejects_cce(self, data_file, capsys):
        assert main(["grid", "--data", str(data_file), "--loss", "cce"]) == 2
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_small_run_passes(self, capsys):
        assert main(["gradcheck", "--instances", "2", "--seed", "17"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert all(" ok " in line for line in lines)


class TestConfigFile:
    def test_precedence_flag_over_file_over_default(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 30, "noise": 0.0}), encoding="utf-8")
        out = tmp_path / "ds.tsv"
        # --size wins over the file; the file's noise wins over the default
        assert main(["synth", "--config", str(cfg), "--size", "20",
                     "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.size == 20
        assert all(not w.startswith("n") for t in ds.texts for w in t.split())

    def test_keys_that_name_no_flag_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 30, "func": 1, "command": "grid", "folds": 3}),
                       encoding="utf-8")
        out = tmp_path / "ds.tsv"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_dataset(out).size == 30

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out",
                     str(tmp_path / "x.tsv")]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_data_file(self, capsys):
        assert main(["folds", "--data", "/nonexistent/path.tsv"]) == 2
        assert "error:" in capsys.readouterr().err


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestOutputPins:
    """sha256 of every file and stdout of one pass through every subcommand,
    with flags, config files and built-in defaults mixed. A change to how
    the CLI finds its settings must leave every hash as it is."""

    PINNED = {
        "synth.stdout": "5f371ecc68d2d5ca70b85c1ec4d9f9a10ee66abccd9a7e54874fc714dbc4f1d5",
        "synth.tsv": "5e720ed37672909ecc889eb72962d919cfad7e430aff398abde018838adbc834",
        "folds.stdout": "79515f29cf2b2ab238f4bc5f9c6bc99903710b913baff827c1d98faa911871cf",
        "train_proxyanchor.stdout": "6e3ecda2c02dbe6e1da27aa41212ef04b2638e7bba76adebacc1e24973291ba6",
        "train_proxyanchor.enc": "a75e346dd283c5580ea0229206da544ebac25e88137ab3421fb9df4b13a1d1f2",
        "train_proxyanchor.pxb": "1d74115d185da350df604a6f6d00c51c22d7772ec9359b78e51dad0d9fa25130",
        "train_proxyanchor.log": "ed5f0e3d3a59af94b19bf5aac1fecd53674112e572570d595235e3e18c74f176",
        "train_softtriple.stdout": "aa4d4cbcb83733a8ccdbd95e2a5ffbd0fd10cf2799a2181f4f04f3bbfc04f241",
        "train_softtriple.log": "103d5dcc60e28e757a798c05acc163cd999e2a34c730243fbce364e648abf981",
        "train_cce.stdout": "236a27ba1c0eb28a877a02b5f1da419fa87e59ca3aa886427c3fc2b9bf38e9e8",
        "train_cce.log": "e1d95237e22aee540320bb234361341b82c3501495770641ee64bd34bed4ec22",
        "eval_dense.stdout": "cf927a1f72a6ba803db3b7b277501c7267ecbfec0ec7bb13e7214b18efcd9938",
        "eval_blended.stdout": "b5640b25315e2e6557cedf027ed31c3f82899d1427ad68a92b21f94fc2f8eff1",
        "eval_file.stdout": "b5640b25315e2e6557cedf027ed31c3f82899d1427ad68a92b21f94fc2f8eff1",
        "grid.stdout": "267c6402ca8aed5761767454acf7131d9087b1e21b5787d46748c0fbb38fed87",
        "grid.json": "d3a223a4ac0684bfdd19458f62456c3a6bbbe5b8d5231b88edfd763bc83c4441",
        "report_table.stdout": "267c6402ca8aed5761767454acf7131d9087b1e21b5787d46748c0fbb38fed87",
        "report_csv.stdout": "7b331f81764779de9bbdb6047d3ba553069b5a8249e2d5e7899f6222d5c519c3",
        "report_json.stdout": "d3a223a4ac0684bfdd19458f62456c3a6bbbe5b8d5231b88edfd763bc83c4441",
        "gradcheck.stdout": "79e2a6c143f603ca39f64e4440fb390d84a25dce81120782b6bc15e55210faa1",
        "gradcheck_default_seed.stdout": "08167a27d2dac2f5a16b361653e9903fd63b9537ee3f073ce9c24e2a3066b955",
    }

    def run(self, tmp_path, capsys) -> dict:
        out = {}

        def call(name, argv):
            assert main(argv) == 0, name
            stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
            out[f"{name}.stdout"] = _sha(stdout.encode())

        data = tmp_path / "data.tsv"
        cfg = _write_json(tmp_path / "synth.json",
                          {"classes": 3, "size": 90, "noise": 0.2, "seed": 4})
        call("synth", ["synth", "--config", cfg, "--size", "120", "--out", str(data)])
        out["synth.tsv"] = _sha(data.read_bytes())

        cfg = _write_json(tmp_path / "folds.json", {"folds": 3, "seed": 5})
        call("folds", ["folds", "--data", str(data), "--config", cfg, "--shots", "20"])

        enc, prox, log = (tmp_path / n for n in ("pa.enc", "pa.pxb", "pa.json"))
        call("train_proxyanchor", [
            "train", "--data", str(data), "--loss", "proxyanchor", "--beta", "0.3",
            "--alpha", "16", "--delta", "0.2", "--epochs", "2", "--batch-size", "32",
            "--lr", "0.01", "--seed", "6", "--out-encoder", str(enc),
            "--out-proxies", str(prox), "--out-log", str(log),
        ])
        out["train_proxyanchor.enc"] = _sha(enc.read_bytes())
        out["train_proxyanchor.pxb"] = _sha(prox.read_bytes())
        out["train_proxyanchor.log"] = self.log_sha(log)

        # loss and train settings from a file, ints where floats belong
        cfg = _write_json(tmp_path / "train.json", {
            "loss": "softtriple", "k": 2, "gamma": 0.1, "lam": 4, "delta": 0.3,
            "epochs": 1, "lr": 1, "weight_decay": 0, "warmup_fraction": 0.5,
        })
        st_log = tmp_path / "st.json"
        call("train_softtriple", ["train", "--data", str(data), "--config", cfg,
                                  "--delta", "0.2", "--out-log", str(st_log)])
        out["train_softtriple.log"] = self.log_sha(st_log)

        cce_log = tmp_path / "cce.json"
        call("train_cce", ["train", "--data", str(data), "--epochs", "1",
                           "--out-log", str(cce_log)])
        out["train_cce.log"] = self.log_sha(cce_log)

        call("eval_dense", ["eval", "--data", str(data), "--encoder", str(enc)])
        call("eval_blended", ["eval", "--data", str(data), "--encoder", str(enc),
                              "--proxies", str(prox), "--blended"])
        cfg = _write_json(tmp_path / "eval.json", {"blended": True, "beta_inf": 0.25})
        call("eval_file", ["eval", "--data", str(data), "--encoder", str(enc),
                           "--proxies", str(prox), "--config", cfg])

        report = tmp_path / "report.json"
        cfg = _write_json(tmp_path / "grid.json",
                          {"loss": "npairs", "folds": 2, "beta_inf": 0.7, "seed": 8})
        call("grid", ["grid", "--data", str(data), "--config", cfg, "--out", str(report)])
        out["grid.json"] = _sha(report.read_bytes())
        for fmt in ("table", "csv", "json"):
            call(f"report_{fmt}", ["report", "--report", str(report), "--format", fmt])

        call("gradcheck", ["gradcheck", "--instances", "2", "--seed", "17"])
        call("gradcheck_default_seed", ["gradcheck", "--instances", "1"])
        return out

    @staticmethod
    def log_sha(path) -> str:
        """The pins were taken from logs that also held the options
        mining_cap, proxy_renorm and dml_only, with those keys removed."""
        config = json.loads(path.read_text(encoding="utf-8"))["config"]
        assert not {"mining_cap", "proxy_renorm", "dml_only"} & config.keys()
        return _sha(path.read_bytes())

    def test_outputs_pinned(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys) == self.PINNED, kernels()
