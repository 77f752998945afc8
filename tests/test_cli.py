import hashlib
import json
import warnings

import pytest

from gwrange.cli import main


def run(args, outdir):
    return main(args + ["--out", str(outdir)])


class TestSubcommands:
    def test_assumptions(self, tmp_path):
        assert run(["assumptions", "--k", "2", "--seed", "1"], tmp_path) == 0
        report = json.loads((tmp_path / "assumptions.json").read_text())
        assert report["passed"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["seed"] == 1

    def test_constants(self, tmp_path):
        assert run(["constants", "--seed", "2", "--replicas", "5000"], tmp_path) == 0
        data = json.loads((tmp_path / "constants.json").read_text())
        lo, hi = data["c_infinity"]["bracket"]
        assert lo <= data["c_infinity"]["value"] <= hi
        assert data["c_infinity"]["method"] == "deterministic"
        assert 0.0 < data["c_infinity"]["error"] < 1e-6
        mc = data["c_infinity"]["monte_carlo"]
        assert mc["replicas"] == 5000
        assert abs(mc["value"] - data["c_infinity"]["value"]) <= 4.0 * mc["se"]
        assert (tmp_path / "c_j.csv").exists()

    def test_gaussian_config(self, tmp_path):
        cfg = tmp_path / "gaussian.ini"
        cfg.write_text("[law]\nfamily = gaussian\nchildren = 2\nsd = 0.5\n")
        assert run(["constants", "--config", str(cfg)], tmp_path / "constants") == 0
        cinf = json.loads((tmp_path / "constants" / "constants.json").read_text())["c_infinity"]
        lo, hi = cinf["bracket"]
        assert lo <= cinf["value"] <= hi
        assert "monte_carlo" not in cinf
        assert run(["verify", "band-volume", "--config", str(cfg), "--n-grid", "10000",
                    "--replicas", "2"], tmp_path / "verify") == 0
        rep = json.loads((tmp_path / "verify" / "report.json").read_text())
        assert rep["c_infinity"]["value"] == cinf["value"]

    def test_oracle(self, tmp_path):
        assert run(["oracle", "--cases", "15", "--depth-max", "6", "--seed", "3"],
                   tmp_path) == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert len(lines) == 16

    @pytest.mark.parametrize("args", [["--cases", "2", "--depth-max", "2"], ["--cases", "-3"]])
    def test_oracle_refuses_bad_arguments(self, tmp_path, capsys, args):
        assert run(["oracle"] + args, tmp_path) != 0
        err = capsys.readouterr().err
        assert err.startswith("oracle: need") and err.count("\n") == 1
        assert not (tmp_path / "oracle.csv").exists()

    def test_simulate_and_genealogy(self, tmp_path):
        assert run(["simulate", "--n-grid", "2000", "--replicas", "2", "--seed", "4"],
                   tmp_path / "sim") == 0
        rows = (tmp_path / "sim" / "range_stats.csv").read_text().splitlines()
        assert len(rows) == 3
        assert run(["genealogy", "--n-grid", "2000", "--replicas", "2",
                    "--tuples", "20", "--seed", "4"], tmp_path / "gen") == 0
        assert (tmp_path / "gen" / "split_times.csv").exists()

    def test_verify_writes_report(self, tmp_path):
        assert run(["verify", "split-cdf", "--n-grid", "2000,4000",
                    "--replicas", "4", "--seed", "5"], tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["theorem"] == "split-cdf"
        assert (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("args", [
        ["split-cdf"],
        ["excursion-classes"],
        ["constrained-ratio", "--constraint", "f_m:3"],
    ], ids=["split-cdf", "excursion-classes", "constrained-ratio"])
    def test_verify_short_budgets_fail_the_verdict(self, tmp_path, capsys, args):
        # at n = 50 one replica has a value and at n = 100 none does: the rows
        # hold null where no value can be given, and the verdict names both
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["verify"] + args + ["--n-grid", "50,100", "--replicas", "2",
                                            "--seed", "1"], tmp_path)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "manifest.json").read_text())["status"] == "ok"
        text = (tmp_path / "report.json").read_text()
        assert "NaN" not in text
        assert "nan" not in (tmp_path / "grid.csv").read_text().lower()
        rep = json.loads(text)
        assert rep["verdict"] == {
            "pass": False, "reason": "fewer than two replicas gave a value at n = 50, 100"}
        assert rep["grid"][0]["mean"] is not None and rep["grid"][0]["se"] is None
        assert all(rep["grid"][1][key] is None for key in ("mean", "se", "target", "deviation"))

    def test_verify_local_time_probe(self, tmp_path):
        assert run(["verify", "local-time", "--n-grid", "16,2000",
                    "--replicas", "5", "--seed", "6"], tmp_path) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["exact"] is False


# commands that draw (tree, walk, band) replicas; the digests of their
# artifacts below were taken from the branching walk sampler on trees drawn
# one generation ahead of the walk
GRID = ["--n-grid", "2000,4000", "--replicas", "3", "--seed", "5"]
REPLICA_COMMANDS = {
    "band-volume": ["verify", "band-volume"] + GRID,
    "excursion-classes": ["verify", "excursion-classes"] + GRID,
    "split-cdf": ["verify", "split-cdf"] + GRID,
    "constrained-volume": ["verify", "constrained-volume", "--constraint", "F:1:3"] + GRID,
    "simulate": ["simulate", "--n-grid", "2000", "--replicas", "2", "--seed", "4"],
    "genealogy": ["genealogy", "--n-grid", "2000", "--replicas", "2", "--tuples", "20",
                  "--seed", "4", "--k", "3"],
    "constrained-ratio": ["verify", "constrained-ratio", "--constraint", "f_lambda:3",
                          "--n-grid", "2000", "--replicas", "3", "--seed", "4"],
}

PINNED_DIGESTS = {
    "simulate": ("range_stats.csv",
                 "43415dd9c21c5ad235929a10adfa5aece2455c9ecc681523845fdd1e2de646c4"),
    "genealogy": ("signatures.jsonl",
                  "37d092bcdf5f0ae79a6719e76a99736a11a94fce76cf8ffdfa3c7a8d63a14ed9"),
    "constrained-ratio": ("report.json",
                          "7da31d21a04e847dc092f9b46e0f558fa7e9c3b960c1b360b8ca50d09bae204a"),
    # the limit_report experiments, taken before they moved to one experiment table
    "band-volume": ("report.json",
                    "d88db5c5cae0e216d6b3abc58523cb0871da9cbe841ed143dd614fe06ad28831"),
    "excursion-classes": ("report.json",
                          "ce99b52104e7ac671a30bee879ed3673650e3262a2bb137d33329ad4a2c82b28"),
    "split-cdf": ("report.json",
                  "ae7e7bd90909dcab7a86e19020cf3380cb51599c5d7a727ce2080c3a823258be"),
    "constrained-volume": ("report.json",
                           "3812d36545f2e7651af7b6744af6d8f6036c37f21577923fd6c8629d1428b8a5"),
}


# environment numerics (psi, kappa, delta0, the regime, c_j and both c_inf) of
# the default law and of a calibrated generic law with one, two and three
# children, taken before the golden-section searches were merged into one
GENERIC_LAW_INI = ("[law]\nfamily = generic\natoms = [[0.2, [-0.3]], [0.5, [0.9, 0.9]], "
                   "[0.3, [1.023323698557498, 1.023323698557498, 1.023323698557498]]]\n")
ENVIRONMENT_COMMANDS = {
    "constants": ["constants", "--replicas", "2000", "--seed", "3"],
    "assumptions": ["assumptions"],
}
ENVIRONMENT_DIGESTS = {
    ("default", "constants", "constants.json"):
        "58a8c3cbc6b0436dbf3eceac6a716f80d8e23312928f095b31c1567600af02e8",
    ("default", "constants", "c_j.csv"):
        "3096b9309594d4785779c90b614fc648b7908747b6104a3f6f4e689005eedfa0",
    ("default", "assumptions", "assumptions.json"):
        "7070b661524369ffa4722bb9b57e34e92498b29dee40b25d03b8a433617c2c61",
    ("generic", "constants", "constants.json"):
        "fece5ab72bc14738e45c56ec2d47b234c20f0d2f74b6b4cdf14aa6a40737b5db",
    ("generic", "constants", "c_j.csv"):
        "ddc90d35f5a0df98f04e99e8599d585a88f384f76213e5a470f57c705266b987",
    ("generic", "assumptions", "assumptions.json"):
        "847eaf05b5b7cd8ff4d1ef7dc2c02731aeca9e6dae14f91833fceca296897b53",
}


class TestReproducibility:
    @pytest.mark.parametrize("law, command, artifact", list(ENVIRONMENT_DIGESTS))
    def test_environment_digests_pinned(self, tmp_path, law, command, artifact):
        args = list(ENVIRONMENT_COMMANDS[command])
        if law == "generic":
            cfg = tmp_path / "generic.ini"
            cfg.write_text(GENERIC_LAW_INI)
            args += ["--config", str(cfg)]
        assert run(args, tmp_path / "out") == 0
        digest = hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest()
        assert digest == ENVIRONMENT_DIGESTS[law, command, artifact]

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["verify", "excursion-classes", "--n-grid", "2000,4000",
                        "--replicas", "3", "--seed", "7"], out) == 0
        for name in ("report.json", "grid.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("name", list(REPLICA_COMMANDS))
    def test_worker_count_invisible_in_artifacts(self, tmp_path, name):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(REPLICA_COMMANDS[name] + ["--threads", "1"], a) == 0
        assert run(REPLICA_COMMANDS[name] + ["--threads", "2"], b) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for f in names:
            if f == "manifest.json":
                ma, mb = (json.loads((d / f).read_text()) for d in (a, b))
                assert (ma.pop("threads"), mb.pop("threads")) == (1, 2)
                assert ma == mb
            else:
                assert (a / f).read_bytes() == (b / f).read_bytes(), f

    @pytest.mark.parametrize("name", list(PINNED_DIGESTS))
    def test_artifact_digests_pinned(self, tmp_path, name):
        artifact, digest = PINNED_DIGESTS[name]
        assert run(REPLICA_COMMANDS[name], tmp_path) == 0
        assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == digest


def assert_refused(outdir, capsys, code, command):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ") and err.count("\n") == 1
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["failure"]
    assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json"]


class TestFailureHandling:
    def test_manifest_on_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[law]\nfamily = two-point\nq = not-a-number\n")
        code = main(["assumptions", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert manifest["failure"]

    def test_manifest_on_infeasible_schedule(self, tmp_path):
        code = main(["verify", "band-volume", "--n-grid", "16", "--replicas", "2",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "band" in manifest["failure"]

    @pytest.mark.parametrize("args", [
        ["verify", "constrained-ratio", "--constraint", "bogus"],
        ["verify", "constrained-ratio", "--constraint", "f_m:x"],
        ["simulate", "--k", "1"],
        ["verify", "band-volume", "--replicas", "1"],
        ["verify", "split-cdf", "--replicas", "1"],
        ["verify", "constrained-volume"],
        ["verify", "constrained-ratio", "--constraint", "one"],
        ["simulate", "--k", "7", "--replicas", "1"],
        ["genealogy", "--k", "7"],
        ["verify", "constrained-ratio", "--constraint", "f_m:3", "--k", "7"],
        ["assumptions", "--k", "1"],
        ["simulate", "--replicas", "0"],
        ["simulate", "--replicas", "-2"],
        ["genealogy", "--replicas", "0"],
        ["genealogy", "--tuples", "-3"],
    ], ids=["unknown-constraint", "bad-constraint-argument", "simulate-k1",
            "band-volume-one-replica", "split-cdf-one-replica",
            "constrained-volume-no-constraint", "constrained-ratio-constraint-one",
            "simulate-k-above-cap", "genealogy-k-above-cap", "verify-k-above-cap",
            "assumptions-k1", "simulate-zero-replicas", "simulate-negative-replicas",
            "genealogy-zero-replicas", "genealogy-negative-tuples"])
    def test_bad_arguments_refused_before_work(self, tmp_path, capsys, args):
        # one line on stderr, exit 2 and a manifest, with no replica drawn
        grid = [] if args[0] == "assumptions" else ["--n-grid", "2000,4000"]
        code = run(args + grid + ["--seed", "3"], tmp_path)
        assert_refused(tmp_path, capsys, code, args[0])

    @pytest.mark.parametrize("args", [
        ["verify", "split-cdf", "--n-grid", "2000"],
        ["verify", "band-volume", "--n-grid", "abc"],
        ["simulate", "--n-grid", "2000,"],
        ["genealogy", "--n-grid", "0"],
        ["verify", "excursion-classes", "--n-grid", "-5"],
        ["simulate", "--n-grid", "2000,,4000"],
    ], ids=["split-cdf-one-budget", "verify-letters", "simulate-trailing-comma",
            "genealogy-zero", "verify-negative", "simulate-empty-budget"])
    def test_bad_grid_refused_before_work(self, tmp_path, capsys, args):
        assert_refused(tmp_path, capsys, run(args + ["--seed", "3"], tmp_path), args[0])

    def test_constants_refuses_one_replica(self, tmp_path, capsys):
        # a one-path Monte Carlo c_inf has no standard error to report
        code = run(["constants", "--replicas", "1", "--seed", "3"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "constants: need --replicas >= 2, got 1\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["failure"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_constants_refuses_negative_truncation(self, tmp_path, capsys):
        # refused before the deterministic c_inf is computed
        code = run(["constants", "--truncation", "-1", "--seed", "3"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "constants: need --truncation >= 0, got -1\n"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["failure"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("GWRANGE_OUT", str(target))
        assert main(["assumptions", "--seed", "1"]) == 0
        assert (target / "manifest.json").exists()

    def test_config_law_and_bands(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[law]\nfamily = two-point\nq = 0.5\na = -0.1\nm = 3\n"
            "[schedule]\nband_2000 = 10,12\n"
        )
        assert main(["simulate", "--config", str(cfg), "--n-grid", "2000",
                     "--replicas", "1", "--seed", "9", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "range_stats.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "2000"
