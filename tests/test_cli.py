import os

import numpy as np
import pytest

from psdrec import cli, data, models, train


def write_ratings(tmp_path, rows, name="u.data"):
    path = tmp_path / name
    path.write_text("".join(f"{u}\t{i}\t{r}\t0\n" for u, i, r in rows))
    return str(path)


def small_corpus(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for u in range(1, 7):
        for i in range(1, 6):
            if rng.random() < 0.9:
                rows.append((u, i, int(rng.integers(1, 6))))
    rows.append((1, 9, 5))  # keep a 5-star entry for recall runs
    return write_ratings(tmp_path, rows)


def hierarchy_inputs(tmp_path, kind="quantum"):
    """ML-1M ratings and genres files, and a D=2 model of the given kind trained on them."""
    rng = np.random.default_rng(2)
    rows = [(u, i, int(rng.integers(1, 6))) for u in range(1, 7) for i in range(1, 7)]
    ratings = tmp_path / "ratings.dat"
    ratings.write_text("".join(f"{u}::{i}::{r}::0\n" for u, i, r in rows))
    genres = tmp_path / "movies.dat"
    genres.write_text(
        "1::A::Comedy\n2::B::Comedy|Drama\n3::C::Drama\n4::D::Drama\n5::E::Horror\n6::F::Horror\n"
    )
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(f"D = 2\nmax_iter = 2\nkind = {kind}\n")
    model_path = str(tmp_path / "model.psdrec")
    argv = ["train", "--data", str(ratings), "--format", "ml1m", "--config", str(cfg_path), "--model-out", model_path]
    assert cli.main(argv) == 0
    return [
        "hierarchy", "--model-in", model_path, "--data", str(ratings),
        "--format", "ml1m", "--genres", str(genres), "--epsilon", "0.5",
    ]


class TestDemo:
    def test_exit_zero_and_output(self, capsys):
        assert cli.main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "p(like)" in out and "p(dislike)" in out and "passed" in out

    def test_corrupted_constants_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_DEMO_RHO", ((0.97, 0.14), (0.14, 0.03)))
        assert cli.main(["demo"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_checks_the_library_born_rule(self, monkeypatch, capsys):
        monkeypatch.setattr(models, "quantum_predict", lambda m, u, i, z: 0.5)
        assert cli.main(["demo"]) == 1
        assert "failed" in capsys.readouterr().err


class TestHistogram:
    def test_counts(self, tmp_path, capsys):
        path = write_ratings(tmp_path, [(1, 1, 5), (1, 2, 5), (2, 1, 2)])
        assert cli.main(["histogram", "--data", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["1 0", "2 1", "3 0", "4 0", "5 2"]

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["histogram", "--data", "/no/such/file"]) == 2
        assert "error" in capsys.readouterr().err


class TestFileErrors:
    """Any OSError on a named path ends the command with exit 2 and one line."""

    @pytest.mark.parametrize(
        "command",
        [
            ["histogram", "--data", "{file}/x"],
            ["train", "--data", "{data}", "--model-out", "{file}/m"],
            ["train", "--data", "{data}", "--config", "{file}/c", "--model-out", "{tmp}/m"],
            ["recover", "--model-in", "{file}/m", "--model-out", "{tmp}/o"],
            ["hierarchy", "--dot-out", "{file}/g.dot"],
        ],
        ids=["data", "model-out", "config", "model-in", "dot-out"],
    )
    def test_path_under_a_file_exit_2(self, tmp_path, capsys, command):
        # Each path runs through a regular file, so opening it raises NotADirectoryError.
        data_path = small_corpus(tmp_path)
        if command[0] == "hierarchy":
            command = hierarchy_inputs(tmp_path) + command[1:]
        paths = {"file": data_path, "data": data_path, "tmp": str(tmp_path)}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in command]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_permission_error_exit_2(self, tmp_path, monkeypatch, capsys):
        def refuse(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(data, "load_movielens_100k", refuse)
        assert cli.main(["histogram", "--data", str(tmp_path / "u.data")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "Permission denied" in err[0]


class TestTrainCommand:
    def test_train_writes_model(self, tmp_path, capsys):
        data_path = small_corpus(tmp_path)
        model_path = str(tmp_path / "model.psdrec")
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("D = 2\nmax_iter = 2\nseed = 1\n")
        rc = cli.main(
            ["train", "--data", data_path, "--config", str(cfg_path), "--model-out", model_path]
        )
        assert rc == 0
        m = models.load_model(model_path)
        assert m.D == 2
        out = capsys.readouterr().out
        assert "trained" in out and "saved" in out

    def test_nnm_kind_from_config(self, tmp_path):
        data_path = small_corpus(tmp_path)
        model_path = tmp_path / "model.psdrec"
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("kind = nnm\nD = 2\nmax_iter = 2\nseed = 1\n")
        rc = cli.main(
            ["train", "--data", data_path, "--config", str(cfg_path), "--model-out", str(model_path)]
        )
        assert rc == 0
        assert "kind=nnm" in model_path.read_text().splitlines()[0]
        assert isinstance(models.load_model(str(model_path)), models.NnmModel)

    def test_seed_override(self, tmp_path):
        data_path = small_corpus(tmp_path)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("D = 2\nmax_iter = 1\nseed = 1\n")
        p1, p2 = str(tmp_path / "m1.psdrec"), str(tmp_path / "m2.psdrec")
        cli.main(["train", "--data", data_path, "--config", str(cfg_path), "--model-out", p1, "--seed", "9"])
        cli.main(["train", "--data", data_path, "--config", str(cfg_path), "--model-out", p2, "--seed", "9"])
        a, b = models.load_model(p1), models.load_model(p2)
        assert np.array_equal(a.users, b.users)

    def test_only_train_seed_overrides_config(self, tmp_path, monkeypatch, capsys):
        # evaluate's and topn's --seed picks folds and holdouts; the model's
        # initial state keeps the config's seed.
        data_path = small_corpus(tmp_path)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("D = 2\nmax_iter = 1\nseed = 7\n")
        seeds = []
        fit = train.train_quantum

        def recording(ds, cfg):
            seeds.append(cfg.seed)
            return fit(ds, cfg)

        monkeypatch.setattr(train, "train_quantum", recording)
        common = ["--data", data_path, "--config", str(cfg_path)]
        assert cli.main(["evaluate", *common, "--folds", "2", "--seed", "3"]) == 0
        assert cli.main(["topn", *common, "--fraction", "0.3"]) == 0
        assert seeds == [7, 7, 7]
        out = str(tmp_path / "m.psdrec")
        assert cli.main(["train", *common, "--model-out", out, "--seed", "9"]) == 0
        assert cli.main(["train", *common, "--model-out", out]) == 0
        assert seeds[3:] == [9, 7]

    def test_bad_config_exit_1(self, tmp_path, capsys):
        data_path = small_corpus(tmp_path)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("unknown_key = 1\n")
        rc = cli.main(
            ["train", "--data", data_path, "--config", str(cfg_path), "--model-out", str(tmp_path / "m")]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_metrics_printed(self, tmp_path, capsys):
        data_path = small_corpus(tmp_path)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("D = 2\nmax_iter = 2\n")
        rc = cli.main(
            ["evaluate", "--data", data_path, "--config", str(cfg_path), "--folds", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mae mean=" in out and "rmse mean=" in out and "folds=2" in out

    def test_single_metric(self, tmp_path, capsys):
        data_path = small_corpus(tmp_path)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("D = 2\nmax_iter = 1\n")
        rc = cli.main(
            ["evaluate", "--data", data_path, "--config", str(cfg_path), "--folds", "2", "--metric", "mae"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mae mean=" in out and "rmse" not in out


class TestMalformedRatings:
    """A bad ratings file ends the command with exit 1 and one message naming
    the file and line, whichever parser found the fault."""

    @pytest.mark.parametrize(
        "text, where",
        [
            ("1\t1\t5\t0\n2\t1\t+\t0\n", "line 2: non-integer field"),
            ("1\t1\t5\t0\n2\t1\t4\t0\n\n1\t1\t3\t0\n",
             "line 4: duplicate rating for user 1 item 1 (first seen at line 1)"),
        ],
    )
    def test_evaluate_reports_file_and_line(self, tmp_path, capsys, text, where):
        path = tmp_path / "u.data"
        path.write_text(text)
        assert cli.main(["evaluate", "--data", str(path), "--folds", "2"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {path} {where}"]


class TestTopnCommand:
    def test_reports_recall(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = []
        for u in range(1, 9):
            for i in range(1, 9):
                rows.append((u, i, int(rng.integers(1, 6)) if (u + i) % 3 else 5))
        data_path = write_ratings(tmp_path, rows)
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text("D = 2\nmax_iter = 2\nmode = recall\n")
        rc = cli.main(
            ["topn", "--data", data_path, "--config", str(cfg_path), "--n", "3", "--fraction", "0.3"]
        )
        out = capsys.readouterr()
        assert rc == 0, out.err
        assert "recall@3" in out.out


class TestRecoverOverfitCommands:
    def test_overfit_then_recover(self, tmp_path, capsys):
        data_path = small_corpus(tmp_path)
        ov_path = str(tmp_path / "overfit.psdrec")
        assert cli.main(["overfit", "--data", data_path, "--model-out", ov_path]) == 0
        nnm_path = str(tmp_path / "recovered.psdrec")
        assert cli.main(["recover", "--model-in", ov_path, "--model-out", nnm_path]) == 0
        m = models.load_model(nnm_path)
        assert isinstance(m, models.NnmModel)

    def test_recover_rejects_oversized_header(self, tmp_path, capsys):
        # A 70-byte file claiming 10^11 users is a ParseError, not an
        # allocation failure with a traceback.
        path = tmp_path / "huge.psdrec"
        path.write_text(
            "PSDREC v1 | kind=quantum | 2 | 100000000000 | 1 | 2 | field=real\nuser 0 1 0 0 0\n"
        )
        rc = cli.main(["recover", "--model-in", str(path), "--model-out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [f"error: {path}: expected 100000000002 records, found 1"]

    def test_recover_rejects_noncommuting_model(self, tmp_path, capsys):
        # The |+><+| user does not commute with the diagonal effects.
        path = tmp_path / "q.psdrec"
        path.write_text(
            "PSDREC v1 | kind=quantum | 2 | 2 | 1 | 2 | field=real\n"
            "user 0 0.5 0.5 0.5 0.5\nuser 1 1 0 0 0\nitem 0 1 1 0 0 0\nitem 0 2 0 0 0 1\n"
        )
        out = tmp_path / "out"
        rc = cli.main(["recover", "--model-in", str(path), "--model-out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: recover_nnm: ")
        assert not out.exists()

    def test_overfit_respects_size_cap(self, tmp_path, monkeypatch, capsys):
        data_path = small_corpus(tmp_path)
        monkeypatch.setattr(models, "_OVERFIT_MAX_BYTES", 1000)
        rc = cli.main(["overfit", "--data", data_path, "--model-out", str(tmp_path / "m")])
        assert rc == 1
        assert "limit" in capsys.readouterr().err


class TestHierarchyCommand:
    def test_end_to_end(self, tmp_path, capsys):
        command = hierarchy_inputs(tmp_path)
        capsys.readouterr()
        dot_path = str(tmp_path / "graph.dot")
        rc = cli.main(command + ["--method", "simple", "--exclude", "Horror", "--dot-out", dot_path])
        out = capsys.readouterr()
        assert rc == 0, out.err
        assert "tags=2" in out.out
        text = open(dot_path).read()
        assert text.startswith("digraph {")
        assert "Horror" not in text

    def test_nnm_model_exit_1(self, tmp_path, capsys, monkeypatch):
        # Tag operators need effect matrices; an NNM model is a domain error,
        # not a traceback, and it is rejected before the ratings are parsed.
        command = hierarchy_inputs(tmp_path, kind="nnm")
        capsys.readouterr()
        calls = []

        def loader(*args):
            calls.append(args)
            raise AssertionError("ratings parsed for an NNM model")

        monkeypatch.setattr(data, "load_movielens_1m", loader)
        assert cli.main(command) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: hierarchy: expected a QuantumModel, got NnmModel"]
        assert calls == []


class TestParser:
    def test_no_command_exit_2(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_flag_exit_2(self, capsys):
        assert cli.main(["demo", "--bogus"]) == 2

    def test_threads_validation(self, capsys):
        assert cli.main(["--threads", "0", "demo"]) == 2

    def test_threads_sets_env(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert cli.main(["--threads", "2", "demo"]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
