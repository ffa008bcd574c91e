import csv
import json
import os
import re

import numpy as np
import pytest

import incrlin.cli as cli_mod
import incrlin.pool as pool_mod
import incrlin.protocol as protocol_mod
from incrlin import io
from incrlin.cli import main
from incrlin.config import load_config_file, preset_config, resolve_run_config
from incrlin.datamodel import RunConfig, WeightMatrix
from incrlin.errors import ConfigError, FormatError

from conftest import fill_the_disk


@pytest.fixture()
def fixture_dir(tmp_path):
    rc = main(["synth-gen", "--out-dir", str(tmp_path / "data"), "--classes", "14",
               "--dim", "6", "--support", "8", "--query", "4", "--base", "8",
               "--per-session", "3", "--seed", "5"])
    assert rc == 0
    return tmp_path / "data"


# --- config resolution -------------------------------------------------------------

def test_presets_by_protocol_kind_and_shots():
    multi_sub = preset_config("multi", "subspace")
    assert multi_sub.gamma == 1.0 and multi_sub.alpha == 5e-4
    assert multi_sub.learning_rate == 0.002
    one_shot = preset_config("single", "subspace", k_shot=1)
    assert one_shot.gamma == 0.005 and one_shot.learning_rate == 0.003
    assert preset_config("single", "subspace", k_shot=3) == one_shot  # an unlisted count
    five_shot = preset_config("single", "subspace", k_shot=5)
    assert five_shot.gamma == 0.03 and five_shot.beta_base == 0.03
    desc5 = preset_config("single", "description", k_shot=5)
    assert desc5.gamma == 0.01
    assert preset_config("multi", "semantic").tau == 3.0
    with pytest.raises(ConfigError):
        preset_config("weekly", "subspace")


def test_resolution_order_file_then_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "regularizer": {"kind": "subspace", "gamma": 0.25},
        "optimizer": {"learning_rate": 0.01},
        "protocol": {"rng_seed": 3},
    }))
    file_cfg = load_config_file(cfg_path)
    cfg = resolve_run_config("multi", file_cfg, {"rng_seed": 9})
    assert cfg.regularizer_kind == "subspace"
    assert cfg.gamma == 0.25          # file overrides preset
    assert cfg.learning_rate == 0.01
    assert cfg.rng_seed == 9          # flag overrides file
    assert cfg.alpha == 5e-4          # untouched preset value


def test_config_file_rejects_unknown_sections(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"misc": {}}))
    with pytest.raises(ConfigError):
        load_config_file(p)
    for text in ({"optimizer": {"warmup": 5}}, {"protocol": {"memory": True}},
                 {"data": {"features": "f.csv"}}):
        p.write_text(json.dumps(text))
        with pytest.raises(ConfigError, match=str(p)):
            load_config_file(p)
        with pytest.raises(ConfigError):
            resolve_run_config("multi", text, {})
    with pytest.raises(ConfigError, match="bad config field"):
        resolve_run_config("multi", None, {"warmup": 5})


@pytest.mark.parametrize("text, error, named", [
    (None, ConfigError, "config file not found"),
    ("{not json", FormatError, "invalid JSON"),
    ("[1]", FormatError, "config must be a JSON object"),
    ('{"optimizer": [1]}', ConfigError, "section 'optimizer' must be an object"),
], ids=["missing", "not-json", "not-an-object", "section-not-an-object"])
def test_a_config_file_that_is_not_a_config_names_itself(tmp_path, text, error, named):
    p = tmp_path / "cfg.json"
    if text is not None:
        p.write_text(text)
    with pytest.raises(error, match=named) as exc:
        load_config_file(p)
    assert str(p) in str(exc.value)


@pytest.mark.parametrize("section, key, value", [
    ("optimizer", "max_epochs", 2.5), ("optimizer", "patience_epochs", True),
    ("protocol", "rng_seed", 1.0), ("protocol", "memory_enabled", "false"),
    ("regularizer", "alpha", True), ("regularizer", "alpha", "0.1"),
    ("regularizer", "tau", float("nan")), ("optimizer", "learning_rate", float("inf")),
    ("optimizer", "convergence_tolerance", float("-inf")), ("regularizer", "kind", 5),
    ("optimizer", "max_epochs", 0)])
def test_config_file_rejects_mistyped_counts_and_flags(tmp_path, section, key, value):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=key):
        resolve_run_config("multi", load_config_file(p), {})


@pytest.mark.parametrize("kind", ["fine-tune", " Linear_Map", "Subspace", ["subspace"],
                                  {"kind": "linmap"}, None])
def test_regularizer_kind_names_are_exact(tmp_path, kind):
    # the five names the CLI takes, as written; an unhashable kind is named too
    named = f"unknown regularizer kind {re.escape(repr(kind))}"
    with pytest.raises(ConfigError, match=named):
        RunConfig(regularizer_kind=kind)
    with pytest.raises(ConfigError, match=named):
        preset_config("single", kind, k_shot=5)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"regularizer": {"kind": kind}}))
    with pytest.raises(ConfigError, match=named):
        resolve_run_config("multi", load_config_file(p), {})


def test_config_file_accepts_integer_coefficients(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"regularizer": {"gamma": 1}, "optimizer": {"learning_rate": 0}}))
    cfg = resolve_run_config("multi", load_config_file(p), {})
    assert cfg.gamma == 1 and cfg.learning_rate == 0


# --- subcommands ----------------------------------------------------------------------

def test_synth_gen_outputs_are_loadable(fixture_dir):
    store = io.load_feature_store(fixture_dir / "features.csv")
    assert len(store.classes) == 14 and store.dimension == 6
    table = io.load_embeddings_csv(fixture_dir / "embeddings.csv")
    assert len(table.classes) == 14
    labels, sessions = io.load_manifest(fixture_dir / "manifest.json")
    registry = io.registry_from_manifest(sessions)
    assert len(registry.base_classes) == 8
    assert registry.n_sessions == 3


def test_synth_gen_binary_format(tmp_path):
    rc = main(["synth-gen", "--out-dir", str(tmp_path), "--classes", "3", "--dim", "4",
               "--support", "2", "--query", "2", "--binary"])
    assert rc == 0
    store = io.load_feature_store(tmp_path / "features.fscf")
    assert store.classes == (0, 1, 2)


@pytest.mark.parametrize("extra, named", [
    (["--seed", "-1"], "rng_seed must be non-negative, got -1"),
    (["--per-session", "0"], "n_per_session must be >= 1"),
    (["--sigma", "nan"], "within_class_stddev must be positive and finite, got nan"),
    (["--sigma", "inf"], "within_class_stddev must be positive and finite, got inf"),
], ids=["seed", "per-session", "sigma-nan", "sigma-inf"])
def test_synth_gen_options_out_of_range_are_error_lines(tmp_path, capsys, extra, named):
    # only an omitted --per-session means a flat plan
    rc = main(["synth-gen", "--out-dir", str(tmp_path / "d"), "--classes", "4", "--dim", "2",
               "--base", "2"] + extra)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "d").exists()


def test_train_base_writes_weights(fixture_dir, tmp_path, capsys):
    out = tmp_path / "base.csv"
    rc = main(["train-base", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"),
               "--out", str(out), "--seed", "1"])
    assert rc == 0
    weights = io.load_weights_csv(out)
    assert weights.class_ids == tuple(range(8))
    assert "wrote" in capsys.readouterr().out


def test_train_base_without_a_manifest_fits_every_class(tmp_path):
    # on a flat fixture every class is a base class, with or without the manifest
    data = tmp_path / "flat"
    assert main(["synth-gen", "--out-dir", str(data), "--classes", "5", "--dim", "4",
                 "--support", "6", "--query", "2", "--seed", "3"]) == 0
    args = ["train-base", "--features", str(data / "features.csv"), "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "bare.csv")]) == 0
    assert main(args + ["--manifest", str(data / "manifest.json"),
                        "--out", str(tmp_path / "flat.csv")]) == 0
    assert io.load_weights_csv(tmp_path / "bare.csv").class_ids == tuple(range(5))
    assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "flat.csv").read_bytes()


def test_run_multi_emits_session_records(fixture_dir, tmp_path):
    out = tmp_path / "result.json"
    dump = tmp_path / "final_weights.csv"
    rc = main(["run-multi", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"),
               "--embeddings", str(fixture_dir / "embeddings.csv"),
               "--regularizer", "subspace", "--k-shot", "3",
               "--seed", "2", "--out", str(out), "--dump-weights", str(dump)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["protocol"] == "multi-session"
    assert payload["config"]["regularizer_kind"] == "subspace"
    assert len(payload["sessions"]) == 3  # base + 2 incremental
    for t, rec in enumerate(payload["sessions"]):
        assert rec["session"] == t
        assert 0.0 <= rec["acc_weighted"] <= 100.0
        assert "confusion" in rec
    final = io.load_weights_csv(dump)
    assert len(final) == 14


def _is_json_dumps(path) -> None:
    """The file holds ``json.dumps(indent=2, sort_keys=True)`` of its payload."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("extra", [[], ["--no-confusion"], ["--memory"]])
def test_run_multi_result_is_laid_out_as_json_dumps_lays_it_out(fixture_dir, tmp_path, extra):
    out = tmp_path / "result.json"
    assert main(["run-multi", "--features", str(fixture_dir / "features.csv"),
                 "--manifest", str(fixture_dir / "manifest.json"), "--k-shot", "3",
                 "--seed", "2", "--out", str(out)] + extra) == 0
    _is_json_dumps(out)
    sessions = json.loads(out.read_text())["sessions"]
    assert all(("confusion" in rec) != ("--no-confusion" in extra) for rec in sessions)


@pytest.mark.parametrize("payload", [
    {"schema": 1, "sessions": [{"session": 0, "confusion": {"class_ids": [4], "counts": [[3]]}}]},
    {"schema": 1, "sessions": [{"confusion": {"class_ids": [], "counts": []}},
                               {"confusion": {"class_ids": [0, 1], "counts": [[2, 0], [1, 1]]},
                                "acc_novel": None}]},
    # a NUL inside another string of the payload is no placeholder: json
    # escapes it within that string's quotes
    {"schema": 1, "label": "a\0b",
     "sessions": [{"confusion": {"class_ids": [0], "counts": [[7]]}}]},
])
def test_result_text_is_json_dumps(payload):
    assert cli_mod._result_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_run_single_deterministic_bytes(fixture_dir, tmp_path):
    args = ["run-single", "--features", str(fixture_dir / "features.csv"),
            "--manifest", str(tmp_path / "single_manifest.json"),
            "--episodes", "6", "--n-way", "3", "--k-shot", "1",
            "--n-query", "12", "--seed", "7", "--label", "run"]
    labels, _ = io.load_manifest(fixture_dir / "manifest.json")
    io.save_manifest(tmp_path / "single_manifest.json", labels,
                     {c: (0 if c < 8 else 1) for c in range(14)})
    for extra in ([], ["--keep-episodes"]):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + extra + ["--out", str(out1)]) == 0
        assert main(args + extra + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _is_json_dumps(out1)
        payload = json.loads(out1.read_text())
        assert payload["result"]["n_episodes"] == 6
        assert len(payload["result"].get("episodes", ())) == (6 if extra else 0)
        assert "delta" in payload["result"]


@pytest.mark.parametrize("command, extra", [("run-multi", []),
                                            ("run-single", ["--episodes", "4"])])
def test_base_weights_of_another_dimension_fail_up_front(fixture_dir, tmp_path, capsys,
                                                          command, extra):
    # the features have dimension 6, the base weights 4
    weights = tmp_path / "base.csv"
    io.save_weights_csv(WeightMatrix(range(8), np.ones((8, 4))), weights)
    labels, _ = io.load_manifest(fixture_dir / "manifest.json")
    io.save_manifest(tmp_path / "manifest.json", labels, {c: int(c >= 8) for c in range(14)})
    rc = main([command, "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(tmp_path / "manifest.json"), "--base-weights", str(weights),
               "--out", str(tmp_path / "r.json")] + extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: base weights have dimension 4, features have dimension 6")


@pytest.mark.parametrize("bad, named", [
    (b"\xff", "byte 0xff is not UTF-8"),
    (b"1" * 200_000, "field larger than field limit (131072)"),
], ids=["bad-byte", "long-field"])
def test_base_weights_that_csv_cannot_read_are_an_error_line(fixture_dir, tmp_path, capsys,
                                                             bad, named):
    # a byte that is not UTF-8, or a field past csv's size limit, on line 4
    weights = tmp_path / "base.csv"
    io.save_weights_csv(WeightMatrix(range(8), np.ones((8, 6))), weights)
    lines = weights.read_bytes().split(b"\r\n")
    lines[3] = lines[3][:-3] + bad
    weights.write_bytes(b"\r\n".join(lines))
    rc = main(["run-multi", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"), "--base-weights", str(weights),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {weights}:4: {named}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, extra, named", [
    ("run-single", ["--n-way", "50"], "n_way=50"),
    ("run-single", ["--k-shot", "0"], "k_shot must be >= 1, got 0"),
    ("run-single", ["--regularizer", "semantic"], "needs an embedding table"),
    ("run-multi", ["--regularizer", "semantic"], "needs an embedding table"),
    ("run-multi", ["--regularizer", "description", "--embeddings", "data/embeddings.csv",
                   "--config", "tau0.json"], "temperature must be positive"),
    ("run-multi", ["--seed", "-1"], "rng_seed must be non-negative, got -1"),
    ("run-single", ["--episodes", "0"], "n_episodes must be >= 1, got 0"),
    ("run-single", ["--manifest", "three.json"],
     "single-session plan needs sessions 0 and 1, got 3"),
])
def test_run_faults_are_reported_before_any_base_fit(fixture_dir, tmp_path, capsys,
                                                     monkeypatch, command, extra, named):
    labels, _ = io.load_manifest(fixture_dir / "manifest.json")
    io.save_manifest(tmp_path / "manifest.json", labels, {c: int(c >= 8) for c in range(14)})
    io.save_manifest(tmp_path / "three.json", labels, {c: min(c // 5, 2) for c in range(14)})
    (tmp_path / "tau0.json").write_text(json.dumps({"regularizer": {"tau": 0.0}}))
    monkeypatch.chdir(tmp_path)
    for module in (cli_mod, protocol_mod):
        monkeypatch.setattr(module, "train_base",
                            lambda *a, **k: pytest.fail("the base weights were fitted"))
    rc = main([command, "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(tmp_path / "manifest.json"),
               "--out", str(tmp_path / "r.json")] + extra)
    assert rc == 1
    assert named in capsys.readouterr().err


def test_run_multi_rejects_base_weights_of_non_base_classes(fixture_dir, tmp_path, capsys):
    weights = tmp_path / "base.csv"
    io.save_weights_csv(WeightMatrix(range(10), np.ones((10, 6))), weights)
    rc = main(["run-multi", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"), "--base-weights", str(weights),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "missing [], extra [8, 9]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run-multi", "run-single"])
def test_a_run_without_a_manifest_is_an_error_line(fixture_dir, tmp_path, capsys, command):
    rc = main([command, "--features", str(fixture_dir / "features.csv"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: this command needs --manifest for the session plan\n"
    assert not (tmp_path / "r.json").exists()


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-multi", "--bogus"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_file_is_reported(tmp_path, capsys):
    rc = main(["train-base", "--features", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "w.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: No such file or directory: {tmp_path / 'nope.csv'}\n"


@pytest.mark.parametrize("command, extra", [("train-base", []),
                                            ("run-single", ["--episodes", "2"])])
def test_out_that_is_a_directory_is_reported(fixture_dir, tmp_path, capsys, command, extra):
    labels, _ = io.load_manifest(fixture_dir / "manifest.json")
    io.save_manifest(tmp_path / "manifest.json", labels, {c: int(c >= 8) for c in range(14)})
    out = tmp_path / "results"
    out.mkdir()
    rc = main([command, "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(tmp_path / "manifest.json"), "--out", str(out)] + extra)
    assert rc == 1
    assert capsys.readouterr().err == f"error: Is a directory: {out}\n"


@pytest.mark.parametrize("command, flag", [
    ("train-base", "--out"), ("run-single", "--out"), ("run-multi", "--out"),
    ("run-multi", "--dump-weights")])
@pytest.mark.parametrize("where, named", [
    ("results", "Is a directory"), ("missing/r.json", "No such file or directory"),
    ("file/r.json", "Not a directory")])
def test_unwritable_out_fails_before_any_input_is_loaded(fixture_dir, tmp_path, capsys,
                                                         monkeypatch, command, flag,
                                                         where, named):
    # nothing is loaded, and no file is created
    (tmp_path / "results").mkdir()
    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(io, "load_feature_store",
                        lambda *a: pytest.fail("the feature store was loaded"))
    rc = main([command, "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json")]
              + (["--out", where] if flag == "--out" else ["--out", "ok.json", flag, where]))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {named}: {where}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data", "file", "results"]
    assert not any((tmp_path / "results").iterdir())


@pytest.mark.parametrize("dies_in", ["episode", "csv block"])
def test_a_dead_worker_is_an_error_line(fixture_dir, tmp_path, capsys, monkeypatch, dies_in):
    # a pool worker that exits mid-run, while training episodes or formatting
    # a block of a feature CSV written in blocks of ~256 B, gives one error line
    parent = os.getpid()
    labels, _ = io.load_manifest(fixture_dir / "manifest.json")
    io.save_manifest(tmp_path / "manifest.json", labels, {c: int(c >= 8) for c in range(14)})

    def dying(*args, **kwargs):
        if os.getpid() == parent:
            pytest.fail(f"a {dies_in} job ran in the test process")
        os._exit(1)

    monkeypatch.setattr(pool_mod, "cpus", lambda: 2)
    if dies_in == "episode":
        monkeypatch.setattr(protocol_mod, "sample_episode", dying)
        out = tmp_path / "r.json"
        rc = main(["run-single", "--features", str(fixture_dir / "features.csv"),
                   "--manifest", str(tmp_path / "manifest.json"), "--episodes", "6",
                   "--n-way", "3", "--n-query", "12", "--out", str(out)])
    else:
        monkeypatch.setattr(io, "BLOCK_BYTES", 1024)
        monkeypatch.setattr(io, "_format_block", dying)
        out = tmp_path / "synth" / "embeddings.csv"
        rc = main(["synth-gen", "--out-dir", str(tmp_path / "synth"), "--classes", "6",
                   "--dim", "8", "--support", "5", "--query", "5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
    assert not out.exists()
    if dies_in == "csv block":  # the file being written is not left cut short either
        assert not (tmp_path / "synth" / "features.csv").exists()
        assert not any((tmp_path / "synth").iterdir())


@pytest.mark.parametrize("fails, kept", [("w.csv", []), ("r.json", ["w.csv"])])
def test_a_write_that_fails_partway_leaves_no_file(fixture_dir, tmp_path, capsys,
                                                   monkeypatch, fails, kept):
    # run-multi writes --dump-weights, then --out; the one that fails is not
    # left half written, nor is its temporary file
    fill_the_disk(monkeypatch, fails)
    out = tmp_path / "results"
    out.mkdir()
    rc = main(["run-multi", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"), "--k-shot", "2",
               "--out", str(out / "r.json"), "--dump-weights", str(out / "w.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert sorted(f.name for f in out.iterdir()) == kept


@pytest.mark.parametrize("command", ["run-multi", "run-single"])
@pytest.mark.parametrize("label", ["../x", "a/b", "..", ""])
def test_label_that_is_not_a_plain_name_fails_before_any_file_is_read(tmp_path, capsys,
                                                                      command, label):
    # the features file does not exist: reading it would be exit 1, not a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, "--features", str(tmp_path / "nope.csv"), "--label", label,
              "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert f"label {label!r} is not a plain name" in capsys.readouterr().err


def test_report_renders_tables(fixture_dir, tmp_path):
    result = tmp_path / "res.json"
    rc = main(["run-multi", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"),
               "--k-shot", "3", "--seed", "2", "--label", "ft",
               "--out", str(result)])
    assert rc == 0
    rc = main(["report", "--results", str(result), "--out-dir", str(tmp_path / "rep")])
    assert rc == 0
    table = (tmp_path / "rep" / "sessions.csv").read_text().splitlines()
    assert table[0] == "model,0,1,2"
    assert table[1].startswith("ft,")
    grids = list((tmp_path / "rep").glob("confusion_ft_s*.csv"))
    assert len(grids) == 3


def test_report_renders_an_episode_table(fixture_dir, tmp_path):
    labels, _ = io.load_manifest(fixture_dir / "manifest.json")
    io.save_manifest(tmp_path / "manifest.json", labels, {c: int(c >= 8) for c in range(14)})
    result = tmp_path / "res.json"
    rc = main(["run-single", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(tmp_path / "manifest.json"), "--episodes", "4",
               "--n-way", "3", "--n-query", "12", "--label", "ep", "--out", str(result)])
    assert rc == 0
    rc = main(["report", "--results", str(result), "--out-dir", str(tmp_path / "rep")])
    assert rc == 0
    r = json.loads(result.read_text())["result"]
    with (tmp_path / "rep" / "episodes.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["model", "acc", "ci95", "delta", "abs_delta", "n_episodes", "n_failed"],
            ["ep", f"{r['acc']['mean']:.2f}", f"{r['acc']['ci95']:.2f}",
             f"{r['delta']['mean']:.2f}", f"{r['abs_delta']:.2f}", "4", str(r["n_failed"])]]
    assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == ["episodes.csv"]


def _report_on(tmp_path, capsys, text):
    """Exit code of ``report`` on one result file holding ``text``, and
    whether its error line names the file."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = main(["report", "--results", str(bad), "--out-dir", str(tmp_path / "rep")])
    return rc, f"error: {bad}: " in capsys.readouterr().err


def test_report_rejects_unknown_schema(tmp_path, capsys):
    # a JSON true and 1.0 compare equal to 1, but are not the schema number
    for schema in (99, True, 1.0):
        text = _multi_result().replace('"schema": 1', f'"schema": {json.dumps(schema)}')
        assert _report_on(tmp_path, capsys, text) == (1, True)
        assert not (tmp_path / "rep").exists()


def _multi_result(label="m", session=0):
    return json.dumps({"schema": 1, "protocol": "multi-session", "label": label, "sessions": [
        {"session": session, "acc_weighted": 50.0,
         "confusion": {"class_ids": [0], "counts": [[1]]}}]})


@pytest.mark.parametrize("text", [
    json.dumps([1, 2]),
    json.dumps({"schema": 1, "protocol": "multi-session"}),
    json.dumps({"schema": 1, "protocol": "single-session", "result": {"acc": 3}}),
    "{not json",
    _multi_result(label="x/../../escaped"),
    _multi_result(label=".."),
    _multi_result(label=""),
    _multi_result(session="1"),
    json.dumps({"schema": 1, "protocol": "weekly", "label": "x"}),
    _multi_result(label="\ud800"),
], ids=["array", "no-sessions", "bad-result", "invalid-json", "label-path", "label-dotdot",
        "label-empty", "session-string", "unknown-protocol", "label-surrogate"])
def test_report_rejects_malformed_result_files(tmp_path, capsys, text):
    # with confusion_x/ present, the label-path case escaped --out-dir
    (tmp_path / "rep" / "confusion_x").mkdir(parents=True)
    assert _report_on(tmp_path, capsys, text) == (1, True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "rep"]


@pytest.mark.parametrize("labels, stems", [(("same", "same"), ("a", "b")),
                                           ((None, None), ("run", "run"))],
                         ids=["label", "file-stem"])
def test_report_rejects_a_label_two_results_share(tmp_path, capsys, labels, stems):
    # the second result's rows and confusion files would overwrite the first's
    paths = []
    for i, (label, stem) in enumerate(zip(labels, stems)):
        payload = json.loads(_multi_result())
        payload.pop("label")
        if label is not None:
            payload["label"] = label
        (tmp_path / str(i)).mkdir()
        paths.append(tmp_path / str(i) / f"{stem}.json")
        paths[-1].write_text(json.dumps(payload))
    rc = main(["report", "--results", *map(str, paths), "--out-dir", str(tmp_path / "rep")])
    assert rc == 1
    shared = labels[0] or stems[0]
    assert capsys.readouterr().err == (f"error: {paths[1]}: label {shared!r} is also the label "
                                       f"of {paths[0]}\n")
    assert not (tmp_path / "rep").exists()


def test_a_failed_report_writes_no_file(tmp_path, capsys):
    # the good result's confusion grid is built before the bad result fails,
    # but only written once every result has passed
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(_multi_result(label="good"))
    payload = json.loads(_multi_result(label="bad"))
    del payload["sessions"][0]["acc_weighted"]
    bad.write_text(json.dumps(payload))
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["report", "--results", str(good), str(bad), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed multi-session result")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("label, error", [
    ("a" * 300, "long.json: label of 300 bytes is too long for a report file name"),
    ("x\0y", "is not a plain name"),
], ids=["too-long", "nul"])
def test_a_report_that_cannot_name_a_file_writes_none(tmp_path, capsys, label, error):
    # the first result's confusion grid has a name; the second's has none
    first, second = tmp_path / "a.json", tmp_path / "long.json"
    first.write_text(_multi_result(label="a"))
    second.write_text(_multi_result(label=label))
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["report", "--results", str(first), str(second), "--out-dir", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run-multi", "run-single"])
def test_a_label_too_long_for_a_report_file_name_is_a_usage_error(tmp_path, capsys, command):
    # 110 characters, 220 bytes: the bound counts the bytes a file name takes
    with pytest.raises(SystemExit) as exc:
        main([command, "--features", str(tmp_path / "nope.csv"), "--label", "é" * 110,
              "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "label of 220 bytes is too long for a report file name" in capsys.readouterr().err


def test_the_longest_label_names_a_confusion_file_of_the_widest_session(tmp_path):
    label = "é" * 109 + "a"  # 219 bytes, the most a label may take
    result = tmp_path / "r.json"
    result.write_text(_multi_result(label=label, session=9_999_999))
    assert main(["report", "--results", str(result), "--out-dir", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / f"confusion_{label}_s9999999.csv").exists()


def test_a_report_on_a_full_disk_writes_no_file(tmp_path, capsys, monkeypatch):
    # the first confusion grid is written whole before the second fails
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(_multi_result(label=path.stem))
    fill_the_disk(monkeypatch, "confusion_b")
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["report", "--results", *map(str, paths), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert list(out.iterdir()) == []


def test_resolved_config_is_recorded(fixture_dir, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["run-multi", "--features", str(fixture_dir / "features.csv"),
               "--manifest", str(fixture_dir / "manifest.json"),
               "--k-shot", "3", "--seed", "11", "--memory", "--out", str(out)])
    assert rc == 0
    cfg = json.loads(out.read_text())["config"]
    # all defaults materialized for provenance
    assert cfg["rng_seed"] == 11
    assert cfg["memory_enabled"] is True
    assert set(cfg) >= {"alpha", "beta_base", "beta_prev_novel", "gamma", "tau",
                        "learning_rate", "max_epochs", "convergence_tolerance",
                        "patience_epochs", "regularizer_kind"}
