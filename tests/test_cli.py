import json
import os
import shutil
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsg import cli
from hsg.checkpoint import (CheckpointError, atomic_open, load_checkpoint,
                            restore_params, save_checkpoint)
from hsg.config import ConfigError, RunConfig, load_config
from hsg.corpus import Vocabulary, generate_corpus, save_records
from hsg.layers import Linear
from hsg.student import DECODERS


BASE = {
    "corpus_seed": 3, "n_train": 6, "n_val": 2, "n_test": 2,
    "hidden_dim": 12, "embed_dim": 8, "teacher_epochs": 2, "epochs": 1,
    "mle_warmup_epochs": 0, "statenet_steps": 50, "beam_width": 2,
    "t_max": 10, "seed": 5, "lr": 0.2,
}


def write_config(tmp_path, **extra):
    cfg = dict(BASE)
    cfg["corpus_dir"] = str(tmp_path / "corpus")
    cfg["output_dir"] = str(tmp_path / "out")
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "no_such_key": 2}))
    with pytest.raises(ConfigError, match="no_such_key"):
        load_config(str(path))


def test_config_env_and_override_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1}))
    cfg = load_config(str(path), env={"HSG_SEED": "7"})
    assert cfg.seed == 7
    cfg = load_config(str(path), overrides=["seed=9"], env={"HSG_SEED": "7"})
    assert cfg.seed == 9


def test_config_validation_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "bogus"}))
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"state_loss_weight": -1.0}))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    lin = Linear(3, 4, rng)
    # values that stress decimal printing round-trip exactly in hex
    lin.w.data[0, 0] = 1.0 / 3.0
    lin.w.data[0, 1] = -0.0
    params = lin.named_parameters("m")
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), "student", "fc", 3, params, {"x": 1}, 0, "hash")
    loaded = load_checkpoint(str(path))
    for name, p in params.items():
        arr = loaded["params"][name]
        assert arr.tobytes() == p.data.tobytes()
    lin2 = Linear(3, 4, np.random.default_rng(1))
    restore_params(lin2.named_parameters("m"), loaded["params"])
    assert lin2.w.data.tobytes() == lin.w.data.tobytes()


def test_checkpoint_version_and_vocab_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    lin = Linear(2, 2, rng)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), "student", "fc", 2,
                    lin.named_parameters("m"), {}, 0, "righthash")
    with pytest.raises(CheckpointError, match="vocabulary hash"):
        load_checkpoint(str(path), expect_vocab_hash="wronghash")
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


def test_config_requires_two_objects():
    # the caption template names objects 0 and 1
    with pytest.raises(ConfigError, match="k_objects"):
        RunConfig(k_objects=1).validate()
    RunConfig(k_objects=2).validate()
    train = generate_corpus(0, 1, 1, 1, k_objects=2)[0]
    assert train[0].features.shape[0] == 2


def valid_checkpoint():
    lin = Linear(2, 2, np.random.default_rng(0))
    return {"version": 1, "kind": "student", "family": "fc", "feature_dim": 2,
            "corpus_seed": 0, "vocab_hash": "h", "config": {},
            "params": {name: {"shape": list(p.data.shape),
                              "data": p.data.astype("<f8").tobytes().hex()}
                       for name, p in lin.named_parameters("m").items()}}


def drop(*keys):
    def mutate(obj):
        for key in keys[:-1]:
            obj = obj[key]
        del obj[keys[-1]]
    return mutate


def put(value, *keys):
    def mutate(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    return mutate


MALFORMED = {
    "non-hex payload": put("zz" * 32, "params", "m.w", "data"),
    "missing vocab_hash": drop("vocab_hash"),
    "missing params": drop("params"),
    "missing shape": drop("params", "m.w", "shape"),
    "missing data": drop("params", "m.w", "data"),
    "missing kind": drop("kind"),
    "missing family": drop("family"),
    "missing feature_dim": drop("feature_dim"),
    "missing config": drop("config"),
    "negative shape": put([-2, -2], "params", "m.w", "shape"),
    "string shape": put("2x2", "params", "m.w", "shape"),
    "list params": put([], "params"),
    "string feature_dim": put("2", "feature_dim"),
    "infinite value": put(struct.pack("<4d", 0.5, float("inf"), 0.0, 1.0).hex(),
                          "params", "m.w", "data"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_checkpoint_malformed_raises_checkpoint_error(tmp_path, case):
    obj = valid_checkpoint()
    MALFORMED[case](obj)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(obj))
    for expect in (None, "h"):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path), expect_vocab_hash=expect)


def test_checkpoint_not_an_object_or_not_text(tmp_path):
    path = tmp_path / "ckpt.json"
    for payload in (b"[1, 2]", b"\xff\xfe\x00{", b"[" * 100000):
        path.write_bytes(payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 40) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["0" * 64, "zz" * 32, "fc", "student"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)

KEY_PATHS = [("version",), ("kind",), ("family",), ("feature_dim",),
             ("vocab_hash",), ("config",), ("params",), ("params", "m.w"),
             ("params", "m.w", "shape"), ("params", "m.w", "data"),
             ("params", "m.w", "shape", 0), ("params", "m.b", "shape")]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=st.sampled_from(KEY_PATHS), value=st.none() | JSON_VALUES,
       delete=st.booleans(), cut=st.integers(0, 2000))
def test_checkpoint_fuzz_only_checkpoint_errors(tmp_path, keys, value, delete, cut):
    obj = valid_checkpoint()
    mutate = drop(*keys) if delete else put(value, *keys)
    mutate(obj)
    text = json.dumps(obj)
    path = tmp_path / "fuzz.json"
    for payload in (text, text[:cut]):
        path.write_text(payload)
        try:
            loaded = load_checkpoint(str(path), expect_vocab_hash="h")
        except CheckpointError:
            continue
        assert all(isinstance(a, np.ndarray) for a in loaded["params"].values())


def test_checkpoint_shape_mismatch(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), "student", "fc", 2,
                    Linear(2, 2, rng).named_parameters("m"), {}, 0, "h")
    loaded = load_checkpoint(str(path))
    with pytest.raises(CheckpointError):
        restore_params(Linear(3, 2, rng).named_parameters("m"), loaded["params"])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(tmp_path)
    assert cli.main(["gen-corpus", "--config", cfg_path]) == 0
    assert cli.main(["train-teacher", "--config", cfg_path]) == 0
    teacher_ckpt = str(tmp_path / "out" / "teacher.json")
    assert cli.main(["train-student", "--config", cfg_path,
                     "--set", f"teacher_checkpoint={teacher_ckpt}"]) == 0
    return tmp_path, cfg_path


def test_pipeline_outputs_exist(pipeline_dir):
    tmp_path, _ = pipeline_dir
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.json",
                 "docfreq.json", "manifest_gen_corpus.json"):
        assert (tmp_path / "corpus" / name).exists()
    for name in ("teacher.json", "teacher_history.jsonl", "student.json",
                 "history.jsonl", "manifest_train_teacher.json",
                 "manifest_train_student.json"):
        assert (tmp_path / "out" / name).exists()
    history = [json.loads(line) for line in
               (tmp_path / "out" / "history.jsonl").read_text().splitlines()]
    assert all(line["split"] == "val" for line in history)
    assert {"epoch", "bleu4", "rouge_l", "cider", "mean_state_loss"} <= set(history[0])


def test_gen_corpus_idempotent(pipeline_dir, capsys):
    tmp_path, cfg_path = pipeline_dir
    before = (tmp_path / "corpus" / "train.jsonl").read_bytes()
    assert cli.main(["gen-corpus", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert (tmp_path / "corpus" / "train.jsonl").read_bytes() == before


def test_evaluate_zero_epoch_checkpoint(pipeline_dir, capsys):
    tmp_path, cfg_path = pipeline_dir
    out2 = str(tmp_path / "out_zero")
    assert cli.main(["train-student", "--config", cfg_path,
                     "--set", f"teacher_checkpoint={tmp_path / 'out' / 'teacher.json'}",
                     "--set", "epochs=0", "--set", f"output_dir={out2}"]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path,
                     "--checkpoint", os.path.join(out2, "student.json"),
                     "--split", "test"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for key in ("bleu4", "rouge_l", "cider"):
        assert np.isfinite(result[key])


def test_evaluate_writes_metrics_file(pipeline_dir, capsys):
    tmp_path, cfg_path = pipeline_dir
    assert cli.main(["evaluate", "--config", cfg_path,
                     "--checkpoint", str(tmp_path / "out" / "student.json"),
                     "--split", "val"]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "out" / "eval_val.json").read_text())
    assert data["split"] == "val" and data["n"] == 2


def test_manifest_contents(pipeline_dir):
    tmp_path, _ = pipeline_dir
    manifest = json.loads(
        (tmp_path / "out" / "manifest_train_student.json").read_text())
    assert manifest["command"] == "train-student"
    assert manifest["seed"] == BASE["seed"]
    assert len(manifest["config_sha256"]) == 64
    assert all(len(h) == 64 for h in manifest["inputs"].values())


def test_cli_error_is_machine_readable(tmp_path, capsys):
    cfg_path = write_config(tmp_path, mode="nonsense")
    code = cli.main(["gen-corpus", "--config", cfg_path])
    assert code == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "mode" in err["message"]


def test_cli_missing_teacher_checkpoint(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert cli.main(["gen-corpus", "--config", cfg_path]) == 0
    code = cli.main(["train-student", "--config", cfg_path])
    assert code == 1
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("setting", ["family=updown", "embed_dim=6", "hidden_dim=8"])
def test_train_student_rejects_config_that_does_not_match_teacher(
        pipeline_dir, tmp_path, capsys, setting):
    # the student is built from the teacher checkpoint but labelled and
    # reloaded from the config: a mismatch wrote a checkpoint that could not
    # be loaded
    src, cfg_path = pipeline_dir
    out = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["train-student", "--config", cfg_path, "--set", setting,
                     "--set", f"output_dir={out}",
                     "--set", f"teacher_checkpoint={src / 'out' / 'teacher.json'}"])
    (line,) = capsys.readouterr().out.strip().splitlines()
    err = json.loads(line)
    assert code == 1 and err["error"] == "ConfigError"
    assert setting.split("=")[0] in err["message"]
    assert not (out / "student.json").exists()


def test_cli_corpus_errors_are_machine_readable(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert cli.main(["gen-corpus", "--config", cfg_path]) == 0
    train = tmp_path / "corpus" / "train.jsonl"
    good = train.read_bytes()
    for bad in (b"[" * 100000, b'{"scene_id": 0, "captions": ["\xff"]}'):
        train.write_bytes(good + bad + b"\n")
        capsys.readouterr()
        assert cli.main(["train-teacher", "--config", cfg_path]) == 1
        err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert err["error"] == "CorpusFormatError"
        assert f"line {BASE['n_train'] + 1}" in err["message"]


def test_interrupted_writes_keep_previous_file(tmp_path):
    class Interrupt(Exception):
        pass

    def interrupted(write, error=Interrupt):
        before = sorted(os.listdir(tmp_path))
        previous = path.read_bytes()
        with pytest.raises(error):
            write()
        assert path.read_bytes() == previous
        assert sorted(os.listdir(tmp_path)) == before

    def raise_midway(fh):
        fh.write("partial")
        fh.flush()
        raise Interrupt

    path = tmp_path / "file.txt"
    path.write_text("previous\n")

    def direct():
        with atomic_open(path) as fh:
            raise_midway(fh)

    interrupted(direct)

    rng = np.random.default_rng(0)
    save_checkpoint(str(path), "student", "fc", 2,
                    Linear(2, 2, rng).named_parameters("m"), {}, 0, "h")

    interrupted(lambda: save_checkpoint(
        str(path), "student", "fc", 2, Linear(2, 2, rng).named_parameters("m"),
        {"unserializable": object()}, 0, "h"), TypeError)

    train = generate_corpus(3, 3, 1, 1)[0]
    save_records(path, train)
    # the second record fails after the first was written
    broken = train[:1] + [type(train[1])(1, None, [["a"]])]
    interrupted(lambda: save_records(path, broken), TypeError)


def test_atomic_write_syncs_file_then_replaces_then_syncs_directory(
        tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", "dir" if stat.S_ISDIR(info.st_mode) else "file",
                       info.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "file.txt"
    with atomic_open(path) as fh:
        fh.write("complete\n")
    assert path.read_text() == "complete\n"
    assert [e[:2] for e in events] == [("fsync", "file"), ("replace",),
                                       ("fsync", "dir")]
    # the file was synced with everything written to it
    assert events[0][2] == len("complete\n")


def test_student_checkpoint_rejects_foreign_vocab(pipeline_dir, tmp_path):
    src, cfg_path = pipeline_dir
    other = generate_corpus(99, 2, 1, 1)[3]
    path = src / "out" / "student.json"
    dim = json.loads(path.read_text())["feature_dim"]
    with pytest.raises(CheckpointError):
        cli.load_student(str(path), other, dim)


def test_loaded_models_decode_with_the_vocabulary_ids(pipeline_dir):
    src, _cfg_path = pipeline_dir
    vocab = Vocabulary.from_json((src / "corpus" / "vocab.json").read_text())
    dim = json.loads((src / "out" / "student.json").read_text())["feature_dim"]
    student, _ckpt = cli.load_student(str(src / "out" / "student.json"), vocab, dim)
    teacher, _ckpt = cli.load_teacher(str(src / "out" / "teacher.json"), vocab, dim)
    for decoder in (student.decoder, teacher.decoder):
        assert (decoder.bos_id, decoder.eos_id) == (vocab.BOS, vocab.EOS)


def test_evaluate_rejects_non_finite_parameter(pipeline_dir, tmp_path, capsys):
    # NaN logits would leave every beam pool empty; the load names the value
    src, cfg_path = pipeline_dir
    obj = json.loads((src / "out" / "student.json").read_text())
    entry = obj["params"]["decoder.out.w"]
    entry["data"] = struct.pack("<d", float("nan")).hex() * (len(entry["data"]) // 16)
    path = tmp_path / "student.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path, "--checkpoint", str(path)]) == 1
    (line,) = capsys.readouterr().out.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "CheckpointError"
    assert "decoder.out.w" in error["message"] and "finite" in error["message"]


def test_checkpoint_unknown_family_rejected(pipeline_dir, tmp_path):
    src, _cfg_path = pipeline_dir
    vocab = Vocabulary.from_json((src / "corpus" / "vocab.json").read_text())
    for name, load in (("student", cli.load_student), ("teacher", cli.load_teacher)):
        obj = json.loads((src / "out" / f"{name}.json").read_text())
        obj["family"] = "lstm"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="family"):
            load(str(path), vocab, obj["feature_dim"])


def test_checkpoint_feature_dim_must_match_corpus(pipeline_dir, monkeypatch):
    src, _cfg_path = pipeline_dir
    vocab = Vocabulary.from_json((src / "corpus" / "vocab.json").read_text())
    dim = json.loads((src / "out" / "student.json").read_text())["feature_dim"]

    def fail(*_args, **_kwargs):
        raise AssertionError("the feature dim is checked before a model is built")

    # neither model may be built, let alone restored, before the check
    for name in ("build_teacher", "StateTransformNet", "restore_params"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(cli, "DECODERS", {family: fail for family in DECODERS})
    for name, load in (("student", cli.load_student), ("teacher", cli.load_teacher)):
        with pytest.raises(CheckpointError,
                           match=f"feature dim {dim} does not match corpus "
                                 f"features of dim {dim + 1}"):
            load(str(src / "out" / f"{name}.json"), vocab, dim + 1)


def last_json_line(out):
    """The last printed line, parsed as strict JSON (no NaN or Infinity)."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(out.strip().splitlines()[-1], parse_constant=reject)


@pytest.mark.parametrize("fault,want", [
    ("config_is_directory", "IsADirectoryError"),
    ("config_not_utf8", "ConfigError"),
    ("config_nested_too_deep", "ConfigError"),
    ("corpus_dir_is_file", "FileExistsError"),
    ("output_dir_is_file", "FileExistsError"),
])
def test_unreadable_config_or_blocked_directory_ends_in_one_json_line(
        tmp_path, capsys, fault, want):
    # each of these ended in a traceback
    cfg_path = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    command, flags, named = "gen-corpus", [], cfg_path
    if fault == "config_is_directory":
        cfg_path = named = str(tmp_path)
    elif fault == "config_not_utf8":
        (tmp_path / "config.json").write_bytes(b'{"mode": "\xff"}')
    elif fault == "config_nested_too_deep":
        (tmp_path / "config.json").write_bytes(b"[" * 100000)
    elif fault == "corpus_dir_is_file":
        flags, named = ["--set", f"corpus_dir={blocker}"], str(blocker)
    else:
        command = "train-teacher"
        flags, named = ["--set", f"output_dir={blocker}"], str(blocker)
    code = cli.main([command, "--config", cfg_path, *flags])
    err = last_json_line(capsys.readouterr().out)
    assert code == 1 and err["error"] == want
    assert named in err["message"]


@pytest.mark.parametrize("command,setting,want", [
    ("train-teacher", "teacher_epochs=0", "final_token_accuracy"),
    ("train-student", "epochs=0", "best_val_cider"),
    ("train-teacher", "hidden_dim=0", "ConfigError"),
    ("train-teacher", "embed_dim=0", "ConfigError"),
    ("train-teacher", "hidden_dim=-3", "ConfigError"),
    ("train-teacher", "teacher_epochs=-1", "ConfigError"),
    ("train-teacher", "epochs=-1", "ConfigError"),
    ("train-teacher", "mle_warmup_epochs=-1", "ConfigError"),
    ("train-teacher", "statenet_steps=-1", "ConfigError"),
    # file:KEY=RAW writes the raw JSON value into the config file itself
    ("train-teacher", "file:lr=NaN", "ConfigError"),
    ("train-teacher", "file:rl_lr=Infinity", "ConfigError"),
    ("train-teacher", "file:state_loss_weight=NaN", "ConfigError"),
    ("train-teacher", "file:statenet_lr=-Infinity", "ConfigError"),
    ("train-teacher", "file:lr=-0.1", "ConfigError"),
    ("train-teacher", "file:rl_lr=0", "ConfigError"),
    ("train-teacher", "file:statenet_lr=-0.05", "ConfigError"),
    ("train-teacher", "file:grad_clip=0", "ConfigError"),
    ("train-teacher", "seed=-1", "ConfigError"),
    ("gen-corpus", "corpus_seed=-1", "ConfigError"),
    # a removed key is an unknown key
    ("train-teacher", "file:match_cell_states=true", "ConfigError"),
    ("gen-corpus", "file:min_count=1", "ConfigError"),
])
def test_degenerate_config_ends_in_one_json_line(pipeline_dir, tmp_path, capsys,
                                                 command, setting, want):
    # zero epochs is a legal run whose empty history prints null; a dim
    # below one, a negative count or seed, a non-finite number, a learning
    # rate <= 0 or a grad_clip <= 0 is a ConfigError
    src, cfg_path = pipeline_dir
    flags = ["--set", setting]
    if setting.startswith("file:"):
        setting = setting[len("file:"):]
        key, raw = setting.split("=", 1)
        text = (src / "config.json").read_text().rstrip()
        cfg_path = tmp_path / "degenerate.json"
        # a repeated key takes the last value
        cfg_path.write_text(text[:-1] + f', "{key}": {raw}}}')
        flags = []
    capsys.readouterr()
    code = cli.main([command, "--config", str(cfg_path), *flags,
                     "--set", f"output_dir={tmp_path / 'out'}",
                     "--set", f"teacher_checkpoint={src / 'out' / 'teacher.json'}"])
    line = last_json_line(capsys.readouterr().out)
    if want == "ConfigError":
        assert code == 1 and line["error"] == "ConfigError"
        assert setting.split("=")[0] in line["message"]
    else:
        assert code == 0 and line[want] is None


@pytest.mark.parametrize("name,text", [
    ("docfreq.json", '{"M": 3}'),
    ("docfreq.json", "garbage"),
    ("docfreq.json", '{"M": 0, "df": {}}'),
    ("vocab.json", "[1,2]"),
    ("vocab.json", "garbage"),
    ("vocab.json", '{"tokens": ["pad", "bos", "eos", "unk", 7]}'),
])
def test_malformed_vocab_or_docfreq_is_corpus_format_error(pipeline_dir, tmp_path,
                                                            capsys, name, text):
    src, cfg_path = pipeline_dir
    corpus = tmp_path / "corpus"
    shutil.copytree(src / "corpus", corpus)
    (corpus / name).write_text(text)
    capsys.readouterr()
    code = cli.main(["evaluate", "--config", cfg_path,
                     "--set", f"corpus_dir={corpus}",
                     "--set", f"output_dir={tmp_path / 'out'}",
                     "--checkpoint", str(src / "out" / "student.json")])
    err = last_json_line(capsys.readouterr().out)
    assert code == 1 and err["error"] == "CorpusFormatError"
    assert str(corpus / name) in err["message"]


@pytest.mark.parametrize("command,split", [
    ("evaluate", "test"),
    ("train-teacher", "train"),
    ("train-student", "train"),
    ("train-student", "val"),
])
def test_empty_split_is_corpus_format_error(pipeline_dir, tmp_path, capsys,
                                            command, split):
    # an empty split died with ZeroDivisionError (evaluate) or IndexError
    # (train-teacher, train-student)
    src, cfg_path = pipeline_dir
    corpus = tmp_path / "corpus"
    shutil.copytree(src / "corpus", corpus)
    (corpus / f"{split}.jsonl").write_bytes(b"")
    extra = {"evaluate": ["--checkpoint", str(src / "out" / "student.json")],
             "train-student": ["--set",
                               f"teacher_checkpoint={src / 'out' / 'teacher.json'}"]}
    capsys.readouterr()
    code = cli.main([command, "--config", cfg_path,
                     "--set", f"corpus_dir={corpus}",
                     "--set", f"output_dir={tmp_path / 'out'}",
                     *extra.get(command, [])])
    err = last_json_line(capsys.readouterr().out)
    assert code == 1 and err["error"] == "CorpusFormatError"
    assert str(corpus / f"{split}.jsonl") in err["message"]


def test_grad_check_command_exits_zero(capsys):
    assert cli.main(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["ok"] is True


def test_enum_check_command_exits_zero(capsys):
    assert cli.main(["enum-check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(line) for line in lines]
    assert {r["family"] for r in reports} == {"fc", "updown"}
    assert all(r["ok"] for r in reports)


def test_evaluate_mixed_k_split_equals_per_scene_sums(tmp_path, capsys, monkeypatch):
    # a hand-written updown split whose scenes have K = 3 or K = 6 objects:
    # evaluate decodes each K group as one context, and its means equal the
    # per-scene metrics added up in record order
    import hsg.training
    from hsg.corpus import load_records
    from hsg.metrics import build_doc_freq
    from hsg.student import StateTransformNet, UpDownDecoder
    from hsg.training import StudentModel, evaluate_split

    rng = np.random.default_rng(4)
    words = ["red", "cat", "near", "blue", "dog", "big"]
    ks = [3, 6, 3, 6, 6, 3, 3]
    lines = []
    for i, k in enumerate(ks):
        caps = [list(rng.choice(words, size=int(rng.integers(2, 6)))) for _ in range(2)]
        lines.append(json.dumps({"scene_id": i, "K": k,
                                 "features": rng.normal(size=(k, 5)).tolist(),
                                 "captions": caps}))
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "test.jsonl").write_text("\n".join(lines) + "\n")
    records = load_records(str(corpus / "test.jsonl"))
    vocab = Vocabulary.from_captions(c for rec in records for c in rec.captions)
    doc_freq = build_doc_freq([rec.captions for rec in records])
    (corpus / "vocab.json").write_text(vocab.to_json())
    (corpus / "docfreq.json").write_text(doc_freq.to_json())

    cfg = RunConfig(family="updown", hidden_dim=8, embed_dim=6, beam_width=3,
                    t_max=6, corpus_dir=str(corpus), output_dir=str(tmp_path / "out"))
    decoder = UpDownDecoder(len(vocab), 6, 8, 5, vocab.BOS, vocab.EOS, rng)
    student = StudentModel(decoder, StateTransformNet(5, decoder.layer_dims, rng))
    ckpt = tmp_path / "student.json"
    save_checkpoint(str(ckpt), "student", "updown", 5, student.named_parameters(),
                    cfg.to_dict(), 0, vocab.content_hash())
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    per_scene = [evaluate_split(student, [rec], vocab, doc_freq, 3, 6) for rec in records]
    sums = {key: 0.0 for key in per_scene[0]}
    for metrics in per_scene:
        for key, value in metrics.items():
            sums[key] += value
    assert sums["rouge_l"] > 0.0

    contexts = []
    search = hsg.training.beam_search

    def spy(decoder, ctx, *args, **kwargs):
        contexts.append(ctx.feats.data.shape)
        return search(decoder, ctx, *args, **kwargs)

    monkeypatch.setattr(hsg.training, "beam_search", spy)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--split", "test"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert contexts == [(4, 3, 5), (3, 6, 5)]
    assert result["n"] == len(ks)
    for key, total in sums.items():
        assert result[key] == total / len(ks)
