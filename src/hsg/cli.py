"""Command-line front end: corpus generation, training, evaluation, checks.

Every run writes a manifest with the config hash, seed and content hashes of
its input files; failures print one machine-readable JSON error line and
exit nonzero.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .autodiff import ContractError, DimensionError
from .checkpoint import (CheckpointError, atomic_open, load_checkpoint,
                         restore_params, save_checkpoint)
from .checks import enum_check, grad_check_suite
from .config import ConfigError, load_config, parse_override
from .corpus import (CorpusFormatError, Vocabulary, generate_corpus,
                     load_records, save_records)
from .metrics import DocFreq
from .student import DECODERS, StateTransformNet
from .teacher import build_teacher, pretrain_teacher
from .training import (StudentModel, TrainingDiverged, evaluate_split,
                       pretrain_state_net, train_student)

USER_ERRORS = (ConfigError, ContractError, DimensionError, CheckpointError,
               CorpusFormatError, TrainingDiverged, OSError)


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command, cfg, inputs, outputs):
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest(),
        "inputs": {path: _sha256_file(path) for path in sorted(inputs)},
        "outputs": sorted(outputs),
    }
    # per-command name so runs sharing an output directory keep all manifests
    path = os.path.join(out_dir, f"manifest_{command.replace('-', '_')}.json")
    with atomic_open(path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _corpus_paths(cfg):
    d = cfg.corpus_dir
    return {name: os.path.join(d, f"{name}.jsonl")
            for name in ("train", "val", "test")} | {
        "vocab": os.path.join(d, "vocab.json"),
        "docfreq": os.path.join(d, "docfreq.json")}


def _load_corpus(cfg, splits):
    """Records of the splits a command needs (each must be non-empty),
    vocabulary, document frequencies and the corpus file paths."""
    paths = _corpus_paths(cfg)
    records = {}
    for name in splits:
        records[name] = load_records(paths[name])
        if not records[name]:
            raise CorpusFormatError(f"{paths[name]}: the {name} split has no records")
    with open(paths["vocab"], "rb") as fh:
        vocab = Vocabulary.from_json(fh.read(), paths["vocab"])
    with open(paths["docfreq"], "rb") as fh:
        doc_freq = DocFreq.from_json(fh.read(), paths["docfreq"])
    return records, vocab, doc_freq, paths


def cmd_gen_corpus(cfg):
    os.makedirs(cfg.corpus_dir, exist_ok=True)
    train, val, test, vocab, doc_freq = generate_corpus(
        cfg.corpus_seed, cfg.n_train, cfg.n_val, cfg.n_test,
        captions_per_scene=cfg.captions_per_scene, k_objects=cfg.k_objects)
    paths = _corpus_paths(cfg)
    save_records(paths["train"], train)
    save_records(paths["val"], val)
    save_records(paths["test"], test)
    with atomic_open(paths["vocab"]) as fh:
        fh.write(vocab.to_json() + "\n")
    with atomic_open(paths["docfreq"]) as fh:
        fh.write(doc_freq.to_json() + "\n")
    _write_manifest(cfg.corpus_dir, "gen-corpus", cfg, [], sorted(paths.values()))
    print(json.dumps({"corpus_dir": cfg.corpus_dir, "vocab_size": len(vocab),
                      "scenes": cfg.n_train + cfg.n_val + cfg.n_test}))
    return 0


def cmd_train_teacher(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    records, vocab, _doc_freq, paths = _load_corpus(cfg, splits=("train",))
    teacher, history = pretrain_teacher(records["train"], vocab, cfg)
    out = os.path.join(cfg.output_dir, "teacher.json")
    save_checkpoint(out, "teacher", cfg.family,
                    records["train"][0].features.shape[1],
                    teacher.named_parameters(), cfg.to_dict(),
                    cfg.corpus_seed, vocab.content_hash())
    hist_path = os.path.join(cfg.output_dir, "teacher_history.jsonl")
    with atomic_open(hist_path) as fh:
        for line in history:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    _write_manifest(cfg.output_dir, "train-teacher", cfg,
                    [paths["train"], paths["vocab"]], [out, hist_path])
    # no epochs, no accuracy: null rather than a traceback
    accuracy = history[-1]["token_accuracy"] if history else None
    print(json.dumps({"teacher_checkpoint": out, "final_token_accuracy": accuracy}))
    return 0


def _load_model_checkpoint(path, vocab, kind, feature_dim):
    """Load a checkpoint of the given kind and check the fields that size the
    model, its feature dim against the corpus's feature_dim."""
    ckpt = load_checkpoint(path, expect_vocab_hash=vocab.content_hash())
    if ckpt["kind"] != kind:
        raise CheckpointError(f"{path}: expected a {kind} checkpoint, got {ckpt['kind']}")
    if ckpt["family"] not in DECODERS:
        raise CheckpointError(
            f"{path}: family {ckpt['family']!r} is not one of {tuple(DECODERS)}")
    dims = [ckpt["feature_dim"]] + [ckpt["config"].get(k) for k in ("embed_dim", "hidden_dim")]
    if not all(type(d) is int and d >= 1 for d in dims):
        raise CheckpointError(
            f"{path}: feature_dim, embed_dim and hidden_dim must be positive integers")
    if feature_dim != ckpt["feature_dim"]:
        raise CheckpointError(
            f"{path}: feature dim {ckpt['feature_dim']} does not match corpus "
            f"features of dim {feature_dim}")
    return ckpt


def load_teacher(path, vocab, feature_dim):
    ckpt = _load_model_checkpoint(path, vocab, "teacher", feature_dim)
    cfgd = ckpt["config"]
    teacher = build_teacher(len(vocab), ckpt["family"], cfgd["embed_dim"],
                            cfgd["hidden_dim"], ckpt["feature_dim"], seed=0,
                            bos_id=vocab.BOS, eos_id=vocab.EOS)
    restore_params(teacher.named_parameters(), ckpt["params"])
    teacher.freeze()
    return teacher, ckpt


def load_student(path, vocab, feature_dim):
    ckpt = _load_model_checkpoint(path, vocab, "student", feature_dim)
    cfgd = ckpt["config"]
    rng = np.random.default_rng(0)
    decoder = DECODERS[ckpt["family"]](len(vocab), cfgd["embed_dim"],
                                       cfgd["hidden_dim"], ckpt["feature_dim"],
                                       vocab.BOS, vocab.EOS, rng)
    statenet = StateTransformNet(ckpt["feature_dim"], decoder.layer_dims, rng)
    student = StudentModel(decoder, statenet)
    restore_params(student.named_parameters(), ckpt["params"])
    return student, ckpt


def cmd_train_student(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    if not cfg.teacher_checkpoint:
        raise ConfigError("train-student requires teacher_checkpoint in the config")
    records, vocab, doc_freq, paths = _load_corpus(cfg, splits=("train", "val"))
    feature_dim = records["train"][0].features.shape[1]
    teacher, ckpt = load_teacher(cfg.teacher_checkpoint, vocab, feature_dim)
    # the student is built from the teacher but saved and reloaded from cfg
    built = dict(ckpt["config"], family=ckpt["family"])
    for key in ("family", "embed_dim", "hidden_dim"):
        if built[key] != getattr(cfg, key):
            raise ConfigError(
                f"{key} is {getattr(cfg, key)!r} but the teacher checkpoint "
                f"{cfg.teacher_checkpoint} has {built[key]!r}")
    statenet = pretrain_state_net(records["train"], teacher, vocab, cfg)
    student, history = train_student(records["train"], records["val"], teacher,
                                     statenet, vocab, doc_freq, cfg)
    out = os.path.join(cfg.output_dir, "student.json")
    save_checkpoint(out, "student", cfg.family, feature_dim,
                    student.named_parameters(), cfg.to_dict(),
                    cfg.corpus_seed, vocab.content_hash())
    hist_path = os.path.join(cfg.output_dir, "history.jsonl")
    with atomic_open(hist_path) as fh:
        for line in history:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    _write_manifest(cfg.output_dir, "train-student", cfg,
                    sorted(paths.values()) + [cfg.teacher_checkpoint],
                    [out, hist_path])
    best = max((line["cider"] for line in history), default=None)
    print(json.dumps({"student_checkpoint": out, "best_val_cider": best}))
    return 0


def cmd_evaluate(cfg, checkpoint, split):
    records, vocab, doc_freq, paths = _load_corpus(cfg, splits=(split,))
    student, _ckpt = load_student(checkpoint, vocab,
                                  records[split][0].features.shape[1])
    metrics = evaluate_split(student, records[split], vocab, doc_freq,
                             cfg.beam_width, cfg.t_max)
    result = {"split": split, "n": len(records[split]), **metrics}
    os.makedirs(cfg.output_dir, exist_ok=True)
    out = os.path.join(cfg.output_dir, f"eval_{split}.json")
    with atomic_open(out) as fh:
        json.dump(result, fh, sort_keys=True)
        fh.write("\n")
    _write_manifest(cfg.output_dir, "evaluate", cfg,
                    [paths[split], paths["vocab"], paths["docfreq"], checkpoint],
                    [out])
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_grad_check():
    results = grad_check_suite()
    ok = True
    for entry in results:
        status = "ok" if entry["ok"] else "FAIL"
        print(f"{status:4s} {entry['name']:24s} max_error={entry['max_error']:.3e}")
        ok = ok and entry["ok"]
    print(json.dumps({"ok": ok, "n_cases": len(results)}))
    return 0 if ok else 1


def cmd_enum_check():
    ok = True
    for family in ("fc", "updown"):
        report = enum_check(family=family)
        print(json.dumps(report, sort_keys=True))
        ok = ok and report["ok"]
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsg",
        description="teacher/student captioning lab with hidden-state guidance")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cfg(p):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (flags win over the file)")

    for name in ("gen-corpus", "train-teacher", "train-student"):
        add_cfg(sub.add_parser(name))
    p_eval = sub.add_parser("evaluate")
    add_cfg(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    sub.add_parser("grad-check")
    sub.add_parser("enum-check")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "grad-check":
            return cmd_grad_check()
        if args.command == "enum-check":
            return cmd_enum_check()
        overrides = [parse_override(s) for s in args.set]
        cfg = load_config(args.config, overrides)
        if args.command == "gen-corpus":
            return cmd_gen_corpus(cfg)
        if args.command == "train-teacher":
            return cmd_train_teacher(cfg)
        if args.command == "train-student":
            return cmd_train_student(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint, args.split)
        raise ConfigError(f"unknown command {args.command!r}")
    except USER_ERRORS as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
