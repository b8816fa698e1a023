"""Checkpoint persistence: JSON with hex-encoded 64-bit floats.

Hex encoding makes round trips bit-exact across platforms, which matters
more at desk scale than file size.  Loading verifies the format version and
the vocabulary hash so a checkpoint can never silently run against the
wrong token map.
"""

import contextlib
import json
import math
import os

import numpy as np

__all__ = ["CheckpointError", "FORMAT_VERSION", "save_checkpoint",
           "load_checkpoint", "restore_params", "atomic_open"]

FORMAT_VERSION = 1

# required top-level keys beside "version", with their JSON types
_KEYS = {"kind": str, "family": str, "feature_dim": int, "vocab_hash": str,
         "config": dict, "params": dict}


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def atomic_open(path):
    """Open path for writing through a temp file in the same directory.

    The temp file replaces path only when the block finishes, so readers see
    the previous file or the complete new one; on an exception the previous
    file stays as it was and the temp file is removed.  The temp file is
    flushed to disk before the replace and the directory after it, so the
    new file also survives a power loss once this returns.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _encode_array(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes().hex()


def _decode_array(name, entry):
    if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
        raise CheckpointError(f"parameter {name}: expected an object with shape and data")
    shape, text = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise CheckpointError(f"parameter {name}: shape {shape!r} is not a list of sizes")
    n = math.prod(shape)
    if not isinstance(text, str) or len(text) != 16 * n:
        raise CheckpointError(f"parameter {name}: payload has wrong length for shape {shape}")
    try:
        raw = bytes.fromhex(text)
    except ValueError as err:
        raise CheckpointError(f"parameter {name}: payload is not hex ({err})") from err
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"parameter {name}: values must be finite")
    return arr


def save_checkpoint(path, kind, family, feature_dim, named_params, config,
                    corpus_seed, vocab_hash):
    obj = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "family": family,
        "feature_dim": feature_dim,
        "corpus_seed": corpus_seed,
        "vocab_hash": vocab_hash,
        "config": config,
        "params": {
            name: {"shape": list(p.data.shape), "data": _encode_array(p.data)}
            for name, p in named_params.items()
        },
    }
    with atomic_open(path) as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path, expect_vocab_hash=None):
    """Read a checkpoint; every malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise CheckpointError(f"{path}: not a checkpoint file ({err})") from err
    if not isinstance(obj, dict):
        raise CheckpointError(f"{path}: not a checkpoint file (not a JSON object)")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} does not match {FORMAT_VERSION}")
    missing = [key for key in _KEYS if key not in obj]
    if missing:
        raise CheckpointError(f"{path}: checkpoint lacks {missing}")
    for key, kind in _KEYS.items():
        if not isinstance(obj[key], kind) or isinstance(obj[key], bool):
            raise CheckpointError(f"{path}: {key} has the wrong type")
    if expect_vocab_hash is not None and obj["vocab_hash"] != expect_vocab_hash:
        raise CheckpointError(
            f"{path}: checkpoint vocabulary hash {obj['vocab_hash'][:12]}... does "
            f"not match the loaded vocabulary {expect_vocab_hash[:12]}...")
    obj["params"] = {name: _decode_array(name, entry)
                     for name, entry in obj["params"].items()}
    return obj


def restore_params(named_params, loaded_params):
    """Copy loaded arrays into model parameters, checking names and shapes."""
    missing = set(named_params) - set(loaded_params)
    extra = set(loaded_params) - set(named_params)
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match (missing {sorted(missing)}, "
            f"unexpected {sorted(extra)})")
    for name, p in named_params.items():
        arr = loaded_params[name]
        if tuple(arr.shape) != p.data.shape:
            raise CheckpointError(
                f"parameter {name}: shape {tuple(arr.shape)} does not match "
                f"{p.data.shape}")
        p.data[...] = arr
