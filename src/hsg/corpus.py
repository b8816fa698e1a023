"""Deterministic synthetic scene/caption corpus, vocabulary and JSONL I/O.

Each scene is K objects, each described by a category, a color and a size.
Object features are one-hot category + one-hot color + a size scalar + pure
gaussian noise dims (sigma 0.05), all drawn from a generator seeded by
(corpus_seed, scene_id).  Captions follow a fixed template over objects 0
and 1; every reference picks its own surface synonyms so the C references
of a scene differ.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError
from .checkpoint import atomic_open
from .metrics import build_doc_freq

__all__ = [
    "CorpusRecord", "Vocabulary", "CorpusFormatError", "generate_corpus",
    "save_records", "load_records", "TEMPLATE_SLOTS",
]

# canonical attribute -> surface synonym pair (index 0/1)
CATEGORIES = {
    "cat": ["cat", "feline"], "dog": ["dog", "hound"], "bird": ["bird", "fowl"],
    "car": ["car", "auto"], "tree": ["tree", "oak"], "house": ["house", "home"],
    "ball": ["ball", "orb"], "box": ["box", "crate"], "cup": ["cup", "mug"],
    "fish": ["fish", "trout"],
}
COLORS = {
    "red": ["red", "crimson"], "blue": ["blue", "azure"],
    "green": ["green", "jade"], "yellow": ["yellow", "gold"],
    "black": ["black", "ebony"], "white": ["white", "ivory"],
}
SIZES = {"small": ["small", "little"], "big": ["big", "large"],
         "huge": ["huge", "giant"]}
RELATIONS = {"near": ["near", "beside"], "above": ["above", "over"],
             "under": ["under", "below"], "behind": ["behind", "past"]}

_CAT_NAMES = list(CATEGORIES)
_COLOR_NAMES = list(COLORS)
_SIZE_NAMES = list(SIZES)
_REL_NAMES = list(RELATIONS)
_SIZE_VALUES = [0.3, 0.6, 0.9]

NOISE_DIMS = 15
NOISE_SIGMA = 0.05
FEATURE_DIM = len(_CAT_NAMES) + len(_COLOR_NAMES) + 1 + NOISE_DIMS
MAX_CAPTION_LEN = 12

# slots of the caption template that carry a synonym choice, in order
TEMPLATE_SLOTS = 6


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed; names the offending line."""


@dataclass
class CorpusRecord:
    scene_id: int
    features: np.ndarray  # (K, FEATURE_DIM)
    captions: list        # C lists of word tokens

    @property
    def k(self):
        return self.features.shape[0]


class Vocabulary:
    """Token <-> id map with reserved ids 0=pad, 1=bos, 2=eos, 3=unk."""

    PAD, BOS, EOS, UNK = 0, 1, 2, 3
    RESERVED = ("pad", "bos", "eos", "unk")

    def __init__(self, tokens):
        if tuple(tokens[:4]) != self.RESERVED:
            raise ContractError("vocabulary must start with the reserved tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ContractError("vocabulary tokens must be unique")

    def __len__(self):
        return len(self.tokens)

    @classmethod
    def from_captions(cls, captions):
        return cls(list(cls.RESERVED) + sorted({tok for cap in captions for tok in cap}))

    def encode(self, words):
        """Map words to content ids (no bos or eos); unknowns become unk."""
        return [self.index.get(w, self.UNK) for w in words]

    def decode(self, ids):
        """Inverse of encode for in-vocabulary words; drops reserved ids."""
        return [self.tokens[i] for i in ids if i > self.UNK]

    def to_json(self):
        return json.dumps({"tokens": self.tokens})

    @classmethod
    def from_json(cls, text, path="<string>"):
        """Parse to_json output; any malformed input raises CorpusFormatError
        naming path and the fault."""
        try:
            tokens = json.loads(text)["tokens"]
            if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                raise ValueError("tokens must be a list of strings")
            return cls(tokens)
        except (ValueError, KeyError, TypeError, RecursionError) as err:
            raise CorpusFormatError(f"{path}: not a vocabulary ({err!r})") from err

    def content_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _make_scene(corpus_seed, scene_id, k_objects, captions_per_scene):
    rng = np.random.default_rng([corpus_seed, scene_id])
    objects = [(int(rng.integers(len(_CAT_NAMES))),
                int(rng.integers(len(_COLOR_NAMES))),
                int(rng.integers(len(_SIZE_NAMES))))
               for _ in range(k_objects)]
    relation = int(rng.integers(len(_REL_NAMES)))

    feats = np.empty((k_objects, FEATURE_DIM))
    for j, (cat, col, size) in enumerate(objects):
        noise = rng.normal(0.0, NOISE_SIGMA, size=NOISE_DIMS)
        feats[j] = np.concatenate([
            _one_hot(len(_CAT_NAMES), cat),
            _one_hot(len(_COLOR_NAMES), col),
            [_SIZE_VALUES[size]],
            noise,
        ])

    n_variants = 2 ** TEMPLATE_SLOTS
    if captions_per_scene > n_variants:
        raise ContractError(
            f"cannot draw {captions_per_scene} distinct caption variants from {n_variants}")
    variants = rng.choice(n_variants, size=captions_per_scene, replace=False)

    cat0, col0, size0 = objects[0]
    cat1, col1, _size1 = objects[1]
    captions = []
    for v in variants:
        bits = [(int(v) >> s) & 1 for s in range(TEMPLATE_SLOTS)]
        captions.append([
            "a",
            SIZES[_SIZE_NAMES[size0]][bits[0]],
            COLORS[_COLOR_NAMES[col0]][bits[1]],
            CATEGORIES[_CAT_NAMES[cat0]][bits[2]],
            "is",
            RELATIONS[_REL_NAMES[relation]][bits[3]],
            "a",
            COLORS[_COLOR_NAMES[col1]][bits[4]],
            CATEGORIES[_CAT_NAMES[cat1]][bits[5]],
        ])
    return CorpusRecord(scene_id, feats, captions)


def generate_corpus(corpus_seed, n_train, n_val, n_test,
                    captions_per_scene=5, k_objects=6):
    """Build the three disjoint splits plus vocabulary and document frequencies.

    Scene ids are assigned sequentially across train, then val, then test.
    The vocabulary uses only training captions; document frequencies are
    frozen from the validation split's reference sets.
    """
    if min(n_train, n_val, n_test) < 1:
        raise ContractError("corpus split sizes must be >= 1")
    sizes = [n_train, n_val, n_test]
    splits = []
    next_id = 0
    for size in sizes:
        records = [_make_scene(corpus_seed, next_id + i, k_objects, captions_per_scene)
                   for i in range(size)]
        next_id += size
        splits.append(records)
    train, val, test = splits
    vocab = Vocabulary.from_captions(cap for rec in train for cap in rec.captions)
    doc_freq = build_doc_freq([rec.captions for rec in val])
    return train, val, test, vocab, doc_freq


def _fmt(x):
    return format(float(x), ".17g")


def record_to_json(rec):
    feats = "[" + ",".join(
        "[" + ",".join(_fmt(v) for v in row) + "]" for row in rec.features) + "]"
    caps = json.dumps(rec.captions, separators=(",", ":"))
    return ('{"scene_id":%d,"K":%d,"features":%s,"captions":%s}'
            % (rec.scene_id, rec.k, feats, caps))


def save_records(path, records):
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(record_to_json(rec) + "\n")


def _record_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    scene_id, k = obj["scene_id"], obj["K"]
    if type(scene_id) is not int or type(k) is not int:
        raise ValueError("scene_id and K must be integers")
    feats = np.asarray(obj["features"], dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != k or feats.shape[1] == 0:
        raise ValueError(f"feature block of shape {feats.shape} is not K={k} "
                         "non-empty rows")
    if not np.isfinite(feats).all():
        raise ValueError("features must be finite")
    captions = obj["captions"]
    if not isinstance(captions, list) or not captions or not all(
            isinstance(c, list) and all(isinstance(w, str) for w in c)
            for c in captions):
        raise ValueError("captions must be a non-empty list of word lists")
    return CorpusRecord(scene_id, feats, [list(c) for c in captions])


def load_records(path):
    """Read a JSONL corpus file; a malformed line raises CorpusFormatError
    naming the line."""
    records = []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = _record_from_json(json.loads(line))
                if rec.scene_id in seen:
                    raise ValueError(f"duplicate scene_id {rec.scene_id}")
            except (ValueError, KeyError, TypeError, RecursionError,
                    OverflowError) as err:
                raise CorpusFormatError(f"{path}: line {lineno}: {err}") from err
            seen.add(rec.scene_id)
            records.append(rec)
    return records
