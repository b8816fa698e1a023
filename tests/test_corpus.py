import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsg.corpus import (CorpusFormatError, Vocabulary, generate_corpus,
                        load_records, record_to_json, save_records,
                        MAX_CAPTION_LEN)
from hsg.metrics import cider, rouge_l


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(13, 30, 6, 6)


def test_generation_is_deterministic(tmp_path, small_corpus):
    train, val, test, vocab, df = small_corpus
    train2, val2, test2, vocab2, df2 = generate_corpus(13, 30, 6, 6)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_records(p1, train)
    save_records(p2, train2)
    assert p1.read_bytes() == p2.read_bytes()
    assert vocab.tokens == vocab2.tokens
    assert df.to_json() == df2.to_json()


def test_split_ids_are_disjoint():
    train, val, test, _, _ = generate_corpus(5, 100, 20, 20)
    ids = [r.scene_id for split in (train, val, test) for r in split]
    assert len(ids) == 140
    assert len(set(ids)) == 140


def test_captions_score_against_own_references(small_corpus):
    train, _, _, _, df = small_corpus
    for rec in train[:10]:
        for cap in rec.captions:
            assert cider(cap, rec.captions, df) > 0.0


def test_references_differ_and_are_consistent(small_corpus):
    train, _, _, _, _ = small_corpus
    for rec in train:
        caps = [tuple(c) for c in rec.captions]
        assert len(set(caps)) == len(caps)
        for i in range(len(caps)):
            for j in range(i + 1, len(caps)):
                assert rouge_l(rec.captions[i], [rec.captions[j]]) > 0.0


def test_caption_length_bound(small_corpus):
    train, val, test, _, _ = small_corpus
    for rec in train + val + test:
        for cap in rec.captions:
            assert len(cap) <= MAX_CAPTION_LEN


def test_vocabulary_reserved_layout(small_corpus):
    _, _, _, vocab, _ = small_corpus
    assert vocab.tokens[:4] == ["pad", "bos", "eos", "unk"]
    assert vocab.PAD == 0 and vocab.BOS == 1 and vocab.EOS == 2 and vocab.UNK == 3


def test_encode_decode_round_trip(small_corpus):
    _, _, _, vocab, _ = small_corpus
    assert vocab.encode([]) == []
    words = ["a", "red", "cat"] if "red" in vocab.index else None
    for rec_words in ([], ["a"], words or ["a"]):
        ids = vocab.encode(rec_words)
        assert len(ids) == len(rec_words) and all(i > vocab.UNK for i in ids)
        assert vocab.decode(ids) == rec_words
    assert vocab.encode(["zzz"]) == [vocab.UNK]


def test_save_load_round_trip(tmp_path, small_corpus):
    train, _, _, _, _ = small_corpus
    path = tmp_path / "train.jsonl"
    save_records(path, train)
    loaded = load_records(path)
    assert len(loaded) == len(train)
    for a, b in zip(train, loaded):
        assert a.scene_id == b.scene_id
        assert a.captions == b.captions
        assert np.array_equal(a.features, b.features)  # bit-exact decimals


def test_load_error_names_the_line(tmp_path, small_corpus):
    train, _, _, _, _ = small_corpus
    path = tmp_path / "broken.jsonl"
    lines = [record_to_json(r) for r in train[:3]]
    lines[1] = lines[1][: len(lines[1]) // 2]  # truncate mid-record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_records(path)


def test_load_rejects_mismatched_k(tmp_path):
    rec = {"scene_id": 0, "K": 3,
           "features": [[0.0, 1.0]], "captions": [["a", "cat"]]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(CorpusFormatError, match="line 1"):
        load_records(path)


def good_record(scene_id=0):
    return {"scene_id": scene_id, "K": 2, "features": [[0.5, 1.0], [0.0, -1.0]],
            "captions": [["a", "cat"], ["a", "feline"]]}


def with_value(key, value):
    return lambda obj: obj.update({key: value})


BAD_LINES = {
    "deep nesting": b"[" * 100000,
    "not utf-8": b'{"scene_id": 1, "K": 1, "features": [[1.0]], "captions": [["\xff"]]}',
    "string caption": with_value("captions", ["a cat"]),
    "string captions": with_value("captions", "a cat"),
    "no captions": with_value("captions", []),
    "not an object": b'[1, 2]',
    "nan feature": with_value("features", [[float("nan"), 1.0], [0.0, 1.0]]),
    "inf feature": with_value("features", [[float("inf"), 1.0], [0.0, 1.0]]),
    "huge integer feature": b'{"scene_id": 1, "K": 1, "features": [[1' + b"0" * 400
                            + b']], "captions": [["a"]]}',
    "zero-width features": with_value("features", [[], []]),
    "float K": with_value("K", 2.0),
    "float scene_id": with_value("scene_id", 1.5),
    "string scene_id": with_value("scene_id", "1"),
    "duplicate scene_id": with_value("scene_id", 0),
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_load_rejects_malformed_line(tmp_path, case):
    bad = BAD_LINES[case]
    if callable(bad):
        obj = good_record(scene_id=1)
        bad(obj)
        bad = json.dumps(obj).encode()
    path = tmp_path / "bad.jsonl"
    path.write_bytes(json.dumps(good_record()).encode() + b"\n" + bad + b"\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_records(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6)

KEY_PATHS = [("scene_id",), ("K",), ("features",), ("features", 0),
             ("features", 1, 0), ("captions",), ("captions", 0),
             ("captions", 1, 0)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=st.sampled_from(KEY_PATHS), value=JSON_VALUES, delete=st.booleans(),
       cut=st.integers(0, 400), noise=st.binary(max_size=3))
def test_load_fuzz_only_corpus_format_errors(tmp_path, keys, value, delete, cut,
                                            noise):
    obj = good_record(scene_id=1)
    target = obj
    for key in keys[:-1]:
        target = target[key]
    if delete:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    text = (json.dumps(good_record()) + "\n" + json.dumps(obj) + "\n").encode()
    path = tmp_path / "fuzz.jsonl"
    for payload in (text, text[:cut], text[:cut] + noise + text[cut:]):
        path.write_bytes(payload)
        try:
            records = load_records(path)
        except CorpusFormatError:
            continue
        for rec in records:
            assert rec.features.ndim == 2 and rec.features.shape[1] > 0
            assert np.all(np.isfinite(rec.features))
            assert all(isinstance(w, str) for cap in rec.captions for w in cap)


def test_vocab_json_round_trip_and_hash(small_corpus):
    _, _, _, vocab, _ = small_corpus
    again = Vocabulary.from_json(vocab.to_json())
    assert again.tokens == vocab.tokens
    assert again.content_hash() == vocab.content_hash()


def test_vocabulary_stable_across_runs():
    _, _, _, v1, _ = generate_corpus(21, 40, 4, 4)
    _, _, _, v2, _ = generate_corpus(21, 40, 4, 4)
    assert v1.tokens == v2.tokens


def test_configurable_captions_per_scene():
    train, _, _, _, _ = generate_corpus(3, 5, 1, 1, captions_per_scene=2)
    assert all(len(r.captions) == 2 for r in train)
