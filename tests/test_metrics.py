import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsg.autodiff import ContractError
from hsg.metrics import CiderRefs, DocFreq, bleu4, build_doc_freq, cider, rouge_l

from oracles import bleu4_oracle, cider_oracle, handcrafted_pairs


def test_bleu_identity_scores_one():
    cand = ["a", "red", "cat", "sits"]
    assert bleu4(cand, [cand, ["something", "else", "entirely", "here"]]) == 1.0


def test_bleu_empty_candidate_is_zero():
    assert bleu4([], [["a", "b"]]) == 0.0
    assert bleu4([], [["a", "b"]], smooth=True) == 0.0


def test_bleu_hand_case_matches_oracle():
    cand = ["a", "b", "c", "d", "e"]
    refs = [["a", "b", "c", "d", "f"]]
    assert bleu4(cand, refs) == pytest.approx(bleu4_oracle(cand, refs), abs=1e-12)


def test_bleu_zero_order_precision_modes():
    cand = ["a", "b"]  # no 3-grams or 4-grams
    refs = [["a", "b", "c", "d"]]
    assert bleu4(cand, refs) == 0.0
    smoothed = bleu4(cand, refs, smooth=True)
    assert 0.0 < smoothed < 1.0


def test_bleu_brevity_penalty():
    cand = ["a", "b", "c", "d"]
    refs = [["a", "b", "c", "d", "e", "f", "g", "h"]]
    # precisions are all 1, so the score is exactly the brevity penalty
    assert bleu4(cand, refs) == pytest.approx(math.exp(1 - 8 / 4), abs=1e-12)
    assert bleu4(cand, [cand]) == 1.0


def test_bleu_empty_refs_rejected():
    with pytest.raises(ContractError):
        bleu4(["a"], [])


def test_cider_zero_overlap_is_zero():
    refs = [["a", "b", "c"], ["a", "c"]]
    df = build_doc_freq([refs])
    assert cider(["x", "y"], refs, df) == 0.0


def test_cider_self_similarity_single_image_corpus():
    # one reference set, candidate equals the only reference: every order
    # with any n-gram contributes a cosine of exactly one
    ref = ["a", "b"]
    df = build_doc_freq([[ref]])
    assert df.m == 1
    assert cider(ref, [ref], df) == pytest.approx(10.0 * 2 / 4, abs=1e-12)
    ref4 = ["a", "b", "c", "d"]
    df4 = build_doc_freq([[ref4]])
    assert cider(ref4, [ref4], df4) == pytest.approx(10.0, abs=1e-12)
    # prepared references keep the all-zero-idf fallback
    for cand in (ref4, ["a", "b"], ["d", "c", "b"], ["x"], []):
        for refs in ([ref4], [ref4, ["a", "b", "x"]]):
            prepared = CiderRefs(refs, df4)
            assert cider(cand, prepared, df4) == pytest.approx(
                cider_oracle(cand, refs, df4.m, df4.df), abs=1e-10)
            assert cider(cand, prepared, df4) == cider(cand, refs, df4)


def test_cider_three_image_corpus_matches_bruteforce():
    sets = [
        [["a", "red", "cat"], ["a", "cat"]],
        [["a", "blue", "dog"], ["the", "dog", "runs"]],
        [["a", "red", "dog"], ["a", "red", "dog", "runs"]],
    ]
    df = build_doc_freq(sets)
    prepared = [CiderRefs(refs, df) for refs in sets]
    for cand in (["a", "red", "dog"], ["a", "cat"], ["the", "dog"], ["cat"]):
        for refs, ready in zip(sets, prepared):
            expected = cider_oracle(cand, refs, df.m, df.df)
            assert cider(cand, refs, df) == pytest.approx(expected, abs=1e-10)
            assert cider(cand, ready, df) == pytest.approx(expected, abs=1e-10)


def test_cider_contract_errors():
    df = build_doc_freq([[["a"]]])
    with pytest.raises(ContractError):
        cider(["a"], [], df)
    with pytest.raises(ContractError):
        cider(["a"], [["a"]], DocFreq(0, {}))
    with pytest.raises(ContractError):
        CiderRefs([], df)
    with pytest.raises(ContractError):
        CiderRefs([["a"]], DocFreq(0, {}))
    # references prepared under one table cannot be scored under another
    with pytest.raises(ContractError):
        cider(["a"], CiderRefs([["a"]], df), build_doc_freq([[["a"]], [["b"]]]))


def test_cider_invariant_under_corpus_duplication():
    sets = [[["a", "b", "c"]], [["b", "c", "d"]], [["a", "d"]]]
    df1 = build_doc_freq(sets)
    df2 = build_doc_freq(sets + sets)
    cand = ["a", "b", "c"]
    assert cider(cand, sets[0], df1) == pytest.approx(cider(cand, sets[0], df2), abs=1e-12)


def test_rouge_identity_and_disjoint():
    assert rouge_l(["a", "b", "c"], [["a", "b", "c"]]) == 1.0
    assert rouge_l(["x", "y"], [["a", "b"]]) == 0.0


def test_rouge_hand_formula():
    # lcs = 2, p = r = 2/3
    beta2 = 1.2 ** 2
    p = r = 2 / 3
    expected = (1 + beta2) * p * r / (r + beta2 * p)
    assert rouge_l(["a", "b", "c"], [["a", "x", "c"]]) == pytest.approx(expected, abs=1e-12)


def test_rouge_appending_reference_never_decreases():
    cand = ["a", "b", "c", "d"]
    refs = [["a", "x", "c"]]
    base = rouge_l(cand, refs)
    for extra in (["z"], ["a", "b"], cand):
        assert rouge_l(cand, refs + [extra]) >= base


@given(st.permutations(range(4)))
@settings(max_examples=20, deadline=None)
def test_scores_permutation_invariant_in_refs(perm):
    refs = [["a", "b", "c"], ["a", "c"], ["b", "c", "d"], ["a", "b", "d", "e"]]
    shuffled = [refs[i] for i in perm]
    df = build_doc_freq([refs])
    df_s = build_doc_freq([shuffled])
    cand = ["a", "b", "d"]
    assert bleu4(cand, shuffled, smooth=True) == pytest.approx(
        bleu4(cand, refs, smooth=True), abs=1e-12)
    assert rouge_l(cand, shuffled) == pytest.approx(rouge_l(cand, refs), abs=1e-12)
    assert cider(cand, shuffled, df_s) == pytest.approx(cider(cand, refs, df), abs=1e-12)


def test_score_ranges_on_handcrafted_suite():
    pairs = handcrafted_pairs()
    df = build_doc_freq([refs for _cand, refs in pairs])
    for cand, refs in pairs:
        assert 0.0 <= bleu4(cand, refs) <= 1.0
        assert 0.0 <= bleu4(cand, refs, smooth=True) <= 1.0
        assert 0.0 <= rouge_l(cand, refs) <= 1.0
        assert cider(cand, refs, df) >= 0.0


def test_prepared_cider_matches_oracle_on_handcrafted_suite():
    # every candidate is scored twice against one prepared set, as an RL step
    # scores its sample and its greedy caption; each score equals the
    # unprepared call float for float
    pairs = handcrafted_pairs()
    df = build_doc_freq([refs for _cand, refs in pairs])
    for cand, refs in pairs:
        prepared = CiderRefs(refs, df)
        first = cider(cand, prepared, df)
        assert first == pytest.approx(cider_oracle(cand, refs, df.m, df.df), abs=1e-10)
        assert cider(cand, prepared, df) == first == cider(cand, refs, df)
        other = pairs[0][0]
        assert cider(other, prepared, df) == cider(other, refs, df)


def test_docfreq_idf_is_log_m_over_df():
    df = build_doc_freq([[["a", "b"], ["b", "c"]], [["a", "b", "c"]], [["d"]]])
    for gram in [("a",), ("b", "c"), ("a", "b", "c"), ("z",), ("a", "z")]:
        want = math.log(df.m / max(1.0, float(df.df.get(gram, 0))))
        assert df.idf(gram) == want, gram
    assert df.idf(("a",)) == math.log(3 / 2)
    assert df.idf(("z",)) == math.log(3)


def test_docfreq_rejects_an_empty_corpus():
    with pytest.raises(ContractError):
        DocFreq(0, {})
    with pytest.raises(ContractError):
        build_doc_freq([])
    from hsg.corpus import CorpusFormatError
    with pytest.raises(CorpusFormatError):
        DocFreq.from_json('{"M": 0, "df": {}}')


def test_docfreq_json_round_trip():
    sets = [[["a", "b"], ["b", "c"]], [["a", "b", "c"]]]
    df = build_doc_freq(sets)
    again = DocFreq.from_json(df.to_json())
    assert again.m == df.m
    assert again.df == df.df
    cand = ["a", "b", "c"]
    assert cider(cand, sets[0], again) == cider(cand, sets[0], df)
