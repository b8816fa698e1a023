"""Reference implementations of BLEU-4, CIDEr and ROUGE-L.

These are used both as REINFORCE rewards and for evaluation.  All three work
on pre-tokenized sequences (lists of words or ids) that carry no reserved
bos/eos/pad tokens.  Scores are plain Python floats.
"""

import json
import math
from collections import defaultdict

from .autodiff import ContractError

__all__ = ["ngram_counts", "bleu4", "cider", "CiderRefs", "rouge_l", "DocFreq",
           "build_doc_freq"]

MAX_NGRAM = 4
BLEU_EPS = 1e-9
ROUGE_BETA = 1.2


def ngram_counts(tokens, n):
    """Count the order-n n-grams of a token sequence.

    Returns a dict mapping n-gram tuple -> count.  The total mass equals
    max(0, len(tokens) - n + 1).
    """
    counts = defaultdict(int)
    for i in range(len(tokens) - n + 1):
        counts[tuple(tokens[i:i + n])] += 1
    return counts


def bleu4(candidate, refs, smooth=False):
    """Sentence BLEU-4 with clipped precisions and brevity penalty.

    The effective reference length uses the closest-length rule (ties go to
    the shorter reference).  With smooth=False a zero precision at any order
    zeroes the score, which is the right behaviour for corpus evaluation.
    With smooth=True zero precisions are replaced by a 1e-9 epsilon so
    sentence-level rewards stay non-degenerate early in training.
    """
    if not refs:
        raise ContractError("bleu4: reference list is empty")
    candidate = list(candidate)
    c = len(candidate)
    if c == 0:
        return 0.0

    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    log_prec_sum = 0.0
    for n in range(1, MAX_NGRAM + 1):
        cand_counts = ngram_counts(candidate, n)
        max_ref = defaultdict(int)
        for ref in refs:
            for gram, cnt in ngram_counts(ref, n).items():
                if cnt > max_ref[gram]:
                    max_ref[gram] = cnt
        guess = max(0, c - n + 1)
        correct = sum(min(cnt, max_ref[gram]) for gram, cnt in cand_counts.items())
        if guess == 0 or correct == 0:
            if not smooth:
                return 0.0
            p_n = BLEU_EPS
        else:
            p_n = correct / guess
        log_prec_sum += math.log(p_n)

    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_prec_sum / MAX_NGRAM)


class DocFreq:
    """Document frequencies of n-grams over a corpus of reference sets.

    M is the number of reference sets; df maps an n-gram to the number of
    sets containing it (in any single reference).  idf values are
    memoized, so neither changes after construction.
    """

    def __init__(self, m, df):
        self.m = int(m)
        self.df = dict(df)
        self._idf = {}

    def idf(self, gram):
        # one memo entry per n-gram of the table and one (None) for all the
        # others, which share an idf: scoring new candidates adds no entries
        key = gram if gram in self.df else None
        value = self._idf.get(key)
        if value is None:
            value = math.log(self.m / max(1.0, float(self.df.get(gram, 0))))
            self._idf[key] = value
        return value

    def to_json(self):
        return json.dumps(
            {"M": self.m,
             "df": {" ".join(str(t) for t in gram): cnt
                    for gram, cnt in sorted(self.df.items())}})

    @classmethod
    def from_json(cls, text, path="<string>"):
        """Parse to_json output; any malformed input raises CorpusFormatError
        naming path and the fault."""
        from .corpus import CorpusFormatError
        try:
            obj = json.loads(text)
            m, counts = obj["M"], obj["df"]
            if type(m) is not int or m < 1:
                raise ValueError(f"M must be a positive integer, got {m!r}")
            if any(type(cnt) is not int or cnt < 0 for cnt in counts.values()):
                raise ValueError("df counts must be non-negative integers")
            return cls(m, {tuple(key.split(" ")): cnt for key, cnt in counts.items()})
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as err:
            raise CorpusFormatError(
                f"{path}: not a document-frequency table ({err!r})") from err


def build_doc_freq(ref_sets):
    """Build a DocFreq from a list of reference sets (each a list of captions)."""
    df = defaultdict(int)
    for refs in ref_sets:
        seen = set()
        for ref in refs:
            for n in range(1, MAX_NGRAM + 1):
                seen.update(ngram_counts(ref, n).keys())
        for gram in seen:
            df[gram] += 1
    return DocFreq(len(ref_sets), df)


class CiderRefs:
    """A reference set prepared for CIDEr under one DocFreq.

    Per n-gram order it holds each reference's counts, the squared norm of
    its TF-IDF vector and the squared norm of its raw count vector (for the
    all-zero-idf fallback), so a score computes only the candidate side.
    """

    def __init__(self, refs, df):
        if not refs:
            raise ContractError("cider: reference list is empty")
        if df.m <= 0:
            raise ContractError("cider: document frequencies built from an empty corpus")
        self.df = df
        self.orders = []
        for n in range(1, MAX_NGRAM + 1):
            prepared = []
            for ref in refs:
                counts = ngram_counts(ref, n)
                sq = sq_raw = 0.0
                for gram, cnt in counts.items():
                    w = cnt * df.idf(gram)
                    sq += w * w
                    sq_raw += cnt * cnt
                prepared.append((counts, sq, sq_raw))
            self.orders.append(prepared)


def _tfidf_cosine(cand, sq_c, ref_counts, sq_r, sq_r_raw):
    """Cosine between TF-IDF n-gram vectors of one order; cand lists the
    candidate's (gram, count, weight, idf) and sq_c its squared norm.

    When every involved idf is zero (degenerate single-document corpora) the
    similarity falls back to the cosine of the raw count vectors, so a
    candidate identical to the reference still scores 1.
    """
    if sq_c > 0.0 and sq_r > 0.0:
        dot = 0.0
        for gram, _cnt, w, idf in cand:
            rc = ref_counts.get(gram)
            if rc:
                dot += w * rc * idf
        return dot / math.sqrt(sq_c * sq_r)
    if sq_c == 0.0 and sq_r == 0.0:
        dot = sq_raw = 0.0
        for gram, cnt, _w, _idf in cand:
            sq_raw += cnt * cnt
            dot += cnt * ref_counts.get(gram, 0)
        if sq_raw > 0.0 and sq_r_raw > 0.0:
            return dot / math.sqrt(sq_raw * sq_r_raw)
    return 0.0


def cider(candidate, refs, df):
    """Consensus CIDEr: mean over n of 10 x TF-IDF cosine, averaged over refs.

    Plain CIDEr with idf = log(M / df); no length penalty.  refs is a list
    of references or a CiderRefs prepared under df.
    """
    if not isinstance(refs, CiderRefs):
        refs = CiderRefs(refs, df)
    elif refs.df is not df:
        raise ContractError("cider: references were prepared under other document "
                            "frequencies")
    candidate = list(candidate)
    total = 0.0
    for n, prepared in enumerate(refs.orders, start=1):
        cand, sq_c = [], 0.0
        for gram, cnt in ngram_counts(candidate, n).items():
            idf = df.idf(gram)
            w = cnt * idf
            sq_c += w * w
            cand.append((gram, cnt, w, idf))
        sim = 0.0
        for ref_counts, sq_r, sq_r_raw in prepared:
            sim += _tfidf_cosine(cand, sq_c, ref_counts, sq_r, sq_r_raw)
        total += 10.0 * sim / len(prepared)
    return total / MAX_NGRAM


def _lcs_len(a, b):
    """Length of the longest common subsequence of two token sequences."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        ai = a[i - 1]
        for j in range(1, len(b) + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prev[len(b)]


def rouge_l(candidate, refs):
    """ROUGE-L: LCS-based F-measure with beta = 1.2, maximized over references."""
    if not refs:
        raise ContractError("rouge_l: reference list is empty")
    candidate = list(candidate)
    if len(candidate) == 0:
        return 0.0
    best = 0.0
    b2 = ROUGE_BETA * ROUGE_BETA
    for ref in refs:
        ref = list(ref)
        if len(ref) == 0:
            continue
        lcs = _lcs_len(candidate, ref)
        if lcs == 0:
            continue
        prec = lcs / len(candidate)
        rec = lcs / len(ref)
        score = (1.0 + b2) * prec * rec / (rec + b2 * prec)
        if score > best:
            best = score
    return best
