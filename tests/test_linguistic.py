"""Tokenization, TF-IDF vectors, lexical statistics, leakage guard."""

from collections import Counter

import numpy as np
import pytest

from cognopipe import linguistic
from cognopipe.errors import LeakageError, TextError
from cognopipe.features import FeatureSetId


# ---------------------------------------------------------------------------
# tokenization

def test_tokenize_examples():
    assert linguistic.tokenize("Hello, world!") == ["hello", "world"]
    assert linguistic.tokenize("it's a 2-fold test") == ["it", "s", "a", "2", "fold", "test"]
    assert linguistic.tokenize("snake_case splits") == ["snake", "case", "splits"]
    assert linguistic.tokenize("") == []
    assert linguistic.tokenize("   \n\t ") == []


def test_tokenize_unicode():
    assert linguistic.tokenize("Café NAÏVE café") == ["café", "naïve", "café"]


# ---------------------------------------------------------------------------
# vocabulary fitting

DOCS = [
    "the cat sat on the mat",
    "the dog sat on the log",
    "a cat and a dog",
]


def fit(docs, n_range=(1, 2), **kwargs):
    return linguistic.fit_vocabulary([linguistic.ngram_counts(d, n_range) for d in docs], **kwargs)


def vectorize(text, vocab, n_range=(1, 2), **kwargs):
    return linguistic.vectorize_tfidf(linguistic.ngram_counts(text, n_range), vocab, **kwargs)


def test_ngram_counts_counts_every_occurrence():
    counts = linguistic.ngram_counts("the cat saw the cat", (1, 2))
    assert counts == {"the": 2, "cat": 2, "saw": 1, "the cat": 2, "cat saw": 1, "saw the": 1}
    assert linguistic.ngram_counts("one two", (3, 3)) == {}


def test_fit_vocabulary_idf_formula():
    vocab = fit(DOCS, n_range=(1, 1), min_doc_freq=2)
    # recount document frequencies independently
    df = Counter()
    for doc in DOCS:
        df.update(set(linguistic.tokenize(doc)))
    kept = sorted(g for g, c in df.items() if c >= 2)
    assert sorted(vocab.index) == kept
    assert list(vocab.index.values()) == list(range(len(kept)))  # lexicographic
    for gram in kept:
        want = np.log((1 + len(DOCS)) / (1 + df[gram])) + 1.0
        assert abs(vocab.idf[vocab.index[gram]] - want) < 1e-12


def test_fit_vocabulary_bigrams():
    vocab = fit(DOCS, min_doc_freq=2)
    assert "sat on" in vocab.index
    assert "cat sat" not in vocab.index  # appears in one document only


def test_fit_vocabulary_errors():
    with pytest.raises(TextError):
        linguistic.fit_vocabulary([])
    with pytest.raises(TextError):
        linguistic.ngram_counts(DOCS[0], (2, 1))
    with pytest.raises(TextError):
        linguistic.ngram_counts(DOCS[0], (0, 1))


# ---------------------------------------------------------------------------
# vectorization

def naive_tfidf(text, vocab, n_range=(1, 2)):
    counts = Counter()
    toks = linguistic.tokenize(text)
    lo, hi = n_range
    for n in range(lo, hi + 1):
        for i in range(len(toks) - n + 1):
            counts[" ".join(toks[i : i + n])] += 1
    v = np.zeros(vocab.size)
    for gram, c in counts.items():
        if gram in vocab.index:
            v[vocab.index[gram]] = c * vocab.idf[vocab.index[gram]]
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def test_tfidf_matches_naive_oracle():
    vocab = fit(DOCS, min_doc_freq=1)
    for text in DOCS + ["the cat and the dog sat", "nothing in common here"]:
        got = vectorize(text, vocab)
        assert got.feature_set_id is FeatureSetId.NGRAM_TFIDF
        assert np.max(np.abs(got.values - naive_tfidf(text, vocab))) < 1e-12


def test_tfidf_unit_norm_or_zero():
    vocab = fit(DOCS, min_doc_freq=1)
    v = vectorize("the cat", vocab)
    assert abs(np.linalg.norm(v.values) - 1.0) < 1e-12
    oov = vectorize("zyzzyva qwerty", vocab)
    assert np.all(oov.values == 0.0)


def test_leakage_guard():
    vocab = fit(DOCS, fitted_on="fold0-train", fitted_subjects=frozenset({"A", "B"}))
    with pytest.raises(LeakageError) as exc:
        vectorize("the cat", vocab, subject_id="A")
    assert "fold0-train" in str(exc.value)
    vectorize("the cat", vocab, subject_id="C")  # test subject: fine
    vectorize("the cat", vocab)  # train-time use: unguarded


# ---------------------------------------------------------------------------
# lexical statistics

def test_lexical_stats_hand_computed():
    s = linguistic.lexical_stats("The cat um you know sat", duration_s=3.0)
    assert s.word_count == 6
    assert s.type_token_ratio == 1.0
    assert abs(s.mean_word_length_chars - 3.0) < 1e-12
    assert abs(s.words_per_second - 2.0) < 1e-12
    # one single filler (um) plus one bigram filler (you know)
    assert abs(s.filler_rate - 100.0 * 2 / 6) < 1e-9


def test_lexical_stats_repeated_words():
    s = linguistic.lexical_stats("go go go stop")
    assert s.word_count == 4
    assert s.type_token_ratio == 0.5
    assert s.words_per_second is None


def test_lexical_stats_empty():
    s = linguistic.lexical_stats("", duration_s=2.0)
    assert s.word_count == 0 and s.type_token_ratio == 0.0
    s2 = linguistic.lexical_stats("")
    assert s2.words_per_second is None


def test_lexical_vector_shape():
    v = linguistic.lexical_vector("one two three", duration_s=1.5)
    assert v.feature_set_id is FeatureSetId.LEXICAL
    assert v.dim == 5
    assert v.values[0] == 3.0
    assert abs(v.values[3] - 2.0) < 1e-12
    # missing duration encodes words-per-second as zero
    assert linguistic.lexical_vector("one two three").values[3] == 0.0


def test_load_fillers_default():
    fillers = linguistic.load_fillers()
    assert "um" in fillers
    assert any(" " in f for f in fillers)  # bigram entries exist
