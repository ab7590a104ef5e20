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


def fit(docs, n_range=(1, 2), extra=(), **kwargs):
    """Vocabulary fitted on docs, over the table of docs followed by extra."""
    table = linguistic.ngram_table([*docs, *extra], n_range)
    return linguistic.fit_vocabulary(table, range(len(docs)), **kwargs)


def test_ngram_counts_counts_every_occurrence():
    counts = linguistic.ngram_counts("the cat saw the cat", (1, 2))
    assert counts == {"the": 2, "cat": 2, "saw": 1, "the cat": 2, "cat saw": 1, "saw the": 1}
    assert linguistic.ngram_counts("one two", (3, 3)) == {}


def test_ngram_table_rows_are_each_documents_counts():
    texts = DOCS + ["", "the the cat"]
    table = linguistic.ngram_table(texts, (1, 2))
    assert list(table.grams) == sorted(set().union(*(linguistic.ngram_counts(t, (1, 2))
                                                       for t in texts)))
    for text, ids, counts in zip(texts, table.ids, table.counts, strict=True):
        row = {table.grams[i]: int(c) for i, c in zip(ids, counts, strict=True)}
        assert row == linguistic.ngram_counts(text, (1, 2))


def test_fit_vocabulary_idf_formula():
    vocab = fit(DOCS, n_range=(1, 1), min_doc_freq=2)
    # recount document frequencies independently
    df = Counter()
    for doc in DOCS:
        df.update(set(linguistic.tokenize(doc)))
    kept = sorted(g for g, c in df.items() if c >= 2)
    assert list(vocab.grams) == kept  # columns in lexicographic order
    assert vocab.size == len(kept)
    for col, gram in enumerate(kept):
        want = np.log((1 + len(DOCS)) / (1 + df[gram])) + 1.0
        assert abs(vocab.idf[col] - want) < 1e-12


def test_fit_vocabulary_bigrams():
    vocab = fit(DOCS, min_doc_freq=2)
    assert "sat on" in vocab.grams
    assert "cat sat" not in vocab.grams  # appears in one document only


def test_fit_vocabulary_errors():
    with pytest.raises(TextError):
        linguistic.fit_vocabulary(linguistic.ngram_table(DOCS, (1, 2)), [])
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
    index = {g: i for i, g in enumerate(vocab.grams)}
    v = np.zeros(vocab.size)
    for gram, c in counts.items():
        if gram in index:
            v[index[gram]] = c * vocab.idf[index[gram]]
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def test_tfidf_matches_naive_oracle():
    extra = ["the cat and the dog sat", "nothing in common here"]
    vocab = fit(DOCS, extra=extra, min_doc_freq=1)
    got = linguistic.vectorize_tfidf(range(len(DOCS + extra)), vocab)
    assert got.shape == (len(DOCS + extra), vocab.size)
    for row, text in zip(got, DOCS + extra, strict=True):
        assert np.max(np.abs(row - naive_tfidf(text, vocab))) < 1e-12


def test_tfidf_unit_norm_or_zero():
    vocab = fit(DOCS, extra=["the cat", "zyzzyva qwerty"], min_doc_freq=1)
    v, oov = linguistic.vectorize_tfidf([3, 4], vocab)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.all(oov == 0.0)


def test_leakage_guard():
    vocab = fit(DOCS, extra=["the cat"], fitted_on="fold0-train",
                fitted_subjects=frozenset({"A", "B"}))
    with pytest.raises(LeakageError) as exc:
        linguistic.vectorize_tfidf([3], vocab, subject_ids=["A"])
    assert "fold0-train" in str(exc.value)
    with pytest.raises(LeakageError, match="'B'"):  # one leaked row among several
        linguistic.vectorize_tfidf([3, 3], vocab, subject_ids=["C", "B"])
    linguistic.vectorize_tfidf([3], vocab, subject_ids=["C"])  # test subject: fine
    linguistic.vectorize_tfidf([3], vocab)  # train-time use: unguarded


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
