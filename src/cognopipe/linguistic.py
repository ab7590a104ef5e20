"""Transcript features: word n-gram TF-IDF vectors and lexical statistics.

The TF-IDF branch follows the common smoothed convention
(idf = ln((1+N)/(1+df)) + 1, raw term counts, L2 normalization) so its
outputs are comparable with standard text tooling.  Every fitted
vocabulary remembers which subjects produced its training documents;
vectorizing a document from one of those subjects is a hard error, which
turns train/test leakage into a structural impossibility.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .errors import LeakageError, TextError
from .features import FeatureSetId, FeatureVector

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empties."""
    return _TOKEN_RE.findall(text.lower())


def ngram_counts(text: str, n_range: tuple[int, int]) -> dict[str, int]:
    """Occurrence count of every word n-gram of the text, lo <= n <= hi.

    Tokenizing and counting once per document lets every fold's
    vocabulary fit and vectorization read the same counts.
    """
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise TextError("ngram_counts", f"bad n_range {n_range}")
    tokens = tokenize(text)
    return Counter(
        " ".join(tokens[i : i + n]) for n in range(lo, hi + 1) for i in range(len(tokens) - n + 1)
    )


@dataclass(frozen=True)
class Vocabulary:
    """n-gram index with idf weights, tied to the partition it was fit on."""

    index: Mapping[str, int]
    idf: np.ndarray
    fitted_on: str
    fitted_subjects: frozenset[str]

    def __post_init__(self):
        if len(self.index) != self.idf.size:
            raise TextError("vocabulary", "index/idf size mismatch")

    @property
    def size(self) -> int:
        return len(self.index)


def fit_vocabulary(
    train_counts: Sequence[Mapping[str, int]],
    min_doc_freq: int = 2,
    fitted_on: str = "",
    fitted_subjects: frozenset[str] = frozenset(),
) -> Vocabulary:
    """Build an n-gram vocabulary from training documents' ngram_counts only.

    Kept n-grams appear in at least min_doc_freq documents; indices
    follow lexicographic n-gram order, so fitting is deterministic.
    """
    if not train_counts:
        raise TextError("fit_vocabulary", "empty training transcript list")
    df: dict[str, int] = {}
    for counts in train_counts:
        for gram in counts:
            df[gram] = df.get(gram, 0) + 1
    kept = sorted(g for g, c in df.items() if c >= min_doc_freq)
    n_docs = len(train_counts)
    idf = np.array([np.log((1 + n_docs) / (1 + df[g])) + 1.0 for g in kept])
    return Vocabulary(
        index={g: i for i, g in enumerate(kept)},
        idf=idf,
        fitted_on=fitted_on,
        fitted_subjects=fitted_subjects,
    )


def vectorize_tfidf(
    counts: Mapping[str, int], vocab: Vocabulary, subject_id: str | None = None
) -> FeatureVector:
    """tf·idf vector of a document's ngram_counts, L2-normalized unless all-zero.

    Passing the document's subject_id arms the leakage guard: a
    vocabulary fitted on a partition containing that subject refuses to
    vectorize.
    """
    if subject_id is not None and subject_id in vocab.fitted_subjects:
        raise LeakageError(
            "vectorize_tfidf",
            f"subject '{subject_id}' is in the vocabulary's training partition "
            f"('{vocab.fitted_on}')",
        )
    vals = np.zeros(vocab.size)
    for gram, count in counts.items():
        idx = vocab.index.get(gram)
        if idx is not None:
            vals[idx] = count
    vals *= vocab.idf
    norm = np.linalg.norm(vals)
    if norm > 0:
        vals /= norm
    return FeatureVector(FeatureSetId.NGRAM_TFIDF, vals)


@dataclass(frozen=True)
class LexicalStats:
    word_count: int
    type_token_ratio: float
    mean_word_length_chars: float
    words_per_second: float | None
    filler_rate: float  # fillers per 100 words


@lru_cache(maxsize=1)
def load_fillers() -> tuple[str, ...]:
    """Filler lexicon, one entry per line (entries may be bigrams)."""
    text = resources.files("cognopipe.data").joinpath("fillers.txt").read_text("utf-8")
    return tuple(line.strip().lower() for line in text.splitlines() if line.strip())


def _count_fillers(tokens: Sequence[str], fillers: Sequence[str]) -> int:
    singles = {f for f in fillers if " " not in f}
    pairs = {tuple(f.split()) for f in fillers if " " in f}
    count = sum(1 for tok in tokens if tok in singles)
    count += sum(1 for i in range(len(tokens) - 1) if (tokens[i], tokens[i + 1]) in pairs)
    return count


def lexical_stats(text: str, duration_s: float | None = None) -> LexicalStats:
    """Interpretable transcript statistics.

    words_per_second needs a positive duration and is None otherwise;
    the empty transcript yields all-zero statistics by convention.
    """
    tokens = tokenize(text)
    n = len(tokens)
    if n == 0:
        return LexicalStats(0, 0.0, 0.0, None if not duration_s else 0.0, 0.0)
    wps = None
    if duration_s is not None and duration_s > 0:
        wps = n / duration_s
    return LexicalStats(
        word_count=n,
        type_token_ratio=len(set(tokens)) / n,
        mean_word_length_chars=float(np.mean([len(t) for t in tokens])),
        words_per_second=wps,
        filler_rate=100.0 * _count_fillers(tokens, load_fillers()) / n,
    )


def lexical_vector(text: str, duration_s: float | None = None) -> FeatureVector:
    """LexicalStats flattened to a 5-vector (absent words_per_second -> 0)."""
    s = lexical_stats(text, duration_s)
    return FeatureVector(
        FeatureSetId.LEXICAL,
        np.array(
            [
                float(s.word_count),
                s.type_token_ratio,
                s.mean_word_length_chars,
                s.words_per_second or 0.0,
                s.filler_rate,
            ]
        ),
    )

