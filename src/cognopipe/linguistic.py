"""Transcript features: word n-gram TF-IDF vectors and lexical statistics.

The TF-IDF branch follows the common smoothed convention
(idf = ln((1+N)/(1+df)) + 1, raw term counts, L2 normalization) so its
outputs are comparable with standard text tooling.  A set of documents
is counted once into an NgramTable: its n-grams in lexicographic order,
and each document as (gram id, count) arrays over them.  A vocabulary is
fitted on some of the table's rows with one bincount of their gram ids,
and any rows are vectorized by one scatter into a rows x vocabulary
matrix.  Every fitted vocabulary remembers which subjects produced its
training documents; vectorizing a document from one of those subjects is
a hard error, which turns train/test leakage into a structural
impossibility.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import LeakageError, TextError
from .features import FeatureSetId, FeatureVector

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empties."""
    return _TOKEN_RE.findall(text.lower())


def ngram_counts(text: str, n_range: tuple[int, int]) -> dict[str, int]:
    """Occurrence count of every word n-gram of the text, lo <= n <= hi."""
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise TextError("ngram_counts", f"bad n_range {n_range}")
    tokens = tokenize(text)
    counts = Counter()
    for n in range(lo, hi + 1):
        counts.update(map(" ".join, zip(*(tokens[k:] for k in range(n)))))
    return counts


@dataclass(frozen=True, eq=False)
class NgramTable:
    """n-gram counts of a list of documents over their sorted n-grams.

    A gram's id is its position in grams, so ascending ids are
    lexicographic order; row r holds document r's distinct gram ids and
    their counts.
    """

    grams: tuple[str, ...]
    ids: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]


def ngram_table(texts: Sequence[str], n_range: tuple[int, int]) -> NgramTable:
    """Count every document's n-grams once, into one table."""
    docs = [ngram_counts(t, n_range) for t in texts]
    grams = tuple(sorted(set().union(*docs)))
    gram_id = {g: i for i, g in enumerate(grams)}
    return NgramTable(
        grams,
        tuple(np.fromiter(map(gram_id.__getitem__, d), np.intp, len(d)) for d in docs),
        tuple(np.fromiter(d.values(), np.intp, len(d)) for d in docs),
    )


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Kept n-grams of a table with idf weights, tied to the partition it was fit on."""

    table: NgramTable
    columns: np.ndarray  # gram id -> column of a kept gram, -1 for the others
    idf: np.ndarray
    fitted_on: str
    fitted_subjects: frozenset[str]

    @property
    def size(self) -> int:
        return self.idf.size

    @property
    def grams(self) -> tuple[str, ...]:
        """Kept n-grams in column (lexicographic) order."""
        return tuple(self.table.grams[i] for i in np.flatnonzero(self.columns >= 0))


def fit_vocabulary(
    table: NgramTable,
    rows: Sequence[int],
    min_doc_freq: int = 2,
    fitted_on: str = "",
    fitted_subjects: frozenset[str] = frozenset(),
) -> Vocabulary:
    """Build an n-gram vocabulary from the table's training rows only.

    Document frequencies are one bincount of the rows' gram ids.  Kept
    n-grams appear in at least min_doc_freq documents; columns follow
    lexicographic n-gram order, so fitting is deterministic.
    """
    if not len(rows):
        raise TextError("fit_vocabulary", "empty training transcript list")
    df = np.bincount(np.concatenate([table.ids[r] for r in rows]), minlength=len(table.grams))
    kept = df >= min_doc_freq
    columns = np.where(kept, np.cumsum(kept) - 1, -1)
    idf = np.log((1 + len(rows)) / (1 + df[kept])) + 1.0
    return Vocabulary(table, columns, idf, fitted_on, fitted_subjects)


def vectorize_tfidf(
    rows: Sequence[int], vocab: Vocabulary, subject_ids: Sequence[str] | None = None
) -> np.ndarray:
    """tf·idf matrix of the vocabulary's table rows, each row L2-normalized unless all-zero.

    The counts of all rows are scattered into one rows x vocabulary
    matrix.  Passing the rows' subject_ids arms the leakage guard: a
    vocabulary fitted on a partition containing one of those subjects
    refuses to vectorize.
    """
    leaked = [s for s in subject_ids or () if s in vocab.fitted_subjects]
    if leaked:
        raise LeakageError(
            "vectorize_tfidf",
            f"subject '{leaked[0]}' is in the vocabulary's training partition "
            f"('{vocab.fitted_on}')",
        )
    table = vocab.table
    X = np.zeros((len(rows), vocab.size))
    ids = [table.ids[r] for r in rows]
    cols = vocab.columns[np.concatenate(ids)]
    at = np.repeat(np.arange(len(rows)), [a.size for a in ids])
    kept = cols >= 0
    X[at[kept], cols[kept]] = np.concatenate([table.counts[r] for r in rows])[kept]
    X *= vocab.idf
    # row by row: norm's dot product rounds as it does for one document
    norms = np.array([np.linalg.norm(x) for x in X])
    X /= np.where(norms > 0, norms, 1.0)[:, None]
    return X


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
        mean_word_length_chars=sum(map(len, tokens)) / n,
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

