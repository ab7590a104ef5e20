"""Shared feature-vector types used by the acoustic and text branches."""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import FeatureError, checked


class FeatureSetId(enum.Enum):
    EGEMAPS_LIKE_88 = "EgemapsLike88"
    COMPARE_LIKE = "CompareLike"
    NGRAM_TFIDF = "NgramTfidf"
    LEXICAL = "Lexical"


@checked
class FeatureVector(NamedTuple):
    """Fixed-length numeric vector tagged with its feature-set identity.

    empty_speech marks vectors that are all-zero because the recording
    contained no detected speech (the value is still usable downstream).
    """

    feature_set_id: FeatureSetId
    values: np.ndarray
    empty_speech: bool = False

    def _checked(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise FeatureError("feature_vector", f"values must be 1-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise FeatureError(
                "feature_vector", f"non-finite values in {self.feature_set_id.value} vector"
            )
        return self._replace(values=vals)

    @property
    def dim(self) -> int:
        return int(self.values.size)
