"""Records that check or derive their fields: each one @checked NamedTuple
class, read-only, and checked and derived again when a pickle (how pool
results come back) is loaded."""

import pickle

import numpy as np
import pytest

from cognopipe import acoustic, classifiers, config, dsp, evaluation, synth
from cognopipe.errors import (
    AudioFormatError,
    ConfigError,
    FeatureError,
    ManifestError,
    SynthError,
    TrainingError,
)
from cognopipe.features import FeatureSetId, FeatureVector

from conftest import SR, memory_corpus

_N_LLDS = len(acoustic.LLD_NAMES)

# (a valid record, the same record with one field forged past its check by
# _replace, which builds with tuple.__new__, and the error the check raises)
_CHECKED = {
    "VadConfig": (dsp.VadConfig(), dict(bridge_gap_s=-1.0), ConfigError),
    "AcousticConfig": (acoustic.AcousticConfig(), dict(f0_min_hz=0.0), ConfigError),
    "NgramConfig": (config.NgramConfig(), dict(n_lo=0), ConfigError),
    "ClassifierConfig": (evaluation.ClassifierConfig(), dict(lr_tol=1e300), ConfigError),
    "RunConfig": (config.RunConfig(), dict(k=1), ConfigError),
    "SynthSpec": (synth.SynthSpec(), dict(seed=-1), SynthError),
    "AudioBuffer": (dsp.AudioBuffer(np.full(160, 0.1), SR), dict(sample_rate_hz=0),
                    AudioFormatError),
    "SegmentSet": (dsp.SegmentSet(((0.1, 0.2), (0.3, 0.5))),
                   dict(speech=((0.3, 0.5), (0.1, 0.2))), ValueError),
    "LldMatrix": (acoustic.LldMatrix(np.ones((3, _N_LLDS))),
                  dict(values=np.full((1, _N_LLDS), np.nan)), FeatureError),
    "CompareGrid": (acoustic.CompareGrid(("f0_hz",), ("mean",), True), dict(llds=()),
                    FeatureError),
    "StandardizerParams": (classifiers.StandardizerParams(np.zeros(3), np.ones(3)),
                           dict(std=np.ones(2)), TrainingError),
    "FeatureVector": (FeatureVector(FeatureSetId.LEXICAL, [1.0, 2.0]),
                      dict(values=np.array([np.nan])), FeatureError),
    "Corpus": (memory_corpus(2, 2), dict(subjects=memory_corpus(2, 2).subjects * 2),
               ManifestError),
}
# Derives its table and rows from its inputs, and checks nothing.
_DERIVED = {
    "TfidfProvider": evaluation.TfidfProvider({"A": "the cat sat", "B": "the dog sat"}),
}
_RECORDS = {name: rec for name, (rec, _, _) in _CHECKED.items()} | _DERIVED


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", _RECORDS)
def test_a_record_is_a_single_class(name):
    assert type(_RECORDS[name]).__bases__ == (tuple,)


@pytest.mark.parametrize("name", _RECORDS)
def test_a_record_refuses_every_assignment(name):
    rec = _RECORDS[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1  # no instance dict to hold it


@pytest.mark.parametrize("name", _RECORDS)
def test_a_pickled_record_keeps_every_field(name):
    rec = _RECORDS[name]
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    for field in rec._fields:
        assert _same(getattr(rec, field), getattr(back, field)), field


@pytest.mark.parametrize("name", _CHECKED)
def test_a_pickled_record_is_checked_again(name):
    rec, forged_fields, error = _CHECKED[name]
    forged = rec._replace(**forged_fields)
    assert type(forged) is type(rec)  # _replace skipped the check
    data = pickle.dumps(forged)
    with pytest.raises(error) as exc:
        pickle.loads(data)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("rec, field, forged", [
    (memory_corpus(2, 2), "by_id", {}),
    (evaluation.TfidfProvider({"A": "the cat sat", "B": "the dog sat"}), "rows", {"A": 1}),
], ids=["Corpus.by_id", "TfidfProvider.rows"])
def test_a_forged_derived_field_is_derived_again_from_a_pickle(rec, field, forged):
    back = pickle.loads(pickle.dumps(rec._replace(**{field: forged})))
    assert _same(getattr(back, field), getattr(rec, field))
