"""Pipeline errors survive pickling, as they do crossing back from pool workers."""

import pickle

import pytest

from cognopipe import errors
from cognopipe.corpus import Diagnostic

ERROR_TYPES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, errors.PipelineError)),
    key=lambda c: c.__name__,
)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = cls("some_op", "what went wrong")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) == f"{cls.module}.some_op: what went wrong"
    assert (back.op, back.message) == ("some_op", "what went wrong")


def test_manifest_error_keeps_diagnostics_through_pickle():
    diags = [Diagnostic("subjects.csv", 2, "duplicate subject_id 'A1'")]
    back = pickle.loads(pickle.dumps(errors.ManifestError("load_manifest", "1 problem", diags)))
    assert back.diagnostics == diags
    assert str(back) == "corpus.load_manifest: 1 problem"
