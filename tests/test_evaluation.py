"""Vote fusion, confusion tables, metrics, cross-validated experiments, reports."""

import itertools
from collections import Counter

import numpy as np
import pytest

from cognopipe import acoustic, classifiers, corpus as corpusmod, dsp, evaluation as ev, linguistic
from cognopipe.corpus import Diagnosis, FoldAssignment, Label, Task, label_of
from cognopipe.errors import EvaluationError, LeakageError
from cognopipe.evaluation import (
    AveragingMode,
    ExperimentConfig,
    FoldPrediction,
    PrecomputedProvider,
    TfidfProvider,
    TieBreak,
)
from cognopipe.features import FeatureSetId, FeatureVector

from conftest import memory_corpus

TASKS = tuple(Task)


def pred(sid, true, predicted, score, task=None, fold=0):
    return FoldPrediction(
        subject_id=sid,
        task=task,
        fold=fold,
        true_label=true,
        predicted_label=predicted,
        score=score,
    )


# ---------------------------------------------------------------------------
# majority vote

def vote_oracle(labels, scores, tie_break):
    """Plain restatement of the fusion rule for the enumeration test."""
    n_case = sum(1 for lab in labels if lab is Label.CASE)
    n_control = len(labels) - n_case
    if n_case != n_control:
        return Label.CASE if n_case > n_control else Label.CONTROL
    if tie_break is TieBreak.ALWAYS_CASE:
        return Label.CASE
    if tie_break is TieBreak.ALWAYS_CONTROL:
        return Label.CONTROL
    return Label.CASE if sum(scores) >= 0 else Label.CONTROL


def test_majority_vote_matches_enumeration_over_all_patterns():
    # every per-task score sign pattern over 4 tasks, all tie-break modes
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=4):
        preds = [
            pred(
                "S",
                Label.CASE,
                Label.CASE if s >= 0 else Label.CONTROL,
                s,
                task=t,
            )
            for s, t in zip(signs, TASKS)
        ]
        labels = [p.predicted_label for p in preds]
        for tb in TieBreak:
            fused = ev.majority_vote(preds, tb)
            assert fused.predicted_label is vote_oracle(labels, signs, tb), (
                signs,
                tb,
            )
            assert fused.task is None
            assert fused.subject_id == "S"
            assert fused.score == sum(signs)


def test_majority_vote_subsets_sizes_1_to_3():
    for n in (1, 2, 3):
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            preds = [
                pred("S", Label.CONTROL, Label.CASE if s >= 0 else Label.CONTROL, s, task=t)
                for s, t in zip(signs, TASKS)
            ]
            fused = ev.majority_vote(preds)
            assert fused.predicted_label is vote_oracle(
                [p.predicted_label for p in preds], signs, TieBreak.SCORE_SUM
            )


def test_majority_vote_errors():
    with pytest.raises(EvaluationError):
        ev.majority_vote([])
    mixed = [
        pred("A", Label.CASE, Label.CASE, 1.0, task=Task.SHORT_TERM),
        pred("B", Label.CASE, Label.CASE, 1.0, task=Task.LONG_TERM),
    ]
    with pytest.raises(EvaluationError):
        ev.majority_vote(mixed)


# ---------------------------------------------------------------------------
# fusing experiment cells

def _experiment(task, preds, fsid=FeatureSetId.EGEMAPS_LIKE_88,
                kind=classifiers.ModelKind.LOGISTIC_REGRESSION, skipped=()):
    return ev.TaskExperimentResult(
        task=task,
        feature_set=fsid,
        classifier=kind,
        predictions=tuple(preds),
        skipped_subjects=tuple(skipped),
    )


def test_fuse_predictions_basic_and_excluded():
    e1 = _experiment(
        Task.SHORT_TERM,
        [pred("A", Label.CASE, Label.CASE, 0.8, task=Task.SHORT_TERM)],
        skipped=("B",),
    )
    e2 = _experiment(
        Task.LONG_TERM,
        [pred("A", Label.CASE, Label.CONTROL, -0.2, task=Task.LONG_TERM)],
        skipped=("B",),
    )
    fused, excluded = ev.fuse_predictions([e1, e2])
    assert excluded == ("B",)  # no usable prediction in any task
    assert len(fused) == 1
    # 1-1 tie, score sum 0.6 >= 0 -> Case
    assert fused[0].predicted_label is Label.CASE
    assert abs(fused[0].score - 0.6) < 1e-12


def test_fuse_predictions_rejects_mixed_cells():
    e1 = _experiment(Task.SHORT_TERM, [], fsid=FeatureSetId.EGEMAPS_LIKE_88)
    e2 = _experiment(Task.LONG_TERM, [], fsid=FeatureSetId.NGRAM_TFIDF)
    with pytest.raises(EvaluationError):
        ev.fuse_predictions([e1, e2])


# ---------------------------------------------------------------------------
# confusion tables

def _fused_for_counts(corp, case_hits, mci_hits, hc_false):
    """Fused predictions hitting the requested per-diagnosis cell counts."""
    preds = []
    for s in corp.subjects:
        truth = label_of(s.diagnosis)
        if s.diagnosis is Diagnosis.DEMENTIA:
            take = case_hits[0] > 0
            case_hits = (case_hits[0] - 1, case_hits[1]) if take else case_hits
        elif s.diagnosis is Diagnosis.MCI:
            take = mci_hits > 0
            mci_hits = mci_hits - 1 if take else mci_hits
        else:
            take = hc_false > 0
            hc_false = hc_false - 1 if take else hc_false
        predicted = Label.CASE if take else Label.CONTROL
        preds.append(pred(s.subject_id, truth, predicted, 1.0 if take else -1.0))
    return preds


def test_confusion_hand_built_counts():
    corp = memory_corpus(63, 63, n_dementia=12)
    preds = _fused_for_counts(corp, case_hits=(10, 0), mci_hits=41, hc_false=5)
    cb = ev.confusion(preds, corp)
    assert cb.three_by_two == ((10, 2), (41, 10), (5, 58))
    assert cb.two_by_two == ((51, 12), (5, 58))
    assert (cb.tp, cb.fn, cb.fp, cb.tn) == (51, 12, 5, 58)
    m = ev.metrics(cb, preds)
    assert abs(m.sensitivity - 51 / 63) < 1e-12
    assert abs(m.specificity - 58 / 63) < 1e-12


def test_confusion_collapse_consistency():
    corp = memory_corpus(8, 5, n_dementia=3)
    rng = np.random.default_rng(2)
    preds = [
        pred(
            s.subject_id,
            label_of(s.diagnosis),
            Label.CASE if rng.random() < 0.5 else Label.CONTROL,
            1.0,
        )
        for s in corp.subjects
    ]
    cb = ev.confusion(preds, corp)
    t = np.array(cb.three_by_two)
    assert tuple(t[0] + t[1]) == cb.two_by_two[0]
    assert tuple(t[2]) == cb.two_by_two[1]
    assert t.sum() == len(preds)
    # row sums match the diagnosis census
    counts = corp.diagnosis_counts()
    for row, diag in zip(t, ev.ConfusionBreakdown.DIAGNOSIS_ROWS):
        assert row.sum() == counts.get(diag, 0)


def test_confusion_unknown_subject():
    corp = memory_corpus(2, 2)
    with pytest.raises(EvaluationError):
        ev.confusion([pred("GHOST", Label.CASE, Label.CASE, 1.0)], corp)


# ---------------------------------------------------------------------------
# metrics

def naive_prf(preds, positive):
    tp = sum(p.true_label is positive and p.predicted_label is positive for p in preds)
    fp = sum(p.true_label is not positive and p.predicted_label is positive for p in preds)
    fn = sum(p.true_label is positive and p.predicted_label is not positive for p in preds)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    support = sum(p.true_label is positive for p in preds)
    return prec, rec, f1, support


def naive_mode(preds, mode):
    case = naive_prf(preds, Label.CASE)
    control = naive_prf(preds, Label.CONTROL)
    if mode is AveragingMode.BINARY:
        return case[:3]
    if mode is AveragingMode.MACRO:
        return tuple((a + b) / 2 for a, b in zip(case[:3], control[:3]))
    total = case[3] + control[3]
    return tuple(
        (case[3] * a + control[3] * b) / total for a, b in zip(case[:3], control[:3])
    )


def _random_predictions(n=40, seed=5, fold_ids=(0, 1, 2, 3)):
    rng = np.random.default_rng(seed)
    preds = []
    for i in range(n):
        truth = Label.CASE if rng.random() < 0.5 else Label.CONTROL
        hit = rng.random() < 0.75
        predicted = truth if hit else (
            Label.CONTROL if truth is Label.CASE else Label.CASE
        )
        preds.append(
            pred(f"S{i:03d}", truth, predicted, rng.normal(),
                 fold=fold_ids[int(rng.integers(len(fold_ids)))])
        )
    return preds


@pytest.mark.parametrize("mode", list(AveragingMode))
def test_metrics_match_naive_recount(mode):
    for fold_ids in ((0, 1, 2, 3), (1, 4, 7)):  # contiguous and gapped fold ids
        preds = _random_predictions(fold_ids=fold_ids)
        # metrics only needs the 2x2 table; derive it from the predictions
        t = sum(p.true_label is Label.CASE and p.predicted_label is Label.CASE for p in preds)
        fn = sum(p.true_label is Label.CASE and p.predicted_label is Label.CONTROL for p in preds)
        fp = sum(p.true_label is Label.CONTROL and p.predicted_label is Label.CASE for p in preds)
        tn = sum(p.true_label is Label.CONTROL and p.predicted_label is Label.CONTROL
                 for p in preds)
        cb = ev.ConfusionBreakdown(
            three_by_two=((0, 0), (t, fn), (fp, tn)), two_by_two=((t, fn), (fp, tn))
        )
        m = ev.metrics(cb, preds, mode)
        prec, rec, f1 = naive_mode(preds, mode)
        assert abs(m.precision - prec) < 1e-12
        assert abs(m.recall - rec) < 1e-12
        assert abs(m.f1 - f1) < 1e-12
        # across-fold population std, recounted independently
        folds = sorted({p.fold for p in preds})
        assert folds == list(fold_ids)
        per_fold = np.array(
            [naive_mode([p for p in preds if p.fold == f], mode) for f in folds]
        )
        assert abs(m.precision_std - per_fold[:, 0].std()) < 1e-12
        assert abs(m.recall_std - per_fold[:, 1].std()) < 1e-12
        assert abs(m.f1_std - per_fold[:, 2].std()) < 1e-12
        assert abs(m.sensitivity - t / (t + fn)) < 1e-12
        assert abs(m.specificity - tn / (tn + fp)) < 1e-12


def test_metrics_order_invariant():
    preds = _random_predictions(seed=9)
    cb = ev.ConfusionBreakdown(((0, 0), (1, 1), (1, 1)), ((1, 1), (1, 1)))
    a = ev.metrics(cb, preds, AveragingMode.MACRO)
    b = ev.metrics(cb, list(reversed(preds)), AveragingMode.MACRO)
    assert a == b


def test_metrics_zero_division_flag():
    preds = [
        pred("A", Label.CASE, Label.CONTROL, -1.0),
        pred("B", Label.CONTROL, Label.CONTROL, -1.0),
    ]
    cb = ev.ConfusionBreakdown(((0, 0), (0, 1), (0, 1)), ((0, 1), (0, 1)))
    m = ev.metrics(cb, preds)
    assert m.zero_division
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    with pytest.raises(EvaluationError):
        ev.metrics(cb, [])


# ---------------------------------------------------------------------------
# experiments over a provider

def _vector_provider(corp, dim=10, seed=0, shift=1.0):
    rng = np.random.default_rng(seed)
    vectors = {}
    for s in corp.subjects:
        base = rng.normal(size=dim)
        if label_of(s.diagnosis) is Label.CASE:
            base = base + shift
        vectors[s.subject_id] = FeatureVector(FeatureSetId.EGEMAPS_LIKE_88, base)
    return PrecomputedProvider(FeatureSetId.EGEMAPS_LIKE_88, vectors)


@pytest.mark.parametrize("kind", list(classifiers.ModelKind))
def test_run_task_experiment_deterministic(kind):
    corp = memory_corpus(6, 6)
    provider = _vector_provider(corp)
    folds = corpusmod.stratified_folds(corp, 3, seed=0)
    cfg = ExperimentConfig(seed=11)
    r1 = ev.run_task_experiment(corp, Task.SHORT_TERM, provider, kind, folds, cfg)
    r2 = ev.run_task_experiment(corp, Task.SHORT_TERM, provider, kind, folds, cfg)
    assert r1.predictions == r2.predictions
    assert len(r1.predictions) == 12  # every subject tested exactly once
    assert {p.subject_id for p in r1.predictions} == set(provider.available_subjects())
    assert r1.skipped_subjects == ()
    assert r1.task is Task.SHORT_TERM and r1.classifier is kind


def test_run_task_experiment_skips_unavailable_subjects():
    corp = memory_corpus(6, 6)
    provider = _vector_provider(corp)
    trimmed = dict(provider.vectors)
    del trimmed["P003"]
    provider = PrecomputedProvider(FeatureSetId.EGEMAPS_LIKE_88, trimmed)
    folds = corpusmod.stratified_folds(corp, 3, seed=0)
    res = ev.run_task_experiment(
        corp, Task.LONG_TERM, provider, classifiers.ModelKind.LOGISTIC_REGRESSION, folds
    )
    assert res.skipped_subjects == ("P003",)
    assert all(p.subject_id != "P003" for p in res.predictions)
    assert len(res.predictions) == 11


def test_run_task_experiment_single_class_fold_is_error():
    corp = memory_corpus(2, 2)
    provider = _vector_provider(corp)
    folds = FoldAssignment(
        k=2, fold_of_subject={"P000": 0, "P001": 0, "P002": 1, "P003": 1}
    )
    with pytest.raises(EvaluationError) as exc:
        ev.run_task_experiment(
            corp,
            Task.SHORT_TERM,
            provider,
            classifiers.ModelKind.LOGISTIC_REGRESSION,
            folds,
        )
    assert "single-class" in str(exc.value)


class _CheatingProvider:
    """Claims to have fitted on a test subject; the audit must object."""

    feature_set_id = FeatureSetId.EGEMAPS_LIKE_88

    def __init__(self, inner):
        self.inner = inner

    def available_subjects(self):
        return self.inner.available_subjects()

    def fold_features(self, train_ids, test_ids, fold_name):
        X_train, X_test, _ = self.inner.fold_features(train_ids, test_ids, fold_name)
        return X_train, X_test, frozenset(train_ids) | {test_ids[0]}


def test_leakage_audit_rejects_cheating_provider():
    corp = memory_corpus(6, 6)
    provider = _CheatingProvider(_vector_provider(corp))
    folds = corpusmod.stratified_folds(corp, 3, seed=0)
    with pytest.raises(EvaluationError) as exc:
        ev.run_task_experiment(
            corp,
            Task.SHORT_TERM,
            provider,
            classifiers.ModelKind.LOGISTIC_REGRESSION,
            folds,
        )
    assert "test subjects" in str(exc.value)


class _CountingProvider:
    """Counts fold_features calls and passes them through."""

    def __init__(self, inner):
        self.inner = inner
        self.feature_set_id = inner.feature_set_id
        self.calls = 0

    def available_subjects(self):
        return self.inner.available_subjects()

    def fold_features(self, train_ids, test_ids, fold_name):
        self.calls += 1
        return self.inner.fold_features(train_ids, test_ids, fold_name)


BOTH_KINDS = (classifiers.ModelKind.LOGISTIC_REGRESSION, classifiers.ModelKind.LINEAR_SVM)


def test_run_task_experiments_builds_each_fold_once():
    corp = memory_corpus(6, 6)
    provider = _CountingProvider(_vector_provider(corp))
    folds = corpusmod.stratified_folds(corp, 3, seed=0)
    results = ev.run_task_experiments(corp, Task.SHORT_TERM, provider, BOTH_KINDS, folds)
    assert provider.calls == folds.k
    assert tuple(r.classifier for r in results) == BOTH_KINDS
    assert all(len(r.predictions) == 12 for r in results)


def test_run_task_experiments_list_the_folds_that_did_not_converge():
    corp = memory_corpus(6, 6)
    folds = corpusmod.stratified_folds(corp, 3, seed=0)
    provider = _vector_provider(corp)
    lr, svm = ev.run_task_experiments(corp, Task.SHORT_TERM, provider, BOTH_KINDS, folds,
                                      ExperimentConfig(lr_max_iters=1))
    assert lr.not_converged_folds == (0, 1, 2)  # one Newton step reaches no fold's lr_tol
    assert svm.not_converged_folds == ()
    lr, svm = ev.run_task_experiments(corp, Task.SHORT_TERM, provider, BOTH_KINDS, folds)
    assert lr.not_converged_folds == svm.not_converged_folds == ()


def test_run_task_experiments_match_one_kind_runs(small_corpus):
    folds = corpusmod.stratified_folds(small_corpus, 3, seed=0)
    cfg = ExperimentConfig(seed=5)
    providers = (
        _vector_provider(small_corpus),
        ev.build_provider(small_corpus, Task.SHORT_TERM, FeatureSetId.NGRAM_TFIDF),
    )
    for provider in providers:
        together = ev.run_task_experiments(small_corpus, Task.SHORT_TERM, provider,
                                           BOTH_KINDS, folds, cfg)
        alone = tuple(ev.run_task_experiment(small_corpus, Task.SHORT_TERM, provider, kind,
                                             folds, cfg) for kind in BOTH_KINDS)
        assert together == alone, provider.feature_set_id


def test_trainers_leave_their_inputs_unchanged():
    """Every kind of a fold reads the same standardized matrices."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    y01 = np.array([1.0, 0.0] * 6)
    X0, y0 = X.copy(), y01.copy()
    classifiers.train_logistic(X, y01)
    assert np.array_equal(X, X0) and np.array_equal(y01, y0)
    y_pm = 2.0 * y01 - 1.0
    y_pm0 = y_pm.copy()
    classifiers.train_linear_svm(X, y_pm, epochs=3)
    assert np.array_equal(X, X0) and np.array_equal(y_pm, y_pm0)


def test_audit_no_leakage_direct():
    ev.audit_no_leakage([frozenset({"A", "B"})], ["C", "D"])  # disjoint: fine
    with pytest.raises(EvaluationError):
        ev.audit_no_leakage([frozenset({"A"}), frozenset({"B", "C"})], ["C"])


def test_tfidf_provider_fits_per_fold():
    transcripts = {
        "A": "the cat sat on the mat",
        "B": "the dog sat on the log",
        "C": "a bird sang in the tree",
        "D": "the cat and the dog",
    }
    prov = TfidfProvider(transcripts, n_range=(1, 1), min_doc_freq=1)
    assert prov.available_subjects() == ("A", "B", "C", "D")
    X_train, X_test, fitted = prov.fold_features(("A", "B"), ("C", "D"), "demo")
    assert fitted == frozenset({"A", "B"})
    assert X_train.shape[0] == 2 and X_test.shape[0] == 2
    # training rows are unit vectors; "C" shares only "the" with the fit
    assert np.allclose(np.linalg.norm(X_train, axis=1), 1.0)
    # refitting with a test subject in the training list then reusing it as
    # a test subject must trip the guard
    with pytest.raises(LeakageError):
        prov.fold_features(("A", "B"), ("A",), "demo2")


def naive_fold_tfidf(transcripts, train_ids, test_ids, n_range, min_doc_freq):
    """Re-tokenize and re-count every document of the fold from scratch."""
    def grams(text):
        toks = linguistic.tokenize(text)
        return Counter(" ".join(toks[i:i + n]) for n in range(n_range[0], n_range[1] + 1)
                       for i in range(len(toks) - n + 1))

    df = Counter()
    for s in train_ids:
        df.update(set(grams(transcripts[s])))
    kept = sorted(g for g, c in df.items() if c >= min_doc_freq)
    idf = [np.log((1 + len(train_ids)) / (1 + df[g])) + 1.0 for g in kept]

    def vec(text):
        tf = grams(text)
        v = np.array([tf[g] * w for g, w in zip(kept, idf)])
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    return (np.vstack([vec(transcripts[s]) for s in train_ids]),
            np.vstack([vec(transcripts[s]) for s in test_ids]))


@pytest.mark.parametrize("n_range", [(1, 1), (1, 2), (2, 3)])
def test_tfidf_provider_matches_naive_oracle_every_fold(small_corpus, n_range):
    """Bit-identical to recounting the fold.  Only bi/trigrams kept in 3 of
    8 transcripts leave some folds an empty vocabulary: the provider's error."""
    folds = corpusmod.stratified_folds(small_corpus, 5, seed=0)
    for min_doc_freq in (1, 2, 3):
        compared = 0
        for task in TASKS:
            transcripts = {r.subject_id: r.transcript for r in small_corpus.recordings
                           if r.task is task}
            prov = TfidfProvider(transcripts, n_range=n_range, min_doc_freq=min_doc_freq)
            for f in range(folds.k):
                train_ids, test_ids = folds.train_subjects(f), folds.test_subjects(f)
                want_train, want_test = naive_fold_tfidf(
                    transcripts, train_ids, test_ids, n_range, min_doc_freq)
                if want_train.shape[1] == 0:
                    assert (n_range, min_doc_freq) == ((2, 3), 3)
                    with pytest.raises(EvaluationError, match="has no n-gram"):
                        prov.fold_features(train_ids, test_ids, f"fold{f}")
                    continue
                X_train, X_test, _ = prov.fold_features(train_ids, test_ids, f"fold{f}")
                assert X_train.shape[1] > 0
                assert np.array_equal(X_train, want_train)
                assert np.array_equal(X_test, want_test)
                compared += 1
        assert compared >= 2 * folds.k


def test_tfidf_fold_is_one_fit_and_one_vectorization_per_partition(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fit_vocabulary", "vectorize_tfidf"):
        monkeypatch.setattr(linguistic, name, counting(name, getattr(linguistic, name)))
    transcripts = {s: f"the {w} sat on the mat"
                   for s, w in zip("ABCDEF", ["cat", "dog", "hen", "ox", "yak", "emu"])}
    prov = TfidfProvider(transcripts, n_range=(1, 2), min_doc_freq=2)
    X_train, X_test, _ = prov.fold_features(("A", "B", "C", "D"), ("E", "F"), "fold0")
    assert calls == ["fit_vocabulary", "vectorize_tfidf", "vectorize_tfidf"]
    assert X_train.shape[0] == 4 and X_test.shape[0] == 2


def test_tfidf_counts_keep_the_leakage_guard():
    prov = TfidfProvider({"A": "the cat sat", "B": "the dog sat"}, n_range=(1, 2),
                         min_doc_freq=1)
    vocab = linguistic.fit_vocabulary(prov.table, [prov.rows["A"]], fitted_on="f0",
                                      fitted_subjects=frozenset({"A"}))
    with pytest.raises(LeakageError):
        linguistic.vectorize_tfidf([prov.rows["A"]], vocab, subject_ids=["A"])
    linguistic.vectorize_tfidf([prov.rows["B"]], vocab, subject_ids=["B"])


def test_text_sets_skip_a_missing_transcript_alike(small_manifest, tmp_path):
    """A recording without a transcript drops its subject from NgramTfidf
    and Lexical alike, instead of giving Lexical an all-zero vector."""
    header, *rows = (small_manifest / corpusmod.RECORDINGS_FILE).read_text().splitlines()
    lines = [header]
    for row in rows:
        sid, task, audio, transcript = row.split(",")
        transcript = "" if (sid, task) == ("S000", "ShortTerm") else str(small_manifest / transcript)
        lines.append(",".join([sid, task, str(small_manifest / audio), transcript]))
    (tmp_path / corpusmod.RECORDINGS_FILE).write_text("\n".join(lines) + "\n")
    (tmp_path / corpusmod.SUBJECTS_FILE).write_bytes(
        (small_manifest / corpusmod.SUBJECTS_FILE).read_bytes())
    corp = corpusmod.load_manifest(tmp_path)
    folds = corpusmod.stratified_folds(corp, 3, seed=0)
    for fsid in (FeatureSetId.NGRAM_TFIDF, FeatureSetId.LEXICAL):
        provider = ev.build_provider(corp, Task.SHORT_TERM, fsid)
        res = ev.run_task_experiment(corp, Task.SHORT_TERM, provider,
                                     classifiers.ModelKind.LOGISTIC_REGRESSION, folds)
        assert res.skipped_subjects == ("S000",), fsid
        assert len(res.predictions) == len(corp.subjects) - 1, fsid


def test_one_decode_vad_and_lld_pass_per_recording(small_corpus, monkeypatch):
    """Both acoustic sets of a recording come from one read_wav, one
    detect_speech and one extract_llds call; Lexical reads no audio."""
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((dsp, "read_wav"), (dsp, "detect_speech"), (acoustic, "extract_llds")):
        count(module, name)
    sets = (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.COMPARE_LIKE, FeatureSetId.LEXICAL)
    vectors = ev.extract_task_features(small_corpus, (Task.SHORT_TERM,), sets, workers=1)
    recs = [r for r in small_corpus.recordings if r.task is Task.SHORT_TERM]
    n = len(recs)
    assert n == 10
    assert calls == {"read_wav": n, "detect_speech": n, "extract_llds": n}
    assert {fsid: len(vectors[Task.SHORT_TERM, fsid]) for fsid in sets} == dict.fromkeys(sets, n)
    rec = recs[0]
    audio = dsp.read_wav(rec.audio_path)
    segs = dsp.detect_speech(audio)
    for fsid, extract in ((FeatureSetId.EGEMAPS_LIKE_88, acoustic.egemaps_like),
                          (FeatureSetId.COMPARE_LIKE, acoustic.compare_like)):
        assert np.array_equal(vectors[Task.SHORT_TERM, fsid][rec.subject_id].values,
                              extract(audio, segs).values), fsid


def test_extracting_ngram_tfidf_is_an_error_before_any_decode(small_corpus, monkeypatch):
    reads = []
    read_wav = dsp.read_wav
    monkeypatch.setattr(dsp, "read_wav", lambda path: reads.append(path) or read_wav(path))
    sets = (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.NGRAM_TFIDF)
    with pytest.raises(EvaluationError, match=r"^evaluation\.extract_task_features: NgramTfidf "
                                              r"vectors are fitted per cross-validation fold"):
        ev.extract_task_features(small_corpus, (Task.SHORT_TERM,), sets, workers=1)
    assert reads == []


def test_fold_seed_stable_and_distinct():
    args = (7, Task.SHORT_TERM, FeatureSetId.EGEMAPS_LIKE_88,
            classifiers.ModelKind.LOGISTIC_REGRESSION)
    s1 = ev.fold_seed(*args, 0)
    assert s1 == ev.fold_seed(*args, 0)
    assert 0 <= s1 < 2**64
    others = {
        ev.fold_seed(7, Task.LONG_TERM, *args[2:], 0),
        ev.fold_seed(7, *args[1:3], classifiers.ModelKind.LINEAR_SVM, 0),
        ev.fold_seed(*args, 1),
        ev.fold_seed(8, *args[1:], 0),
    }
    assert s1 not in others and len(others) == 4


# ---------------------------------------------------------------------------
# reports

@pytest.fixture(scope="module")
def tiny_report():
    corp = memory_corpus(6, 6, n_dementia=2)
    folds = corpusmod.stratified_folds(corp, 3, seed=1)
    providers = {
        t: _vector_provider(corp, seed=i) for i, t in enumerate(TASKS[:2])
    }
    experiments = [
        ev.run_task_experiment(
            corp, t, providers[t], classifiers.ModelKind.LOGISTIC_REGRESSION, folds
        )
        for t in TASKS[:2]
    ]
    echo = {"seed": 7, "manifest": "mem"}
    return corp, folds, experiments, ev.build_report(corp, folds, experiments, echo)


def test_report_structure(tiny_report):
    corp, folds, experiments, rep = tiny_report
    assert rep["schema_version"] == ev.REPORT_SCHEMA_VERSION
    assert rep["config"] == {"seed": 7, "manifest": "mem"}
    assert rep["corpus"]["n_subjects"] == 12
    assert rep["corpus"]["diagnosis_counts"] == {"Dementia": 2, "MCI": 4, "HC": 6}
    assert rep["corpus"]["label_counts"] == {"Case": 6, "Control": 6}
    assert rep["folds"]["k"] == 3
    assert sorted(rep["folds"]["sizes"]) == [4, 4, 4]
    assert len(rep["per_task"]) == 2
    assert [b["not_converged_folds"] for b in rep["per_task"]] == [[], []]
    assert len(rep["fused"]) == 1  # one (feature set, classifier) cell
    fused = rep["fused"][0]
    assert fused["n_tasks"] == 2 and fused["n_subjects"] == 12
    # every disclaimer is non-empty prose
    assert rep["disclaimers"] and all(d.strip() for d in rep["disclaimers"])
    # the CSV blocks carry one line per experiment / cell plus a header
    assert rep["per_task_csv"].count("\n") == 3
    assert rep["fused_csv"].count("\n") == 2
    header = rep["per_task_csv"].splitlines()[0]
    assert header.startswith("task,feature_set,classifier,precision,")


def test_report_metric_blocks_have_all_modes(tiny_report):
    *_, rep = tiny_report
    for block in rep["per_task"] + rep["fused"]:
        assert set(block["metrics"]) == {"Binary", "Macro", "Weighted"}
        binary = block["metrics"]["Binary"]
        assert set(binary) >= {
            "precision", "recall", "f1", "sensitivity", "specificity", "zero_division",
        }
        tbl = np.array(block["confusion_3x2"])
        assert tbl.shape == (3, 2) and tbl.sum() == block["n_predictions" if "n_predictions" in block else "n_subjects"]


def test_report_csv_and_chart_read_the_blocks(tiny_report):
    *_, rep = tiny_report
    cols = ["precision", "recall", "f1", "precision_std", "recall_std", "f1_std",
            "sensitivity", "specificity"]
    for csv_key, block_key, keys in (
        ("per_task_csv", "per_task", ["task", "feature_set", "classifier"]),
        ("fused_csv", "fused", ["feature_set", "classifier", "n_tasks"]),
    ):
        header, *rows = rep[csv_key].splitlines()
        assert header == ",".join(keys + cols)
        assert len(rows) == len(rep[block_key])
        for row, block in zip(rows, rep[block_key]):
            binary = block["metrics"]["Binary"]
            values = [block[k] for k in keys] + [binary[c] for c in cols]
            assert row == ",".join(str(v) for v in values)
    bars = rep["chart_data"]["per_task_f1"]
    assert len(bars) == len(rep["per_task"])
    for bar, block in zip(bars, rep["per_task"]):
        assert bar == {"task": block["task"], "feature_set": block["feature_set"],
                       "classifier": block["classifier"], "f1": block["metrics"]["Binary"]["f1"]}


def test_report_round_trip_and_byte_identity(tiny_report, tmp_path):
    corp, folds, experiments, rep = tiny_report
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    ev.write_report(rep, p1)
    assert ev.read_report(p1) == rep
    rep2 = ev.build_report(corp, folds, experiments, {"seed": 7, "manifest": "mem"})
    ev.write_report(rep2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_prediction_rows_sorted(tiny_report):
    *_, rep = tiny_report
    for block in rep["per_task"]:
        sids = [row[0] for row in block["predictions"]]
        assert sids == sorted(sids)
        for row in block["predictions"]:
            assert row[1] == block["task"]
            assert row[3] in ("Case", "Control") and row[4] in ("Case", "Control")
    for row in rep["fused"][0]["predictions"]:
        assert row[1] == "fused"
