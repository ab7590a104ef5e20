"""Cross-validated experiments, majority-vote fusion, metrics, reports.

An experiment is one (task, feature set) evaluated over subject-level
folds and scored for each classifier: a fold's features and standardizer
are built once and shared by every classifier trained on it.  Per-fold
artifacts (standardizer, vocabulary, model) each record the subjects
they were fitted on, and every fit is audited so that no fitted artifact
ever saw a test subject.  The four per-task predictions of a subject fuse
by majority vote into the final screening label.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar, Iterator, Mapping, Sequence

import numpy as np

from . import acoustic, classifiers, dsp, linguistic
from .corpus import Corpus, Diagnosis, FoldAssignment, Label, Task, TaskRecording
from .errors import EvaluationError
from .features import FeatureSetId, FeatureVector

REPORT_SCHEMA_VERSION = "1.3"

DISCLAIMERS = (
    "speech segmentation uses energy-based voice activity detection",
    "snr_db is a speech/non-speech power ratio over detected segments; "
    "not comparable to SNR columns produced by other conventions",
    "the linguistic branch is an n-gram/lexical baseline",
    "acoustic feature sets are re-implemented from frozen manifests, not "
    "openSMILE outputs, and claim no conformance to eGeMAPS or ComParE",
)


class AveragingMode(enum.Enum):
    BINARY = "Binary"  # Case is the positive class
    MACRO = "Macro"
    WEIGHTED = "Weighted"


class TieBreak(enum.Enum):
    SCORE_SUM = "score_sum"
    ALWAYS_CASE = "always_case"
    ALWAYS_CONTROL = "always_control"


@dataclass(frozen=True)
class FoldPrediction:
    """One subject's prediction for one task (or fused when task is None)."""

    subject_id: str
    task: Task | None
    fold: int
    true_label: Label
    predicted_label: Label
    score: float


@dataclass(frozen=True)
class ClassifierConfig:
    """Classifier hyper-parameters (the config file's classifier section)."""

    l2_lambda: float = 1.0
    lr_max_iters: int = 500
    lr_tol: float = 1e-6
    svm_epochs: int = 50


@dataclass(frozen=True)
class ExperimentConfig(ClassifierConfig):
    """Classifier hyper-parameters plus the base of the per-fold seeds."""

    seed: int = 7


@dataclass(frozen=True)
class TaskExperimentResult:
    task: Task
    feature_set: FeatureSetId
    classifier: classifiers.ModelKind
    predictions: tuple[FoldPrediction, ...]
    skipped_subjects: tuple[str, ...]  # no usable recording for this task
    not_converged_folds: tuple[int, ...] = ()  # LR fits stopped at lr_max_iters


@dataclass(frozen=True)
class PrecomputedProvider:
    """Fold-independent vectors (acoustic or lexical), one per subject."""

    feature_set_id: FeatureSetId
    vectors: Mapping[str, FeatureVector]

    def available_subjects(self) -> tuple[str, ...]:
        return tuple(sorted(self.vectors))

    def fold_features(self, train_ids, test_ids, fold_name):
        X_train = np.vstack([self.vectors[s].values for s in train_ids])
        X_test = np.vstack([self.vectors[s].values for s in test_ids])
        return X_train, X_test, frozenset(train_ids)


@dataclass(frozen=True)
class TfidfProvider:
    """Fits a vocabulary per fold on training transcripts only.

    The transcripts' n-grams are counted once, into one table, when the
    provider is made.  A fold's vocabulary is one bincount over its
    training rows, and each partition's matrix is one scatter of its rows.
    """

    transcripts: Mapping[str, str]
    n_range: tuple[int, int] = (1, 2)
    min_doc_freq: int = 2
    feature_set_id: ClassVar[FeatureSetId] = FeatureSetId.NGRAM_TFIDF
    table: linguistic.NgramTable = field(init=False, repr=False, compare=False)
    rows: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = linguistic.ngram_table(list(self.transcripts.values()), self.n_range)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "rows", {s: r for r, s in enumerate(self.transcripts)})

    def available_subjects(self) -> tuple[str, ...]:
        return tuple(sorted(self.transcripts))

    def fold_features(self, train_ids, test_ids, fold_name):
        train_rows = [self.rows[s] for s in train_ids]
        vocab = linguistic.fit_vocabulary(
            self.table,
            train_rows,
            min_doc_freq=self.min_doc_freq,
            fitted_on=fold_name,
            fitted_subjects=frozenset(train_ids),
        )
        if not vocab.size:
            raise EvaluationError(
                "fold_features",
                f"{fold_name} has no n-gram in {self.min_doc_freq} or more of its "
                f"{len(train_ids)} transcripts",
            )
        X_train = linguistic.vectorize_tfidf(train_rows, vocab)
        X_test = linguistic.vectorize_tfidf(
            [self.rows[s] for s in test_ids], vocab, subject_ids=test_ids
        )
        return X_train, X_test, vocab.fitted_subjects


def _extract_one(rec: TaskRecording, feature_sets: tuple[FeatureSetId, ...],
                 vad_cfg: dsp.VadConfig | None,
                 ac_cfg: acoustic.AcousticConfig | None) -> tuple[FeatureVector, ...]:
    """Worker: one recording -> its vector of each acoustic set, in order.

    The sets share one decode, VAD pass and LLD matrix.
    """
    audio = dsp.read_wav(rec.audio_path)
    segments = dsp.detect_speech(audio, vad_cfg)
    llds = acoustic.extract_llds(audio, segments, ac_cfg)
    return acoustic.vectors_from_llds(llds, feature_sets)


def _task_recordings(corpus: Corpus, task: Task, feature_set: FeatureSetId
                     ) -> list[TaskRecording]:
    """The task's recordings that a feature set reads, in subject order.

    The text sets (NgramTfidf, Lexical) read the transcript, so they leave
    out a recording without one; its subject is then skipped.
    """
    text = feature_set in (FeatureSetId.NGRAM_TFIDF, FeatureSetId.LEXICAL)
    return sorted(
        (r for r in corpus.recordings
         if r.task is task and not (text and r.transcript is None)),
        key=lambda r: r.subject_id,
    )


def extract_task_features(
    corpus: Corpus,
    tasks: Sequence[Task],
    feature_sets: Sequence[FeatureSetId],
    vad_cfg: dsp.VadConfig | None = None,
    ac_cfg: acoustic.AcousticConfig | None = None,
    workers: int = 1,
) -> dict[tuple[Task, FeatureSetId], dict[str, FeatureVector]]:
    """Per-subject vectors of every (task, fold-independent set) of a run.

    Each recording of a task is one job, which yields every requested
    acoustic set from a single decode, VAD and LLD pass.  With workers > 1
    all jobs fan out over one process pool; results are read back in job
    order, so the vectors, and the first error raised, do not depend on
    the worker count.  Lexical vectors are statistics of transcripts
    already in memory, built in this process.
    """
    if FeatureSetId.NGRAM_TFIDF in feature_sets:
        raise EvaluationError("extract_task_features", "NgramTfidf vectors are fitted per "
                              "cross-validation fold and cannot be extracted standalone; "
                              "select acoustic or Lexical sets")
    shared = tuple(f for f in feature_sets if f in acoustic.FEATURE_SETS)
    jobs = [r for task in tasks if shared for r in _task_recordings(corpus, task, shared[0])]
    extract = functools.partial(_extract_one, feature_sets=shared, vad_cfg=vad_cfg, ac_cfg=ac_cfg)
    if workers <= 1 or len(jobs) <= 1:
        vectors = list(map(extract, jobs))
    else:
        # imported here: a one-worker run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            vectors = list(pool.map(extract, jobs, chunksize=4))
    out: dict[tuple[Task, FeatureSetId], dict[str, FeatureVector]] = {
        (task, fsid): {} for task in tasks for fsid in feature_sets
    }
    for rec, vecs in zip(jobs, vectors):
        for fsid, vec in zip(shared, vecs):
            out[rec.task, fsid][rec.subject_id] = vec
    for (task, fsid), cell in out.items():
        if fsid is FeatureSetId.LEXICAL:
            cell.update((r.subject_id, linguistic.lexical_vector(r.transcript, r.duration_s))
                        for r in _task_recordings(corpus, task, fsid))
    return out


def build_providers(
    corpus: Corpus,
    tasks: Sequence[Task],
    feature_sets: Sequence[FeatureSetId],
    vad_cfg: dsp.VadConfig | None = None,
    ac_cfg: acoustic.AcousticConfig | None = None,
    ngram_range: tuple[int, int] = (1, 2),
    min_doc_freq: int = 2,
    workers: int = 1,
) -> Iterator[tuple[tuple[Task, FeatureSetId], PrecomputedProvider | TfidfProvider]]:
    """The provider of every (task, feature set), in that order.

    The fold-independent sets are extracted up front, by one
    extract_task_features call.  Each NgramTfidf provider counts its
    task's transcripts into one table when it is yielded, so a caller
    that drops it before the next one holds one task's table at a time.
    """
    fixed = [fsid for fsid in feature_sets if fsid is not FeatureSetId.NGRAM_TFIDF]
    vectors = extract_task_features(corpus, tasks, fixed, vad_cfg, ac_cfg, workers)
    for task in tasks:
        for fsid in feature_sets:
            if fsid is FeatureSetId.NGRAM_TFIDF:
                transcripts = {r.subject_id: r.transcript
                               for r in _task_recordings(corpus, task, fsid)}
                yield (task, fsid), TfidfProvider(transcripts, ngram_range, min_doc_freq)
            else:
                yield (task, fsid), PrecomputedProvider(fsid, vectors[task, fsid])


def build_provider(
    corpus: Corpus,
    task: Task,
    feature_set: FeatureSetId,
    vad_cfg: dsp.VadConfig | None = None,
    ac_cfg: acoustic.AcousticConfig | None = None,
    ngram_range: tuple[int, int] = (1, 2),
    min_doc_freq: int = 2,
    workers: int = 1,
) -> PrecomputedProvider | TfidfProvider:
    """The provider of one (task, feature set) (extracting if needed)."""
    providers = build_providers(corpus, (task,), (feature_set,), vad_cfg, ac_cfg,
                                ngram_range, min_doc_freq, workers)
    return next(providers)[1]


def fold_seed(base_seed: int, task: Task, feature_set: FeatureSetId,
              kind: classifiers.ModelKind, fold: int) -> int:
    """Stable per-experiment-per-fold seed from a hash of the identifiers."""
    key = f"{base_seed}:{task.value}:{feature_set.value}:{kind.value}:fold{fold}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def run_task_experiments(
    corpus: Corpus,
    task: Task,
    provider: PrecomputedProvider | TfidfProvider,
    classifier_kinds: Sequence[classifiers.ModelKind],
    folds: FoldAssignment,
    config: ExperimentConfig = ExperimentConfig(),
) -> tuple[TaskExperimentResult, ...]:
    """Train and predict every fold of one (task, feature set), per classifier.

    Each fold's features and standardizer are built once; every kind is
    then trained, audited and scored on them, in the order given, and
    gets one result.  Subjects without a usable recording for the task
    are skipped and listed.  A fold whose training partition collapses to
    a single class is a hard error naming the fold.  After each fit, the
    fitted artifacts are audited for train/test disjointness.  Folds whose
    logistic fit stopped without converging are listed per kind.
    """
    available = set(provider.available_subjects())
    skipped = tuple(sorted(set(folds.fold_of_subject) - available))
    predictions: list[list[FoldPrediction]] = [[] for _ in classifier_kinds]
    not_converged: list[list[int]] = [[] for _ in classifier_kinds]
    for f in range(folds.k):
        train_ids = tuple(s for s in folds.train_subjects(f) if s in available)
        test_ids = tuple(s for s in folds.test_subjects(f) if s in available)
        if not test_ids:
            continue
        y_train = np.array([float(corpus.subject(s).binary_label is Label.CASE)
                            for s in train_ids])
        if y_train.size == 0 or len(set(y_train.tolist())) < 2:
            raise EvaluationError(
                "run_task_experiment",
                f"fold {f} training partition for task {task.value} is single-class",
            )
        train_set = frozenset(train_ids)
        fold_name = f"{task.value}/{provider.feature_set_id.value}/fold{f}-train"
        X_train, X_test, fitted_on = provider.fold_features(train_ids, test_ids, fold_name)

        std = classifiers.fit_standardizer(X_train, fitted_subjects=train_set)
        Xs_train = classifiers.apply_standardizer(X_train, std)
        Xs_test = classifiers.apply_standardizer(X_test, std)
        true_labels = [corpus.subject(sid).binary_label for sid in test_ids]
        for kind, kind_predictions, kind_not_converged in zip(
            classifier_kinds, predictions, not_converged
        ):
            if kind is classifiers.ModelKind.LOGISTIC_REGRESSION:
                model = classifiers.train_logistic(
                    Xs_train, y_train, l2_lambda=config.l2_lambda,
                    max_iters=config.lr_max_iters, tol=config.lr_tol, fitted_subjects=train_set,
                )
                if not model.training_meta["converged"]:
                    kind_not_converged.append(f)
            else:
                seed = fold_seed(config.seed, task, provider.feature_set_id, kind, f)
                model = classifiers.train_linear_svm(
                    Xs_train, 2.0 * y_train - 1.0, l2_lambda=config.l2_lambda,
                    epochs=config.svm_epochs, seed=seed, fitted_subjects=train_set,
                )
            audit_no_leakage((std.fitted_subjects, model.fitted_subjects, fitted_on), test_ids)
            scores = classifiers.decision_score(Xs_test, model)
            kind_predictions.extend(
                FoldPrediction(
                    subject_id=sid,
                    task=task,
                    fold=f,
                    true_label=true_label,
                    predicted_label=Label.CASE if score >= 0 else Label.CONTROL,
                    score=float(score),
                )
                for sid, true_label, score in zip(test_ids, true_labels, scores)
            )
    return tuple(
        TaskExperimentResult(
            task=task,
            feature_set=provider.feature_set_id,
            classifier=kind,
            predictions=tuple(kind_predictions),
            skipped_subjects=skipped,
            not_converged_folds=tuple(kind_not_converged),
        )
        for kind, kind_predictions, kind_not_converged in zip(
            classifier_kinds, predictions, not_converged
        )
    )


def run_task_experiment(
    corpus: Corpus,
    task: Task,
    provider: PrecomputedProvider | TfidfProvider,
    classifier_kind: classifiers.ModelKind,
    folds: FoldAssignment,
    config: ExperimentConfig = ExperimentConfig(),
) -> TaskExperimentResult:
    """run_task_experiments for a single classifier kind."""
    (result,) = run_task_experiments(corpus, task, provider, (classifier_kind,), folds, config)
    return result


def audit_no_leakage(
    fitted_subject_sets: Sequence[frozenset[str]], test_ids: Sequence[str]
) -> None:
    """Structural check: no fitted artifact may have seen a test subject."""
    test = set(test_ids)
    for fitted in fitted_subject_sets:
        overlap = fitted & test
        if overlap:
            raise EvaluationError(
                "audit_no_leakage",
                f"fitted artifact saw test subjects {sorted(overlap)}",
            )


def majority_vote(
    task_predictions: Sequence[FoldPrediction],
    tie_break: TieBreak = TieBreak.SCORE_SUM,
) -> FoldPrediction:
    """Fuse one subject's per-task predictions into a final label.

    Majority of labels wins.  On a tie, score_sum takes the sign of the
    summed decision scores (exact zero goes to Case, the
    screening-conservative side); the other modes force a side.
    """
    if not task_predictions:
        raise EvaluationError("majority_vote", "no task predictions for subject")
    sids = {p.subject_id for p in task_predictions}
    if len(sids) != 1:
        raise EvaluationError("majority_vote", f"mixed subjects in vote: {sorted(sids)}")
    n_case = sum(1 for p in task_predictions if p.predicted_label is Label.CASE)
    n_control = len(task_predictions) - n_case
    score_sum = float(sum(p.score for p in task_predictions))
    if n_case > n_control:
        label = Label.CASE
    elif n_control > n_case:
        label = Label.CONTROL
    elif tie_break is TieBreak.ALWAYS_CASE:
        label = Label.CASE
    elif tie_break is TieBreak.ALWAYS_CONTROL:
        label = Label.CONTROL
    else:
        label = Label.CASE if score_sum >= 0 else Label.CONTROL
    first = task_predictions[0]
    return FoldPrediction(
        subject_id=first.subject_id,
        task=None,
        fold=first.fold,
        true_label=first.true_label,
        predicted_label=label,
        score=score_sum,
    )


def fuse_predictions(
    experiments: Sequence[TaskExperimentResult],
    tie_break: TieBreak = TieBreak.SCORE_SUM,
) -> tuple[tuple[FoldPrediction, ...], tuple[str, ...]]:
    """Majority-vote over per-task predictions of each subject.

    Experiments must share feature set and classifier (one fusion cell).
    Returns (fused predictions in subject order, subjects with zero
    predictions across all tasks).
    """
    cells = {(e.feature_set, e.classifier) for e in experiments}
    if len(cells) > 1:
        raise EvaluationError(
            "fuse_predictions", f"cannot fuse across configurations: {sorted(str(c) for c in cells)}"
        )
    by_subject: dict[str, list[FoldPrediction]] = {}
    all_subjects: set[str] = set()
    for e in experiments:
        all_subjects.update(e.skipped_subjects)
        for p in e.predictions:
            by_subject.setdefault(p.subject_id, []).append(p)
            all_subjects.add(p.subject_id)
    fused = tuple(
        majority_vote(by_subject[sid], tie_break) for sid in sorted(by_subject)
    )
    excluded = tuple(sorted(all_subjects - set(by_subject)))
    return fused, excluded


@dataclass(frozen=True)
class ConfusionBreakdown:
    """3x2 diagnosis-level table plus its Case/Control collapse.

    three_by_two rows follow DIAGNOSIS_ROWS, columns are
    (predicted Case, predicted Control); two_by_two rows are
    (true Case, true Control) over the same columns.
    """

    DIAGNOSIS_ROWS = (Diagnosis.DEMENTIA, Diagnosis.MCI, Diagnosis.HC)

    three_by_two: tuple[tuple[int, int], ...]
    two_by_two: tuple[tuple[int, int], ...]

    @property
    def tp(self) -> int:
        return self.two_by_two[0][0]

    @property
    def fn(self) -> int:
        return self.two_by_two[0][1]

    @property
    def fp(self) -> int:
        return self.two_by_two[1][0]

    @property
    def tn(self) -> int:
        return self.two_by_two[1][1]


def confusion(
    fused_predictions: Sequence[FoldPrediction], corpus: Corpus
) -> ConfusionBreakdown:
    """Count fused predictions against the 3-way diagnosis and 2-way label."""
    counts = np.zeros((3, 2), dtype=int)
    row_of = {d: i for i, d in enumerate(ConfusionBreakdown.DIAGNOSIS_ROWS)}
    for p in fused_predictions:
        try:
            subject = corpus.subject(p.subject_id)
        except KeyError:
            raise EvaluationError("confusion", f"unknown subject '{p.subject_id}'")
        col = 0 if p.predicted_label is Label.CASE else 1
        counts[row_of[subject.diagnosis], col] += 1
    collapsed = np.vstack([counts[0] + counts[1], counts[2]])
    return ConfusionBreakdown(
        three_by_two=tuple(tuple(int(v) for v in row) for row in counts),
        two_by_two=tuple(tuple(int(v) for v in row) for row in collapsed),
    )


@dataclass(frozen=True)
class MetricSet:
    precision: float
    recall: float
    f1: float
    precision_std: float
    recall_std: float
    f1_std: float
    sensitivity: float
    specificity: float
    averaging_mode: AveragingMode
    zero_division: bool  # some cell had no predicted/true positives


def _prf(table: np.ndarray, mode: AveragingMode):
    """(precision, recall, f1, zero_division_hit) of a 2x2 count table.

    table[t, p] counts the predictions of true class t as class p, where
    index 0 is Case and 1 is Control; the table holds at least one count.
    Each mode averages the per-class scores with its own weights: Binary
    takes Case alone, Macro both alike, Weighted each by its support.
    """
    t = table.tolist()
    per_class = []
    flagged = False
    for c in (0, 1):
        tp, fp, fn = t[c][c], t[1 - c][c], t[c][1 - c]
        if tp + fp == 0 or tp + fn == 0:
            flagged = True
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class.append((prec, rec, f1, tp + fn))
    if mode is AveragingMode.BINARY:
        weights = (1.0, 0.0)
    elif mode is AveragingMode.MACRO:
        weights = (0.5, 0.5)
    else:
        total = sum(c[3] for c in per_class)
        weights = [c[3] / total for c in per_class]
    prec, rec, f1 = (float(sum(w * c[i] for w, c in zip(weights, per_class))) for i in range(3))
    return prec, rec, f1, flagged


def metrics(
    cb: ConfusionBreakdown,
    predictions: Sequence[FoldPrediction],
    mode: AveragingMode = AveragingMode.BINARY,
) -> MetricSet:
    """Precision/recall/F1 under the averaging mode, with across-fold stds.

    One pass over the predictions counts each fold's true-by-predicted
    2x2 table; the pooled metrics score the sum of those tables, and the
    stds are the population std of the metric over the fold tables.
    Sensitivity and specificity always come from the collapsed 2x2 table
    cb (Case positive).  Cells with an empty denominator score 0 and set
    the zero_division flag.
    """
    if not predictions:
        raise EvaluationError("metrics", "no predictions")
    folds = sorted({p.fold for p in predictions})
    tables = np.zeros((len(folds), 2, 2), dtype=np.int64)
    for p in predictions:
        # int(): a bare bool index would act as a mask
        tables[folds.index(p.fold), int(p.true_label is Label.CONTROL),
               int(p.predicted_label is Label.CONTROL)] += 1
    precision, recall, f1, flagged = _prf(tables.sum(axis=0), mode)
    per_fold = [_prf(t, mode) for t in tables]
    flagged = flagged or any(v[3] for v in per_fold)
    arr = np.array([v[:3] for v in per_fold])
    sens = cb.tp / (cb.tp + cb.fn) if cb.tp + cb.fn else 0.0
    spec = cb.tn / (cb.tn + cb.fp) if cb.tn + cb.fp else 0.0
    return MetricSet(
        precision=precision,
        recall=recall,
        f1=f1,
        precision_std=float(np.std(arr[:, 0])),
        recall_std=float(np.std(arr[:, 1])),
        f1_std=float(np.std(arr[:, 2])),
        sensitivity=sens,
        specificity=spec,
        averaging_mode=mode,
        zero_division=flagged,
    )


def _prediction_rows(preds: Sequence[FoldPrediction]) -> list[list]:
    return [
        [
            p.subject_id,
            p.task.value if p.task is not None else "fused",
            p.fold,
            p.true_label.value,
            p.predicted_label.value,
            p.score,
        ]
        for p in sorted(preds, key=lambda p: (p.subject_id, p.task.value if p.task else ""))
    ]


def _cell_block(keys: Mapping, preds: Sequence[FoldPrediction], corpus: Corpus) -> dict:
    """One report block: keys, confusion tables, every metric mode, predictions."""
    cb = confusion(preds, corpus)
    docs = {mode.value: asdict(metrics(cb, preds, mode)) for mode in AveragingMode}
    for doc in docs.values():
        del doc["averaging_mode"]  # the key it sits under
    return {
        **keys,
        "confusion_3x2": [list(r) for r in cb.three_by_two],
        "confusion_2x2": [list(r) for r in cb.two_by_two],
        "metrics": docs,
        "predictions": _prediction_rows(preds),
    }


_CSV_METRIC_COLS = ("precision", "recall", "f1", "precision_std", "recall_std", "f1_std",
                    "sensitivity", "specificity")


def _csv(blocks: Sequence[dict], key_cols: tuple[str, ...]) -> str:
    """One line per block: its key columns, then its Binary metrics."""
    lines = [",".join(key_cols + _CSV_METRIC_COLS)]
    for b in blocks:
        row = [b[k] for k in key_cols] + [b["metrics"]["Binary"][k] for k in _CSV_METRIC_COLS]
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def build_report(
    corpus: Corpus,
    folds: FoldAssignment,
    experiments: Sequence[TaskExperimentResult],
    config_echo: Mapping,
    tie_break: TieBreak = TieBreak.SCORE_SUM,
) -> dict:
    """Assemble the full evaluation document (JSON-serializable).

    Per-task blocks cover each experiment; fusion blocks cover each
    (feature set, classifier) cell over its available tasks.  CSV blocks
    duplicate the metric tables for spreadsheet use; chart_data carries
    the per-task F1 bars.  The document is deterministic: every list is
    explicitly ordered, so serialization is byte-stable.
    """
    experiments = sorted(
        experiments, key=lambda e: (e.task.value, e.feature_set.value, e.classifier.value)
    )
    per_task = [
        _cell_block(
            {
                "task": e.task.value,
                "feature_set": e.feature_set.value,
                "classifier": e.classifier.value,
                "n_predictions": len(e.predictions),
                "skipped_subjects": list(e.skipped_subjects),
                "not_converged_folds": list(e.not_converged_folds),
            },
            e.predictions,
            corpus,
        )
        for e in experiments
    ]
    cells: dict[tuple[str, str], list[TaskExperimentResult]] = {}
    for e in experiments:
        cells.setdefault((e.feature_set.value, e.classifier.value), []).append(e)
    fused_blocks = []
    for (feature_set, classifier), cell in sorted(cells.items()):
        fused, excluded = fuse_predictions(cell, tie_break)
        keys = {
            "feature_set": feature_set,
            "classifier": classifier,
            "n_tasks": len(cell),
            "n_subjects": len(fused),
            "excluded_subjects": list(excluded),
        }
        fused_blocks.append(_cell_block(keys, fused, corpus))

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "disclaimers": list(DISCLAIMERS),
        "config": dict(config_echo),
        "corpus": {
            "n_subjects": len(corpus.subjects),
            "n_recordings": len(corpus.recordings),
            "diagnosis_counts": {
                d.value: n for d, n in sorted(
                    corpus.diagnosis_counts().items(), key=lambda kv: kv[0].value
                )
            },
            "label_counts": {
                lab.value: n for lab, n in sorted(
                    corpus.label_counts().items(), key=lambda kv: kv[0].value
                )
            },
        },
        "folds": {
            "k": folds.k,
            "sizes": list(folds.fold_sizes()),
            "assignment": dict(sorted(folds.fold_of_subject.items())),
        },
        "per_task": per_task,
        "fused": fused_blocks,
        "per_task_csv": _csv(per_task, ("task", "feature_set", "classifier")),
        "fused_csv": _csv(fused_blocks, ("feature_set", "classifier", "n_tasks")),
        "chart_data": {
            "per_task_f1": [
                {k: b[k] for k in ("task", "feature_set", "classifier")}
                | {"f1": b["metrics"]["Binary"]["f1"]}
                for b in per_task
            ]
        },
    }


def write_report(report: Mapping, path) -> None:
    """Serialize with sorted keys so identical runs are byte-identical."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_report(path) -> dict:
    """A report of this schema; a missing or unreadable file, text that is
    not JSON and JSON that is not such a report are one EvaluationError."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise EvaluationError("read_report", f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise EvaluationError("read_report", f"{path} is not JSON: {exc}") from None
    version = report.get("schema_version") if isinstance(report, dict) else None
    if version != REPORT_SCHEMA_VERSION:
        raise EvaluationError(
            "read_report", f"{path} is not a report of schema {REPORT_SCHEMA_VERSION} "
            f"(schema_version {version!r})")
    return report
