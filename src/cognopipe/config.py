"""Run configuration: defaults <- config file <- command-line flags.

The merged, effective configuration is echoed into every report for
provenance, with one deliberate exception: the worker count is an
execution detail that must not change results, so it is excluded from
the echo (reports stay byte-identical across --workers values).
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .acoustic import AcousticConfig
from .classifiers import ModelKind
from .corpus import Task
from .dsp import VadConfig
from .errors import ConfigError
from .evaluation import ClassifierConfig, TieBreak
from .features import FeatureSetId


@dataclass(frozen=True)
class NgramConfig:
    n_lo: int = 1
    n_hi: int = 2
    min_doc_freq: int = 2


DEFAULT_TASKS = tuple(Task)
DEFAULT_FEATURE_SETS = (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.NGRAM_TFIDF)
DEFAULT_CLASSIFIERS = (ModelKind.LOGISTIC_REGRESSION, ModelKind.LINEAR_SVM)


@dataclass(frozen=True)
class RunConfig:
    manifest: str | None = None
    out_dir: str = "out"
    tasks: tuple[Task, ...] = DEFAULT_TASKS
    feature_sets: tuple[FeatureSetId, ...] = DEFAULT_FEATURE_SETS
    classifiers: tuple[ModelKind, ...] = DEFAULT_CLASSIFIERS
    k: int = 5
    seed: int = 7
    tie_break: TieBreak = TieBreak.SCORE_SUM
    workers: int | None = None  # None = available parallelism
    vad: VadConfig = field(default_factory=VadConfig)
    acoustic: AcousticConfig = field(default_factory=AcousticConfig)
    ngram: NgramConfig = field(default_factory=NgramConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("run_config", f"k must be >= 2, got {self.k}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("run_config", f"workers must be >= 1, got {self.workers}")
        if not self.tasks:
            raise ConfigError("run_config", "no tasks selected")
        if not self.feature_sets:
            raise ConfigError("run_config", "no feature sets selected")
        if not self.classifiers:
            raise ConfigError("run_config", "no classifiers selected")
        c, g = self.classifier, self.ngram
        for name, value, ok, rule in (
            ("seed", self.seed, self.seed >= 0, ">= 0"),
            ("classifier.l2_lambda", c.l2_lambda, c.l2_lambda > 0, "> 0"),
            ("classifier.lr_max_iters", c.lr_max_iters, c.lr_max_iters >= 1, ">= 1"),
            ("classifier.lr_tol", c.lr_tol, c.lr_tol > 0, "> 0"),
            ("classifier.svm_epochs", c.svm_epochs, c.svm_epochs >= 1, ">= 1"),
            ("ngram.n_lo", g.n_lo, g.n_lo >= 1, ">= 1"),
            ("ngram.n_hi", g.n_hi, g.n_hi >= g.n_lo, ">= ngram.n_lo"),
            ("ngram.min_doc_freq", g.min_doc_freq, g.min_doc_freq >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigError("run_config", f"{name} must be {rule}, got {value!r}")


def _parse_enum_list(raw, enum_cls, what: str) -> tuple:
    items = raw.split(",") if isinstance(raw, str) else raw
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise ConfigError("parse", f"{what} must be a name or a list of names, got {raw!r}")
    out = []
    values = [e.value for e in enum_cls]
    for item in items:
        item = item.strip()
        try:
            out.append(enum_cls(item))
        except ValueError:
            raise ConfigError(
                "parse", f"unknown {what} '{item}'; valid: {', '.join(values)}"
            )
    if len(set(out)) != len(out):
        raise ConfigError("parse", f"duplicate {what} in {items}")
    return tuple(out)


_ENUM_LISTS = {
    "tasks": (Task, "task"),
    "feature_sets": (FeatureSetId, "feature set"),
    "classifiers": (ModelKind, "classifier"),
}
# Plain fields: their JSON types, None only where the default is None.
_SCALARS = {
    "manifest": (str, type(None)),
    "out_dir": (str,),
    "k": (int,),
    "seed": (int,),
    "workers": (int, type(None)),
}
_SECTIONS = {
    "vad": VadConfig,
    "acoustic": AcousticConfig,
    "ngram": NgramConfig,
    "classifier": ClassifierConfig,
}


def number_field_problem(cls, doc: dict) -> str | None:
    """The first field of dataclass cls whose value in doc has the wrong type.

    Returns "name must be ..., got ..." or None.  A field with an int
    default takes an int; one with a float default takes an int or a
    float; a bool is neither.  Missing fields keep their defaults.
    """
    for f in fields(cls):
        v = doc.get(f.name, f.default)
        is_float = isinstance(f.default, float)
        if isinstance(v, bool) or not isinstance(v, (int, float) if is_float else int):
            return f"{f.name} must be {'a number' if is_float else 'an integer'}, got {v!r}"
    return None


def _coerce(key: str, value):
    """One RunConfig field from its config-file or command-line value."""
    if key in _ENUM_LISTS:
        return _parse_enum_list(value, *_ENUM_LISTS[key])
    if key == "tie_break":
        parsed = _parse_enum_list(value, TieBreak, "tie_break")
        if len(parsed) != 1:
            raise ConfigError("parse", f"tie_break takes one value, got {value!r}")
        return parsed[0]
    if key in _SCALARS:
        if isinstance(value, bool) or not isinstance(value, _SCALARS[key]):
            raise ConfigError("parse", f"{key} must be {_SCALARS[key][0].__name__}, got {value!r}")
        return value
    if key in _SECTIONS:
        cls = _SECTIONS[key]
        if not isinstance(value, dict):
            raise ConfigError("parse", f"{key} section must be an object, got {value!r}")
        unknown = set(value) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError("parse", f"unknown {key} keys: {sorted(unknown)}")
        problem = number_field_problem(cls, value)  # every section field is an int or a float
        if problem:
            raise ConfigError("parse", f"{key}.{problem}")
        try:
            return cls(**value)
        except (TypeError, ValueError) as exc:
            raise ConfigError("parse", f"bad {key} section: {exc}")
    return value


def load_config_file(path) -> dict:
    """Parse the JSON config document into RunConfig keyword arguments."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("load", f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("load", f"config root must be an object, got {type(doc).__name__}")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError("load", f"unknown config keys: {sorted(unknown)}")
    return {key: _coerce(key, value) for key, value in doc.items()}


def merge_config(file_path=None, **flag_overrides) -> RunConfig:
    """Defaults, then config file values, then non-None flag values."""
    kwargs = load_config_file(file_path) if file_path else {}
    for key, value in flag_overrides.items():
        if value is not None:
            kwargs[key] = _coerce(key, value)
    try:
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError("merge", str(exc))


def _echo(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if is_dataclass(value):
        return asdict(value)
    return value


def config_echo(cfg: RunConfig) -> dict:
    """JSON-able view of the effective config, minus execution details."""
    return {f.name: _echo(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "workers"}
