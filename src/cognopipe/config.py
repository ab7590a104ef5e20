"""Run configuration: defaults <- config file <- command-line flags.

The merged, effective configuration is echoed into every report for
provenance, minus the run's execution details: the worker count and the
output directory must not change results, so neither is echoed, and a
report's bytes do not depend on --workers or on where it is written.
"""

from __future__ import annotations

import enum
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .acoustic import AcousticConfig
from .classifiers import ClassifierConfig, ModelKind
from .corpus import Task
from .dsp import VadConfig
from .errors import ConfigError, checked
from .evaluation import TieBreak
from .features import FeatureSetId
from .linguistic import NgramConfig


DEFAULT_TASKS = tuple(Task)
DEFAULT_FEATURE_SETS = (FeatureSetId.EGEMAPS_LIKE_88, FeatureSetId.NGRAM_TFIDF)
DEFAULT_CLASSIFIERS = (ModelKind.LOGISTIC_REGRESSION, ModelKind.LINEAR_SVM)


@checked
class RunConfig(NamedTuple):
    """The effective run configuration.  Each section checks its own
    ranges when made; the run's own fields are checked here."""

    manifest: str | None = None
    out_dir: str = "out"
    tasks: tuple[Task, ...] = DEFAULT_TASKS
    feature_sets: tuple[FeatureSetId, ...] = DEFAULT_FEATURE_SETS
    classifiers: tuple[ModelKind, ...] = DEFAULT_CLASSIFIERS
    k: int = 5
    seed: int = 7
    tie_break: TieBreak = TieBreak.SCORE_SUM
    workers: int | None = None  # None = available parallelism
    vad: VadConfig = VadConfig()
    acoustic: AcousticConfig = AcousticConfig()
    ngram: NgramConfig = NgramConfig()
    classifier: ClassifierConfig = ClassifierConfig()

    def _checked(self):
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
        if self.seed < 0:
            raise ConfigError("run_config", f"seed must be >= 0, got {self.seed}")
        return self


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


def read_json_object(path, error, op: str, what: str) -> dict:
    """The JSON object in file path, read as UTF-8 with an optional
    byte-order mark; a file that cannot be read or decoded, text that is
    not JSON and JSON that is not an object each raise error(op, ...)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise error(op, f"cannot read {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(op, f"{what} root must be an object, got {type(doc).__name__}")
    return doc


def number_field_problem(cls, doc: dict, what: str, prefix: str = "") -> str | None:
    """The first problem with doc as the numeric fields of record cls.

    Returns "unknown <what> keys: [...]", "<prefix><name> must be ...,
    got ..." or None.  A field with an int default takes an int; one with
    a float default takes a finite int or float; a bool is neither.
    Missing fields keep their defaults.
    """
    unknown = set(doc) - set(cls._fields)
    if unknown:
        return f"unknown {what} keys: {sorted(unknown)}"
    for name, default in cls._field_defaults.items():
        v = doc.get(name, default)
        is_float = isinstance(default, float)
        if isinstance(v, bool) or not isinstance(v, (int, float) if is_float else int):
            return f"{prefix}{name} must be {'a number' if is_float else 'an integer'}, got {v!r}"
        # NaN compares false; an int beyond the float range compares exactly
        if is_float and not abs(v) <= sys.float_info.max:
            return f"{prefix}{name} must be finite, got {v!r}"
    return None


def _coerce(key: str, value):
    """One RunConfig field from its config-file or command-line value."""
    if key in _ENUM_LISTS:
        return _parse_enum_list(value, *_ENUM_LISTS[key])
    if key == "tie_break":
        names = [t.value for t in TieBreak]
        if value not in names:
            raise ConfigError("parse", f"tie_break must be one of {', '.join(names)}, "
                                       f"got {value!r}")
        return TieBreak(value)
    if key in _SCALARS:
        if isinstance(value, bool) or not isinstance(value, _SCALARS[key]):
            raise ConfigError("parse", f"{key} must be {_SCALARS[key][0].__name__}, got {value!r}")
        return value
    if key in _SECTIONS:
        if not isinstance(value, dict):
            raise ConfigError("parse", f"{key} section must be an object, got {value!r}")
        # every section field is an int or a float; the section checks its ranges
        problem = number_field_problem(_SECTIONS[key], value, key, f"{key}.")
        if problem:
            raise ConfigError("parse", problem)
        return _SECTIONS[key](**value)
    return value


def load_config_file(path) -> dict:
    """Parse the JSON config document into RunConfig keyword arguments."""
    doc = read_json_object(path, ConfigError, "load", "config")
    unknown = set(doc) - set(RunConfig._fields)
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
    if hasattr(value, "_asdict"):  # a section: before tuple, which it also is
        return value._asdict()
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value


# Where and how wide a run executes; neither may change its results.
_EXECUTION_FIELDS = ("workers", "out_dir")


def config_echo(cfg: RunConfig) -> dict:
    """JSON-able view of the effective config, minus _EXECUTION_FIELDS."""
    return {name: _echo(value) for name, value in cfg._asdict().items()
            if name not in _EXECUTION_FIELDS}
