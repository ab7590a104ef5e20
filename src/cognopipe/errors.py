"""Exception hierarchy shared by all pipeline stages, and the checks that
raise it when a record is made.

Every hard error names the stage and operation that raised it plus the
offending entity, so the CLI can surface a single actionable line.  A
record that checks, converts or derives its fields is one
`@checked class X(NamedTuple)` whose `_checked()` does the work.
"""

from contextlib import contextmanager


class PipelineError(Exception):
    """Base class for hard errors raised by pipeline operations."""

    module = "cognopipe"

    def __init__(self, op: str, message: str):
        self.op = op
        self.message = message
        super().__init__(f"{self.module}.{op}: {message}")

    def __reduce__(self):
        # Errors raised in pool workers cross back by pickle; the default
        # reduce would re-call __init__ with the formatted line alone.
        return type(self), (self.op, self.message)


class ConfigError(PipelineError):
    module = "config"


class ManifestError(PipelineError):
    module = "corpus"

    def __init__(self, op: str, message: str, diagnostics=()):
        self.diagnostics = list(diagnostics)
        super().__init__(op, message)

    def __reduce__(self):
        return type(self), (self.op, self.message, self.diagnostics)


class AudioFormatError(PipelineError):
    module = "dsp"


class FeatureError(PipelineError):
    module = "acoustic"


class TextError(PipelineError):
    module = "linguistic"


class LeakageError(PipelineError):
    module = "linguistic"


class TrainingError(PipelineError):
    module = "classifiers"


class EvaluationError(PipelineError):
    module = "evaluation"


class SynthError(PipelineError):
    module = "synth"


def checked(cls):
    """Make NamedTuple cls run its _checked() whenever it is made.

    cls(...) builds the tuple, then returns self._checked(): the record,
    or a copy with its converted or derived fields replaced; a bad field
    raises.  A NamedTuple body may not define __new__, so it is replaced
    here, once the class exists.  _replace and _make skip the check;
    loading a pickle calls __new__, so a pickled record is checked again.
    """
    make = cls.__new__

    def __new__(cls, *args, **kwargs):
        return make(cls, *args, **kwargs)._checked()

    cls.__new__ = staticmethod(__new__)
    return cls


def check_ranges(section: str, rules) -> None:
    """Raise ConfigError("run_config", "<section>.<name> must be <rule>,
    got <value>") for the first (name, value, ok, rule) in rules whose ok
    is false.  Each config section checks its own ranges with it when
    made, so a run's config and a library caller get the same line."""
    for name, value, ok, rule in rules:
        if not ok:
            raise ConfigError("run_config", f"{section}.{name} must be {rule}, got {value!r}")


@contextmanager
def writing(error: type[PipelineError], op: str, path):
    """Turn an OSError raised in the block into error(op, "cannot write
    <path>: <reason>"), so a file that cannot be written is one line."""
    try:
        yield
    except OSError as exc:
        raise error(op, f"cannot write {path}: {exc.strerror}") from None
