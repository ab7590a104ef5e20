"""Exception hierarchy shared by all pipeline stages.

Every hard error names the stage and operation that raised it plus the
offending entity, so the CLI can surface a single actionable line.
"""


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
