"""Exception hierarchy. The CLI maps each class to a distinct exit code."""


class XDBoostError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(XDBoostError):
    """Invalid configuration: an unknown or wrongly typed setting, a bad range."""


class DataError(XDBoostError):
    """Bad input data: ingestion, schema, split, encoding or weighting."""


class UsageError(XDBoostError):
    """API misuse: wrong call order, shape mismatch, double append."""


class TrainingError(XDBoostError):
    """Training diverged (non-finite loss) or otherwise failed."""


class EvaluationError(XDBoostError):
    """Metric cannot be computed (e.g. single-class AUC input)."""
