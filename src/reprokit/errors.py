"""Exception types shared across the package, each with its stderr ``category`` and CLI ``exit_code``."""


class ReprokitError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"
    exit_code = 1


class TrecParseError(ReprokitError, ValueError):
    """Malformed TREC run or qrels input."""

    category = "parse"
    exit_code = 3


class TopicMismatchError(ReprokitError, ValueError):
    """Two per-topic vectors do not cover the same topics."""

    category = "topic-mismatch"
    exit_code = 4


class NoComparableTopicsError(ReprokitError, ValueError):
    """Topic intersection of two runs (restricted to relevant topics) is empty,
    or too small for a t-test."""

    category = "no-comparable-topics"
    exit_code = 4


class DegenerateTiesError(ReprokitError, ArithmeticError):
    """Tau-union is undefined on every topic of a comparison: no topic pairs two
    documents, so the report has no mean to give."""

    category = "degenerate-ties"


class UndefinedEffectError(ReprokitError, ArithmeticError):
    """Effect ratio or relative improvement has a zero denominator."""

    category = "undefined-effect"


class ConfigError(ReprokitError, ValueError):
    """Invalid measure spec, manifest entry, or CLI flag combination."""

    category = "config"
    exit_code = 2


class FileAccessError(ReprokitError):
    """A file could not be opened, read or written: the CLI reports an ``OSError`` as this."""

    category = "io"
    exit_code = 5
