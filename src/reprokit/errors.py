"""Exception types shared across the package."""


class ReprokitError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"


class TrecParseError(ReprokitError, ValueError):
    """Malformed TREC run or qrels input."""

    category = "parse"


class TopicMismatchError(ReprokitError, ValueError):
    """Two per-topic vectors do not cover the same topics."""

    category = "topic-mismatch"


class NoComparableTopicsError(ReprokitError, ValueError):
    """Topic intersection of two runs (restricted to relevant topics) is empty,
    or too small for a t-test."""

    category = "no-comparable-topics"


class DegenerateTiesError(ReprokitError, ArithmeticError):
    """Kendall's tau is undefined because one list is entirely tied."""

    category = "degenerate-ties"


class OverlapTooSmallError(ReprokitError, ValueError):
    """Intersection of two rankings holds fewer than two documents."""

    category = "overlap-too-small"


class UndefinedEffectError(ReprokitError, ArithmeticError):
    """Effect ratio or relative improvement has a zero denominator."""

    category = "undefined-effect"


class ConfigError(ReprokitError, ValueError):
    """Invalid measure spec, manifest entry, or CLI flag combination."""

    category = "config"
