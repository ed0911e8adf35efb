"""Exception types shared across the package, each with its stderr ``category`` and CLI ``exit_code``.
An undefined value (a tau, an effect or a t-test) is not an error but None."""


class ReprokitError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"
    exit_code = 1


class TrecParseError(ReprokitError, ValueError):
    """Malformed TREC run or qrels input."""

    category = "parse"
    exit_code = 3


class TopicMismatchError(ReprokitError, ValueError):
    """Under ``strict``, a run lacks a topic its reference run is compared on; or two
    per-topic vectors do not cover the same topics."""

    category = "topic-mismatch"
    exit_code = 4


class NoComparableTopicsError(ReprokitError, ValueError):
    """The reference run of a comparison holds no topic judged relevant."""

    category = "no-comparable-topics"
    exit_code = 4


class ConfigError(ReprokitError, ValueError):
    """Invalid measure spec, manifest entry, or CLI flag combination."""

    category = "config"
    exit_code = 2


class FileAccessError(ReprokitError):
    """A file could not be opened, read or written: the CLI reports an ``OSError`` as this."""

    category = "io"
    exit_code = 5
