"""Exception hierarchy for the VerC3 reproduction.

All library-specific exceptions derive from :class:`ReproError` so that
callers can catch everything coming out of this package with a single
``except`` clause.  :class:`WildcardEncountered` is special: it is *control
flow*, raised by the execution context when a rule body resolves a hole whose
current assignment is the wildcard action; the model checker catches it to
abort that execution branch (see the paper, Section II, "Candidate Pruning").
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(ReproError):
    """A transition system definition is malformed or misused."""


class SynthesisError(ReproError):
    """The synthesis engine was configured or driven incorrectly."""


class HoleDomainError(SynthesisError):
    """A hole was declared with an invalid or empty action domain."""


class CandidateError(SynthesisError):
    """A candidate vector operation was invalid (bad index, bad action)."""


class CliError(ReproError):
    """Invalid command-line usage the argparse layer cannot express
    (cross-flag conflicts, out-of-range numeric flags); the CLI prints
    the message and exits with status 2, like argparse errors."""


class WildcardEncountered(ReproError):
    """Raised when a rule body resolves a hole assigned the wildcard action.

    This is not an error condition: the embedded model checker catches it to
    cut the current execution branch, exactly as the paper's model checker
    "abort[s] execution on that execution branch" when a wildcard is hit.
    Rule bodies must not swallow this exception.
    """

    def __init__(self, hole_name: str) -> None:
        super().__init__(f"wildcard encountered while resolving hole {hole_name!r}")
        self.hole_name = hole_name
