"""Exception types raised across the package.

Every error carries a short machine-parsable code (the class name); the CLI
prints that code on a single stderr line and exits nonzero.
"""


class HlslError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class MalformedLine(HlslError):
    """An input line does not match the expected column layout."""

    def __init__(self, line_no: int, detail: str = ""):
        self.line_no = line_no
        self.detail = detail
        msg = f"line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnknownPredicate(HlslError):
    """A predicate name does not appear in the schema."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


class DuplicateAtom(HlslError):
    """The same (predicate, arg1, arg2) triple was supplied twice."""


class ValueOutOfRange(HlslError):
    """An atom value lies outside [0, 1]."""


class NoCandidates(HlslError):
    """Clause generation or learning was given an empty candidate set."""


class NonFiniteObjective(HlslError):
    """The learning objective became NaN or infinite."""


class NotATarget(HlslError):
    """An atom to predict is not of a target predicate."""


class MissingPrediction(HlslError):
    """A labelled atom has no prediction to score."""


class DegenerateLabels(HlslError):
    """AUC is undefined: one of the label classes is empty."""
