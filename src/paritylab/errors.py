"""Exception taxonomy shared by all paritylab modules."""


class ParityLabError(Exception):
    """Base class for every error raised by this package."""


# graph construction / parsing

class LoopEdge(ParityLabError):
    pass


class DuplicateEdge(ParityLabError):
    pass


class VertexOutOfRange(ParityLabError):
    pass


class GraphSyntaxError(ParityLabError):
    """Malformed graph text; message carries the offending line number."""


class SetsNotDisjoint(ParityLabError):
    pass


# connectivity

class TooSmall(ParityLabError):
    pass


# lovasz oracle

class InvalidParitySpec(ParityLabError):
    pass


class GraphTooLargeForEnumeration(ParityLabError):
    pass


# factor solver

class LowerBoundExceedsDegree(ParityLabError):
    pass


class TooManyEdges(ParityLabError):
    pass


# generators

class BadOrder(ParityLabError):
    pass


class ParityViolation(ParityLabError):
    pass


class DegreeTooLarge(ParityLabError):
    pass


class RetriesExhausted(ParityLabError):
    pass


class ParamDomain(ParityLabError):
    pass


# theorem lab

class HypothesisViolation(ParityLabError):
    pass


class NotRegular(ParityLabError):
    pass


class CounterexampleError(ParityLabError):
    """A proven theorem failed on a concrete instance; carries the instance
    serialization so the failure can be replayed."""

    def __init__(self, message: str, instance_text: str):
        super().__init__(message + "\n--- instance for replay ---\n" + instance_text)
        self.instance_text = instance_text


# self-checks

class SelfCheckFailed(ParityLabError):
    """A result the library computed failed its own independent check: a
    fault in the library, not in the input."""
