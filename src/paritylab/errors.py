"""Exception taxonomy shared by all paritylab modules: one class per CLI exit
code, since the exit code is the only thing a caller tells errors apart by."""


class ParityLabError(Exception):
    """Base class for every error raised by this package. Raised as itself,
    it is the input's fault: a malformed graph, spec, witness, factor or
    config, or parameters outside a function's domain (exit 2)."""


class CapExceeded(ParityLabError):
    """An input beyond a configured size cap: the enumeration's vertex cap or
    brute force's edge cap (exit 3)."""


class CounterexampleError(ParityLabError):
    """A proven theorem failed on a concrete instance; carries the instance
    serialization so the failure can be replayed (exit 1)."""

    def __init__(self, message: str, instance_text: str):
        super().__init__(message + "\n--- instance for replay ---\n" + instance_text)
        self.instance_text = instance_text


class SelfCheckFailed(ParityLabError):
    """A result the library computed failed its own independent check: a
    fault in the library, not in the input (exit 4)."""
