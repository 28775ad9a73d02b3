"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter is outside the range the operation can handle."""


class MalformedCodeError(ValueError):
    """A code entry references a block that does not exist yet."""


class _DiagnosedError(RuntimeError):
    """A failure that carries a dict of diagnostics to reproduce it."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SamplingError(_DiagnosedError):
    """Rejection sampling exhausted its retry budget.

    Carries enough context (parameters, failed property, retry count) to
    reproduce the failure.
    """


class ConstructionError(_DiagnosedError):
    """The construction loop hit a state its guarantees rule out.

    Raised by the non-termination guard and by the gadget-anomaly path;
    never expected on valid inputs.
    """
