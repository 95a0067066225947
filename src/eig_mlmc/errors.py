"""Exception types shared across the package."""


class EvaluationError(RuntimeError):
    """A forward map or derivative evaluation produced a non-finite value."""


class InnerUnderflowError(RuntimeError):
    """Every inner importance weight of one outer sample was -inf in log space.

    Carries the offending outer-sample index in ``outer_index``.
    """

    def __init__(self, outer_index: int):
        self.outer_index = outer_index
        super().__init__(
            f"all inner log-weights are -inf for outer sample {outer_index}"
        )


class InsufficientDataError(RuntimeError):
    """Fewer than two usable correction levels for the rate regression."""


class NonConvergenceError(RuntimeError):
    """The adaptive driver exceeded its level cap before passing the bias test.

    ``trace`` holds the per-round allocation records collected so far.
    """

    def __init__(self, message: str, trace: list):
        self.trace = trace
        super().__init__(message)
