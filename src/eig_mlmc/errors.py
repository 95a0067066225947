"""Exception types shared across the package.

An inner underflow and non-convergence of the adaptive driver raise.  A
non-finite derivative puts its outer sample on the prior fallback instead,
and decay rates that cannot be fitted are nan.
"""


class InnerUnderflowError(RuntimeError):
    """Every inner importance weight of one outer sample was -inf in log space.

    Carries the offending outer-sample index in ``outer_index``.
    """

    def __init__(self, outer_index: int):
        self.outer_index = outer_index
        super().__init__(
            f"all inner log-weights are -inf for outer sample {outer_index}"
        )


class NonConvergenceError(RuntimeError):
    """The adaptive driver or the nested pilot could not finish: it reached
    its level or round cap before passing the bias test, or a sample
    allocation overflowed.

    ``trace`` holds the driver's per-round allocation records collected so
    far; the nested pilot has none.
    """

    def __init__(self, message: str, trace: list):
        self.trace = trace
        super().__init__(message)
