"""Exception types shared across the package.

An outer sample without a finite value (its inner weights all underflow,
or the model response at it is inf or nan) and non-convergence of the
adaptive driver raise.  A non-finite derivative puts its outer sample on
the prior fallback instead, an inner point whose response is not finite
has weight zero, and decay rates that cannot be fitted are nan.
"""


class InnerUnderflowError(RuntimeError):
    """One outer sample has no finite value: every inner importance weight
    was -inf in log space, or, when ``response_finite`` is false, the model
    response at the outer sample was inf or nan, so its data are not finite.

    Carries the offending outer-sample index in ``outer_index``.
    """

    def __init__(self, outer_index: int, response_finite: bool = True):
        self.outer_index = outer_index
        super().__init__(
            f"all inner log-weights are -inf for outer sample {outer_index}" if response_finite
            else f"the model response is not finite at outer sample {outer_index}"
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
