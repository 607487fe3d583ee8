"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; everything else is an ordinary crash.
"""


class ValidationError(ValueError):
    """Malformed inputs: bad shapes, labels out of range, broken invariants.

    `event` is the 0-based index of the first event at fault, when the fault
    lies in one event (a reader adds that event's line), and otherwise None.
    """

    def __init__(self, *args, event: int | None = None):
        super().__init__(*args)
        self.event = event


class NumericalError(RuntimeError):
    """Numerical failure at runtime: degenerate weights, NaN objective, runaway cascade."""
