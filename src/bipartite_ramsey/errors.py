"""Exception types and enumeration budgets.

Three failure modes are kept apart on purpose: malformed data
(ValidationError), legal data passed to an operation whose preconditions
it violates (ParameterError), and searches that would run past their
enumeration budget (BudgetExceededError).  A search that *completes* and
finds nothing returns None; it never raises.
"""

# Default cap on primitive checks performed by a single exhaustive search
# (combinations examined, subset-color lookups, coloring enumerations).
DEFAULT_BUDGET = 100_000_000


class ValidationError(ValueError):
    """Malformed value: bad witness shape, dangling reference, bad file."""


class ParameterError(ValueError):
    """Structurally valid input that violates an operation's precondition."""


class BudgetExceededError(RuntimeError):
    """A search refused to continue past its enumeration budget.

    Distinct from an "absent" result: the search did not finish, so
    nothing is known either way.
    """

    def __init__(self, message, *, used=None, limit=None, estimate=None):
        super().__init__(message)
        self.used = used
        self.limit = limit
        self._estimate = estimate

    @property
    def estimate(self):
        """The refused search's size, or None.  A callable passed as the
        estimate is called on first access, so a refusal need not
        compute a number it does not show."""
        if callable(self._estimate):
            self._estimate = self._estimate()
        return self._estimate


class BudgetMeter:
    """Running counter of primitive checks against a fixed limit."""

    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        self.limit = DEFAULT_BUDGET if limit is None else int(limit)
        if self.limit <= 0:
            raise ParameterError(f"budget must be positive, got {self.limit}")
        self.used = 0

    def charge(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"enumeration budget exceeded ({self.used} > {self.limit} primitive checks)",
                used=self.used,
                limit=self.limit,
            )
