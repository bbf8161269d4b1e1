"""Exception types shared across the package."""


class TrimatError(Exception):
    """Base class for all library errors."""


class FormatError(TrimatError):
    """A text input (matrix or graph file) is malformed.

    Carries the 1-based line number of the offending line so drivers can
    point the user at it.
    """

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class TableBudgetError(TrimatError):
    """Building a subset-pair lookup table would exceed the entry budget.

    The table grows with delta, which sets both the group size delta**3 and
    the largest subset size, while the budget is a fixed constant.  The fix
    is on the caller's side: reduce delta.
    """

    def __init__(self, estimated_entries: int, budget: int):
        self.estimated_entries = estimated_entries
        self.budget = budget
        super().__init__(
            f"lookup table would need {estimated_entries} entries, budget is "
            f"{budget}; reduce delta"
        )


class FinderContractError(TrimatError):
    """An easy-part finder returned something violating its contract."""


class InvariantError(TrimatError):
    """A runtime invariant check failed (charging, degree guarantee, coverage)."""
