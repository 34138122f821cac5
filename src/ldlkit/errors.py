"""Exception types shared across the toolkit."""


class LdlError(Exception):
    """Base class for all toolkit errors."""


class ColumnNotSimplex(LdlError):
    """A column of a label-distribution matrix is not a valid probability vector.

    Carries the first offending column ``index`` and its ``total`` (the column
    sum), plus the full list of offending ``columns`` as (index, sum) pairs.
    """

    def __init__(self, index, total, columns=None):
        self.index = int(index)
        self.total = float(total)
        self.columns = list(columns) if columns is not None else [(self.index, self.total)]
        head = ", ".join(f"col {i} (sum={s:.6g})" for i, s in self.columns[:5])
        more = "" if len(self.columns) <= 5 else f" and {len(self.columns) - 5} more"
        super().__init__(
            f"{len(self.columns)} column(s) violate the simplex constraint: {head}{more}"
        )


class ShapeMismatch(LdlError):
    """An array has the wrong shape, or two that must agree on a dimension do not."""


class ParseError(LdlError):
    """A dataset file could not be parsed; carries the 1-based line number."""

    def __init__(self, line, reason):
        self.line = int(line)
        self.reason = str(reason)
        super().__init__(f"line {self.line}: {self.reason}")


class SvdFailure(LdlError):
    """Singular value decomposition did not converge (pathological input)."""


class SingularSystem(LdlError):
    """A linear system in a solver step is singular (rank-deficient Gram matrix)."""


class NonFiniteIterate(LdlError):
    """A solver iterate overflowed to inf or nan; names the iteration."""
