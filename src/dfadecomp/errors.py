"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all dfadecomp errors."""


class InputError(Error):
    """Invalid input: bad arguments, malformed data, or a violated contract."""


class ParseError(InputError):
    """Syntax or validation error in a text document, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class BudgetError(Error):
    """A requested computation exceeds the configured feasibility bounds."""

    def __init__(self, message: str, estimate: int | None = None):
        self.estimate = estimate
        super().__init__(message)
