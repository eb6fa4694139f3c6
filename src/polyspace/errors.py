"""Exception types shared across the package."""


class PolyspaceError(Exception):
    """Base class for all polyspace errors."""


class InputError(PolyspaceError, ValueError):
    """An argument the package refuses: CLI exit 1."""


class Infeasible(PolyspaceError):
    """No polygon realizes the data, or it lies on a wall: CLI exit 3."""


class EmptyPolytope(Infeasible):
    """No polygon has the side lengths, so the polytope is empty."""


class ZeroDiagonal(Infeasible):
    """Raised when a bending axis has (numerically) zero length."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"diagonal {index} has zero length; no bending axis")


class TriangleViolation(Infeasible):
    """A length/diagonal pair violates one of the triangle inequalities.

    ``index`` is the step i (0-based over i = 0..m-1) of the first violated
    inequality; ``inequality`` names which of the three it is.
    """

    def __init__(self, index, inequality, slack):
        self.index = index
        self.inequality = inequality
        self.slack = slack
        super().__init__(
            f"triangle inequality {inequality!r} violated at step {index} "
            f"(slack {slack})"
        )
