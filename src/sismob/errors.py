"""Exception hierarchy shared across the package.

Structural errors (bad matrices, bad graphs) and numerical errors
(non-convergence, escaped state) are kept distinct so the CLI can map
them to different exit codes.
"""

import copyreg


class SismobError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # pickle rebuilds the error from its formatted message and fields
        # without calling __init__ again, whose arguments differ by class
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SismobError):
    """Invalid scenario configuration; `field` is the offending key path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# ---- structural / input validation -------------------------------------

class NegativeOffDiagonal(SismobError):
    def __init__(self, row: int, col: int, value: float):
        self.row, self.col, self.value = row, col, value
        super().__init__(
            f"generator entry ({row}, {col}) = {value} is negative off the diagonal"
        )


class NonzeroRowSum(SismobError):
    def __init__(self, row: int, value: float):
        self.row, self.value = row, value
        super().__init__(f"generator row {row} sums to {value}, expected 0")


class TooFewNodes(SismobError):
    pass


class IsolatedNode(SismobError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} has no outgoing edges")


class AsymmetricGraph(SismobError):
    pass


class ZeroTargetEntry(SismobError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"target distribution entry {node} is not strictly positive")


class NotIrreducible(SismobError):
    pass


class StationaryUnderflow(SismobError):
    def __init__(self, node: int, value: float):
        self.node, self.value = node, value
        super().__init__(
            f"stationary probability of node {node} came out as {value}: the "
            "mobility rates span too many orders of magnitude for float64"
        )


class ZeroPopulationEntry(SismobError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(f"population fraction at node {node} is not strictly positive")


class NotMetzler(SismobError):
    pass


class GridMismatch(SismobError):
    pass


class UnknownFigure(SismobError):
    def __init__(self, name: str, known: tuple):
        self.name = name
        super().__init__(f"unknown figure {name!r}; known figures: {', '.join(known)}")


# ---- numerical failures (CLI exit code 3) -------------------------------

class NumericalError(SismobError):
    """Base for failures of a numerical procedure, not of its inputs."""


class NoConvergence(NumericalError):
    def __init__(self, what: str, iterations: int):
        self.what, self.iterations = what, iterations
        super().__init__(f"{what} did not converge within {iterations} iterations")


class EigenSolveFailure(NumericalError):
    """A spectral quantity (`what`: mu, R0 or lambda2) that float64 cannot
    give; each raise site writes the message saying why."""

    def __init__(self, what: str, message: str):
        self.what = what
        super().__init__(f"{message}; the rates are too large or too small for float64")


class SingularMMatrix(NumericalError):
    pass


class SingularSystem(NumericalError):
    pass


class StateEscapedBox(NumericalError):
    def __init__(self, t: float, node: int, value: float):
        self.t, self.node, self.value = t, node, value
        super().__init__(
            f"p[{node}] = {value} left [0, 1] at t = {t}; step size too large"
        )


class PopulationStepFailure(NumericalError):
    def __init__(self, t: float, dt: float, node: int, dt_safe: float):
        self.t, self.dt, self.node, self.dt_safe = t, dt, node, dt_safe
        super().__init__(
            f"RK4 step of dt = {dt} from t = {t} drove the population fraction "
            f"at node {node} to a nonpositive value; step size too large "
            f"(dt <= 2/(3 max nu) = {dt_safe:.6g} keeps every stage positive)"
        )


class StepTooLarge(NumericalError):
    def __init__(self, limit: float):
        self.limit = limit
        super().__init__(
            f"per-individual event probability exceeds 1 per step; need dt <= {limit}"
        )


# ---- regime errors (CLI exit code 4) ------------------------------------

class NotEndemicRegime(SismobError):
    def __init__(self, mu: float):
        self.mu = mu
        super().__init__(
            f"no endemic equilibrium: stability margin {mu} is not positive"
        )


class DegenerateSolution(SismobError):
    def __init__(self, node: int):
        self.node = node
        super().__init__(
            f"endemic solve reached a nonpositive value at node {node}; "
            "instance is numerically at the stability boundary"
        )
