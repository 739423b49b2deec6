"""Exception families shared across the package, one per CLI exit code.

InputError (exit 2) is a bad input: a matrix, graph, distribution or
configuration the model does not accept. NumericalError (exit 3) is a
numerical procedure that failed on valid input. RegimeError (exit 4) is
an endemic quantity asked for on the disease-free side. Each
takes only its message, which names the node, value or time at fault.
"""

import copyreg


class SismobError(Exception):
    """Base class for all package errors."""


class InputError(SismobError):
    """Input the model does not accept (CLI exit code 2)."""


class ConfigError(InputError):
    """Invalid scenario configuration or run argument; `field` is its key path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        # args holds only the formatted message, not the (field, message)
        # that __init__ takes, so pickle rebuilds the error without it
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class NumericalError(SismobError):
    """A numerical procedure that failed on valid input (CLI exit code 3)."""


class RegimeError(SismobError):
    """An endemic quantity asked for where no endemic equilibrium exists,
    or where the instance is numerically at the stability boundary (CLI
    exit code 4)."""
