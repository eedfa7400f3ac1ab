"""Exception hierarchy shared by every module in the package.

All errors raised on purpose derive from :class:`HjtsError`, so callers can
catch the package's failures with a single except clause while still
distinguishing the classic stdlib categories (``ValueError`` for bad inputs,
``ArithmeticError`` for singular data, ``RuntimeError`` for internal trouble).
It also holds the one rule for each kind of scalar argument, ``as_int`` and
``as_real``, that every module's integer and real-number checks go through.
"""

from __future__ import annotations

import math
import numbers


class HjtsError(Exception):
    """Base class for every error the package raises deliberately."""


class ContractError(HjtsError, ValueError):
    """An argument violates a documented precondition (shape, dtype, range)."""


def as_int(value, message: str, lo: int = 0, hi: int | None = None) -> int:
    """``value`` as a builtin int, if it is an integer (numpy's included, bool
    refused) in [lo, hi]; else ContractError(message.format(value))."""
    number = value
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ContractError(message.format(value))
        number = int(value)
    if lo <= number and (hi is None or number <= hi):
        return number
    raise ContractError(message.format(value))


def as_real(value, message: str, lo: float = -math.inf, hi: float = math.inf, *,
            exclusive: bool = False) -> float:
    """``value`` as a builtin float, if it is a real number (numpy's included,
    bool and NaN refused) in [lo, hi], or in (lo, hi) when ``exclusive``; else
    ContractError(message.format(value))."""
    number = value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ContractError(message.format(value))
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.nan
    if (lo < number < hi) if exclusive else (lo <= number <= hi):
        return number
    raise ContractError(message.format(value))


class DomainError(HjtsError, ValueError):
    """A point lies outside the mathematical domain of the requested map."""


class SingularityError(HjtsError, ArithmeticError):
    """An exactly (or numerically) singular operator blocked the computation."""


class ConvergenceError(HjtsError, RuntimeError):
    """An iterative kernel hit its sweep cap before reaching tolerance.

    The leftover off-diagonal residual is kept on the exception so callers
    can log how close the iteration got.
    """

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class ConsistencyError(HjtsError, RuntimeError):
    """Two independently computed quantities disagree beyond tolerance.

    Raised by verification paths when redundant routes to the same value
    (e.g. two formulas for the duality map) drift apart, which indicates a
    defect rather than a bad input.
    """
