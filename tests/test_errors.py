"""The two scalar rules of ``hjts.errors`` and every entry point that uses them.

``as_int`` and ``as_real`` accept any integer or real number, numpy's
included, and hand it on as a builtin int or float.  bool, NaN and anything
that is not a number are refused with ContractError.  One refusal table runs
the same bad values over every scalar argument of the library, and one
acceptance table runs numpy scalars over the same arguments.
"""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import hjts.geometry
import hjts.kinds as K
from hjts.duality import psi_rows
from hjts.errors import ContractError, as_int, as_real
from hjts.geometry import PotentialId, potential
from hjts.harness import SuiteConfig, sample_domain
from hjts.jts import isotropy_action, zero
from hjts.linalg import hermitian_power
from hjts.spectral import odd_power


# ---------------------------------------------------------------------------
# the rules

@pytest.mark.parametrize("value", [3, np.int64(3), np.uint64(3), np.int8(3)])
def test_integer_rule_returns_a_builtin_int(value):
    got = as_int(value, "{!r}", 0, 3)
    assert type(got) is int and got == 3


@pytest.mark.parametrize("value", [0.25, np.float32(0.25), np.float64(0.25), Fraction(1, 4)])
def test_real_rule_returns_a_builtin_float(value):
    got = as_real(value, "{!r}", 0.0, 1.0, exclusive=True)
    assert type(got) is float and got == 0.25
    assert type(as_real(np.int64(2), "{!r}")) is float


def test_integer_rule_bounds_are_inclusive():
    assert as_int(0, "{!r}") == 0 and as_int(2 ** 64 - 1, "{!r}", 0, 2 ** 64 - 1) == 2 ** 64 - 1
    for value, lo, hi in ((-1, 0, None), (2 ** 64, 0, 2 ** 64 - 1), (np.uint64(0), 1, None)):
        with pytest.raises(ContractError):
            as_int(value, "{!r}", lo, hi)


def test_real_rule_bounds_are_inclusive_unless_exclusive():
    assert as_real(1e-7, "{!r}", 1e-7, 1e-2) == 1e-7
    assert as_real(-math.inf, "{!r}") == -math.inf
    for value, hi in ((0.0, 1.0), (1.0, 1.0), (math.inf, math.inf)):
        with pytest.raises(ContractError):
            as_real(value, "{!r}", 0.0, hi, exclusive=True)


def test_real_rule_refuses_an_integer_beyond_the_float_range():
    # float(10 ** 400) raises OverflowError, which must not escape the rule
    with pytest.raises(ContractError, match="too big"):
        as_real(10 ** 400, "too big")


def test_rule_message_is_the_template_filled_with_the_value():
    with pytest.raises(ContractError, match=r"^count must be an integer >= 1, got '\{\}'$"):
        as_int("{}", "count must be an integer >= 1, got {!r}", 1)
    with pytest.raises(ContractError, match=r"^step np\.float32\(nan\) is bad$"):
        as_real(np.float32("nan"), "step {!r} is bad")


# ---------------------------------------------------------------------------
# every scalar entry point

_KIND = K.TypeI(2, 2)
_Z = sample_domain(_KIND, np.random.default_rng(70), 0.5)
_W = sample_domain(_KIND, np.random.default_rng(71), 0.5)

# arguments of the step drivers other than h, by parameter name
_DRIVER_ARGS = {"fn": lambda e: potential(PotentialId.DUAL_FS, e), "pid": PotentialId.DUAL_FS,
                "map_rows": psi_rows, "z": _Z, "direction": _W}


def _step_driver(fn):
    params = inspect.signature(fn).parameters
    return lambda h: fn(**{name: _DRIVER_ARGS[name] for name in params if name in _DRIVER_ARGS},
                        h=h)


# entry point -> (call with the value, a word its message must hold)
INTEGER_ENTRIES = {
    "TypeI.p": (lambda v: K.TypeI(v, 2), "p must"),
    "TypeI.q": (lambda v: K.TypeI(2, v), "q must"),
    "TypeII.n": (K.TypeII, "n must"),
    "TypeIII.n": (K.TypeIII, "n must"),
    "TypeIV.n": (K.TypeIV, "n must"),
    **{f"SuiteConfig.{name}": (lambda v, name=name: SuiteConfig(**{name: v}), name)
       for name in ("seed", "points")},
    "odd_power.j": (lambda v: odd_power(_Z, v), "power index"),
}
REAL_ENTRIES = {
    "SuiteConfig.boundary_cap": (lambda v: SuiteConfig(boundary_cap=v), "boundary_cap"),
    "sample_domain.boundary_cap":
        (lambda v: sample_domain(_KIND, np.random.default_rng(0), v), "boundary_cap"),
    "hermitian_power.t": (lambda v: hermitian_power(np.diag([4.0, 0.5]), v), "exponent"),
    "isotropy_action.theta":
        (lambda v: isotropy_action((v, np.eye(3)), zero(K.TypeIV(3))), "angle"),
    **{f"{name}.h": (_step_driver(getattr(hjts.geometry, name)), "fd_step")
       for name in hjts.geometry.__all__
       if inspect.isfunction(getattr(hjts.geometry, name))
       and "h" in inspect.signature(getattr(hjts.geometry, name)).parameters},
}
REFUSED = {"bool": True, "nan": math.nan, "inf": math.inf, "complex": 3 + 0j, "str": "3",
           "None": None}


@pytest.mark.parametrize("value", [*REFUSED.values(), 3.0],
                         ids=[*REFUSED, "float for an integer"])
@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integer_entry_points_refuse_what_is_not_an_integer(entry, value):
    call, word = entry
    with pytest.raises(ContractError, match=word):
        call(value)


@pytest.mark.parametrize("value", REFUSED.values(), ids=REFUSED.keys())
@pytest.mark.parametrize("entry", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
def test_real_entry_points_refuse_what_is_not_a_real_number(entry, value):
    call, word = entry
    with pytest.raises(ContractError, match=word):
        call(value)


@pytest.mark.parametrize("value", [np.int64(3), np.uint64(3)], ids=["int64", "uint64"])
@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integer_entry_points_accept_numpy_integers(entry, value):
    entry[0](value)


@pytest.mark.parametrize("entry", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
def test_real_entry_points_accept_a_float32(entry):
    entry[0](np.float32(1e-3))


def test_kinds_store_builtin_ints():
    for kind in (K.TypeI(np.int64(2), np.uint64(3)), K.TypeII(np.int32(4)),
                 K.TypeIII(np.uint8(3)), K.TypeIV(np.int64(5))):
        assert all(type(v) is int for v in vars(kind).values()), kind
    assert K.TypeI(np.int64(2), np.uint64(3)) == K.TypeI(2, 3)
    assert K.format_kind(K.TypeIV(np.int64(5))) == "IV:5"
