"""One argument policy for the whole library: every public route and entry
point refuses a natural-number argument (k, n, an order, a bound, a field
size, a degree) that is not an int, is a bool, or is negative, with a
ValueError that names the argument.

The cases come from introspection, by parameter name, over the public
functions and classes of the library modules, every ``duality.FAMILIES``
entry and ``verify.Scope``.  So a new route whose k or n goes unchecked
fails here, unless ``EXEMPT`` names it with a reason.

An integer argument whose domain has a rule of its own (``INTEGER``: the
pyramidal k >= -1 and any i, the Stirling r, a series power) refuses a
value that is not an int, or is a bool, the same way, and keeps its domain.
"""

import inspect

import pytest

from confpoly import combinatorics, duality, ffield, poincare, ring, verify, virtual
from confpoly.combinatorics import KOutOfRangeError
from confpoly.ring import ONE, TruncSeries

MODULES = (ring, combinatorics, poincare, virtual, duality, ffield)

NATURAL = ("k", "n", "j", "order", "max_n", "max_i", "q", "degree", "max_k", "only_k")

BAD = (2.0, True, "2", -1)

# a valid value for each parameter without a default, natural or not
VALID = {
    "k": 1, "n": 2, "j": 1, "order": 2, "max_n": 2, "max_i": 2, "q": 3, "degree": 2,
    "max_k": 1, "i": 2, "r": 1, "p": ONE, "poly": ONE,
    "space": "ordered", "fld": ffield.PrimeField(3), "primes": (3,),
}

# entry points, or "entry(argument)" for one argument, whose natural-looking
# arguments follow another rule, and why
EXEMPT = {
    "ffield.OracleReport": "a record that oracle_check fills from its checked arguments",
}

NOT_INT = (2.0, True, "2")

# "entry(argument)" of each integer argument with a domain of its own, and
# the least value of that domain (KOutOfRangeError below it), or None
INTEGER = {
    "combinatorics.pyramidal(k)": -1,
    "combinatorics.pyramidal(i)": None,  # P(k, i) = 0 for i < 0
    "combinatorics.pyramidal_closed_form(k)": 0,
    "combinatorics.pyramidal_closed_form(i)": None,
    "combinatorics.pyramidal_rows(max_k)": -1,  # the rows start at k = -1
    "combinatorics.stirling_first_unsigned(r)": None,  # c(n, r) = 0 outside 0..n
}


def _entries():
    """(name, callable) of every public function (memoized ones included)
    and class defined in the library modules, exceptions aside, then the
    FAMILIES entries and Scope."""
    for module in MODULES:
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(value)) or (
                inspect.isclass(value) and not issubclass(value, Exception)
            ):
                yield f"{module.__name__.removeprefix('confpoly.')}.{name}", value
    for family, entry in duality.FAMILIES.items():
        yield f"duality.FAMILIES[{family}]", entry
    yield "verify.Scope", verify.Scope


CANDIDATES = [
    (name, entry, argument)
    for name, entry in _entries()
    for argument in inspect.signature(entry).parameters
    if argument in NATURAL
]
CASES = [
    (name, entry, argument)
    for name, entry, argument in CANDIDATES
    if name not in EXEMPT and f"{name}({argument})" not in EXEMPT | INTEGER.keys()
]
ENTRIES = dict(_entries())


def _valid_kwargs(entry):
    """A valid value for every parameter of ``entry`` without a default."""
    return {
        p.name: VALID[p.name]
        for p in inspect.signature(entry).parameters.values()
        if p.default is inspect.Parameter.empty
    }


@pytest.mark.parametrize(
    "entry, argument, value",
    [
        pytest.param(entry, argument, value, id=f"{name}-{argument}-{value!r}")
        for name, entry, argument in CASES
        for value in BAD
    ],
)
def test_bad_natural_argument_is_named(entry, argument, value):
    # every other parameter without a default gets a valid value
    kwargs = _valid_kwargs(entry)
    entry(**kwargs)  # first, so a memoized route cannot answer 2.0 from the entry of 2
    with pytest.raises(ValueError) as info:
        entry(**{**kwargs, argument: value})
    assert str(info.value) == f"{argument} must be a nonnegative int, got {value!r}"


@pytest.mark.parametrize("key", INTEGER)
def test_integer_argument_is_named(key):
    name, _, argument = key.rstrip(")").partition("(")
    entry, least = ENTRIES[name], INTEGER[key]
    kwargs = _valid_kwargs(entry)
    for value in NOT_INT:
        entry(**kwargs)  # first, so a memoized route cannot answer 2.0 from the entry of 2
        with pytest.raises(ValueError) as info:
            entry(**{**kwargs, argument: value})
        assert str(info.value) == f"{argument} must be an int, got {value!r}"
    # the domain is kept: -1 where it allows it, KOutOfRangeError below it
    entry(**{**kwargs, argument: -1 if least is None else least})
    if least is not None:
        with pytest.raises(KOutOfRangeError):
            entry(**{**kwargs, argument: least - 1})


@pytest.mark.parametrize("value", NOT_INT, ids=repr)
def test_series_power_must_be_an_int(value):
    series = TruncSeries(2, [1, 1])
    assert series**1 == series
    with pytest.raises(ValueError, match=f"n must be an int, got {value!r}"):
        series**value
    assert series**-1 == series.inverse()


def test_exemptions_are_current():
    names = {name for name, _, _ in CANDIDATES}
    names |= {f"{name}({argument})" for name, _, argument in CANDIDATES}
    assert sorted(EXEMPT.keys() - names) == []
    covered = {name.partition(".")[0] for name, _, _ in CASES}
    assert covered == {m.__name__.removeprefix("confpoly.") for m in MODULES} | {"verify"}
