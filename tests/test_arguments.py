"""One argument policy for the whole library: every public route and entry
point refuses a natural-number argument (k, n, an order, a bound, a field
size, a degree) that is not an int, is a bool, or is negative, with a
ValueError that names the argument.

The cases come from introspection, by parameter name, over the public
functions and classes of the library modules, every ``duality.FAMILIES``
entry and ``verify.Scope``.  So a new route whose k or n goes unchecked
fails here, unless ``EXEMPT`` names it with a reason.
"""

import inspect

import pytest

from confpoly import combinatorics, duality, ffield, poincare, ring, verify, virtual
from confpoly.ring import ONE

MODULES = (ring, combinatorics, poincare, virtual, duality, ffield)

NATURAL = ("k", "n", "j", "order", "max_n", "max_i", "q", "degree", "max_k", "only_k")

BAD = (2.0, True, "2", -1)

# a valid value for each parameter without a default, natural or not
VALID = {
    "k": 1, "n": 2, "j": 1, "order": 2, "max_n": 2, "max_i": 2, "q": 3, "degree": 2,
    "max_k": 1, "r": 1, "p": ONE, "v": ONE, "poly": ONE,
    "ranks": (1, 2, 2), "space": "ordered", "fld": ffield.PrimeField(3), "primes": (3,),
}

# entry points, or "entry(argument)" for one argument, whose natural-looking
# arguments follow another rule, and why
EXEMPT = {
    "combinatorics.pyramidal": "domain k >= -1 (KOutOfRangeError) and any integer i",
    "combinatorics.pyramidal_closed_form":
        "domain k >= 0 (KOutOfRangeError) and any integer i, like pyramidal",
    "combinatorics.pyramidal_rows(max_k)":
        "the rows start at k = -1, so max_k >= -1 (KOutOfRangeError)",
    "ffield.OracleReport": "a record that oracle_check fills from its checked arguments",
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
    if name not in EXEMPT and f"{name}({argument})" not in EXEMPT
]


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
    kwargs = {
        p.name: VALID[p.name]
        for p in inspect.signature(entry).parameters.values()
        if p.default is inspect.Parameter.empty
    }
    entry(**kwargs)  # first, so a memoized route cannot answer 2.0 from the entry of 2
    with pytest.raises(ValueError) as info:
        entry(**{**kwargs, argument: value})
    assert str(info.value) == f"{argument} must be a nonnegative int, got {value!r}"


def test_exemptions_are_current():
    names = {name for name, _, _ in CANDIDATES}
    names |= {f"{name}({argument})" for name, _, argument in CANDIDATES}
    assert sorted(EXEMPT.keys() - names) == []
    covered = {name.partition(".")[0] for name, _, _ in CASES}
    assert covered == {m.__name__.removeprefix("confpoly.") for m in MODULES} | {"verify"}
