import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gradedmod import analyze, corpus, functors, graded, znlinalg


class _Validating:
    """A stand-in for a graded class that builds every object with
    `validate=True`, whatever its caller asked for.  Its objects are of
    the class itself, since `graded._key_eq` compares `type()`; static
    constructors such as `identity` are the class's own."""

    def __init__(self, cls):
        self.cls = cls

    def __call__(self, *args, validate=True, **kwargs):
        return self.cls(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.cls, name)


# The functors and `analyze._one_sided_inverse` build their outputs
# without a second axiom check (the validation policy in `graded`).  The
# suite checks every such output in full all the same: these modules look
# the classes up at call time, so the stand-ins validate all they build.
# `test_functors.test_battery_validates_no_functor_output` undoes this to
# pin the policy of the program itself.
VALIDATING = {(functors, "GradedModule"): _Validating(graded.GradedModule),
              (functors, "GradedMorphism"): _Validating(graded.GradedMorphism),
              (analyze, "GradedMorphism"): _Validating(graded.GradedMorphism)}
for (_module, _name), _factory in VALIDATING.items():
    setattr(_module, _name, _factory)


class SubquotientContractBroken(AssertionError):
    pass


def _subquotient_checking_its_contract(wgens, ambient):
    """`znlinalg.Subquotient`, once its contract is checked: `wgens` is a
    Howell form whose span holds the ambient relations."""
    rows = tuple(tuple(row) for row in wgens)
    if znlinalg.howell(rows + ambient.rels, ambient.ngens, ambient.n) != rows:
        raise SubquotientContractBroken(
            f"Subquotient handed {rows} over {ambient}")
    return znlinalg.Subquotient(wgens, ambient)


# `Subquotient` takes no Howell form of its own: its callers hand it one.
# The suite checks that contract on every call the program makes.
CONTRACTS = {(functors, "Subquotient"): _subquotient_checking_its_contract,
             (graded, "Subquotient"): _subquotient_checking_its_contract}
for (_module, _name), _factory in CONTRACTS.items():
    setattr(_module, _name, _factory)


@pytest.fixture(scope="session")
def instances():
    return corpus.named_instances()
