"""Verdict and report values returned by the finite checkers.

A Verdict is deliberately three-valued.  Violated always carries a
machine-checkable witness; Inconclusive records what was tested, because
a finite search cannot refute a universally quantified statement.
"""

from .errors import Record


PASS = "pass"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


class Verdict(Record):
    __slots__ = ("status", "witness", "tested")

    def __init__(self, status: str, witness: dict | None = None,
                 tested: str | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "tested", tested)

    @classmethod
    def passed(cls, witness=None, tested=None):
        return cls(PASS, witness, tested)

    @classmethod
    def violated(cls, **witness):
        return cls(VIOLATED, witness)

    @classmethod
    def inconclusive(cls, tested):
        return cls(INCONCLUSIVE, None, tested)

    @property
    def is_pass(self):
        return self.status == PASS

    @property
    def is_violated(self):
        return self.status == VIOLATED

    @property
    def is_inconclusive(self):
        return self.status == INCONCLUSIVE


class CheckReport(Record):
    """Outcome of an exact-identity check, with both sides of the identity.

    lhs and rhs are p-th-power values: Fractions in exact mode, floats
    otherwise.  `exact` records which comparison was used.
    """

    __slots__ = ("passed", "lhs", "rhs", "exact")

    def __init__(self, passed: bool, lhs: object, rhs: object,
                 exact: bool):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "exact", exact)
