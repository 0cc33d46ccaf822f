"""Verdict and report values returned by the finite checkers.

A Verdict is deliberately three-valued.  Violated always carries a
machine-checkable witness; Inconclusive records what was tested, because
a finite search cannot refute a universally quantified statement.
"""

from dataclasses import dataclass


PASS = "pass"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: dict | None = None
    tested: str | None = None

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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an exact-identity check, with both sides of the identity.

    lhs and rhs are p-th-power values: Fractions in exact mode, floats
    otherwise.  `exact` records which comparison was used.
    """

    passed: bool
    lhs: object
    rhs: object
    exact: bool
