"""Group-relation checks of the four symmetry families, in exact integer arithmetic.

``verify_group_relations`` checks Sigma^2 = I, R^2 = eps_R I, T^2 = eps_T I and
T = Sigma R on the signed permutations of ``operators``, each product an O(d)
integer gather.  ``_checked`` checks a family for these checks, for ``symmetry``'s
conjugation checks and for ``transform.time_reverse_twice``; ``symmetry`` imports
back every name defined here but ``_scalar`` and ``_square_scalar``.
"""

from __future__ import annotations

from .core import Record, is_integer
from .operators import AntilinearOperator, RepresentationTriple, _check_row, _check_twice_j


def _checked(rep: RepresentationTriple, *names: str) -> tuple:
    """``rep``'s row, twice_j and two signs as ints, then its operators ``names``, all checked."""
    if not isinstance(rep, RepresentationTriple):
        raise ValueError(f"rep must be a RepresentationTriple, got {rep!r}")
    fields = [_check_row(rep.row), _check_twice_j(rep.twice_j)]
    for field in ("reversal_sign", "inversion_sign"):
        sign = getattr(rep, field)
        if not is_integer(sign) or sign not in (1, -1):
            raise ValueError(f"{field} must be +1 or -1, got {sign!r}")
        fields.append(int(sign))
    for name in names:
        op = getattr(rep, name)
        if not isinstance(op, AntilinearOperator):
            raise ValueError(f"{name} must be an AntilinearOperator, got {type(op).__name__}")
        if len(op.columns) != rep.dim:
            raise ValueError(f"{name} must be a {rep.dim}x{rep.dim} signed permutation matrix")
        fields.append(op)
    return tuple(fields)


def _scalar(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """The s with A = s B, for A and B as their signed columns, or None if there is none."""
    return 1 if a == b else -1 if a == tuple(-c for c in b) else None


def _square_scalar(op: AntilinearOperator) -> int | None:
    """The s with A^2 = s I, or None if the square is no multiple of I."""
    return _scalar(op.compose(op).columns, tuple(range(1, len(op.columns) + 1)))


class RelationCheck(Record):
    name: str
    passed: bool
    expected: str
    observed: str


class _Report(Record):
    """A family's report, whose field named ``_CHECKS`` holds its checks."""

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in getattr(self, self._CHECKS))

    def to_dict(self) -> dict:
        checks = [dict(vars(check)) for check in getattr(self, self._CHECKS)]  # their fields
        return {**vars(self), self._CHECKS: checks, "all_passed": self.all_passed}


class RelationReport(_Report):
    """Outcome of the exact group-relation checks for one family."""

    _CHECKS = "checks"
    row: int
    twice_j: int
    checks: tuple[RelationCheck, ...]
    commutation_sign: int | None


def verify_group_relations(rep: RepresentationTriple) -> RelationReport:
    """Check the defining relations of a family with exact integer arithmetic.

    Verifies Sigma^2 = I, R^2 = eps_R I, T^2 = eps_T I and T = Sigma R, and
    records the sign s in Sigma R = s R Sigma (the relative order of parity
    and time reversal is physically immaterial, so the sign is reported
    rather than asserted).  Every product is an exact O(d) integer gather,
    :meth:`AntilinearOperator.compose`.

    Raises ValueError, naming the field, if a field of rep is out of range or
    Sigma, R or T is no AntilinearOperator on the family's d dimensions.  A
    relation that fails between them becomes a report entry, not an exception.
    """
    row, twice_j, eps_r, eps_t, sigma, r, t = _checked(rep, "parity", "time_reversal",
                                                       "total_inversion")
    checks = []
    for name, a, sign in (("parity_squared", sigma, 1),
                          ("time_reversal_squared", r, eps_r),
                          ("total_inversion_squared", t, eps_t)):
        s = _square_scalar(a)
        checks.append(RelationCheck(name, s == sign, f"{sign:+d} * I", f"{s} * I"))

    sigma_r = sigma.compose(r)
    same = sigma_r == t
    checks.append(RelationCheck(
        "total_inversion_is_parity_then_reversal", same,
        "T == Sigma o R", "equal" if same else "different"))

    comm_sign = _scalar(sigma_r.columns, r.compose(sigma).columns)
    checks.append(RelationCheck(
        "parity_reversal_commute_up_to_sign", comm_sign is not None,
        "Sigma o R == +/- R o Sigma", f"sign {comm_sign}"))

    return RelationReport(row, twice_j, tuple(checks), comm_sign)
