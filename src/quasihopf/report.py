"""Check reports: ordered per-axiom records with failure witnesses."""

from __future__ import annotations

from typing import Optional

from .errors import ShapeMismatch
from .tensor import LinMap


def _slice(t, item):
    """The tensor over the legs of ``t`` after the leading ``item``, or
    its scalar when no leg remains."""
    out = LinMap.from_tensor(t, len(item)).column(item)
    return out if out.dims else out.get(())


class CheckRecord:
    """One check's verdict; a failure carries its witness and both sides
    there.  A record with ``fatal`` false is advisory: it does not decide
    the report's verdict.  Records are equal when every field is."""

    def __init__(self, check_id: str, passed: bool, witness: Optional[tuple] = None,
                 lhs=None, rhs=None, fatal: bool = True):
        self.check_id = check_id
        self.passed = passed
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs
        self.fatal = fatal

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "CheckRecord(%s)" % ", ".join("%s=%r" % pair for pair in vars(self).items())

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.witness is not None:
            extra = " at %r" % (self.witness,)
        if not self.fatal:
            status += " (advisory)"
        return "%-40s %s%s" % (self.check_id, status, extra)


class CheckReport:
    """The ordered records of one verification; equal when the subjects
    and the records are."""

    def __init__(self, subject: str, records=None):
        self.subject = subject
        self.records = [] if records is None else records

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records if r.fatal)

    def add(self, check_id, passed, witness=None, lhs=None, rhs=None, fatal=True):
        self.records.append(CheckRecord(check_id, passed, witness, lhs, rhs, fatal))

    def compare(self, check_id, lhs, rhs):
        """Record exact equality of two tensors, with a differing index."""
        if lhs == rhs:
            self.add(check_id, True)
        else:
            where = lhs.first_difference(rhs) if hasattr(lhs, "first_difference") else None
            self.add(check_id, False, witness=where, lhs=lhs, rhs=rhs)

    def compare_all(self, check_id, pairs):
        """One record for several tensor equalities, checked in order: the
        first pair whose sides differ is recorded as ``compare`` records
        it, so no pair can make up for another."""
        for lhs, rhs in pairs:
            if lhs != rhs:
                break
        self.compare(check_id, lhs, rhs)

    def sweep(self, check_id, items, fn) -> CheckRecord:
        """Record whether ``fn(item)`` returns an equal ``(lhs, rhs)`` pair
        for every item, in order.  The first item whose sides differ stops
        the sweep and is recorded as the witness, with both sides."""
        for item in items:
            lhs, rhs = fn(item)
            if lhs != rhs:
                self.add(check_id, False, item, lhs, rhs)
                break
        else:
            self.add(check_id, True)
        return self.records[-1]

    def sweep_all(self, check_id, lead, lhs, rhs) -> CheckRecord:
        """``sweep`` with every item at once: ``lhs`` and ``rhs`` carry the
        item index on their first legs, whose dims are ``lead``.  The first
        item in row-major order where the sides differ is the witness, and
        the two slices at that item are the recorded sides: the record
        ``sweep`` makes from the slices.  The one-side case of
        ``sweep_sides``."""
        return self.sweep_sides(check_id, lead, [(tuple, lhs, rhs)])

    def sweep_sides(self, check_id, lead, sides) -> CheckRecord:
        """One record for several ``(witness, lhs, rhs)`` sides over the
        same items, each side as ``sweep_all`` takes it.  The record is
        made at the first item in row-major order where any side differs,
        by the first side in ``sides`` that differs there: the witness is
        that side's ``witness(item)``, and the recorded sides are its two
        slices at the item, tensors over the remaining legs, or scalars
        where no leg remains."""
        n = len(lead)
        first = None
        for witness, lhs, rhs in sides:
            if lhs.dims[:n] != tuple(lead) or rhs.dims != lhs.dims:
                raise ShapeMismatch("sides of dims %r and %r for items of dims %r"
                                    % (lhs.dims, rhs.dims, lead))
            if lhs != rhs:
                item = lhs.first_difference(rhs)[:n]
                if first is None or item < first[0]:
                    first = item, witness, lhs, rhs
        if first is None:
            self.add(check_id, True)
        else:
            item, witness, lhs, rhs = first
            self.add(check_id, False, witness(item), _slice(lhs, item), _slice(rhs, item))
        return self.records[-1]

    def extend(self, other: "CheckReport", prefix: str = ""):
        for r in other.records:
            self.records.append(CheckRecord(
                (prefix + r.check_id) if prefix else r.check_id,
                r.passed, r.witness, r.lhs, r.rhs, r.fatal))

    def first_failure(self) -> Optional[CheckRecord]:
        for r in self.records:
            if not r.passed and r.fatal:
                return r
        return None

    def render(self) -> str:
        lines = ["%s: %s" % (self.subject, "PASS" if self.passed else "FAIL")]
        lines += ["  " + r.summary() for r in self.records]
        return "\n".join(lines)

    def __repr__(self):
        return "CheckReport(%r, passed=%r, %d records)" % (
            self.subject, self.passed, len(self.records))

