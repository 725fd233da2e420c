"""The one form of the package's value records.

A record is a `collections.namedtuple` subclass that equals only a record
of its own type, with a matching hash: `Collineation(m, 0)` differs from
`Duality(m, 0)` and from the plain tuple `(m, 0)`.  Each record class
subclasses `record(...)` and declares `__slots__ = ()`, so that its
instances, like the tuple, refuse attribute assignment.  Building one costs
a namedtuple, not the `dataclasses` module and its generated code.
"""

import collections


def _same(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _differ(self, other):
    return not _same(self, other)


def record(name, fields, defaults=()):
    """The base class of the record called name: its fields, a space-separated
    string, in order, and the defaults of the last len(defaults) of them."""
    base = collections.namedtuple(name, fields, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _same, _differ, tuple.__hash__
    return base
