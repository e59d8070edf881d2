"""Reading JSON input, and the violation reports of the check_* operations.

Every JSON value that reaches ctxlab passes the readers below, and no
other module decides whether an input value is well formed.  A reader
returns the value in the form the library takes, or raises InputError
naming the file or the field.

A report is empty iff the checked object satisfies every invariant the
check covers.  Violations carry a dotted ``kind`` naming the invariant
breached (e.g. ``"category.assoc"``, ``"net.locality"``) plus a free-form
message locating the offending instance.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import SHOWN_CHARS, InputError


def shown(value) -> str:
    """``repr(value)``, or its first ``SHOWN_CHARS`` characters and the count
    of those left out, so one refusal stays one short line."""
    text = repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text) - SHOWN_CHARS} more characters)"


def load_json(path):
    """The JSON value in the file at ``path``, which is UTF-8 (or UTF-16 or -32)."""
    try:
        with open(path, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {os.fspath(path)!r}: {exc.strerror}") from exc
    return parse_json(text, repr(os.fspath(path)))


def parse_json(text, source: str):
    """The JSON value of ``text``, which ``source`` names."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, bad syntax, an integer of more digits than
        # Python converts, or a nest deeper than the recursion limit
        raise InputError(f"malformed JSON in {source}: {exc}") from exc


def members(data, what: str) -> dict:
    """``data``, which must be a JSON object."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object, got {shown(data)}")
    return data


def member(data, key: str, what: str):
    """The value of the required ``key`` of the JSON object ``data``."""
    if key not in members(data, what):
        raise InputError(f"{what} has no {key!r}")
    return data[key]


def array(data, what: str) -> list:
    """``data``, which must be a JSON array; a string is not read as its characters."""
    if not isinstance(data, list):
        raise InputError(f"{what} must be a JSON array, got {shown(data)}")
    return data


def number(value, what: str) -> float:
    """``value`` as a float: a number, not a boolean (which Python takes for
    1 or 0), within the float range.  NaN and +-Infinity pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} is not a number: {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{what} is an integer beyond the float range") from None


def numbers(data, what: str) -> np.ndarray:
    """A JSON array of numbers as floats, item ``k`` read by ``number`` as ``{what} {k}``."""
    return np.array([number(x, f"{what} {k}") for k, x in enumerate(array(data, f"list of {what}s"))], dtype=float)


def number_rows(bases, dim: int) -> tuple:
    """The vectors of every basis of a ray fixture's ``bases``, a JSON array
    of arrays of vectors, as one float array ``(vectors, dim)`` and the
    vector count of each basis.  They are read in C-level passes, as
    ``parse_matrix`` reads its cells, when every basis and every vector is
    an array, each vector holds ``dim`` numbers and no boolean, and every
    number is finite as a float.  Any other input is read vector by vector,
    which refuses (InputError) the first malformed basis or vector by name,
    and a boolean or non-finite coordinate with its basis and vector."""
    cells = itertools.chain.from_iterable
    if (set(map(type, bases)) <= {list} and set(map(type, rows := list(cells(bases)))) <= {list}
            and set(map(len, rows)) <= {dim} and set(map(type, cells(rows))) <= {int, float}):
        try:
            table = np.fromiter(cells(rows), dtype=float, count=len(rows) * dim).reshape(len(rows), dim)
        except OverflowError:  # an integer beyond the float range, which the walk names
            table = None
        if table is not None and np.isfinite(table).all():
            return table, list(map(len, bases))
    rays, counts = [], []
    for b, basis in enumerate(bases):
        counts.append(len(array(basis, f"basis {b} of the ray fixture")))
        for k, raw in enumerate(basis):
            where = f"basis {b}, vector {k} of the ray fixture"
            if any(x is True or x is False for x in array(raw, where)):
                raise InputError(f"{where} has a boolean coordinate: {raw!r}")
            v = numbers(raw, f"{where}: coordinate")
            if v.shape != (dim,):
                raise InputError(f"ray of shape {v.shape} in dimension-{dim} fixture")
            if not np.all(np.isfinite(v)):
                raise InputError(f"{where} has a non-finite coordinate: {raw!r}")
            rays.append(v)
    return np.array(rays, dtype=float).reshape(len(rays), dim), counts


def parse_matrix(data) -> np.ndarray:
    """A square complex matrix from its rows of entries, each a finite
    number or an [re, im] pair of them, refused with its row and column.
    Cells that are all pairs of floats, which ctxlab writes, are read in
    C-level passes over the cells, two floats at a time into one complex
    entry; any other cell sends the whole matrix through ``_entry``, cell
    by cell."""
    n = len(array(data, "matrix JSON"))
    if not n:
        raise InputError("matrix JSON has no rows")
    for i, row in enumerate(data):
        if type(row) is not list or len(row) != n:
            raise InputError(f"matrix JSON row {i} is not an array of {n} entries: {shown(row)}")
    cells = itertools.chain.from_iterable
    pairs = set(map(type, cells(data))) == {list} and set(map(len, cells(data))) == {2}
    if pairs and set(map(type, cells(cells(data)))) == {float}:
        mat = np.fromiter(cells(cells(data)), dtype=float, count=2 * n * n).view(complex).reshape(n, n)
    else:
        mat = np.array([[_entry(c, i, j) for j, c in enumerate(row)] for i, row in enumerate(data)], dtype=complex)
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise InputError(f"matrix entry at row {i}, column {j} is not finite: {shown(data[i][j])}")
    return mat


def _entry(cell, i: int, j: int) -> complex:
    """The value of a cell: a number or an [re, im] pair of them; a boolean
    or a non-number is refused."""
    where = f"matrix entry at row {i}, column {j}"
    parts = cell if isinstance(cell, list) and len(cell) == 2 else [cell]
    if any(x is True or x is False for x in parts):
        raise InputError(f"{where} is a boolean, not a number: {shown(cell)}")
    return complex(*(number(x, where) for x in parts))


def labels(data, what: str) -> list:
    """A JSON array of scalars, which tables can key: an array or object
    element is refused."""
    for x in array(data, what):
        if isinstance(x, (list, dict)):
            raise InputError(f"{what} holds {shown(x)}: not a string, number, boolean or null")
    return data


def label_table(data, what: str) -> dict:
    """A JSON object whose values are labels, as a new dict."""
    labels(list(members(data, what).values()), what)
    return dict(data)


def whole_number(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, or InputError naming ``what`` and the value:
    it must be a number equal to its integer part (Python takes JSON
    ``true`` for 1, so booleans are refused), and at least ``least``."""
    try:
        whole = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or (least is not None and value < least):
        bound = "" if least is None else f" of at least {least}"
        raise InputError(f"{what} must be a whole number{bound}, got {shown(value)}")
    return int(value)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, message))

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"kind": v.kind, "message": v.message} for v in self.violations],
        }
