"""Reading and writing mappings, measures, certificates, and reports.

Three formats live here:

* the map file, a line-oriented text format with one record per element;
* the measure file, JSON carrying a type measure whose entries embed their
  witness balls, so realizing a measure needs no access to the structure
  the measure came from;
* report JSON, the generic dump used by the command-line tools, in which
  every rational is rendered exactly as "p/q".

Map files have a canonical form: fixed header, records ascending by id,
marks sorted, one trailing newline.  The reader accepts only that form, so
reading and writing are mutually inverse byte for byte.  The writer works
in chunks of 4,096 records, each formatted by one `%` over one format
string, with each distinct mark set joined once, so a large map costs no
string per record.

Type, measure and certificate JSON cost time linear in the marks that
hold, not in witnesses times predicates.  A witness is written straight
from its ball in the source structure, with no restricted structure
built, and each empty member list in the returned data is the shared
`()`, which `json` writes as `[]`.  A reader keeps only the non-empty
member lists.  It checks each witness on its own, then reads the
witnesses of one file that declare one predicate tuple into one disjoint
union and types each root there, offset by the elements before its
witness: one `FiniteMapping` per tuple, not per witness.  A type read
back has that union as its structure, so one kept type keeps the whole
union alive; `type_to_json` writes it back byte for byte all the same.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, compress
from pathlib import Path
from typing import Optional

from .errors import ElementOutOfRange, FormatError
from .fmtp import CompanionCertificate
from .localtypes import LocalType, TypeMeasure, TypeTable, local_type
from .structure import FiniteMapping, Signature, _check_domain, ball, _side_by_side

__all__ = [
    "MAP_VERSION",
    "MEASURE_VERSION",
    "CERTIFICATE_VERSION",
    "read_map",
    "write_map",
    "parse_map",
    "dump_map",
    "structure_to_json",
    "structure_from_json",
    "type_to_json",
    "type_from_json",
    "measure_to_json",
    "measure_from_json",
    "read_measure",
    "write_measure",
    "certificate_to_json",
    "certificate_from_json",
    "fraction_to_text",
    "fraction_from_text",
    "jsonable",
]

MAP_VERSION = 1
MEASURE_VERSION = 1
CERTIFICATE_VERSION = 1

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER = re.compile(r"(?:0|[1-9][0-9]*)\Z")
_RATIONAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?\Z")
_RECORD = re.compile(r"(0|[1-9][0-9]*) -> (0|[1-9][0-9]*) \[([^\[\]]*)\]\Z")


# ---------------------------------------------------------------------------
# rationals


def fraction_to_text(value) -> str:
    """Exact rendering as "p/q", denominator always present."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def fraction_from_text(text, line: Optional[int] = None) -> Fraction:
    """The rational "p/q" or "p" (docs/formats.md): an optional minus sign,
    decimal digits, then optionally "/" and a positive denominator."""
    if not isinstance(text, str):
        raise FormatError(f"expected a rational written as 'p/q', got {text!r}", line)
    if not _RATIONAL.match(text):
        raise FormatError(f"not a rational: {text!r}", line)
    return Fraction(text)


# ---------------------------------------------------------------------------
# map files


_CHUNK = 4096
_ROW = "%d -> %d [%s]\n"


def dump_map(F: FiniteMapping) -> str:
    """Canonical text form: header, then one record per element, ascending.

    Records are formatted _CHUNK at a time, and each distinct mark tuple is
    joined once: no string per record is built."""
    for name in F.signature.predicates:
        if not _NAME.match(name):
            raise FormatError(f"predicate name {name!r} is not writable")
    parts = [
        f"mapfile {MAP_VERSION}\nn {F.n}\n",
        " ".join(["predicates", *F.signature.predicates]),
        "\n",
    ]
    sets = F.mark_sets
    joined = {marks: " ".join(marks) for marks in set(sets)}
    for start in range(0, F.n, _CHUNK):
        stop = min(start + _CHUNK, F.n)
        texts = map(joined.__getitem__, sets[start:stop])
        rows = chain.from_iterable(zip(range(start, stop), F.f[start:stop], texts))
        parts.append((_ROW * (stop - start)) % tuple(rows))
    return "".join(parts)


def parse_map(text: str) -> FiniteMapping:
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    lines = text[:-1].split("\n")
    if len(lines) < 3:
        raise FormatError("expected a three-line header", len(lines))
    if lines[0] != f"mapfile {MAP_VERSION}":
        raise FormatError(f"unsupported header {lines[0]!r}", 1)
    if not lines[1].startswith("n ") or not _NUMBER.match(lines[1][2:]):
        raise FormatError(f"expected 'n <count>', got {lines[1]!r}", 2)
    n = int(lines[1][2:])
    head, *names = lines[2].split(" ")
    if head != "predicates" or ("" in names):
        raise FormatError(f"expected 'predicates <names>', got {lines[2]!r}", 3)
    declared: set[str] = set()
    for name in names:
        if not _NAME.match(name):
            raise FormatError(f"bad predicate name {name!r}", 3)
        if name in declared:
            raise FormatError(f"duplicate predicate {name!r}", 3)
        declared.add(name)
    if len(lines) != 3 + n:
        raise FormatError(f"expected {n} records, found {len(lines) - 3}", len(lines))

    f: list[int] = []
    marks: dict[str, set[int]] = {name: set() for name in names}
    for k in range(n):
        line_no = 4 + k
        matched = _RECORD.match(lines[3 + k])
        if not matched:
            raise FormatError(f"bad record {lines[3 + k]!r}", line_no)
        v, w = int(matched.group(1)), int(matched.group(2))
        if v != k:
            if v < k:
                raise FormatError(f"duplicate element id {v}", line_no)
            raise FormatError(f"element ids must ascend without gaps, got {v}", line_no)
        if w >= n:
            raise FormatError(f"image {w} out of range for n={n}", line_no)
        inside = matched.group(3)
        row = inside.split(" ") if inside else []
        if row != sorted(set(row)):
            raise FormatError("marks must be sorted and distinct", line_no)
        for name in row:
            if name not in declared:
                raise FormatError(f"undeclared mark {name!r}", line_no)
            marks[name].add(v)
        f.append(w)
    return FiniteMapping(
        f=tuple(f),
        marks={name: frozenset(elems) for name, elems in marks.items()},
        signature=Signature(tuple(names)),
    )


def read_map(path) -> FiniteMapping:
    return parse_map(Path(path).read_text())


def write_map(F: FiniteMapping, path) -> None:
    Path(path).write_text(dump_map(F))


# ---------------------------------------------------------------------------
# structures and types as JSON


def _structure_json(F: FiniteMapping, kept) -> dict:
    """F restricted to the ascending elements `kept`, in structure JSON,
    read straight from F: an image that leaves `kept` is redirected to the
    element itself, as `restrict` does, and member lists come out ascending
    because `kept` is.  No restricted structure is built, and every empty
    member list is the shared `()`, so the work grows with the kept
    elements and the marks they hold."""
    index = {v: i for i, v in enumerate(kept)}
    members: dict[str, list[int]] = {}
    for i, v in enumerate(kept):
        for name in F.mark_sets[v]:
            members.setdefault(name, []).append(i)
    return {
        "n": len(kept),
        "predicates": list(F.signature.predicates),
        "f": [index.get(F.f[v], i) for i, v in enumerate(kept)],
        "marks": {**dict.fromkeys(F.signature.predicates, ()), **members},
    }


def structure_to_json(F: FiniteMapping) -> dict:
    return _structure_json(F, F.elements())


def structure_from_json(data) -> FiniteMapping:
    predicates, f, marks = _structure_from_json(data)
    return FiniteMapping(f=f, marks=marks, signature=Signature(predicates))


def _structure_from_json(data) -> tuple:
    """The predicates, f and non-empty marks of structure JSON, after every
    check of `structure_from_json` up to the domain's, which the
    `FiniteMapping` built from them makes; no structure is built."""
    if not isinstance(data, dict):
        raise FormatError(f"expected a structure object, got {type(data).__name__}")
    predicates, f, raw_marks = (data.get(key) for key in ("predicates", "f", "marks"))
    if not (type(predicates) is type(f) is list and isinstance(raw_marks, dict)):
        raise FormatError("structure predicates and f must be arrays, its marks an object")
    predicates, f = tuple(predicates), tuple(f)
    try:
        if raw_marks.keys() != set(predicates):
            missing = [name for name in predicates if name not in raw_marks]
            if missing:
                raise FormatError(f"malformed structure: {KeyError(missing[0])!r}")
            undeclared = sorted(raw_marks.keys() - set(predicates))
            raise FormatError(f"marks name undeclared predicates {undeclared!r}")
        # A witness holds few of its predicates: keep the non-empty member
        # lists of `data`, picked in C, and leave the rest to the
        # constructor.  set() of all their members raises what set() of
        # each would, for a member list such as 3 or one holding a list.
        values = raw_marks.values()
        marks = dict(compress(raw_marks.items(), values))
        frozenset(chain.from_iterable(marks.values()))
        arrays = {*map(type, values)} <= {list, tuple}
        if not arrays:
            # JSON null, false and 0 are no member lists either: set() of
            # one raises, as it does of a non-empty one such as 3 above.
            list(map(frozenset, values))
    except TypeError as failure:
        raise FormatError(f"malformed structure: {failure!r}") from None
    if "n" in data and not (type(data["n"]) is int and data["n"] == len(f)):
        raise FormatError(f"n is {data['n']!r} but f has {len(f)} values")
    if not {*map(type, f)} <= {int}:
        raise FormatError("function values must be integers")
    # Of the members as written: a set of 0 and false keeps one of them.
    if not {*map(type, chain.from_iterable(marks.values()))} <= {int}:
        raise FormatError("mark members must be integers")
    # Checked last, so that a string such as "a" keeps the text above; an
    # empty string or object is no empty member list.
    if not arrays:
        raise FormatError("mark member lists must be arrays")
    if len(raw_marks) < len(predicates):
        Signature(predicates)  # raises DuplicatePredicate for the first twin
    return predicates, f, marks


def type_to_json(t: LocalType) -> dict:
    # Radius rank+1 fixes every atom the rank-round game from the root can
    # inspect; radius rank alone would let the boundary redirection invent
    # fixed points visible in the final round.
    kept = sorted(ball(t.structure, t.element, t.rank + 1))
    return {
        "rank": t.rank,
        "root": kept.index(t.element),
        "witness": _structure_json(t.structure, kept),
    }


def type_from_json(data, table: Optional[TypeTable] = None) -> LocalType:
    return _local_types([_type_from_json(data)], table)[0]


def _type_from_json(data) -> tuple:
    """The rank, root, predicates, f and marks of type JSON, after every
    check of `type_from_json`, its witness's domain and root included; no
    structure is built (see `_local_types`)."""
    if not isinstance(data, dict):
        raise FormatError(f"expected a type object, got {type(data).__name__}")
    try:
        rank, root = data["rank"], data["root"]
        witness = data["witness"]
    except (KeyError, TypeError) as failure:
        raise FormatError(f"malformed type: {failure!r}") from None
    if type(rank) is not int or rank < 0:
        raise FormatError(f"bad type rank {rank!r}")
    if type(root) is not int:
        raise FormatError(f"bad type root {root!r}")
    predicates, f, marks = _structure_from_json(witness)
    _check_domain(f, marks)
    if not 0 <= root < len(f):
        raise ElementOutOfRange(root, len(f))
    return rank, root, predicates, f, marks


def _local_types(parts, table: Optional[TypeTable]) -> list[LocalType]:
    """The types of checked type JSON parts (`_type_from_json`), in order.

    The witnesses that declare one predicate tuple are read into one
    structure side by side, each shifted by the elements before it, and
    each root is typed there: one structure, and one mark, preimage and
    cycle table and type-table cache, per tuple rather than per witness.
    A local game moves only to neighbours, so a root has the same type in
    the union as in its own witness, and its radius-(rank + 1) ball, which
    `type_to_json` writes, is the same ball."""
    groups: dict[tuple, list] = {}
    sizes: dict[tuple, int] = {}
    roots = []
    for rank, root, predicates, f, marks in parts:
        offset = sizes.get(predicates, 0)
        sizes[predicates] = offset + len(f)
        groups.setdefault(predicates, []).append((f, marks))
        roots.append((predicates, offset + root, rank))
    unions = {p: _side_by_side(group, Signature(p)) for p, group in groups.items()}
    return [local_type(unions[p], v, rank, table) for p, v, rank in roots]


# ---------------------------------------------------------------------------
# measures


def measure_to_json(mu: TypeMeasure) -> dict:
    return {
        "format": "measure",
        "version": MEASURE_VERSION,
        "rank": mu.rank,
        "entries": [
            {"mass": fraction_to_text(mass), "type": type_to_json(t)}
            for t, mass in mu.entries
        ],
    }


def measure_from_json(data, table: Optional[TypeTable] = None) -> TypeMeasure:
    if not isinstance(data, dict) or data.get("format") != "measure":
        raise FormatError("not a measure file")
    version = data.get("version")
    if type(version) is not int or version != MEASURE_VERSION:
        raise FormatError(f"unsupported measure version {version!r}")
    rank = data.get("rank")
    if type(rank) is not int or rank < 0:
        raise FormatError(f"bad measure rank {rank!r}")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise FormatError("measure entries must be a list")
    masses, parts = [], []
    for entry in entries:
        if not isinstance(entry, dict):
            raise FormatError("measure entries must be objects")
        masses.append(fraction_from_text(entry.get("mass")))
        parts.append(_type_from_json(entry.get("type")))
    return TypeMeasure.from_pairs(rank, zip(_local_types(parts, table), masses))


def read_measure(path, table: Optional[TypeTable] = None) -> TypeMeasure:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as failure:
        raise FormatError(f"invalid JSON: {failure}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    return measure_from_json(data, table=table)


def write_measure(mu: TypeMeasure, path) -> None:
    Path(path).write_text(json.dumps(measure_to_json(mu), indent=2) + "\n")


# ---------------------------------------------------------------------------
# certificates


def certificate_to_json(cert: CompanionCertificate) -> dict:
    types: list[dict] = []
    index: dict[tuple[int, int], int] = {}

    def ref(t: LocalType) -> int:
        found = index.get(t.key)
        if found is None:
            found = len(types)
            index[t.key] = found
            types.append(type_to_json(t))
        return found

    entries = [
        {"tau": ref(tau), "t": ref(t), "s": fraction_to_text(s)}
        for tau, t, s in cert.entries
    ]
    return {
        "format": "certificate",
        "version": CERTIFICATE_VERSION,
        "rank": cert.R,
        "r": cert.r,
        "types": types,
        "entries": entries,
    }


def certificate_from_json(data, table: Optional[TypeTable] = None) -> CompanionCertificate:
    if not isinstance(data, dict) or data.get("format") != "certificate":
        raise FormatError("not a certificate file")
    version = data.get("version")
    if type(version) is not int or version != CERTIFICATE_VERSION:
        raise FormatError(f"unsupported certificate version {version!r}")
    rank, r = data.get("rank"), data.get("r")
    if type(rank) is not int or type(r) is not int:
        raise FormatError("certificate rank and r must be integers")
    raw_types = data.get("types")
    if not isinstance(raw_types, list):
        raise FormatError("certificate types must be a list")
    types = _local_types(list(map(_type_from_json, raw_types)), table)
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise FormatError("certificate entries must be a list")
    entries = []
    for entry in raw_entries:
        if not isinstance(entry, dict):
            raise FormatError("certificate entries must be objects")
        refs = entry.get("tau"), entry.get("t")
        if not all(type(ref) is int and 0 <= ref < len(types) for ref in refs):
            raise FormatError(f"bad certificate entry {entry!r}")
        tau, t = (types[ref] for ref in refs)
        entries.append((tau, t, fraction_from_text(entry.get("s"))))
    return CompanionCertificate(R=rank, r=r, entries=tuple(entries))


# ---------------------------------------------------------------------------
# report dumps


def jsonable(value):
    """Recursive conversion for report dumps: exact rationals as "p/q",
    sets sorted, tuples as lists.  Anything unrecognized falls back to
    its repr."""
    if isinstance(value, Fraction):
        return fraction_to_text(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return repr(value)
