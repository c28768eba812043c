"""Serialization: map files, measure and certificate JSON, report dumps."""

import json
import random
from fractions import Fraction

import pytest

from helpers import (
    cycle,
    every_marking,
    fixed_point,
    functions_up_to_relabeling,
    path,
    seeded,
    star,
    structurally_equal,
)
from mapprox import mapfile, structure
from mapprox.errors import FormatError, MapproxError
from mapprox.fmtp import (
    CompanionCertificate,
    restricted_fmtp_certificate,
    verify_certificate,
)
from mapprox.localtypes import (
    TypeTable,
    local_type,
    measure_tv,
    type_distribution,
    types_equal,
)
from mapprox.mapfile import (
    certificate_from_json,
    certificate_to_json,
    dump_map,
    fraction_from_text,
    fraction_to_text,
    jsonable,
    measure_from_json,
    measure_to_json,
    parse_map,
    read_map,
    read_measure,
    structure_from_json,
    structure_to_json,
    type_from_json,
    type_to_json,
    write_map,
    write_measure,
)
from mapprox.realize import certificate_digest, realize
from mapprox.structure import FiniteMapping, Signature, ball, cycle_cut_product
from oracles import (
    certificate_from_json_per_witness,
    dump_map_by_rows,
    measure_from_json_per_witness,
    structure_from_json_per_predicate,
    structure_to_json_by_extensions,
    type_to_json_by_restrict,
)

TABLE = TypeTable()

CANONICAL = (
    "mapfile 1\n"
    "n 3\n"
    "predicates U\n"
    "0 -> 1 [U]\n"
    "1 -> 2 []\n"
    "2 -> 0 []\n"
)


class TestMapText:
    def test_canonical_form(self):
        assert dump_map(cycle(3, {"U": frozenset({0})})) == CANONICAL

    def test_round_trip(self):
        F = parse_map(CANONICAL)
        assert structurally_equal(F, cycle(3, {"U": frozenset({0})}))
        assert dump_map(F) == CANONICAL

    def test_corpus_round_trips(self):
        for seed in range(5):
            F = seeded(10 + seed, seed)
            assert structurally_equal(parse_map(dump_map(F)), F)

    def test_chunked_writer_matches_rows(self):
        sizes, counts = set(), set()
        for F in writer_inputs():
            text = dump_map(F)
            assert text == dump_map_by_rows(F)
            assert structurally_equal(parse_map(text), F)
            sizes.add(F.n)
            counts.update(map(len, F.mark_sets))
        assert {1, 4095, 4096, 4097, 8192} <= sizes
        assert {0, 1, 2, 3} <= counts

    def test_file_round_trip(self, tmp_path):
        F = seeded(12, 3)
        target = tmp_path / "f.map"
        write_map(F, target)
        assert structurally_equal(read_map(target), F)


def writer_inputs():
    """Structures on each side of the writer's chunk edges, with elements
    holding no, one and several marks and a predicate that holds nowhere,
    and the map-file fixtures above."""
    yield fixed_point()
    yield FiniteMapping(f=(0,), marks={"V": {0}}, signature=Signature(("U", "V")))
    rng = random.Random(7)
    names = ("A", "B", "C_2", "never")
    for n in (4095, 4096, 4097, 8192):
        marks = {
            name: frozenset(v for v in range(n) if rng.random() < 0.3)
            for name in names[:3]
        }
        f = tuple(rng.randrange(n) for _ in range(n))
        yield FiniteMapping(f=f, marks=marks, signature=Signature(names))
    yield cycle(3, {"U": frozenset({0})})
    yield parse_map(CANONICAL)
    for seed in range(5):
        yield seeded(10 + seed, seed)


def expect_error(text, fragment, line):
    with pytest.raises(FormatError) as caught:
        parse_map(text)
    assert fragment in str(caught.value)
    assert caught.value.line == line


class TestMapErrors:
    def test_trailing_newline_required(self):
        expect_error(CANONICAL[:-1], "trailing newline", None)

    def test_header_version(self):
        expect_error(CANONICAL.replace("mapfile 1", "mapfile 2"), "unsupported", 1)

    def test_count_line(self):
        expect_error(CANONICAL.replace("n 3", "n x"), "n <count>", 2)

    def test_predicate_name(self):
        expect_error(CANONICAL.replace("predicates U", "predicates 9x"), "name", 3)

    def test_duplicate_predicate(self):
        expect_error(
            CANONICAL.replace("predicates U", "predicates U U"), "duplicate", 3
        )

    def test_record_count(self):
        expect_error(CANONICAL.replace("1 -> 2 []\n", ""), "expected 3 records", 5)

    def test_record_syntax(self):
        expect_error(CANONICAL.replace("1 -> 2 []", "1 ->2 []"), "bad record", 5)

    def test_duplicate_id(self):
        expect_error(
            CANONICAL.replace("1 -> 2 []", "0 -> 2 []"), "duplicate element id", 5
        )

    def test_id_gap(self):
        expect_error(CANONICAL.replace("1 -> 2 []", "2 -> 2 []"), "ascend", 5)

    def test_image_range(self):
        expect_error(CANONICAL.replace("1 -> 2 []", "1 -> 9 []"), "out of range", 5)

    def test_marks_sorted(self):
        text = CANONICAL.replace("predicates U", "predicates U V").replace(
            "0 -> 1 [U]", "0 -> 1 [V U]"
        )
        expect_error(text, "sorted", 4)

    def test_marks_distinct(self):
        expect_error(CANONICAL.replace("[U]", "[U U]"), "sorted and distinct", 4)

    def test_marks_declared(self):
        expect_error(CANONICAL.replace("[U]", "[W]"), "undeclared", 4)


class TestFractions:
    def test_to_text(self):
        assert fraction_to_text(Fraction(1)) == "1/1"
        assert fraction_to_text(Fraction(3, 6)) == "1/2"

    def test_from_text(self):
        assert fraction_from_text("2/4") == Fraction(1, 2)

    def test_from_text_errors(self):
        with pytest.raises(FormatError):
            fraction_from_text("nope")
        with pytest.raises(FormatError) as caught:
            fraction_from_text("1/0", line=7)
        assert caught.value.line == 7
        with pytest.raises(FormatError):
            fraction_from_text(0.5)
        # Only an optional minus sign, decimal digits and "/denominator".
        for text in ("0.5", "1e-1", " 1/2", "1/2 ", "+1/2", "1_0/3", "1/-2", "1/00", ""):
            with pytest.raises(FormatError, match="not a rational") as caught:
                fraction_from_text(text, line=3)
            assert caught.value.line == 3
        assert fraction_from_text("-6") == -6
        assert fraction_from_text("-03/06") == Fraction(-1, 2)


class TestStructureJson:
    def test_round_trip(self):
        F = seeded(9, 4)
        data = json.loads(json.dumps(structure_to_json(F)))
        assert structurally_equal(structure_from_json(data), F)

    def test_malformed(self):
        with pytest.raises(FormatError):
            structure_from_json([1, 2])
        with pytest.raises(FormatError):
            structure_from_json({"n": 1})
        with pytest.raises(FormatError):
            structure_from_json(
                {"n": 1, "predicates": [], "f": ["0"], "marks": {}}
            )
        # An empty string or object, or a Python set, is no member list.
        for members in (["a"], [0.5], [None], 3, [False], [True], "", {}, {0}):
            with pytest.raises(FormatError):
                structure_from_json(
                    {"n": 1, "predicates": ["U"], "f": [0], "marks": {"U": members}}
                )
        # A member is checked as written, before a set merges false into 0
        # or 1.0 into 1.
        for members in ([0, False], [1, 1.0], [True, 1]):
            with pytest.raises(FormatError, match="mark members must be integers"):
                structure_from_json(
                    {"n": 2, "predicates": ["U"], "f": [0, 0], "marks": {"U": members}}
                )
        # JSON true and false load as bools, which Python counts as ints.
        for f in ([True, 0], [0, False]):
            with pytest.raises(FormatError, match="function values"):
                structure_from_json({"predicates": ["U"], "f": f, "marks": {"U": []}})
        # A header that disagrees with its body: n is the length of f.
        for n in (5, 1, 0, "2", 2.0, True, None):
            with pytest.raises(FormatError, match="but f has 2 values"):
                structure_from_json(
                    {"n": n, "predicates": ["U"], "f": [0, 0], "marks": {"U": []}}
                )
        # Every marked predicate is declared.
        with pytest.raises(FormatError, match="undeclared predicates \\['V'\\]"):
            structure_from_json(
                {"n": 2, "predicates": ["U"], "f": [0, 0], "marks": {"U": [], "V": [1]}}
            )
        # predicates and f are JSON arrays, marks an object: a string or an
        # object of names declares no predicates.
        for data in (
            {"predicates": "UV", "f": [0], "marks": {"U": [], "V": [0]}},
            {"predicates": {"U": 5}, "f": [0], "marks": {"U": []}},
            {"predicates": ["U"], "f": {0: 0}, "marks": {"U": []}},
            {"predicates": [], "f": [0], "marks": []},
        ):
            with pytest.raises(FormatError, match="must be arrays, its marks an object"):
                structure_from_json(data)


class TestTypeJson:
    def test_round_trip_preserves_type(self):
        corpus = [path(5), cycle(6), star(4), seeded(14, 8)]
        for F in corpus:
            for v in (0, F.n - 1):
                for r in (0, 1, 2):
                    t = local_type(F, v, r, TABLE)
                    fresh = TypeTable()
                    back = type_from_json(type_to_json(t), table=fresh)
                    assert types_equal(back, local_type(F, v, r, fresh))

    def test_witness_is_the_padded_ball(self):
        F = path(5)
        data = type_to_json(local_type(F, 0, 1, TABLE))
        assert data["witness"]["n"] == len(ball(F, 0, 2))
        assert data["root"] == 0

    def test_boundary_keeps_true_images(self):
        # the exported witness of a path head must not gain a fixed point
        # within the rounds the rank can see
        F = path(5)
        back = type_from_json(type_to_json(local_type(F, 0, 1, TABLE)), TABLE)
        assert types_equal(back, local_type(F, 0, 1, TABLE))
        witness = back.structure
        assert witness.f[back.element] != back.element

    def test_malformed(self):
        with pytest.raises(FormatError):
            type_from_json(42)
        with pytest.raises(FormatError):
            type_from_json({"rank": -1, "root": 0, "witness": {}})
        with pytest.raises(FormatError):
            type_from_json({"rank": 1})
        witness = structure_to_json(cycle(3))
        for rank, root in ((True, 0), (False, 0), (1, True), (1, False)):
            with pytest.raises(FormatError, match="bad type"):
                type_from_json({"rank": rank, "root": root, "witness": witness})


class TestMeasureJson:
    def cut_measure(self):
        H = cycle_cut_product(seeded(10, 2), 6, 3, TABLE)
        return type_distribution(H, 3, TABLE)

    def test_round_trip(self):
        mu = self.cut_measure()
        data = json.loads(json.dumps(measure_to_json(mu)))
        back = measure_from_json(data, table=TypeTable())
        assert back.rank == mu.rank
        assert len(back.entries) == len(mu.entries)
        assert measure_tv(back, mu) == 0

    def test_file_round_trip_realizes(self, tmp_path):
        mu = self.cut_measure()
        target = tmp_path / "m.json"
        write_measure(mu, target)
        fresh = TypeTable()
        back = read_measure(target, table=fresh)
        out = realize(back, 1)
        assert measure_tv(type_distribution(out, 1, fresh), mu.project(1)) == 0

    def test_malformed(self):
        mu = self.cut_measure()
        data = measure_to_json(mu)
        with pytest.raises(FormatError):
            measure_from_json({**data, "format": "else"})
        with pytest.raises(FormatError):
            measure_from_json({**data, "version": 99})
        with pytest.raises(FormatError):
            measure_from_json({**data, "entries": "nope"})
        with pytest.raises(FormatError):
            measure_from_json({**data, "rank": "3"})
        with pytest.raises(FormatError, match="unsupported measure version True"):
            measure_from_json({**data, "version": True})
        for rank in (True, False):
            with pytest.raises(FormatError, match="bad measure rank"):
                measure_from_json({**data, "rank": rank})

    def test_read_rejects_bad_json(self, tmp_path):
        target = tmp_path / "m.json"
        target.write_text("{not json")
        with pytest.raises(FormatError):
            read_measure(target)


class TestCertificateJson:
    def test_round_trip_verifies(self):
        H = cycle_cut_product(seeded(10, 2), 6, 3, TABLE)
        mu = type_distribution(H, 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        data = json.loads(json.dumps(certificate_to_json(cert)))
        assert data["format"] == "certificate"
        assert len(data["types"]) <= 2 * len(mu.entries)
        fresh = TypeTable()
        back = certificate_from_json(data, table=fresh)
        mu_fresh = measure_from_json(measure_to_json(mu), table=fresh)
        assert back.R == cert.R and back.r == cert.r
        assert verify_certificate(mu_fresh, back)

    def test_malformed(self):
        with pytest.raises(FormatError):
            certificate_from_json({"format": "else"})
        bad = {
            "format": "certificate",
            "version": 1,
            "rank": 3,
            "r": 1,
            "types": [],
            "entries": [{"tau": 0, "t": 0, "s": "1/1"}],
        }
        with pytest.raises(FormatError):
            certificate_from_json(bad)
        H = cycle_cut_product(seeded(10, 2), 6, 3, TABLE)
        cert = restricted_fmtp_certificate(type_distribution(H, 3, TABLE), 1)
        good = certificate_to_json(cert)
        with pytest.raises(FormatError, match="unsupported certificate version True"):
            certificate_from_json({**good, "version": True})
        for rank, r in ((True, 1), (3, False), (True, False)):
            with pytest.raises(FormatError, match="rank and r must be integers"):
                certificate_from_json({**good, "rank": rank, "r": r})
        first = good["entries"][0]
        for ref in ({"tau": False}, {"t": True}, {"tau": -1}):
            entries = [{**first, **ref}, *good["entries"][1:]]
            with pytest.raises(FormatError, match="bad certificate entry"):
                certificate_from_json({**good, "entries": entries})


def json_texts(data) -> tuple[str, str]:
    return json.dumps(data), json.dumps(data, indent=2)


def read_outcome(read, data):
    """The structure `read` builds from `data`, or the class and text of
    the error it raises."""
    try:
        return read(data)
    except MapproxError as failure:
        return type(failure), str(failure)


def assert_readers_agree(data):
    got = read_outcome(structure_from_json, data)
    expected = read_outcome(structure_from_json_per_predicate, data)
    if isinstance(expected, tuple):
        assert got == expected, data
    else:
        assert structurally_equal(got, expected), data


class TestJsonOracles:
    """The writer against `restrict` plus a per-predicate writer, and the
    reader against a per-predicate reader (tests/oracles.py)."""

    def test_exhaustive_small(self):
        # Every mapping with n <= 4 up to relabeling, under every marking
        # by one predicate, every element at ranks 0-3.
        table = TypeTable()
        for n in (1, 2, 3, 4):
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("U",)):
                    texts = json_texts(structure_to_json(F))
                    assert texts == json_texts(structure_to_json_by_extensions(F))
                    assert_readers_agree(json.loads(texts[0]))
                    for v in F.elements():
                        for rank in (0, 1, 2, 3):
                            t = local_type(F, v, rank, table)
                            texts = json_texts(type_to_json(t))
                            assert texts == json_texts(type_to_json_by_restrict(t))
                            assert_readers_agree(json.loads(texts[0])["witness"])

    @pytest.mark.parametrize("n, seed", [(6, 1), (10, 2), (12, 3)])
    def test_cut_measure_entries(self, n, seed):
        table = TypeTable()
        mu = type_distribution(cycle_cut_product(seeded(n, seed), 6, 3, table), 3, table)
        written = measure_to_json(mu)["entries"]
        assert len(written) == len(mu.entries)
        for (t, _), entry in zip(mu.entries, written):
            texts = json_texts(entry["type"])
            assert texts == json_texts(type_to_json_by_restrict(t))
            assert_readers_agree(json.loads(texts[0])["witness"])

    def test_malformed_same_error(self):
        def with_marks(marks):
            return {"n": 2, "predicates": ["U", "V"], "f": [1, 0], "marks": marks}

        cases = [
            with_marks({"U": [0]}),  # V missing
            with_marks({"U": [0], "V": [], "W": [1]}),  # W undeclared
        ]
        for member in (0, None, 3, "a", True, 0.5):
            for members in (member, [member]):
                cases.append(with_marks({"U": members, "V": []}))
                cases.append(with_marks({"U": [0], "V": members}))
        errors = 0
        for data in cases:
            assert_readers_agree(data)
            errors += isinstance(read_outcome(structure_from_json, data), tuple)
        assert errors == len(cases) - 2  # only [0] is a valid member list


def measure_outcome(read, data, table):
    """What `read` makes of measure JSON in `table`: each entry's canonical
    id and mass, the measure written back, each entry's key, and at rank 3
    and up its rank-1 certificate digest and realized maps; or the class
    and text of the error it raises."""
    try:
        mu = read(data, table)
    except MapproxError as failure:
        return type(failure), str(failure)
    outcome = [
        [(t.canonical_id, mass) for t, mass in mu.entries],
        json_texts(measure_to_json(mu)),
        [t.key for t, _ in mu.entries],
    ]
    if mu.rank >= 3:
        cert = restricted_fmtp_certificate(mu, 1)
        valid = isinstance(cert, CompanionCertificate)
        outcome.append(certificate_digest(cert) if valid else str(cert))
        for multiplier in (1, 2):
            outcome.append(read_outcome(lambda m: dump_map(realize(m, 1, multiplier)), mu))
    return outcome


def certificate_outcome(read, data, table):
    """What `read` makes of certificate JSON in `table`: its digest, the
    JSON written back and each entry's keys; or the error's class and
    text."""
    try:
        cert = read(data, table)
    except MapproxError as failure:
        return type(failure), str(failure)
    keys = [(tau.key, t.key, s) for tau, t, s in cert.entries]
    return [certificate_digest(cert), json_texts(certificate_to_json(cert)), keys]


READERS = {
    measure_outcome: (measure_from_json, measure_from_json_per_witness),
    certificate_outcome: (certificate_from_json, certificate_from_json_per_witness),
}


def assert_readers_outcome(outcome, data, table=None, keys=True):
    """`outcome` of the union reader and of the per-witness reader of one
    file, each in a fresh table or both in `table`, which must agree, keys
    included when `keys` is set.  Returns the union reader's."""
    got, expected = (outcome(read, data, table or TypeTable()) for read in READERS[outcome])
    if not keys and isinstance(got, list) and isinstance(expected, list):
        del got[2], expected[2]
    assert got == expected, data
    return got


def assert_file_readers_agree(data, table=None, keys=True):
    """Both readers on `data` as a measure file and on its types as a
    certificate file; returns the union reader's measure outcome."""
    measure = {"format": "measure", "version": 1, **data}
    types = [entry.get("type") if isinstance(entry, dict) else entry for entry in data["entries"]]
    certificate = {"format": "certificate", "version": 1, "rank": data["rank"], "r": 0}
    certificate = {**certificate, "types": types, "entries": []}
    assert_readers_outcome(certificate_outcome, certificate, table, keys)
    return assert_readers_outcome(measure_outcome, measure, table, keys)


class TestUnionReader:
    """measure_from_json and certificate_from_json, which type a file's
    witnesses in one union per predicate tuple, against the per-witness
    readers of tests/oracles.py."""

    def test_exhaustive_small(self):
        # Every mapping with n <= 4 up to relabeling, under every marking
        # by one predicate, as its type distribution at ranks 1-3.
        realized = 0
        for n in (1, 2, 3, 4):
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("U",)):
                    for rank in (1, 2, 3):
                        mu = type_distribution(F, rank, TypeTable())
                        data = json.loads(json.dumps(measure_to_json(mu)))
                        outcome = assert_file_readers_agree(data)
                        assert outcome[1][0] == json.dumps(data)
                        realized += rank == 3 and isinstance(outcome[-1], str)
        assert realized > 50

    @pytest.mark.parametrize("n, seed", [(6, 1), (10, 2), (12, 3)])
    def test_cut_measures_and_certificates(self, n, seed):
        table = TypeTable()
        mu = type_distribution(cycle_cut_product(seeded(n, seed), 6, 3, table), 3, table)
        data = json.loads(json.dumps(measure_to_json(mu)))
        cert = restricted_fmtp_certificate(mu, 1)
        certificate = json.loads(json.dumps(certificate_to_json(cert)))
        # A witness that is a whole cut-product component is a cut product
        # itself, and a fresh table claims its m from it (localtypes), so
        # the per-witness reader can intern other value numbers than the
        # union reader: ids are compared in fresh tables, keys in the
        # source table, where both must give back the source's keys.
        outcome = assert_file_readers_agree(data, keys=False)
        assert outcome[1][0] == json.dumps(data)
        assert [mass for _, mass in outcome[0]] == [mass for _, mass in mu.entries]
        assert all(isinstance(maps, str) for maps in outcome[4:])
        got = assert_readers_outcome(certificate_outcome, certificate, keys=False)
        assert json.loads(got[1][0]) == certificate
        outcome = assert_file_readers_agree(data, table)
        assert outcome[2] == [t.key for t, _ in mu.entries]
        assert outcome[3] == certificate_digest(cert)
        got = assert_readers_outcome(certificate_outcome, certificate, table)
        assert got[0] == certificate_digest(cert)
        assert got[2] == [(tau.key, t.key, s) for tau, t, s in cert.entries]

    def test_two_predicate_tuples(self, monkeypatch):
        table = TypeTable()
        marked = FiniteMapping(f=(0, 0, 1), marks={"V": {1}})
        types = [local_type(cycle(3), 0, 1, table), local_type(marked, 2, 1, table)]
        types.append(local_type(marked, 1, 1, table))
        masses = ("1/2", "1/4", "1/4")
        entries = [{"mass": m, "type": type_to_json(t)} for m, t in zip(masses, types)]
        outcome = assert_file_readers_agree({"rank": 1, "entries": entries})
        assert json.loads(outcome[1][0])["entries"] == entries
        # One structure per predicate tuple: () and ("V",).
        built = []
        post_init = FiniteMapping.__post_init__
        monkeypatch.setattr(
            FiniteMapping, "__post_init__", lambda F: built.append(post_init(F))
        )
        data = {"format": "measure", "version": 1, "rank": 1, "entries": entries}
        measure_from_json(data, table=TypeTable())
        assert len(built) == 2

    def test_malformed_same_error(self):
        good = type_to_json(local_type(cycle(2), 0, 1, TypeTable()))
        pair = {"n": 2, "predicates": ["U", "V"], "f": [1, 0]}
        witnesses = [
            {**pair, "marks": {"U": [0]}},  # V missing
            {**pair, "marks": {"U": [0], "V": [], "W": [1]}},  # W undeclared
            {**pair, "predicates": ["U", "U"], "marks": {"U": [0]}},
            {"predicates": ["U", "V"], "f": [], "marks": {"U": [], "V": []}},
            {**pair, "f": [1, -1], "marks": {"U": [], "V": []}},
            {**pair, "marks": {"U": [-1], "V": []}},
            {**pair, "marks": {"U": [[0]], "V": []}},
            {**pair, "marks": {"U": None, "V": [[0]]}},
            {**pair, "marks": {"U": [0], "V": {"a": 1}}},
        ]
        for member in (0, None, 3, "a", True, 0.5):
            for members in (member, [member]):
                witnesses.append({**pair, "marks": {"U": members, "V": []}})
                witnesses.append({**pair, "marks": {"U": [0], "V": members}})
        types = [{"rank": 1, "root": 0, "witness": w} for w in witnesses]
        types += [
            {**good, "root": 2},
            {**good, "root": -1},
            {**good, "rank": -1},
            {**good, "root": "0"},
            {"rank": 1, "root": 0},
            7,
        ]
        # In range for the union of all three witnesses, not for the first:
        # an image, a mark member and the root.
        narrow = {"n": 2, "predicates": ["U"], "f": [1, 0], "marks": {"U": [1]}}
        wide = {"n": 4, "predicates": ["U"], "f": [1, 2, 3, 0], "marks": {"U": []}}
        for first in (
            {"rank": 1, "root": 0, "witness": {**narrow, "f": [1, 3]}},
            {"rank": 1, "root": 0, "witness": {**narrow, "marks": {"U": [3]}}},
            {"rank": 1, "root": 4, "witness": narrow},
        ):
            second = {"rank": 1, "root": 1, "witness": wide}
            types.append(first)
            errors = []
            for masses in (("1/3", "1/3", "1/3"), ("0.5", "1/3", "1/3")):
                entries = [{"mass": m, "type": t} for m, t in zip(masses, (second, first, second))]
                errors.append(assert_file_readers_agree({"rank": 1, "entries": entries}))
            assert errors[0][1].startswith(("f(1) = 3", "element 3", "element 4"))
            assert errors[1][1] == "not a rational: '0.5'"  # in file order
        errors = 0
        for bad in types:
            entries = [{"mass": "1/2", "type": good}, {"mass": "1/2", "type": bad}]
            outcome = assert_file_readers_agree({"rank": 1, "entries": entries})
            errors += isinstance(outcome, tuple)
            # A fault of an entry comes before one of the entry after it.
            entries = [{"mass": "1/2", "type": bad}, {"mass": "x", "type": good}]
            later = assert_file_readers_agree({"rank": 1, "entries": entries})
            assert later == outcome if isinstance(outcome, tuple) else later[1].endswith("'x'")
        assert errors == len(types) - 2  # only [0] is a valid member list
        # Whole-file faults after every entry was read.
        for masses in (("1/2", "1/4"), ("1/2", "1/2")):
            entries = [{"mass": m, "type": good} for m in masses]
            outcome = assert_file_readers_agree({"rank": 1, "entries": entries})
            assert isinstance(outcome, tuple)


class TestWitnessCost:
    def cut_measure_and_certificate(self):
        table = TypeTable()
        mu = type_distribution(cycle_cut_product(seeded(10, 2), 6, 3, table), 3, table)
        return mu, restricted_fmtp_certificate(mu, 1)

    def test_readers_share_one_signature(self, monkeypatch):
        mu, cert = self.cut_measure_and_certificate()
        measure = json.loads(json.dumps(measure_to_json(mu)))
        certificate = json.loads(json.dumps(certificate_to_json(cert)))
        built = []
        post_init = Signature.__post_init__

        def counted(self):
            built.append(self.predicates)
            post_init(self)

        monkeypatch.setattr(Signature, "__post_init__", counted)
        measure_from_json(measure, table=TypeTable())
        assert len(built) == 1
        certificate_from_json(certificate, table=TypeTable())
        assert len(built) == 2

    def test_readers_build_one_structure_per_predicate_tuple(self, monkeypatch):
        mu, cert = self.cut_measure_and_certificate()
        measure = json.loads(json.dumps(measure_to_json(mu)))
        certificate = json.loads(json.dumps(certificate_to_json(cert)))
        assert len(mu.entries) > 50 and len(certificate["types"]) > 50
        built = []
        post_init = FiniteMapping.__post_init__

        def counted(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(FiniteMapping, "__post_init__", counted)
        back = measure_from_json(measure, table=TypeTable())
        assert len(built) == 1
        assert built[0] == sum(entry["type"]["witness"]["n"] for entry in measure["entries"])
        assert {t.structure for t, _ in back.entries} == {back.entries[0][0].structure}
        certificate_from_json(certificate, table=TypeTable())
        assert len(built) == 2

    def test_writers_build_no_structure(self, monkeypatch):
        mu, cert = self.cut_measure_and_certificate()

        def refuse(*args, **kwargs):
            raise AssertionError("a witness structure was built")

        monkeypatch.setattr(structure, "restrict", refuse)
        # and the writer's own name for it, where it imports one
        monkeypatch.setattr(mapfile, "restrict", refuse, raising=False)
        monkeypatch.setattr(FiniteMapping, "__post_init__", refuse)
        measure_to_json(mu)
        certificate_to_json(cert)


class TestJsonable:
    def test_conversions(self):
        value = {
            1: Fraction(5, 3),
            "s": frozenset({3, 1}),
            "t": (1, 2),
            "nested": {"f": [Fraction(1, 2)]},
        }
        assert jsonable(value) == {
            "1": "5/3",
            "s": [1, 3],
            "t": [1, 2],
            "nested": {"f": ["1/2"]},
        }

    def test_fallback_repr(self):
        converted = jsonable({"x": object()})
        assert converted["x"].startswith("<object")
