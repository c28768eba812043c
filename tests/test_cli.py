"""End-to-end command-line behavior, run in process."""

import importlib
import json
from fractions import Fraction

import pytest

from helpers import broken_cut_products, cycle, star, structurally_equal
from mapprox.cli import main
from mapprox.localtypes import TypeTable, type_distribution
from mapprox.mapfile import (
    dump_map,
    jsonable,
    measure_to_json,
    parse_map,
    read_map,
    write_map,
)
from mapprox.randgen import random_mapping
from mapprox.structure import FiniteMapping, cycle_cut_product


@pytest.fixture
def c3(tmp_path):
    target = tmp_path / "c3.map"
    write_map(cycle(3), target)
    return str(target)


@pytest.fixture
def random_map(tmp_path):
    target = tmp_path / "r.map"
    write_map(random_mapping(20, 4, {"U": Fraction(1, 4)}), target)
    return str(target)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTypes:
    def test_measure_json(self, capsys, c3):
        code, out, _ = run(capsys, ["types", c3, "--rank", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "measure"
        assert data["rank"] == 2
        assert [entry["mass"] for entry in data["entries"]] == ["1/1"]

    def test_table(self, capsys, c3):
        code, out, _ = run(capsys, ["types", c3, "--rank", "1", "--table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "type\tmass\tmass_float"
        assert lines[1].split("\t")[1:] == ["1/1", "1"]


class TestDistances:
    def test_dist_local(self, capsys, tmp_path, c3):
        other = tmp_path / "fp.map"
        other.write_text("mapfile 1\nn 1\npredicates\n0 -> 0 []\n")
        code, out, _ = run(
            capsys, ["dist", c3, str(other), "--p", "1", "--r", "0"]
        )
        assert code == 0
        assert json.loads(out)["distance"] == "1/1"

    def test_dist_fo(self, capsys, c3):
        code, out, _ = run(
            capsys, ["dist", c3, c3, "--p", "1", "--r", "1", "--kind", "fo"]
        )
        assert code == 0
        assert json.loads(out)["distance"] == "0/1"

    @pytest.mark.parametrize("kind", ["local", "fo"])
    def test_dist_pairs_see_earlier_marks(self, capsys, tmp_path, kind):
        # Fixed points 0 and 1 with U = {0}, against U = {0, 1}.
        paths = []
        for name, marked in (("a", {0}), ("b", {0, 1})):
            paths.append(str(tmp_path / f"{name}.map"))
            write_map(FiniteMapping(f=(0, 1), marks={"U": frozenset(marked)}), paths[-1])
        code, out, _ = run(
            capsys, ["dist", *paths, "--p", "2", "--r", "0", "--kind", kind]
        )
        assert code == 0
        assert json.loads(out)["distance"] == "3/4"

    def test_ef(self, capsys, c3):
        code, out, _ = run(capsys, ["ef", c3, c3, "--r", "3"])
        assert code == 0
        assert json.loads(out) == {"r": 3, "equivalent": True}

    def test_ef_reaches_large_maps(self, capsys, tmp_path):
        # Two 2,000-element maps at rank 2 play 1 + 2,000 positions each,
        # far inside the work budget.
        paths = []
        for seed in (0, 1):
            paths.append(str(tmp_path / f"{seed}.map"))
            write_map(random_mapping(2000, seed, {"U": Fraction(1, 4)}), paths[-1])
        code, out, _ = run(capsys, ["ef", *paths, "--r", "2"])
        assert code == 0
        assert json.loads(out) == {"r": 2, "equivalent": False}


class TestFmtp:
    def test_exhaustive_small(self, capsys, c3):
        code, out, _ = run(capsys, ["fmtp", c3])
        assert code == 0
        data = json.loads(out)
        assert data == {"mode": "exhaustive", "n": 3, "pairs": 64, "ok": True}

    def test_sampled_large(self, capsys, random_map):
        code, out, _ = run(capsys, ["fmtp", random_map, "--seed", "5"])
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "sampled"
        assert data["trials"] == 1000
        assert data["ok"] is True and data["failures"] == 0

    def test_trials_forces_sampling(self, capsys, c3):
        code, out, _ = run(capsys, ["fmtp", c3, "--trials", "10"])
        assert code == 0
        assert json.loads(out)["mode"] == "sampled"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_1(self, capsys, c3, trials):
        code, out, err = run(capsys, ["fmtp", c3, "--trials", trials])
        assert code == 1
        assert out == ""
        assert "trials must be at least 1" in err


class TestConstructionCommands:
    def test_cut_then_rewire_recovers_distribution(
        self, capsys, tmp_path, random_map
    ):
        cut_path = str(tmp_path / "cut.map")
        code, _, _ = run(
            capsys,
            ["cut", random_map, "--m", "6", "--type-rank", "3", "--out", cut_path],
        )
        assert code == 0
        back_path = str(tmp_path / "back.map")
        code, _, _ = run(
            capsys,
            ["rewire", cut_path, "--m", "6", "--clean", "3", "--out", back_path],
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["dist", random_map, back_path, "--p", "1", "--r", "2"]
        )
        assert code == 0
        assert json.loads(out)["distance"] == "0/1"

    def test_certificate(self, capsys, tmp_path, random_map):
        cut_path = str(tmp_path / "cut.map")
        run(capsys, ["cut", random_map, "--m", "6", "--type-rank", "3", "--out", cut_path])
        code, out, _ = run(
            capsys, ["certificate", cut_path, "--rank", "3", "--r", "1"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["format"] == "certificate"
        assert len(data["digest"]) == 64
        assert data["entries"]

    def test_cut_product_read_back_is_registered(
        self, capsys, tmp_path, random_map, monkeypatch
    ):
        # The type table recognizes a cut product read from a map file, and
        # `types` and `certificate` play it in layer 0 only; the output is
        # byte-identical to playing every layer.
        cut_path = str(tmp_path / "cut.map")
        run(capsys, ["cut", random_map, "--m", "6", "--type-rank", "3", "--out", cut_path])
        outputs = []
        for registering in (True, False):
            if not registering:
                monkeypatch.setattr("mapprox.localtypes.cut_product_layers", lambda F: 0)
            for argv in (["types", "--rank", "3"], ["certificate", "--rank", "3", "--r", "1"]):
                table = TypeTable()
                monkeypatch.setattr("mapprox.cli.global_table", lambda: table)
                code, out, _ = run(capsys, [argv[0], cut_path, *argv[1:]])
                assert code == 0
                assert table._layers == (6 if registering else None)
                outputs.append(out)
        assert outputs[:2] == outputs[2:]

    def test_broken_cut_products_are_typed_directly(
        self, capsys, tmp_path, monkeypatch
    ):
        P = cycle_cut_product(random_mapping(5, 4, {"U": Fraction(1, 2)}), 6, 1, TypeTable())
        path = tmp_path / "broken.map"
        for name, broken in broken_cut_products(P).items():
            write_map(broken, path)
            table = TypeTable()
            monkeypatch.setattr("mapprox.cli.global_table", lambda: table)
            code, out, _ = run(capsys, ["types", str(path), "--rank", "3"])
            assert code == 0
            assert table._layers is None, name
            direct = type_distribution(read_map(path), 3, TypeTable())
            assert out == json.dumps(jsonable(measure_to_json(direct)), indent=2) + "\n", name

    def test_certificate_rank_error_exits_1(self, capsys, tmp_path):
        star_path = tmp_path / "star.map"
        star_path.write_text(
            "mapfile 1\nn 3\npredicates\n0 -> 0 []\n1 -> 0 []\n2 -> 0 []\n"
        )
        code, out, err = run(
            capsys, ["certificate", str(star_path), "--rank", "3", "--r", "2"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "rank >= 5" in err

    def test_types_pipes_into_realize(self, capsys, tmp_path, random_map):
        cut_path = str(tmp_path / "cut.map")
        run(capsys, ["cut", random_map, "--m", "6", "--type-rank", "3", "--out", cut_path])
        code, out, _ = run(capsys, ["types", cut_path, "--rank", "3"])
        assert code == 0
        measure_path = tmp_path / "mu.json"
        measure_path.write_text(out)
        realized_path = str(tmp_path / "real.map")
        code, _, _ = run(
            capsys,
            ["realize", str(measure_path), "--r", "1", "--out", realized_path],
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["dist", cut_path, realized_path, "--p", "1", "--r", "1"]
        )
        assert code == 0
        assert json.loads(out)["distance"] == "0/1"

    def test_compress(self, capsys, tmp_path):
        wide = tmp_path / "wide.map"
        write_map(random_mapping(1, 0), wide)
        star = parse_map(
            "mapfile 1\nn 5\npredicates\n"
            "0 -> 0 []\n1 -> 0 []\n2 -> 0 []\n3 -> 0 []\n4 -> 0 []\n"
        )
        write_map(star, wide)
        code, out, _ = run(capsys, ["compress", str(wide), "--r", "2"])
        assert code == 0
        assert parse_map(out).n == 3


class TestRandomAndCycles:
    def test_random_deterministic(self, capsys):
        code, out, _ = run(
            capsys,
            ["random", "--n", "8", "--seed", "3", "--density", "U=1/4"],
        )
        assert code == 0
        assert structurally_equal(
            parse_map(out), random_mapping(8, 3, {"U": Fraction(1, 4)})
        )

    def test_random_repeated_density_exits_1(self, capsys):
        code, out, err = run(
            capsys,
            ["random", "--n", "8", "--seed", "1", "--density", "U=1/2", "--density", "U=1/8"],
        )
        assert code == 1
        assert out == ""
        assert "predicate 'U' declared or generated twice" in err

    def test_random_bad_density_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["random", "--n", "4", "--seed", "0", "--density", "U"])
        assert caught.value.code == 2

    def test_cycles_json(self, capsys):
        code, out, _ = run(
            capsys, ["cycles", "--n", "50", "--samples", "20", "--rmax", "2"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["rows"][0]["r"] == 1
        assert data["rows"][0]["exact"] == "1/1"
        assert data["rows"][1]["exact"] == "49/100"

    def test_cycles_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["cycles", "--n", "10", "--samples", "5", "--rmax", "1", "--table"],
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.split("\t") == [
            "r",
            "empirical",
            "exact",
            "empirical_float",
            "exact_float",
        ]
        assert row.split("\t")[2] == "1/1"


class TestPipelineCommand:
    def test_report_and_out(self, capsys, tmp_path, random_map):
        approx_path = str(tmp_path / "approx.map")
        code, out, _ = run(
            capsys,
            [
                "pipeline",
                random_map,
                "--p",
                "1",
                "--r",
                "1",
                "--eps",
                "1/8",
                "--out",
                approx_path,
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["version"] == 2
        assert report["parameters"]["eps"] == "1/8"
        Fraction(report["ldist"]["final"])
        G = read_map(approx_path)
        assert G.n == report["stages"][-1]["size"]

    def test_factorial_schedule_exits_1(self, capsys, random_map):
        code, out, err = run(
            capsys,
            [
                "pipeline",
                random_map,
                "--p",
                "1",
                "--r",
                "2",
                "--eps",
                "1/10",
                "--factorial-schedule",
            ],
        )
        assert code == 1
        assert out == ""
        assert "cut = clean! =" in err

    def test_rank_zero_exits_1(self, capsys, random_map):
        code, out, err = run(
            capsys, ["pipeline", random_map, "--p", "1", "--r", "0", "--eps", "1/8"]
        )
        assert code == 1
        assert out == ""
        assert "r must be at least 1" in err


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["types", "/no/such/file.map", "--rank", "1"])
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("mapfile 1\nn 2\npredicates\n0 -> 0 []\n0 -> 0 []\n")
        code, _, err = run(capsys, ["types", str(bad), "--rank", "1"])
        assert code == 1
        assert "duplicate element id" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["types", "{a}", "--rank", "-1"], "rank must be nonnegative"),
            (["types", "{a}", "--rank", "-2"], "rank must be nonnegative"),
            (["ef", "{a}", "{b}", "--r", "-1"], "rank must be nonnegative"),
            (["dist", "{a}", "{b}", "--p", "1", "--r", "-1"], "rank must be nonnegative"),
            (
                ["dist", "{a}", "{b}", "--p", "1", "--r", "-1", "--kind", "fo"],
                "rank must be nonnegative",
            ),
            (
                ["dist", "{a}", "{b}", "--p", "-1", "--r", "1", "--kind", "fo"],
                "p must be nonnegative",
            ),
            (["realize", "{mu}", "--r", "-1"], "rank must be nonnegative"),
        ],
        ids=[
            "types-r-1",
            "types-r-2",
            "ef",
            "dist-local",
            "dist-fo-r",
            "dist-fo-p",
            "realize",
        ],
    )
    def test_negative_rank_or_p_exits_1(self, capsys, tmp_path, argv, message):
        paths = {}
        for key, F in (("a", cycle(3)), ("b", star(4))):
            paths[key] = str(tmp_path / f"{key}.map")
            write_map(F, paths[key])
        mu = type_distribution(cycle(3), 3, TypeTable())
        paths["mu"] = str(tmp_path / "mu.json")
        (tmp_path / "mu.json").write_text(json.dumps(jsonable(measure_to_json(mu))))
        code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 1
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_boolean_in_measure_exits_1(self, capsys, tmp_path):
        # JSON true loads as a bool, which Python counts as the int 1.
        data = jsonable(measure_to_json(type_distribution(cycle(6), 3, TypeTable())))
        target = tmp_path / "mu.json"
        target.write_text(json.dumps({**data, "version": True}))
        code, out, err = run(capsys, ["realize", str(target), "--r", "1"])
        assert code == 1
        assert out == ""
        assert "unsupported measure version True" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n", 1000, "n is 1000 but f has"),
            ("marks", {"V": [0]}, "undeclared predicates ['V']"),
        ],
    )
    def test_witness_header_disagreeing_with_body_exits_1(
        self, capsys, tmp_path, field, value, message
    ):
        # The measure realizes at multiplier 3 until one witness's header
        # disagrees with its body.
        data = jsonable(measure_to_json(type_distribution(cycle(6), 3, TypeTable())))
        target = tmp_path / "mu.json"
        argv = ["realize", str(target), "--r", "1", "--multiplier", "3"]
        target.write_text(json.dumps(data))
        assert run(capsys, argv)[0] == 0
        witness = data["entries"][0]["type"]["witness"]
        witness[field] = {**witness[field], **value} if field == "marks" else value
        target.write_text(json.dumps(data))
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cut", "{a}", "--m", "2", "--type-rank", "1"],
            ["pipeline", "{a}", "--p", "1", "--r", "1", "--eps", "1/2"],
        ],
        ids=["cut", "pipeline"],
    )
    def test_input_named_like_a_type_mark_exits_1(self, capsys, tmp_path, argv):
        # 0 <-> 1 and 2 fixed, 0 marked T7_acyc: a cut of it would carry two
        # type marks on one element, which rewire cannot read back.
        target = tmp_path / "a.map"
        write_map(FiniteMapping(f=(1, 0, 2), marks={"T7_acyc": {0}}), target)
        code, out, err = run(capsys, [arg.format(a=target) for arg in argv])
        assert code == 1
        assert out == ""
        assert "predicate 'T7_acyc' declared or generated twice" in err

    def test_domain_error(self, capsys, c3):
        code, _, err = run(capsys, ["cut", c3, "--m", "1", "--type-rank", "1"])
        assert code == 1
        assert "at least 2" in err

    @pytest.mark.parametrize(
        "argv, constant",
        [
            (["realize", "{mu}", "--r", "1", "--multiplier", "4"], "realize.MAX_REALIZE_SIZE"),
            (["cut", "{a}", "--m", "4", "--type-rank", "1"], "structure.MAX_PRODUCT_SIZE"),
        ],
        ids=["realize", "cut"],
    )
    def test_size_over_budget_exits_1(self, capsys, tmp_path, monkeypatch, argv, constant):
        # Both sizes are 12, one over the budget.
        module, name = constant.split(".")
        monkeypatch.setattr(importlib.import_module(f"mapprox.{module}"), name, 11)
        paths = {"a": str(tmp_path / "a.map"), "mu": str(tmp_path / "mu.json")}
        write_map(cycle(3), paths["a"])
        mu = type_distribution(cycle(3, {"U": {0}}), 3, TypeTable())
        (tmp_path / "mu.json").write_text(json.dumps(jsonable(measure_to_json(mu))))
        code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: work budget 11 exceeded (needed >= 12)")
        assert "Traceback" not in err

    def test_dist_over_budget(self, capsys, tmp_path):
        # Every radius-2 ball of a 1,200-leaf star holds the whole star.
        big = tmp_path / "star.map"
        write_map(star(1200), big)
        code, out, err = run(capsys, ["dist", str(big), str(big), "--p", "2", "--r", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: work budget 1000000 exceeded (needed >= ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["types", "{c}", "--rank", "600"],
            ["dist", "{c}", "{c}", "--p", "1", "--r", "600"],
            ["ef", "{c}", "{c}", "--r", "600"],
        ],
        ids=["types", "dist", "ef"],
    )
    def test_game_too_deep_exits_1(self, capsys, tmp_path, argv):
        # A 600-round game recurses past Python's stack limit.
        path = tmp_path / "c.map"
        write_map(cycle(1000), path)
        code, out, err = run(capsys, [arg.format(c=path) for arg in argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error: a rank-600 game recurses deeper")
        assert "Traceback" not in err

    def test_usage_error(self, capsys, c3):
        with pytest.raises(SystemExit) as caught:
            main(["dist", c3, c3, "--p", "1"])
        assert caught.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["frobnicate"])
        assert caught.value.code == 2
