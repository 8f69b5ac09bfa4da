import hashlib
import json
from argparse import Namespace
from importlib import resources
from time import perf_counter

import jsonschema
import pytest
from hypothesis import given, strategies as st

from riderpoly import bounds, lattice
from riderpoly.arrangement import intersection_semilattice
from riderpoly.cli import _error, _parse_range, main
from riderpoly.errors import CapacityError, RiderPolyError
from riderpoly.geometry import BoardPolygon, piece_from_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(instance, schema_name):
    from referencing import Registry, Resource
    from referencing.jsonschema import DRAFT7

    schemas = resources.files("riderpoly.schemas")
    schema = json.loads(schemas.joinpath(schema_name).read_text())
    registry = Registry()
    for item in schemas.iterdir():
        if item.name.endswith(".json"):
            resource = Resource.from_contents(
                json.loads(item.read_text()), default_specification=DRAFT7)
            registry = registry.with_resource(item.name, resource)
    jsonschema.Draft7Validator(schema, registry=registry).validate(instance)


@given(st.one_of(st.text(max_size=20),
                 st.text(alphabet="0123456789-+_: ", max_size=12)))
def test_parse_range_raises_only_input_errors(text):
    try:
        lo, hi = _parse_range("--n", text)
    except (RiderPolyError, ValueError):
        return
    assert isinstance(lo, int) and isinstance(hi, int)


class TestCount:
    def test_csv_two_queens(self, capsys):
        code, out = run_cli(capsys, "count", "--piece", "queen",
                            "--board", "square", "--q", "2", "--n", "1:6",
                            "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,labelled,unlabelled,method"
        unlabelled = [row.split(",")[2] for row in rows[1:]]
        assert unlabelled == ["0", "0", "8", "44", "140", "340"]

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "count", "--piece", "bishop", "--q", "2",
                            "--n", "1:4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "count_table.schema.json")

    def test_reconstruction_method(self, capsys):
        code, out = run_cli(capsys, "count", "--piece", "rook", "--q", "2",
                            "--n", "1:5", "--format", "json",
                            "--method", "reconstruction")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "reconstruction"
        assert data["rows"][4] == {"n": 5, "labelled": "400", "unlabelled": "200"}

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "count", "--piece", "queen", "--q", "2",
                           "--n", "1:5", "--format", "json")
        _, second = run_cli(capsys, "count", "--piece", "queen", "--q", "2",
                            "--n", "1:5", "--format", "json")
        assert first == second

    def test_capacity_exit_code(self, capsys):
        code, out = run_cli(capsys, "count", "--piece", "queen", "--q", "3",
                            "--n", "30", "--budget", "1000", "--format", "json")
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["type"] == "CapacityError"

    def test_search_envelope_context(self, capsys):
        # The 144-cell walk fits the budget; the 100**3 search does not.
        code, out = run_cli(capsys, "count", "--piece", "queen", "--q", "3",
                            "--n", "10", "--budget", "1000", "--format", "json")
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["context"] == {
            "n": "10", "envelope": str(100**3), "budget": "1000"}

    def test_search_envelope_counts_prefixes(self, capsys):
        # Past q = 4 the kernel's prefixes outnumber N**3: 144**3 fits.
        code, out = run_cli(capsys, "count", "--piece", "queen", "--q", "6",
                            "--n", "12", "--budget", "3000000",
                            "--format", "json")
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["context"] == {
            "n": "12", "envelope": "498685188", "budget": "3000000"}

    def test_alpha_windows_checked_before_counting(self, capsys):
        # Board denominator 60: a fitted class's window reaches n = -750,
        # where 786432 cells square to the envelope.  Every window is
        # checked before the first flat is counted.
        start = perf_counter()
        code, out = run_cli(capsys, "count", "--method", "reconstruction",
                            "--piece", "queen", "--q", "2", "--n", "1:8",
                            "--board", "poly:-2/3,0,1/5;0,-3,0;4,6,7",
                            "--format", "json")
        assert perf_counter() - start < 5
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["context"] == {
            "n": "-750", "envelope": "618475290624", "budget": "10000000000"}

    def test_closure_bound_from_smaller_closures(self, capsys, monkeypatch):
        # Seven queens pass the matching bound but not the one the 3-piece
        # closure gives, so no flat past the 92 of that closure is built.
        calls = []
        insert_row = lattice.insert_row

        def counted(*args):
            calls.append(args)
            return insert_row(*args)

        monkeypatch.setattr(lattice, "insert_row", counted)
        code, out = run_cli(capsys, "mobius", "--piece", "queen", "--q", "7",
                            "--format", "json")
        assert len(calls) == 92
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["context"] == {
            "flats": "716556", "budget": "200000", "k": "3"}

    # The reconstruction route's first walk is in its first alpha window,
    # at n = -2: the closed 1-fold dilate, the same box as n = 0.
    @pytest.mark.parametrize("method, cells", [("brute", 6001 * 6001),
                                               ("reconstruction", 3001 * 3001)],
                             ids=["brute", "reconstruction"])
    def test_board_walk_budget_checked_before_walking(self, capsys, method,
                                                      cells):
        start = perf_counter()
        code, out = run_cli(capsys, "count", "--piece", "queen", "--q", "2",
                            "--n", "1", "--board", "rect:3000,3000",
                            "--budget", "1000", "--format", "json",
                            "--method", method)
        assert perf_counter() - start < 5
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        error = data["error"]
        assert error["type"] == "CapacityError"
        assert error["context"]["cells"] == str(cells)

    # Both routes print the same rows or refuse with the same message.  At
    # negative n the counting quasipolynomial gives reciprocity values, not
    # counts, so both refuse the range, and a reversed one; q = 0 is the
    # empty placement, one per size.
    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    @pytest.mark.parametrize("method", ["brute", "reconstruction"])
    @pytest.mark.parametrize("q, n, message", [
        ("2", "-3:0", "n must be nonnegative"),
        ("2", "5:3", "n_from must not exceed n_to"),
        ("-1", "1:3", "q must be nonnegative"),
        ("0", "1:3", None),
    ], ids=["negative", "reversed", "negative-q", "zero-q"])
    def test_routes_agree_on_rows_or_error(self, capsys, q, n, message,
                                           method, fmt):
        code = main(["count", "--piece", "queen", f"--q={q}", f"--n={n}",
                     "--method", method, "--format", fmt])
        captured = capsys.readouterr()
        if message is None:
            assert code == 0
            assert captured.err == ""
            if fmt == "json":
                assert json.loads(captured.out)["rows"] == [
                    {"n": k, "labelled": "1", "unlabelled": "1"}
                    for k in (1, 2, 3)]
            else:
                assert captured.out.splitlines()[1:] == [
                    f"  n={k:<4d} unlabelled=1  labelled=1" for k in (1, 2, 3)]
            return
        assert code == 2
        if fmt == "json":
            data = json.loads(captured.out)
            validate(data, "error.schema.json")
            assert data["error"] == {"type": "ValueError", "message": message}
            assert captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_alpha_envelope_context(self, capsys):
        # Same context keys as the enumeration route's envelope refusal.
        code, out = run_cli(capsys, "count", "--method", "reconstruction",
                            "--piece", "nightrider", "--q", "3", "--n", "1:3",
                            "--format", "json")
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        error = data["error"]
        assert error["type"] == "CapacityError"
        assert error["message"].startswith("alpha envelope ")
        assert set(error["context"]) == {"n", "envelope", "budget"}
        assert int(error["context"]["envelope"]) > int(error["context"]["budget"])

    def test_usage_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "count", "--piece", "0,0", "--q", "2",
                          "--n", "1:3")
        assert code == 2

    def test_bad_move_names_the_piece(self, capsys):
        code = main(["count", "--piece", "1,a", "--q", "2", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: bad move syntax: '1,a'\n"

    @pytest.mark.parametrize("board", [
        "poly:-1,0,0;0,-1,0;1,0,1;0,1,1;0,1,1",
        "poly:-1,0,0;0,-1,0;1,0,1;0,1,1;0,2,2"])
    def test_repeated_inequality_is_usage_error(self, capsys, board):
        code = main(["count", "--piece", "queen", "--q", "2", "--n", "3:4",
                     "--board", board])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: inequality 0*x + 1*y <= 1 is repeated\n"

    @pytest.mark.parametrize("board", ["rect:1/0,1",
                                       "poly:-1,0,0;0,-1,0;1,1,1/0"])
    def test_zero_denominator_board_is_usage_error(self, capsys, board):
        code = main(["count", "--piece", "queen", "--q", "2", "--n", "3",
                     "--board", board])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: bad rational number: '1/0'\n"


    @pytest.mark.parametrize("number", ["1e9999999", "1E5", "1" * 41])
    def test_exponent_or_long_numeral_is_usage_error(self, capsys, number):
        # Fraction would expand these into huge integers before any check.
        start = perf_counter()
        code = main(["count", "--piece", "queen", "--q", "2", "--n", "3",
                     "--board", f"rect:{number},1"])
        err = capsys.readouterr().err
        assert perf_counter() - start < 5
        assert code == 2
        assert err == f"error: bad rational number: {number!r}\n"


# ``bounds`` reports its refusals as null fields and no command sets
# ``max_flats``, so these payloads come from the handler ``main`` uses.
@pytest.mark.parametrize("refuse, quantity", [
    (lambda: bounds.denominator(piece_from_text("queen"),
                                BoardPolygon.square(), 2, budget=1),
     "systems"),
    (lambda: bounds.lcmd_direct(
        bounds.attack_rows(piece_from_text("queen"), 2), budget=1),
     "minors"),
    (lambda: intersection_semilattice(piece_from_text("queen"), 2,
                                      max_flats=3), "flats"),
], ids=["systems", "minors", "flats"])
def test_library_refusals_match_error_schema(capsys, refuse, quantity):
    with pytest.raises(CapacityError) as exc:
        refuse()
    _error(Namespace(format="json"), exc.value)
    data = json.loads(capsys.readouterr().out)
    validate(data, "error.schema.json")
    assert set(data["error"]["context"]) == {quantity, "budget"}


class TestFit:
    def test_nightrider_fit_json(self, capsys):
        code, out = run_cli(capsys, "fit", "--piece", "nightrider", "--q", "2",
                            "--n", "1:20", "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "fit_report.schema.json")
        assert data["period"] == 2
        assert data["quasipolynomial"]["constituents"][0][4] == "1/2"
        assert data["label"] == "empirically verified on n in [1,20]"

    def test_labelled_column_json(self, capsys):
        # q! times the unlabelled fit: each constituent of the two
        # nightriders' count, doubled.
        code, out = run_cli(capsys, "fit", "--piece", "nightrider", "--q", "2",
                            "--n", "1:20", "--column", "labelled",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "fit_report.schema.json")
        assert data["column"] == "labelled" and data["degree"] == 4
        assert data["quasipolynomial"]["constituents"] == [
            ["0", "-4/3", "3", "-5/3", "1"], ["0", "-7/3", "3", "-5/3", "1"]]

    def test_pretty_formula(self, capsys):
        code, out = run_cli(capsys, "fit", "--piece", "queen", "--q", "2",
                            "--n", "1:12")
        assert code == 0
        assert "n^4/2 - 5n^3/3 + 3n^2/2 - n/3" in out

    def test_insufficient_data_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "fit", "--piece", "queen", "--q", "2",
                          "--n", "1:5")
        assert code == 2

    @pytest.mark.parametrize("command", ["fit", "types"])
    @pytest.mark.parametrize("option, value, message", [
        ("--period", "0", "error: --period must be at least 1, got 0\n"),
        ("--period", "-2", "error: --period must be at least 1, got -2\n"),
    ], ids=["period-zero", "period-negative"])
    def test_bad_period_or_degree_is_usage_error(self, capsys, command,
                                                 option, value, message):
        code = main([command, "--piece", "queen", "--q", "2", "--n", "1:10",
                     option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message


# Checked before any work: a p-max or denominator bound of 0 used to leave
# no candidate period, -2 was read as its divisors, a negative budget was
# refused only by the walk, and a negative system budget reported nulls.
@pytest.mark.parametrize("argv, option, value", [
    ("fit --n 1:10 --p-max 0", "--p-max", "0"),
    ("fit --n 1:10 --denominator-bound 0", "--denominator-bound", "0"),
    ("fit --n 1:10 --denominator-bound -2", "--denominator-bound", "-2"),
    ("types --n 1:10 --p-max -1", "--p-max", "-1"),
    ("count --n 1 --budget -5", "--budget", "-5"),
    ("bounds --system-budget -1", "--system-budget", "-1"),
    ("bounds --minor-budget 0", "--minor-budget", "0"),
], ids=["p-max-zero", "denominator-bound-zero", "denominator-bound-negative",
        "types-p-max-negative", "budget-negative", "system-budget-negative",
        "minor-budget-zero"])
def test_numeric_option_below_one_is_usage_error(capsys, argv, option, value):
    command, *rest = argv.split()
    code = main([command, "--piece", "queen", "--q", "2", *rest])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {option} must be at least 1, got {value}\n"


class TestTypes:
    def test_rook_types(self, capsys):
        code, out = run_cli(capsys, "types", "--piece", "rook", "--q", "3",
                            "--n", "1:10", "--census", "5:6",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "types_report.schema.json")
        assert data["types"]["unlabelled"] == "6"
        assert data["census"][0]["unlabelled_types"] == "6"

    def test_column_is_refused(self, capsys):
        # The type count is the same whichever column is fitted, so types
        # has no --column.
        with pytest.raises(SystemExit) as exc:
            main(["types", "--piece", "queen", "--q", "3", "--n", "1:16",
                  "--column", "labelled"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --column labelled" in captured.err

    def test_no_piece_report(self, capsys):
        code, out = run_cli(capsys, "types", "--piece", "queen", "--q", "0",
                            "--n", "1:6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "types_report.schema.json")
        assert data["q"] == 0
        assert data["types"]["labelled"] == data["types"]["unlabelled"] == "1"

    def test_bad_census_is_usage_error_before_counting(self, capsys):
        # --n 1:3 is too short to fit: the census must be rejected first.
        code = main(["types", "--piece", "queen", "--q", "2", "--n", "1:3",
                     "--census", "2:x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --census must be n or a:b, got '2:x'\n"

    def test_census_printed_before_a_failed_fit(self, capsys):
        # No period fits --n 1:14 for three queens; the census rows do not
        # depend on the fit and stay on stdout.
        code = main(["types", "--piece", "queen", "--q", "3", "--n", "1:14",
                     "--census", "1:4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == [
            "queen on square, q=3",
            "  census n=1: unlabelled 0 labelled 0",
            "  census n=2: unlabelled 0 labelled 0",
            "  census n=3: unlabelled 0 labelled 0",
            "  census n=4: unlabelled 8 labelled 48"]
        assert captured.err.startswith(
            "error: no candidate period fits the table: ")

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_reversed_census_is_usage_error_before_counting(self, capsys, fmt):
        code = main(["types", "--piece", "queen", "--q", "2", "--n", "1:3",
                     "--census", "6:3", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        message = "--census must be n or a:b with a <= b, got '6:3'"
        if fmt == "json":
            assert json.loads(captured.out)["error"] == {
                "type": "RiderPolyError", "message": message}
            assert captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    @pytest.mark.parametrize("census", ["-1:1", "-3:-1"])
    def test_negative_census_is_refused_like_count(self, capsys, fmt, census):
        # The message of count --n=-2:1, from the census' budget gate.
        code = main(["types", "--piece", "queen", "--q", "2", "--n", "1:10",
                     f"--census={census}", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        if fmt == "json":
            data = json.loads(captured.out)
            validate(data, "error.schema.json")
            assert data["error"] == {"type": "ValueError",
                                     "message": "n must be nonnegative"}
            assert captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err == "error: n must be nonnegative\n"

    def test_census_budget_counts_placements(self, capsys):
        # The table's kernel envelope fits; the n = 12 census's
        # C(144, 4) = 17178876 placements do not.
        code, out = run_cli(capsys, "types", "--piece", "queen", "--q", "4",
                            "--n", "1:11", "--census", "12:12",
                            "--budget", "3000000", "--format", "json")
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["context"] == {
            "n": "12", "placements": "17178876", "budget": "3000000"}

    def test_no_piece_census(self, capsys):
        # The empty placement realizes one type at every size.
        code, out = run_cli(capsys, "types", "--piece", "queen", "--q", "0",
                            "--n", "1:6", "--census", "1:2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "types_report.schema.json")
        assert data["census"] == [
            {"n": n, "labelled_types": "1", "unlabelled_types": "1"}
            for n in (1, 2)]


# Only count writes CSV; the other reports are refused by argparse.
@pytest.mark.parametrize("argv", [
    "fit --piece queen --q 2 --n 1:10",
    "types --piece queen --q 2 --n 1:10",
    "bounds --piece queen --q 2",
], ids=["fit", "types", "bounds"])
def test_csv_is_offered_by_count_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --format: invalid choice: 'csv'" in captured.err


class TestMobius:
    def test_queen_report(self, capsys):
        code, out = run_cli(capsys, "mobius", "--piece", "queen", "--q", "2",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "semilattice.schema.json")
        assert data["flat_count"] == 6
        mus = sorted(f["mobius"] for f in data["flats"])
        assert mus == [-1, -1, -1, -1, 1, 3]

    @pytest.mark.parametrize("command", ["mobius", "count"])
    def test_nine_queens_refused_before_the_closure(self, capsys,
                                                    monkeypatch, command):
        # At least 757756 flats (those whose blocks have at most two
        # pieces), over the default 200000: refused before any elimination.
        monkeypatch.setattr(lattice, "insert_row", None)
        argv = {"mobius": ["mobius"],
                "count": ["count", "--method", "reconstruction", "--n", "1"]}
        start = perf_counter()
        code, out = run_cli(capsys, *argv[command], "--piece", "queen",
                            "--q", "9", "--format", "json")
        assert perf_counter() - start < 1
        assert code == 3
        data = json.loads(out)
        validate(data, "error.schema.json")
        assert data["error"]["context"] == {"flats": "757756",
                                            "budget": "200000"}

    def test_no_piece_report(self, capsys):
        code, out = run_cli(capsys, "mobius", "--piece", "queen", "--q", "0",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "semilattice.schema.json")
        assert data["flat_count"] == 1 and data["iso_classes"][0]["size"] == 1

    def test_single_piece_report(self, capsys):
        code, out = run_cli(capsys, "mobius", "--piece", "queen", "--q", "1",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "semilattice.schema.json")
        assert data["hyperplane_count"] == 0
        assert data["flat_count"] == 1
        assert data["flats"][0]["mobius"] == 1
        assert data["flats"][0]["kappa"] == 0

    # sha256 of the whole JSON report: the semilattice and its iso classes
    # must print byte for byte as they did before the classes were found as
    # S_q orbits.
    @pytest.mark.parametrize("piece, q, digest", [
        ("queen", 4, "e141734cf99979b52aafbd9203b1d92b"
                     "0890b98ad8c76ae513262104186bcad9"),
        ("nightrider", 4, "8ff5eabf314b946921b81bc7173ab378"
                          "9dec1dbb20f4fe75423f6b62fba39a6c"),
        ("queen", 3, "828616c44f6da965b48446a1ef4aae64"
                     "ff802a43580f2b8df78b1e094a144e63"),
        ("rook", 3, "bf8b085067cf5cb0de383216b9c6798b"
                    "ae3f3fa0bf98abad251ce72ba4494bbc"),
        ("bishop", 3, "a061516543ade9dbe5ebaef3dc539804"
                      "c7d6b752d3b5230a02706a5a957962ff"),
        ("nightrider", 3, "5de146971047851f434d7a8f27c2ef76"
                          "70e6ff001a37c04685389399d82d6433"),
        ("semiqueen", 3, "8dfb5678df6ee7c16f387b3c0b2db130"
                         "6f35d0b41605209af7f4a4f4453c5726"),
    ])
    def test_report_is_byte_identical(self, capsys, piece, q, digest):
        code, out = run_cli(capsys, "mobius", "--piece", piece, "--q", str(q),
                            "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBounds:
    def test_bishop_bounds_json(self, capsys):
        code, out = run_cli(capsys, "bounds", "--piece", "bishop", "--q", "3",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "bounds.schema.json")
        assert data["denominator"] == 2
        assert data["lcmd"] == 4

    def test_observed_period(self, capsys):
        code, out = run_cli(capsys, "bounds", "--piece", "nightrider",
                            "--q", "2", "--observe-period-n", "20",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["period_observed"] == 2
        assert data["denominator"] == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_observe_period_n_must_be_positive(self, capsys, value):
        code = main(["bounds", "--piece", "queen", "--q", "2",
                     "--observe-period-n", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: --observe-period-n must be at least 1, got {value}\n")

    @pytest.mark.parametrize("board, denominator", [("square", 1),
                                                    ("rect:3/2,1", 2)])
    def test_single_piece_denominator(self, capsys, board, denominator):
        code, out = run_cli(capsys, "bounds", "--piece", "queen", "--q", "1",
                            "--board", board, "--format", "json")
        assert code == 0
        data = json.loads(out)
        validate(data, "bounds.schema.json")
        assert data["denominator"] == denominator

    def test_capacity_exit(self, capsys):
        code, out = run_cli(capsys, "bounds", "--piece", "nightrider",
                            "--q", "4", "--format", "json")
        # denominator and lcmd both over budget: reported as nulls, exit 0
        assert code == 0
        data = json.loads(out)
        assert data["denominator"] is None
        assert data["lcmd"] is None
        assert data["exhaustive"] is False
