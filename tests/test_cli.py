import json
import os
import subprocess
import sys

import pytest

import sectorpack
from sectorpack.cli import _decimal_digits, build_parser, main, parse_map, parse_point
from sectorpack import (OrderKind, Sector, SectorArray, SectorPackError, enumerate_sector,
                        lambda_map, parse_slope)

from family_zoo import all_families


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def child_env() -> dict:
    """The environment of a child interpreter that imports this sectorpack."""
    src = os.path.dirname(os.path.dirname(sectorpack.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestParsers:
    def test_main_reuses_one_parser(self):
        parser = build_parser()
        assert build_parser() is parser
        # the shared parser hands every call a fresh namespace with fresh defaults
        first = parser.parse_args(["verify", "--family", "cantor-f", "--prefix", "7"])
        second = parser.parse_args(["verify", "--family", "cantor-f"])
        assert (first.prefix, second.prefix) == (7, 1000)

    def test_parse_point(self):
        assert parse_point("2,1") == (2, 1)
        assert parse_point("123456789012345678901,0") == (123456789012345678901, 0)
        for bad in ("2", "2,1,0", "2, 1", "a,b", ""):
            with pytest.raises(SectorPackError):
                parse_point(bad)

    def test_parse_map(self):
        assert parse_map("lambda:2") == lambda_map(2)
        for bad in ("lambda", "rho:2", "lambda:x", "psi:0", "lambda:+3", "lambda:1_000",
                    "lambda: 7"):
            with pytest.raises(SectorPackError):
                parse_map(bad)

    @pytest.mark.parametrize("token", ["+3", "1_000", " 7"])
    def test_integer_options_are_strict(self, capsys, token):
        for argv in (["unrank", "--family", "cantor-f", "--rank", token],
                     ["enumerate", "--slope", "1", "--order", "column-bottom-up", "--count", token],
                     ["verify", "--family", "cantor-f", "--prefix", token],
                     ["search", "--slope", "1", "--bound", token],
                     ["search", "--slope", "1", "--prefix", token],
                     ["search", "--slope", "1", "--workers", token],
                     ["layout", "--family", "cantor-f", "--count", token]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert f"invalid integer value: {token!r}" in err, argv
            assert "_strict_int" not in err, argv
        status, out, _ = run(capsys, "transform", "--family", "lambda:" + token)
        assert (status, out) == (1, "")


class TestEval:
    def test_example(self, capsys):
        status, out, _ = run(capsys, "eval", "--family", "div-f:2/3", "--point", "2,1")
        assert status == 0
        assert out == "2\n"

    def test_json(self, capsys):
        status, out, _ = run(capsys, "eval", "--family", "div-f:2/3", "--point", "2,1",
                             "--format", "json")
        assert status == 0
        assert json.loads(out) == {"rank": 2}

    def test_outside_sector_is_domain_error(self, capsys):
        # one family of each kind, each point one step past a ray
        for family, point, slope in (("cantor-f", "-1,0", "inf"), ("steep-f:1", "1,2", "1"),
                                     ("div-f:2/5", "2,1", "2/5"), ("quasi:3/2", "1,2", "3/2")):
            status, out, err = run(capsys, "eval", "--family", family, f"--point={point}")
            x, y = point.split(",")
            assert (status, out) == (1, ""), family
            assert err == f"error: point ({x}, {y}) is outside the sector of slope {slope}\n"

    def test_bad_family_is_domain_error(self, capsys):
        status, _, _ = run(capsys, "eval", "--family", "div-f:2/4", "--point", "0,0")
        assert status == 1

    @pytest.mark.parametrize("family,message", [
        ("quasi:2/4", "slope 2/4 is not in lowest terms"),
        ("steep-f:0", "invalid slope pair (0, 1)"),
        ("quasi:2/0", "denominator 0 is not a finite slope, got 2/0"),
        ("div-f:2/0", "denominator 0 is not a finite slope, got 2/0"),
    ])
    def test_a_bad_family_parameter_is_refused_by_its_slope(self, capsys, family, message):
        status, out, err = run(capsys, "eval", "--family", family, "--point", "0,0")
        assert (status, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("family,order,slope", [
        ("div-g:9/4", "block-top-down", "9/4"), ("div-f:9/7", "block-bottom-up", "9/7"),
        ("div-f:25/11", "block-bottom-up", "25/11"), ("div-f:3/1", "block-bottom-up", "3"),
        ("div-f:3/2", "block-bottom-up", "3/2"), ("div-g:5/3", "block-top-down", "5/3"),
    ])
    def test_a_line_order_that_does_not_pack_is_one_refusal(self, capsys, family, order, slope):
        status, out, err = run(capsys, "eval", "--family", family, "--point", "0,0")
        refusal = f"error: {order} does not pack the sector of slope {slope}\n"
        assert (status, out, err) == (1, "", refusal)


class TestUnrank:
    def test_example(self, capsys):
        status, out, _ = run(capsys, "unrank", "--family", "cantor-f", "--rank", "7")
        assert status == 0
        assert out == "2,1\n"

    def test_json(self, capsys):
        status, out, _ = run(capsys, "unrank", "--family", "cantor-f", "--rank", "7",
                             "--format", "json")
        assert json.loads(out) == {"point": [2, 1]}

    def test_negative_rank_is_domain_error(self, capsys):
        status, _, _ = run(capsys, "unrank", "--family", "cantor-f", "--rank", "-3")
        assert status == 1


class TestEnumerate:
    def test_text(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--slope", "inf", "--order", "diagonal",
                             "--count", "4")
        assert status == 0
        assert out == "0,0\n1,0\n0,1\n2,0\n"

    def test_csv(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--slope", "2", "--order", "column-bottom-up",
                             "--count", "3", "--format", "csv")
        assert out == "rank,x,y\n0,0,0\n1,1,0\n2,1,1\n"

    def test_json(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--slope", "3/2", "--order",
                             "residue-interleaved", "--count", "6", "--format", "json")
        assert json.loads(out) == {"points": [[0, 0], [1, 0], [2, 0], [1, 1], [2, 1], [3, 0]]}

    def test_block_order_derives_step_from_slope(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--slope", "2/3", "--order", "block-bottom-up",
                             "--count", "4")
        assert out == "0,0\n1,0\n2,1\n3,2\n"

    def test_incompatible_order_is_domain_error(self, capsys):
        status, _, err = run(capsys, "enumerate", "--slope", "3/5", "--order", "block-bottom-up",
                             "--count", "4")
        assert status == 1

    @pytest.mark.parametrize("slope,order", [
        ("inf", "block-top-down"), ("inf", "residue-interleaved"), ("2", "diagonal"),
        ("3/5", "block-bottom-up"), ("3/5", "block-top-down")])
    def test_order_needs_a_matching_slope(self, capsys, slope, order):
        status, out, err = run(capsys, "enumerate", "--slope", slope, "--order", order,
                               "--count", "4")
        assert (status, out) == (1, "")
        needs = {"inf": "a finite slope", "2": "the infinite sector",
                 "3/5": "a slope r/s with r | (s-1)^2, got 3/5"}[slope]
        assert err == f"error: {order} requires {needs}\n"

    @pytest.mark.parametrize("order", list(OrderKind), ids=lambda o: o.value)
    def test_stream_equals_the_oracle(self, capsys, order):
        for slope in ("inf", "1", "2", "3/2", "2/3"):
            # 5000 rows cross the boundary of a write batch
            argv = ["enumerate", "--slope", slope, "--order", order.value, "--count", "5000"]
            try:
                points = enumerate_sector(Sector(parse_slope(slope)), order, 5000)
            except SectorPackError as exc:
                assert run(capsys, *argv) == (1, "", f"error: {exc}\n")
                continue
            want = {
                "text": "\n".join(f"{x},{y}" for x, y in points) + "\n",
                "csv": "\n".join(["rank,x,y"] + [f"{n},{x},{y}" for n, (x, y)
                                                  in enumerate(points)]) + "\n",
                "json": json.dumps({"points": [[x, y] for x, y in points]}) + "\n",
            }
            for fmt, text in want.items():
                assert run(capsys, *argv, "--format", fmt) == (0, text, ""), (slope, fmt)


class TestVerify:
    def test_family_passes(self, capsys):
        status, out, _ = run(capsys, "verify", "--family", "quasi:3/2", "--prefix", "500")
        assert status == 0
        assert out.startswith("PASS")

    @pytest.mark.parametrize("name", [
        "cantor-f", "cantor-g", "steep-f:3", "steep-g:3",
        "div-f:2/3", "div-g:2/3", "div-f:9/4", "div-g:9/7", "quasi:3/2", "quasi:2/5",
    ])
    def test_every_family_kind_exits_zero_at_default_prefix(self, capsys, name):
        status, out, _ = run(capsys, "verify", "--family", name)
        assert status == 0
        assert out.startswith("PASS")

    def test_shifted_poly_fails_with_witness(self, capsys):
        status, out, _ = run(capsys, "verify", "--poly", '{"x2":"1/2","x":"1/2","y":"1","1":"1"}',
                             "--slope", "1", "--prefix", "100")
        assert status == 3
        assert "missing" in out

    def test_json_verdict(self, capsys):
        status, out, _ = run(capsys, "verify", "--family", "cantor-f", "--prefix", "200",
                             "--format", "json")
        assert status == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["reason"] is None

    def test_needs_exactly_one_source(self, capsys):
        status, _, _ = run(capsys, "verify", "--prefix", "10")
        assert status == 1
        status, _, _ = run(capsys, "verify", "--family", "cantor-f", "--poly", "{}")
        assert status == 1

    def test_family_refuses_a_slope(self, capsys):
        # a family fixes its own sector, so a --slope beside it would be ignored
        assert run(capsys, "verify", "--family", "cantor-f", "--slope", "2/3", "--prefix", "10") \
            == (1, "", "error: --slope is for --poly; a family fixes its own sector\n")

    def test_poly_requires_slope(self, capsys):
        status, _, _ = run(capsys, "verify", "--poly", "{}")
        assert status == 1


class TestSearch:
    def test_json_report(self, capsys):
        status, out, err = run(capsys, "search", "--slope", "1", "--bound", "1",
                               "--prefix", "60", "--degree", "1")
        assert status == 0
        obj = json.loads(out)
        assert obj["survivors"] == []
        assert obj["exhausted"] is True
        assert "search:" in err  # progress on stderr only

    def test_text_report(self, capsys):
        status, out, _ = run(capsys, "search", "--slope", "1", "--bound", "1",
                             "--prefix", "60", "--degree", "1", "--format", "text")
        assert "survivors: 0" in out
        assert "exhausted: true" in out

    def test_infinite_slope_is_domain_error(self, capsys):
        status, _, _ = run(capsys, "search", "--slope", "inf", "--bound", "1", "--prefix", "10")
        assert status == 1

    def test_worker_counts_agree(self, capsys):
        outs = []
        for workers in ("1", "2"):
            status, out, _ = run(capsys, "search", "--slope", "1", "--bound", "2",
                                 "--prefix", "50", "--workers", workers)
            assert status == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0])["survivors"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_domain_error(self, capsys, workers):
        status, out, err = run(capsys, "search", "--slope", "1", "--bound", "1",
                               "--workers", workers)
        assert (status, out) == (1, "")
        assert err == f"error: workers must be positive, got {workers}\n"


class TestBasis:
    def test_example(self, capsys):
        status, out, _ = run(capsys, "basis", "--slope", "1/3")
        assert status == 0
        assert out == "(1,0) (3,1)\n"

    def test_absent(self, capsys):
        status, out, _ = run(capsys, "basis", "--slope", "2/3")
        assert status == 0
        assert out == "none\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "basis", "--slope", "inf", "--format", "json")
        assert json.loads(out) == {"basis": [[1, 0], [0, 1]]}
        _, out, _ = run(capsys, "basis", "--slope", "5/3", "--format", "json")
        assert json.loads(out) == {"basis": None}


class TestTransform:
    def test_prints_row_major(self, capsys):
        status, out, _ = run(capsys, "transform", "--family", "lambda:3")
        assert status == 0
        assert out == "1 3 0 1\n"

    def test_apply_to_point(self, capsys):
        status, out, _ = run(capsys, "transform", "--family", "psi:2", "--point", "3,1")
        assert out == "3,5\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "transform", "--family", "phi:2", "--format", "json")
        assert json.loads(out) == {"matrix": [2, -3, 1, -2]}


class TestLayout:
    def test_csv_dump(self, capsys):
        status, out, _ = run(capsys, "layout", "--family", "steep-f:2", "--count", "5")
        assert status == 0
        assert out == "offset,x,y\n0,0,0\n1,1,0\n2,1,1\n3,1,2\n4,2,0\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "layout", "--family", "cantor-f", "--count", "3",
                        "--format", "json")
        assert json.loads(out) == {"cells": [[0, 0, 0], [1, 1, 0], [2, 0, 1]]}

    @pytest.mark.parametrize("family", all_families(6), ids=lambda f: f.name)
    def test_stream_equals_the_filled_array(self, capsys, family):
        def dumped(rows, fmt):  # the rows as json.dumps and a joined csv give them
            if fmt == "json":
                return json.dumps({"cells": [list(row) for row in rows]}) + "\n"
            return "\n".join(["offset,x,y"] + [f"{o},{x},{y}" for o, x, y in rows]) + "\n"

        for count in (0, 1, 7, 500):
            array = SectorArray(family)
            array.dense_prefix_fill(count, lambda p: p)
            filled = [(o, x, y) for o, ((x, y), _) in enumerate(array.iterate())]
            unranked = [(n, *family.unrank(n)) for n in range(count)]
            assert filled == unranked
            for fmt in ("csv", "json", "text"):
                status, out, err = run(capsys, "layout", "--family", family.name,
                                       "--count", str(count), "--format", fmt)
                assert (status, out, err) == (0, dumped(filled, fmt), ""), (count, fmt)


class TestPlumbing:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "cantor-f"])  # missing --point
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unsupported_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "cantor-f", "--point", "0,0", "--format", "csv"])
        assert exc.value.code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        status, out, _ = run(capsys, "eval", "--family", "cantor-f", "--point", "2,1",
                             "--out", str(target))
        assert status == 0
        assert out == ""
        assert target.read_text() == "7\n"

    @pytest.mark.parametrize("argv,message", [
        (["layout", "--family", "cantor-f", "--count", "-1"],
         "fill count must be nonnegative, got -1"),
        (["layout", "--family", "cantor-f", "--count", "9223372036854775809"],
         "fill count 9223372036854775809 exceeds the addressable range"),
        (["enumerate", "--slope", "1", "--order", "column-bottom-up", "--count", "0"],
         "count must be positive, got 0"),
        (["enumerate", "--slope", "3/5", "--order", "block-top-down", "--count", "4"],
         "block-top-down requires a slope r/s with r | (s-1)^2, got 3/5"),
        (["verify", "--family", "quasi:3/2", "--prefix", "250001"],
         "prefix 250001 needs a region of 1000004 points, above the limit of 1000000"),
        (["search", "--slope", "1/3", "--prefix", "166667"],
         "prefix 166667 needs a region of 1000002 points, above the limit of 1000000"),
    ], ids=["layout-negative", "layout-past-maxsize", "enumerate-zero", "enumerate-order",
            "verify-region", "search-region"])
    def test_error_opens_no_out_file(self, capsys, tmp_path, argv, message):
        target = tmp_path / "result.txt"
        assert run(capsys, *argv, "--out", str(target)) == (1, "", f"error: {message}\n")
        assert not target.exists()

    @pytest.mark.parametrize("argv,prefix", [
        (["verify", "--family", "quasi:3/2"], "0"),
        (["verify", "--family", "cantor-f"], "0"),
        (["verify", "--family", "cantor-f"], "-3"),
        (["search", "--slope", "1"], "0"),
    ], ids=["verify-finite", "verify-quadrant", "verify-negative", "search"])
    def test_a_prefix_below_one_is_a_domain_error(self, capsys, argv, prefix):
        # the region limit lets it through to the command's own check
        assert run(capsys, *argv, "--prefix", prefix) \
            == (1, "", f"error: prefix must be positive, got {prefix}\n")

    def test_only_verify_and_search_load_numpy(self):
        # one fresh interpreter runs every other command through main, then verify
        commands = [["enumerate", "--slope", "2", "--order", "column-bottom-up", "--count", "3"],
                    ["eval", "--family", "div-f:2/3", "--point", "2,1"],
                    ["unrank", "--family", "cantor-f", "--rank", "7"],
                    ["layout", "--family", "quasi:3/2", "--count", "6"],
                    ["basis", "--slope", "1/3"],
                    ["transform", "--family", "phi:2"]]
        code = ("import json, sys\n"
                "from sectorpack.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert main(argv) == 0, argv\n"
                "assert 'numpy' not in sys.modules\n"
                "assert main(['verify', '--family', 'cantor-f', '--prefix', '10']) == 0\n"
                "assert 'numpy' in sys.modules\n")
        child = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                               env=child_env(), capture_output=True, text=True, timeout=60)
        assert (child.returncode, child.stderr) == (0, "")

    def test_bad_slope_is_domain_error(self, capsys):
        status, _, err = run(capsys, "basis", "--slope", "0")
        assert status == 1
        assert "error:" in err


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="no limit on the digits of int/str conversion")
class TestDigitLimit:
    """Integers past the interpreter's limit on the digits of a conversion."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "cantor-f", "--point", "LONG,0"],
        ["basis", "--slope", "LONG"],
        ["eval", "--family", "steep-f:LONG", "--point", "1,0"],
        ["eval", "--family", "div-f:1/LONG", "--point", "1,0"],
        ["transform", "--family", "lambda:LONG"],
        ["transform", "--family", "lambda:2", "--point=-LONG,0"],
        ["verify", "--poly", '{"x": "LONG"}', "--slope", "1"],
    ], ids=["point", "slope", "family-parameter", "family-slope", "map-parameter",
            "negative-point", "coefficient"])
    def test_an_argument_past_the_limit_is_a_domain_error(self, capsys, tmp_path, argv):
        long = "1" * (_DIGIT_LIMIT + 700)
        target = tmp_path / "result.txt"
        argv = [arg.replace("LONG", long) for arg in argv] + ["--out", str(target)]
        message = (f"error: integer of {_DIGIT_LIMIT + 700} digits exceeds the limit of "
                   f"{_DIGIT_LIMIT} digits\n")
        assert run(capsys, *argv) == (1, "", message)
        assert not target.exists()

    def test_a_json_integer_past_the_limit_is_a_domain_error(self, capsys):
        # the line every other argument gives, not the interpreter's own text
        long = "1" * (_DIGIT_LIMIT + 700)
        message = (f"error: integer of {_DIGIT_LIMIT + 700} digits exceeds the limit of "
                   f"{_DIGIT_LIMIT} digits\n")
        for poly in ('{"period": %s}', '{"x2": %s}', '{"period": 1, "branches": [{"y": -%s}]}'):
            assert run(capsys, "verify", "--poly", poly % long, "--slope", "1") == (1, "", message)

    def test_decimal_digits_of_an_integer_too_long_to_print(self):
        for k in [1, 2, 3, 9, 10, 11, 99, 100, 1000, _DIGIT_LIMIT - 1, _DIGIT_LIMIT,
                  _DIGIT_LIMIT + 1, 3 * _DIGIT_LIMIT]:
            for n in (10 ** (k - 1), 10 ** k - 1, 7 * 10 ** (k - 1)):
                assert _decimal_digits(n) == _decimal_digits(-n) == k, k
        assert [_decimal_digits(n) for n in range(-12, 13)] == \
            [len(str(abs(n))) for n in range(-12, 13)]

    # on slope 1/(10^L - 1) the block step is d = 10^L - 2: the 3rd point is
    # (1 + d, 1), of L digits, and the 5th (2 + d, 1), of L + 1
    @pytest.mark.parametrize("argv", [
        ["layout", "--family", "div-f:1/{nines}", "--format", fmt] for fmt in ("csv", "json")
    ] + [
        ["enumerate", "--slope", "1/{nines}", "--order", "block-bottom-up", "--format", fmt]
        for fmt in ("text", "csv", "json")
    ], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
    def test_a_coordinate_past_the_limit_ends_the_stream(self, capsys, tmp_path, argv):
        nines = "9" * _DIGIT_LIMIT
        argv = [arg.format(nines=nines) for arg in argv]
        status, out, err = run(capsys, *argv, "--count", "4")
        assert (status, err) == (0, "") and nines in out
        target = tmp_path / "result.txt"
        for extra in ([], ["--out", str(target)]):
            assert run(capsys, *argv, "--count", "5", *extra) == (1, "", (
                f"error: integer of {_DIGIT_LIMIT + 1} digits exceeds the limit of "
                f"{_DIGIT_LIMIT} digits\n"))
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "cantor-f", "--point", "{half},0"],
        ["transform", "--family", "lambda:{half}", "--point", "0,{half}"],
    ], ids=["rank", "image"])
    def test_a_result_past_the_limit_is_a_domain_error(self, capsys, tmp_path, argv, fmt):
        # each argument is in the limit, but the result has about twice its digits
        half = "9" * (_DIGIT_LIMIT // 2 + 100)
        target = tmp_path / "result.txt"
        argv = [arg.format(half=half) for arg in argv] + ["--format", fmt, "--out", str(target)]
        message = (f"error: result exceeds the limit of {_DIGIT_LIMIT} digits "
                   "for printing an integer\n")
        assert run(capsys, *argv) == (1, "", message)
        assert not target.exists()

    def test_an_integer_option_past_the_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unrank", "--family", "cantor-f", "--rank", "1" * (_DIGIT_LIMIT + 1)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --rank: invalid integer value: '111" in err
        assert "_integer_option" not in err


class TestBoundedMemory:
    """The CLI under a 512 MiB address-space limit that the child process sets on itself."""

    LIMIT = 512 * 2 ** 20

    def spawn(self, *argv, code=None):
        """sector-pack argv in a child; with code, the child runs that instead
        of the module, with argv in sys.argv[1:]."""
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT))

        head = ["-m", "sectorpack.cli"] if code is None else ["-c", code]
        return subprocess.Popen([sys.executable, *head, *argv], env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                preexec_fn=cap_address_space)

    def finish(self, *argv, timeout=60, code=None):
        """(status, stdout, stderr) of spawn(*argv, code=code), killed if it
        outlives timeout seconds."""
        child = self.spawn(*argv, code=code)
        try:
            out, err = child.communicate(timeout=timeout)
        finally:
            child.kill()
        return child.returncode, out, err

    @pytest.mark.parametrize("argv,head", [
        (["layout", "--family", "cantor-f"], ["offset,x,y", "0,0,0", "1,1,0", "2,0,1"]),
        (["enumerate", "--slope", "1", "--order", "column-bottom-up"],
         ["0,0", "1,0", "1,1", "2,0"]),
    ], ids=["layout", "enumerate"])
    def test_streams_a_huge_count_and_stops_when_the_reader_does(self, argv, head):
        child = self.spawn(*argv, "--count", "10000000000")
        try:
            lines = [child.stdout.readline() for _ in head]
            child.stdout.close()
            status = child.wait(timeout=60)
            err = child.stderr.read()
        finally:
            child.kill()
            child.stderr.close()
        assert lines == [line + "\n" for line in head]
        assert (status, err) == (141, "")

    def test_search_at_the_region_limit(self):
        # 999,996 examined points: the monomial rows and the screen batches fit
        status, out, err = self.finish("search", "--slope", "1/3", "--prefix", "166666",
                                       "--bound", "2", "--workers", "1", timeout=120)
        assert status == 0, err
        assert err.splitlines()[-1] == "search: 45/45 keys"
        assert json.loads(out)["survivors"] == [{"x2": "1/2", "xy": "-2", "y2": "2", "x": "1/2"}]

    def peak(self, *argv):
        """(status, stdout, peak bytes) of sector-pack argv.  ru_maxrss
        survives exec, and a child forked from this process starts at its
        size, so a small interpreter runs the command and reports the peak
        of its own child."""
        code = ("import resource, subprocess, sys\n"
                "argv = [sys.executable, '-m', 'sectorpack.cli', *sys.argv[1:]]\n"
                "status = subprocess.call(argv)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
                "sys.exit(status)\n")
        status, out, err = self.finish(*argv, timeout=120, code=code)
        assert err.strip().isdigit(), err
        return status, out, int(err) * (1 if sys.platform == "darwin" else 1024)

    @pytest.mark.parametrize("family, examined", [("cantor-f", "1000000 points, columns 0..999"),
                                                  ("quasi:3/2", "1000519 points, columns 0..1154")],
                             ids=["cantor-f", "quasi:3/2"])
    def test_verify_at_the_region_limit_peaks_under_50_mib(self, family, examined):
        # the sorted values of a million points take 4 MB as int32, and a
        # block of them is made at a time
        status, out, peak = self.peak("verify", "--family", family, "--prefix", "250000")
        assert (status, out) == (0, f"PASS pass ({examined})\n")
        assert peak < 50 * 2 ** 20

    def test_verify_finds_a_late_repeat_at_the_region_limit(self):
        # no column repeats a value, so the sort sees the repeat, in column
        # 1,334 of 1,414; the point walk that names it records only the 9,560
        # values that the sort saw repeated, not every value before it
        status, out, peak = self.peak("verify", "--poly", '{"x2":"-1","x":"4000","y":"1"}',
                                      "--slope", "1", "--prefix", "250000")
        assert (status, out) == (3, "FAIL fail: collision at ((1333, 1333), (1334, 0))\n")
        assert peak < 60 * 2 ** 20

    def test_verify_refuses_values_too_large_to_hold(self):
        # a million Python ints of 1,000 digits would not fit: one error line,
        # before any is made
        status, out, err = self.finish("verify", "--poly",
                                       '{"x2":"1/2","x":"1/2","y":"%s"}' % ("7" * 1000),
                                       "--slope", "1", "--prefix", "250000")
        assert (status, out) == (1, "")
        assert err == "error: values too large to hold: 1000405 points of up to 480 bytes each\n"

    def test_linear_search_at_a_high_bound(self):
        # the screens hold five monomial rows of the region whatever the bound
        status, out, err = self.finish("search", "--slope", "1/3", "--prefix", "166666",
                                       "--bound", "10", "--degree", "1", "--workers", "1",
                                       timeout=120)
        assert status == 0, err
        assert err.splitlines()[-1] == "search: 1/1 keys"
        assert out == ('{"sector":"1/3","degree":1,"coeff_bound":10,"prefix":166666,'
                       '"survivors":[],"exhausted":true}\n')

    def test_a_bound_past_the_screen_tables_is_refused(self):
        status, out, err = self.finish("search", "--slope", "1", "--bound", "100000000",
                                       "--prefix", "1")
        assert (status, out) == (1, "")
        assert err == "error: coefficient bound too large for the screen's tables\n"

    def test_a_region_too_wide_for_the_screen_tables_is_refused(self):
        # 600,000 columns of slope 1/400000: too wide at every bound, down to 1
        status, out, err = self.finish("search", "--slope", "1/400000", "--bound", "1",
                                       "--prefix", "1")
        assert (status, out) == (1, "")
        assert err == "error: search region of 600000 columns too wide for the screen's tables\n"

    @pytest.mark.parametrize("argv,lines", [
        (["eval", "--family", "quasi:1/100000000", "--point", "0,0"], ["0"]),
        (["unrank", "--family", "quasi:2/100000001", "--rank", "5"], ["5,0"]),
        (["layout", "--family", "quasi:1/3000000", "--count", "3"],
         ["offset,x,y", "0,0,0", "1,1,0", "2,2,0"]),
        (["enumerate", "--slope", "1/3000000", "--order", "residue-interleaved", "--count", "3"],
         ["0,0", "1,0", "2,0"]),
    ], ids=["eval", "unrank", "layout", "enumerate"])
    def test_a_long_period_costs_nothing_up_front(self, argv, lines):
        # rank, unrank and the walks keep nothing per residue class, so a
        # period of millions answers at once
        status, out, err = self.finish(*argv)
        assert (status, err) == (0, "")
        assert out.splitlines() == lines

    def test_a_long_period_is_refused_before_its_form_is_built(self):
        # the form has one branch per class: 2,000,000 of them would not fit
        status, out, err = self.finish("verify", "--family", "quasi:1/2000000", "--prefix", "1")
        assert (status, out) == (1, "")
        assert err == ("error: prefix 1 needs a region of 4000000 points, "
                       "above the limit of 1000000\n")

    def test_prefix_over_the_region_limit_is_refused(self):
        status, out, err = self.finish("verify", "--family", "cantor-f", "--prefix", "10000000000")
        assert (status, out) == (1, "")
        assert err == ("error: prefix 10000000000 needs a region of 40000000000 points, "
                       "above the limit of 1000000\n")

    @pytest.mark.parametrize("argv,points", [
        (["verify", "--family", "steep-f:7000000"], 7000002),
        (["search", "--slope", "7000000", "--bound", "1"], 7000002),
        (["verify", "--family", "steep-f:1000000"], 1000002),
    ], ids=["verify", "search", "verify-one-past"])
    def test_a_steep_region_past_the_limit_is_refused(self, argv, points):
        # the target is 4 points, but the fewest whole columns that hold them
        # are (0, 0) and column 1, which holds one point more than the slope
        status, out, err = self.finish(*argv, "--prefix", "1")
        assert (status, out) == (1, "")
        assert err == (f"error: prefix 1 needs a region of {points} points, "
                       "above the limit of 1000000\n")

    def test_a_last_column_at_the_limit_is_accepted(self):
        # column 1 of slope 999,999 holds 1,000,000 points
        status, out, err = self.finish("verify", "--family", "steep-f:999999", "--prefix", "1")
        assert (status, err) == (0, "")
        assert out == "PASS pass (1000001 points, columns 0..1)\n"
