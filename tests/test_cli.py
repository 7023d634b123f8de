import csv
import hashlib
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from polysmooth import __version__, cli
from polysmooth.bounds import make_bound_report
from polysmooth.modroots import omega
from polysmooth.oracles import pplus_oracle
from polysmooth.polyarith import build_factored
from polysmooth.quadfield import c_alpha, make_context, windowed_cassels


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_psi_subcommand(capsys):
    rc, out = run_cli(capsys, ["psi", "--poly", "t^2+1", "--x", "1000", "--u", "2"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["psi"] == 22  # == psi_oracle(t^2+1, 1000, 31)
    assert rec["y"] == 31.0  # floor(1000^(1/2)) exactly
    assert rec["config"]["version"]
    assert 0 < rec["martin"] < 1
    assert rec["thm11_main_x"] > rec["psi"]


def test_psi_requires_bound(capsys):
    rc, _ = run_cli(capsys, ["psi", "--poly", "t^2+1", "--x", "100"])
    assert rc == 1


def test_bound_subcommand(capsys):
    rc, out = run_cli(capsys, ["bound", "--d", "2", "--g", "1", "--u", "1"])
    assert rc == 0
    rec = json.loads(out)
    assert abs(rec["gamma"] - 0.913967211436) < 1e-11
    assert abs(rec["cassels"] - 0.543016394282) < 1e-11


def test_bound_grid_csv(capsys):
    rc, out = run_cli(
        capsys,
        ["bound", "--d", "2,3", "--g", "1", "--u", "1,2", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 grid points
    rows = list(csv.reader(lines))
    assert {len(r) for r in rows} == {len(rows[0])}
    config = json.loads(rows[1][rows[0].index("config")])
    assert (config["options"]["d"], config["options"]["u"]) == (2, 1.0)


@pytest.mark.parametrize("argv", [
    ["psi", "--poly", "t^2+1", "--x", "100", "--y", "10"],
    ["omega", "--poly", "t^2+1", "--k", "10,4"],
    ["arctan", "--x", "10"],
    ["rb", "--b", "1", "--x", "10"],
    ["calpha", "--m", "2", "--x", "3"],
    ["vw-verify", "--poly", "t^2+1", "--x", "100", "--z", "50", "--y", "10"],
])
def test_record_csv_rows_are_as_wide_as_the_header(capsys, argv):
    # dict and list cells are quoted JSON text, so their commas split nothing
    rc, out = run_cli(capsys, argv + ["--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) >= 2
    assert {len(r) for r in rows} == {len(rows[0])}
    for r in rows[1:]:
        assert json.loads(r[rows[0].index("config")])["options"]


def test_dickman_csv(capsys):
    rc, out = run_cli(
        capsys,
        ["dickman", "--u-max", "3", "--step", "0.5", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,rho"
    assert len(lines) == 8
    row2 = dict(zip(lines[0].split(","), lines[5].split(",")))
    assert abs(float(row2["rho"]) - 0.30685281944) < 1e-9


# SHA-256 of the dickman outputs, pinned from the numpy-legval evaluator;
# the json record embeds the config, version included.
DICKMAN_SHA256 = [
    (["--u-max", "20", "--step", "0.001"],
     "a88046eb57ef6ea45e93b0ae2b83036ebf8599a00a82d70222f6f00c75acfecf"),
    (["--u-max", "20", "--step", "0.001", "--format", "csv"],
     "e68e7d19d7ed08fb7e63a10f9dc64ce0c1bb31d1b58ef7ae0ad38f7d019f949f"),
    (["--u-max", "19.99", "--step", "0.007", "--format", "csv"],
     "07aa5cf3226194ae1779ba1719205114ea5e6a93e616826a396b926e8fc2c247"),
    ([], "ea98a0f63688f9284b7f3bce9c65052a6994c4c473d0db3beeea8edd6eb97ab9"),
]


def test_dickman_outputs_pinned(capsys):
    for argv, digest in DICKMAN_SHA256:
        rc, out = run_cli(capsys, ["dickman", *argv])
        assert rc == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class _GridBuilt(Exception):
    pass


def test_dickman_refuses_grids_past_a_million_points(monkeypatch, capsys):
    def built(us):
        raise _GridBuilt(len(us))

    monkeypatch.setattr(cli, "rho_grid", built)
    # 10^6 + 1 points first: were the cap missing, this case would fail at
    # rho_grid on a 10^6-element list before --step 1e-9 asked for 2e10
    for argv in (["--u-max", "1", "--step", "1e-6"], ["--step", "1e-9"],
                 ["--u-max", "20", "--step", "1e-320"]):
        assert cli.main(["dickman", *argv]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "more than 1000000 grid points" in captured.err, argv
    with pytest.raises(_GridBuilt) as exc:
        cli.main(["dickman", "--u-max", "0.999999", "--step", "1e-6"])
    assert exc.value.args == (10**6,)


def test_omega_subcommand(capsys):
    rc, out = run_cli(capsys, ["omega", "--poly", "t^2+1", "--k", "10,4,1"])
    assert rc == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["omega"] for r in recs] == [2, 0, 1]


def test_omega_factors_input(capsys):
    rc, out = run_cli(
        capsys, ["omega", "--factors", "[[0,1],[1,0,1]]", "--k", "10"]
    )
    assert rc == 0
    assert json.loads(out)["omega"] == 6  # roots of t(t^2+1) mod 10: 0,2,3,5,7,8


def test_leading_coefficient_divisible_by_large_prime(capsys):
    # 65537 t^2 + 3 t + 1 is 3t + 1 mod 65537: one root, 43691
    rc, out = run_cli(capsys, ["omega", "--factors", "[[1,3,65537]]",
                               "--k", "65537"])
    assert rc == 0
    assert json.loads(out)["omega"] == 1
    # x = 300 sieves past p = 65537 (sqrt max |f| is about 76800)
    rc, out = run_cli(capsys, ["psi", "--factors", "[[1,3,65537]]",
                               "--x", "300", "--y", "70000"])
    assert rc == 0
    f = build_factored([[1, 3, 65537]])
    expect = sum(1 for n in range(1, 301) if pplus_oracle(f(n)) <= 70000)
    assert json.loads(out)["psi"] == expect


def test_vw_verify_single(capsys):
    rc, out = run_cli(
        capsys,
        ["vw-verify", "--poly", "t^2+1", "--x", "100", "--z", "25",
         "--y", "10", "--kappa", "2"],
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["verdict_2_1"] and rec["verdict_2_2"]
    assert rec["lemma31"]["verdict"]
    assert rec["t0"] == 2


def test_vw_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps([
        {"factors": [[1, 0, 1]], "x": 100, "z": 25, "y": 10},
        {"factors": [[1, 0, 1]], "x": 200, "z": 60, "y": 6, "depth": 2},
    ]))
    rc, out = run_cli(capsys, ["vw-verify", "--config", str(cfg)])
    assert rc == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs[0]["method"] == "prop21"
    assert recs[1]["method"] == "prop32"
    assert len(recs[1]["v_minus"]) == 2


def test_calpha_subcommand(capsys):
    rc, out = run_cli(capsys, ["calpha", "--m", "2", "--x", "3"])
    assert rc == 0
    assert json.loads(out)["count"] == 2


def test_calpha_window(capsys):
    rc, out = run_cli(capsys, ["calpha", "--m", "2", "--window", "100,50"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["include_zero"] is True
    assert rec["lo"] == 101


def test_calpha_up_to_window_bound(capsys):
    # c_alpha(x) is the window (0, x] counted from k = 1, so x may reach the
    # window bound 10^6 + 10
    rc, out = run_cli(capsys, ["calpha", "--m", "2", "--x", "200000"])
    assert rc == 0
    assert json.loads(out)["count"] == 144536


def test_rb_subcommand(capsys):
    rc, out = run_cli(capsys, ["rb", "--b", "1", "--x", "10"])
    assert rc == 0
    assert json.loads(out)["count"] == 7


def test_rb_dump(capsys):
    rc, out = run_cli(capsys, ["rb", "--b", "1", "--x", "10", "--dump"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("b,n,pplus")
    assert len(lines) == 11


@pytest.mark.parametrize("argv", [
    ["psi", "--factors", "[[-2,1],[2,1]]", "--x", "23", "--y", "5", "--dump"],
    # f(n) passes 2^63 at n = 10: object cells after int64 ones
    ["psi", "--factors", "[[9223372036854775708,0,1]]", "--x", "23", "--y",
     "1000", "--dump"],
    ["rb", "--b", "-2", "--x", "23", "--dump"],
    ["calpha", "--m", "2", "--x", "60", "--dump", "--format", "csv"],
    ["calpha", "--m", "2", "--window", "0,0", "--dump", "--format", "csv"],
    ["dickman", "--u-max", "3", "--step", "0.125", "--format", "csv"],
    # one record per row, and one JSON record holding a list
    ["omega", "--poly", "t^2+1", "--k", ",".join(map(str, range(1, 24)))],
    ["omega", "--poly", "t^2+1", "--k", "5,1,5,25,7", "--format", "csv"],
    ["dickman", "--u-max", "3", "--step", "0.125"],
    ["calpha", "--m", "2", "--x", "60", "--dump"],
    ["calpha", "--m", "2", "--window", "0,0", "--dump"],
])
def test_tables_written_in_blocks_match_one_block(monkeypatch, capsys, argv):
    rc, whole = run_cli(capsys, argv)
    assert rc == 0
    rows = whole.count("\n") - 1
    assert rows < cli._BLOCK
    # blocks of 1, blocks of 4 with a partial last one, one short block
    for block in (1, 4, rows + 1):
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert run_cli(capsys, argv) == (0, whole), block


def test_calpha_dump_classes(capsys):
    rc, out = run_cli(capsys, ["calpha", "--m", "2", "--x", "60", "--dump",
                               "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,p,cls"
    for line in lines[1:]:
        n, p, cls = map(int, line.split(","))
        assert (n * n - 2) % p == 0 and n % p == cls


def test_empty_record_list_prints_one_newline(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("[]")
    for fmt in ("json", "csv"):
        rc, out = run_cli(capsys, ["vw-verify", "--config", str(cfg),
                                   "--format", fmt])
        assert (rc, out) == (0, "\n"), fmt


def test_arctan_subcommand(capsys):
    rc, out = run_cli(capsys, ["arctan", "--x", "10"])
    assert rc == 0
    assert json.loads(out)["count"] == 7


def test_domain_error_exit_code(capsys):
    rc, _ = run_cli(capsys, ["rb", "--b", "-4", "--x", "10"])
    assert rc == 1
    err = capsys.readouterr  # stderr captured separately above


def test_psi_rejects_bad_sieve_inputs(capsys):
    base = ["psi", "--poly", "t", "--y", "5"]
    assert cli.main(base + ["--x", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x must be >= 1" in captured.err
    # the segment size is the library's, not an option
    assert cli.main(base + ["--x", "10", "--segment-size", "16"]) == 2
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()


def test_schema_dump(capsys):
    for cmd in ["psi", "bound", "dickman", "omega", "vw-verify", "calpha",
                "rb", "arctan", "verify"]:
        rc, out = run_cli(capsys, [cmd, "--schema"])
        assert rc == 0, cmd
        assert json.loads(out) == cli._SCHEMAS[cmd]


# one valid argv per subcommand
VALID_ARGV = {
    "psi": ["--poly", "t^2+1", "--x", "100", "--y", "10", "--dump"],
    "bound": ["--d", "2,3", "--g", "1", "--u", "2", "--eps", "0.1"],
    "dickman": ["--u-max", "3", "--format", "csv"],
    "omega": ["--factors", "[[1,0,1]]", "--k", "5,25"],
    "vw-verify": ["--poly", "t^2+1", "--x", "10", "--z", "5", "--y", "3",
                  "--kappa", "2"],
    "calpha": ["--m", "2", "--window", "10,5", "--exclude-zero"],
    "rb": ["--b", "1", "--x", "10", "--out", "rb.csv"],
    "arctan": ["--x", "10"],
    "verify": ["--level", "quick"],
}


def _parse(capsys, ap, argv):
    """What parsing argv gives: the namespace or the exit code, and the
    captured stdout and stderr."""
    try:
        got = vars(ap.parse_args(argv))
    except SystemExit as e:
        got = e.code
    return got, capsys.readouterr()


@pytest.mark.parametrize("cmd", list(VALID_ARGV))
def test_one_subcommand_parser_parses_as_the_full_one(capsys, cmd):
    assert list(VALID_ARGV) == list(cli._COMMANDS)
    one, full = cli.build_parser(cmd), cli.build_parser()
    assert len(one._subparsers._group_actions[0].choices) == 1
    got = _parse(capsys, one, [cmd, *VALID_ARGV[cmd]])
    assert got == _parse(capsys, full, [cmd, *VALID_ARGV[cmd]])
    assert got[0]["cmd"] == cmd
    # help exits 0, a missing value or an unrecognized argument 2
    for argv, code in (([cmd, "--help"], 0), ([cmd, "--format"], 2),
                       ([cmd, "--bogus"], 2),
                       ([cmd, *VALID_ARGV[cmd], cmd], 2)):
        got = _parse(capsys, one, argv)
        assert got == _parse(capsys, full, argv), argv
        assert got[0] == code, argv
    # a missing required option
    if cmd in ("psi", "bound", "omega", "calpha", "rb", "arctan"):
        got = _parse(capsys, one, [cmd])
        assert got == _parse(capsys, full, [cmd])
        assert got[0] == 2
        assert "the following arguments are required" in got[1].err


def test_parser_without_a_subcommand_is_the_full_one(capsys):
    for arg in (None, "--help", "--version", "nonsense"):
        ap = cli.build_parser(arg)
        assert len(ap._subparsers._group_actions[0].choices) == 9
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(help_ in out for help_, *_ in cli._COMMANDS.values())
    assert cli.main([]) == 2
    assert "required: cmd" in capsys.readouterr().err
    assert cli.main(["nonsense"]) == 2
    assert "'verify')" in capsys.readouterr().err


def test_required_options_still_required_without_schema(capsys):
    for argv in (["psi", "--poly", "t"], ["bound", "--d", "2"],
                 ["omega", "--poly", "t"], ["calpha"], ["rb", "--x", "5"],
                 ["arctan"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required" in captured.err


def test_prime_bound_past_limit_is_domain_error(capsys):
    # --dump forces prime mode: the prime bound is isqrt(max |f|) + 1,
    # about 1e10 here, past the 2^32 limit; the check fires before sieving
    argv = ["psi", "--factors", "[[1,1,0,0,1]]", "--x", "100000",
            "--y", "1000", "--dump"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "2^32" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("x", ["1", "2.718281828459045"])
def test_thm11_range_is_empty_up_to_e(capsys, x):
    # log log x <= 0: the stated u-range is empty, not a math error
    rc, out = run_cli(capsys, ["bound", "--d", "2", "--g", "1", "--u", "1",
                               "--x", x])
    assert rc == 0
    rec = json.loads(out)
    assert rec["thm11_u_in_range"] is False
    assert rec["thm11_main_x"] == pytest.approx(rec["thm11_main"] * float(x))


def test_psi_at_x_1_reports_the_range(capsys):
    rc, out = run_cli(capsys, ["psi", "--poly", "t^2+1", "--x", "1",
                               "--u", "2"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["psi"] == 0  # f(1) = 2 is not 1-smooth
    assert rec["thm11_u_in_range"] is False


@pytest.mark.parametrize("x", ["nan", "0", "0.5", "inf"])
def test_bound_rejects_x_outside_its_domain(capsys, x):
    argv = ["bound", "--d", "2", "--g", "1", "--u", "1", "--x", x]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x must be finite and >= 1\n"


@pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
def test_bound_rejects_eps_outside_its_domain(capsys, eps):
    argv = ["bound", "--d", "2", "--g", "1", "--u", "1", "--eps", eps]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eps must be finite and >= 0\n"


@pytest.mark.parametrize("argv", [
    ["omega", "--poly", "t", "--k", ","],
    ["bound", "--d", ",", "--g", "1", "--u", "1"],
    ["bound", "--d", "2", "--g", ",", "--u", "1"],
    ["bound", "--d", "2", "--g", "1", "--u", ","],
])
def test_empty_grid_is_a_domain_error(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: empty grid")


def test_float_serialization_12_digits(capsys):
    rc, out = run_cli(capsys, ["bound", "--d", "2", "--g", "1", "--u", "1"])
    rec = json.loads(out)
    assert rec["gamma"] == float(f"{0.9139672114362374:.12g}")


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "psi.json"
    rc, _ = run_cli(
        capsys,
        ["psi", "--poly", "t", "--x", "100", "--y", "5", "--out", str(out_path)],
    )
    assert rc == 0
    rec = json.loads(out_path.read_text())
    assert rec["psi"] == 34


def test_infinite_and_tiny_bounds_give_exact_counts(capsys):
    # y = inf (or x^(1/u) past the float range) admits every prime, as
    # --y 1e300 already did: every n with f(n) != 0 is counted
    for extra in (["--y", "inf"], ["--y", "1e300"], ["--u", "1e-9"]):
        rc, out = run_cli(capsys, ["psi", "--poly", "t", "--x", "100", *extra])
        assert rc == 0, extra
        assert json.loads(out)["psi"] == 100
    # the exact bound x^64 = 1e320 is past the float range: y = inf
    rc, out = run_cli(capsys, ["psi", "--poly", "t", "--x", "100000",
                               "--u", "0.015625"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["psi"] == 100000 and rec["y"] == "inf"
    rc, out = run_cli(capsys, ["vw-verify", "--poly", "t^2+1", "--x", "50",
                               "--z", "10", "--y", "inf"])
    assert rc == 0
    assert json.loads(out)["lhs"] == 40
    # u^[u] past the default decimal range: the coefficients underflow to 0
    for argv in (["bound", "--d", "2", "--g", "1", "--u", "190000"],
                 ["psi", "--poly", "t^2+1", "--x", "10", "--u", "1e6"]):
        rc, out = run_cli(capsys, argv)
        assert rc == 0, argv
        assert json.loads(out)["thm11_main"] == 0.0, argv


@pytest.mark.parametrize("poly, psi", [
    (["--poly", "t^2+1"], 1000),
    (["--poly", "t^3+2"], 645),
    (["--factors", "[[0,1],[1,0,1]]"], 1000),
])
def test_psi_u_below_1_keeps_the_count(capsys, poly, psi):
    # y = 1000^2: gamma_f(u) is undefined below u = 1, so the main term is
    # null and u out of range, while the count is the one --y gives
    rc, out = run_cli(capsys, ["psi", *poly, "--x", "1000", "--u", "0.5"])
    assert rc == 0
    rec = json.loads(out)
    assert rec["psi"] == psi and rec["y"] == 1e6
    assert rec["thm11_main"] is None and rec["thm11_main_x"] is None
    assert rec["thm11_u_in_range"] is False
    rc, out = run_cli(capsys, ["psi", *poly, "--x", "1000", "--y", "1e6"])
    assert json.loads(out)["psi"] == psi


def test_out_of_memory_is_a_domain_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "r_b", exhausted)
    assert cli.main(["rb", "--b", "1", "--x", "4000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_bad_inputs_are_domain_errors(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps([{"x": 100}]))
    cases = [
        (["psi", "--poly", "t", "--x", "100", "--y", "nan"], "y must be >= 1"),
        (["psi", "--poly", "t", "--x", "100", "--u", "inf"], "u must be positive"),
        (["bound", "--d", "2", "--g", "1", "--u", "inf"], "u must be finite"),
        (["bound", "--d", "2", "--g", "1", "--u", "1e18"], "decimal limit"),
        (["psi", "--poly", "t^2+1", "--x", "10", "--u", "1e18"],
         "decimal limit"),
        # past the limit: a RecursionError, 24 s of discriminant, a hang
        *[(["psi", "--poly", poly, "--x", "10", "--y", "10"],
           "exceeds the degree limit 64") for poly in ("t^3000+1", "t^300+t+1",
                                                "t^10000000")],
        (["dickman", "--step", "0"], "--step must be finite and > 0"),
        (["dickman", "--step", "-1"], "--step must be finite and > 0"),
        (["dickman", "--step", "inf"], "--step must be finite and > 0"),
        (["dickman", "--step", "nan"], "--step must be finite and > 0"),
        (["dickman", "--u-max", "inf"], "--u-max must lie in"),
        (["vw-verify", "--poly", "t^2+1", "--x", "50", "--z", "10"],
         "needs --x, --z and --y"),
        (["vw-verify", "--config", str(tmp_path / "missing.json")],
         "No such file"),
        (["vw-verify", "--config", str(bad_cfg)], "each with factors, x, z and y"),
        (["omega", "--poly", "t", "--k", "5",
          "--out", str(tmp_path / "no" / "dir" / "f")], "No such file"),
        (["calpha", "--m", "2", "--window", "5"], "--window wants N,M"),
        (["calpha", "--m", "2", "--window", "5,x"], "--window wants N,M"),
        (["calpha", "--m", "2", "--window", "5,6", "--prop54"],
         "--prop54 needs --x"),
    ]
    for argv, msg in cases:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and msg in captured.err, argv


_VW_OK = {"factors": [[1, 0, 1]], "x": 100, "z": 50, "y": 10}


@pytest.mark.parametrize("argv", [
    ["psi", "--factors", "[1,2]", "--x", "10", "--y", "10"],
    {"x": "100"},
    {"x": 100.5},
    {"factors": [1, 0, 1]},
    {"depth": "2"},
])
def test_json_of_the_wrong_type_is_a_domain_error(argv, tmp_path, capsys):
    if isinstance(argv, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{**_VW_OK, **argv}]))
        argv = ["vw-verify", "--config", str(cfg)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# ------------------------------------- the per-record writer, as the oracle

def _per_record(records, fmt, keys=None):
    """What the CLI wrote before row templates: every record through
    _clean, then _JSON.encode, or _csv_cell per field under a header of
    `keys` (all fields, sorted, by default)."""
    rows = [cli._clean(r) for r in records]
    if fmt == "json":
        lines = [cli._JSON.encode(r) for r in rows]
    else:
        keys = keys or sorted({k for r in rows for k in r})
        lines = [",".join(keys)]
        lines += [",".join(cli._csv_cell(r.get(k, "")) for k in keys)
                  for r in rows]
    return "\n".join(lines) + "\n"


def _config(cmd, fmt, **options):
    return {"subcommand": cmd, "options": options, "format": fmt,
            "out": None, "version": __version__}


_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 5e-324,
           0.1 + 0.2, 1.0000000000005,
           # where "{:.12g}" and repr may part: e+12 to e+15, integral text
           # and the switch to an exponent below 1e-4
           999999999999.5, 1e12, 123456789012.0, 1234567890123.0, 1.5e15,
           9999999999999998.0, 1e-4, 1e-5,
           # the largest subnormal, the least normal, the least subnormal
           2.225073858507201e-308, 2.2250738585072014e-308, -5e-324]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_float_cells_match_the_per_record_writer(fmt):
    rng = random.Random(7)
    values = _FLOATS + [rng.uniform(-1, 1) * 10.0 ** rng.randrange(-320, 300)
                        for _ in range(2000)] + [float(i) for i in range(-3, 20)]
    # every decade from 1e-320 to 1e300, and integral floats up to 1e17
    values += [rng.uniform(1, 10) * 10.0 ** e for e in range(-320, 301)]
    values += [float(rng.randrange(10 ** e)) for e in range(1, 18)
               for _ in range(20)]
    want = [cli._JSON.encode(cli._clean(v)) if fmt == "json"
            else cli._csv_cell(cli._clean(v)) for v in values]
    assert list(cli._float_cells(np.array(values), fmt)) == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_omega_rows_match_the_per_record_writer(capsys, fmt):
    ks = [1, 10, 4, 65, 10, 1, 1000000, 8191, 1099511627777]
    f = build_factored(["t^2+1"])
    records = [{"k": k, "omega": omega(f, k),
                "config": _config("omega", fmt, poly="t^2+1", factors=None,
                                  k=k)} for k in ks]
    argv = ["omega", "--poly", "t^2+1", "--k", ",".join(map(str, ks)),
            "--format", fmt]
    assert run_cli(capsys, argv) == (0, _per_record(records, fmt))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("eps, x, us", [
    (-0.0, 1e16, [1.0, 1.0000000000005, 2.5]),
    (1e16, 1.0000000000005, [0.1 + 0.2 + 1, 7.0]),
    (0.0, None, [1.0, 3.0]),
])
def test_bound_records_match_the_per_record_writer(capsys, fmt, eps, x, us):
    records = [{**asdict(make_bound_report(d, g, u, eps=eps, x=x)),
                "config": _config("bound", fmt, d=d, g=g, u=u, eps=eps, x=x)}
               for d in (2, 3) for g in (1, 2) for u in us]
    argv = ["bound", "--d", "2,3", "--g", "1,2", "--u", ",".join(map(repr, us)),
            "--eps", repr(eps), "--format", fmt]
    if x is not None:
        argv += ["--x", repr(x)]
    assert run_cli(capsys, argv) == (0, _per_record(records, fmt))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_dickman_grid_matches_the_per_record_writer(monkeypatch, capsys, fmt):
    # rho replaced by the awkward floats; u = k * 0.1 brings its own
    monkeypatch.setattr(cli, "rho_grid", lambda us: np.resize(_FLOATS, us.size))
    us = (np.arange(16) * 0.1).tolist()
    grid = [{"u": u, "rho": r} for u, r in zip(us, np.resize(_FLOATS, 16))]
    if fmt == "json":
        want = _per_record([{"grid": grid, "config": _config(
            "dickman", fmt, u_max=1.5, step=0.1)}], fmt)
    else:
        want = _per_record(grid, fmt, keys=["u", "rho"])
    argv = ["dickman", "--u-max", "1.5", "--step", "0.1", "--format", fmt]
    assert run_cli(capsys, argv) == (0, want)


@pytest.mark.parametrize("argv", [["--x", "60"], ["--x", "60", "--prop54"],
                                  ["--window", "0,0"]])
def test_calpha_witnesses_match_the_per_record_writer(capsys, argv):
    rc, out = run_cli(capsys, ["calpha", "--m", "2", *argv, "--dump"])
    rec = json.loads(out)
    ctx = make_context(2)
    res = (c_alpha(ctx, 60) if "--x" in argv
           else windowed_cassels(ctx, 0, 0, include_zero=True))
    n, p = res.witnesses.T
    want = {**{k: v for k, v in vars(res).items() if k != "witnesses"},
            "witnesses": np.column_stack((n, p, n % p)).tolist(),
            "config": rec["config"]}
    if "--prop54" in argv:
        want["prop54"] = rec["prop54"]
    assert (rc, out) == (0, _per_record([want], "json"))


def test_omega_error_prints_nothing(capsys):
    # the check of k = 0 comes before the prime past 2^32 is met
    assert cli.main(["omega", "--poly", "t^2+1", "--k", "0,4294967357"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: omega_f(0) is undefined\n")
    assert cli.main(["omega", "--poly", "t^2+1", "--k",
                     "2,4294967357,10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "2^32" in captured.err


def test_omega_zero_before_a_prime_past_2_32(capsys):
    # omega(3) = 0 for t^2+1, so 3 * 4294967357 never meets the big prime
    rc, out = run_cli(capsys, ["omega", "--poly", "t^2+1", "--k",
                               "3,12884902071"])
    assert rc == 0
    assert [json.loads(line)["omega"] for line in out.splitlines()] == [0, 0]


def _square_roots_mod(a, p, v):
    """#{t mod p^v : t^2 = a (mod p^v)} by the closed forms, for p^v not
    dividing a.  With a = p^e u and p not dividing u there is none for odd
    e, and for even e there are p^(e/2) times the square roots of u mod
    p^w, w = v - e: 1 + (u|p) for odd p; at p = 2, 1, 2 or 4 as w is 1, 2
    or more, where u = 1 mod 2, 4 or 8, else none."""
    e = 0
    while a % p == 0:
        a, e = a // p, e + 1
    if e % 2:
        return 0
    if p == 2:
        w = min(v - e, 3)
        n = 2 ** (w - 1) if a % 2**w == 1 else 0
    else:
        n = 2 if pow(a, (p - 1) // 2, p) == 1 else 0
    return p ** (e // 2) * n


@pytest.mark.parametrize("poly, a, p, vs", [
    # every root mod 2 is singular; -7 = 1 (mod 8)
    ("t^2+7", -7, 2, [10, 33, 40, 47]),
    # t = 3s with s^2 = 7 (mod 3^28); (7|3) = 1
    ("t^2-63", 63, 3, [3, 20, 21, 30]),
])
def test_omega_past_2_32_at_singular_roots(capsys, poly, a, p, vs):
    ks = [p**v for v in vs]
    rc, out = run_cli(capsys, ["omega", "--poly", poly, "--k",
                               ",".join(map(str, ks))])
    assert rc == 0
    assert [json.loads(line)["omega"] for line in out.splitlines()] == [
        _square_roots_mod(a, p, v) for v in vs]
