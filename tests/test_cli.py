import json
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import fockmoments
from fockmoments.cli import (
    ConfigError,
    RunConfig,
    config_from_args,
    main,
    parse_jacobi,
)
from fockmoments.fock import JacobiSequence
from fockmoments.selfcheck import FAULT_ENV


BIG = "1" + "0" * 400

# rationals past the float range, each with the name its error line gives
FLOAT_RANGE_CASES = [
    (["reconstruct", "--jacobi", f"explicit:{BIG},1,1", "--N", "0", "--K", "3"],
     "weight omega_1"),
    (["reconstruct", "--N", "2", "--K", "10", "--scale", BIG], "scale"),
    (["reconstruct", "--N", "2", "--K", "10", "--scale", "1/" + BIG], "scale"),
    (["reconstruct", "--N", "2", "--K", "10", "--scale", "1/" + BIG, "--density"],
     "scale"),
    (["classical", "--A2", BIG, "--orders", "2"], "--A2"),
    (["classical", "--A2", "1e300", "--orders", "4"], "order 4"),
    (["converge", "--N", "1,2", "--orders", "2", "--scale", "1/" + BIG,
      "--plot", "x.svg"], "order 2 abs_diff at N = 1"),
]


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_text_single_value(capsys):
    code, out, err = run_cli(
        capsys, ["moments", "--N", "4", "--orders", "4", "--scale", "4"]
    )
    assert code == 0
    assert out == "4 123/64\n"


def test_moments_engines_print_identical_tables(capsys):
    args = ["moments", "--N", "3", "--orders", "0,2,4,6", "--format", "csv"]
    code1, out1, _ = run_cli(capsys, args + ["--engine", "tridiagonal"])
    code2, out2, _ = run_cli(capsys, args + ["--engine", "words"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "order,value"


def test_moments_json_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "moments",
            "--jacobi",
            "q=1/2",
            "--N",
            "3",
            "--orders",
            "2",
            "--scale",
            "canonical",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["jacobi"] == {"kind": "q", "q": "1/2"}
    assert payload["scale"] == "7/4"
    assert payload["rows"] == [{"order": 2, "value": "29/28"}]


def test_moments_out_file_matches_stdout(capsys, tmp_path):
    args = ["moments", "--N", "2", "--orders", "0,2,4", "--format", "csv"]
    code, out, _ = run_cli(capsys, args)
    assert code == 0
    target = tmp_path / "m.csv"
    code2, out2, _ = run_cli(capsys, args + ["--out", str(target)])
    assert code2 == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out


def test_converge_csv_contents(capsys):
    code, out, _ = run_cli(capsys, ["converge", "--N", "1,10", "--orders", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,order,scaled_moment,target,abs_diff,env_lo,env_hi"
    assert lines[1] == "1,2,3/2,1,1/2,1,2"
    assert lines[2] == "10,2,21/20,1,1/20,1,11/10"


def test_converge_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["converge", "--N", "4", "--orders", "4", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["scale"] == "canonical"
    assert payload["rows"][0]["scaled_moment"] == "123/64"


def test_converge_plot_svg(capsys, tmp_path):
    plot = tmp_path / "converge.svg"
    code, out, _ = run_cli(
        capsys,
        ["converge", "--N", "1,10,100", "--orders", "2,4", "--plot", str(plot)],
    )
    assert code == 0
    svg = plot.read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert "polyline" in svg
    xml.dom.minidom.parseString(svg)


def test_converge_plot_skipped_when_all_diffs_zero(capsys, tmp_path):
    plot = tmp_path / "empty.svg"
    code, out, err = run_cli(
        capsys,
        [
            "converge",
            "--jacobi",
            "q=0",
            "--N",
            "1,2",
            "--orders",
            "2",
            "--plot",
            str(plot),
        ],
    )
    assert code == 0
    assert "no plot written" in err
    assert not plot.exists()


def test_reconstruct_minimum_dimension_warns(capsys):
    code, out, err = run_cli(capsys, ["reconstruct", "--N", "5", "--K", "7"])
    assert code == 0
    assert "warning" in err and "order 2" in err
    assert "ks_to_arcsine = " in out


def test_reconstruct_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, ["reconstruct", "--N", "0", "--K", "12", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "location,weight"
    assert len(lines) == 14  # header + 12 atoms + ks line
    assert lines[-1].startswith("ks_to_arcsine = ")


def test_reconstruct_json_with_density(capsys):
    code, out, _ = run_cli(
        capsys,
        ["reconstruct", "--N", "2", "--density", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 66  # default N + 64
    assert payload["scale"] == "1"
    assert len(payload["locations"]) == 66
    assert len(payload["density_grid"]) == 257
    assert payload["ks_to_arcsine"] > 0


def test_reconstruct_density_csv_writes_sibling_file(capsys, tmp_path):
    target = tmp_path / "rec.csv"
    code, _, _ = run_cli(
        capsys,
        [
            "reconstruct",
            "--N",
            "1",
            "--K",
            "20",
            "--density",
            "--format",
            "csv",
            "--out",
            str(target),
        ],
    )
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("location,weight\n")
    sibling = Path(str(target) + ".density.csv")
    assert sibling.read_text(encoding="utf-8").startswith("x,density\n")


def test_reconstruct_density_requires_standard(capsys):
    code, _, err = run_cli(
        capsys,
        ["reconstruct", "--jacobi", "q=1/2", "--N", "2", "--density"],
    )
    assert code == 2
    assert "standard" in err


def test_reconstruct_plot(capsys, tmp_path):
    plot = tmp_path / "rec.svg"
    code, _, _ = run_cli(
        capsys,
        [
            "reconstruct",
            "--N",
            "3",
            "--K",
            "40",
            "--scale",
            "3",
            "--density",
            "--plot",
            str(plot),
        ],
    )
    assert code == 0
    svg = plot.read_text(encoding="utf-8")
    xml.dom.minidom.parseString(svg)
    assert "arcsine" in svg


def test_classical_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        ["classical", "--A2", "4", "--orders", "0,2,4", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,exact,quadrature,abs_diff"
    assert lines[2].startswith("2,2,")


def test_classical_json(capsys):
    code, out, _ = run_cli(
        capsys, ["classical", "--orders", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["A2"] == "2"
    assert payload["rows"][0]["exact"] == "3/2"
    assert abs(payload["rows"][0]["quadrature"] - 1.5) < 1e-12


# bytes printed before the three commands shared one table writer
MOMENTS_ARGV = ["moments", "--jacobi", "q=1/2", "--N", "3", "--orders", "0,1,2,4",
                "--scale", "canonical"]
MOMENTS_CSV = "order,value\n0,1\n1,0\n2,29/28\n4,2483/1568\n"
MOMENTS_JSON = """{
  "jacobi": {
    "kind": "q",
    "q": "1/2"
  },
  "N": 3,
  "scale": "7/4",
  "engine": "tridiagonal",
  "rows": [
    {
      "order": 0,
      "value": "1"
    },
    {
      "order": 1,
      "value": "0"
    },
    {
      "order": 2,
      "value": "29/28"
    },
    {
      "order": 4,
      "value": "2483/1568"
    }
  ]
}
"""
CLASSICAL_ARGV = ["classical", "--A2", "3/2", "--orders", "0,2,4"]
CLASSICAL_CSV = """order,exact,quadrature,abs_diff
0,1,1.0,0.0
2,3/4,0.75,0.0
4,27/32,0.8437500000000001,1.1102230246251565e-16
"""
CLASSICAL_JSON = """{
  "A2": "3/2",
  "panels": 256,
  "rows": [
    {
      "order": 0,
      "exact": "1",
      "quadrature": 1.0,
      "abs_diff": 0.0
    },
    {
      "order": 2,
      "exact": "3/4",
      "quadrature": 0.75,
      "abs_diff": 0.0
    },
    {
      "order": 4,
      "exact": "27/32",
      "quadrature": 0.8437500000000001,
      "abs_diff": 1.1102230246251565e-16
    }
  ]
}
"""


@pytest.mark.parametrize(
    "argv, fmt, expected",
    [
        (MOMENTS_ARGV, "csv", MOMENTS_CSV),
        (MOMENTS_ARGV, "json", MOMENTS_JSON),
        (CLASSICAL_ARGV, "csv", CLASSICAL_CSV),
        (CLASSICAL_ARGV, "json", CLASSICAL_JSON),
    ],
    ids=["moments-csv", "moments-json", "classical-csv", "classical-json"],
)
def test_table_formats_byte_exact(capsys, argv, fmt, expected):
    code, out, err = run_cli(capsys, argv + ["--format", fmt])
    assert (code, out, err) == (0, expected, "")


def test_selfcheck_fast_passes(capsys, monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)
    code, out, _ = run_cli(capsys, ["selfcheck", "--fast"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "5/5 suites passed"
    assert all(line.startswith("ok ") for line in lines[:-1])


def test_selfcheck_fault_injection_fails(capsys, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "envelope-containment")
    code, out, _ = run_cli(capsys, ["selfcheck", "--fast"])
    assert code == 1
    assert "FAIL envelope-containment: injected fault (debug hook)" in out
    assert "4/5 suites passed" in out


@pytest.mark.parametrize(
    "args",
    [
        ["moments", "--N", "-1", "--orders", "2"],
        ["moments", "--N", "2", "--orders", "-2"],
        ["moments", "--N", "2", "--orders", "2", "--scale", "0"],
        ["moments", "--N", "2", "--orders", "2", "--scale", "x"],
        ["moments", "--N", "0", "--orders", "2", "--scale", "canonical"],
        ["moments", "--jacobi", "nonsense", "--N", "1", "--orders", "2"],
        ["moments", "--jacobi", "q=3/2", "--N", "1", "--orders", "2"],
        ["moments", "--jacobi", "explicit:1,2", "--N", "3", "--orders", "2"],
        ["moments", "--N", "x", "--orders", "2"],
        ["converge", "--N", "", "--orders", "2"],
        ["reconstruct", "--N", "2", "--K", "0"],
        ["classical", "--A2", "0", "--orders", "2"],
        ["classical", "--A2", "2", "--orders", "2", "--panels", "4"],
        ["nonsense"],
        [],
        *(args for args, _ in FLOAT_RANGE_CASES),
    ],
)
def test_invalid_configurations_exit_2(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, args)
    assert code == 2


@pytest.mark.parametrize("args, name", FLOAT_RANGE_CASES)
def test_float_range_error_is_one_line(capsys, monkeypatch, tmp_path, args, name):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert list(tmp_path.iterdir()) == []  # no --plot file either


@pytest.mark.parametrize(
    "args",
    [
        ["reconstruct", "--N", "5", "--K", "6"],
        ["moments", "--N", "2", "--orders", "26", "--engine", "words"],
        ["reconstruct", "--N", "2", "--K", "4097"],
        # the cap is checked before the list is found too short
        ["moments", "--jacobi", "explicit:1", "--N", "2", "--orders", "26",
         "--engine", "words"],
        ["reconstruct", "--jacobi", "explicit:1,2,3", "--N", "0", "--K", "5000"],
    ],
)
def test_caps_exit_3(capsys, args):
    code, _, err = run_cli(capsys, args)
    assert code == 3
    assert "error:" in err


def test_density_cap_checked_before_eigensolve(capsys, monkeypatch):
    import fockmoments.spectral

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("reconstruct_state_measure ran past the density cap")

    monkeypatch.setattr(
        fockmoments.spectral, "reconstruct_state_measure", no_eigensolve
    )
    args = ["reconstruct", "--N", "201", "--K", "300", "--density"]
    code, out, err = run_cli(capsys, args)
    assert code == 3
    assert out == ""
    assert err == "error: density level 201 exceeds the cap 200\n"


def test_minimal_explicit_list_same_on_both_engines(capsys):
    # omega_1, omega_2 are every weight a length-4 walk from level 0 reads
    args = ["moments", "--jacobi", "explicit:1,2", "--N", "0", "--orders", "4"]
    for engine in ("tridiagonal", "words"):
        code, out, err = run_cli(capsys, args + ["--engine", engine])
        assert (code, out, err) == (0, "4 3/4\n", "")


def test_eigensolver_failure_exit_3(capsys, monkeypatch):
    import fockmoments.spectral

    # no weight sum can pass a negative tolerance: the orthonormality guard fires
    monkeypatch.setattr(fockmoments.spectral, "_WEIGHT_SUM_TOL", -1.0)
    code, out, err = run_cli(capsys, ["reconstruct", "--N", "2", "--K", "8"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_eigensolver_sweep_limit_exit_3(capsys, monkeypatch):
    import fockmoments.spectral

    # no sweep allowed: the bidiagonal iteration gives up on its first
    monkeypatch.setattr(fockmoments.spectral, "_MAX_SWEEPS", 0)
    code, out, err = run_cli(capsys, ["reconstruct", "--N", "2", "--K", "10"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "within 0 sweeps" in err
    assert "Traceback" not in err


def test_help_and_version_exit_0(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0


def test_config_round_trip():
    # argv resolves to exactly these fields; every other field keeps its default
    standard = {"kind": "standard"}
    cases = [
        (
            ["moments", "--N", "4", "--orders", "4", "--scale", "4"],
            dict(jacobi=standard, states=(4,), orders=(4,), scale="4"),
        ),
        (
            [
                "converge",
                "--jacobi",
                "q=1/2",
                "--N",
                "1,10",
                "--orders",
                "2,4",
                "--format",
                "json",
            ],
            dict(
                jacobi={"kind": "q", "q": "1/2"},
                states=(1, 10),
                orders=(2, 4),
                scale="canonical",
                fmt="json",
            ),
        ),
        (
            ["reconstruct", "--N", "3", "--K", "30", "--density", "--out", "x.csv"],
            dict(jacobi=standard, states=(3,), dim=30, density=True, out="x.csv"),
        ),
        (
            ["classical", "--A2", "5/2", "--panels", "64"],
            dict(
                jacobi=standard,
                orders=tuple(range(9)),
                amplitude_squared="5/2",
                panels=64,
            ),
        ),
        (["selfcheck", "--fast"], dict(jacobi=standard, fast=True)),
    ]
    for argv, resolved in cases:
        assert config_from_args(argv) == RunConfig(command=argv[0], **resolved)


def test_parse_jacobi_forms():
    assert parse_jacobi("standard") == JacobiSequence.standard()
    assert parse_jacobi("q=1/2").q is not None
    assert parse_jacobi("explicit:1,3/2,2").omegas == parse_jacobi(
        '{"kind": "explicit", "omega": ["1", "3/2", "2"]}'
    ).omegas
    for bad in ("", "quux", "q=", "q=x", "explicit:", "{", '{"kind": "z"}'):
        with pytest.raises(ConfigError):
            parse_jacobi(bad)


def test_outputs_deterministic_in_process(capsys):
    cases = [
        ["moments", "--N", "6", "--orders", "0,2,4,6", "--format", "csv"],
        ["converge", "--N", "1,10,100", "--orders", "2,4"],
        ["reconstruct", "--N", "2", "--K", "40", "--format", "json"],
        ["classical", "--orders", "0,2,4,6", "--format", "csv"],
    ]
    for argv in cases:
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1


def test_module_entry_subprocess_deterministic():
    cmd = [
        sys.executable,
        "-m",
        "fockmoments",
        "converge",
        "--N",
        "1,10",
        "--orders",
        "2,4",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().startswith("N,order,")


# runs cli.main on argv, then reports on the last stderr line the exit
# code, the fockmoments submodules loaded, and whether json was imported
_REPORT_IMPORTS = """
import sys
before = set(sys.modules)
from fockmoments import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("fockmoments."))
print(code, ",".join(loaded), "json" in set(sys.modules) - before, file=sys.stderr)
"""

MOMENTS = {"laws", "moments"}
SPECTRAL = {"laws", "spectral"}


@pytest.mark.parametrize(
    "args, loaded, uses_json",
    [
        (["--version"], set(), False),
        (["moments", "--N", "4"], MOMENTS, False),
        (["moments", "--N", "4", "--engine", "words", "--format", "csv"],
         MOMENTS, False),
        (["moments", "--jacobi", '{"kind": "standard"}', "--N", "4"], MOMENTS, True),
        (["converge", "--N", "1,10"], MOMENTS, False),
        (["converge", "--N", "1,10", "--format", "json"], MOMENTS, True),
        (["converge", "--N", "1,10", "--plot", "c.svg"], MOMENTS | {"svgplot"}, False),
        (["reconstruct", "--N", "5"], SPECTRAL, False),
        (["reconstruct", "--N", "5", "--density", "--format", "csv"], SPECTRAL, False),
        (["reconstruct", "--N", "5", "--format", "json"], SPECTRAL, True),
        (["reconstruct", "--N", "5", "--plot", "r.svg"], SPECTRAL | {"svgplot"}, False),
        (["classical", "--format", "csv"], {"laws"}, False),
        (["classical", "--format", "json"], {"laws"}, True),
        (["selfcheck", "--fast"], {"laws", "moments", "selfcheck", "spectral"}, False),
    ],
)
def test_command_imports_only_what_it_runs(tmp_path, args, loaded, uses_json):
    src = Path(fockmoments.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop(FAULT_ENV, None)
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_IMPORTS, *args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    code, modules, json_imported = proc.stderr.splitlines()[-1].split(" ")
    assert code == "0"
    assert set(modules.split(",")) == {"cli", "fock"} | loaded
    assert json_imported == str(uses_json)
