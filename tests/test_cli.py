import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockmoments
from fockmoments.cli import main, parse_jacobi
from fockmoments.fock import JacobiSequence


BIG = "1" + "0" * 400

# lets a subprocess import the package from this source tree, installed or
# not, and makes any warning in it an error
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(fockmoments.__file__).resolve().parents[1]),
    "PYTHONWARNINGS": "error",
}

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
    (["classical", "--A2=1e-400", "--orders", "2"], "--A2"),
    # a plotted N past the float range, its difference 1/(2N) a subnormal
    (["converge", "--N", f"1,{10**309}", "--orders", "2", "--plot", "x.svg"],
     f"N = {10**309}"),
    # atoms at +-3.1e-312, where weight over gap overflows
    (["reconstruct", "--jacobi", "explicit:1e-323,1e-323", "--N", "0", "--K", "3",
      "--scale", "1e300", "--plot", "n.svg"], "density estimate at x = "),
    # the differences are checked an order at a time: order 4 at N = 1
    # passes the float range too, but order 2 comes first
    (["converge", "--N", "1,2", "--orders", "2,4", "--scale", "1e-308",
      "--plot", "x.svg"], "order 2 abs_diff at N = 2"),
]

# output paths that cannot be written, relative to an empty directory
UNWRITABLE_CASES = [
    ["moments", "--N", "4", "--out", "missing/x.txt"],
    ["moments", "--N", "4", "--out", "."],
    ["converge", "--N", "1,10", "--plot", "missing/x.svg"],
    ["reconstruct", "--N", "2", "--K", "10", "--plot", "missing/r.svg"],
]


# a float-sized rational whose denominator has 4,351 digits
LONG = "1." + "1" * 4250 + "e-100"
# printed numbers past the interpreter's 4,300-digit string limit, each with
# the name its error line gives
DIGIT_LIMIT_CASES = [
    (["moments", "--N", "0", "--orders", "3000"], "order 3000 moment"),
    (["moments", "--jacobi", "q=1/3", "--N", "10", "--orders", "400"],
     "order 400 moment"),
    (["moments", "--N", "2", "--orders", "2", "--scale", "1e100000", "--format",
      "json"], "--scale"),
    (["moments", "--N", "2", "--orders", "2", "--scale", "1e100000", "--format",
      "json", "--out", "m.txt"], "--scale"),
    (["moments", "--jacobi", "explicit:1e5000", "--N", "0", "--orders", "0",
      "--format", "json"], "weight omega_1"),
    (["converge", "--N", "1,2", "--orders", "2", "--scale", "1e5000"],
     "scaled_moment at N = 1, order 2"),
    (["converge", "--jacobi", "q=1/3", "--N", "9400", "--orders", "0", "--format",
      "json"], "scale at N = 9400, order 0"),
    (["reconstruct", "--N", "2", "--K", "10", "--scale", LONG], "--scale"),
    (["classical", "--A2", "1/3", "--orders", "9000"], "order 9000 moment"),
    (["classical", "--A2", LONG, "--orders", "0", "--format", "json", "--out",
      "c.txt"], "--A2"),
    # text prints no scale, only the moment
    (["moments", "--N", "2", "--orders", "2", "--scale", "1e100000"],
     "order 2 moment"),
]

# rejected --jacobi values past the digit limit, each with the name its
# error line gives
REJECTED_HUGE_CASES = [
    (["moments", "--jacobi", "q=1e5000", "--N", "1", "--orders", "2"],
     "q must lie in [0, 1]"),
    (["moments", "--jacobi", "explicit:-1e5000", "--N", "1", "--orders", "2"],
     "omega_1 must be positive"),
    (["moments", "--jacobi", '{"kind":"q","q":"-1e5000"}', "--N", "1", "--orders",
      "2"], "q must lie in [0, 1]"),
]

# JSON --jacobi descriptions with an empty list or a field the kind does not take
BAD_JSON_JACOBI = [
    '{"kind":"explicit","omega":[]}',
    '{"kind":"standard","q":"1/2"}',
    '{"kind":"q","q":"1/2","omega":["1"]}',
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
    # an odd order past every even one is 0 without a walk, however large
    code, out, err = run_cli(capsys, ["moments", "--orders", "99999999999999999999"])
    assert (code, out, err) == (0, "99999999999999999999 0\n", "")


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
    scale = Fraction(3, 2) + Fraction(1, 10**400)
    for args in [
        ["--jacobi", "q=0", "--N", "1,2", "--orders", "2"],
        # exactly 0 at an N past the float range: N is never converted
        ["--jacobi", "q=0", "--N", str(10**309), "--orders", "2,4"],
        # a difference of about 7e-401: above 0, but 0.0 as a float
        ["--N", "1", "--orders", "2", "--scale", str(scale)],
    ]:
        code, out, err = run_cli(capsys, ["converge", *args, "--plot", str(plot)])
        assert code == 0 and out
        assert err == "note: no nonzero difference at N >= 1, no plot written\n"
        assert not plot.exists()


def test_converge_plot_skipped_at_n_zero(capsys, tmp_path):
    # a log axis has no place for N = 0, so its difference is no point
    plot = tmp_path / "c.svg"
    code, out, err = run_cli(
        capsys,
        ["converge", "--N", "0", "--orders", "2", "--scale", "1", "--plot", str(plot)],
    )
    assert code == 0
    assert out.splitlines()[1].startswith("0,2,")
    assert err == "note: no nonzero difference at N >= 1, no plot written\n"
    assert not plot.exists()
    # with N = 0 beside N = 1 the plot holds N = 1 alone
    code, out, err = run_cli(
        capsys,
        ["converge", "--N", "0,1", "--orders", "2", "--scale", "1", "--plot", str(plot)],
    )
    assert code == 0 and err == ""
    assert plot.read_text(encoding="utf-8").count("<circle") == 1


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


def test_reconstruct_default_dimension_out_file(capsys, tmp_path):
    target = tmp_path / "rec.txt"
    code, out, _ = run_cli(capsys, ["reconstruct", "--N", "3", "--out", str(target)])
    assert (code, out) == (0, "")
    text = target.read_text(encoding="utf-8")
    assert text.startswith("# N = 3, K = 67, scale = 1\n")  # default K = N + 64
    assert text == run_cli(capsys, ["reconstruct", "--N", "3"])[1]


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


def test_classical_default_orders_and_meta(capsys):
    code, out, _ = run_cli(
        capsys, ["classical", "--A2", "5/2", "--panels", "64", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["A2"], payload["panels"]) == ("5/2", 64)
    assert [row["order"] for row in payload["rows"]] == list(range(9))


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
# --jacobi and --scale as the JSON meta shows them
MOMENTS_META_ARGV = ["moments", "--jacobi", "q=1/2", "--N", "4", "--orders", "4",
                     "--scale", "4"]
MOMENTS_META_JSON = """{
  "jacobi": {
    "kind": "q",
    "q": "1/2"
  },
  "N": 4,
  "scale": "4",
  "engine": "tridiagonal",
  "rows": [
    {
      "order": 4,
      "value": "11075/32768"
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

# canonical scale on the standard sequence: envelope cells filled
CONVERGE_ARGV = ["converge", "--N", "1", "--orders", "2"]
CONVERGE_HEADER = "N,order,scaled_moment,target,abs_diff,env_lo,env_hi\n"
CONVERGE_CSV = CONVERGE_HEADER + "1,2,3/2,1,1/2,1,2\n"
CONVERGE_JSON_ARGV = ["converge", "--N", "4", "--orders", "4"]
CONVERGE_JSON = """{
  "jacobi": {
    "kind": "standard"
  },
  "scale": "canonical",
  "rows": [
    {
      "N": 4,
      "order": 4,
      "scale": "4",
      "scaled_moment": "123/64",
      "target": "3/2",
      "abs_diff": "27/64",
      "env_lo": "9/8",
      "env_hi": "45/16"
    }
  ]
}
"""
# no envelope off the standard sequence: blank in CSV, null in JSON
CONVERGE_BLANK_ARGV = ["converge", "--jacobi", "q=1/2", "--N", "2", "--orders", "2",
                       "--scale", "1"]
CONVERGE_BLANK_CSV = CONVERGE_HEADER + "2,2,13/8,1,5/8,,\n"
CONVERGE_BLANK_JSON = """{
  "jacobi": {
    "kind": "q",
    "q": "1/2"
  },
  "scale": "1",
  "rows": [
    {
      "N": 2,
      "order": 2,
      "scale": "1",
      "scaled_moment": "13/8",
      "target": "1",
      "abs_diff": "5/8",
      "env_lo": null,
      "env_hi": null
    }
  ]
}
"""
# text output prints neither the scale nor the weights, so neither needs
# to be printable; text and CSV print no --A2 either
HUGE_SCALE_ARGV = ["moments", "--N", "2", "--orders", "0", "--scale", "1e5000"]
HUGE_WEIGHT_ARGV = ["moments", "--jacobi", "explicit:1e5000", "--N", "0", "--orders",
                    "0"]
HUGE_A2_ARGV = ["classical", "--A2", LONG, "--orders", "0"]


@pytest.mark.parametrize(
    "argv, fmt, expected",
    [
        (MOMENTS_ARGV, "csv", MOMENTS_CSV),
        (MOMENTS_ARGV, "json", MOMENTS_JSON),
        (CLASSICAL_ARGV, "csv", CLASSICAL_CSV),
        (CLASSICAL_ARGV, "json", CLASSICAL_JSON),
        (MOMENTS_META_ARGV, "json", MOMENTS_META_JSON),
        (CONVERGE_ARGV, "csv", CONVERGE_CSV),
        (CONVERGE_JSON_ARGV, "json", CONVERGE_JSON),
        (CONVERGE_BLANK_ARGV, "csv", CONVERGE_BLANK_CSV),
        (CONVERGE_BLANK_ARGV, "json", CONVERGE_BLANK_JSON),
        (HUGE_SCALE_ARGV, "text", "0 1\n"),
        (HUGE_WEIGHT_ARGV, "text", "0 1\n"),
        (HUGE_A2_ARGV, "text", "0 1 1.0 0.000e+00\n"),
        (HUGE_A2_ARGV, "csv", "order,exact,quadrature,abs_diff\n0,1,1.0,0.0\n"),
    ],
    ids=["moments-csv", "moments-json", "classical-csv", "classical-json",
         "moments-json-meta", "converge-csv", "converge-json", "converge-csv-blank",
         "converge-json-null", "moments-text-huge-scale", "moments-text-huge-weight",
         "classical-text-huge-A2", "classical-csv-huge-A2"],
)
def test_table_formats_byte_exact(capsys, argv, fmt, expected):
    code, out, err = run_cli(capsys, argv + ["--format", fmt])
    assert (code, out, err) == (0, expected, "")


# size and sha256 of the SVG each argv wrote, and what it printed on
# stderr; the first two as written before the plot size and the label
# branches of svgplot.line_plot became constants, the last two a log axis
# with no whole decade (ticks 2, 3, 0.17, 0.25) and a single atom (both
# eigenvalues 0 once the weight underflows to 0.0)
PLOT_CASES = [
    (["converge", "--N", "1,10,100", "--orders", "2,4"], 2611,
     "acc0e99b5c6c02f37c97ce17d424bd821410b35db173d41bd9217d041845a177", ""),
    (["reconstruct", "--N", "1", "--K", "8", "--density"], 36248,
     "9fa367541d685def2d18cf77179b1f54c2e3a26075fd287bf20a7439da544596", ""),
    (["converge", "--N", "2,3", "--orders", "2"], 1712,
     "bc75ebb2d4c730cd2c0d1b8e0087494f41aa6c8d7dbeed5011c5e626f8db3fe9", ""),
    (["reconstruct", "--jacobi", "explicit:1e-400", "--N", "0", "--K", "2"],
     17276, "7b01b53ab418de4046ce556575149ccb223623c00e2000cf5c2ea56d8a5af912",
     "warning: K = 2 reproduces moments of N = 0 only up to order 2\n"),
]


@pytest.mark.parametrize(
    "argv, size, digest, stderr",
    PLOT_CASES,
    ids=["converge", "reconstruct-density", "converge-no-decade",
         "reconstruct-one-atom"],
)
def test_plot_svg_byte_exact(capsys, tmp_path, argv, size, digest, stderr):
    plot = tmp_path / "plot.svg"
    code, _, err = run_cli(capsys, argv + ["--plot", str(plot)])
    svg = plot.read_bytes()
    assert (code, err, len(svg)) == (0, stderr, size)
    assert hashlib.sha256(svg).hexdigest() == digest


# size and sha256 of what each argv printed ("-") and wrote before the
# reconstruct layouts moved from spectral into cli
RECONSTRUCT_CASES = [
    (["reconstruct", "--N", "3", "--K", "12", "--scale", "3"],
     {"-": (555, "db1a6d6ab409cfcfedc773cd27e0b8802d4c65e3f0e1f5fb32e29636b9bc4fd9")}),
    (["reconstruct", "--N", "1", "--K", "8", "--density", "--format", "csv"],
     {"-": (10452, "e0655db6f606839bfe99e8a130eefa3b46de0bcc27eb8b40fca58c181451756f")}),
    (["reconstruct", "--N", "1", "--K", "8", "--density", "--format", "csv",
      "--out", "r.csv"],
     {"-": (36, "d5455eeb734e74da09e437d1cd24fe6f2ef07478c406e621df7c11a5685e6baf"),
      "r.csv": (332, "ae6cd9c2fa1d288d45d034b0c399be3bc1e79a483fcd8742051ff1655d0336fe"),
      "r.csv.density.csv":
          (10083, "8be210479c65cf8e9a109db3cde9f004a419a0c2b86af5bfa1be12d5b71bddcb")}),
    (["reconstruct", "--N", "1", "--K", "8", "--density", "--format", "json"],
     {"-": (17336, "bafb07f0c22a594df10932753ffb2b78c678aa82b6eed9d0ea23fee4022e2fd0")}),
]


@pytest.mark.parametrize(
    "argv, outputs", RECONSTRUCT_CASES,
    ids=["text", "csv-density", "csv-density-out", "json-density"],
)
def test_reconstruct_bytes_pinned(capsys, monkeypatch, tmp_path, argv, outputs):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    written["-"] = out.encode()
    assert {
        name: (len(data), hashlib.sha256(data).hexdigest())
        for name, data in written.items()
    } == outputs


def test_selfcheck_fast_passes(capsys):
    code, out, _ = run_cli(capsys, ["selfcheck", "--fast"])
    assert code == 0
    assert out == (
        "ok engine-equivalence (168 checks)\n"
        "ok envelope-containment (16 checks)\n"
        "ok odd-vanishing (225 checks)\n"
        "ok hankel-psd (26 checks)\n"
        "ok density-spectrum (2 checks)\n"
        "5/5 suites passed\n"
    )


def test_selfcheck_full_passes(capsys):
    code, out, _ = run_cli(capsys, ["selfcheck"])
    assert code == 0
    assert out == (
        "ok engine-equivalence (648 checks)\n"
        "ok envelope-containment (64 checks)\n"
        "ok odd-vanishing (1275 checks)\n"
        "ok hankel-psd (42 checks)\n"
        "ok density-spectrum (3 checks)\n"
        "5/5 suites passed\n"
    )


def test_selfcheck_runner_stops_at_first_counterexample(monkeypatch):
    import fockmoments.selfcheck as selfcheck

    seen = []

    def suite(fast):
        for verdict in (None, None, "bad", None):
            seen.append(verdict)
            yield verdict

    monkeypatch.setattr(selfcheck, "_SUITES", (("probe", suite),))
    assert selfcheck.run_selfcheck() == [selfcheck.SuiteResult("probe", False, 3, "bad")]
    assert seen == [None, None, "bad"]


def test_selfcheck_fault_injection_fails(capsys, monkeypatch):
    import fockmoments.selfcheck as selfcheck

    def failing(fast):
        yield "injected"

    suites = list(selfcheck._SUITES)
    suites[1] = ("envelope-containment", failing)
    monkeypatch.setattr(selfcheck, "_SUITES", tuple(suites))
    code, out, _ = run_cli(capsys, ["selfcheck", "--fast"])
    assert code == 1
    assert "FAIL envelope-containment: injected\n" in out
    assert "4/5 suites passed" in out


def _shifted_odd_walk(real):
    # only the odd-vanishing suite calls the walk at the default scale
    def walk(seq, n, orders, scale=None):
        if scale is not None:
            return real(seq, n, orders, scale=scale)
        return [v + k % 2 for k, v in zip(orders, real(seq, n, orders))]
    return walk


# per suite, a patch that breaks what one of its checks compares, and the
# counterexample the suite then reports
SELFCHECK_BREAKS = [
    ("engine-equivalence", "moment_by_words",
     lambda real: lambda seq, n, order, scale=1: real(seq, n, order, scale=scale) + 1,
     "standard, N=0, order=0, s=1: words 2, walk 1, closed form 1"),
    ("envelope-containment", "moment_envelope",
     lambda real: lambda n, order: tuple(v + 1 for v in real(n, order)),
     "N=1, order=2: 3/2 outside [2, 3]"),
    ("odd-vanishing", "moments_by_walk", _shifted_odd_walk,
     "standard, N=0, order=1: walk power 1"),
    ("odd-vanishing", "word_matrix_element",
     lambda real: lambda seq, n, word: real(seq, n, word) + 1,
     "standard, N=0, word a: element 1"),
    ("hankel-psd", "validate_moments", lambda real: lambda values: False,
     "standard, N=0, s=1: Hankel matrix not PSD"),
    ("density-spectrum", "DENSITY_SPECTRUM_TOL", lambda real: 0.0,
     "N=0, K=96: sup CDF distance 2.041e-03 > 0e+00"),
]


@pytest.mark.parametrize("suite, name, patch, counterexample", SELFCHECK_BREAKS)
def test_selfcheck_reports_a_real_counterexample(
    capsys, monkeypatch, suite, name, patch, counterexample
):
    import fockmoments.selfcheck as selfcheck

    monkeypatch.setattr(selfcheck, name, patch(getattr(selfcheck, name)))
    code, out, err = run_cli(capsys, ["selfcheck", "--fast"])
    assert (code, err) == (1, "")
    assert f"\nFAIL {suite}: {counterexample}\n" in "\n" + out
    assert out.endswith("\n4/5 suites passed\n")


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
        *UNWRITABLE_CASES,
        *(["moments", "--jacobi", j, "--N", "0", "--orders", "0"]
          for j in BAD_JSON_JACOBI),
        *(args for args, _ in REJECTED_HUGE_CASES),
        ["moments", "--N", "2", "--orders", "x"],
        ["classical", "--A2", "x", "--orders", "2"],
    ],
)
def test_invalid_configurations_exit_2(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, args)
    assert code == 2


def _one_line_error(capsys, tmp_path, args, code, name):
    """Run args in the empty tmp_path: exit code, no stdout, one error line
    naming name, and no file written; return the line."""
    result, out, err = run_cli(capsys, args)
    assert (result, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert list(tmp_path.iterdir()) == []  # no --out or --plot file either
    return err


@pytest.mark.parametrize("args, name", FLOAT_RANGE_CASES)
def test_float_range_error_is_one_line(capsys, monkeypatch, tmp_path, args, name):
    monkeypatch.chdir(tmp_path)
    _one_line_error(capsys, tmp_path, args, 2, name)


@pytest.mark.parametrize("depth", [1100, 5000])
def test_deeply_nested_json_jacobi_is_one_line(capsys, monkeypatch, tmp_path, depth):
    # past the interpreter's recursion limit, where json.loads gives up
    monkeypatch.chdir(tmp_path)
    kind = "[" * depth + "]" * depth
    args = ["moments", "--jacobi", f'{{"kind":{kind}}}', "--N", "1", "--orders", "2"]
    err = _one_line_error(capsys, tmp_path, args, 2, "--jacobi")
    assert err == "error: --jacobi: JSON nests too deeply\n"


@pytest.mark.parametrize("args, name", REJECTED_HUGE_CASES)
def test_rejected_huge_value_is_one_line(capsys, monkeypatch, tmp_path, args, name):
    monkeypatch.chdir(tmp_path)
    err = _one_line_error(capsys, tmp_path, args, 2, name)
    assert err.endswith(", got a number of more than 4,300 digits\n")


@pytest.mark.parametrize("args, name", DIGIT_LIMIT_CASES)
def test_digit_limit_error_is_one_line(capsys, monkeypatch, tmp_path, args, name):
    monkeypatch.chdir(tmp_path)
    err = _one_line_error(capsys, tmp_path, args, 3, name)
    assert err.endswith(" has more than 4,300 digits, too many to print\n")


@pytest.mark.parametrize("args", UNWRITABLE_CASES)
def test_unwritable_output_is_one_line(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, args)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    # --plot is written last: the table is already on stdout
    assert out == (run_cli(capsys, args[:-2])[1] if "--plot" in args else "")
    assert list(tmp_path.iterdir()) == []


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
        # K is checked before the canonical scale [N]_q, a power of q with
        # about N bits, is computed
        ["reconstruct", "--jacobi", "q=1/3", "--N", str(10**309), "--scale",
         "canonical"],
        ["reconstruct", "--jacobi", "q=1/3", "--N", str(10**309), "--K", "100",
         "--scale", "canonical"],
        *(args for args, _ in DIGIT_LIMIT_CASES),
    ],
)
def test_caps_exit_3(capsys, monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, args)
    assert code == 3
    assert "error:" in err
    if "canonical" in args:
        assert time.perf_counter() - start < 2.0


def test_density_past_the_float_range_of_phi_0(capsys):
    # phi_0 underflows past |x| ~ 38.6; level 1000 reaches sqrt(2001)
    args = ["reconstruct", "--N", "1000", "--K", "1064", "--density",
            "--format", "json"]
    code, out, err = run_cli(capsys, args)
    assert (code, err) == (0, "")
    deep = [f for x, f in json.loads(out)["density_grid"]
            if 38.6 < abs(x) < 2001**0.5]
    assert deep and all(f > 0.0 for f in deep)


@pytest.mark.parametrize(
    "args, code, line",
    [
        (["moments", "--N", "-1"], 2, "--N must be >= 0, got -1"),
        (["moments", "--orders", "2,-1"], 2, "--orders must be >= 0, got -1"),
        (["converge", "--N", "1,-2"], 2, "--N must be >= 0, got -2"),
        (["reconstruct", "--K", "0"], 2, "--K must be >= 1, got 0"),
        (["classical", "--panels", "15"], 2, "--panels must be >= 16, got 15"),
        # a negative flag is reported when it is parsed, before a later flag
        (["reconstruct", "--N", "-1", "--K", "x"], 2, "--N must be >= 0, got -1"),
        (["moments", "--orders", "26", "--engine", "words"], 3,
         "balanced-word half-length 13 exceeds the cap 12"),
        (["reconstruct", "--K", "4097"], 3,
         "truncation dimension 4097 exceeds the cap 4096"),
        # every order's cap is checked before the first sum
        (["moments", "--engine", "words", "--N", "12", "--orders", "24,26"], 3,
         "balanced-word half-length 13 exceeds the cap 12"),
    ],
)
def test_integer_flag_errors(capsys, monkeypatch, tmp_path, args, code, line):
    import fockmoments.moments

    summed = []
    real = fockmoments.moments.moment_by_words

    def recorder(*call, **kwargs):
        value = real(*call, **kwargs)
        summed.append(call)  # a sum that ran to the end
        return value

    monkeypatch.setattr(fockmoments.moments, "moment_by_words", recorder)
    monkeypatch.chdir(tmp_path)
    err = _one_line_error(capsys, tmp_path, args, code, line)
    assert err == f"error: {line}\n"
    assert summed == []


# the integer flags of each command, and its formats
INT_FLAGS = {
    "moments": ("--N", "--orders"),
    "converge": ("--N", "--orders"),
    "reconstruct": ("--N", "--K"),
    "classical": ("--orders", "--panels"),
}
FORMATS = {
    "moments": ("text", "csv", "json"),
    "converge": ("csv", "json"),
    "reconstruct": ("text", "csv", "json"),
    "classical": ("text", "csv", "json"),
}
# values that parse and run quickly; every --N is >= 1 for converge's
# canonical scale and every --K is >= N + 2
GOOD_VALUES = {
    "--N": st.integers(1, 6).map(str),
    "--orders": st.lists(st.integers(0, 8), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v))
    ),
    "--K": st.integers(8, 24).map(str),
    "--panels": st.integers(16, 40).map(str),
}
# negative, non-integer, empty and below-least values
BAD_VALUES = {
    "--N": st.sampled_from(["-1", "1,-2", "2.5", "", " ", "x"]),
    "--orders": st.sampled_from(["-1", "2,-3", "2.5", "", "1,,x", "1e3"]),
    "--K": st.sampled_from(["0", "-1", "2.5", "", "x"]),
    "--panels": st.sampled_from(["15", "-1", "2.5", "", "x"]),
}
# a value just past a cap: the flags it sets and its error line
CAPS = {
    "moments": [
        (["--orders", "26", "--engine", "words"],
         "balanced-word half-length 13 exceeds the cap 12"),
    ],
    "reconstruct": [
        (["--K", "4097"], "truncation dimension 4097 exceeds the cap 4096"),
    ],
}


@st.composite
def _argvs(draw):
    """An argv, whether one of its values is bad, and the line of the cap
    that it passes, if any."""
    command = draw(st.sampled_from(sorted(INT_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(FORMATS[command]))]
    cap = draw(st.sampled_from([None, *CAPS.get(command, [])]))
    fixed = cap[0] if cap else []
    if command == "moments" and "--engine" not in fixed:
        argv += ["--engine", draw(st.sampled_from(["tridiagonal", "words"]))]
    if command == "reconstruct" and "--density" not in fixed and draw(st.booleans()):
        argv.append("--density")
    any_bad = False
    for flag in INT_FLAGS[command]:
        if flag in fixed:
            continue
        kind = draw(st.sampled_from(["good", "bad", "default"]))
        if kind != "default":
            any_bad |= kind == "bad"
            values = BAD_VALUES if kind == "bad" else GOOD_VALUES
            argv += [flag, draw(values[flag])]
    return argv + fixed, any_bad, cap[1] if cap else None


def _never_read(*args, **kwargs):
    raise AssertionError("a weight was read before the cap was checked")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_integer_flags_exit_by_the_one_rule(case):
    argv, any_bad, cap_line = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if cap_line:
            # every cap fails before any weight is read
            with mock.patch.object(JacobiSequence, "omega", _never_read):
                code = main(argv)
        else:
            code = main(argv)
    err = err.getvalue()
    if any_bad:
        assert code == 2
    elif cap_line:
        assert (code, err) == (3, f"error: {cap_line}\n")
    else:
        assert code == 0 and out.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert "error:" not in err


# positive rationals as typed, and text the rational rule refuses
POSITIVE_TEXTS = st.one_of(
    st.integers(1, 40).map(str),
    st.tuples(st.integers(1, 40), st.integers(1, 40)).map("{0[0]}/{0[1]}".format),
    st.sampled_from([
        "0.5", "2.25", " 5/3 ", "1e400", "1e-400", "1e-323", "1/1" + "0" * 400,
    ]),
)
REFUSED_TEXTS = st.one_of(
    st.integers(-40, 0).map(str),
    st.sampled_from([
        "0.0", "-0", "-3/6", "-1e400", "x", "", "1/0", "nan", "inf", "True", "1//2",
    ]),
)
# a weight that explicit: refuses (an empty one is dropped, not refused)
REFUSED_WEIGHTS = st.sampled_from(["0", "-2", "-3/6", "x", "nan", "1/0", "0.0"])
# JSON descriptions, and whether each is refused: a field missing, null,
# extra or of the wrong type
JSON_JACOBI = [
    ('{"kind":"standard"}', False),
    ('{"kind":"q","q":"1/2"}', False),
    ('{"kind":"q","q":0}', False),
    ('{"kind":"explicit","omega":["1","3/2",2]}', False),
    ('{"kind":"q"}', True),
    ('{"kind":"q","q":null}', True),
    ('{"kind":"standard","q":"1/2"}', True),
    ('{"kind":"q","q":0.5}', True),
    ('{"kind":"q","q":["1/2"]}', True),
    ('{"kind":"q","q":"3/2"}', True),
    ('{"kind":"explicit"}', True),
    ('{"kind":"explicit","omega":"12"}', True),
    ('{"kind":"explicit","omega":[]}', True),
    ('{"kind":"explicit","omega":[1.5]}', True),
    ('{"kind":"explicit","omega":[true]}', True),
    ('{"kind":"explicit","omega":["1",null]}', True),
    ('{"kind":1}', True),
    ('["standard"]', True),
    ("{", True),
]
Q_VALUES = [
    ("0", False), ("1", False), ("1/2", False), ("0.25", False), ("3/2", True),
    ("-1/2", True), ("x", True), ("", True), ("1e400", True),
]
# the rational flags of each command, in the order it parses them
RATIONAL_FLAGS = {
    "moments": ("--jacobi", "--scale"),
    "converge": ("--jacobi", "--scale"),
    "reconstruct": ("--jacobi", "--scale"),
    "classical": ("--A2",),
}


@st.composite
def _jacobi_values(draw):
    """A --jacobi value and whether the rational rule refuses it."""
    form = draw(st.sampled_from(["standard", "q", "explicit", "json"]))
    if form == "standard":
        return "standard", False
    if form == "q":
        q, refused = draw(st.sampled_from(Q_VALUES))
        return f"q={q}", refused
    if form == "json":
        return draw(st.sampled_from(JSON_JACOBI))
    weights = draw(st.lists(POSITIVE_TEXTS, min_size=1, max_size=4))
    refused = draw(st.booleans())
    if refused:
        weights.insert(draw(st.integers(0, len(weights))), draw(REFUSED_WEIGHTS))
    elif draw(st.booleans()):
        weights = []  # explicit: with no weight
        refused = True
    return "explicit:" + ",".join(weights), refused


@st.composite
def _rational_argvs(draw):
    """An argv with good integer flags, the first rational flag it parses
    that the rule refuses, if any, and whether to add a --plot file."""
    command = draw(st.sampled_from(sorted(RATIONAL_FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(FORMATS[command]))]
    for flag in INT_FLAGS[command]:
        argv.append(f"{flag}={draw(GOOD_VALUES[flag])}")
    if command == "moments":
        argv.append("--engine=" + draw(st.sampled_from(["tridiagonal", "words"])))
    if command == "reconstruct" and draw(st.booleans()):
        argv.append("--density")
    refused_flag = None
    for flag in RATIONAL_FLAGS[command]:
        if flag == "--jacobi":
            value, refused = draw(_jacobi_values())
        elif flag == "--scale" and draw(st.booleans()):
            value, refused = "canonical", False
        else:
            refused = draw(st.booleans())
            value = draw(REFUSED_TEXTS if refused else POSITIVE_TEXTS)
        argv.append(f"{flag}={value}")
        if refused and refused_flag is None:
            refused_flag = flag
    plot = command in ("converge", "reconstruct") and draw(st.booleans())
    return argv, refused_flag, plot


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rational_argvs())
def test_rational_flags_exit_by_the_one_rule(case):
    argv, refused_flag, plot = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if plot:
            argv = [*argv, f"--plot={tmp}/plot.svg"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = os.listdir(tmp)
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == "" and written == []
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert "error:" not in err
    # the rule's messages are "<flag>: <why>" and "<flag> must ..."
    by_rule = any(
        err.startswith(f"error: {flag}{sep}")
        for flag in RATIONAL_FLAGS[argv[0]]
        for sep in (": ", " must ")
    )
    if refused_flag:
        assert code == 2 and by_rule
        assert err.startswith(f"error: {refused_flag}")
    else:
        assert not by_rule


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


def test_parse_jacobi_forms():
    assert parse_jacobi("standard") == JacobiSequence.standard()
    assert parse_jacobi("q=1/2").q is not None
    assert parse_jacobi("explicit:1,3/2,2").omegas == parse_jacobi(
        '{"kind": "explicit", "omega": ["1", "3/2", "2"]}'
    ).omegas
    for bad in ("", "quux", "q=", "q=x", "explicit:", "{", '{"kind": "z"}'):
        with pytest.raises(ValueError):
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
    first = subprocess.run(cmd, capture_output=True, env=SUBPROCESS_ENV, timeout=120)
    second = subprocess.run(cmd, capture_output=True, env=SUBPROCESS_ENV, timeout=120)
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
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_IMPORTS, *args],
        capture_output=True, text=True, cwd=tmp_path, env=SUBPROCESS_ENV, timeout=120,
    )
    code, modules, json_imported = proc.stderr.splitlines()[-1].split(" ")
    assert code == "0"
    assert set(modules.split(",")) == {"cli", "fock"} | loaded
    assert json_imported == str(uses_json)


# every command runs in one interpreter: a module one of them imports
# stays in sys.modules, so the report after each command shows whether it
# or an earlier one loaded dataclasses or inspect, which site does not
STARTUP_ARGVS = [
    ["--version"],
    ["moments", "--N", "4", "--orders", "0,2,4,6"],
    ["converge", "--N", "1,10,100", "--plot", "c.svg"],
    ["reconstruct", "--N", "2", "--K", "64", "--plot", "r.svg"],
    ["classical", "--format", "json"],
    ["selfcheck", "--fast"],
]
_REPORT_STARTUP = """
import sys
before = set(sys.modules)
from fockmoments import cli
report = []
for argv in ARGVS:
    code = cli.main(argv)
    report.append((code, sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
print(report, file=sys.stderr)
"""


def test_no_command_imports_dataclasses_or_inspect(tmp_path):
    script = f"ARGVS = {STARTUP_ARGVS!r}" + _REPORT_STARTUP
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=tmp_path, env=SUBPROCESS_ENV, timeout=120,
    )
    assert proc.stderr.splitlines()[-1] == repr([(0, [])] * len(STARTUP_ARGVS))
