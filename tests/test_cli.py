"""Exercise the command line surface in-process."""

import csv
import io
import json
import math

import jsonschema
import pytest

from rkhskit.cli import main
from rkhskit.reporting import REPORT_SCHEMA

LN15 = 0.4054651081081644
TRANSFORM_AT_0 = 0.671396707141803  # sqrt(2/pi) sin(1)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    return list(csv.reader(io.StringIO(out)))


def test_kernel_csv_sobolev(capsys):
    code, out, _ = run(capsys, "kernel", "--family", "sobolev", "--rho", "affine", "--points", "0.5,0.9")
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["x", "y", "re", "im"]
    table = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert table[("0.5", "0.9")] == pytest.approx(LN15, abs=1e-11)
    assert table[("0.9", "0.9")] == pytest.approx(math.log(1.9), abs=1e-11)


def test_kernel_grid_probe_default(capsys):
    code, out, _ = run(capsys, "kernel", "--family", "pw", "--grid-probe", "3")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 1 + 9
    # negative zero must not leak into the CSV
    assert not any(field.startswith("-0") and float(field) == 0.0 for r in rows[1:] for field in r)


def test_transform_builtin_cos(capsys):
    code, out, _ = run(capsys, "transform", "--family", "pw", "--f", "cos", "--points", "0,0.3")
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["x", "re", "im"]
    assert float(rows[1][1]) == pytest.approx(TRANSFORM_AT_0, abs=1e-10)


def test_invert_span_round_trip(capsys):
    code, out, _ = run(capsys, "invert", "--mode", "sobolev-span", "--f", "span", "--seed", "3", "--probes", "0.5,-0.5")
    assert code == 0
    rows = rows_of(out)
    assert rows[0][-1] == "abs_err"
    for row in rows[1:]:
        assert float(row[-1]) < 1e-8


def test_invert_primitive_builtin(capsys):
    code, out, _ = run(capsys, "invert", "--mode", "pw-primitive", "--f", "cos", "--probes", "0.5")
    assert code == 0
    rows = rows_of(out)
    assert float(rows[1][1]) == pytest.approx(math.sin(0.5), abs=1e-6)


def test_invert_round_trips_csv_input(tmp_path, capsys):
    code, out, _ = run(capsys, "invert", "--mode", "pw-primitive", "--emit-grid")
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["t", "re", "im"]
    filled = tmp_path / "samples.csv"
    with open(filled, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "re", "im"])
        for t, _, _ in rows[1:]:
            writer.writerow([t, repr(math.cos(float(t))), "0"])
    code, out, _ = run(capsys, "invert", "--mode", "pw-primitive", "--input", str(filled), "--probes", "1.0")
    assert code == 0
    rows = rows_of(out)
    assert float(rows[1][1]) == pytest.approx(math.sin(1.0), abs=1e-6)
    assert float(rows[1][-1]) < 1e-6


def test_invert_rejects_mismatched_abscissae(tmp_path, capsys):
    code, out, _ = run(capsys, "invert", "--mode", "pw-primitive", "--emit-grid")
    rows = rows_of(out)
    shifted = tmp_path / "bad.csv"
    with open(shifted, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "re", "im"])
        for t, _, _ in rows[1:]:
            writer.writerow([repr(float(t) + 1e-3), "1", "0"])
    code, _, err = run(capsys, "invert", "--mode", "pw-primitive", "--input", str(shifted))
    assert code == 2
    assert "abscissae" in err


def test_invert_rejects_nonfinite_sample(tmp_path, capsys):
    code, out, _ = run(capsys, "invert", "--mode", "pw-primitive", "--emit-grid")
    rows = rows_of(out)
    samples = tmp_path / "nan.csv"
    with open(samples, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "re", "im"])
        for i, (t, _, _) in enumerate(rows[1:]):
            writer.writerow([t, "nan" if i == 3 else "1", "0"])
    code, out, err = run(capsys, "invert", "--mode", "pw-primitive", "--input", str(samples))
    assert code == 2 and out == ""
    assert err == "error: row 5: non-finite value\n"


@pytest.mark.parametrize("mode", ["sobolev-span", "pw-primitive"])
def test_invert_near_overflow_samples(tmp_path, capsys, mode):
    # every sample at 1e308: the span round trip stays finite; the primitive
    # over the padded grid exceeds the float range, which is one error line
    code, out, _ = run(capsys, "invert", "--mode", mode, "--emit-grid")
    samples = tmp_path / "huge.csv"
    with open(samples, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "re", "im"])
        for t, _, _ in rows_of(out)[1:]:
            writer.writerow([t, "1e308", "1e308"])
    code, out, err = run(capsys, "invert", "--mode", mode, "--input", str(samples))
    if mode == "pw-primitive":
        assert code == 2 and out == ""
        assert err == "error: recovered values overflow; scale the samples down\n"
        return
    assert code == 0 and err == ""
    for row in rows_of(out)[1:]:
        t, got_re, got_im, ref_re, ref_im, gap = map(float, row)
        assert all(math.isfinite(v) for v in (got_re, got_im, ref_re, ref_im, gap))
        assert gap <= 1e-8 * abs(complex(ref_re, ref_im))


def test_verify_writes_valid_report(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "--suite", "kernels", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[-1].startswith("suite kernels: PASS")
    data = json.loads(out_path.read_text())
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["suite"] == "kernels" and data["pass"] is True


@pytest.mark.parametrize("suite", ["plancherel-norm", "mutual-inverse", "box-inversion", "plancherel-3d"])
def test_verify_report_records_the_gauss_order(suite, tmp_path, capsys):
    # a report at --nodes-per-panel 2 tells itself apart from one at the default 8
    orders = []
    for argv in ((), ("--nodes-per-panel", "2")):
        out_path = tmp_path / f"rep{len(orders)}.json"
        code, _, _ = run(capsys, "verify", "--suite", suite, *argv, "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        jsonschema.validate(data, REPORT_SCHEMA)
        orders.append(data["parameters"]["nodes_per_panel"])
    assert orders == [8, 2]


def test_verify_stdout_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "isometry")
    code2, out2, _ = run(capsys, "verify", "--suite", "isometry")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "PASS" in out1


def test_verify_unknown_suite_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "kernels", "seed": 5}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0 and "kernels" in out
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--suite", "isometry")
    assert code == 0 and "isometry" in out


def test_verify_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "kernels", "radiu": 10}))
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "radiu" in err


@pytest.mark.parametrize(
    "config, word",
    [
        ({"radius": "5"}, "radius"),
        ({"seed": "x"}, "seed"),
        ({"seed": True}, "seed"),
        ({"basis_size": 15}, "basis_size"),  # a key RunConfig no longer has
        ({"out": 3}, "out"),
        ({"ndim": 3, "lo": 5, "hi": 6}, "ndim"),
        ({"probe_count": 50}, "probe_count"),  # a key RunConfig no longer has
    ],
)
def test_verify_config_rejects_bad_values(tmp_path, capsys, config, word):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "verify", "--suite", "kernels", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and word in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("invert", "--mode", "sobolev-span", "--probe-count", "-1"),
        ("kernel", "--family", "pw", "--grid-probe", "-1"),
        ("transform", "--family", "pw", "--grid-probe", "-1"),
        ("transform", "--family", "pw", "--grid-probe", "two"),
    ],
)
def test_negative_counts_rejected_at_parsing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "nonnegative integer" in capsys.readouterr().err


def test_config_accepts_integer_radius(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "sinc", "radius": 1000}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    # the sinc tolerance is 4/radius + 1e-6, so it shows that the integer reached the suite
    assert code == 0 and "tolerance=0.004001" in out


def test_generalized_inversion_ignores_radius(capsys):
    # no number of the suite depends on a radius; a small one is not refused
    code, default, _ = run(capsys, "verify", "--suite", "generalized-inversion")
    assert code == 0
    code, small, _ = run(capsys, "verify", "--suite", "generalized-inversion", "--radius", "10")
    assert code == 0 and small == default


def test_plancherel_norm_checks_a_radius_below_its_sweep(capsys):
    # the window's radius sweep runs to 200 on a box that resolves the
    # larger of 200 and the radius, so a smaller radius is checked, not refused
    code, out, err = run(capsys, "verify", "--suite", "plancherel-norm", "--radius", "100")
    assert code == 0 and err == ""
    assert out.endswith("suite plancherel-norm: PASS (7/7 records)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("invert", "--mode", "sobolev-span", "--probes", "1.5"),
        ("invert", "--mode", "pw-primitive", "--f", "cos", "--probes", "250"),
        ("invert", "--mode", "pw-primitive", "--f", "cos", "--probes", "nan"),
        ("invert", "--mode", "pw-primitive", "--f", "cos", "--probes", "0.5,inf"),
        ("kernel", "--family", "sobolev", "--points", "0.5,1.5"),
        ("kernel", "--family", "sobolev", "--rho", "affine", "--points=-1,0.5"),
        ("kernel", "--family", "pw", "--a", "-1"),
        ("transform", "--family", "pw", "--points", "50"),
        # grids beyond the node cap and the Gauss order limit are refused
        # before anything is allocated
        ("verify", "--suite", "sinc", "--radius", "1e9"),
        ("verify", "--suite", "isometry", "--nodes-per-panel", "100000"),
        ("transform", "--family", "pw", "--max-frequency", "inf"),
        ("transform", "--family", "pw", "--max-frequency", "nan"),
        # sizes whose panel count, grid size or interval length overflow a
        # float are refused before the overflow, with no warning
        ("verify", "--suite", "sinc", "--radius", "1e308"),
        ("verify", "--suite", "plancherel-norm", "--radius", "1e308"),
        ("verify", "--suite", "restriction", "--radius", "1e308"),
        ("transform", "--family", "pw", "--a", "1e308"),
        ("verify", "--suite", "sinc", "--radius", "1e200"),
        ("kernel", "--family", "sobolev", "--lo=-1e308", "--hi=1e308"),
        # the default probes lie in [-2, 2], so a (x - conj(y)) reaches 4e308
        ("kernel", "--family", "pw", "--a", "1e308"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("mode, source", [("sobolev-span", "span"), ("pw-primitive", "cos")])
def test_invert_without_probes_prints_only_the_header(capsys, mode, source):
    code, out, _ = run(capsys, "invert", "--mode", mode, "--f", source, "--probes", "")
    assert code == 0
    assert out == "t,recovered_re,recovered_im,reference_re,reference_im,abs_err\n"


def test_report_schema_subcommand(capsys):
    code, out, _ = run(capsys, "report", "--schema")
    assert code == 0
    assert json.loads(out) == REPORT_SCHEMA


def test_report_validate_and_summarize(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "verify", "--suite", "kernels", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "report", "--validate", str(out_path))
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "report", "--summarize", str(out_path))
    assert code == 0 and "records pass" in out


def test_report_flags_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = {"suite": "x", "seed": 1}  # missing required keys
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "report", "--validate", str(bad))
    assert code == 1
    assert "invalid report" in err
