"""Command-line interface: exit codes, output stability, JSON round-trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from theta5.cli import run

#: ``theta5 numeric-check`` text and JSON over every id, at the default seed and at
#: ``--seed 7``, recorded before the theta-sum kernel's cutoff was tightened: a kernel
#: change that moves a residual digit fails here, not only one that fails a check.
NUMERIC_REFERENCE = Path(__file__).resolve().parent / "data" / "numeric_reference.json"


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_list():
    code, text = invoke("list")
    assert code == 0
    assert "E1" in text and "W6" in text and "48 entries" in text


def test_list_json():
    code, text = invoke("list", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert len(doc) == 48
    e1 = next(e for e in doc if e["id"] == "E1")
    assert e1["location"] == "§1 Eq. (1)"


def test_expand_eta_quotient():
    code, text = invoke("expand", "--object", "eta-quotient",
                        "--spec", "5:5,1:-1", "--order", "10")
    assert code == 0
    assert text.strip() == ("(2*pi*i)^0 * e(0) * q^(1) * [1 + q^(1) + 2*q^(2) "
                            "+ 3*q^(3) + 5*q^(4) + 2*q^(5) + 6*q^(6) + 5*q^(7) "
                            "+ 7*q^(8) + 5*q^(9)]")
    # multipliers may be fractions, in a list or alone
    code2, _ = invoke("expand", "--object", "eta-quotient",
                      "--spec", "1/5:1,1:-1", "--order", "6")
    assert code2 == 0
    code3, text3 = invoke("expand", "--object", "eta-quotient", "--spec", "1/5:3", "--order", "3")
    assert code3 == 0
    assert text3.strip() == ("(2*pi*i)^0 * e(0) * q^(1/40) * [1 - 3*q^(1/5) + 5*q^(3/5) "
                             "- 7*q^(6/5) + 9*q^(2)]")


def test_expand_theta_json_roundtrip():
    code, text = invoke("expand", "--object", "theta", "--char", "1,1/5",
                        "--order", "8", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["series"]["qpow"] == "1/8"
    assert doc["series"]["phase"] == "1/20"
    redumped = json.dumps(doc, indent=2, ensure_ascii=False)
    assert redumped == text.strip()


def test_expand_theta_product_and_eta():
    code, a = invoke("expand", "--object", "theta", "--char", "0,1", "--order", "5")
    code2, b = invoke("expand", "--object", "theta-product", "--char", "0,1",
                      "--order", "5")
    assert code == code2 == 0
    assert a == b  # the two construction routes render identically
    code, text = invoke("expand", "--object", "eta", "--mult", "1/5", "--order", "2")
    assert code == 0
    assert "q^(1/120)" in text and "q^(1/5)" in text


def test_expand_requires_arguments():
    code, _ = invoke("expand", "--object", "theta")
    assert code == 2
    code, _ = invoke("expand", "--object", "eta-quotient")
    assert code == 2


def test_expand_deriv_only_for_theta(capsys):
    for obj in (["theta-product", "--char", "1/5,1/5"], ["eta"],
                ["eta-quotient", "--spec", "5:5,1:-1"]):
        code, text = invoke("expand", "--object", *obj, "--deriv", "2", "--order", "5")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: expand --deriv applies only to --object theta\n"
    code, text = invoke("expand", "--object", "theta-product", "--char", "1/5,1/5",
                        "--deriv", "0", "--order", "5")
    assert code == 0 and text.startswith("(2*pi*i)^0 ")


def test_expand_eta_quotient_checks_zero_exponents(capsys):
    for spec, order in (("5:0", "-3"), ("0:0", "10"), ("5:1", "-3")):
        code, text = invoke("expand", "--object", "eta-quotient", "--spec", spec, "--order", order)
        assert code == 2 and text == ""
    assert capsys.readouterr().err == ("error: order must be positive\n"
                                       "error: mult must be positive\n"
                                       "error: order must be positive\n")


def test_expand_eta_offset_outside_the_field(capsys):
    code, text = invoke("expand", "--object", "eta", "--offset", "1/3", "--order", "5")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: e(1/3) is not in Q(zeta_5): denominator 3 does not divide 10\n"
    # below order 1 there is no factor e(n/3), only the prefactor e(1/72)
    code, text = invoke("expand", "--object", "eta", "--offset", "1/3", "--order", "1")
    assert code == 0
    assert text == "(2*pi*i)^0 * e(1/72) * q^(1/24) * [1]\n"


def test_verify_single_id():
    code, text = invoke("verify", "--id", "E1", "--order", "20", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc[0]["id"] == "E1" and doc[0]["passed"] is True


def test_verify_unknown_id_is_usage_error():
    code, _ = invoke("verify", "--id", "NO_SUCH")
    assert code == 2


def test_verify_streams_reports_before_an_unknown_id(capsys):
    code, text = invoke("verify", "--id", "E1", "NOPE", "--order", "10")
    assert code == 2
    assert text == "E1     [as-stated] pass  order<12  (§1 Eq. (1))\n"
    assert capsys.readouterr().err == "error: unknown identity id 'NOPE'; see catalog()\n"


def test_verify_stops_at_the_first_unknown_id(capsys):
    # the ids before the unknown one are verified and reported; none after it
    code, text = invoke("verify", "--id", "E1", "BOGUS", "E2", "--order", "10", "--exact-only")
    assert code == 2
    assert text == "E1     [as-stated] pass  order<12  (§1 Eq. (1))\n"
    assert capsys.readouterr().err == "error: unknown identity id 'BOGUS'; see catalog()\n"
    code, text = invoke("verify", "--id", "E1", "BOGUS", "E2", "--order", "10", "--exact-only",
                        "--format", "json")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: unknown identity id 'BOGUS'; see catalog()\n"


def test_verify_reports_in_the_requested_order():
    ids = ["E4", "W5", "E1", "T1d", "E1"]
    code, text = invoke("verify", "--id", *ids, "--order", "10", "--format", "json")
    assert code == 1
    assert [item["id"] for item in json.loads(text)] == ids
    code, text = invoke("verify", "--id", *ids, "--order", "10")
    assert [line.split()[0] for line in text.splitlines() if not line.startswith(" ")] == ids


def test_verify_unknown_command_usage():
    code, _ = invoke("frobnicate")
    assert code == 2


def test_verify_exact_all_reports_misprints():
    code, text = invoke("verify", "--all", "--exact-only", "--order", "10",
                        "--format", "json")
    assert code == 1  # the as-stated misprinted entries fail, and are reported
    doc = json.loads(text)
    failed = {item["id"] for item in doc if not item["passed"]}
    assert failed == {"T1d", "D3", "D4", "ME6", "W6"}


def test_verify_corrected_variant_green():
    code, text = invoke("verify", "--all", "--exact-only", "--order", "10",
                        "--variant", "corrected", "--format", "json")
    assert code == 0
    assert all(item["passed"] for item in json.loads(text))


def test_verify_includes_numeric_checks():
    code, text = invoke("verify", "--id", "E1", "--format", "json")
    doc = json.loads(text)
    assert [item["id"] for item in doc] == ["E1"]  # no numerics without --all
    code, text = invoke("verify", "--all", "--exact-only", "--order", "10",
                        "--variant", "corrected", "--format", "json")
    assert all(item["variant"] != "numeric" for item in json.loads(text))


def test_byte_identical_invocations():
    args = ("verify", "--id", "E1", "E2", "--order", "15", "--format", "json")
    code1, text1 = invoke(*args)
    code2, text2 = invoke(*args)
    assert (code1, text1) == (code2, text2)
    args = ("numeric-check", "--id", "N5", "--seed", "123", "--format", "json")
    code1, text1 = invoke(*args)
    code2, text2 = invoke(*args)
    assert (code1, text1) == (code2, text2)


def test_coeffs():
    code, text = invoke("coeffs", "--kernel", "A", "--upto", "5")
    assert code == 0
    assert text.splitlines() == ["1 1", "2 -1", "3 -2", "4 3", "5 1"]
    code, text = invoke("coeffs", "--kernel", "S", "--upto", "3", "--format", "json")
    assert json.loads(text)["values"] == {"1": "1", "2": "3", "3": "4"}


def test_partitions():
    code, text = invoke("partitions", "--upto", "5")
    assert code == 0
    assert text.splitlines() == ["0 1", "1 1", "2 2", "3 3", "4 5", "5 7"]


def test_numeric_check_command():
    code, text = invoke("numeric-check", "--id", "N5", "--samples", "6",
                        "--seed", "42")
    assert code == 0
    assert "N5" in text and "pass" in text
    code, _ = invoke("numeric-check", "--id", "N99")
    assert code == 2


def test_numeric_check_empty_sample_count_is_an_error():
    for check_id in ("N3", "N4"):
        for n in ("0", "-3"):
            code, text = invoke("numeric-check", "--id", check_id, "--samples", n)
            assert code == 2
            assert "pass" not in text


def test_negative_upto_is_a_usage_error(capsys):
    for argv in (("coeffs", "--kernel", "A", "--upto", "-3"), ("partitions", "--upto", "-1")):
        code, text = invoke(*argv)
        assert (code, text) == (2, "")
        assert "--upto: must not be negative" in capsys.readouterr().err
    # zero is still a valid, empty or one-row, table
    assert invoke("coeffs", "--kernel", "A", "--upto", "0") == (0, "")
    assert invoke("partitions", "--upto", "0") == (0, "0 1\n")


def test_tolerance_must_be_positive_and_finite(capsys):
    # a bad tolerance is a usage error, not a failed check
    for tol in ("-1", "0", "nan", "inf", "-inf", "x"):
        code, text = invoke("numeric-check", "--id", "N1", "--tol", tol)
        assert (code, text) == (2, ""), tol
        assert "argument --tol" in capsys.readouterr().err


def test_numeric_check_custom_tolerance_failure_path():
    # an absurdly small tolerance forces a reported failure and exit 1
    code, text = invoke("numeric-check", "--id", "N4", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in text


def test_numeric_check_n6_reports_the_cases_it_checked():
    # N6 checks a fixed set of 13 characteristics, whatever --samples asks for
    code, text = invoke("numeric-check", "--id", "N6", "--samples", "5")
    assert code == 0
    assert "samples=13 " in text and "samples=5" not in text
    code, text = invoke("numeric-check", "--id", "N6", "--samples", "5",
                        "--format", "json")
    assert code == 0
    assert json.loads(text)[0]["samples"] == 13
    assert invoke("numeric-check", "--id", "N6")[1] == invoke(
        "numeric-check", "--id", "N6", "--samples", "13")[1]


def test_numeric_check_output_matches_reference():
    # byte for byte: the residual digits pin the float kernel, not just pass/fail
    ref = json.loads(NUMERIC_REFERENCE.read_text())
    assert set(ref) == {"20250810", "7"}
    for seed, want in ref.items():
        assert invoke("numeric-check", "--seed", seed) == (0, want["text"])
        assert invoke("numeric-check", "--seed", seed, "--format", "json") == (0, want["json"])
        # one id at a time reproduces that id's line and record
        lines, records = want["text"].splitlines(keepends=True), json.loads(want["json"])
        for line, record in zip(lines, records, strict=True):
            code, text = invoke("numeric-check", "--id", record["id"], "--seed", seed)
            assert (code, text) == (0, line)
            code, text = invoke("numeric-check", "--id", record["id"], "--seed", seed,
                                "--format", "json")
            assert code == 0 and json.loads(text) == [record]


#: Modules that cost milliseconds of cold start: ``fractions`` pulls in ``decimal``
#: (and its C module) and ``numbers``.
_HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "numbers"}


def _modules_loaded_by(code: str) -> set:
    """The modules a fresh interpreter loads to run ``code``; comparing sys.modules
    before and after, whatever the interpreter's site already loaded does not count."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def test_import_does_not_load_dataclasses_or_inspect():
    # cold start: the CLI process imports the package and builds its parser
    new = _modules_loaded_by("import theta5, theta5.cli\ntheta5.cli.build_parser()")
    assert "theta5.cli" in new
    assert not new & _HEAVY, new & _HEAVY


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exact_verify_does_not_load_fractions(fmt):
    # orders, exponents, phases and reports stay on integers along the verify path;
    # the five as-stated misprints are reported, so their exponents are rendered too
    new = _modules_loaded_by(
        "import io, theta5.cli\n"
        "out = io.StringIO()\n"
        f"rc = theta5.cli.run(['verify', '--all', '--exact-only', '--order', '10', "
        f"'--format', '{fmt}'], out=out)\n"
        "assert rc == 1 and 'T1d' in out.getvalue() and '3/4' in out.getvalue()")
    assert "theta5.catalog" in new
    assert not new & {"fractions", "decimal", "numbers"}


def test_closed_pipe_exits_quietly_with_the_sigpipe_status():
    # a reader that stops early, as `| head -c 10` does: the output is far past
    # the pipe's buffer, so writing goes on after the reader has gone
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "theta5.cli", "coeffs", "--kernel", "A",
                             "--upto", "20000"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""
