import json
import time

import pytest

from esdec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_monotone(tmp_path, capsys):
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    code, out, _ = run(capsys, "decide", str(pred), "--no-witness")
    assert code == 0
    assert json.loads(out)["answer"] == "YES"


def test_decide_no_with_certificate(tmp_path, capsys):
    pred = tmp_path / "increasing.pred"
    pred.write_text("x1 < x2\n")
    code, out, _ = run(capsys, "decide", str(pred))
    assert code == 10
    payload = json.loads(out)
    assert payload["answer"] == "NO"
    assert payload["transform"] in ("F1", "F2")
    assert "type" in payload and "witness" in payload


def test_decide_reports_qe_calls(tmp_path, capsys):
    """x1 < x2 is NO from a point type of one decomposition, with no
    feasibility test.  x1 - x2 <= 0 ; x1 != 0 reaches the type
    enumeration: each transform's walk is its screen, and the screen
    rejects every type that reaches it."""
    pred = tmp_path / "increasing.pred"
    pred.write_text("x1 < x2\n")
    code, out, _ = run(capsys, "decide", str(pred), "--no-witness")
    assert code == 10
    stats = json.loads(out)["stats"]
    assert stats["qeCalls"] == {"screen": 1, "feasibility": 0}
    assert "screenCacheHits" not in stats
    pred.write_text("x1 - x2 <= 0 ; x1 != 0\n")
    code, out, _ = run(capsys, "decide", str(pred), "--no-witness")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["qeCalls"] == {"screen": 2, "feasibility": 0}
    assert stats["typesSkippedByScreen"] == 18


def test_decide_reports_how_it_decided(tmp_path, capsys):
    """decidedBy names the stage that answered: sign vectors, a point
    type, or the type enumeration."""
    pred = tmp_path / "set.pred"
    for text, code_want, how in (("x1 < x2 ; x1 >= x2", 0, "signs"),
                                 ("x1 < x2", 10, "points"),
                                 ("x1 - x2 <= 0 ; x1 != 0", 0, "types")):
        pred.write_text(text + "\n")
        code, out, _ = run(capsys, "decide", str(pred))
        assert code == code_want, text
        assert json.loads(out)["stats"]["decidedBy"] == how, text


def test_decide_malformed(tmp_path, capsys):
    pred = tmp_path / "bad.pred"
    pred.write_text("x1 << x2\n")
    code, _, err = run(capsys, "decide", str(pred))
    assert code == 1
    assert "parse error" in err


def test_qe_commands(capsys):
    code, out, _ = run(capsys, "qe", "forall x. x^2 + 1 > 0")
    assert code == 0 and json.loads(out)["truth"] is True
    code, out, _ = run(capsys, "qe", "exists x. x^2 + 1 = 0")
    assert code == 10
    code, out, _ = run(capsys, "qe", "--smtlib", "exists x. x^2 - 2 = 0")
    assert code == 0 and "(check-sat)" in out
    code, out, _ = run(capsys, "qe", "eventually x. exists y. y^2 = x")
    assert code == 0 and json.loads(out)["truth"] is True
    code, out, _ = run(capsys, "qe", "--smtlib", "eventually x. x > 1")
    assert code == 0
    assert "(exists ((c_x Real)) (forall ((x Real)) (=> (> x c_x) (> (+ x (- 1)) 0))))" in out


def test_qe_reports_cells(capsys):
    """Cells per level sum to the total; a growth-gap sentence settles
    its l < r cells before lifting them.  Text output is the truth alone."""
    text = ("forall r. exists l. forall h. exists x. exists y. l >= r and x > 0"
            " and y < 0 and x <= l*(-y)")
    code, out, _ = run(capsys, "qe", text)
    assert code == 0
    cells = json.loads(out)["cells"]
    assert len(cells["byLevel"]) == 5
    assert sum(cells["byLevel"]) == cells["total"] > 0
    assert cells["settledEarly"] > 0
    code, out, _ = run(capsys, "qe", "--format", "text", text)
    assert code == 0 and out == "true\n"


def test_gen_and_roundtrip(tmp_path, capsys):
    seq = tmp_path / "ints.seq"
    code, _, _ = run(capsys, "gen", "--family", "integers", "--N", "32",
                     "--out", str(seq))
    assert code == 0
    lines = seq.read_text().strip().splitlines()
    assert len(lines) == 32 and lines[0] == "1"

    code, out, _ = run(capsys, "gen", "--family", "shifted_reciprocal",
                       "--N", "3", "--A", "3", "--B", "1")
    assert code == 0
    assert out.splitlines() == ["4", "7/2", "10/3"]

    code, out, _ = run(capsys, "gen", "--family", "monotone")
    assert code == 0 and ";" in out


def test_es_exact(tmp_path, capsys):
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    code, out, _ = run(capsys, "es-exact", str(pred), "--n", "3", "--Nmax", "6")
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_es_exact_answers_at_once_under_a_generous_cap(tmp_path, capsys):
    """The search's tables grow with the lengths searched, so a cap far
    above the value answers as a cap of 6 does."""
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "es-exact", str(pred), "--n", "3", "--Nmax", "100000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_es_exact_rejects_a_cap_below_n(tmp_path, capsys):
    """--Nmax below --n is a usage error, not an UNDECIDED search of
    nothing."""
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    code, out, err = run(capsys, "es-exact", str(pred), "--n", "5", "--Nmax", "3")
    assert code == 1
    assert out == ""
    assert "n_max must be >= n" in err


def test_homog(tmp_path, capsys):
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    seq = tmp_path / "five.seq"
    seq.write_text("3\n1\n4\n1\n5\n")
    code, out, _ = run(capsys, "homog", str(seq), str(pred), "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 3
    assert all(v in ("everywhere", "nowhere") for v in payload["members"].values())


def test_extract_growing(tmp_path, capsys):
    seq = tmp_path / "affine.seq"
    g = [4, 256, 4 ** 16]
    seq.write_text("5\n" + "\n".join(str(5 + 7 * x) for x in g) + "\n")
    code, out, _ = run(capsys, "extract-growing", str(seq), "--R", "4", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["A"] == "5" and payload["witness"]["B"] == "7"

    noise = tmp_path / "noise.seq"
    noise.write_text("1\n-5\n2\n-7\n3\n")
    code, _, err = run(capsys, "extract-growing", str(noise), "--R", "4", "--n", "5")
    assert code == 30 and "extraction failed" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_qe_cell_cap_must_be_positive(capsys, cap):
    """A cap of 0 is a usage error, not the default budget."""
    code, out, err = run(capsys, "qe", "exists x. x^2 - 2 = 0", "--cell-cap", cap)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "budgets must be positive" in err


def test_qe_cell_cap_is_honoured(capsys):
    code, _, err = run(capsys, "qe", "exists x. x^2 - 2 = 0", "--cell-cap", "1")
    assert code == 20 and "cell budget 1 exhausted" in err


def test_extract_growing_rejects_small_R(tmp_path, capsys):
    seq = tmp_path / "affine.seq"
    seq.write_text("1\n2\n3\n")
    code, out, err = run(capsys, "extract-growing", str(seq), "--R", "2", "--n", "3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "R must be an integer >= 3" in err


def test_feasible_census(tmp_path, capsys):
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    code, out, _ = run(capsys, "feasible", str(pred), "--transform", "F1",
                       "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["feasible"] == 3
    assert payload["counts"]["total"] == 17
    with_witness = [r for r in payload["types"] if "witness" in r]
    assert len(with_witness) == 3


@pytest.mark.parametrize("flags, message", [
    (("--R", "2", "--n", "4"), "R must be an integer >= 3"),
    (("--R", "4", "--n", "0"), "target length must be >= 1"),
])
def test_feasible_rejects_bad_growth_params(tmp_path, capsys, flags, message):
    """The witness parameters are checked like extract-growing's, before
    any type is enumerated."""
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    code, out, err = run(capsys, "feasible", str(pred), "--witness", *flags)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and message in err


def test_repro_flag(tmp_path, capsys):
    pred = tmp_path / "monotone.pred"
    pred.write_text("x1 < x2 ; x1 >= x2\n")
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "--repro", "decide", str(pred), "--no-witness")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
