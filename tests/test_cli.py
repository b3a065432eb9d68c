import json

import pytest

from skyselect.cli import main

D1_CSV = "id,a1,a2\na,1,5\nb,2,2\nc,5,1\nd,4,4\ne,3,3\n"


@pytest.fixture
def d1_csv(tmp_path):
    p = tmp_path / "d1.csv"
    p.write_text(D1_CSV)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_query_skyline(capsys, d1_csv):
    code, out, _ = run(capsys, "query", "skyline", "--data", d1_csv)
    assert code == 0
    assert out == "a,b,c\n"


def test_query_ord(capsys, d1_csv):
    code, out, _ = run(
        capsys, "query", "ord", "--data", d1_csv, "--weights", "0.5,0.5", "--m", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,a,c"
    tag, val = lines[1].split(",")
    assert tag == "rhoStar"
    assert float(val) == pytest.approx(0.353553, abs=1e-5)


@pytest.mark.parametrize("op", ["ord", "oru"])
def test_query_oss_json_reports_exact(capsys, d1_csv, tmp_path, op):
    code, out, _ = run(
        capsys,
        "query", op, "--data", d1_csv, "--weights", "0.5,0.5", "--m", "3", "--format", "json",
    )
    assert code == 0 and json.loads(out)["exact"] is True
    d3 = tmp_path / "d3.csv"
    d3.write_text("id,a1,a2,a3\nx,1,2,3\ny,3,2,1\nz,2,1,3\nu,2,2,2\n")
    code, out, _ = run(
        capsys,
        "query", op, "--data", str(d3), "--weights", "0.4,0.3,0.3", "--m", "2", "--format", "json",
    )
    assert code == 0 and json.loads(out)["exact"] is False


def test_query_topk_invalid_k(capsys, d1_csv):
    code, _, err = run(
        capsys, "query", "topk", "--data", d1_csv, "--weights", "0.5,0.5", "--k", "0"
    )
    assert code == 2
    assert "usage" in err.lower()


def test_query_missing_required_flag(capsys, d1_csv):
    code, _, err = run(capsys, "query", "oru", "--data", d1_csv, "--weights", "0.5,0.5")
    assert code == 2
    assert "--m" in err


def test_query_unknown_operator(capsys, d1_csv):
    code, _, _ = run(capsys, "query", "medoid", "--data", d1_csv)
    assert code == 2


def test_query_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "query", "skyline", "--data", str(tmp_path / "no.csv"))
    assert code == 3


def test_query_bad_weights(capsys, d1_csv):
    code, _, _ = run(
        capsys, "query", "topk", "--data", d1_csv, "--weights", "0.9,0.9", "--k", "1"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "query", "topk", "--data", d1_csv, "--weights", "x,y", "--k", "1"
    )
    assert code == 2


def test_query_topk_json(capsys, d1_csv):
    code, out, _ = run(
        capsys,
        "query", "topk", "--data", d1_csv,
        "--weights", "0.5,0.5", "--k", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["operator"] == "topk"
    assert doc["ids"] == ["b", "a"]
    assert doc["scores"] == [2.0, 3.0]
    assert doc["params"]["k"] == 2


def test_query_output_deterministic(capsys, d1_csv):
    _, out1, _ = run(capsys, "query", "oru", "--data", d1_csv,
                     "--weights", "0.5,0.5", "--m", "2", "--format", "json")
    _, out2, _ = run(capsys, "query", "oru", "--data", d1_csv,
                     "--weights", "0.5,0.5", "--m", "2", "--format", "json")
    assert out1 == out2


def test_query_nd_with_region_file(capsys, d1_csv, tmp_path):
    reg = tmp_path / "reg.txt"
    reg.write_text("1 w1 - 3 w2 >= 0\n")
    code, out, _ = run(capsys, "query", "nd", "--data", d1_csv, "--region", str(reg))
    assert code == 0 and out == "a\n"
    # attribute names from the schema work as aliases
    reg.write_text("1 a1 - 3 a2 >= 0\n")
    code, out, _ = run(capsys, "query", "po", "--data", d1_csv, "--region", str(reg))
    assert code == 0 and out == "a\n"


def test_query_nd_ball(capsys, d1_csv):
    code, out, _ = run(
        capsys, "query", "nd", "--data", d1_csv, "--weights", "0.5,0.5", "--rho", "0.1"
    )
    assert code == 0 and out == "b\n"
    # rho without weights is a usage error
    code, _, _ = run(capsys, "query", "nd", "--data", d1_csv, "--rho", "0.1")
    assert code == 2


def test_query_nd_on_a_ball_with_constraints_far_from_its_center(capsys, tmp_path):
    # the ball's center breaks the second cut; the region is a thin sliver
    # near (0.12, 0.77, 0.11), where tuple y is best
    data = tmp_path / "d3.csv"
    data.write_text("id,a1,a2,a3\nx,1,2,3\ny,3,1,2\nz,2,3,1\n")
    reg = tmp_path / "reg.txt"
    reg.write_text("1.01 w1 + 1.9 w2 + 1.78 w3 >= 1.78\n-0.8 w1 + 0.22 w2 + 0.34 w3 <= 0.12\n")
    code, out, err = run(
        capsys,
        "query", "nd", "--data", str(data), "--region", str(reg),
        "--weights", "0.47,0.33,0.2", "--rho", "0.6",
    )
    assert code == 0, err
    assert out == "y\n"


def test_query_utk2_csv(capsys, d1_csv, tmp_path):
    reg = tmp_path / "reg.txt"
    reg.write_text("1 w1 >= 0.2\n1 w1 <= 0.3\n")
    code, out, _ = run(
        capsys, "query", "utk2", "--data", d1_csv, "--k", "1", "--region", str(reg)
    )
    assert code == 0
    assert out.splitlines() == ["interval,0.2,0.25,c", "interval,0.25,0.3,b"]


def test_query_utk1_json_exact_flag(capsys, d1_csv, tmp_path):
    reg = tmp_path / "reg.txt"
    reg.write_text("1 w1 >= 0.2\n1 w1 <= 0.3\n")
    code, out, _ = run(
        capsys,
        "query", "utk1", "--data", d1_csv,
        "--k", "1", "--region", str(reg), "--format", "json",
    )
    doc = json.loads(out)
    assert doc["ids"] == ["b", "c"] and doc["exact"] is True


def test_query_eskyline_normalize(capsys, d1_csv):
    code, out, _ = run(
        capsys,
        "query", "eskyline", "--data", d1_csv,
        "--weights", "0.5,0.5", "--eps", "0.3", "--normalize",
    )
    assert code == 0 and out == "b\n"
    # without --normalize the loader flag is false and the operator refuses
    code, _, err = run(
        capsys,
        "query", "eskyline", "--data", d1_csv, "--weights", "0.5,0.5", "--eps", "0.3",
    )
    assert code == 3


def test_negative_eps_in_scientific_notation(capsys, d1_csv):
    # argparse would take "-1e-05" for an option and leave --eps without a value
    for command in (
        ["query", "eskyline", "--data", d1_csv, "--weights", "0.5,0.5", "--normalize"],
        ["compare", "--data", d1_csv],
    ):
        code, spaced, err = run(capsys, *command, "--eps", "-1e-05")
        assert code == 0, err
        code, joined, _ = run(capsys, *command, "--eps=-1e-05")
        assert code == 0 and spaced == joined


def test_query_repdist_modes(capsys, d1_csv):
    code, out, _ = run(capsys, "query", "repdist", "--data", d1_csv, "--k", "2")
    assert code == 0 and out == "b,a\n"
    code, out, _ = run(
        capsys, "query", "repdist", "--data", d1_csv, "--k", "2", "--mode", "exact"
    )
    assert code == 0 and out == "a,b\n"


def test_query_oru_unreachable(capsys, d1_csv):
    code, _, err = run(
        capsys, "query", "oru", "--data", d1_csv, "--weights", "0.5,0.5", "--m", "5"
    )
    assert code == 3
    assert "m unreachable" in err


def test_generate_and_roundtrip(capsys, tmp_path):
    out1 = tmp_path / "g1.csv"
    out2 = tmp_path / "g2.csv"
    for out in (out1, out2):
        code, _, _ = run(
            capsys,
            "generate", "--dist", "independent",
            "--n", "5", "--d", "2", "--seed", "1", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "id,a1,a2" and len(lines) == 6


def test_generate_bad_dist(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "generate", "--dist", "zipf", "--n", "5", "--d", "2",
        "--out", str(tmp_path / "g.csv"),
    )
    assert code == 2


def test_compare_defaults(capsys, d1_csv):
    code, out, _ = run(capsys, "compare", "--data", d1_csv)
    assert code == 0
    assert "ORD: cardinality 3 (= m, controlled), ranked no, preference input yes" in out
    assert "Skyline: cardinality 3 (uncontrolled), ranked no, preference input no" in out
    assert "TopK: cardinality 1 (= k, controlled), ranked yes" in out
    assert "SKY(3): OK" in out


def test_compare_with_region(capsys, d1_csv, tmp_path):
    reg = tmp_path / "reg.txt"
    reg.write_text("1 w1 - 3 w2 >= 0\n")
    code, out, _ = run(capsys, "compare", "--data", d1_csv, "--region", str(reg))
    assert code == 0
    sub = "\N{SUBSET OF OR EQUAL TO}"
    assert f"PO(1) {sub} ND(1) {sub} SKY(3): OK" in out


def test_compare_controlled_labels_match_cardinality(capsys, d1_csv):
    code, out, _ = run(capsys, "compare", "--data", d1_csv, "--k", "2", "--m", "2")
    assert code == 0
    for line in out.splitlines():
        if "controlled)" in line and "uncontrolled" not in line:
            # the printed cardinality must equal the request it claims to match
            size = int(line.split("cardinality ")[1].split(" ")[0])
            assert size == 2


def test_non_finite_weights_and_rho_are_usage_errors(capsys, d1_csv):
    code, out, err = run(
        capsys, "query", "topk", "--data", d1_csv, "--weights", "nan,nan", "--k", "3"
    )
    assert code == 2 and out == "" and "finite" in err
    for rho in ("nan", "inf"):
        code, _, err = run(
            capsys, "query", "nd", "--data", d1_csv, "--weights", "0.5,0.5", "--rho", rho
        )
        assert code == 2 and "--rho" in err
