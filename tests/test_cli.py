import json

import pytest

from kirillov.cli import main
from kirillov.intpoly import IntPoly
from kirillov.partitions import Partition
from kirillov.typea import kirillov_recursion


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_typea_poly_table(capsys):
    code, out = run(capsys, "typea", "poly", "3,2,1,1")
    assert code == 0
    assert "35q^14" in out
    assert "1 + 5q + 15q^2 + 34q^3 + 58q^4 + 62q^5 + 35q^6" in out
    assert "status: PASS" in out


def test_typea_poly_json_round_trip(capsys):
    code, out = run(capsys, "typea", "poly", "3,2,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    poly = IntPoly(int(c) for c in payload["polynomial"])
    assert poly == kirillov_recursion(Partition((3, 2, 1, 1)))
    assert payload["split"]["a"] == 5
    assert payload["split"]["b"] == 3
    assert [int(c) for c in payload["split"]["r"]] == [1, 5, 15, 34, 58, 62, 35]


def test_typea_census_command(capsys):
    code, out = run(capsys, "typea", "census", "4", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["recursion_match"] is True
    assert payload["total"] == str(3**6)


def test_typea_table4_command(capsys):
    code, out = run(capsys, "typea", "table4", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_typea_profile_command(capsys):
    code, out = run(capsys, "typea", "profile", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_typea_scan_command(capsys):
    code, out = run(capsys, "typea", "scan", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["partition"] for r in payload["reducible"]] == ["3,2,1"]
    assert payload["reducible"][0]["factors"] == [["1", "2"], ["1", "3", "8", "8"]]


def test_g2_build_and_powers(capsys):
    code, out = run(capsys, "g2", "build", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["template_ok"] is True
    assert payload["roots"]["1a1+0a2"][0][1] == 1
    code, out = run(capsys, "g2", "powers", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_g2_census_json_counts(capsys):
    code, out = run(capsys, "g2", "census", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {
        "7": "10000",
        "3,3,1": "4400",
        "3,2,2": "1100",
        "2,2,1,1,1": "124",
        "1,1,1,1,1,1,1": "1",
    }
    assert payload["counts_match_polynomials"] is True
    assert payload["cases_match_closed_forms"] is True


def test_g2_census_byte_identical_across_workers(capsys):
    _, out1 = run(capsys, "g2", "census", "5", "--format", "json", "--workers", "1")
    _, out2 = run(capsys, "g2", "census", "5", "--format", "json", "--workers", "2")
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_ms"), p2.pop("elapsed_ms")  # the one wall-clock field
    assert json.dumps(p1) == json.dumps(p2)
    # commands without timing fields are byte-identical outright
    _, t1 = run(capsys, "typea", "census", "4", "3", "--format", "json",
                "--workers", "1")
    _, t2 = run(capsys, "typea", "census", "4", "3", "--format", "json",
                "--workers", "2")
    assert t1 == t2


def test_table_status_follows_the_exit_code(capsys, monkeypatch):
    # the closed forms enter the verdict as well as the polynomials
    import kirillov.g2 as g2mod

    code, out = run(capsys, "g2", "census", "5")
    assert code == 0 and out.endswith("status: PASS\n")
    original = g2mod.closed_form_case_counts

    def off_by_one(q):
        first, *rest = original(q)
        return [first._replace(count=first.count + 1), *rest]

    monkeypatch.setattr(g2mod, "closed_form_case_counts", off_by_one)
    code, out = run(capsys, "g2", "census", "5")
    assert code == 1 and out.endswith("status: FAIL\n")


@pytest.mark.parametrize("argv", [["typea", "scan", "6"],
                                  ["poly", "split", "0,0,0,1,1"],
                                  ["poly", "irred", "1,3,2"]])
def test_commands_without_a_verdict_print_no_status(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out and "status:" not in out


def test_bad_workers_variable_is_a_usage_error_only_with_workers(
        capsys, monkeypatch):
    monkeypatch.setenv("KIRILLOV_WORKERS", "two")
    code, out = run(capsys, "typea", "poly", "3")
    assert code == 0 and "status: PASS" in out
    with pytest.raises(SystemExit) as exc:
        main(["g2", "census", "5"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["typea", "census", "3", "3"],
                                  ["g2", "census", "5"],
                                  ["g2", "interpolate"]])
def test_fewer_than_one_worker_is_a_usage_error(capsys, monkeypatch, argv):
    for workers in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", workers])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
    monkeypatch.setenv("KIRILLOV_WORKERS", "0")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_g2_census_rejects_small_characteristic(capsys):
    code = main(["g2", "census", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "characteristic" in err


def test_g2_census_budget_exit_code(capsys):
    code = main(["g2", "census", "23", "--budget", "1000"])
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err.lower()


def test_g2_interpolate_command_with_synthetic_censuses(capsys, monkeypatch):
    # patch the census cache so the CLI handler is exercised without the
    # heavy enumerations (the real runs live in the acceptance suite)
    import kirillov.g2 as g2mod
    from kirillov.g2 import CensusReport, expected_polynomials

    def fake_census(q, workers=1, budget=0, exhaustive=True):
        counts = {lam: poly(q) for lam, poly in expected_polynomials().items()}
        return CensusReport(q=q, counts=counts, cases={},
                            total=sum(counts.values()))

    monkeypatch.setattr(g2mod, "census_cached", fake_census)
    code, out = run(capsys, "g2", "interpolate", "--primes",
                    "5", "7", "11", "13", "17", "19", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["routes"]["7"] == "complement"
    assert [int(c) for c in payload["polynomials"]["3,3,1"]] == \
        [0, 0, 1, 0, -3, 2]


def test_g2_census_route_flag(capsys):
    _, weighted = run(capsys, "g2", "census", "5", "--format", "json")
    code, exhaustive = run(capsys, "g2", "census", "5", "--format", "json",
                           "--exhaustive")
    assert code == 0
    p1, p2 = json.loads(weighted), json.loads(exhaustive)
    assert (p1.pop("route"), p2.pop("route")) == ("weighted", "exhaustive")
    p1.pop("elapsed_ms"), p2.pop("elapsed_ms")
    assert p1 == p2
    # the budget counts the tuples of the chosen route: 4*5^4 or 5^6
    assert main(["g2", "census", "5", "--budget", "2500"]) == 0
    assert main(["g2", "census", "5", "--budget", "2500", "--exhaustive"]) == 3
    capsys.readouterr()


def test_g2_interpolate_passes_the_route(capsys, monkeypatch):
    import kirillov.g2 as g2mod
    from kirillov.g2 import CensusReport, expected_polynomials

    routes = set()

    def fake_census(q, workers=1, budget=0, exhaustive=True):
        routes.add(exhaustive)
        counts = {lam: poly(q) for lam, poly in expected_polynomials().items()}
        return CensusReport(q=q, counts=counts, cases={},
                            total=sum(counts.values()))

    monkeypatch.setattr(g2mod, "census_cached", fake_census)
    code, out = run(capsys, "g2", "interpolate", "--exhaustive", "--format",
                    "json")
    assert code == 0 and routes == {True}
    assert json.loads(out)["route"] == "exhaustive"


@pytest.mark.parametrize("error, target, argv", [
    ("PredicateMismatch", "kirillov.g2.g2_census", ["g2", "census", "5"]),
    ("NonIntegerCoefficients", "kirillov.g2.g2_interpolate",
     ["g2", "interpolate"]),
    ("InvalidRankSequence", "kirillov.cli.brute_force_census",
     ["typea", "census", "3", "2"]),
])
def test_data_integrity_failures_exit_1(capsys, monkeypatch, error, target,
                                        argv):
    import kirillov.errors

    exc_type = getattr(kirillov.errors, error)

    def broken(*args, **kwargs):
        raise exc_type("bad data")

    monkeypatch.setattr(target, broken)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"verification failed: {error}: bad data\n"


def test_g2_springer_command(capsys):
    code, out = run(capsys, "g2", "springer", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["typea_leading_ok"] is True


def test_poly_split_command(capsys):
    # a leading negative coefficient needs the -- separator
    code, out = run(capsys, "poly", "split", "--format", "json", "--", "-1,1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["a"], payload["b"], payload["r"]) == (0, 1, ["1"])


def test_poly_irred_command(capsys):
    code, out = run(capsys, "poly", "irred", "1,3,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "reducible"
    assert payload["factors"] == [["1", "1"], ["1", "2"]]
    code, out = run(capsys, "poly", "irred", "1,1,1", "--format", "json")
    assert json.loads(out)["verdict"] == "irreducible"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["typea", "poly", "4", "--format", "json", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["partition"] == "4"


def test_csv_format(capsys):
    from kirillov.partitions import partitions_of

    code, out = run(capsys, "typea", "profile", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,a,b,deg_r,lead_r,ok"
    expected_rows = sum(len(partitions_of(n)) for n in range(1, 5))
    assert len(lines) == 1 + expected_rows


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["typea", "poly"])  # missing argument
    assert exc.value.code == 2
