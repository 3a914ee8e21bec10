"""CLI behavior: exit codes, output formats, witness printing, hunts."""

import argparse
import ast
import copy
import csv
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from sumsetlab import FiniteSet, Integers, cli
from sumsetlab.cli import main
from sumsetlab.hunts import MAX_VALUE_RANGE


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def triple_instance(tmp_path):
    return write(
        tmp_path / "triple.json",
        {"structure": "Z", "sets": [[0, 2], [0, 1], [0, 3]]},
    )


def test_verify_superadd_holds(triple_instance, capsys):
    code = main(["verify", "--instance", triple_instance, "--inequality", "superadd"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["name"] == "superadd"
    assert report["lhs"] == [14, 1] and report["rhs"] == [11, 1]
    assert report["holds"] is True
    assert "witness" not in report


def test_witness_superadd_prints_witness(triple_instance, capsys):
    code = main(["witness", "--instance", triple_instance, "--inequality", "superadd"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    witness = out["witness"]
    assert witness["a_values"] == [2, 1, 3]
    assert sum(len(copy) for copy in witness["marked"]) == 11
    assert witness["endpoint_sets"] == [[0, 2], [0, 1], [0, 3]]


def test_csv_and_json_outputs_carry_identical_numbers(triple_instance, capsys):
    main(["verify", "--instance", triple_instance, "--inequality", "submult"])
    as_json = json.loads(capsys.readouterr().out)
    main(["verify", "--instance", triple_instance, "--inequality", "submult", "--out", "csv"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    row = rows[0]
    assert [int(row["lhs_num"]), int(row["lhs_den"])] == as_json["lhs"]
    assert [int(row["rhs_num"]), int(row["rhs_den"])] == as_json["rhs"]
    assert [int(row["slack_num"]), int(row["slack_den"])] == as_json["slack"]
    assert (row["holds"] == "true") == as_json["holds"]


def test_verify_empty_set_instance_is_usage_error(tmp_path, capsys):
    path = write(tmp_path / "empty.json", {"structure": "Z", "sets": [[0, 1], []]})
    code = main(["verify", "--instance", path, "--inequality", "superadd"])
    err = capsys.readouterr().err
    assert code == 1
    assert "nonempty sets required" in err


def test_unknown_inequality_lists_valid_names(triple_instance, capsys):
    code = main(["verify", "--instance", triple_instance, "--inequality", "nope"])
    err = capsys.readouterr().err
    assert code == 1
    assert "superadd" in err and "submult" in err and "q2" in err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"structure": "Z",\n  "sets": [[0, 1],]}')
    code = main(["verify", "--instance", str(path), "--inequality", "superadd"])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 2" in err and "column" in err


def test_family_counterexample_exits_with_finding(capsys):
    code = main(["family", "--n", "120", "--target-size", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["s"] == [82, 84, 86, 90, 96, 108]
    assert out["pair_sum_count"] == 6
    assert out["triple_sum_count"] >= 20
    assert out["report"]["holds"] is False


def test_verify_more_inequalities(tmp_path, capsys):
    cases = [
        ({"structure": {"Zd": 3}, "sets": [[[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]]}, "projection", 0),
        ({"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2], [0, 3]]}, "restsum", 0),
        ({"structure": {"Zmod": 5}, "sets": [[0, 1, 2], [0, 1, 2]]}, "cauchy-davenport", 0),
        ({"structure": "Z", "sets": [[0], [0, 1, 3]], "i": 1, "k": 2}, "plunnecke", 0),
        ({"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2]]}, "plunnecke-multi", 0),
        ({"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2]], "k": 2}, "plunnecke-large", 0),
        ({"structure": "Z", "sets": [[0, 1, 3]], "kmax": 3}, "lev", 0),
        ({"structure": "Z", "sets": [[0, 1], [0, 2]], "k": 2}, "tensor", 0),
        ({"structure": {"Zd": 2}, "sets": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]}, "superadd-tf", 0),
    ]
    for obj, name, expected in cases:
        path = write(tmp_path / f"{name}.json", obj)
        code = main(["verify", "--instance", path, "--inequality", name])
        out = json.loads(capsys.readouterr().out)
        assert code == expected, (name, out)


def test_verify_graphsum_with_explicit_graph(tmp_path, capsys):
    obj = {
        "structure": "Z",
        "sets": [[1, 2, 3]],
        "graph": {"edges": [[1, 2], [1, 3], [2, 3]], "symmetric": True, "loops": False},
    }
    path = write(tmp_path / "graph.json", obj)
    code = main(["verify", "--instance", path, "--inequality", "graphsum"])
    out = json.loads(capsys.readouterr().out)
    # one triangle: triple set {6}, pair set {3,4,5}: 1 <= 27
    assert code == 0
    assert out["lhs"] == [1, 1] and out["rhs"] == [27, 1]


def test_verify_q1_and_q2_records(tmp_path, capsys):
    q1 = {
        "structure": {"Sym": 3},
        "sets": [[[1, 2, 3]], [[2, 1, 3]], [[1, 3, 2]]],
    }
    path = write(tmp_path / "q1.json", q1)
    code = main(["verify", "--instance", path, "--inequality", "q1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["violation"] is False

    q2 = {
        "structure": "Z",
        "sets": [[0, 1], [0, 1], [0, 1], [0, 1], [0, 3]],
    }
    path2 = write(tmp_path / "q2.json", q2)
    code2 = main(["verify", "--instance", path2, "--inequality", "q2"])
    out2 = json.loads(capsys.readouterr().out)
    assert code2 == 0
    assert out2["lhs"] == "64" and out2["rhs"] == "128"


def test_witness_refuses_witnessless_inequality(triple_instance, capsys):
    code = main(["witness", "--instance", triple_instance, "--inequality", "projection"])
    err = capsys.readouterr().err
    assert code == 1 and "no witness" in err


def test_hunt_command_runs_and_is_deterministic(tmp_path, capsys):
    config = {
        "question": "Q1",
        "structure": {"Sym": 3},
        "k": 3,
        "size_caps": [2, 2, 2],
        "mode": "exhaustive",
        "seed": 5,
        "instance_budget": 150,
    }
    path = write(tmp_path / "hunt.json", config)
    logs = []
    for name in ("h1.jsonl", "h2.jsonl"):
        code = main(["hunt", "--instance", path, "--log", str(tmp_path / name)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["instances_run"] == 150 and out["violation_count"] == 0
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]


def test_hunt_budget_override(tmp_path, capsys):
    config = {
        "question": "Q2",
        "structure": "Z",
        "k": 3,
        "size_caps": 3,
        "value_range": 12,
        "mode": "random",
        "seed": 7,
        "instance_budget": 999,
    }
    path = write(tmp_path / "hunt2.json", config)
    code = main(["hunt", "--instance", path, "--budget", "25"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["instances_run"] == 25


def test_missing_instance_file_is_usage_error(capsys):
    code = main(["verify", "--instance", "/nonexistent/x.json", "--inequality", "superadd"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_parser_is_built_once_per_process(triple_instance, monkeypatch, capsys):
    main(["verify", "--instance", triple_instance, "--inequality", "superadd"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ["verify", "--instance", triple_instance, "--inequality", "submult"],
        ["witness", "--instance", triple_instance, "--inequality", "superadd", "--out", "csv"],
        ["family", "--n", "120", "--out", "csv"],
    ):
        main(argv)
    assert built == []


def test_calls_in_a_row_share_no_state(triple_instance, capsys):
    verify = ["verify", "--instance", triple_instance, "--inequality", "superadd"]
    assert main(verify + ["--out", "csv"]) == 0
    assert capsys.readouterr().out.startswith("name,")
    assert main(verify) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "superadd"

    main(["family", "--n", "120", "--target-size", "4"])
    assert len(json.loads(capsys.readouterr().out)["s"]) == 4
    main(["family", "--n", "120"])
    assert len(json.loads(capsys.readouterr().out)["s"]) == 6

    assert main(["verify", "--inequality", "superadd"]) == 1
    assert capsys.readouterr().out == ""
    assert main(verify) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["lhs"] == [14, 1] and captured.err == ""


# argparse prints its usage block and one error line; the exit code is the
# usage-error code 1, not argparse's 2, which this CLI keeps for findings.
USAGE_ERRORS = [
    (["verify", "--inequality", "superadd"],
     "sumsetlab verify: error: the following arguments are required: --instance"),
    (["bogus"],
     "sumsetlab: error: argument command: invalid choice: 'bogus' "
     "(choose from 'verify', 'witness', 'family', 'hunt', 'selftest')"),
    (["family", "--n", "x"], "sumsetlab family: error: argument --n: invalid int value: 'x'"),
]


@pytest.mark.parametrize("argv, last_line", USAGE_ERRORS, ids=[" ".join(c[0]) for c in USAGE_ERRORS])
def test_usage_error_exits_1(argv, last_line, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sumsetlab")
    assert captured.err.endswith("\n" + last_line + "\n")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sumsetlab")


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_selftest_prints_its_labels_in_order(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"PASS  {label}" for label in [
        "compose", "sumsets", "smoothed-bound", "superadd 14/11", "superadd 1/1", "superadd-tf 4/3",
        "submult 49/64", "projection 64/64", "restsum 16/24", "cauchy-davenport 5/5", "plunnecke 6/9",
        "plunnecke-multi 5/6", "plunnecke-large 5/15", "lev 4/5", "tensor 16/16", "graphsum 1/27",
        "q1 36/64", "q2 64/128", "graph-family", "hunts",
    ]]


def test_selftest_covers_every_verifier():
    assert {name for name, _, _ in cli._SELFTEST_CASES} == set(cli.VERIFIERS)


@pytest.mark.parametrize("change", [{"lhs": Fraction(17)}, {"holds": False}], ids=["lhs", "holds"])
def test_selftest_fails_on_a_wrong_verifier(change, monkeypatch, capsys):
    """A registry runner whose report is off fails selftest, on its own line."""
    run, has_witness = cli.VERIFIERS["tensor"]

    def wrong(*instance):
        reports, witness = run(*instance)
        return [dataclasses.replace(reports[0], **change)], witness

    monkeypatch.setitem(cli.VERIFIERS, "tensor", (wrong, has_witness))
    assert main(["selftest"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("PASS")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  tensor 16/16: ")


def _one_element(n, target_size):
    return FiniteSet(Integers(), (82,))


def test_selftest_names_what_a_library_row_got(monkeypatch, capsys):
    """A wrong library function fails its own row with a message that shows it."""
    monkeypatch.setattr(cli, "greedy_distinct_triple_sums", _one_element)
    assert main(["selftest"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("PASS")]
    assert failed == ["FAIL  graph-family: got (False, Fraction(2116, 1), Fraction(216, 1), 1), "
                      "expected (False, 2116, 216, 6)"]


def test_selftest_fails_under_python_O():
    """Selftest compares its rows in a way that `python -O` keeps."""
    script = (
        "import sys\n"
        "from sumsetlab import FiniteSet, Integers, cli\n"
        "cli.greedy_distinct_triple_sums = lambda n, target_size: FiniteSet(Integers(), (82,))\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAIL  graph-family: got " in done.stdout
    assert done.stdout.count("PASS") == 19


def _package_modules():
    """(file name, parsed tree) for every module under sumsetlab."""
    package = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read(), name)


def test_no_assert_statement_in_the_package():
    """The self-checks raise, so `python -O` keeps them: no module under
    sumsetlab holds an `assert` statement, which -O would strip."""
    found = []
    for name, tree in _package_modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_the_package_imports_the_standard_library_only():
    """Every absolute import under sumsetlab names a standard-library module
    or sumsetlab itself, as the README promises."""
    found = []
    for name, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno}: {module}"
                for module in modules
                if module.partition(".")[0] not in sys.stdlib_module_names | {"sumsetlab"}
            ]
    assert found == []


# Pinned instance digests, one instance per inequality: reports are keyed by
# these values, so a change in how any verifier digests its instance shows here.
DIGEST_CASES = [
    ("superadd", {"structure": "Z", "sets": [[0, 2], [0, 1], [0, 3]]}, "7310aab330d648e5"),
    ("superadd-tf", {"structure": {"Zd": 2}, "sets": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]}, "32238c0e4c920351"),
    ("submult", {"structure": "Z", "sets": [[0, 2], [0, 1], [0, 3]]}, "7310aab330d648e5"),
    (
        "projection",
        {"structure": {"Zd": 3}, "sets": [[[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]]},
        "0b573777a522268f",
    ),
    ("restsum", {"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2], [0, 3]]}, "2bb98dc7841cee50"),
    ("cauchy-davenport", {"structure": {"Zmod": 5}, "sets": [[0, 1, 2], [0, 1, 2]]}, "6f440f5ca04c1095"),
    ("plunnecke", {"structure": "Z", "sets": [[0, 1, 2, 5], [0, 1, 3]], "i": 1, "k": 2}, "f63ce76babb9ea5f"),
    ("plunnecke-multi", {"structure": "Z", "sets": [[0, 1, 4], [0, 1], [0, 2]]}, "a5c2204851230c55"),
    ("plunnecke-large", {"structure": "Z", "sets": [[0, 1, 4], [0, 1], [0, 2]], "k": 2}, "b04598cfe3f5da69"),
    ("lev", {"structure": "Z", "sets": [[0, 1, 3]], "kmax": 3}, "49d15ddcd9242116"),
    ("tensor", {"structure": "Z", "sets": [[0, 1], [0, 2]], "k": 2}, "00d56d362ee51742"),
    (
        "graphsum",
        {
            "structure": "Z",
            "sets": [[1, 2, 3]],
            "graph": {"edges": [[1, 2], [1, 3], [2, 3]], "symmetric": True, "loops": False},
        },
        "4a61a1ff6e4cc7fa",
    ),
]


@pytest.mark.parametrize("name, obj, digest", DIGEST_CASES, ids=[c[0] for c in DIGEST_CASES])
def test_instance_digests_are_stable(name, obj, digest, tmp_path, capsys):
    path = write(tmp_path / "inst.json", obj)
    assert main(["verify", "--instance", path, "--inequality", name]) == 0
    out = json.loads(capsys.readouterr().out)
    reports = out.get("reports", [out])
    assert {r["instance_digest"] for r in reports} == {digest}


def test_hunt_records_refuse_csv(tmp_path, capsys):
    path = write(tmp_path / "q.json", {"structure": {"Sym": 3}, "sets": [[[1, 2, 3]], [[2, 1, 3]], [[1, 3, 2]]]})
    assert main(["verify", "--instance", path, "--inequality", "q1", "--out", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: q1/q2 records support JSON output only\n" and captured.out == ""


@pytest.mark.parametrize(
    "name, sets",
    [
        ("q1", [[[1, 2, 3]], [[2, 1, 3]], [[1, 3, 2]]]),
        ("q2", [[0, 1], [0, 1], [0, 1], [0, 1], [0, 3]]),
    ],
)
def test_witness_prints_the_hunt_record_like_verify(name, sets, tmp_path, capsys):
    structure = {"Sym": 3} if name == "q1" else "Z"
    path = write(tmp_path / "q.json", {"structure": structure, "sets": sets})
    outputs = []
    for command in ("verify", "witness"):
        assert main([command, "--instance", path, "--inequality", name]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "witness" not in json.loads(outputs[0])


INTERSECT_MULTI = {
    "structure": {"Intersect": 5},
    "sets": [[0, 1, 5, 7, 26, 27, 29], [0, 10, 28], [4, 24]],
}
HUNT_Q2 = {"question": "Q2", "structure": "Z", "k": 3, "value_range": 5}
MALFORMED = [
    ("verify", "superadd", {"structure": "Z", "sets": 5}, "sets"),
    ("verify", "superadd", {"structure": "Z", "sets": [5]}, "sets"),
    ("verify", "superadd", [1, 2], "instance"),
    ("verify", "superadd", {"sets": [[0]]}, "structure"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2, 3]], "graph": {"edges": 5}}, "graph"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2]], "graph": 5}, "graph"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2]], "graph": {"edges": [[1]]}}, "graph"),
    ("verify", "graphsum", {"structure": "Z", "sets": [], "graph": {"edges": []}}, "graph"),
    ("verify", "superadd", {"structure": {"Power": {"base": "Z"}}, "sets": [[[0]]]}, "Power"),
    ("verify", "superadd", {"structure": {"Power": 5}, "sets": [[[0]]]}, "Power"),
    ("verify", "tensor", {"structure": "Z", "sets": [[0], [1]], "k": [2]}, "k"),
    ("verify", "plunnecke-multi", INTERSECT_MULTI, "not a group"),
    ("verify", "plunnecke-large", dict(INTERSECT_MULTI, k=2), "not a group"),
    ("hunt", None, dict(HUNT_Q2, size_caps="x"), "size_caps"),
    ("hunt", None, dict(HUNT_Q2, size_caps=[2, "x", 2, 2, 2]), "size_caps"),
    ("hunt", None, dict(HUNT_Q2, k="3"), "k"),
    ("hunt", None, dict(HUNT_Q2, value_range=[5]), "value_range"),
    ("hunt", None, dict(HUNT_Q2, log_path=5), "log_path"),
    ("hunt", None, {"structure": "Z", "k": 3}, "question"),
    ("hunt", None, [HUNT_Q2], "hunt config"),
    ("verify", "tensor", {"structure": "Z", "sets": [[0], [1]], "k": 2.9}, "k"),
    ("verify", "tensor", {"structure": "Z", "sets": [[0], [1]], "k": True}, "k"),
    ("verify", "tensor", {"structure": "Z", "sets": [[0], [1]], "k": "x"}, "k"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2]], "graph": {"edges": [[1, 2]], "symmetric": "false"}},
     "symmetric"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2]], "graph": {"edges": [[1, 2]], "loops": "no"}}, "loops"),
    ("verify", "superadd", {"structure": {"Sym": 3}, "sets": [[[1, 1, 2]]]}, "Sym(3)"),
    ("verify", "superadd", {"structure": {"Intersect": 3}, "sets": [[9]]}, "Intersect(3)"),
    ("verify", "superadd", {"structure": "Z", "sets": [[1, 2], [3, "x"]]}, "sets[1][1]: "),
    ("verify", "superadd", {"structure": {"Zd": 2}, "sets": [[[0, 0], [1]]]}, "sets[0][1]: "),
    ("verify", "superadd", {"structure": {"Sym": 3}, "sets": [[[1, 2, 3]], [[2, 1, 3], [1, 1, 2]]]},
     "sets[1][1]: "),
    ("verify", "superadd-tf", {"structure": "Z", "sets": [[0, 1], [2]]}, "lattice"),
    ("verify", "projection", {"structure": "Z", "sets": [[1, 2]]}, "d-tuples"),
    ("verify", "projection", {"structure": {"Intersect": 3}, "sets": [[1, 2]]}, "d-tuples"),
    ("verify", "superadd", {"structure": 7, "sets": [[0]]}, "structure: unknown structure encoding 7"),
    ("verify", "superadd", {"structure": {"Zd": 0}, "sets": [[[0]]]}, "structure: lattice dimension"),
    ("verify", "superadd", {"structure": {"Zmod": 0}, "sets": [[0]]}, "structure: modulus"),
    # a nested base is named once, not once per level
    ("verify", "superadd", {"structure": {"Power": {"base": {"Zd": 0}, "k": 2}}, "sets": [[[[0], [0]]]]},
     "error: structure: lattice dimension"),
    ("hunt", None, dict(HUNT_Q2, structure=7), "structure: unknown structure encoding 7"),
    ("hunt", None, dict(HUNT_Q2, structure={"Zmod": 0}), "structure: modulus"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2]], "graph": {"edges": [[0, 1]]}},
     "graph: edge [0, 1] out of range"),
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2]], "graph": {"edges": [[1, 1]], "loops": False}},
     "graph: edge [1, 1] is a loop but loops are disallowed"),
    # parameters past their caps, refused before any work
    ("verify", "plunnecke", {"structure": "Z", "sets": [[0, 1], [0, 1]], "i": 1, "k": 2**70}, "k must be at most 64"),
    ("verify", "lev", {"structure": "Z", "sets": [[0, 1]], "kmax": 2**70}, "kmax must be in 2..64"),
    ("hunt", None, dict(HUNT_Q2, k=2**70), "k <= 64"),
    ("hunt", None, dict(HUNT_Q2, value_range=2**70), f"value_range in 0..{MAX_VALUE_RANGE}"),
    # a structure or a set count a verifier does not accept
    ("verify", "cauchy-davenport", {"structure": "Z", "sets": [[0, 1], [0, 1]]}, "expects a Zmod structure"),
    ("verify", "plunnecke-multi", {"structure": "Z", "sets": [[0, 1]]}, "at least one B"),
    ("verify", "plunnecke-large", {"structure": "Z", "sets": [[0, 1]], "k": 2}, "at least one B"),
    ("verify", "submult", {"structure": "Z", "sets": [[0, 1]]}, "at least two summands"),
    ("verify", "plunnecke", {"structure": {"Zmod": 7}, "sets": [[0, 1], [0, 1]], "i": 1, "k": 2},
     "expected integer sets"),
    ("verify", "lev", {"structure": {"Zmod": 7}, "sets": [[0, 1]]}, "expected integer sets"),
    ("verify", "tensor", {"structure": "Z", "sets": [list(range(7)), [0, 1]]}, "at most 6 elements"),
    # rows are appended: a row's index is part of its test id
    ("verify", "graphsum", {"structure": "Z", "sets": [[1, 2], [1, 2, 3]], "graph": {"edges": [], "symmetric": True}},
     "error: graph: symmetric graph requires equal side sizes"),
    # decimal strings are only what the encoder writes: "-" and ASCII digits
    ("verify", "superadd", {"structure": "Z", "sets": [["1_000"]]}, "sets[0][0]: expected an integer or decimal string"),
    ("verify", "superadd", {"structure": "Z", "sets": [[" 7 "]]}, "sets[0][0]: expected an integer or decimal string"),
    ("verify", "superadd", {"structure": "Z", "sets": [["+7"]]}, "sets[0][0]: expected an integer or decimal string"),
    ("verify", "superadd", {"structure": "Z", "sets": [["\u0661\u0662"]]},
     "sets[0][0]: expected an integer or decimal string"),
    ("verify", "superadd", {"structure": "Z", "sets": [[0], ["x"]]}, "sets[1][0]: expected an integer or decimal string"),
    # i past the cap too: refused through k before [b] * i is built
    ("verify", "plunnecke", {"structure": "Z", "sets": [[0, 1], [0, 1]], "i": 2**70, "k": 2**70 + 1},
     "k must be at most 64"),
    # JSON text nested past what json.load decodes, written as it stands
    ("verify", "superadd", '{"structure": ' + '{"Power": {"base": ' * 600 + '"Z"' + ', "k": 2}}' * 600
     + ', "sets": [[0]]}', "JSON nested too deeply"),
    ("verify", "superadd", '{"structure": "Z", "sets": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
    ("hunt", None, '{"question": "Q2", "structure": "Z", "k": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "JSON nested too deeply"),
]


@pytest.mark.parametrize(
    "command, name, obj, field", MALFORMED, ids=[f"{c[0]}-{c[1]}-{c[3]}-{i}" for i, c in enumerate(MALFORMED)]
)
def test_malformed_input_is_one_error_line(command, name, obj, field, tmp_path, capsys):
    """A row's input is a JSON value, or JSON text when it is a str."""
    path = tmp_path / "bad.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    argv = [command, "--instance", str(path)]
    if name is not None:
        argv += ["--inequality", name]
    # A hunt flag overrides the parsed config, so the body is validated first.
    assert main(argv + (["--seed", "1"] if command == "hunt" else [])) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert field in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""


HUGE = 2**70
# Odd, so a modulus they set is tested for primality; 2^61 - 1 is prime below
# where primality is decided and 2^89 - 1 is prime above it.
ODD_HUGE = (2**61 - 1, 2**89 - 1)
SECONDS_PER_MUTANT = 5
# One instance per verifier and one config per hunt question, and a Q1 hunt
# over a direct power. A hunt runs with --budget 3: a large budget asks for a
# long run, which is not an error.
SWEEP_CASES = [(["verify", "--inequality", name], obj) for name, obj, _ in DIGEST_CASES] + [
    (["verify", "--inequality", "q1"], {"structure": {"Sym": 3}, "sets": [[[1, 2, 3]], [[2, 1, 3]], [[1, 3, 2]]]}),
    (["verify", "--inequality", "q2"], {"structure": "Z", "sets": [[0, 1], [0, 1], [0, 1], [0, 1], [0, 3]]}),
    (["hunt", "--budget", "3"], {"question": "Q1", "structure": {"Sym": 3}, "k": 3, "size_caps": 2,
                                 "mode": "exhaustive", "instance_budget": 5}),
    (["hunt", "--budget", "3"], {"question": "Q2", "structure": "Z", "k": 3, "size_caps": [2, 1, 2, 2, 3],
                                 "value_range": 6, "seed": 1, "instance_budget": 5}),
    (["hunt", "--budget", "3"], {"question": "Q1", "structure": {"Power": {"base": {"Sym": 3}, "k": 2}}, "k": 3,
                                 "size_caps": 2, "seed": 1, "instance_budget": 5}),
]


def _mutants(node):
    """Every copy of a JSON value with one mutation at one path: the value at
    that path replaced by +-2^70, 2^70 as a decimal string, 2^61 - 1, 2^89 - 1
    or a value of another type, wrapped in an array, or (below the root)
    deleted. Add no value the program could accept and then allocate in
    proportion to."""
    yield from (HUGE, -HUGE, str(HUGE), *ODD_HUGE, "x", None, True, 1.5, {}, [node])
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        rest = copy.copy(node)
        del rest[key]
        yield rest
        for child in _mutants(node[key]):
            mutant = copy.copy(node)
            mutant[key] = child
            yield mutant


@pytest.mark.parametrize("argv, obj", SWEEP_CASES, ids=[" ".join(c[0][:3]) for c in SWEEP_CASES])
def test_mutated_inputs_exit_cleanly(argv, obj, tmp_path, capsys):
    """No mutant of a valid input lets an exception out of main; each gives a
    result, a finding, or one error line within SECONDS_PER_MUTANT."""
    path = tmp_path / "mutant.json"
    mutant = None

    def hung(signum, frame):
        pytest.fail(f"main ran past {SECONDS_PER_MUTANT} s on {json.dumps(mutant)}")

    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for mutant in _mutants(obj):
            path.write_text(json.dumps(mutant))
            signal.alarm(SECONDS_PER_MUTANT)
            try:
                code = main(argv + ["--instance", str(path)])
            except Exception as exc:  # noqa: BLE001 - name the mutant that escaped
                pytest.fail(f"{type(exc).__name__}: {exc} escaped main on {json.dumps(mutant)}")
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), mutant
            if code == 1:
                assert len(err.splitlines()) == 1 and err.startswith("error:"), (mutant, err)
            else:
                assert err == "", (mutant, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
