"""CLI behavior: exit codes, output formats, witness printing, hunts."""

import csv
import io
import json

import pytest

from sumsetlab.cli import main


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


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


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
]


@pytest.mark.parametrize(
    "command, name, obj, field", MALFORMED, ids=[f"{c[0]}-{c[1]}-{c[3]}-{i}" for i, c in enumerate(MALFORMED)]
)
def test_malformed_input_is_one_error_line(command, name, obj, field, tmp_path, capsys):
    argv = [command, "--instance", write(tmp_path / "bad.json", obj)]
    if name is not None:
        argv += ["--inequality", name]
    # A hunt flag overrides the parsed config, so the body is validated first.
    assert main(argv + (["--seed", "1"] if command == "hunt" else [])) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert field in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""
