"""Command-line front end.

Commands: verify, witness, family, hunt, selftest. Exit codes: 0 when the
run completed and every checked inequality holds, 2 for a finding (an
inequality fails or a hunt records a violation), 1 for usage or input errors,
argparse's usage errors included. `main` returns the exit code rather than
raising SystemExit, also for usage errors and --help.

The argument parser is built on the first `main` call and reused by every
later call in the process; each parse returns a fresh namespace, so calls
share no state.

Instance files follow the JSON format of the sumsets module; verifier
parameters (i, k, h, kmax) ride along as extra top-level integer keys.
Numeric report fields serialize as exact integer pairs, decimal strings past
2^53, never floats.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
from fractions import Fraction

from .algebra import Integers, IntersectionSemigroup, Permutations, Residues, canonical_order, compose
from .hunts import HuntConfig, HuntRecord, eval_question1, eval_question2, run_hunt
from .inequalities import (
    CSV_HEADER,
    build_graph_counterexample,
    cauchy_davenport_check,
    construct_large_subset,
    find_plunnecke_subset,
    find_plunnecke_subset_multi,
    greedy_distinct_triple_sums,
    lex_min_decomposition,
    plunnecke_report,
    smoothed_growth_bound,
    torsion_free_reduce,
    verify_graph_sum,
    verify_lev_monotonicity,
    verify_projection_lemma,
    verify_restricted_three_sum,
    verify_submultiplicativity,
    verify_superadditivity,
    verify_tensor_power,
)
from .sumsets import FiniteSet, instance_from_json, iterated_sum, leave_one_out, sumset


def _need_sets(sets, count, what):
    if len(sets) != count:
        raise ValueError(f"{what} expects exactly {count} sets, got {len(sets)}")


def _int_extra(extras, key, default=None):
    if key in extras:
        try:
            return Integers().element_from_json(extras[key])
        except ValueError:
            raise ValueError(f"{key}: expected an integer, got {extras[key]!r}") from None
    if default is None:
        raise ValueError(f"instance is missing required integer field {key!r}")
    return default


def _run_superadd(structure, sets, graph, extras):
    report, witness = verify_superadditivity(sets)
    return [report], witness.to_json()


def _run_superadd_tf(structure, sets, graph, extras):
    m, images, preimages = torsion_free_reduce(sets)
    report, witness = verify_superadditivity(images)
    report = dataclasses.replace(report, name="superadd-tf")
    extended = witness.to_json()
    extended["m"] = m
    extended["endpoint_preimages"] = [p.to_json() for p in preimages]
    extended["images"] = [img.to_json() for img in images]
    return [report], extended


def _run_submult(structure, sets, graph, extras):
    report = verify_submultiplicativity(structure, sets)
    witness = lex_min_decomposition(structure, sets)
    return [report], witness.to_json()


def _run_projection(structure, sets, graph, extras):
    _need_sets(sets, 1, "projection")
    return [verify_projection_lemma(sets[0].elements)], None


def _run_restsum(structure, sets, graph, extras):
    _need_sets(sets, 4, "restsum (A, B1, B2, S)")
    a, b1, b2, s = sets
    return [verify_restricted_three_sum(structure, a, b1, b2, s)], None


def _run_cauchy_davenport(structure, sets, graph, extras):
    if not isinstance(structure, Residues):
        raise ValueError("cauchy-davenport expects a Zmod structure")
    _need_sets(sets, 2, "cauchy-davenport (A, B)")
    return [cauchy_davenport_check(structure.modulus, sets[0], sets[1])], None


def _run_plunnecke(structure, sets, graph, extras):
    _need_sets(sets, 2, "plunnecke (A, B)")
    i = _int_extra(extras, "i")
    k = _int_extra(extras, "k")
    witness = find_plunnecke_subset(sets[0], sets[1], i, k)
    return [plunnecke_report("plunnecke", witness, structure, sets, i=i, k=k)], witness.to_json()


def _run_plunnecke_multi(structure, sets, graph, extras):
    if len(sets) < 2:
        raise ValueError("plunnecke-multi expects A followed by at least one B")
    witness = find_plunnecke_subset_multi(sets[0], sets[1:])
    return [plunnecke_report("plunnecke-multi", witness, structure, sets)], witness.to_json()


def _run_plunnecke_large(structure, sets, graph, extras):
    if len(sets) < 2:
        raise ValueError("plunnecke-large expects A followed by at least one B")
    k = _int_extra(extras, "k")
    witness = construct_large_subset(sets[0], sets[1:], k)
    return [plunnecke_report("plunnecke-large", witness, structure, sets, k=k)], witness.to_json()


def _run_lev(structure, sets, graph, extras):
    _need_sets(sets, 1, "lev")
    kmax = _int_extra(extras, "kmax", 4)
    return verify_lev_monotonicity(sets[0], kmax), None


def _run_tensor(structure, sets, graph, extras):
    _need_sets(sets, 2, "tensor (X, Y)")
    x, y = sets
    return [verify_tensor_power(structure, x, y, _int_extra(extras, "k", 2))], None


def _run_graphsum(structure, sets, graph, extras):
    _need_sets(sets, 1, "graphsum")
    if graph is None:
        raise ValueError("graphsum needs a graph in the instance")
    return [verify_graph_sum(structure, sets[0], graph)], None


def _run_q1(structure, sets, graph, extras):
    return eval_question1(structure, sets)


def _run_q2(structure, sets, graph, extras):
    if len(sets) < 5:
        raise ValueError("q2 expects sets A, B1..Bk (k >= 3), S")
    return eval_question2(sets[0], sets[1:-1], sets[-1])


# name -> (runner, whether `witness` accepts it). A runner takes the parsed
# instance and returns (reports, witness JSON or None), or, for the hunt
# questions, the HuntRecord itself, which `witness` prints unchanged.
VERIFIERS = {
    "superadd": (_run_superadd, True),
    "superadd-tf": (_run_superadd_tf, True),
    "submult": (_run_submult, True),
    "projection": (_run_projection, False),
    "restsum": (_run_restsum, False),
    "cauchy-davenport": (_run_cauchy_davenport, False),
    "plunnecke": (_run_plunnecke, True),
    "plunnecke-multi": (_run_plunnecke_multi, True),
    "plunnecke-large": (_run_plunnecke_large, True),
    "lev": (_run_lev, False),
    "tensor": (_run_tensor, False),
    "graphsum": (_run_graphsum, False),
    "q1": (_run_q1, True),
    "q2": (_run_q2, True),
}


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _print_reports_csv(reports):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow(r.csv_row())
    sys.stdout.write(buf.getvalue())


def _emit(result, out_format, include_witness):
    """Print a runner's result and return the exit code."""
    if isinstance(result, HuntRecord):
        if out_format == "csv":
            raise ValueError("q1/q2 records support JSON output only")
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        return 2 if result.violation else 0
    reports, witness = result
    if out_format == "csv":
        _print_reports_csv(reports)
    else:
        body = [r.to_json() for r in reports]
        if len(body) == 1:
            obj = body[0]
            if include_witness:
                obj["witness"] = witness
        else:
            obj = {"reports": body}
        print(json.dumps(obj, indent=2, sort_keys=True))
    return 0 if all(r.holds for r in reports) else 2


def _cmd_verify(args, include_witness):
    obj = _load_json(args.instance)
    name = args.inequality
    if name not in VERIFIERS:
        valid = ", ".join(sorted(VERIFIERS))
        raise ValueError(f"unknown inequality {name!r}; valid names: {valid}")
    run, has_witness = VERIFIERS[name]
    if include_witness and not has_witness:
        valid = ", ".join(n for n, (_, w) in sorted(VERIFIERS.items()) if w)
        raise ValueError(f"no witness for {name!r}; witness-capable: {valid}")
    return _emit(run(*instance_from_json(obj)), args.out, include_witness)


def _exact_root(value, k):
    """The integer r >= 0 with r**k == value, found by bisection."""
    lo, hi = 0, 1 << -(-value.bit_length() // k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= value:
            lo = mid
        else:
            hi = mid - 1
    if lo**k != value:
        raise ValueError(f"{value} is not a perfect power of {k}")
    return lo


def _cmd_family(args):
    s = greedy_distinct_triple_sums(args.n, args.target_size)
    _, _, report = build_graph_counterexample(args.n, s)
    if args.out == "csv":
        _print_reports_csv([report])
    else:
        obj = {
            "n": args.n,
            "s": s.to_json(),
            # the report compares |triple sums|^2 with |pair sums|^3
            "pair_sum_count": _exact_root(report.rhs.numerator, 3),
            "triple_sum_count": _exact_root(report.lhs.numerator, 2),
            "report": report.to_json(),
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    return 0 if report.holds else 2


def _cmd_hunt(args):
    config = HuntConfig.from_json(_load_json(args.instance))
    overrides = {"seed": args.seed, "instance_budget": args.budget, "log_path": args.log}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    summary = run_hunt(config)
    print(json.dumps(summary.to_json(), indent=2, sort_keys=True))
    return 2 if summary.violations else 0


# --- Self test -----------------------------------------------------------------

# One built-in instance per registered verifier (two for superadd) and the
# (lhs, rhs) of its first report or record. Each runs through its VERIFIERS
# runner exactly as `verify` runs it.
_SELFTEST_CASES = [
    ("superadd", {"structure": "Z", "sets": [[0, 2], [0, 1], [0, 3]]}, (14, 11)),
    ("superadd", {"structure": "Z", "sets": [[0], [0]]}, (1, 1)),
    ("superadd-tf", {"structure": {"Zd": 2}, "sets": [[[0, 0], [1, 0]], [[0, 0], [0, 1]]]}, (4, 3)),
    ("submult", {"structure": "Z", "sets": [[0, 2], [0, 1], [0, 3]]}, (49, 64)),
    ("projection", {"structure": {"Zd": 3}, "sets": [[[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]]},
     (64, 64)),
    ("restsum", {"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2], [0, 3]]}, (16, 24)),
    ("cauchy-davenport", {"structure": {"Zmod": 5}, "sets": [[0, 1, 2], [0, 1, 2]]}, (5, 5)),
    ("plunnecke", {"structure": "Z", "sets": [[0], [0, 1, 3]], "i": 1, "k": 2}, (6, 9)),
    ("plunnecke-multi", {"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2]]}, (5, 6)),
    ("plunnecke-large", {"structure": "Z", "sets": [[0, 1], [0, 1], [0, 2]], "k": 2}, (5, 15)),
    ("lev", {"structure": "Z", "sets": [[0, 1, 3]], "kmax": 3}, (4, 5)),
    ("tensor", {"structure": "Z", "sets": [[0, 1], [0, 2]], "k": 2}, (16, 16)),
    ("graphsum", {"structure": "Z", "sets": [[1, 2, 3]],
                  "graph": {"edges": [[1, 2], [1, 3], [2, 3]], "symmetric": True, "loops": False}}, (1, 27)),
    ("q1", {"structure": {"Sym": 3}, "sets": [[[1, 2, 3], [2, 1, 3]], [[2, 1, 3], [1, 3, 2]], [[1, 3, 2], [2, 3, 1]]]},
     (36, 64)),
    ("q2", {"structure": "Z", "sets": [[0, 1], [0, 1], [0, 1], [0, 1], [0, 3]]}, (64, 128)),
]


def _check_case(name, obj):
    """(lhs, rhs, holds) of a registry row: the first report or record, and
    whether every report holds or the record shows no violation."""
    result = VERIFIERS[name][0](*instance_from_json(obj))
    if isinstance(result, HuntRecord):
        return result.lhs, result.rhs, not result.violation
    reports = result[0]
    return reports[0].lhs, reports[0].rhs, all(r.holds for r in reports)


# The selftest table, in print order: (label, check, expected). Each check
# takes no arguments and builds its own inputs, so a broken constructor fails
# only its own rows; `_cmd_selftest` compares what it returns with expected.
_SELFTEST_ROWS = [
    ("compose", lambda: (
        compose(Integers(), 2, 3),
        compose(Residues(5), 3, 4),
        compose(semi := IntersectionSemigroup(4), semi.mask([1, 2, 3]), semi.mask([2, 3, 4])),
        canonical_order(Integers(), [3, 1, 2]),
    ), (5, 2, 0b0110, [1, 2, 3])),
    ("sumsets", lambda: (
        sumset(z := Integers(), triple := [FiniteSet(z, xs) for xs in ((0, 2), (0, 1), (0, 3))]).elements,
        leave_one_out(z, triple, 1).elements,
        len(iterated_sum(z, a := FiniteSet(z, (0, 1, 3)), 2)),
        len(iterated_sum(z, a, 3)),
    ), ((0, 1, 2, 3, 4, 5, 6), (0, 1, 3, 4), 6, 9)),
    ("smoothed-bound", lambda: smoothed_growth_bound(2, 12, 2, 0, 2), Fraction(24, 4)),
    *(
        (f"{name} {lhs}/{rhs}", functools.partial(_check_case, name, obj), (lhs, rhs, True))
        for name, obj, (lhs, rhs) in _SELFTEST_CASES
    ),
    ("graph-family", lambda: (
        (report := build_graph_counterexample(120, FiniteSet(Integers(), (82, 84, 88, 96, 112, 144)))[2]).holds,
        report.lhs,
        report.rhs,
        len(greedy_distinct_triple_sums(120, 6)),
    ), (False, 2116, 216, 6)),
    ("hunts", lambda: (
        (summary := run_hunt(HuntConfig(
            question="Q1", structure=Permutations(3), k=3, size_caps=2, mode="exhaustive", instance_budget=50,
        ))).instances_run,
        summary.violations,
    ), (50, [])),
]


def _cmd_selftest(_args):
    failures = 0
    for label, check, expected in _SELFTEST_ROWS:
        try:
            got = check()
            if got != expected:  # raised, not asserted, so that python -O checks it
                raise AssertionError(f"got {got!r}, expected {expected!r}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL  {label}: {exc}")
        else:
            print(f"PASS  {label}")
    return 1 if failures else 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact sumset inequality verification, witnesses, and hunts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inequality=True):
        p.add_argument("--instance", required=True, help="instance JSON file")
        if inequality:
            p.add_argument("--inequality", required=True, help="inequality name")
        p.add_argument("--out", choices=["json", "csv"], default="json")

    p_verify = sub.add_parser("verify", help="check one inequality on an instance")
    add_common(p_verify)
    p_verify.set_defaults(run=functools.partial(_cmd_verify, include_witness=False))

    p_witness = sub.add_parser("witness", help="verify and print the witness")
    add_common(p_witness)
    p_witness.set_defaults(run=functools.partial(_cmd_verify, include_witness=True))

    p_family = sub.add_parser("family", help="build a graph counterexample family")
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--target-size", type=int, default=6)
    p_family.add_argument("--out", choices=["json", "csv"], default="json")
    p_family.set_defaults(run=_cmd_family)

    p_hunt = sub.add_parser("hunt", help="run a counterexample hunt")
    p_hunt.add_argument("--instance", required=True, help="hunt config JSON file")
    p_hunt.add_argument("--seed", type=int)
    p_hunt.add_argument("--budget", type=int)
    p_hunt.add_argument("--log", help="JSONL log path")
    p_hunt.set_defaults(run=_cmd_hunt)

    p_selftest = sub.add_parser("selftest", help="run the built-in fixed-example checks")
    p_selftest.set_defaults(run=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or help text; its usage errors exit
        # 2, which this CLI keeps for findings.
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
