"""Command-line front end.

Commands: verify, witness, family, hunt, selftest. Exit codes: 0 when the
run completed and every checked inequality holds, 2 for a finding (an
inequality fails or a hunt records a violation), 1 for usage or input errors.

Instance files follow the JSON format of the sumsets module; verifier
parameters (i, k, h, kmax) ride along as extra top-level integer keys.
Numeric report fields serialize as exact integer pairs, decimal strings past
2^53, never floats.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .algebra import Integers, Lattice, Permutations, Residues
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
    tensor_power_identity_check,
    torsion_free_reduce,
    verify_graph_sum,
    verify_lev_monotonicity,
    verify_projection_lemma,
    verify_restricted_three_sum,
    verify_submultiplicativity,
    verify_superadditivity,
    verify_tensor_power,
)
from .sumsets import (
    FiniteSet,
    graph_triple_sumset,
    instance_from_json,
    restricted_pair_sumset,
    sumset,
)


def _need_sets(sets, count, what):
    if len(sets) != count:
        raise ValueError(f"{what} expects exactly {count} sets, got {len(sets)}")


def _int_extra(extras, key, default=None):
    if key in extras:
        v = extras[key]
        try:
            return int(v, 10) if isinstance(v, str) else int(v)
        except (TypeError, OverflowError):
            raise ValueError(f"{key}: expected an integer, got {v!r}") from None
    if default is None:
        raise ValueError(f"instance is missing required integer field {key!r}")
    return default


def _run_superadd(structure, sets, graph, extras):
    report, witness = verify_superadditivity(sets)
    return [report], witness.to_json()


def _run_superadd_tf(structure, sets, graph, extras):
    if not isinstance(structure, Lattice):
        raise ValueError("superadd-tf expects lattice sets")
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
        return json.load(fh)


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


def _cmd_family(args):
    s = greedy_distinct_triple_sums(args.n, args.target_size)
    a, graph, report = build_graph_counterexample(args.n, s)
    pair = restricted_pair_sumset(Integers(), a, a, graph)
    triple = graph_triple_sumset(a, graph)
    if args.out == "csv":
        _print_reports_csv([report])
    else:
        obj = {
            "n": args.n,
            "s": s.to_json(),
            "pair_sum_count": len(pair),
            "triple_sum_count": len(triple),
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


def _selftest_checks():
    from fractions import Fraction

    from .algebra import IntersectionSemigroup, canonical_order, compose
    from .inequalities import smoothed_growth_bound

    zint = Integers()

    def fs(*xs):
        return FiniteSet(zint, tuple(xs))

    def check_compose():
        assert compose(zint, 2, 3) == 5
        assert compose(Residues(5), 3, 4) == 2
        semi = IntersectionSemigroup(4)
        assert compose(semi, semi.mask([1, 2, 3]), semi.mask([2, 3, 4])) == semi.mask([2, 3])
        assert canonical_order(zint, [3, 1, 2]) == [1, 2, 3]

    def check_sumsets():
        triple = [fs(0, 2), fs(0, 1), fs(0, 3)]
        assert sumset(zint, triple).elements == (0, 1, 2, 3, 4, 5, 6)
        from .sumsets import iterated_sum, leave_one_out

        assert leave_one_out(zint, triple, 1).elements == (0, 1, 3, 4)
        a = fs(0, 1, 3)
        assert len(iterated_sum(zint, a, 2)) == 6
        assert len(iterated_sum(zint, a, 3)) == 9

    def check_superadd():
        report, witness = verify_superadditivity([fs(0, 2), fs(0, 1), fs(0, 3)])
        assert report.holds and report.lhs == 14 and report.rhs == 11
        assert witness.mark_count() == 11
        eq, _ = verify_superadditivity([fs(0), fs(0)])
        assert eq.holds and eq.slack == 0

    def check_submult():
        report = verify_submultiplicativity(zint, [fs(0, 2), fs(0, 1), fs(0, 3)])
        assert report.holds and report.lhs == 49 and report.rhs == 64
        lex = lex_min_decomposition(zint, [fs(0, 1), fs(0, 1)])
        assert lex.mapping == {0: (1, 1), 1: (1, 2), 2: (2, 2)}

    def check_projection():
        import itertools

        box = list(itertools.product((0, 1), repeat=3))
        report = verify_projection_lemma(box)
        assert report.holds and report.lhs == 64 and report.rhs == 64

    def check_restsum():
        report = verify_restricted_three_sum(zint, fs(0, 1), fs(0, 1), fs(0, 2), fs(0, 3))
        assert report.holds and report.lhs == 16 and report.rhs == 24

    def check_cauchy():
        zmod = Residues(5)
        a = FiniteSet(zmod, (0, 1, 2))
        report = cauchy_davenport_check(5, a, a)
        assert report.holds and report.lhs == 5

    def check_plunnecke():
        w = find_plunnecke_subset(fs(0), fs(0, 1, 3), 1, 2)
        assert w.x_set.elements == (0,) and w.achieved == 6 and w.bound == 9
        w2 = find_plunnecke_subset_multi(fs(0, 1), [fs(0, 1), fs(0, 2)])
        assert w2.x_set.elements == (0, 1) and w2.achieved == 5
        w3 = construct_large_subset(fs(0, 1), [fs(0, 1), fs(0, 2)], 2)
        assert w3.bound == 15 and w3.achieved == 5
        assert smoothed_growth_bound(2, 12, 2, 0, 2) == Fraction(24, 4)

    def check_lev():
        reports = verify_lev_monotonicity(fs(0, 1, 3), 3)
        assert all(r.holds for r in reports)

    def check_torsion_free():
        lat = Lattice(2)
        sets = [FiniteSet(lat, ((0, 0), (1, 0))), FiniteSet(lat, ((0, 0), (0, 1)))]
        m, images, preimages = torsion_free_reduce(sets)
        assert all(len(p) <= 2 for p in preimages)
        report, _ = verify_superadditivity(images)
        assert report.holds

    def check_tensor():
        assert tensor_power_identity_check(zint, fs(0, 1), fs(0, 2), 2)

    def check_family():
        s = fs(82, 84, 88, 96, 112, 144)
        _, _, report = build_graph_counterexample(120, s)
        assert not report.holds and report.lhs == 2116 and report.rhs == 216
        grown = greedy_distinct_triple_sums(120, 6)
        assert len(grown) == 6

    def check_hunts():
        config = HuntConfig(
            question="Q1",
            structure=Permutations(3),
            k=3,
            size_caps=2,
            mode="exhaustive",
            instance_budget=50,
        )
        summary = run_hunt(config)
        assert summary.instances_run == 50 and not summary.violations

    return [
        ("compose", check_compose),
        ("sumsets", check_sumsets),
        ("superadditivity", check_superadd),
        ("submultiplicativity", check_submult),
        ("projection", check_projection),
        ("restricted-three-sum", check_restsum),
        ("cauchy-davenport", check_cauchy),
        ("plunnecke", check_plunnecke),
        ("lev-monotonicity", check_lev),
        ("torsion-free", check_torsion_free),
        ("tensor", check_tensor),
        ("graph-family", check_family),
        ("hunts", check_hunts),
    ]


def _cmd_selftest(_args):
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"PASS  {name}")
    return 1 if failures else 0


def _build_parser():
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

    p_witness = sub.add_parser("witness", help="verify and print the witness")
    add_common(p_witness)

    p_family = sub.add_parser("family", help="build a graph counterexample family")
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--target-size", type=int, default=6)
    p_family.add_argument("--out", choices=["json", "csv"], default="json")

    p_hunt = sub.add_parser("hunt", help="run a counterexample hunt")
    p_hunt.add_argument("--instance", required=True, help="hunt config JSON file")
    p_hunt.add_argument("--seed", type=int)
    p_hunt.add_argument("--budget", type=int)
    p_hunt.add_argument("--log", help="JSONL log path")

    sub.add_parser("selftest", help="run the built-in fixed-example checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args, include_witness=False)
        if args.command == "witness":
            return _cmd_verify(args, include_witness=True)
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "hunt":
            return _cmd_hunt(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        parser.error(f"unknown command {args.command!r}")
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
