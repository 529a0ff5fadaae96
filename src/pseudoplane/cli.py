"""Command-line front end.

    pseudoplane verify -d INT -e INT -m INT [--max-weight INT] [--max-exponent INT] [--json]
    pseudoplane classify --d-plus STR --d-minus STR [--lnd-degree INT] [--json]
    pseudoplane sweep --d-max INT --m-max INT [--max-weight INT] [--max-exponent INT] [--json]

Divisor strings are comma-separated ``point:coefficient`` entries with exact
rationals, e.g. ``0:-2/3,1:-1/2``.  Exit codes: 0 = consistent or excluded as
predicted, 1 = some check contradicts the expected structure, 2 = invalid
input.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .report import (
    EXIT_INVALID,
    EXIT_OK,
    FORMAT_VERSION,
    classify_pair,
    sweep,
    sweep_exit_code,
    verify_exit_code,
    verify_triple,
)


def _decimal(text: str) -> int:
    """An integer option's value: an optional sign and ASCII digits, as in
    divisor text; ``int`` would also read other scripts' digits, underscores
    and surrounding whitespace."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoplane",
        description=(
            "Exact-arithmetic construction and verification of the cyclic-quotient "
            "surfaces x^m y = z^d - 1 via their divisor-pair presentations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the full pipeline for one (d, e, m) triple")
    verify.add_argument("-d", type=_decimal, required=True, help="fiber multiplicity / covering degree")
    verify.add_argument("-e", type=_decimal, required=True, help="symmetry exponent on s (coprime to d)")
    verify.add_argument("-m", type=_decimal, required=True, help="exponent of u in the relation")
    verify.add_argument("--max-weight", type=_decimal, default=8,
                        help="check products of weight pieces for |n|, |n'| up to this bound (0 skips)")
    verify.add_argument("--max-exponent", type=_decimal, default=10,
                        help="search bound for valid derivation degrees")
    verify.add_argument("--json", action="store_true", help="emit the JSON report")

    classify = sub.add_parser("classify", help="classify a raw divisor pair")
    classify.add_argument("--d-plus", required=True, help="divisor string for D+")
    classify.add_argument("--d-minus", required=True, help="divisor string for D-")
    classify.add_argument("--lnd-degree", type=_decimal, default=None,
                          help="degree of a known homogeneous locally nilpotent derivation")
    classify.add_argument("--json", action="store_true", help="emit the JSON report")

    swp = sub.add_parser("sweep", help="verify a whole parameter grid")
    swp.add_argument("--d-max", type=_decimal, required=True)
    swp.add_argument("--m-max", type=_decimal, required=True)
    swp.add_argument("--max-weight", type=_decimal, default=8)
    swp.add_argument("--max-exponent", type=_decimal, default=10,
                     help="search bound for valid derivation degrees")
    swp.add_argument("--json", action="store_true", help="emit the JSON summary")

    return parser


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _flag(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _print_verify_text(report: dict) -> None:
    inp, der = report["input"], report["derived"]
    print(f"triple: d={inp['d']} e={inp['e']} m={inp['m']}")
    print(
        f"derived: e'={der['e_prime']} k={der['k']} m'={der['m_prime']} "
        f"d'={der['d_prime']} l={der['l']} ({der['orientation']})"
    )
    print(f"exponent identity k*e' + d*l = 0: {_flag(report['exponent_check'])}")
    print(f"divisor pair: D+ = {report['dpd']['d_plus']} | D- = {report['dpd']['d_minus']}")
    print(f"ML1 (fractional support of D- on >= 2 points): {'yes' if report['ml1'] else 'no'}")
    pic = report["picard"]
    print(
        f"negative locus: l={pic['l']} rank bound={pic['bound']} "
        f"torsion compatible: {'yes' if pic['torsion_compatible'] else 'no'}"
    )
    pre = report["pre_normalization"]
    print(
        f"covering relation: u^{pre['ring']['k']}*v = {pre['ring']['P']}  "
        f"(smooth: {'yes' if pre['smooth'] else 'no'})"
    )
    if pre["singular_witness"]:
        witness = ", ".join(f"({f})^{mult}" for f, mult in pre["singular_witness"])
        print(f"  singular along u=0 at roots of: {witness}")
    nrm = report["normalized"]
    print(
        f"normalized relation: u^{nrm['ring']['k']}*w = {nrm['ring']['P']}  "
        f"(root identity: {_flag(nrm['witnesses']['power_identity'])}, "
        f"smooth: {_flag(nrm['witnesses']['normalized_smooth'])})"
    )
    fiber = ", ".join(f"{count} component(s) of multiplicity {mult}"
                      for count, mult in nrm["degenerate_fiber"])
    print(f"degenerate fiber over u=0: {fiber}")
    print(f"free symmetry action: {_flag(report['freeness'])}")
    cycles = " ".join("(" + " ".join(map(str, c)) + ")" for c in report["component_cycles"])
    print(f"component permutation: {cycles}  transitive: {_flag(report['transitive'])}")
    print(f"induced and standard actions generate the same group: {_flag(report['action_subgroup_match'])}")
    ps = report["product_structure"]
    if ps["all_match"] is None:
        print("product structure: not checked (max weight 0)")
    else:
        print(
            f"product structure vs divisor prediction (|n|, |n'| <= {ps['max_weight']}): "
            f"{_flag(ps['all_match'])}"
        )
    lnd = report["lnd"]
    degrees = ", ".join(map(str, lnd["degrees_found"])) or "none"
    print(
        f"valid derivation degrees: {degrees}  "
        f"(nilpotency certified: {'yes' if lnd['nilpotency_certified'] else 'no'})"
    )
    if report["failed_checks"]:
        print(f"failed checks: {', '.join(report['failed_checks'])}")
    if report["excluded_reason"]:
        print(f"excluded: {report['excluded_reason']}")
    print(f"verdict: {report['verdict']}")


def _print_classify_text(report: dict) -> None:
    ac = report["action_class"]
    print(f"action class: {ac['kind']} ({ac['reason']})")
    if report["ml1"] is None:
        print(f"ML1: undecided ({report['ml1_note']})")
    else:
        print(f"ML1: {'yes' if report['ml1'] else 'no'}")
    pic = report["picard"]
    print(
        f"negative locus: l={pic['l']} rank bound={pic['bound']} "
        f"torsion compatible: {'yes' if pic['torsion_compatible'] else 'no'}"
    )
    print(
        f"canonical pair: D+ = {report['canonical']['d_plus']} | "
        f"D- = {report['canonical']['d_minus']}"
    )
    rec = report["recovered"]
    if rec is None:
        print("recovered parameters: none")
    else:
        suffix = " (up to equivalence)" if rec["up_to_equivalence"] else ""
        print(f"recovered parameters: d={rec['d']} e'={rec['e_prime']} m={rec['m']}{suffix}")
    if report["excluded_reason"]:
        print(f"excluded: {report['excluded_reason']}")
    print(f"verdict: {report['verdict']}")


def _print_sweep_text(result: dict) -> None:
    print(f"{'d':>3} {'e':>3} {'m':>3}  verdict       notes")
    for row in result["rows"]:
        notes = ""
        if row["failed_checks"]:
            notes = "failed: " + ", ".join(row["failed_checks"])
        elif row["excluded_reason"]:
            notes = row["excluded_reason"]
        print(f"{row['d']:>3} {row['e']:>3} {row['m']:>3}  {row['verdict']:<12} {notes}")
    agg = result["aggregate"]
    print(
        f"consistent: {agg['consistent']}  excluded: {agg['excluded']}  "
        f"inconsistent: {agg['inconsistent']}  total: {agg['total']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report = verify_triple(
                args.d, args.e, args.m,
                max_weight=args.max_weight, max_exponent=args.max_exponent,
            )
            if args.json:
                _emit_json(report)
            else:
                _print_verify_text(report)
            return verify_exit_code(report)
        if args.command == "classify":
            report = classify_pair(args.d_plus, args.d_minus, lnd_degree=args.lnd_degree)
            if args.json:
                _emit_json(report)
            else:
                _print_classify_text(report)
            return EXIT_OK
        if args.command == "sweep":
            result = sweep(
                args.d_max, args.m_max,
                max_weight=args.max_weight, max_exponent=args.max_exponent,
            )
            if args.json:
                _emit_json(result)
            else:
                _print_sweep_text(result)
            return sweep_exit_code(result)
    except ValueError as exc:
        if getattr(args, "json", False):
            _emit_json({"format_version": FORMAT_VERSION, "error": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    raise AssertionError("unreachable")


# The imports leave a few hundred young objects behind.  Whether the
# collection that traverses them (about 0.1 ms) falls inside the first
# command depends on how many objects the imports and the caller happened
# to allocate; collecting them here puts it at a fixed point of start-up.
gc.collect(0)

if __name__ == "__main__":
    sys.exit(main())
