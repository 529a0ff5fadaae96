#!/usr/bin/env python3
"""Run the hand-written mutants of the package against the tier-1 suite.

Usage:
    python scripts/mutants.py

Each mutant is one exact edit of one source file.  For each, the repository
is copied to a temporary directory and the edit is applied there; mutants
run one at a time.  A mutant that MUTANTS.json records as killed runs first
against the one test that killed it there, and counts as killed when that
test fails.  Otherwise, and for a new mutant, the tier-1 suite runs once
with ``-x`` in one subprocess, so a mutant counts as surviving only after
a full run.  Every run passes the same ``--hypothesis-seed``, so the
property tests draw the same examples and a rerun kills each mutant with
the same first test.  A fragment that does not match its file exactly once
is refused, so the list cannot decay unnoticed.  The kill table, with the
test that killed each mutant, the run that found it (``"last killer"`` or
``"full"``) and the seed, is written to MUTANTS.json at the repository
root.

A mutant marked equivalent cannot change any result, for the reason its
claim gives; every other mutant must be killed.  The exit code is 1 when a
mutant that is not marked equivalent survives, or one marked equivalent is
killed, since either means the list or the suite needs attention.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HYPOTHESIS_SEED = 0
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
    f"--hypothesis-seed={HYPOTHESIS_SEED}",
]
# the tier-1 guard of this list fails on every mutated copy by design, as
# the copy's fragment no longer matches, so the mutant runs leave it out
GUARD = "tests/test_scripts.py::test_every_mutant_fragment_matches_once"

CL = "src/pseudoplane/cli.py"
CQ = "src/pseudoplane/cyclic_quotient.py"
DP = "src/pseudoplane/dpd_presentation.py"
EA = "src/pseudoplane/exact_algebra.py"
HR = "src/pseudoplane/hypersurface_ring.py"
QD = "src/pseudoplane/qdivisor.py"
RP = "src/pseudoplane/report.py"

# (file, exact fragment, replacement, claim the mutant breaks, equivalent)
MUTANTS: list[tuple[str, str, str, str, bool]] = [
    # product_window's weight conditions, each dropped, and the two rows swapped
    (CQ, "c != -d * (n * n0 // d0) - e_prime * n", "False", "product_window checks (I1) c = d*p0 - e'*n", False),
    (CQ, "or b != -(n * n1 // d1)\n", "or False\n", "product_window checks (I2) b = p1", False),
    (CQ, "or a != n + m * b\n", "or False\n", "product_window checks (I3) a = n + m*b", False),
    (CQ, "or a < 0\n", "or False\n", "product_window checks (N) a >= 0", False),
    (CQ, "or b < 0\n", "or False\n", "product_window checks (N) b >= 0", False),
    (CQ, "or (a >= m and b)\n", "or False\n", "product_window checks (N) a < m or b = 0", False),
    (
        CQ,
        "or (others and any(n * num // den for num, den in others))",
        "or False",
        "product_window checks that no piece has a point other than 0 and 1",
        False,
    ),
    (
        CQ,
        "c != -d * (n * n0 // d0) - e_prime * n\n                or b != -(n * n1 // d1)",
        "c != -d * (n * n1 // d1) - e_prime * n\n                or b != -(n * n0 // d0)",
        "product_window reads the row of the point 0 as p0 and of 1 as p1",
        False,
    ),
    (
        CQ,
        "halves = (weights[: 2 * max_weight], weights[2 * max_weight :])",
        "halves = (weights[: 2 * max_weight + 1], weights[2 * max_weight + 1 :])",
        "equivalent: at n = 0 both sides read p0 = p1 = 0, so reading n = 0 on the -D- side changes nothing",
        True,
    ),
    # the ring facts and the printer
    (HR, "        if j >= 2:\n", "        if j >= 3:\n",
     "smooth_check's witness lists every exponent j >= 2", False),
    (HR, "power *= -p", "power *= p", "_relation_terms expands (t - p)^j with the powers of -p", False),
    (
        HR,
        "@functools.lru_cache(maxsize=_RELATION_MEMO_SIZE)",
        "@functools.lru_cache(maxsize=None)",
        "the relation memo is bounded by _RELATION_MEMO_SIZE",
        False,
    ),
    # freeness_check
    (
        CQ,
        "    if ring.d * wts[2] % d:\n",
        "    if False:\n",
        "freeness_check reads P's exponent residues when s^d is not invariant, not {x, 0} always",
        False,
    ),
    (
        CQ,
        " and (not has_nonzero_root or math.gcd(d, wts[2]) == 1):",
        ":",
        "freeness_check's short-circuit needs the {s} pattern free when P has a nonzero root",
        False,
    ),
    (
        CQ,
        "    # P(s) = Q(s^d) with Q(0) != 0,",
        "    if math.gcd(d, wts[0], wts[1]) == 1 and (not ring.roots or math.gcd(d, wts[2]) == 1):\n"
        "        return FreenessResult(True, [])\n"
        "    # P(s) = Q(s^d) with Q(0) != 0,",
        "freeness_check refuses a relation that is not semi-invariant before it short-circuits",
        False,
    ),
    (
        CQ,
        "if math.gcd(d, wts[0], wts[1]) == 1 and",
        "if math.gcd(d, wts[0]) == 1 and",
        "equivalent: gcd(d, w_u) = 1 implies gcd(d, w_u, w_second) = 1, so the short-circuit "
        "fires less often and the enumeration decides the rest",
        True,
    ),
    # the divisor pair and ML1
    (QD, "divmod(-k * num, den)", "divmod(k * num, den)", "divisor_roots reads -k*D-, not k*D-", False),
    (
        QD,
        "return minus >= 2",
        "return minus >= 1",
        "ml1_test needs the fractional part of D- on two points",
        False,
    ),
    (
        QD,
        "            if num > 0:\n                witness",
        "            if num >= 0:\n                witness",
        "equivalent: a QDivisor stores no zero coefficient, so num >= 0 and num > 0 select alike",
        True,
    ),
    (
        QD,
        "for p, (num, den) in d._coeffs.items() if den != 1})",
        "for p, (num, den) in d._coeffs.items()})",
        "fract_div keeps no point where the coefficient is integral, so ml1_test counts only "
        "fractional points",
        False,
    ),
    # the LND search
    (
        CQ,
        "binding = (0, 1, m * triple.e_prime % triple.d)",
        "binding = (0, 1, 0)",
        "find_valid_lnd_degrees runs the rule on the invariant generator (0, 1, m*e' mod d)",
        False,
    ),
    (
        CQ,
        "binding = (0, 1, m * triple.e_prime % triple.d)",
        "binding = (1, 1, m * triple.e_prime % triple.d)",
        "find_valid_lnd_degrees binds on the generator (0, 1, m*e' mod d), whose u exponent is 0",
        False,
    ),
    (
        CQ,
        "return j >= 0 or",
        "return j > 0 or",
        "equivalent: j = a + degree with a >= 0 and degree >= 1, so j = 0 never occurs",
        True,
    ),
    # the value classes' shared base and the exact-scalar check
    (CQ, '_key = ("d", "e", "m")', '_key = ("d", "e")', "a triple compares and hashes by all of (d, e, m)", False),
    (
        EA,
        "        if type(other) is not type(self):\n            return NotImplemented\n",
        "",
        "a value class compares equal only to a value of its own class",
        False,
    ),
    (
        EA,
        "zip(cls._setters, values)",
        "zip(reversed(cls._setters), values)",
        "_trusted fills the slots in their order",
        False,
    ),
    (
        EA,
        "if not (type(value) is Fraction or _is_int(value)):",
        "if not (type(value) is Fraction or isinstance(value, int)):",
        "_exact refuses a bool",
        False,
    ),
    # classify_pair, its decision table, the family pair and the divisor text
    (RP, "    if not admissible:\n", "    if False:\n",
     "classify_pair excludes a presentation that the decision table rules out", False),
    (RP, "    if lnd_degree == 0:\n", "    if False:\n",
     "classify_pair's decision table rules out a degree-0 derivation", False),
    (RP, "    elif not locus.torsion_compatible:\n", "    elif False:\n",
     "classify_pair's decision table rules out a negative locus of two or more points", False),
    (RP, "    if boundary.numerator != -1:\n", "    if False:\n",
     "_recover_family_parameters recognizes only a boundary coefficient -1/m", False),
    (DP, "QDivisor._trusted({0: (-e_prime, d)})", "QDivisor._trusted({0: (e_prime, d)})",
     "_family_pair writes D+ = -(e'/d)[0]", False),
    (QD, 'r"[0-9]+(?:/[0-9]+)?\\Z"', 'r"\\d+(?:/\\d+)?\\Z"',
     "_parse_rational refuses the digits of other scripts", False),
    (RP, "    elif ml1 is None:\n", "    elif False:\n",
     "classify_pair reports a pair outside the classified regime as outside-regime", False),
    (RP, "    elif not ml1:\n        verdict = \"excluded\"\n        excluded_reason = (",
     "    elif False:\n        verdict = \"excluded\"\n        excluded_reason = (",
     "classify_pair excludes a pair whose D- fails the ML1 test", False),
    (
        QD,
        "return DpdPair(pair.d_plus - fl, pair.d_minus + fl)",
        "return DpdPair(pair.d_plus + fl, pair.d_minus - fl)",
        "canonical_pair moves floor(D+) from D+ to D-",
        False,
    ),
    (
        RP,
        '"up_to_equivalence": not exact}',
        '"up_to_equivalence": exact}',
        "_recover_family_parameters flags a pair that is not the family pair itself",
        False,
    ),
    (
        RP,
        "ratio = 1 - fractional.coefficient(0)",
        "ratio = fractional.coefficient(0)",
        "_recover_family_parameters reads e'/d as 1 - {D+}(0)",
        False,
    ),
    (QD, '    text = text.strip(" ")\n', "    text = text.strip()\n",
     "_parse_rational skips spaces around a number and no other whitespace", False),
    (QD, '    s = text.strip(" ")\n', "    s = text.strip()\n",
     "parse_divisor skips spaces around its text and no other whitespace", False),
    (CL, "if not (digits.isascii() and digits.isdigit()):", "if not digits.isdigit():",
     "the CLI reads an integer option in ASCII digits only", False),
    (QD, 'if not _NUMBER_RE.match(text[1:] if text.startswith(("+", "-")) else text):',
     "if False:", "_parse_rational refuses decimals, exponents and underscores", False),
    # the one integer bound check, at each end and in its type test
    (EA, "    if value > cap:\n", "    if value >= cap:\n", "_check_int accepts a value equal to its cap", False),
    (EA, "    if value < low:\n", "    if value <= low:\n", "_check_int accepts a value equal to its lower bound", False),
    (
        EA,
        "if type(value) is not int and not _is_int(value):",
        "if type(value) is not int and not isinstance(value, int):",
        "_check_int refuses a bool",
        False,
    ),
    (
        RP,
        "return m_max * sum(phi[1:])",
        "return m_max * sum(phi[2:])",
        "_grid_size counts the triples of d = 1",
        False,
    ),
    # the verdict: a few checks' conditions inverted, and each check's
    # failed.append dropped
    *(
        (RP, f"    if not {value}:\n", f"    if {value}:\n",
         f"verify_triple lists {check} in failed_checks only when it fails", False)
        for value, check in (
            ("exponent_check", "exponent_identity"),
            ("freeness.free", "freeness"),
            ("transitive", "component_transitivity"),
            ("degrees", "lnd_degrees"),
        )
    ),
    (
        RP,
        'failed.append("lnd_degrees")',
        "pass",
        "verify_triple lists lnd_degrees in failed_checks when no degree passes",
        False,
    ),
    *(
        (RP, f'failed.append("{check}")', "pass", f"verify_triple lists {check} in failed_checks when it fails", False)
        for check in (
            "exponent_identity",
            "ml1_prediction",
            "picard_torsion",
            "divisor_polynomial",
            "covering_relation",
            "pre_normalization_smoothness",
            "normalization_witnesses",
            "freeness",
            "degenerate_fiber",
            "component_transitivity",
            "action_subgroup",
            "product_structure",
        )
    ),
]


def fragment_problems() -> list[str]:
    """A message for each mutant whose fragment does not match its file
    exactly once, or whose replacement equals the fragment."""
    problems = []
    for index, (path, fragment, replacement, _, _) in enumerate(MUTANTS):
        count = (ROOT / path).read_text().count(fragment)
        if count != 1:
            problems.append(f"mutant {index}: {fragment!r} matches {path} {count} times")
        if fragment == replacement:
            problems.append(f"mutant {index}: the replacement equals the fragment")
    return problems


_FAILED_RE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _run(index: int, tests: list[str]) -> subprocess.CompletedProcess:
    """Apply mutant `index` to a fresh copy of the repository and run the
    tier-1 suite there once, stopping at the first failure, or only
    `tests` when it names some."""
    path, fragment, replacement, _, _ = MUTANTS[index]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"),
        )
        target = copy / path
        target.write_text(target.read_text().replace(fragment, replacement, 1))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([*TIER1, "--deselect", GUARD, *tests], cwd=copy, env=env, capture_output=True, text=True)


def run_mutant(index: int, last_killer: str | None) -> dict:
    """Run mutant `index` against `last_killer`, the test that killed it
    in the last table, and against the full suite unless that test fails."""
    path, fragment, replacement, claim, equivalent = MUTANTS[index]
    start = time.perf_counter()
    proc, run = None, "full"
    if last_killer:
        proc = _run(index, [last_killer])
        # 1 is a failed test; 4 and 5 mean the test is no longer collected
        if proc.returncode == 1:
            run = "last killer"
    if run == "full":
        proc = _run(index, [])
    seconds = time.perf_counter() - start
    failure = _FAILED_RE.search(proc.stdout)
    return {
        "file": path,
        "fragment": fragment,
        "replacement": replacement,
        "claim": claim,
        "equivalent": equivalent,
        "killed": proc.returncode != 0,
        "first_failure": failure.group(1) if failure else None,
        "run": run,
        "seconds": round(seconds, 1),
    }


def _last_killers() -> dict[tuple[str, str, str], str]:
    """{(file, fragment, replacement): first failing test} of the mutants
    that the last MUTANTS.json records as killed."""
    table = ROOT / "MUTANTS.json"
    if not table.exists():
        return {}
    return {
        (m["file"], m["fragment"], m["replacement"]): m["first_failure"]
        for m in json.loads(table.read_text())["mutants"]
        if m["killed"] and m["first_failure"]
    }


def main() -> int:
    problems = fragment_problems()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    killers = _last_killers()
    start = time.perf_counter()
    results = []
    for i, (path, fragment, replacement, _, _) in enumerate(MUTANTS):
        result = run_mutant(i, killers.get((path, fragment, replacement)))
        results.append(result)
        status = "killed" if result["killed"] else "survived"
        mark = " (equivalent)" if result["equivalent"] else ""
        print(
            f"[{i:2}] {status}{mark} in {result['seconds']} s ({result['run']} run) "
            f"by {result['first_failure']}: {result['claim']}"
        )
    elapsed = time.perf_counter() - start

    unexpected = [r for r in results if r["killed"] == r["equivalent"]]
    table = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "run_seconds": round(elapsed, 1),
        "command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:], "--deselect", GUARD]),
        "hypothesis_seed": HYPOTHESIS_SEED,
        "killed": sum(r["killed"] for r in results),
        "survived": sum(not r["killed"] for r in results),
        "unexpected": len(unexpected),
        "mutants": results,
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(table, indent=2) + "\n")
    print(f"{table['killed']} killed, {table['survived']} survived, {len(unexpected)} unexpected, {elapsed:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
