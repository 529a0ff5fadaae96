"""The public surface: the exported names, the functions the CLI reaches, the
README's library example, and the input checks of the library functions."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from helpers import F, MultiPoly, parse_poly, same_subgroup

import pseudoplane
from pseudoplane import (
    CyclicAction,
    DpdPair,
    HypersurfaceRing,
    QDivisor,
    SurfaceTriple,
    classify_pair,
    component_permutation,
    divisor_roots,
    find_valid_lnd_degrees,
    freeness_check,
    parse_divisor,
    product_window,
    sweep,
    verify_triple,
)
from pseudoplane.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "CyclicAction", "DpdPair", "HypersurfaceRing", "QDivisor",
    "RegimeError", "SurfaceTriple",
    "canonical_pair", "classify_pair",
    "component_permutation", "divisor_roots", "fiber_analysis",
    "find_valid_lnd_degrees", "floor_div", "format_divisor", "fract_div",
    "freeness_check", "ml1_test",
    "negative_locus",
    "parse_divisor",
    "product_window",
    "smooth_check",
    "standard_action", "sweep", "verify_exit_code", "verify_triple",
    "weight_piece_generator",
}

# small CLI runs that between them take every command, valid and invalid
# input, text and JSON output
CLI_RUNS = [
    ["verify", "-d", "3", "-e", "2", "-m", "2"],
    ["verify", "-d", "3", "-e", "2", "-m", "2", "--json"],
    ["verify", "-d", "4", "-e", "2", "-m", "3"],
    ["verify", "-d", "4", "-e", "2", "-m", "3", "--json"],
    ["classify", "--d-plus", "0:1/3", "--d-minus", "0:-1/3,1:-1/2"],
    ["classify", "--d-plus", "", "--d-minus", "1:-1/2,2:-1/2", "--json"],
    ["classify", "--d-plus", "0:-1/2,2:-1/2", "--d-minus", "0:1/2,2:1/2,1:-1/3"],
    ["sweep", "--d-max", "3", "--m-max", "3"],
]

# sha256 of the acceptance sweep's JSON and of [exit code, stdout, stderr]
# of each verify and sweep run of CLI_RUNS, text and --json, as recorded
# before the product window was tabulated per weight.  A change that moves
# one byte of a report or of the CLI text fails here.
GOLDEN_SWEEP = "b3664f282c609e7b07c51041ae587e28c52cf5a75f612d0b6ee1387ba204327f"
GOLDEN_CLI = {
    "verify -d 3 -e 2 -m 2": "37bc54c70d9d467c022d4d5aad17aae5851b7ad41eb2a6f0cd9a7a15812f3830",
    "verify -d 3 -e 2 -m 2 --json": "2c3531bb84f5b5e2592a968d8037868a3558d5000f016b2d1c23d4c1e9433bfc",
    "verify -d 4 -e 2 -m 3": "f0de9cf12eb4d608536cecb2e2be054081e0026d856ebf3f814ccd0c3a139e8a",
    "verify -d 4 -e 2 -m 3 --json": "bbcd99c05fe133266c44e7d3cce1feccfebacc03f75a82999109c6eb81a7fd76",
    "sweep --d-max 3 --m-max 3": "08b98d024c232aea549117b584f7d0977a1682b9430002144e6e019c02c6b3a3",
    "sweep --d-max 3 --m-max 3 --json": "287c6b3c3ad8115867e19c09ee8f356524680b8f5cb85e66e776f7b91fdbf6be",
}
# sha256 of json.dumps(sweep(20, 10, include_reports=True)), recorded at
# commit 7e60e01.  Its 1280 triples reach d = 20, where the covering
# relation (s^d - 1)^m' prints up to 21 terms; the acceptance sweep stops
# at d = 6 and 7 terms.
GOLDEN_D_HEAVY_SWEEP = "348cb6d8a815879d3e3c3fe980c0223b9bf4f1b490c04953c98429dcf69d64ab"

# defined in src/pseudoplane but reached by none of CLI_RUNS
UNREACHED = {
    # HypersurfaceRing and CyclicAction are exported value classes: their
    # validating constructors are their interface, while the pipeline builds
    # its rings and actions from checked values through _trusted
    "hypersurface_ring.HypersurfaceRing.__new__",
    "cyclic_quotient.CyclicAction.__new__",
    # a divisor's truth value and its text forms
    "qdivisor.QDivisor.__bool__",
    "qdivisor.QDivisor.__str__",
    "qdivisor.QDivisor.__repr__",
    # the Fraction-valued views of a divisor's integer storage: every
    # operation of the package reads the integers, and these are the
    # interface that users and the tests' Fraction oracles read
    "qdivisor.QDivisor.coefficients",
    "qdivisor.QDivisor.items",
    # value-class interface: the immutable value classes refuse assignment
    # and deletion, print their fields, and hash, where their fields allow
    # it, by value, which no CLI run needs; each class reads its slots'
    # setters and compared fields once, when it is created at import
    "exact_algebra._Frozen.__init_subclass__",
    "exact_algebra._Frozen.__setattr__",
    "exact_algebra._Frozen.__delattr__",
    "exact_algebra._Frozen.__hash__",
    "exact_algebra._Frozen.__repr__",
    "qdivisor.DpdPair.__repr__",
}


def _package_modules():
    return [
        importlib.import_module(f"pseudoplane.{info.name}")
        for info in pkgutil.iter_modules(pseudoplane.__path__)
    ]


def _defined_functions(code, prefix):
    """{(file, first line, name): qualified name} of every def below `code`;
    class bodies contribute their methods but are not functions themselves."""
    found = {}
    for const in code.co_consts:
        # comprehensions (named "<listcomp>" and so on) are not defs
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        is_function = const.co_flags & inspect.CO_OPTIMIZED  # not a class body
        name = f"{prefix}.{const.co_name}"
        if is_function:
            found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
        found.update(_defined_functions(const, f"{name}.<locals>" if is_function else name))
    return found


def test_cli_reaches_every_function_but_the_allowlist(capsys):
    assert set(pseudoplane.__all__) == PUBLIC_NAMES and len(pseudoplane.__all__) == 26

    defined = {}
    for module in _package_modules():
        path = module.__file__
        code = compile(Path(path).read_text(), path, "exec")
        defined.update(_defined_functions(code, module.__name__.removeprefix("pseudoplane.")))
        # a warm memo would hide the function behind it
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    seen = set()

    def profile(frame, event, arg):
        seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in CLI_RUNS]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 2, 2, 0, 0, 0, 0]
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
    unreached = {name for key, name in defined.items() if key not in reached}
    assert unreached == UNREACHED


HELPERS = Path(__file__).resolve().parent / "helpers.py"


def _free_names(node: ast.AST) -> set[str]:
    """The names that a definition reads and does not bind itself, so that
    a local variable does not stand for the helper of the same name."""
    read, bound = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            (read if isinstance(n.ctx, ast.Load) else bound).add(n.id)
        elif isinstance(n, ast.arg):
            bound.add(n.arg)
    return read - bound


def test_every_helper_is_reached_from_a_test():
    # every top-level function and class of tests/helpers.py is named by a
    # test module (imported from helpers, or read as helpers.<name>), or by
    # a helper that is itself so named; a helper that only a deleted test
    # read fails here
    tree = ast.parse(HELPERS.read_text())
    names_in = {
        node.name: _free_names(node)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    named = set()
    for path in HELPERS.parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "helpers":
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "helpers":
                named.add(node.attr)
    reached = set()
    frontier = list(named & names_in.keys())
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(names_in[name] & names_in.keys())
    assert sorted(names_in.keys() - reached) == []


def _readme_api_block() -> str:
    section = README.read_text().split("## Library API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_api_example():
    block = _readme_api_block()
    namespace = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # prose, checked below
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked == 3
    # D+ = -(2/3)[0], D- = (2/3)[0] - (1/2)[1]
    assert namespace["t"].pair == DpdPair(
        QDivisor({0: F(-2, 3)}), QDivisor({0: F(2, 3), 1: F(-1, 2)})
    )
    # ValueError unless d, e, m are ints >= 1, gcd(e, d) = 1
    for bad in [(0, 1, 1), (3, -1, 2), (3, 2, 2.0), (True, 1, 1), (4, 2, 3)]:
        with pytest.raises(ValueError):
            SurfaceTriple(*bad)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_outputs_match_the_recorded_digests(capsys):
    assert _sha256(json.dumps(sweep(6, 5, include_reports=True))) == GOLDEN_SWEEP
    got = {}
    for argv in CLI_RUNS:
        if argv[0] not in ("verify", "sweep"):
            continue
        text = [a for a in argv if a != "--json"]
        for variant in (text, text + ["--json"]):
            code = main(variant)
            captured = capsys.readouterr()
            got[" ".join(variant)] = _sha256(json.dumps([code, captured.out, captured.err]))
    assert got == GOLDEN_CLI


def test_d_heavy_sweep_matches_its_recorded_digest():
    assert _sha256(json.dumps(sweep(20, 10, include_reports=True))) == GOLDEN_D_HEAVY_SWEEP


# each library input check that a valid pipeline run never reaches: the
# call, the error it raises and its whole message
class _Int(int):
    """An int subclass other than bool, which the integer checks accept."""


INPUT_CHECKS = {
    "CyclicAction-modulus-0": (
        lambda: CyclicAction(0, {"u": 1}),
        ValueError, "modulus must be a positive integer: 0",
    ),
    "CyclicAction-modulus-float": (
        lambda: CyclicAction(2.5, {"u": 1}),
        ValueError, "modulus must be a positive integer: 2.5",
    ),
    "CyclicAction-modulus-bool": (
        lambda: CyclicAction(True, {"u": 1}),
        ValueError, "modulus must be a positive integer: True",
    ),
    "CyclicAction-weight-float": (
        lambda: CyclicAction(3, {"u": 1.5, "w": 1, "s": 2}),
        ValueError, "weight of u must be an integer: 1.5",
    ),
    "CyclicAction-weight-bool": (
        lambda: CyclicAction(3, {"u": 1, "w": True, "s": 2}),
        ValueError, "weight of w must be an integer: True",
    ),
    "freeness_check-missing-weight": (
        lambda: freeness_check(
            CyclicAction(3, {"u": 1, "s": 2}), HypersurfaceRing(2, 3, ((1, 1),), "w")
        ),
        ValueError, "action is missing a weight for variable 'w'",
    ),
    "component_permutation-d-0": (
        lambda: component_permutation(0, 1),
        ValueError, "d must be a positive integer: 0",
    ),
    "component_permutation-d-bool": (
        lambda: component_permutation(True, 1),
        ValueError, "d must be a positive integer: True",
    ),
    "component_permutation-d-float": (
        lambda: component_permutation(3.0, 1),
        ValueError, "d must be a positive integer: 3.0",
    ),
    "component_permutation-e-bool": (
        lambda: component_permutation(3, True),
        ValueError, "e must be an integer: True",
    ),
    "component_permutation-e-float": (
        lambda: component_permutation(3, 1.0),
        ValueError, "e must be an integer: 1.0",
    ),
    # lnd_degree is None or an int: False and 0.0 once read as degree 0,
    # "0" and 2.5 as admissible
    "classify_pair-lnd_degree-bool": (
        lambda: classify_pair("0:-2/3", "0:2/3,1:-1/2", False),
        ValueError, "lnd_degree must be an integer or None, got False",
    ),
    "classify_pair-lnd_degree-float-zero": (
        lambda: classify_pair("0:-2/3", "0:2/3,1:-1/2", 0.0),
        ValueError, "lnd_degree must be an integer or None, got 0.0",
    ),
    "classify_pair-lnd_degree-string": (
        lambda: classify_pair("0:-2/3", "0:2/3,1:-1/2", "0"),
        ValueError, "lnd_degree must be an integer or None, got '0'",
    ),
    "classify_pair-lnd_degree-float": (
        lambda: classify_pair("0:-2/3", "0:2/3,1:-1/2", 2.5),
        ValueError, "lnd_degree must be an integer or None, got 2.5",
    ),
    "HypersurfaceRing-k-float": (
        lambda: HypersurfaceRing(1.5, 2, ((1, 1),)),
        ValueError, "k must be a positive integer: 1.5",
    ),
    "HypersurfaceRing-k-bool": (
        lambda: HypersurfaceRing(True, 2, ((1, 1),)),
        ValueError, "k must be a positive integer: True",
    ),
    "HypersurfaceRing-d-bool": (
        lambda: HypersurfaceRing(2, True, ((1, 1),)),
        ValueError, "d must be a positive integer: True",
    ),
    "HypersurfaceRing-root-exponent-bool": (
        lambda: HypersurfaceRing(2, 3, ((1, True),)),
        ValueError, "root exponents must be positive integers: ((1, True),)",
    ),
    "HypersurfaceRing-root-exponent-float": (
        lambda: HypersurfaceRing(2, 3, ((1, 1.5),)),
        ValueError, "root exponents must be positive integers: ((1, 1.5),)",
    ),
    "HypersurfaceRing-root-point-string": (
        lambda: HypersurfaceRing(2, 3, (("2", 1),), "w"),
        ValueError, "root points must be ints or Fractions: '2'",
    ),
    "HypersurfaceRing-root-point-bool": (
        lambda: HypersurfaceRing(2, 3, ((True, 1),), "w"),
        ValueError, "root points must be ints or Fractions: True",
    ),
    "HypersurfaceRing-root-point-float": (
        lambda: HypersurfaceRing(2, 3, ((0.5, 1),), "w"),
        ValueError, "root points must be ints or Fractions: 0.5",
    ),
    "HypersurfaceRing-second-variable-u": (
        lambda: HypersurfaceRing(2, 3, ((1, 1),), "u"),
        ValueError, "second variable may not shadow u or s: 'u'",
    ),
    "divisor_roots-k-0": (
        lambda: divisor_roots(QDivisor({1: F(-1, 2)}), 0),
        ValueError, "k must be a positive integer: 0",
    ),
    "divisor_roots-k-float": (
        lambda: divisor_roots(QDivisor({1: F(-1, 2)}), 6.0),
        ValueError, "k must be a positive integer: 6.0",
    ),
    "divisor_roots-k-bool": (
        lambda: divisor_roots(QDivisor({1: F(-1, 2)}), True),
        ValueError, "k must be a positive integer: True",
    ),
    "QDivisor-coefficient-float": (
        lambda: QDivisor({0: 0.1}),
        ValueError, "divisor coefficients must be ints or Fractions: 0.1",
    ),
    "QDivisor-point-float": (
        lambda: QDivisor({0.5: F(-1, 2)}),
        ValueError, "divisor points must be ints or Fractions: 0.5",
    ),
    "QDivisor-point-string": (
        lambda: QDivisor({"1/2": 1}),
        ValueError, "divisor points must be ints or Fractions: '1/2'",
    ),
    "QDivisor-point-bool": (
        lambda: QDivisor({True: 1}),
        ValueError, "divisor points must be ints or Fractions: True",
    ),
    "product_window-max_weight-bool": (
        lambda: product_window(SurfaceTriple(3, 2, 2), True),
        ValueError, "max_weight must be an integer, got True",
    ),
    "product_window-max_weight-float": (
        lambda: product_window(SurfaceTriple(3, 2, 2), 2.5),
        ValueError, "max_weight must be an integer, got 2.5",
    ),
    "find_valid_lnd_degrees-bound-float": (
        lambda: find_valid_lnd_degrees(SurfaceTriple(3, 2, 2), 10.0),
        ValueError, "bound must be an integer, got 10.0",
    ),
    "find_valid_lnd_degrees-bound-bool": (
        lambda: find_valid_lnd_degrees(SurfaceTriple(3, 2, 2), True),
        ValueError, "bound must be an integer, got True",
    ),
    "product_window-max_weight-over-cap": (
        lambda: product_window(SurfaceTriple(3, 2, 2), 513),
        ValueError, "max_weight must be <= 512, got 513",
    ),
    "find_valid_lnd_degrees-bound-over-cap": (
        lambda: find_valid_lnd_degrees(SurfaceTriple(3, 2, 2), 4097),
        ValueError, "bound must be <= 4096, got 4097",
    ),
    # an int subclass passes the type check and is refused by value alone
    "SurfaceTriple-e-int-subclass": (
        lambda: SurfaceTriple(4, _Int(2), 3),
        ValueError, "e and d must be coprime for the quotient to act freely: gcd(2, 4) = 2",
    ),
    "parse_divisor-empty-entry": (
        lambda: parse_divisor("0:1,,1:2"),
        ValueError, "empty entry in divisor text '0:1,,1:2'",
    ),
    # digits of other scripts, which a str pattern's \d and Fraction read
    "parse_divisor-fullwidth-digits": (
        lambda: parse_divisor("\uff10:-\uff12/\uff13"),
        ValueError,
        "bad rational in divisor entry '\uff10:-\uff12/\uff13': "
        "expected [+-]p or [+-]p/q, got '\uff10'",
    ),
    "parse_divisor-arabic-indic-digits": (
        lambda: parse_divisor("\u0660:-\u0662/\u0663"),
        ValueError,
        "bad rational in divisor entry '\u0660:-\u0662/\u0663': "
        "expected [+-]p or [+-]p/q, got '\u0660'",
    ),
    # whitespace other than spaces, which str.strip() would skip; the
    # message prints it escaped
    "parse_divisor-ideographic-space": (
        lambda: parse_divisor("\u30000:-2/3"),
        ValueError,
        "bad rational in divisor entry '\\u30000:-2/3': "
        "expected [+-]p or [+-]p/q, got '\\u30000'",
    ),
    "parse_divisor-ideographic-space-only": (
        lambda: parse_divisor("\u3000"),
        ValueError, "expected 'point:coefficient', got '\\u3000'",
    ),
    "parse_divisor-no-break-space": (
        lambda: parse_divisor("0:-2/3\u00a0"),
        ValueError,
        "bad rational in divisor entry '0:-2/3\\xa0': "
        "expected [+-]p or [+-]p/q, got '-2/3\\xa0'",
    ),
    # each bound out of range is named with its value
    "find_valid_lnd_degrees-bound-below-m-plus-d": (
        lambda: find_valid_lnd_degrees(SurfaceTriple(3, 2, 2), 4),
        ValueError, "bound must be >= 5, got 4",
    ),
    "verify_triple-max_weight-negative": (
        lambda: verify_triple(3, 2, 2, max_weight=-1),
        ValueError, "max_weight must be >= 0, got -1",
    ),
    "verify_triple-max_exponent-0": (
        lambda: verify_triple(3, 2, 2, max_exponent=0),
        ValueError, "max_exponent must be >= 1, got 0",
    ),
    "sweep-d_max-0": (
        lambda: sweep(0, 3),
        ValueError, "d_max must be >= 1, got 0",
    ),
    "sweep-m_max-0": (
        lambda: sweep(3, 0),
        ValueError, "m_max must be >= 1, got 0",
    ),
    # same_subgroup and the tests' polynomial type, which left the package
    # as oracles, keep the input checks they had there
    "same_subgroup-weight-float": (
        lambda: same_subgroup(CyclicAction(3, {"u": 0.5}), CyclicAction(3, {"u": 1})),
        ValueError, "weight of u must be an integer: 0.5",
    ),
    "same_subgroup-variable-sets": (
        lambda: same_subgroup(CyclicAction(3, {"u": 1}), CyclicAction(3, {"s": 1})),
        ValueError, "actions are defined on different variable sets",
    ),
    "MultiPoly-duplicate-variables": (
        lambda: MultiPoly(("s", "s")),
        ValueError, "duplicate variable names: ('s', 's')",
    ),
    "MultiPoly-exponent-length": (
        lambda: MultiPoly(("u", "s"), {(1,): 1}),
        ValueError, "exponent vector (1,) does not match variable list ('u', 's')",
    ),
    "MultiPoly-coefficient-float": (
        lambda: MultiPoly(("s",), {(1,): 0.1}),
        ValueError, "coefficients must be ints or Fractions: 0.1",
    ),
    "MultiPoly-coefficient-string": (
        lambda: MultiPoly(("s",), {(1,): "1/2"}),
        ValueError, "coefficients must be ints or Fractions: '1/2'",
    ),
    "MultiPoly-coefficient-bool": (
        lambda: MultiPoly(("s",), {(1,): True}),
        ValueError, "coefficients must be ints or Fractions: True",
    ),
    "MultiPoly-exponent-bool": (
        lambda: MultiPoly(("s",), {(True,): 1}),
        ValueError, "exponents must be non-negative integers: (True,)",
    ),
    "parse_poly-empty-factor": (
        lambda: parse_poly("2**s", ("s",)),
        ValueError, "empty factor in term '2**s'",
    ),
    "parse_poly-unparseable-text": (
        lambda: parse_poly("s +- 1", ("s",)),
        ValueError, "cannot parse polynomial text 's +- 1'",
    ),
    "MultiPoly-setattr": (
        lambda: setattr(MultiPoly(("s",)), "terms", {}),
        AttributeError, "MultiPoly is immutable",
    ),
    "QDivisor-setattr": (
        lambda: setattr(QDivisor({0: 1}), "coefficients", {}),
        AttributeError, "QDivisor is immutable",
    ),
}


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_checks_refuse_with_their_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# the value classes, each made positionally, made again with keywords (an
# equal value), and made different in each field; the last column is
# whether it hashes
VALUE_CLASSES = {
    "SurfaceTriple": (
        lambda: SurfaceTriple(3, 2, 2),
        lambda: SurfaceTriple(d=3, e=2, m=2),
        lambda: [SurfaceTriple(5, 2, 2), SurfaceTriple(3, 1, 2), SurfaceTriple(3, 2, 3)],
        True,
    ),
    "HypersurfaceRing": (
        lambda: HypersurfaceRing(2, 3, ((1, 1),)),
        lambda: HypersurfaceRing(k=2, d=3, roots=[(F(1), 1)], second_var="v"),
        lambda: [
            HypersurfaceRing(3, 3, ((1, 1),)),
            HypersurfaceRing(2, 4, ((1, 1),)),
            HypersurfaceRing(2, 3, ((1, 2),)),
            HypersurfaceRing(2, 3, ((1, 1),), "w"),
        ],
        True,
    ),
    "CyclicAction": (
        lambda: CyclicAction(3, {"u": 1, "s": 2}),
        lambda: CyclicAction(modulus=3, weights={"u": 4, "s": -1}),
        lambda: [CyclicAction(4, {"u": 1, "s": 2}), CyclicAction(3, {"u": 2, "s": 2})],
        False,
    ),
    "DpdPair": (
        lambda: DpdPair(QDivisor({0: F(-2, 3)}), QDivisor({0: F(2, 3), 1: F(-1, 2)})),
        lambda: DpdPair(d_plus=QDivisor({0: F(-2, 3)}), d_minus=QDivisor({0: F(2, 3), 1: F(-1, 2)})),
        lambda: [
            DpdPair(QDivisor({0: F(-2, 3), 2: F(-1)}), QDivisor({0: F(2, 3), 1: F(-1, 2)})),
            DpdPair(QDivisor({0: F(-2, 3)}), QDivisor({0: F(2, 3), 1: F(-1, 3)})),
        ],
        False,
    ),
}


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_classes_are_immutable_and_compare_by_value(name):
    make, make_by_keyword, make_others, hashable = VALUE_CLASSES[name]
    value, twin = make(), make_by_keyword()
    assert value == twin and value is not twin and repr(value) == repr(twin)
    for other in make_others():
        assert value != other and repr(value) != repr(other)
    immutable = f"^{name} is immutable$"
    for attr in (type(value).__slots__[0], "anything"):
        with pytest.raises(AttributeError, match=immutable):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=immutable):
            delattr(value, attr)
    assert value == twin
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_value_classes_equal_no_value_of_another_class(name):
    # equality defers to the other operand unless both are of one class, so
    # a value differs from a value of every other class, fields or not
    value = VALUE_CLASSES[name][0]()
    others = [make() for other, (make, *_) in VALUE_CLASSES.items() if other != name]
    for other in [None, 3, (3, 2, 2), *others]:
        assert value != other and other != value


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, as the test process has both loaded already;
    # -S keeps site's start-up files out, so only the package's imports count
    src = Path(pseudoplane.__file__).resolve().parents[1]
    probe = "import sys, pseudoplane.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_importing_the_cli_loads_no_typing():
    # the result tuples are collections.namedtuples and the annotation-only
    # names come from collections.abc, so a fresh -S import, with site's
    # start-up files left out, does not load typing
    src = Path(pseudoplane.__file__).resolve().parents[1]
    probe = "import sys, pseudoplane.cli; print('typing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


def test_importing_the_cli_ends_with_an_empty_young_generation():
    # the CLI's import collects its young objects last, so the first
    # collection after start-up does not depend on how many the imports left
    src = Path(pseudoplane.__file__).resolve().parents[1]
    probe = "import gc, pseudoplane.cli; print(gc.get_count()[0])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert int(done.stdout) < 50


def _unused_imports(path: Path) -> list[str]:
    """Names that a module imports and never names again; `__future__`
    imports and the names listed in the module's `__all__` (the package's
    re-exports) count as used."""
    tree = ast.parse(path.read_text())
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    modules = [Path(module.__file__) for module in _package_modules()]
    modules.append(Path(pseudoplane.__file__))
    unused = {path.name: _unused_imports(path) for path in modules}
    assert unused == {path.name: [] for path in modules}


def test_the_benchmark_tracer_finds_every_layer_it_names():
    # perfbench/tracer.py looks each layer up as sys.modules["pseudoplane.<layer>"]
    # after the CLI's import, so a renamed module would fail every traced run
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    (layers,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    ]
    assert layers
    src = Path(pseudoplane.__file__).resolve().parents[1]
    probe = f"import sys, pseudoplane.cli; print([l for l in {list(layers)!r} if 'pseudoplane.' + l not in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
