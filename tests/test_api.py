"""The public surface: the exported names, the functions the CLI reaches, and
the README's library example."""

import ast
import importlib
import inspect
import pkgutil
import sys
import types
from pathlib import Path

import pytest

from helpers import F

import pseudoplane
from pseudoplane import DpdPair, QDivisor, SurfaceTriple
from pseudoplane.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "CyclicAction", "DpdPair", "HypersurfaceRing", "MultiPoly", "NonPolynomial",
    "QDivisor", "RegimeError", "RingElement", "StructuralError", "SurfaceTriple",
    "build_covering_ring", "canonical_pair", "classify_pair", "classify_presentation",
    "component_permutation", "derivation_leaves_ring", "divisor_to_poly", "fiber_analysis",
    "find_valid_lnd_degrees", "floor_div", "format_divisor", "format_poly", "fract_div",
    "freeness_check", "graded_piece", "hilbert_basis", "induced_action", "ml1_test",
    "mod_inverse", "monomial_element", "negative_locus", "nilpotency_index",
    "normal_form", "normalize_power_relation", "normalized_ring", "parse_divisor",
    "parse_poly", "poly_divmod", "poly_gcd", "product_defect", "product_structure_check",
    "pseudoplane_dpd_pair", "s_weight", "same_subgroup", "smooth_check",
    "smoothness_condition", "squarefree_decomposition", "standard_action",
    "substitute_power", "sweep", "verify_exit_code", "verify_triple",
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

# defined in src/pseudoplane but reached by none of CLI_RUNS
UNREACHED = {
    # only a product-check fault reaches it (see the fault-injection tests)
    "cyclic_quotient._format_residual",
    # README promises that printed polynomials parse back
    "exact_algebra.parse_poly",
    "exact_algebra._parse_term",
    "exact_algebra.MultiPoly.__setattr__",
    "exact_algebra.MultiPoly.__bool__",
    "exact_algebra.MultiPoly.__str__",
    "exact_algebra.MultiPoly.__repr__",
    "exact_algebra.MultiPoly.__rsub__",
    "qdivisor.QDivisor.__setattr__",
    "qdivisor.QDivisor.__bool__",
    "qdivisor.QDivisor.__str__",
    "qdivisor.QDivisor.__repr__",
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
    assert set(pseudoplane.__all__) == PUBLIC_NAMES and len(pseudoplane.__all__) == 53

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
