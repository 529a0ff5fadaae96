import json
import subprocess
import sys
import time

import pytest

from pseudoplane import classify_pair, sweep, verify_triple
from pseudoplane.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_json_roundtrip():
    report = verify_triple(3, 2, 2)
    assert json.loads(json.dumps(report)) == report


def test_classify_json_roundtrip():
    report = classify_pair("0:-2/3", "0:2/3,1:-1/2")
    assert json.loads(json.dumps(report)) == report


def test_sweep_json_roundtrip():
    result = sweep(2, 2, max_weight=4)
    assert json.loads(json.dumps(result)) == result


def test_verify_cli_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "-d", "3", "-e", "2", "-m", "2", "--json")
    code2, out2 = run_cli(capsys, "verify", "-d", "3", "-e", "2", "-m", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["verdict"] == "consistent"
    assert report["derived"] == {
        "e_prime": 2, "k": 6, "m_prime": 3, "d_prime": 2, "l": -4,
        "orientation": "positive-lnd-degree",
    }
    assert report["normalized"]["ring"] == {"k": 2, "P": "s^3 - 1", "second_var": "w"}


def test_verify_cli_exit_codes(capsys):
    code, _ = run_cli(capsys, "verify", "-d", "2", "-e", "1", "-m", "1")
    assert code == 0  # excluded as predicted
    code, out = run_cli(capsys, "verify", "-d", "4", "-e", "2", "-m", "3", "--json")
    assert code == 2
    assert "error" in json.loads(out)


def test_verify_cli_invalid_values(capsys):
    # the exact messages and the exit code of invalid values
    for argv, message in [
        (("-d", "0", "-e", "1", "-m", "1"), "d must be >= 1, got 0"),
        (
            ("-d", "4", "-e", "2", "-m", "3"),
            "e and d must be coprime for the quotient to act freely: gcd(2, 4) = 2",
        ),
    ]:
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        code, out = run_cli(capsys, "verify", *argv, "--json")
        assert code == 2
        assert json.loads(out) == {"format_version": 1, "error": message}


def test_classify_cli_family_pair(capsys):
    # a derivation degree other than 0 leaves the family pair admissible
    for lnd_degree in ([], ["--lnd-degree", "2"]):
        code, out = run_cli(
            capsys, "classify", "--d-plus", "0:-2/3", "--d-minus", "0:2/3,1:-1/2",
            *lnd_degree, "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["action_class"] == {
            "kind": "hyperbolic", "admissible": True, "reason": "admissible",
        }
        assert report["ml1"] is True
        assert report["picard"]["l"] == 1
        assert report["recovered"] == {
            "d": 3, "e_prime": 2, "m": 2, "up_to_equivalence": False,
        }
        assert report["verdict"] == "admissible"


def test_classify_cli_single_fractional_point(capsys):
    code, out = run_cli(
        capsys, "classify", "--d-plus", "0:-1/2", "--d-minus", "0:1/2,1:-1", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["action_class"]["kind"] == "hyperbolic"
    assert report["ml1"] is False
    assert report["verdict"] == "excluded"
    assert report["recovered"] == {
        "d": 2, "e_prime": 1, "m": 1, "up_to_equivalence": False,
    }


def test_classify_cli_picard_excluded(capsys):
    code, out = run_cli(
        capsys, "classify", "--d-plus", "", "--d-minus", "1:-1/2,2:-1/2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["picard"] == {"l": 2, "bound": 1, "torsion_compatible": False}
    assert report["verdict"] == "excluded"
    assert "Picard" in report["excluded_reason"]


def test_classify_cli_recovers_after_shift(capsys):
    code, out = run_cli(
        capsys, "classify", "--d-plus", "0:1/3", "--d-minus", "0:-1/3,1:-1/2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["recovered"] == {
        "d": 3, "e_prime": 2, "m": 2, "up_to_equivalence": True,
    }


@pytest.mark.parametrize(
    "d_plus, d_minus, recovered",
    [
        ("0:-1", "0:1,1:-1/2", {"d": 1, "e_prime": 1, "m": 2, "up_to_equivalence": False}),
        ("", "1:-1/2", {"d": 1, "e_prime": 1, "m": 2, "up_to_equivalence": True}),
        ("0:-2/3", "0:2/3,1:-2/3", None),
    ],
)
def test_classify_cli_recovered_block(capsys, d_plus, d_minus, recovered):
    code, out = run_cli(
        capsys, "classify", "--d-plus", d_plus, "--d-minus", d_minus, "--json"
    )
    assert code == 0
    assert json.loads(out)["recovered"] == recovered


def test_classify_cli_degree_zero_excluded(capsys):
    code, out = run_cli(
        capsys, "classify", "--d-plus", "0:-2/3", "--d-minus", "0:2/3,1:-1/2",
        "--lnd-degree", "0", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "excluded"
    assert "torus" in report["excluded_reason"]


@pytest.mark.parametrize(
    "args",
    [
        ["--d-plus", "0:-2/3", "--d-minus", "0:2/3,1:-1/2", "--lnd-degree", "0"],
        ["--d-plus", "", "--d-minus", "1:-1/2,2:-1/2"],
    ],
    ids=["degree_zero", "picard"],
)
def test_classify_cli_text_names_an_action_class_exclusion_once(capsys, args):
    code, out = run_cli(capsys, "classify", *args)
    assert code == 0
    assert out.count("excluded:") == 1
    assert "verdict: excluded" in out


def test_classify_cli_outside_regime(capsys):
    code, out = run_cli(
        capsys, "classify",
        "--d-plus", "0:-1/2,2:-1/2", "--d-minus", "0:1/2,2:1/2,1:-1/3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["picard"]["torsion_compatible"] is True
    assert report["ml1"] is None
    assert "outside classified regime" in report["ml1_note"]
    assert report["verdict"] == "outside-regime"


def test_classify_cli_invariant_violation(capsys):
    code, out = run_cli(capsys, "classify", "--d-plus", "0:1/2", "--d-minus", "", "--json")
    assert code == 2
    assert "positive at" in json.loads(out)["error"]


def test_classify_cli_unparseable(capsys):
    code, _ = run_cli(capsys, "classify", "--d-plus", "zebra", "--d-minus", "")
    assert code == 2


def test_classify_cli_refuses_exponent_notation_at_once(capsys):
    # Fraction would read 1e10000000 as 10**10000000; the divisor grammar,
    # [+-]p or [+-]p/q, refuses it before any work starts
    start = time.perf_counter()
    code, out = run_cli(
        capsys, "classify", "--d-plus", "0:1e10000000", "--d-minus", "", "--json"
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "bad rational in divisor entry '0:1e10000000'" in json.loads(out)["error"]


def test_classify_cli_refuses_digits_of_other_scripts(capsys):
    # fullwidth 0:-2/3, which Fraction would read as the family pair's D+
    code, out = run_cli(
        capsys, "classify", "--d-plus", "\uff10:-\uff12/\uff13",
        "--d-minus", "0:2/3,1:-1/2", "--json",
    )
    assert code == 2
    assert json.loads(out) == {
        "format_version": 1,
        "error": "bad rational in divisor entry '\uff10:-\uff12/\uff13': "
        "expected [+-]p or [+-]p/q, got '\uff10'",
    }


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["verify", "-d", "\uff13", "-e", "2", "-m", "2"], "-d", "\uff13"),
        (["verify", "-d", "3", "-e", "2", "-m", "1_0"], "-m", "1_0"),
        (["verify", "-d", "3", "-e", "2", "-m", " 2"], "-m", " 2"),
        (["sweep", "--d-max", "3", "--m-max", "\u0663"], "--m-max", "\u0663"),
        (["classify", "--d-plus", "", "--d-minus", "", "--lnd-degree", "1_0"], "--lnd-degree", "1_0"),
    ],
)
def test_cli_reads_integers_in_ascii_digits_only(capsys, argv, flag, value):
    # int() reads fullwidth and Arabic-Indic digits, underscores and
    # surrounding spaces; an integer option refuses them before any work
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "-d", "abc", "-e", "2", "-m", "2", "--json"], "argument -d: invalid int value: 'abc'"),
        (["verify", "--json", "-d", "abc", "-e", "2", "-m", "2"], "argument -d: invalid int value: 'abc'"),
        (["sweep", "--d-max", "3", "--json"], "the following arguments are required: --m-max"),
        (["sweep", "--js", "--d-max", "3"], "the following arguments are required: --m-max"),
        (["classify", "--json", "--d-plus", "0:-2/3"], "the following arguments are required: --d-minus"),
    ],
)
def test_cli_reports_usage_errors_as_json_under_json(capsys, argv, message):
    # --json before or after the faulty option, or abbreviated as argparse
    # allows: argparse's message goes into the JSON error object
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out) == {"format_version": 1, "error": message}
    # without it, argparse prints its usage and message and exits
    with pytest.raises(SystemExit) as exc:
        main([arg for arg in argv if not arg.startswith("--j")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pseudoplane ")
    assert captured.err.endswith(f"error: {message}\n")


def test_sweep_cli_small(capsys):
    code, out = run_cli(capsys, "sweep", "--d-max", "1", "--m-max", "1", "--json")
    assert code == 0
    result = json.loads(out)
    assert result["aggregate"] == {
        "consistent": 0, "excluded": 1, "inconsistent": 0, "total": 1,
    }
    row = result["rows"][0]
    assert (row["d"], row["e"], row["m"]) == (1, 1, 1)
    assert row["verdict"] == "excluded"


def test_sweep_cli_exit_code_and_text(capsys):
    code, out = run_cli(capsys, "sweep", "--d-max", "2", "--m-max", "2")
    assert code == 0
    assert "consistent: 1" in out and "inconsistent: 0" in out


def test_sweep_cli_max_exponent(capsys):
    code, out = run_cli(
        capsys, "sweep", "--d-max", "2", "--m-max", "2", "--max-weight", "1",
        "--max-exponent", "12", "--json",
    )
    assert code == 0
    result = json.loads(out)
    assert result == sweep(2, 2, max_weight=1, max_exponent=12)
    assert result["params"]["max_exponent"] == 12
    _, default = run_cli(capsys, "sweep", "--d-max", "2", "--m-max", "2", "--max-weight", "1")
    _, explicit = run_cli(
        capsys, "sweep", "--d-max", "2", "--m-max", "2", "--max-weight", "1",
        "--max-exponent", "10",
    )
    assert explicit == default
    code, out = run_cli(
        capsys, "sweep", "--d-max", "1", "--m-max", "1", "--max-exponent", "0", "--json"
    )
    assert code == 2
    assert "max_exponent" in json.loads(out)["error"]


def test_verify_max_weight_zero_skips_product_section(capsys):
    report = verify_triple(3, 2, 2, max_weight=0)
    assert report["product_structure"] == {"max_weight": 0, "all_match": None}
    assert report["verdict"] == "consistent"
    code, out = run_cli(capsys, "verify", "-d", "3", "-e", "2", "-m", "2", "--max-weight", "0")
    assert code == 0
    assert "not checked" in out


def test_moved_divisor_root_is_reported_not_raised(capsys, monkeypatch):
    from pseudoplane import report as report_module

    # divisor_roots reads Q's root at 2 in place of 1; the covering ring
    # holds (s^d - 1)^m' as before, and the pure-power comparison fails
    # divisor_polynomial alone
    divisor_roots = report_module.divisor_roots

    def moved(d_minus, k):
        l, roots = divisor_roots(d_minus, k)
        return l, tuple((2 if p == 1 else p, j) for p, j in roots)

    monkeypatch.setattr(report_module, "divisor_roots", moved)
    report = verify_triple(3, 2, 2)
    assert report["verdict"] == "inconsistent"
    assert report["failed_checks"] == ["divisor_polynomial"]
    assert report["normalized"]["witnesses"] == {"power_identity": False, "normalized_smooth": True}
    code, out = run_cli(capsys, "verify", "-d", "3", "-e", "2", "-m", "2")
    assert code == 1
    assert "verdict: inconsistent" in out
    assert "root identity: FAIL" in out


def test_singular_normalized_model_is_reported_and_sweep_carries_on(capsys, monkeypatch):
    from pseudoplane import report as report_module
    from pseudoplane.hypersurface_ring import SmoothCheck

    smooth_check = report_module.smooth_check

    def singular_normalized(ring):
        if ring.second_var == "w":
            return SmoothCheck(False, 2)
        return smooth_check(ring)

    monkeypatch.setattr(report_module, "smooth_check", singular_normalized)
    report = verify_triple(3, 2, 2)
    assert report["normalized"]["witnesses"] == {"power_identity": True, "normalized_smooth": False}
    assert report["verdict"] == "inconsistent"
    assert report["failed_checks"] == ["normalization_witnesses"]
    code, out = run_cli(capsys, "verify", "-d", "3", "-e", "2", "-m", "2")
    assert code == 1
    assert "verdict: inconsistent" in out
    code, out = run_cli(capsys, "sweep", "--d-max", "3", "--m-max", "3", "--json")
    assert code == 1
    result = json.loads(out)
    assert result["aggregate"] == {
        "consistent": 0, "excluded": 0, "inconsistent": 12, "total": 12,
    }
    assert all(row["failed_checks"] == ["normalization_witnesses"] for row in result["rows"])
    code, out = run_cli(capsys, "sweep", "--d-max", "3", "--m-max", "3")
    assert code == 1
    assert "inconsistent: 12" in out
    assert out.count("failed: normalization_witnesses\n") == 12


@pytest.mark.parametrize(
    "shift",
    [
        lambda triple, n: 1,
        # every product of generators still matches its pair under this
        # shift; (I1) breaks at every weight n != 0
        lambda triple, n: triple.d * n,
    ],
    ids=["c+1", "c+d*n"],
)
def test_product_check_fault_is_reported_and_sweep_carries_on(capsys, monkeypatch, shift):
    from pseudoplane import cyclic_quotient

    generator = cyclic_quotient.weight_piece_generator

    def shifted(triple, n):
        a, b, c = generator(triple, n)
        return a, b, c + shift(triple, n)

    monkeypatch.setattr(cyclic_quotient, "weight_piece_generator", shifted)
    report = verify_triple(3, 2, 2)
    assert report["product_structure"] == {"max_weight": 8, "all_match": False}
    assert report["verdict"] == "inconsistent"
    assert report["failed_checks"] == ["product_structure"]
    code, out = run_cli(capsys, "sweep", "--d-max", "3", "--m-max", "3", "--json")
    assert code == 1
    result = json.loads(out)
    assert result["aggregate"] == {
        "consistent": 0, "excluded": 0, "inconsistent": 12, "total": 12,
    }
    assert all(row["failed_checks"] == ["product_structure"] for row in result["rows"])
    code, out = run_cli(capsys, "sweep", "--d-max", "3", "--m-max", "3")
    assert code == 1
    assert "inconsistent: 12" in out and "failed: product_structure" in out


def test_lnd_rule_fault_is_reported_and_sweep_carries_on(capsys, monkeypatch):
    from pseudoplane import cyclic_quotient

    # a membership rule that rejects the one generator it is run on,
    # (0, 1, m*e' mod d), leaves no degree to certify
    monkeypatch.setattr(cyclic_quotient, "_keeps_ring", lambda generator, degree, m: False)
    report = verify_triple(3, 2, 2)
    assert report["lnd"] == {"degrees_found": [], "nilpotency_certified": False}
    assert report["verdict"] == "inconsistent"
    assert report["failed_checks"] == ["lnd_degrees"]
    code, out = run_cli(capsys, "sweep", "--d-max", "3", "--m-max", "3", "--json")
    assert code == 1
    result = json.loads(out)
    assert result["aggregate"] == {
        "consistent": 0, "excluded": 0, "inconsistent": 12, "total": 12,
    }
    assert all(row["failed_checks"] == ["lnd_degrees"] for row in result["rows"])
    code, out = run_cli(capsys, "sweep", "--d-max", "3", "--m-max", "3")
    assert code == 1
    assert "inconsistent: 12" in out
    assert out.count("failed: lnd_degrees\n") == 12


def _l_off_by_one(surface_triple):
    def shifted(d, e, m):
        triple = surface_triple(d, e, m)
        object.__setattr__(triple, "l", triple.l + 1)
        return triple

    return shifted


def _ml1_flipped(ml1_test):
    return lambda pair: not ml1_test(pair)


def _torsion_refused(negative_locus):
    return lambda pair: negative_locus(pair)._replace(torsion_compatible=False)


def _l_read_off_by_one(divisor_roots):
    def shifted(d_minus, k):
        l, roots = divisor_roots(d_minus, k)
        return l + 1, roots

    return shifted


def _covering_smoothness_flipped(smooth_check):
    def flipped(ring):
        check = smooth_check(ring)
        return check._replace(smooth=not check.smooth) if ring.second_var == "v" else check

    return flipped


def _not_free(freeness_check):
    return lambda action, ring: freeness_check(action, ring)._replace(free=False)


def _double_fiber(fiber_analysis):
    return lambda ring: [(ring.d, 2)]


def _not_transitive(component_permutation):
    return lambda d, e: component_permutation(d, e)._replace(transitive=False)


def _other_subgroup(same_subgroup_as_induced):
    return lambda triple, action: False


# one row per named check that no other test fails: the name that report
# looks up at call time, a fault that returns a wrong value in place of
# what it returned, and every check that the wrong value fails.  The
# triple's l is read by divisor_polynomial as well as by exponent_identity,
# so that row names both.
CHECK_FAULTS = {
    "exponent_identity": ("SurfaceTriple", _l_off_by_one, ["exponent_identity", "divisor_polynomial"]),
    "ml1_prediction": ("ml1_test", _ml1_flipped, ["ml1_prediction"]),
    "picard_torsion": ("negative_locus", _torsion_refused, ["picard_torsion"]),
    "divisor_polynomial": ("divisor_roots", _l_read_off_by_one, ["divisor_polynomial"]),
    "pre_normalization_smoothness": (
        "smooth_check", _covering_smoothness_flipped, ["pre_normalization_smoothness"],
    ),
    "freeness": ("freeness_check", _not_free, ["freeness"]),
    "degenerate_fiber": ("fiber_analysis", _double_fiber, ["degenerate_fiber"]),
    "component_transitivity": ("component_permutation", _not_transitive, ["component_transitivity"]),
    "action_subgroup": ("_same_subgroup_as_induced", _other_subgroup, ["action_subgroup"]),
}


@pytest.mark.parametrize("seam, fault, failed", CHECK_FAULTS.values(), ids=CHECK_FAULTS)
def test_each_named_check_fails_on_a_wrong_value(capsys, monkeypatch, seam, fault, failed):
    from pseudoplane import report as report_module

    monkeypatch.setattr(report_module, seam, fault(getattr(report_module, seam)))
    report = verify_triple(3, 2, 2)
    assert report["verdict"] == "inconsistent"
    assert report["failed_checks"] == failed
    result = sweep(3, 3)
    assert result["aggregate"] == {"consistent": 0, "excluded": 0, "inconsistent": 12, "total": 12}
    assert [row["failed_checks"] for row in result["rows"]] == [failed] * 12
    code, out = run_cli(capsys, "verify", "-d", "3", "-e", "2", "-m", "2")
    assert code == 1
    assert "verdict: inconsistent" in out


def test_exit_code_is_function_of_verdict():
    from pseudoplane import verify_exit_code

    assert verify_exit_code({"verdict": "consistent"}) == 0
    assert verify_exit_code({"verdict": "excluded"}) == 0
    assert verify_exit_code({"verdict": "inconsistent"}) == 1


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "pseudoplane", "verify", "-d", "2", "-e", "1", "-m", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "consistent"
    assert report["normalized"]["ring"]["P"] == "s^2 - 1"


def test_work_bounds_over_the_caps_are_refused_before_any_work(capsys, monkeypatch):
    from pseudoplane import report as report_module

    def forbidden(*args, **kwargs):
        raise AssertionError("work started for a refused input")

    # verify must refuse before its first check, and sweep before it
    # verifies its first triple
    first_check = report_module.ml1_test
    for name in ("ml1_test", "product_window", "find_valid_lnd_degrees", "verify_triple"):
        monkeypatch.setattr(report_module, name, forbidden)
    weight_cap, exponent_cap = report_module.MAX_WEIGHT_CAP, report_module.MAX_EXPONENT_CAP
    d_cap, m_cap = report_module.MAX_D_CAP, report_module.MAX_M_CAP
    for bounds, message in [
        ({"max_weight": weight_cap + 1}, f"max_weight must be <= {weight_cap}, got {weight_cap + 1}"),
        (
            {"max_exponent": exponent_cap + 1},
            f"max_exponent must be <= {exponent_cap}, got {exponent_cap + 1}",
        ),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_triple(3, 2, 2, **bounds)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(6, 5, **bounds)
        flag, value = next(iter(bounds.items()))
        flag = "--" + flag.replace("_", "-")
        for argv in (
            ["verify", "-d", "3", "-e", "2", "-m", "2", flag, str(value)],
            ["sweep", "--d-max", "6", "--m-max", "5", flag, str(value)],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
    # d and m: verify names the value, sweep its grid bound
    for (d, e, m), (d_max, m_max), name, cap in [
        ((d_cap + 1, 1, 2), (d_cap + 1, 5), "d", d_cap),
        ((3, 2, m_cap + 1), (6, m_cap + 1), "m", m_cap),
    ]:
        message = f"{name} must be <= {cap}, got {cap + 1}"
        grid_message = f"{name}_max must be <= {cap}, got {cap + 1}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_triple(d, e, m)
        with pytest.raises(ValueError, match=f"^{grid_message}$"):
            sweep(d_max, m_max)
        assert main(["verify", "-d", str(d), "-e", str(e), "-m", str(m)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["sweep", "--d-max", str(d_max), "--m-max", str(m_max)]) == 2
        assert capsys.readouterr().err == f"error: {grid_message}\n"
    # the number of grid triples, counted as grid_triples yields them
    grid_cap = report_module.MAX_GRID_TRIPLES
    for d_max, m_max in [(1, grid_cap + 1), (6, grid_cap // 12 + 1), (d_cap, 1)]:
        count = sum(1 for _ in report_module.grid_triples(d_max, m_max))
        assert count > grid_cap
        message = f"grid triples must be <= {grid_cap}, got {count}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(d_max, m_max)
        assert main(["sweep", "--d-max", str(d_max), "--m-max", str(m_max)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # the caps themselves are accepted
    monkeypatch.setattr(report_module, "ml1_test", first_check)
    monkeypatch.setattr(report_module, "product_window", lambda triple, w: None)
    monkeypatch.setattr(report_module, "find_valid_lnd_degrees", lambda triple, bound: [2])
    report = verify_triple(3, 2, 2, max_weight=weight_cap, max_exponent=exponent_cap)
    assert report["verdict"] == "consistent"
    assert report["product_structure"] == {"max_weight": weight_cap, "all_match": True}

    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    # at d and m caps verify reaches its first check, and at the grid cap
    # sweep reaches its first triple, in the library and the CLI
    monkeypatch.setattr(report_module, "ml1_test", started)
    with pytest.raises(Started):
        verify_triple(d_cap, 1, m_cap)
    with pytest.raises(Started):
        main(["verify", "-d", str(d_cap), "-e", "1", "-m", str(m_cap)])
    monkeypatch.setattr(report_module, "verify_triple", started)
    assert sum(1 for _ in report_module.grid_triples(1, grid_cap)) == grid_cap
    with pytest.raises(Started):
        sweep(1, grid_cap)
    with pytest.raises(Started):
        main(["sweep", "--d-max", "1", "--m-max", str(grid_cap)])