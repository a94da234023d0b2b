import json

import numpy as np
import pytest

import mubwigner.checks as checks_mod
from mubwigner.checks import CHECKS, check_state
from mubwigner.cli import main
from mubwigner.serialize import load_state, matrix_to_json
from mubwigner.wigner import (
    CONVENTIONS, ConventionError, has_shift_table, max_entangled_density, random_density,
    wigner_kernel,
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("p,n,conv,names", [
    (3, 1, None, ["marginals", "plancherel", "positivity"]),
    (2, 2, "p2-right", list(CHECKS)),
    (3, 2, None, list(CHECKS)),
    (3, 2, "plain", ["separability", "positivity"]),
    (2, 3, None, ["marginals", "plancherel"]),
])
def test_check_state_returns_the_report_the_cli_writes(tmp_path, p, n, conv, names):
    state = write_json(tmp_path / "s.json", {"random": "density"})
    out = tmp_path / "rep.json"
    argv = ["check", "--p", str(p), "--n", str(n), "--input", state, "--seed", "4",
            "--checks", ",".join(names), "--out", str(out)]
    if conv:
        argv += ["--convention", conv]
    report = check_state(load_state(state, p, n, 4), p, n, conv, names, 1e-10, 4)
    assert main(argv) == (0 if report["passed"] else 1)
    assert out.read_text() == json.dumps(report, indent=2)
    assert list(report) == ["p", "n", "convention", "tol", "checks", "passed"]
    # results follow the table's order, whatever the order asked for
    assert list(report["checks"]) == [c for c in CHECKS if c in names]


def test_check_state_takes_names_in_any_order_and_a_list_input():
    rho = max_entangled_density(3)
    report = check_state(rho.tolist(), 3, 2, checks=("pt", "marginals", "pt"))
    assert report["convention"] == "separable"
    assert list(report["checks"]) == ["marginals", "pt"]
    assert report["checks"]["marginals"]["passed"] and not report["passed"]
    assert report["checks"]["pt"]["min_eigenvalue"] == pytest.approx(-1 / 3)


@pytest.mark.parametrize("names", [(), []])
def test_check_state_rejects_an_empty_check_list(names):
    with pytest.raises(ValueError, match="no checks requested"):
        check_state(np.eye(3) / 3, 3, 1, checks=names)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
def test_check_state_rejects_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        check_state(np.eye(3) / 3, 3, 1, tol=tol)


@pytest.mark.parametrize("seed", [-1, -2, 1.5, "3", None])
def test_check_state_rejects_a_bad_seed_before_any_work(seed, monkeypatch):
    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(checks_mod, "wigner_function", no_table)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        check_state(np.eye(9) / 9, 3, 2, seed=seed)


def test_check_refuses_a_negative_seed_before_any_work(tmp_path, capsys, monkeypatch):
    # seed + 1 seeds the plancherel check's state, so -1 got through as 0
    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(checks_mod, "wigner_function", no_table)
    state = write_json(tmp_path / "prod.json", {"alpha": 0, "s": [0, 0]})
    for seed in ("-1", "-2"):
        out = tmp_path / "seed.out"
        rc = main(["check", "--p", "3", "--n", "2", "--input", state, "--seed", seed,
                   "--out", str(out)])
        assert rc == 2 and "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()


def test_pt_refuses_a_non_hermitian_matrix(tmp_path, capsys):
    # eigvalsh reads one triangle, so without the Hermiticity rule of
    # positivity_check a non-Hermitian input would get a verdict
    g = np.random.default_rng(5)
    M = g.normal(size=(9, 9)) + 1j * g.normal(size=(9, 9))
    with pytest.raises(ValueError, match="Hermitian"):
        check_state(M, 3, 2, checks=["pt"])
    state = write_json(tmp_path / "m.json", matrix_to_json(M))
    out = tmp_path / "rep.json"
    rc = main(["check", "--p", "3", "--n", "2", "--input", state, "--checks", "pt",
               "--out", str(out)])
    assert rc == 2
    assert "Hermitian" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("names", [["pt"], ["positivity"], ["marginals", "pt"]])
def test_positivity_checks_refuse_a_bad_input_by_name(tmp_path, capsys, names):
    # the refusal names the input matrix, not a check that was not asked for
    g = np.random.default_rng(5)
    bad = [g.normal(size=(9, 9)) + 1j * g.normal(size=(9, 9)), np.eye(9) / 9]
    bad[1][0, 0] = np.nan
    for M in bad:
        with pytest.raises(ValueError, match="^the input matrix is not finite and Hermitian"):
            check_state(M, 3, 2, checks=names)
    state = write_json(tmp_path / "m.json", matrix_to_json(bad[0]))
    rc = main(["check", "--p", "3", "--n", "2", "--input", state, "--checks", ",".join(names),
               "--out", str(tmp_path / "rep.json")])
    err = capsys.readouterr().err
    assert rc == 2 and "the input matrix is not finite and Hermitian" in err
    assert "positivity check" not in err


def test_shift_rule_is_the_kernels():
    for p, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        for conv in CONVENTIONS:
            try:
                k = wigner_kernel(p, n, conv)
            except ConventionError:
                continue
            assert has_shift_table(p, n, conv) == (k.shifts is not None)


def test_marginals_without_a_shift_table_are_refused_before_any_work(tmp_path, capsys,
                                                                     monkeypatch):
    # the p=2 dynamics kernel at n >= 2 has no shift table for the marginals;
    # the other checks still run on it
    bell = np.zeros((4, 4))
    bell[::3, ::3] = 0.5
    assert check_state(bell, 2, 2, "dynamics", ["plancherel", "positivity"])["passed"]

    def no_table(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(checks_mod, "wigner_function", no_table)
    for n in (2, 3):
        with pytest.raises(ConventionError, match="marginals check needs generator-route shifts"):
            check_state(np.eye(2**n) / 2**n, 2, n, "dynamics")
    state = write_json(tmp_path / "bell.json", matrix_to_json(bell))
    out = tmp_path / "rep.json"
    rc = main(["check", "--p", "2", "--n", "2", "--input", state, "--convention", "dynamics",
               "--out", str(out)])
    assert rc == 2 and "generator-route shifts" in capsys.readouterr().err
    assert not out.exists()


def test_pt_eigenvalue_is_eigvalsh_of_the_transposed_density(rng):
    # positivity_check copies the matrix and calls eigvalsh on it: the same bits
    from mubwigner.wigner import reconstruct_density, wigner_function, wigner_partial_transpose

    for p, conv in ((3, "separable"), (5, "separable"), (2, "p2-left"), (2, "p2-right")):
        rho = random_density(p * p, rng)
        got = check_state(rho, p, 2, conv, ["pt"], 1e-10)["checks"]["pt"]
        dense = reconstruct_density(wigner_partial_transpose(wigner_function(rho, p, 2, conv)))
        lam = float(np.linalg.eigvalsh(dense)[0])
        assert got == {"min_eigenvalue": lam, "passed": lam >= -1e-10}


def test_checks_help_lists_the_table(capsys):
    assert main(["check", "--help"]) == 0
    assert ",".join(CHECKS) in capsys.readouterr().out
