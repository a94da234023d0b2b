import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mubwigner.cli import main
from mubwigner.mub import MubProjector, full_mub, mub_projector
from mubwigner.geometry import phase_geometry
from mubwigner.serialize import (
    _complex_json,
    matrix_from_json,
    matrix_to_json,
    mub_to_json,
    resolve_state,
    wigner_table_from_json,
    wigner_table_to_json,
)
from mubwigner.spins import spin_matrix
from mubwigner.wigner import (
    max_entangled_density,
    random_density,
    reconstruct_density,
    wigner_function,
)

TOL = 1e-10


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_matrix_json_round_trip(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(matrix_from_json(matrix_to_json(M)) - M).max() == 0


def test_resolve_state_shorthands():
    P = resolve_state({"alpha": [1], "s": [0]}, 3, 1)
    geom = phase_geometry(3, 1)
    assert np.abs(P - mub_projector(geom, 1, (0,)).matrix).max() < TOL
    P = resolve_state({"alpha": "inf", "s": [2]}, 3, 1)
    assert np.abs(P - mub_projector(geom, 3, (2,)).matrix).max() < TOL
    rho = resolve_state({"random": "density"}, 3, 1, np.random.default_rng(5))
    assert abs(np.trace(rho) - 1) < TOL
    with pytest.raises(ValueError):
        resolve_state({"bogus": 1}, 3, 1)


@pytest.mark.parametrize("cmd", ["wigner", "check", "evolve"])
@pytest.mark.parametrize("state", [{"alpha": 1.5, "s": [0]}, {"alpha": [1.7], "s": [0]},
                                   {"alpha": 1, "s": [0.5]}, {"alpha": 0, "s": 3},
                                   {"alpha": None, "s": [0]},
                                   {"alpha": [1, None], "s": [0, 0]}])
def test_cli_rejects_non_integer_state_labels(tmp_path, capsys, cmd, state):
    path = write_json(tmp_path / "s.json", state)
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.eye(3)))
    extra = ["--hamiltonian", hfile] if cmd == "evolve" else []
    out = tmp_path / "out.json"
    assert main([cmd, "--p", "3", "--n", "1", "--input", path, *extra, "--out", str(out)]) == 2
    assert "not an" in capsys.readouterr().err
    assert not out.exists()


def test_random_state_follows_the_seed():
    a = resolve_state({"random": "density"}, 3, 2, 7)
    assert np.array_equal(a, resolve_state({"random": "density"}, 3, 2, np.random.default_rng(7)))
    assert np.array_equal(a, random_density(9, np.random.default_rng(7)))
    assert not np.array_equal(a, resolve_state({"random": "density"}, 3, 2, 8))
    assert np.array_equal(resolve_state({"random": "pure"}, 3, 1),
                          resolve_state({"random": "pure"}, 3, 1, 0))


def test_cli_random_state_follows_seed(tmp_path):
    state = write_json(tmp_path / "s.json", {"random": "density"})
    outs = []
    for k, seed in enumerate(["7", "7", "8"]):
        out = tmp_path / f"w{k}"
        argv = ["wigner", "--p", "3", "--n", "1", "--input", state, "--seed", seed,
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        outs.append((tmp_path / f"w{k}.json").read_text())
    assert outs[0] == outs[1] != outs[2]
    want = wigner_function(random_density(3, np.random.default_rng(7)), 3, 1, "plain")
    assert np.array_equal(wigner_table_from_json(json.loads(outs[0])).values, want.values.real)


def test_cli_imports_numpy_random_only_for_random_inputs(tmp_path):
    import os
    import subprocess
    import sys

    import mubwigner

    src = os.path.dirname(os.path.dirname(mubwigner.__file__))
    proj = write_json(tmp_path / "p.json", {"alpha": [1], "s": [0]})
    rand = write_json(tmp_path / "r.json", {"random": "density"})
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.eye(3)))
    runs = {
        ("wigner", proj): False,
        ("evolve", proj): False,
        ("check", proj): True,  # the default checks include plancherel's random sigma
        ("wigner", rand): True,
    }
    code = ("import sys; from mubwigner.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    for (cmd, state), imported in runs.items():
        extra = ["--hamiltonian", hfile] if cmd == "evolve" else []
        argv = [cmd, "--p", "3", "--n", "1", "--input", state, *extra,
                "--out", str(tmp_path / f"{cmd}.out")]
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split()[-2:] == ["0", str(imported)]
    argv = ["check", "--p", "3", "--n", "1", "--input", proj, "--checks", "marginals,positivity",
            "--out", str(tmp_path / "c.json")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_wigner_table_json_round_trip(rng):
    wt = wigner_function(random_density(9, rng), 3, 2, "separable")
    data = wigner_table_to_json(wt)
    back = wigner_table_from_json(data)
    assert np.abs(back.values - wt.values).max() < TOL


def _corrupt_table_json(rng, edit):
    data = wigner_table_to_json(wigner_function(random_density(3, rng), 3, 1, "plain"))
    edit(data["values"])
    return data


@pytest.mark.parametrize("edit", [
    pytest.param(lambda recs: recs.pop(), id="missing-point"),
    pytest.param(lambda recs: recs.append(dict(recs[4])), id="extra-point"),
    pytest.param(lambda recs: recs[3].update(v=recs[4]["v"]), id="repeated-point"),
    pytest.param(lambda recs: recs[3].update(v=[1]), id="short-v"),
    pytest.param(lambda recs: recs[3].update(v=[1, 0, 0]), id="long-v"),
    pytest.param(lambda recs: recs[3].update(v=[1.5, 0]), id="half-integer-v"),
    pytest.param(lambda recs: recs.clear(), id="no-points"),
])
def test_wigner_table_json_rejects_malformed_tables(edit, rng):
    with pytest.raises(ValueError):
        wigner_table_from_json(_corrupt_table_json(rng, edit))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda recs: recs[3].update(w=[1, 2, 3]), id="three-part-w"),
    pytest.param(lambda recs: recs[3].update(w=[1]), id="one-part-w"),
    pytest.param(lambda recs: recs[3].update(w=[[1, 2]]), id="nested-w"),
    pytest.param(lambda recs: recs[3].update(w=float("nan")), id="nan-w"),
    pytest.param(lambda recs: recs[3].update(w=[0.5, float("inf")]), id="infinite-imag-w"),
    pytest.param(lambda recs: recs[3].update(w=None), id="null-w"),
    pytest.param(lambda recs: recs[3].update(w="x"), id="string-w"),
])
def test_wigner_table_json_rejects_bad_entries(edit, rng):
    with pytest.raises(ValueError, match='each "w"'):
        wigner_table_from_json(_corrupt_table_json(rng, edit))


def test_wigner_table_json_rejects_unknown_conventions(rng):
    for conv in ("bogus", "separable"):  # separable does not exist at p = 2
        data = wigner_table_to_json(wigner_function(random_density(2, rng), 2, 1, "plain"))
        data["convention"] = conv
        with pytest.raises(ValueError, match="convention"):
            wigner_table_from_json(data)


def _drop(key):
    def edit(data):
        del data[key]
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_drop("p"), id="no-p"),
    pytest.param(_drop("n"), id="no-n"),
    pytest.param(_drop("convention"), id="no-convention"),
    pytest.param(_drop("values"), id="no-values"),
    pytest.param(lambda data: data["values"][3].pop("v"), id="record-without-v"),
    pytest.param(lambda data: data["values"][3].pop("w"), id="record-without-w"),
    pytest.param(lambda data: data["values"].__setitem__(3, [[1, 0], 0.5]), id="list-record"),
    pytest.param(lambda data: data["values"].__setitem__(3, 0.5), id="number-record"),
    pytest.param(lambda data: data["values"].__setitem__(3, "vw"), id="string-record"),
])
def test_wigner_table_json_rejects_missing_keys(edit, rng):
    data = _corrupt_table_json(rng, lambda recs: None)
    edit(data)
    with pytest.raises(ValueError, match="each record a v and a w"):
        wigner_table_from_json(data)


def test_wigner_table_json_keeps_entry_bits(rng):
    # real entries and [re, im] pairs, signed zeros included, come back bit for bit
    data = _corrupt_table_json(rng, lambda recs: None)
    data["values"][1]["w"], data["values"][2]["w"] = -0.0, [-0.0, -0.0]
    data["values"][3]["w"] = [0.25, -1e-300]
    back = wigner_table_from_json(data).values
    want = [complex(*r["w"]) if isinstance(r["w"], list) else complex(r["w"])
            for r in data["values"]]
    assert back.tobytes() == np.array(want).tobytes()


def test_wigner_table_json_reduces_entries_mod_p(rng):
    def shift(recs):
        recs[0]["v"] = [3.0, 3]  # the origin, written with entries 3 = 0 mod 3
    data = _corrupt_table_json(rng, shift)
    back = wigner_table_from_json(data)
    assert back.values[0] == data["values"][0]["w"]


def test_cli_mub(tmp_path, capsys):
    out = tmp_path / "mub32"
    assert main(["mub", "--p", "3", "--n", "2", "--out", str(out)]) == 0
    data = json.loads((tmp_path / "mub32.json").read_text())
    assert len(data["bases"]) == 10
    report = json.loads((tmp_path / "mub32.report.json").read_text())
    assert report["passed"] and report["max_unbiasedness_defect"] < 1e-10
    # overlap of two projectors from different bases is 1/9
    P0 = matrix_from_json(data["bases"][0]["projectors"][0])
    P1 = matrix_from_json(data["bases"][3]["projectors"][4])
    assert abs(np.trace(P0 @ P1).real - 1 / 9) < TOL


@pytest.mark.parametrize("out,prefix", [("run.v2", "run.v2"), ("run.v2.json", "run.v2"),
                                        ("m32", "m32"), ("m32.json", "m32"),
                                        ("sub/a.b.c", "sub/a.b.c")])
def test_cli_mub_files_share_one_prefix(tmp_path, out, prefix):
    # the data file and its report are <--out minus one trailing .json>.json and .report.json
    assert main(["mub", "--p", "3", "--n", "1", "--out", str(tmp_path / out)]) == 0
    written = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*") if f.is_file())
    assert written == [prefix + ".json", prefix + ".report.json"]
    assert len(json.loads((tmp_path / (prefix + ".json")).read_text())["bases"]) == 4
    assert json.loads((tmp_path / (prefix + ".report.json")).read_text())["passed"] is True


def test_cli_mub_rejects_nonprime(tmp_path):
    assert main(["mub", "--p", "4", "--n", "1", "--out", str(tmp_path / "x")]) == 2


def test_cli_mub_honours_tol(tmp_path):
    argv = ["mub", "--p", "3", "--n", "1", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a.report.json").read_text())["tol"] == 1e-10
    assert main(argv + [str(tmp_path / "b"), "--tol", "1e-30"]) == 1
    report = json.loads((tmp_path / "b.report.json").read_text())
    assert report["tol"] == 1e-30 and report["passed"] is False


SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1 / 3, 1e300])


def pairs(re, im):
    """Complex array from its parts, bit for bit (re + 1j * im turns inf into NaN)."""
    re, im = np.broadcast_arrays(re, im)
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


@pytest.mark.parametrize(
    "M",
    [
        pairs(SPECIAL, SPECIAL[::-1]),
        pairs(SPECIAL[:, None], SPECIAL[None, :]),
        pairs(np.full((3, 2, 4), np.nan), -0.0),
        pairs([[-0.0, 0.0], [0.0, -0.0]], [[0.0, -0.0], [-0.0, -0.0]]),
        pairs(np.tile(SPECIAL[:3], (2, 4, 1)), 1.0),  # repeated entries
        np.random.default_rng(7).normal(size=(4, 3, 5, 2)).view(complex)[..., 0],
        (np.arange(24) * (0.5 + 0.25j)).reshape(4, 6)[:, ::2],
        np.zeros((2, 0)),
        np.zeros((0, 3)),
        np.array(1 - 2j),
    ],
)
def test_complex_json_matches_one_shot_encoding(M):
    assert _complex_json(M) == json.dumps(matrix_to_json(M))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        complex,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
        elements=st.complex_numbers(allow_nan=True, allow_infinity=True)
        | st.sampled_from(pairs(SPECIAL[:, None], SPECIAL[None, :5]).ravel().tolist()),
    )
)
def test_complex_json_property(M):
    assert _complex_json(M) == json.dumps(matrix_to_json(M))


@pytest.mark.parametrize("p,n", [(2, 1), (7, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_cli_mub_file_matches_one_shot_encoding(tmp_path, p, n):
    assert main(["mub", "--p", str(p), "--n", str(n), "--out", str(tmp_path / "m")]) == 0
    want = json.dumps(mub_to_json(full_mub(p, n), p, n))
    assert (tmp_path / "m.json").read_text() == want


def test_cli_mub_writes_without_dense_projectors(tmp_path, monkeypatch):
    argv = ["mub", "--p", "3", "--n", "2", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0

    def refuse(self):
        raise AssertionError("dense projector built")

    monkeypatch.setattr(MubProjector, "matrix", property(refuse))
    assert main(argv + [str(tmp_path / "b")]) == 0
    for suffix in (".json", ".report.json"):
        assert (tmp_path / f"b{suffix}").read_bytes() == (tmp_path / f"a{suffix}").read_bytes()


@pytest.mark.parametrize("hermitian", [True, False])
def test_cli_wigner_json_matches_one_shot_encoding(tmp_path, rng, hermitian):
    rho = random_density(9, rng)
    if not hermitian:
        rho = rho + 0.1j * rng.normal(size=(9, 9))
    state = write_json(tmp_path / "state.json", matrix_to_json(rho))
    argv = ["wigner", "--p", "3", "--n", "2", "--input", state, "--format", "json",
            "--out", str(tmp_path / "w")]
    assert main(argv) == 0
    want = json.dumps(wigner_table_to_json(wigner_function(rho, 3, 2), 1e-8))
    assert (tmp_path / "w.json").read_text() == want


def test_cli_wigner_outputs(tmp_path, rng):
    rho = random_density(3, rng)
    state = write_json(tmp_path / "state.json", matrix_to_json(rho))
    out = tmp_path / "w"
    rc = main(
        ["wigner", "--p", "3", "--n", "1", "--input", state,
         "--format", "json,csv,pgm", "--out", str(out)]
    )
    assert rc == 0
    table = wigner_table_from_json(json.loads((tmp_path / "w.json").read_text()))
    assert np.abs(reconstruct_density(table) - rho).max() < TOL
    csv = (tmp_path / "w.csv").read_text().strip().splitlines()
    assert len(csv) == 3 and len(csv[0].split(",")) == 3
    # csv rows are v1, columns v0
    wt = wigner_function(rho, 3, 1, "plain")
    for v1, line in enumerate(csv):
        for v0, cell in enumerate(line.split(",")):
            assert abs(float(cell) - wt.value((v0, v1)).real) < TOL
    pgm = (tmp_path / "w.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[3].split() == ["3", "3"]
    greys = [int(x) for row in pgm[5:8] for x in row.split()]
    assert min(greys) == 0 and max(greys) == 255


def test_cli_wigner_superposition_state(tmp_path):
    # equal superposition of two basis states on a qutrit: the emitted grid
    # must match the in-process pipeline exactly
    v = np.zeros(3, dtype=complex)
    v[1] = v[2] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    state = write_json(tmp_path / "psi.json", matrix_to_json(rho))
    rc = main(
        ["wigner", "--p", "3", "--n", "1", "--input", state,
         "--format", "json,pgm", "--out", str(tmp_path / "wpsi")]
    )
    assert rc == 0
    table = wigner_table_from_json(json.loads((tmp_path / "wpsi.json").read_text()))
    want = wigner_function(rho, 3, 1, "plain")
    assert np.abs(table.values - want.values).max() < TOL
    pgm = (tmp_path / "wpsi.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and len(pgm) == 8


def test_cli_wigner_maximally_entangled(tmp_path):
    rho = max_entangled_density(3)
    state = write_json(tmp_path / "ent.json", matrix_to_json(rho))
    out = tmp_path / "went"
    rc = main(["wigner", "--p", "3", "--n", "2", "--input", state, "--out", str(out)])
    assert rc == 0
    table = wigner_table_from_json(json.loads((tmp_path / "went.json").read_text()))
    nonzero = (np.abs(table.values) > 1e-10).sum()
    assert nonzero == 9


def test_cli_wigner_non_hermitian_operator(tmp_path, rng, capsys):
    # operator-valued tables are allowed; only the JSON form is emitted
    O = np.zeros((3, 3), dtype=complex)
    O[0, 2] = 1.0
    state = write_json(tmp_path / "op.json", matrix_to_json(O))
    rc = main(
        ["wigner", "--p", "3", "--n", "1", "--input", state,
         "--format", "json,csv", "--out", str(tmp_path / "wop")]
    )
    assert rc == 0
    assert not (tmp_path / "wop.csv").exists()
    table = wigner_table_from_json(json.loads((tmp_path / "wop.json").read_text()))
    assert np.abs(reconstruct_density(table) - O).max() < TOL


def test_cli_wigner_pgm_needs_n1(tmp_path, rng):
    state = write_json(tmp_path / "s.json", matrix_to_json(random_density(9, rng)))
    rc = main(
        ["wigner", "--p", "3", "--n", "2", "--input", state,
         "--format", "pgm", "--out", str(tmp_path / "x")]
    )
    assert rc == 2


def test_cli_wigner_size_mismatch(tmp_path, rng):
    state = write_json(tmp_path / "s.json", matrix_to_json(random_density(3, rng)))
    rc = main(["wigner", "--p", "2", "--n", "1", "--input", state, "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_check_product_state(tmp_path, rng):
    tau, mu = random_density(3, rng), random_density(3, rng)
    state = write_json(tmp_path / "prod.json", matrix_to_json(np.kron(tau, mu)))
    rc = main(
        ["check", "--p", "3", "--n", "2", "--input", state,
         "--checks", "marginals,plancherel,separability,positivity,pt",
         "--out", str(tmp_path / "rep.json")]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["passed"]
    assert set(rep["checks"]) == {"marginals", "plancherel", "separability", "positivity", "pt"}


def test_cli_check_two_qubit_product(tmp_path, rng):
    tau, mu = random_density(2, rng), random_density(2, rng)
    state = write_json(tmp_path / "prod2.json", matrix_to_json(np.kron(tau, mu)))
    rc = main(
        ["check", "--p", "2", "--n", "2", "--input", state,
         "--checks", "marginals,separability,pt", "--out", str(tmp_path / "rep2.json")]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "rep2.json").read_text())
    assert rep["convention"] == "p2-left"
    assert rep["checks"]["separability"]["transpose_on"] == 1


def test_marginal_rejects_out_of_range_class(rng):
    from mubwigner.wigner import marginal_along

    wt = wigner_function(random_density(3, rng), 3, 1, "plain")
    with pytest.raises(ValueError):
        marginal_along(wt, -1, (0,))
    with pytest.raises(ValueError):
        marginal_along(wt, 4, (0,))


def test_cli_check_entangled_pt_fails(tmp_path):
    state = write_json(tmp_path / "ent.json", matrix_to_json(max_entangled_density(3)))
    rc = main(
        ["check", "--p", "3", "--n", "2", "--input", state,
         "--checks", "pt", "--out", str(tmp_path / "rep.json")]
    )
    assert rc == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["checks"]["pt"]["min_eigenvalue"] < -0.1


def test_cli_check_pt_builds_the_table_once(tmp_path, monkeypatch, capsys):
    from mubwigner import checks

    calls = []
    build = checks.wigner_function
    monkeypatch.setattr(checks, "wigner_function", lambda *a: calls.append(a) or build(*a))
    state = write_json(tmp_path / "ent.json", matrix_to_json(max_entangled_density(3)))
    rc = main(
        ["check", "--p", "3", "--n", "2", "--input", state,
         "--checks", "pt", "--out", str(tmp_path / "rep.json")]
    )
    assert rc == 1
    assert len(calls) == 1
    # the check still refuses a convention without a partial-transpose action
    rc = main(
        ["check", "--p", "3", "--n", "2", "--input", state, "--convention", "plain",
         "--checks", "pt", "--out", str(tmp_path / "rep.json")]
    )
    assert rc == 2
    assert "pt check needs a separability convention" in capsys.readouterr().err


def test_cli_check_unknown_check(tmp_path, rng):
    state = write_json(tmp_path / "s.json", matrix_to_json(random_density(3, rng)))
    rc = main(
        ["check", "--p", "3", "--n", "1", "--input", state,
         "--checks", "bogus", "--out", str(tmp_path / "rep.json")]
    )
    assert rc == 2


def test_cli_evolve_trajectory(tmp_path):
    S01 = spin_matrix(3, 0, 1)
    H = S01 + S01.conj().T
    hfile = write_json(tmp_path / "H.json", matrix_to_json(H))
    write_json(tmp_path / "s.json", {"alpha": [1], "s": [0]})
    rc = main(
        ["evolve", "--p", "3", "--n", "1", "--input", str(tmp_path / "s.json"),
         "--hamiltonian", hfile, "--t0", "0", "--t1", "6.2831853",
         "--steps", "8", "--out", str(tmp_path / "traj.jsonl")]
    )
    assert rc == 0
    lines = (tmp_path / "traj.jsonl").read_text().strip().splitlines()
    assert len(lines) == 8
    first = json.loads(lines[0])
    rho0 = matrix_from_json(first["density"])
    geom = phase_geometry(3, 1)
    assert np.abs(rho0 - mub_projector(geom, 1, (0,)).matrix).max() < 1e-8
    rep = json.loads((tmp_path / "traj.jsonl.report.json").read_text())
    assert rep["trace_drift"] < 1e-8 and rep["purity_drift"] < 1e-8
    assert (rep["p"], rep["n"], rep["convention"]) == (3, 1, "dynamics")


def test_cli_evolve_drifts_keep_nan(tmp_path, monkeypatch):
    import mubwigner.cli as cli

    real = cli._trajectory

    def nan_at_second_step(*args):
        for k, (t, chi, rho) in enumerate(real(*args)):
            rho = np.array(rho)
            if k == 1:
                rho[0, 0] = np.nan
            yield t, chi, rho

    monkeypatch.setattr(cli, "_trajectory", nan_at_second_step)
    S01 = spin_matrix(3, 0, 1)
    hfile = write_json(tmp_path / "H.json", matrix_to_json(S01 + S01.conj().T))
    state = write_json(tmp_path / "s.json", {"alpha": [1], "s": [0]})
    out = tmp_path / "traj.jsonl"
    argv = ["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
            "--steps", "3", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "traj.jsonl.report.json").read_text())
    assert np.isnan(report["trace_drift"]) and np.isnan(report["purity_drift"])


@pytest.mark.parametrize("flag,value", [("--t1", "nan"), ("--t0", "inf"), ("--steps", "0")])
def test_cli_evolve_rejects_bad_times_before_building(tmp_path, monkeypatch, flag, value):
    import mubwigner.cli as cli

    def no_build(*args):
        raise AssertionError("the generator was built before the times were checked")

    monkeypatch.setattr(cli, "build_char_generator", no_build)
    state = write_json(tmp_path / "s.json", {"alpha": [1], "s": [0]})
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.eye(3)))
    out = tmp_path / "t.jsonl"
    argv = ["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
            flag, value, "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_cli_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    import mubwigner.cli as cli

    def too_large(*args):
        raise MemoryError("Unable to allocate 6.21 TiB")

    monkeypatch.setattr(cli, "build_char_generator", too_large)
    state = write_json(tmp_path / "s.json", {"alpha": [1], "s": [0]})
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.eye(3)))
    argv = ["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
            "--out", str(tmp_path / "t.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: out of memory (Unable to allocate 6.21 TiB)" in err
    assert "Traceback" not in err


def test_cli_evolve_constant_under_zero_hamiltonian(tmp_path, rng):
    rho = random_density(3, rng)
    state = write_json(tmp_path / "s.json", matrix_to_json(rho))
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.zeros((3, 3))))
    rc = main(
        ["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
         "--t0", "0", "--t1", "5", "--steps", "6", "--out", str(tmp_path / "t.jsonl")]
    )
    assert rc == 0
    lines = (tmp_path / "t.jsonl").read_text().strip().splitlines()
    for line in lines:
        rec = json.loads(line)
        assert np.abs(matrix_from_json(rec["density"]) - rho).max() < 1e-10


def test_cli_deterministic_given_seed(tmp_path):
    state = write_json(tmp_path / "r.json", {"random": "density"})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            ["wigner", "--p", "3", "--n", "1", "--input", state,
             "--seed", "42", "--out", str(out)]
        )
        assert rc == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_written_table_round_trips(tmp_path, rng):
    # reading a written table and reconstructing matches the input state
    rho = random_density(4, rng)
    state = write_json(tmp_path / "s.json", matrix_to_json(rho))
    rc = main(
        ["wigner", "--p", "2", "--n", "2", "--input", state, "--out", str(tmp_path / "w")]
    )
    assert rc == 0
    table = wigner_table_from_json(json.loads((tmp_path / "w.json").read_text()))
    assert np.abs(reconstruct_density(table) - rho).max() < TOL


def _nan_state(tmp_path, d, rng):
    rho = random_density(d, rng)
    rho[0, 1] = np.nan
    return write_json(tmp_path / "nan.json", matrix_to_json(rho))


def test_cli_wigner_rejects_nan_input(tmp_path, rng):
    state = _nan_state(tmp_path, 3, rng)
    rc = main(["wigner", "--p", "3", "--n", "1", "--input", state, "--out", str(tmp_path / "w")])
    assert rc == 2
    assert not (tmp_path / "w.json").exists()


def test_cli_check_rejects_nan_input(tmp_path, rng):
    from mubwigner.checks import check_state

    state = _nan_state(tmp_path, 3, rng)
    out = str(tmp_path / "rep.json")
    argv = ["check", "--p", "3", "--n", "1", "--input", state, "--checks", "marginals", "--out", out]
    assert main(argv) == 2
    # a NaN that reaches the marginals check makes it fail, not pass
    rho = random_density(3, rng)
    rho[0, 1] = np.nan
    res = check_state(rho, 3, 1, "plain", ["marginals"])["checks"]["marginals"]
    assert np.isnan(res["max_deviation"]) and not res["passed"]


def test_cli_evolve_rejects_nan_hamiltonian(tmp_path, rng):
    from mubwigner.dynamics import build_char_generator

    state = write_json(tmp_path / "s.json", matrix_to_json(random_density(3, rng)))
    H = np.eye(3, dtype=complex)
    H[1, 1] = np.nan
    hfile = write_json(tmp_path / "H.json", matrix_to_json(H))
    rc = main(["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
               "--out", str(tmp_path / "t.jsonl")])
    assert rc == 2
    with pytest.raises(ValueError, match="Hermitian"):
        build_char_generator(H, 3, 1)


def test_cli_evolve_refuses_a_non_hermitian_hamiltonian_before_writing(tmp_path, capsys):
    # an off-diagonal defect of 5e-10 fails the relative rule when the generator is built
    H = np.diag([1.0, 2.0, 3.0]).astype(complex)
    H[0, 1] += 5e-10
    state = write_json(tmp_path / "s.json", {"random": "density"})
    hfile = write_json(tmp_path / "H.json", matrix_to_json(H))
    out = tmp_path / "traj.jsonl"
    rc = main(["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
               "--out", str(out)])
    assert rc == 2
    assert "not Hermitian" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob("traj*"))


@pytest.mark.parametrize("H", [{}, [[[0, 0], {}]], None])
def test_cli_evolve_rejects_malformed_hamiltonian(tmp_path, capsys, H):
    state = write_json(tmp_path / "s.json", {"random": "density"})
    hfile = write_json(tmp_path / "H.json", H)
    out = tmp_path / "t.jsonl"
    rc = main(["evolve", "--p", "3", "--n", "1", "--input", state, "--hamiltonian", hfile,
               "--out", str(out)])
    assert rc == 2
    assert "rows of [re, im] pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd,tol", [("mub", "nan"), ("wigner", "nan"), ("check", "-1"),
                                     ("check", "0"), ("evolve", "inf")])
def test_cli_rejects_bad_tol_before_any_work(tmp_path, monkeypatch, capsys, cmd, tol):
    from mubwigner import cli

    def refuse(*args):
        raise AssertionError("work started before --tol was validated")

    monkeypatch.setattr(cli, "_validate_pn", refuse)
    state = write_json(tmp_path / "s.json", {"random": "density"})
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.eye(3)))
    extra = {"mub": [], "evolve": ["--input", state, "--hamiltonian", hfile]}.get(
        cmd, ["--input", state])
    out = tmp_path / "out"
    assert main([cmd, "--p", "3", "--n", "1", *extra, "--tol", tol, "--out", str(out)]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("state", [{"alpha": 0, "s": [0]}, {"random": "density"}])
@pytest.mark.parametrize("cmd", ["mub", "wigner", "check", "evolve"])
def test_cli_rejects_a_negative_seed_before_any_work(tmp_path, monkeypatch, capsys, cmd, state):
    # wigner ignored the seed of a projector state and exited 0, and a random
    # state reached numpy's bare "expected non-negative integer"
    from mubwigner import cli

    def refuse(*args):
        raise AssertionError("work started before --seed was validated")

    monkeypatch.setattr(cli, "_validate_pn", refuse)
    path = write_json(tmp_path / "s.json", state)
    hfile = write_json(tmp_path / "H.json", matrix_to_json(np.eye(3)))
    extra = {"mub": [], "evolve": ["--input", path, "--hamiltonian", hfile]}.get(
        cmd, ["--input", path])
    out = tmp_path / "out"
    assert main([cmd, "--p", "3", "--n", "1", *extra, "--seed", "-2", "--out", str(out)]) == 2
    assert "argument --seed: seed must be a non-negative integer, got -2" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_cli_check_separability_tests_the_reduced_product(tmp_path):
    # the check tests the factorisation law on tr_B rho (x) tr_A rho, which a
    # Bell state meets exactly; only pt flags its entanglement
    bell = np.zeros((4, 4))
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    state = write_json(tmp_path / "bell.json", matrix_to_json(bell))
    rc = main(["check", "--p", "2", "--n", "2", "--input", state,
               "--checks", "separability,pt", "--out", str(tmp_path / "rep.json")])
    assert rc == 1
    checks = json.loads((tmp_path / "rep.json").read_text())["checks"]
    assert checks["separability"]["passed"] and checks["separability"]["max_deviation"] == 0
    assert not checks["pt"]["passed"] and checks["pt"]["min_eigenvalue"] < -0.4


def test_cli_wigner_default_formats_follow_n(tmp_path):
    # the default is json,csv for n <= 2 and json alone for n >= 3
    state = write_json(tmp_path / "s.json", {"random": "density"})
    assert main(["wigner", "--p", "3", "--n", "3", "--input", state,
                 "--out", str(tmp_path / "w3")]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["s.json", "w3.json"]
    table = wigner_table_from_json(json.loads((tmp_path / "w3.json").read_text()))
    assert (table.p, table.n) == (3, 3)
    assert main(["wigner", "--p", "3", "--n", "2", "--input", state,
                 "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w2.json").exists() and (tmp_path / "w2.csv").exists()


@pytest.mark.parametrize("n,fmt,why", [(3, "csv", "csv export"), (3, "json,csv", "csv export"),
                                       (2, "json,pgm", "pgm export"), (1, "json,png", "unknown format"),
                                       (1, ",", "no output format")])
def test_cli_wigner_rejects_formats_before_any_work(tmp_path, monkeypatch, capsys, n, fmt, why):
    from mubwigner import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the formats were checked")

    monkeypatch.setattr(cli, "load_state", refuse)
    monkeypatch.setattr(cli, "wigner_function", refuse)
    state = write_json(tmp_path / "s.json", {"random": "density"})
    rc = main(["wigner", "--p", "3", "--n", str(n), "--input", state, "--format", fmt,
               "--out", str(tmp_path / "w")])
    assert rc == 2
    assert why in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["s.json"]


@pytest.mark.parametrize("n,conv,checks,why", [
    (3, None, "marginals,pt", "pt check needs n=2"),
    (3, None, "separability", "separability check needs n=2"),
    (1, None, "positivity,pt", "pt check needs n=2"),
    (2, "plain", "marginals,pt", "separability convention"),
    (1, None, "", "no checks requested"),
    (1, None, ",", "no checks requested"),
])
def test_cli_check_validates_before_any_work(tmp_path, monkeypatch, capsys, n, conv, checks, why):
    from mubwigner import checks as checks_module

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the checks were validated")

    monkeypatch.setattr(checks_module, "wigner_function", refuse)
    monkeypatch.setattr(checks_module, "class_vectors", refuse)
    state = write_json(tmp_path / "s.json", {"random": "density"})
    out = tmp_path / "rep.json"
    argv = ["check", "--p", "3", "--n", str(n), "--input", state, "--checks", checks,
            "--out", str(out)]
    if conv:
        argv += ["--convention", conv]
    assert main(argv) == 2
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_cli_check_builds_no_marginal_rows(tmp_path, marginal_row_builds):
    # cmd_check reads class_marginals, the numpy marginals, never the rows
    # of Python floats behind marginal_along
    state = write_json(tmp_path / "s.json", {"random": "density"})
    rc = main(["check", "--p", "3", "--n", "2", "--input", state,
               "--checks", "marginals,plancherel,separability,positivity,pt",
               "--out", str(tmp_path / "rep.json")])
    assert rc in (0, 1)  # the random state may fail pt; every check still runs
    report = json.loads((tmp_path / "rep.json").read_text())
    assert len(report["checks"]) == 5 and report["checks"]["marginals"]["passed"]
    assert marginal_row_builds == []
