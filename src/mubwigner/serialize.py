"""File formats: JSON matrices and tables, CSV grids, PGM heatmaps.

Complex matrices are JSON arrays of rows whose entries are [re, im] pairs.
State files may instead hold a MUB-projector shorthand {"alpha": ..., "s":
[...]} or {"random": "density"|"pure"} (resolved with the run seed).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .geometry import phase_geometry
from .mub import MubProjector, class_members, mub_projector
from .spins import _digits, index_code
from .wigner import CharTable, WignerTable, random_density, random_pure_density


def matrix_to_json(M: np.ndarray) -> list:
    """A complex array as nested lists, each entry an [re, im] pair."""
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), axis=-1).tolist()


def _complex_json(M: np.ndarray) -> str:
    """json.dumps(matrix_to_json(M)), with each distinct entry encoded once.

    Entries are keyed by the bit patterns of their real and imaginary parts,
    not their value, so 0.0 and -0.0 stay apart and a NaN matches itself.
    Only the speed depends on entries repeating, as those of a MUB projector
    |psi><psi| do."""
    M = np.asarray(M, dtype=complex)
    # uint64 keys sort as integers, far faster than 16-byte void keys
    bits = np.ascontiguousarray(M).reshape(-1).view(np.uint64)
    re, re_inv = np.unique(bits[0::2], return_inverse=True)
    im, im_inv = np.unique(bits[1::2], return_inverse=True)
    pairs, inv = np.unique(re_inv * len(im) + im_inv, return_inverse=True)
    re_tok = [json.dumps(x) for x in re.view(float).tolist()]
    im_tok = [json.dumps(x) for x in im.view(float).tolist()]
    a, b = np.divmod(pairs, len(im) or 1)
    tokens = np.array(
        ["[" + re_tok[i] + ", " + im_tok[j] + "]" for i, j in zip(a.tolist(), b.tolist())],
        dtype=object,
    )
    flat = tokens[inv.reshape(-1)].tolist()
    for axis in range(M.ndim - 1, -1, -1):  # innermost axis first
        k = M.shape[axis]
        flat = ["[" + ", ".join(flat[i * k:(i + 1) * k]) + "]"
                for i in range(math.prod(M.shape[:axis]))]
    return flat[0]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError):  # ragged, or an object or string as an entry
        arr = np.zeros(0)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix JSON must be rows of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError("matrix JSON has non-finite (NaN or infinite) entries")
    return arr[..., 0] + 1j * arr[..., 1]


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def _class_label(alpha, p: int, n: int) -> int:
    """A state file's class label: "inf", an integer, or a list of
    little-endian base-p digits; a non-integer entry raises ValueError."""
    if alpha == "inf":
        return p**n
    digits = alpha if isinstance(alpha, list) else [alpha]
    try:
        if all(float(a).is_integer() for a in digits):
            if digits is alpha:
                return sum(int(a) % p * p**k for k, a in enumerate(alpha))
            return int(alpha)
    except (TypeError, ValueError):  # null, an object, a nested list or a string
        pass
    raise ValueError(f"class label {alpha!r} is not an integer")


def resolve_state(data, p: int, n: int, rng: int | np.random.Generator | None = None) -> np.ndarray:
    """Turn parsed state-file JSON into a p^n x p^n complex matrix. A random
    state draws from rng, a seed or a np.random.Generator (seed 0 when None);
    no generator is made for any other state."""
    d = p**n
    if isinstance(data, dict):
        if "alpha" in data and "s" in data:
            alpha = _class_label(data["alpha"], p, n)
            geom = phase_geometry(p, n)
            proj: MubProjector = mub_projector(geom, alpha, data["s"])
            return proj.matrix
        if "random" in data:
            rng = np.random.default_rng(0 if rng is None else rng)
            kind = data["random"]
            if kind == "density":
                return random_density(d, rng)
            if kind == "pure":
                return random_pure_density(d, rng)
            raise ValueError(f"unknown random state kind {kind!r}")
        raise ValueError("unrecognized state shorthand")
    M = matrix_from_json(data)
    if M.shape != (d, d):
        raise ValueError(f"state has shape {M.shape}, expected {(d, d)}")
    return M


def load_state(path, p: int, n: int, rng: int | np.random.Generator | None = None) -> np.ndarray:
    with open(path) as fh:
        return resolve_state(json.load(fh), p, n, rng)


# -- tables --------------------------------------------------------------------


def wigner_table_to_json(wt: WignerTable, tol: float = 1e-10) -> dict:
    """Hermitian inputs give real "w" entries; operator-valued tables fall
    back to [re, im] pairs."""
    kern = wt.kernel
    if np.abs(wt.values.imag).max() <= tol:
        entries = wt.values.real.tolist()
    else:
        entries = matrix_to_json(wt.values)
    return {
        "p": wt.p,
        "n": wt.n,
        "convention": wt.convention,
        "values": [{"v": v, "w": w} for v, w in zip(kern.vectors.tolist(), entries)],
    }


def wigner_table_from_json(data: dict) -> WignerTable:
    """Inverse of wigner_table_to_json; raises ValueError unless the document
    has "p", "n", "convention" and "values", and the records, each a dict,
    list every point of V_{2n}(p) exactly once, each "v" with 2n integer
    entries and each "w" a finite number or [re, im] pair."""
    try:
        p, n, conv, recs = int(data["p"]), int(data["n"]), data["convention"], data["values"]
        vs, ws = [r["v"] for r in recs], [r["w"] for r in recs]
    except (KeyError, TypeError) as exc:  # a missing key, or a record that is not a dict
        raise ValueError(f"a table needs p, n, convention and values, and each record a v "
                         f"and a w: {exc!r}") from None
    N = p ** (2 * n)
    codes = index_code(p, phase_geometry(p, n).index_vectors(vs, ndim=2))
    if len(codes) != N or len(np.unique(codes)) != N:
        raise ValueError(f"a table must list each of the {N} points of V_{2 * n}({p}) once")
    try:
        w = np.array([x if isinstance(x, list) else [x, 0] for x in ws], float)
    except (TypeError, ValueError):  # ragged or non-numeric
        w = np.zeros(0)
    if w.shape != (N, 2) or not np.isfinite(w).all():
        raise ValueError('each "w" must be a finite number or [re, im] pair')
    values = np.empty(N, dtype=complex)
    values[codes] = w.view(complex)[:, 0]
    return WignerTable(p, n, conv, values)


def wigner_csv_lines(wt: WignerTable, tol: float = 1e-10) -> list[str]:
    """n=1: one p x p grid, rows v1 (top row v1=0), columns v0.
    n=2: one such grid per second-subsystem point, preceded by a comment."""
    p = wt.p
    vals = wt.real_values(tol).reshape((p,) * (2 * wt.n))  # code order: [v0, v1, ...]

    def grid(g):
        return [",".join(f"{x:.17g}" for x in row) for row in g.T]

    if wt.n == 1:
        return grid(vals)
    if wt.n == 2:
        lines = []
        for x1 in range(p):
            for y1 in range(p):
                lines.append(f"# slice x1={x1} y1={y1}")
                lines += grid(vals[:, :, x1, y1])
        return lines
    raise ValueError("CSV export is defined for n = 1 and n = 2")


def wigner_pgm_lines(wt: WignerTable, tol: float = 1e-10) -> list[str]:
    """Greyscale P2 heatmap for n=1 tables; linear min-max scaling to 0..255."""
    if wt.n != 1:
        raise ValueError("PGM export is defined for n = 1")
    p = wt.p
    vals = wt.real_values(tol)
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo
    lines = [
        "P2",
        f"# Wigner heatmap, rows v1=0..{p - 1} top to bottom, cols v0=0..{p - 1}",
        f"# grey = round(255 * (W - min) / (max - min)); min={lo:.17g} max={hi:.17g}",
        f"{p} {p}",
        "255",
    ]
    for row in vals.reshape(p, p).T:  # rows v1, columns v0
        greys = [0 if span == 0 else int(round(255 * (x - lo) / span)) for x in row]
        lines.append(" ".join(map(str, greys)))
    return lines


# -- MUB export ------------------------------------------------------------------


def _mub_basis_to_json(geom, alpha: int, basis, projectors) -> dict:
    label = "inf" if alpha == geom.dim else _digits(geom.p, geom.n)[alpha, ::-1].tolist()
    w, e, i_exp = class_members(geom, alpha, with_alpha=False)
    compact = [
        {"b": b, "index": wb, "eta_exp": eb, "i_exp": ib}
        for b, wb, eb, ib in zip(
            _digits(geom.p, geom.n).tolist(), w.tolist(), e.tolist(), i_exp.tolist()
        )
    ]
    return {
        "alpha": label,
        "generators": geom.gens[alpha].tolist(),
        "projectors": projectors,
        "outcomes": [list(P.s) for P in basis],
        "class_operators": compact,
    }


def mub_to_json(bases, p: int, n: int) -> dict:
    geom = phase_geometry(p, n)
    return {
        "p": p,
        "n": n,
        "field": geom.field.to_json(),
        "bases": [
            _mub_basis_to_json(geom, alpha, basis, [matrix_to_json(P.matrix) for P in basis])
            for alpha, basis in enumerate(bases)
        ],
    }


def write_mub_json(fh, bases, p: int, n: int) -> None:
    """Write json.dumps(mub_to_json(bases, p, n)) to fh, one basis at a time.

    Encoding per basis keeps the whole document out of memory, as a string and
    as a dict. The projectors |psi><psi| go through _complex_json, which encodes
    their few distinct entries once; the rest of each basis goes through
    json.dumps (the C encoder, which json.dump does not run)."""
    head = json.dumps(mub_to_json([], p, n))  # ends in the empty list: '[]}'
    fh.write(head[:-2])
    geom = phase_geometry(p, n)
    slot = '"projectors": null'
    for alpha, basis in enumerate(bases):
        pre, post = json.dumps(_mub_basis_to_json(geom, alpha, basis, None)).split(slot)
        V = np.array([P.vector for P in basis])
        # the same products, bit for bit, as np.outer in MubProjector.matrix
        fh.write((", " if alpha else "") + pre + '"projectors": ')
        fh.write(_complex_json(V[:, :, None] * V[:, None, :].conj()))
        fh.write(post)
    fh.write("]}")


def trajectory_record(t: float, chi: CharTable, density: np.ndarray) -> dict:
    return {
        "t": float(t),
        "chi": matrix_to_json(chi.values),
        "density": matrix_to_json(density),
    }
