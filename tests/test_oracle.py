"""Flipped determinants against extended-precision references.

``det(1 + I_k X)`` is recomputed here without the package: for witnesses,
in 30-digit mpmath, one determinant per connected component of the
support of ``X`` (a block-diagonal matrix up to a permutation has the
product of its blocks' determinants); for dense tangents, where mpmath
would take seconds per matrix, by a batched double-double LU with partial
pivoting (about 32 digits), itself checked against mpmath on the
``bruhatdiag verify`` default layouts.  The split stack on a spec's
``layout(spec).zero_block``, and up to its size cap the
principal-minor expansion, must stay within ``REL_TOL`` of the reference.
"""

import itertools

import mpmath
import numpy as np
import pytest

from bruhatdiag import (
    ComponentRep,
    aiii,
    bdi,
    build_tangent,
    ci,
    cii,
    construct_witness,
    cross_check,
    diii,
    random_coordinates,
)
from bruhatdiag.components import DEFAULT_GRID
from bruhatdiag.linalg import EXPANSION_CAP, _minor_expansion
from bruhatdiag.spaces import _flipped_stack

mpmath.mp.dps = 30

#: Largest relative error of a float64 flipped determinant accepted here.
REL_TOL = 1e-11


def _rel_err(dets, ref):
    return float(np.max(np.abs(dets - ref) / np.abs(ref)))


def _components(X):
    """Connected components of the graph with an edge wherever X[i, j] != 0."""
    n = X.shape[0]
    linked = (X != 0) | (X != 0).T
    seen, parts = np.zeros(n, dtype=bool), []
    for start in range(n):
        if seen[start]:
            continue
        part, stack = [], [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            part.append(i)
            for j in np.flatnonzero(linked[i] & ~seen):
                seen[j] = True
                stack.append(j)
        parts.append(sorted(part))
    return parts


def _mp_flipped(X):
    """``det(1 + I_k X)``, k = 0..n, in 30-digit mpmath, component by component."""
    n = X.shape[0]
    cache, out = {}, []
    # a zero row and column contributes the factor 1
    parts = [part for part in _components(X) if X[part[0]].any()]
    for k in range(n + 1):
        total = mpmath.mpc(1)
        for part in parts:
            key = (part[0], sum(i < k for i in part))
            if key not in cache:
                cache[key] = mpmath.det(mpmath.matrix(
                    [[(i == j) + (-1 if i < k else 1) * mpmath.mpc(complex(X[i, j]))
                      for j in part] for i in part]))
            total *= cache[key]
        out.append(complex(total))
    return np.array(out)


# --- double-double arithmetic: a value is hi + lo with |lo| <= ulp(hi) / 2 --

def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    h = c - (c - a)
    return h, a - h


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _two_sum(s, e + (x[1] + y[1]))


def _dd_mul(x, y):
    p = x[0] * y[0]
    (ah, al), (bh, bl) = _split(x[0]), _split(y[0])
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return _two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def _dd_neg(x):
    return -x[0], -x[1]


def _dd_recip(x):
    q = 1.0 / x[0]
    rem = _dd_add((1.0, 0.0), _dd_neg(_dd_mul(x, (q, 0.0))))
    return _two_sum(q, rem[0] / x[0])


def _cdd_mul(x, y):
    (a, b), (c, d) = x, y
    return (_dd_add(_dd_mul(a, c), _dd_neg(_dd_mul(b, d))),
            _dd_add(_dd_mul(a, d), _dd_mul(b, c)))


def _cdd_div(x, y):
    c, d = y
    r = _dd_recip(_dd_add(_dd_mul(c, c), _dd_mul(d, d)))
    re, im = _cdd_mul(x, (c, _dd_neg(d)))
    return _dd_mul(re, r), _dd_mul(im, r)


def _dd_flipped(X):
    """``det(1 + I_k X)``, k = 0..n, by one double-double LU with partial
    pivoting over the stack of every flip."""
    n = X.shape[0]
    flipped = np.arange(n)[:, None] < np.arange(n + 1)[:, None, None]
    M = np.eye(n) + np.where(flipped, -1.0, 1.0) * X
    zero = np.zeros(M.shape)
    A = [[M.real.copy(), zero.copy()], [M.imag.copy(), zero.copy()]]
    K = M.shape[0]
    batch = np.arange(K)
    sign = np.ones(K)
    det = ((np.ones(K), np.zeros(K)), (np.zeros(K), np.zeros(K)))
    for k in range(n):
        piv = k + np.argmax(np.abs(A[0][0][:, k:, k]) + np.abs(A[1][0][:, k:, k]), axis=1)
        sign[piv != k] *= -1
        for part in itertools.chain(*A):
            part[batch, k], part[batch, piv] = part[batch, piv], part[batch, k].copy()
        p = tuple((A[c][0][:, k, k], A[c][1][:, k, k]) for c in (0, 1))
        det = _cdd_mul(det, p)
        if k + 1 == n:
            break
        col = tuple((A[c][0][:, k + 1:, k], A[c][1][:, k + 1:, k]) for c in (0, 1))
        p = tuple((h[:, None], l[:, None]) for h, l in p)
        f = _cdd_div(col, p)
        f = tuple((h[:, :, None], l[:, :, None]) for h, l in f)
        row = tuple((A[c][0][:, None, k, k + 1:], A[c][1][:, None, k, k + 1:])
                    for c in (0, 1))
        prod = _cdd_mul(f, row)
        for c in (0, 1):
            h, l = _dd_add((A[c][0][:, k + 1:, k + 1:], A[c][1][:, k + 1:, k + 1:]),
                           _dd_neg(prod[c]))
            A[c][0][:, k + 1:, k + 1:], A[c][1][:, k + 1:, k + 1:] = h, l
    (rh, rl), (ih, il) = det
    return sign * ((rh + rl) + 1j * (ih + il))


#: The ``bruhatdiag verify`` default layouts and one N = 12 layout per family.
SMALL = [aiii(2, 3), diii(3), ci(3), cii(2, 2), bdi(4, 3), bdi(3, 3),
         aiii(5, 7), diii(6), ci(6), cii(3, 3), bdi(6, 6), bdi(5, 7)]
LARGE = [aiii(10, 10), aiii(5, 45), ci(25), cii(12, 13), bdi(25, 25)]


def _label(spec):
    return f"{spec.family}{tuple(spec.params_dict().values())}"


def _draw(spec, seed, index):
    """Draw ``index`` of ``bruhatdiag verify --seed seed`` on ``spec``."""
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_coordinates(spec, rng)
    return build_tangent(spec, random_coordinates(spec, rng))


def test_double_double_matches_mpmath():
    rng = np.random.default_rng(90)
    for spec in SMALL[:6]:
        for _ in range(2):
            X = build_tangent(spec, random_coordinates(spec, rng))
            assert _rel_err(_dd_flipped(X), _mp_flipped(X)) <= 1e-25, spec


@pytest.mark.parametrize("spec", SMALL + LARGE, ids=_label)
def test_split_and_full_stack_match_reference(spec):
    rng = np.random.default_rng(91)
    for _ in range(3 if spec.ambient <= 20 else 1):
        X = build_tangent(spec, random_coordinates(spec, rng))
        ref = _dd_flipped(X)
        assert _rel_err(_flipped_stack(spec, X), ref) <= REL_TOL


#: The ``SMALL`` layouts up to the expansion cap, and dense N = 9 and 10 draws.
EXPANSION_CASES = [spec for spec in SMALL if spec.ambient <= EXPANSION_CAP] + [aiii(4, 5), aiii(5, 5)]


@pytest.mark.parametrize("spec", EXPANSION_CASES, ids=_label)
def test_minor_expansion_matches_reference(spec):
    rng = np.random.default_rng(92)
    for _ in range(3):
        X = build_tangent(spec, random_coordinates(spec, rng))
        assert _rel_err(_minor_expansion(X), _dd_flipped(X)) <= REL_TOL


@pytest.mark.parametrize("j", (4, 12, 20, 28, 36, 44))
def test_n120_witnesses_match_mpmath(j):
    rep = ComponentRep(aiii(60, 60), tuple([-1] * j + [1] * (60 - j)) * 2)
    X = construct_witness(rep)
    for t in DEFAULT_GRID:
        ref = _mp_flipped(t * X)
        assert _rel_err(_flipped_stack(rep.spec, t * X), ref) <= REL_TOL, t


@pytest.mark.parametrize("spec,seed,index", [(aiii(5, 45), 1255, 2), (aiii(10, 10), 1259, 7)])
def test_cayley_det_near_reference_on_former_gap_draws(spec, seed, index):
    # the full N x N stack put these entries 3.8e-10 and 6.8e-10 off
    X = _draw(spec, seed, index)
    ref = _dd_flipped(X)
    d = ref[1:] / ref[:-1]
    entries = cross_check(X, spec)["cayley_det"].entries
    assert np.max(np.abs(entries - d) / np.maximum(1.0, np.abs(d))) <= 2e-10
