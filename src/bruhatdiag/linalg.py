"""Dense complex matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
submatrices are numpy slices, and the only sign matrix built here is the
leading flip ``I_k`` of :func:`leading_signature`.  Determinants go through
LAPACK's partially pivoted LU (``numpy.linalg.det``), and the
principal-minor expansion is the independent combinatorial route to
``det(1 + A)`` for cross checks.

Both routes are stacked over the leading sign flips ``det(1 + I_k A)``,
k = 0..n.  :func:`flipped_determinants` takes a block T on which ``A``
vanishes, as every tangent does on its involution's larger same-sign
class, and factors only what is left: a zero row of ``A`` is a unit row of
every flip and drops out, and a Schur complement on the unit block
``(1 + I_k A)_TT = 1`` turns each determinant into the ``p x p`` one of
``1_P + S_P (A_PP - A_PT S_T A_TP)`` on the kept rows P outside T, all in
one batched LU call.  It also takes a ray, one matrix with positive
scales, such as a witness walked to every grid point of a limit check:
the matrix is validated and planned once, its kept block is gathered once
and scaled per point, and the determinants of every point are still one
LU call.
:func:`flipped_minor_expansion` computes every principal minor of ``A``
once, one gather and one batched ``det`` per subset size, and forms all
n + 1 expansions in one signed reduction: a cached ``(n + 1, 2**n - 1)``
sign table times the minors, summed along each row, since the minor of
``I_k A`` on ``alpha`` is ``(-1)**|alpha & {1..k}| * det A[alpha, alpha]``.
Its k = 0 row is ``det(1 + A)`` as the sum of all principal minors.

The JSON array form lives here as well: :func:`array_to_json` and
:func:`array_from_json` are the one writer and reader of complex arrays,
for matrices, coordinate payloads and route reports alike, and
:func:`_json_number` is the one parser of JSON numbers, for entries,
sizes, coordinate parameters and payload fields.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

#: Largest side length accepted by :func:`flipped_minor_expansion`.
#: The expansion has 2**n terms, so this is an oracle-scale cap, not a
#: performance tuning knob.
EXPANSION_CAP = 10


class ExpansionLimitError(ValueError):
    """Raised when a principal-minor expansion is requested above the cap."""


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix and validate its entries."""
    A = np.asarray(a, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def reversal_matrix(n: int) -> np.ndarray:
    """The permutation with ones on the antidiagonal."""
    return np.eye(n)[::-1].astype(complex)


def antitranspose(A) -> np.ndarray:
    """Reflect ``A`` across its antidiagonal.

    For an ``m x n`` input the result is ``n x m`` with entry ``(i, j)``
    taken from ``(m + 1 - j, n + 1 - i)`` (1-based).  On square matrices
    this is the involutive anti-automorphism ``A -> J A^T J``.
    """
    A = np.asarray(A, dtype=complex)
    return A.T[::-1, ::-1].copy()


def leading_signature(n: int, k: int) -> np.ndarray:
    """The ``n x n`` diagonal matrix flipping the sign of the first k rows."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return np.diag(np.where(np.arange(n) < k, -1.0, 1.0).astype(complex))


def det(A) -> complex:
    """Determinant through partially pivoted LU, as a Python complex."""
    return complex(np.linalg.det(as_matrix(A)))


@functools.lru_cache(maxsize=EXPANSION_CAP + 1)
def _subset_table(n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Gather indices of every principal minor of an ``n x n`` matrix,
    n >= 1, and the sign of each minor under every leading flip.

    Returns one ``(S, size, size)`` array of flat indices into the
    raveled matrix per subset size, size = 1..n, each over the 0-based
    subsets of that size in lexicographic order, and the ``(n + 1,
    2**n - 1)`` matrix whose entry ``(k, t)`` is
    ``(-1)**|subset_t & range(k)|`` over those subsets in the same order.
    The cache holds every table up to :data:`EXPANSION_CAP`; every array
    is read-only because every caller shares them.
    """
    gathers, columns = [], []
    for size in range(1, n + 1):
        subsets = np.array(list(itertools.combinations(range(n), size)),
                           dtype=np.intp).reshape(-1, size)
        gathers.append(subsets[:, :, None] * n + subsets[:, None, :])
        below = np.arange(n + 1)[:, None, None] > subsets
        columns.append(np.where(below.sum(axis=2) % 2, -1.0, 1.0))
    # C order keeps each flip's row contiguous for the row sum
    signs = np.ascontiguousarray(np.concatenate(columns, axis=1))
    for a in (*gathers, signs):
        a.flags.writeable = False
    return tuple(gathers), signs


def flipped_minor_expansion(A) -> np.ndarray:
    """``det(1 + I_k A)`` for k = 0..n, each as a sum of principal minors.

    Every principal minor of ``A`` is computed once, one gather and one
    batched ``det`` per subset size; the expansion for flip k is 1 (the
    empty set's minor) plus the sum of all the others signed by
    ``(-1)**|alpha & {1..k}|``, one product and row sum over every flip.
    No LU of ``1 + I_k A`` is ever formed, so this stays an independent
    oracle for :func:`flipped_determinants`.  There are 2**n minors, so
    the side length is capped at :data:`EXPANSION_CAP`.
    """
    return _minor_expansion(as_matrix(A))


def _minor_expansion(A: np.ndarray) -> np.ndarray:
    """:func:`flipped_minor_expansion` of an already validated matrix."""
    n = A.shape[0]
    if n > EXPANSION_CAP:
        raise ExpansionLimitError(
            f"matrix size {n} exceeds the expansion cap {EXPANSION_CAP}; "
            f"use det(1 + A) directly")
    if n == 0:  # the empty minor alone
        return np.ones(1, dtype=complex)
    gathers, signs = _subset_table(n)
    flat = A.ravel()
    minors = np.concatenate([np.linalg.det(flat.take(ix)) for ix in gathers])
    return 1 + (signs * minors).sum(axis=1)


def flipped_determinants(A, zero_block, scales=None) -> np.ndarray:
    """``det(1 + I_k A)`` for k = 0..n from one stacked LU call.

    ``A`` is one ``n x n`` matrix; the result has shape ``(n + 1,)``.
    ``I_0`` is the identity; for n = 0 the single entry is the empty
    determinant 1.

    ``zero_block`` is the boolean mask of positions T on which ``A``
    vanishes (``A[T, T] = 0``; see :func:`~bruhatdiag.spaces.zero_block`),
    as every tangent of the mask's space does; a matrix that is nonzero
    there raises ``ValueError``.  Two exact identities shrink every
    determinant to the kept rows of the complement P:

    * a zero row i of ``A`` makes row i of ``1 + I_k A`` the unit row, so
      row and column i drop out, and flip k becomes flip
      ``#{kept rows < k}`` of the kept matrix;
    * with ``A_TT = 0`` the block ``(1 + I_k A)_TT`` is the identity, and
      the Schur complement on it gives
      ``det(1 + I_k A) = det(1_P + S_P (A_PP - A_PT S_T A_TP))``, where
      ``S_P`` and ``S_T`` are the signs of ``I_k`` on P and on T.  No
      inverse is taken, and for p > 1 the products ``A_PT S_T A_TP`` of
      every flip are one matrix product.

    ``scales`` is an optional 1-D array of positive factors: the result
    then has shape ``(len(scales), n + 1)``, and row s holds the flipped
    determinants of ``scales[s] * A``, the ray through ``A`` that a limit
    check walks; a float array, such as the read-only grid
    :func:`~bruhatdiag.components.limit_check` builds once, is checked
    without a copy.  ``A`` is validated and planned once; only the block
    it keeps is multiplied by each scale, with the same products ``t * a``
    a call on ``t * A`` makes, so every row equals that call bitwise (a
    scale that underflows an entry to zero still keeps its row).  A scaled
    entry that would overflow raises ``ValueError``, as a call on
    ``t * A`` does.  One bound decides that before any product is formed,
    so no numpy warning is raised: the largest scale times the largest
    real or imaginary part of the kept block (see :func:`_on_ray`).
    """
    A = as_matrix(A)
    if scales is not None:
        scales = np.asarray(scales, dtype=float)
        # a NaN scale makes the minimum NaN, which fails the test as well
        if scales.ndim != 1 or not scales.min(initial=np.inf) > 0:
            raise ValueError(f"scales must be a 1-D array of positive numbers, got {scales!r}")
    return _flipped_determinants(A, zero_block, scales)


def _flipped_determinants(A: np.ndarray, zero_block: np.ndarray, scales=None) -> np.ndarray:
    """:func:`flipped_determinants` of an already validated matrix and,
    if given, validated ``scales``."""
    order, p, eye, sign_p, sign_t, remap = _split_plan(
        A.any(axis=1).tobytes(), zero_block.tobytes())
    B = A[order[:, None], order]
    if np.count_nonzero(B[p:, p:]):
        raise ValueError("matrix is nonzero on its zero block; a tangent vanishes there")
    B = _on_ray(B, scales)
    lead = B.shape[:-2]
    flips, t = sign_t.shape
    left = B[..., None, :p, p:] * sign_t[:, None, :]
    if p > 1:
        schur = (left.reshape(*lead, flips * p, t)
                 @ B[..., p:, :p]).reshape(*lead, flips, p, p)
    else:  # per-flip dot products; a matrix-vector one sums in another order
        schur = left @ B[..., None, p:, :p]
    # 1_P + S_P (A_PP - schur), formed in place in schur
    np.subtract(B[..., None, :p, :p], schur, out=schur)
    schur *= sign_p[:, :, None]
    schur += eye
    dets = np.linalg.det(schur)
    return dets if remap is None else dets[..., remap]


def _on_ray(A: np.ndarray, scales) -> np.ndarray:
    """``A`` itself without ``scales``, else the stack ``t * A`` over them.

    A product that would overflow raises instead.  Rounding is monotone,
    so ``fl(t * |x|) <= fl(max(scales) * max|Re, Im|)`` for every scale t
    and every real or imaginary part x of ``A``: that one bound is finite
    exactly when every product is (an infinite scale times zero parts is
    NaN, as those products are), and no product is formed before it is
    checked, so no numpy warning is raised either.
    """
    if scales is None:
        return A
    if A.size and scales.size:
        parts = A.reshape(-1).view(np.float64)
        if not math.isfinite(float(scales.max()) * float(abs(parts).max())):
            raise ValueError("matrix entries must be finite")
    return scales[:, None, None] * A


# A dense draw of a layout needs one plan; a witness needs one per
# representative, and AIII(5, 5) and CI(8) together have 508 of them.
@functools.lru_cache(maxsize=1024)
def _split_plan(kept: bytes, block: bytes):
    """Index order, sizes and sign tables of the split stack for one pattern
    of nonzero rows (``kept``) and vanishing block (``block``), both the
    bytes of boolean masks.

    Returns ``(order, p, eye(p), sign_p, sign_t, remap)``: ``order`` lists
    the kept positions outside the block (the first ``p``), then the kept
    ones inside it; row k' of ``sign_p`` and ``sign_t`` holds the signs of
    the kept flip k' on those two parts; ``remap`` maps flip k of the full
    matrix to its kept flip, or is None when every row is kept.  Every
    array is read-only, because one plan serves every matrix with the
    pattern.
    """
    kept = np.frombuffer(kept, dtype=bool)
    block = np.frombuffer(block, dtype=bool)
    if kept.shape != block.shape:
        raise ValueError(f"zero_block has {block.size} entries, matrix size is {kept.size}")
    rank = np.cumsum(kept) - 1
    outside, inside = np.flatnonzero(kept & ~block), np.flatnonzero(kept & block)
    order = np.concatenate([outside, inside])
    signs = np.where(rank[order] < np.arange(len(order) + 1)[:, None], -1.0, 1.0)
    p = len(outside)
    remap = None if kept.all() else np.concatenate([[True], kept]).cumsum() - 1
    plan = (order, p, np.eye(p), np.ascontiguousarray(signs[:, :p]),
            np.ascontiguousarray(signs[:, p:]), remap)
    for a in plan:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def max_abs(A) -> float:
    return float(np.abs(np.asarray(A)).max(initial=0.0))


# --- JSON array form ------------------------------------------------------
#
# Every complex array travels as nested lists, one level per axis, of
# [re, im] pairs, and [] stands for any empty array.  A matrix is
# {"n": int, "entries": <its array form>}.

def array_to_json(A) -> list:
    """The JSON array form of a complex array of any shape."""
    A = np.asarray(A, dtype=complex)
    return np.stack([A.real, A.imag], -1).tolist()


def array_from_json(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Read the JSON array form of a complex array of ``shape``.

    Each axis must be a list (or tuple) of its length, down to the
    ``[re, im]`` pairs; ``[]`` is also read as any empty array.  A value of
    another shape raises ``ValueError`` naming ``field`` and ``shape``.
    """
    leaves = [] if 0 in shape and isinstance(value, (list, tuple)) and not value else [value]
    for size in shape:
        if any(not isinstance(v, (list, tuple)) or len(v) != size for v in leaves):
            text = f"length-{size}" if len(shape) == 1 else " x ".join(map(str, shape))
            raise ValueError(f"{field} must be a {text} array of [re, im] pairs")
        leaves = [x for v in leaves for x in v]
    return np.array([_json_pair(z) for z in leaves], dtype=complex).reshape(shape)


def _json_pair(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"complex entries must be [re, im] pairs, got {pair!r}")
    try:
        return complex(*(_json_number(x, float, "") for x in pair))
    except ValueError as exc:
        raise ValueError(f"complex entries must be [re, im] pairs of numbers, "
                         f"got {pair!r}") from exc


def _json_number(value, kind: type, message: str):
    """``kind(value)`` for a JSON number ``value``; anything else raises
    ``ValueError`` with ``message``.  Only numbers count: null, lists,
    strings and booleans are refused, not coerced (``"0.3"`` and ``true``
    are not numbers), and an ``int`` must be a JSON integer or an integral
    float, so ``1.9`` is refused rather than truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{message}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:  # float() of an integer beyond the double range
        raise ValueError(f"{message}, got {value!r}") from exc


def matrix_to_json(A) -> dict:
    A = as_matrix(A)
    return {"n": A.shape[0], "entries": array_to_json(A)}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError('matrix JSON must carry fields "n" and "entries"')
    n = _json_number(obj["n"], int, 'matrix JSON field "n" must be an integer')
    if n < 0:
        raise ValueError(f'matrix JSON field "n" must be non-negative, got {n}')
    return as_matrix(array_from_json(obj["entries"], (n, n), 'matrix JSON field "entries"'))
