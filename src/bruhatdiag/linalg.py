"""Dense complex matrix primitives shared by every other module.

Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
submatrices are numpy slices, and the only sign matrix built here is the
leading flip ``I_k`` of :func:`leading_signature`.  Determinants go through
LAPACK's partially pivoted LU (``numpy.linalg.det``), and the
principal-minor expansion is the independent combinatorial route to
``det(1 + A)`` for cross checks.

Both routes are stacked over the leading sign flips ``det(1 + I_k A)``,
k = 0..n.  :func:`_flipped_determinants`, which the package reaches only
through :func:`~bruhatdiag.spaces._flipped_stack`, takes a block T on
which ``A`` vanishes, as every tangent does on its involution's larger
same-sign class, and factors only what is left, all in one batched LU
call; it also takes a ray of positive scales, such as a limit check's
grid, and plans the matrix once for every point.
:func:`_minor_expansion` computes every principal minor of ``A`` once
and forms all n + 1 expansions in one signed reduction, factoring only
the minors that ``A``'s own nonzero pattern allows (:func:`_minor_plan`).

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

#: Largest side length accepted by :func:`_minor_expansion`.
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


def _minor_expansion(A: np.ndarray) -> np.ndarray:
    """``det(1 + I_k A)`` for k = 0..n of a validated matrix, each as a sum of
    principal minors.

    Every principal minor of ``A`` is computed once, one gather and one
    batched ``det`` per subset size; the expansion for flip k is 1 (the
    empty set's minor) plus the sum of all the others signed by
    ``(-1)**|alpha & {1..k}|``, one product of a cached ``(n + 1, 2**n - 1)``
    sign table and a row sum over every flip.  Its k = 0 row is
    ``det(1 + A)`` as the sum of all principal minors.  A minor that the
    nonzero pattern of ``A`` forces to 0 (Frobenius-König, see
    :func:`_minor_plan`) is not factored but left an exact 0; LAPACK
    returns exactly 0 for it too, so no bit changes.  No LU of
    ``1 + I_k A`` is ever formed, so this stays an independent oracle for
    :func:`_flipped_determinants`.  There are 2**n minors, so the side
    length is capped at :data:`EXPANSION_CAP`.
    """
    n = A.shape[0]
    if n > EXPANSION_CAP:
        raise ExpansionLimitError(
            f"matrix size {n} exceeds the expansion cap {EXPANSION_CAP}; "
            f"the cayley_det route computes the same ratios without it")
    if n == 0:  # the empty minor alone
        return np.ones(1, dtype=complex)
    _, signs = _subset_table(n)
    flat = A.ravel()
    minors = np.zeros(signs.shape[1], dtype=complex)
    for ix, at in _minor_plan((A != 0).tobytes()):
        minors[at] = np.linalg.det(flat.take(ix))
    return 1 + (signs * minors).sum(axis=1)


# One plan per nonzero pattern: a layout's tangents share one, as they
# share their split plan.
@functools.lru_cache(maxsize=64)
def _minor_plan(pattern: bytes) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The principal minors that the nonzero pattern of an ``n x n`` matrix,
    n >= 1, leaves free to be nonzero; ``pattern`` is the bytes of its
    boolean mask.

    Returns one pair per subset size that keeps any minor: the gather
    indices of the kept minors (rows of that size's :func:`_subset_table`
    gather) and their positions among the ``2**n - 1`` minors in table
    order.  The pattern graph joins i and j when entry ``(i, j)`` or
    ``(j, i)`` is nonzero.  If it is bipartite, every term of the minor on
    alpha maps each index of alpha to one of the other colour, so by
    Frobenius-König the minor is identically 0 unless alpha has as many
    indices of each colour, and only those minors are kept.  A nonzero
    diagonal entry or an odd cycle keeps every minor.  Every array is
    read-only, because one plan serves every matrix with the pattern.
    """
    nonzero = np.frombuffer(pattern, dtype=bool)
    n = math.isqrt(nonzero.size)
    nonzero = nonzero.reshape(n, n)
    colour = _two_colouring(nonzero | nonzero.T)
    gathers, _ = _subset_table(n)
    plan, start = [], 0
    for ix in gathers:
        # the diagonal of a gather holds i * (n + 1) for each index i
        subsets = ix.diagonal(axis1=1, axis2=2) // (n + 1)
        keep = np.flatnonzero(colour[subsets].sum(axis=1) == 0)
        if keep.size:
            # a size kept whole shares the table's own gather, not a copy
            plan.append((ix if keep.size == len(ix) else ix[keep], start + keep))
        start += len(ix)
    for a in itertools.chain.from_iterable(plan):
        a.flags.writeable = False
    return tuple(plan)


def _two_colouring(adjacent: np.ndarray) -> np.ndarray:
    """Colours +1 and -1 of the graph with symmetric boolean adjacency
    ``adjacent`` such that every edge joins two colours.  When a loop or an
    odd cycle leaves no such colouring, every colour is 0, so every subset
    has equal counts and :func:`_minor_plan` keeps every minor."""
    colour = np.zeros(len(adjacent), dtype=np.intp)
    for root in range(len(adjacent)):
        if colour[root]:
            continue
        colour[root], stack = 1, [root]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(adjacent[i]):
                if not colour[j]:
                    colour[j] = -colour[i]
                    stack.append(j)
                elif colour[j] == colour[i]:
                    return np.zeros_like(colour)
    return colour


def _flipped_determinants(A: np.ndarray, zero_block: np.ndarray, scales=None) -> np.ndarray:
    """``det(1 + I_k A)`` for k = 0..n of a validated matrix from one
    stacked LU call.

    ``A`` is one ``n x n`` matrix; the result has shape ``(n + 1,)``.
    ``I_0`` is the identity; for n = 0 the single entry is the empty
    determinant 1.

    ``zero_block`` is the boolean mask of positions T on which ``A``
    vanishes (``A[T, T] = 0``; see :class:`~bruhatdiag.spaces.Layout`),
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

    ``scales``, if given, is a 1-D float array of positive factors, such
    as the read-only grid :func:`~bruhatdiag.components.limit_check`
    builds once: the result then has shape ``(len(scales), n + 1)``, and
    row s holds the flipped determinants of ``scales[s] * A``, the ray
    through ``A`` that a limit check walks.  ``A`` is planned once; only
    the block it keeps is multiplied by each scale, with the same products
    ``t * a`` a call on ``t * A`` makes, so every row equals that call
    bitwise (a scale that underflows an entry to zero still keeps its
    row).  A scaled entry that would overflow raises ``ValueError``, as
    validating ``t * A`` does, decided by one bound before any product is
    formed (see :func:`_on_ray`).
    """
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


class _LastFinite:
    """A one-entry cache of the last finite array a computation returned.

    ``get(key, compute, *args)`` returns the stored array when ``key``
    equals the stored key, and otherwise ``compute(*args)``.  A result
    whose every part is finite is made read-only and replaces the entry;
    any other result, or a call that raises, leaves the entry as it was,
    so a non-finite result is computed afresh, warnings included, each
    time.  Callers key on the exact bytes of the input matrix, so a hit
    returns the array a fresh call would return, bitwise.  The entry is
    one ``(key, array)`` pair, read and replaced whole, so a key is never
    paired with the array of another call.
    """

    __slots__ = ("entry",)

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.entry = None

    def get(self, key, compute, *args) -> np.ndarray:
        entry = self.entry
        if entry is not None and entry[0] == key:
            return entry[1]
        value = compute(*args)
        # finite when its largest float part is: a NaN part propagates through max
        if math.isfinite(float(abs(value.reshape(-1).view(np.float64)).max(initial=0.0))):
            value.flags.writeable = False
            self.entry = key, value
        return value


def max_abs(A) -> float:
    return float(np.abs(np.asarray(A)).max(initial=0.0))


def relative_gap(a, b) -> np.ndarray:
    """``|a - b| / max(1, |a|, |b|)`` entrywise, the one relative gap of route
    gaps, golden and limit deviations.  ``np.hypot`` rounds as Python's
    ``abs(complex)`` does (``np.abs`` can differ in the last bit), so a
    finite gap equals the scalar formula exactly; a NaN difference is NaN."""
    a, b = np.asarray(a), np.asarray(b)
    diff = a - b
    scale = np.fmax(np.fmax(1.0, np.hypot(a.real, a.imag)), np.hypot(b.real, b.imag))
    return np.hypot(diff.real, diff.imag) / scale


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
