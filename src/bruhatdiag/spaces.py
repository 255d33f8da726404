"""The five classical family encodings: dimensions, involutions, tangents.

Each family fixes a matrix realization in which the relevant triangular
data (strictly lower, diagonal, strictly upper) is preserved by the
involution.  Tangent matrices are always *built* from free coordinate
payloads, never hand-entered, so membership in the -1 eigenspace of the
involution holds by construction.

Families and ambient sizes:

========== ======================= ==================
family      parameters              ambient size
========== ======================= ==================
AIII        m, n  (m <= n)          m + n
DIII        n                       2n
CI          n                       2n
CII         p, q                    2(p + q)
BDI_even    p even, q               p + q
BDI_oddodd  p odd, q odd            p + q
========== ======================= ==================

The :data:`FAMILY` registry at the end of this module is the one place a
family is described, so a new layout is one record plus its tests.  A
record is data: block ``sizes``, the involution's ``signs`` per block, the
``reflection`` type, and the ``slots`` naming the block each payload field
fills.  :func:`layout` derives, once per spec, every table the record
determines, and every module reads them there.  One builder,
:func:`build_tangent`, places the payload and derives every other entry
from the tangent-space equations (see :func:`_tangent_plan`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .linalg import (
    _flipped_determinants,
    _json_number,
    _LastFinite,
    antitranspose,
    array_from_json,
    array_to_json,
    as_matrix,
    max_abs,
)


@dataclass(frozen=True)
class Family:
    """Everything that distinguishes one family layout from the others.

    ``signs`` is the involution's sign on each block of ``sizes`` (0 on the
    swapped middle pair of BDI_oddodd); ``reflection`` is ``""``, ``"so"``
    or ``"sp"``; ``slots`` maps each payload field, in draw order, to the
    (row block, column block) it fills (a ``w`` field is that block's
    column, ``s`` the torus pair starting at that diagonal block);
    ``payload_sign`` is set where ``Z = payload_sign * antitranspose(Z)``
    (DIII -1, CI +1); ``defaults`` are the ``bruhatdiag verify`` parameters.
    """

    params: tuple[str, ...]
    validate: Callable[[SpaceSpec], None]
    sizes: Callable[[SpaceSpec], tuple[int, ...]]
    signs: tuple[int, ...]
    reflection: str
    slots: dict[str, tuple[int, int]]
    defaults: dict
    payload_sign: Optional[float] = None


@dataclass(frozen=True)
class SpaceSpec:
    """Family tag plus dimension parameters.

    Unused parameters stay at zero; use the module-level constructors
    (:func:`aiii`, :func:`diii`, ...) rather than filling fields by hand.
    Parameters are stored as Python ``int``; a float or bool raises ``ValueError``,
    and so does a value whose ambient size would not be a numpy index.
    """

    family: str
    m: int = 0
    n: int = 0
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.family not in FAMILY:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        for name in ("m", "n", "p", "q"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):  # an int to operator.index
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{self.family} parameter {name} must be an integer, "
                                 f"got {value!r}") from None
            if value > np.iinfo(np.intp).max // 4:  # an ambient size is at most 4 of them
                raise ValueError(f"{self.family} parameter {name} is too large for an array")
            object.__setattr__(self, name, value)
        FAMILY[self.family].validate(self)

    @functools.cached_property
    def ambient(self) -> int:
        """Side length of the ambient matrices, computed once per spec."""
        return sum(FAMILY[self.family].sizes(self))

    @property
    def so_like(self) -> bool:
        return FAMILY[self.family].reflection == "so"

    def params_dict(self) -> dict:
        return {name: getattr(self, name) for name in FAMILY[self.family].params}


def aiii(m: int, n: int) -> SpaceSpec:
    return SpaceSpec("AIII", m=m, n=n)


def diii(n: int) -> SpaceSpec:
    return SpaceSpec("DIII", n=n)


def ci(n: int) -> SpaceSpec:
    return SpaceSpec("CI", n=n)


def cii(p: int, q: int) -> SpaceSpec:
    return SpaceSpec("CII", p=p, q=q)


def bdi(p: int, q: int) -> SpaceSpec:
    """Real-Grassmannian spec; dispatches on the parity of p and q."""
    if p % 2 == 0:
        return SpaceSpec("BDI_even", p=p, q=q)
    if q % 2 == 1:
        return SpaceSpec("BDI_oddodd", p=p, q=q)
    raise ValueError("for odd p and even q, swap the factors so p is even")


def spec_from_family(family: str, **params) -> SpaceSpec:
    """The spec of ``family`` with exactly its parameters; a missing or a
    foreign parameter raises ``ValueError``."""
    if family not in FAMILY:
        raise ValueError(f"unknown family {family!r}")
    names = FAMILY[family].params
    for name in names:
        if name not in params:
            raise ValueError(f'family {family} requires parameter "{name}"')
    for name in params:
        if name not in names:
            raise ValueError(f'family {family} takes no parameter "{name}"')
    return SpaceSpec(family, **params)


# --- block layout ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Layout:
    """Every table a spec's :class:`Family` record determines, shared, so
    its arrays are read-only.  ``bounds``: block starts, then N; ``signs``:
    the involution's sign per position (0 on the swapped middle pair);
    ``perm``, ``flips``: the involution as a signed permutation, ``(I A
    I)[i, j] = flips[i, j] * A[perm[i], perm[j]]``; ``zero_block``: the
    positions T of the larger same-sign class (the +1 class on a tie, never
    the middle pair), on which every tangent vanishes, ``X[T, T] = 0``, so
    :func:`_flipped_stack` factors only the rest;
    ``support``: the entries a tangent may fill, those whose row and column
    carry opposite signs, every entry linking the middle pair with an outer
    position, and the middle diagonal (the torus slot); ``shapes``: each
    payload field's shape, in draw order; ``twist``: the reflection's
    signs, ``E antitranspose(A) E = antitranspose(A) * twist`` (E = 1 for
    ``so``, the leading signature ``I_{N/2}`` for ``sp``; None without a
    reflection); ``coroots``: the integer exponent table ``E`` of shape
    ``(K, N)``, where ``E[k-1, j]`` is the power of
    ``det(1 + I_k X) / det(1 + X)`` in diagonal entry j.  With ``e_j`` the
    1-based unit vectors, row k is ``e_k - e_{k+1}``, k = 1..N-1, without a
    reflection; with one (``so`` and ``sp`` alike) and r = N // 2, row
    k < r is ``e_k - e_{k+1} + e_{N-k} - e_{N+1-k}`` and row r is
    ``e_r - e_{N+1-r}``.  Every row sums to zero.
    """

    bounds: tuple[int, ...]
    signs: tuple[int, ...]
    perm: np.ndarray
    flips: np.ndarray
    zero_block: np.ndarray
    support: np.ndarray
    shapes: Mapping[str, tuple[int, ...]]
    twist: Optional[np.ndarray]
    plan: tuple[np.ndarray, np.ndarray, np.ndarray]
    coroots: np.ndarray


@functools.lru_cache(maxsize=64)
def layout(spec: SpaceSpec) -> Layout:
    """The :class:`Layout` of ``spec``, built once: equal specs share one."""
    fam = FAMILY[spec.family]
    sizes = fam.sizes(spec)
    bounds = tuple(itertools.accumulate(sizes, initial=0))
    N = bounds[-1]
    signs = np.repeat(fam.signs, sizes)
    middle = signs == 0
    perm = np.arange(N)
    perm[middle] = perm[middle][::-1]
    row_sign = np.where(middle, 1.0, signs)
    flips = np.multiply.outer(row_sign, row_sign)
    eye = np.eye(N, dtype=np.int64)
    coroots, twist = eye[:-1] - eye[1:], None
    if fam.reflection:
        E = np.where(np.arange(N) < N // 2, -1.0, 1.0) if fam.reflection == "sp" else np.ones(N)
        twist = np.multiply.outer(E, E)
        r = N // 2
        coroots = np.vstack([(coroots + coroots[::-1])[:r - 1], eye[r - 1] - eye[N - r]])
    # the larger same-sign class, the +1 class on a tie
    larger = max((1, -1), key=lambda sign: np.count_nonzero(signs == sign))
    record = Layout(
        bounds=bounds, signs=tuple(signs.tolist()), perm=perm, flips=flips,
        zero_block=signs == larger,
        support=(np.multiply.outer(signs, signs) < 0) | (middle[:, None] != middle)
        | np.diag(middle),
        shapes=MappingProxyType({
            name: () if name == "s" else (sizes[r],) if name.startswith("w")
            else (sizes[r], sizes[c]) for name, (r, c) in fam.slots.items()}),
        twist=twist, plan=_tangent_plan(fam, bounds, perm, flips, twist), coroots=coroots)
    for table in (*vars(record).values(), *record.plan):
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return record


def involution_matrix(spec: SpaceSpec) -> np.ndarray:
    """The concrete matrix whose conjugation action is the involution.

    Diagonal +/-1 for the inner families; for BDI with both parameters odd
    the fixed matrix swaps the middle two coordinates and is not diagonal.
    Each call returns a new writable matrix.
    """
    lay, N = layout(spec), spec.ambient
    I = np.zeros((N, N), dtype=complex)
    # row i holds its sign at column perm[i]; the swapped middle pair's is +1
    I[np.arange(N), lay.perm] = np.where(np.equal(lay.signs, 0), 1.0, lay.signs)
    return I


def involution_apply(spec: SpaceSpec, A) -> np.ndarray:
    """Conjugate ``A`` by the involution matrix; involutive by construction.

    The matrix is a signed permutation, so ``I A I`` is ``A`` with rows and
    columns permuted and each entry multiplied by +-1: O(N^2) work, with
    the values of the matrix product ``involution_matrix(spec) @ A @
    involution_matrix(spec)`` (see :class:`Layout`).
    """
    A = np.asarray(A, dtype=complex)
    _check_ambient(spec, A)
    lay = layout(spec)
    return A[lay.perm[:, None], lay.perm] * lay.flips


def _check_ambient(spec: SpaceSpec, A: np.ndarray) -> None:
    """Refuse a matrix that is not ``N x N`` for the spec's ambient size N."""
    if A.shape != (spec.ambient,) * 2:
        raise ValueError(f"matrix has shape {A.shape}, ambient size is {spec.ambient}")


def _flipped_stack(spec: SpaceSpec, X: np.ndarray, scales=None) -> np.ndarray:
    """``det(1 + I_k X)``, k = 0..N, of an already validated matrix, split
    on the layout's ``zero_block``; with ``scales``, a float array of positive
    factors, one row per scale (see :func:`~bruhatdiag.linalg._flipped_determinants`).

    Without ``scales`` the last finite stack is kept, keyed on ``spec`` and
    the exact bytes of ``X``, so the draw that judged a tangent and the
    routes that read it share one stack; a kept stack is read-only.  A
    stack on a ray is never kept.
    """
    _check_ambient(spec, X)
    zero_block = layout(spec).zero_block
    if scales is not None:
        return _flipped_determinants(X, zero_block, scales)
    return _LAST_STACK.get((X.tobytes(), spec), _flipped_determinants, X, zero_block)


#: The last finite stack :func:`_flipped_stack` built without ``scales``.
_LAST_STACK = _LastFinite()


# --- coordinates -----------------------------------------------------------

@dataclass(frozen=True)
class Coordinates:
    """Free parameters populating a tangent matrix.

    Which fields are meaningful depends on the family:

    * AIII, BDI_even: ``Z``
    * DIII: ``Z`` with ``Z = -antitranspose(Z)``
    * CI: ``Z`` with ``Z = antitranspose(Z)``
    * CII: ``Z1``, ``Z2``
    * BDI_oddodd: ``Z1``, ``Z2``, ``w1``, ``w2``, ``s``
    """

    family: str
    Z: Optional[np.ndarray] = None
    Z1: Optional[np.ndarray] = None
    Z2: Optional[np.ndarray] = None
    w1: Optional[np.ndarray] = None
    w2: Optional[np.ndarray] = None
    s: float = 0.0


def zero_coordinates(spec: SpaceSpec) -> Coordinates:
    return Coordinates(family=spec.family, **{
        name: 0.0 if name == "s" else np.zeros(shape, dtype=complex)
        for name, shape in layout(spec).shapes.items()})


def _disc_points(u: np.ndarray, radius: float) -> np.ndarray:
    """Disc points of ``radius``, uniform in area, from the [0, 1) radii u[0] and angles u[1]."""
    return radius * np.sqrt(u[0]) * np.exp(1j * (2.0 * math.pi * u[1]))


def _disc_sample(rng: np.random.Generator, shape, radius: float) -> np.ndarray:
    """Entries uniform in the closed complex disc of the given radius: all
    their radii, then all their angles, from one generator call."""
    return _disc_points(rng.uniform(0.0, 1.0, size=(2, *shape)), radius)


#: A random draw whose tangent has some ``|det(1 + I_k X)|``, k = 1..N, at
#: or below this floor sits too close to a cell boundary and is redrawn.
CONDITION_FLOOR = 1e-3

#: The disc radius of a random payload entry unless a caller gives one.
DEFAULT_RADIUS = 0.7

#: The tolerance of a membership or route-gap check unless a caller gives one.
CHECK_TOL = 1e-9


def random_coordinates(spec: SpaceSpec, rng: np.random.Generator,
                       radius: float = DEFAULT_RADIUS) -> Coordinates:
    """Sample a coordinate payload with entries in the disc of ``radius``.

    Constrained payloads (DIII, CI) are filled from their free entries so
    the symmetry holds exactly rather than after projection.  A radius that
    is not finite and positive raises ``ValueError`` before ``rng`` is read.

    Draws whose tangent sits too close to a cell boundary (some
    ``|det(1 + I_k X)|`` at or below :data:`CONDITION_FLOOR`) are redrawn,
    so random sampling stays away from near-degenerate minors; degenerate
    inputs are for deliberate tests, not accidents.  At a huge radius the
    stack overflows; it is built without floating-point warnings and a
    non-finite stack is redrawn like a near-boundary one.  After 1000
    redraws it gives up with ``ValueError``.  The accepted tangent's stack
    is the one :func:`_flipped_stack` keeps, so checking the draw's
    tangent next builds no second stack.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be a finite number > 0, got {radius}")
    for _ in range(1000):
        coords = _sample_coordinates(spec, rng, radius)
        X = build_tangent(spec, coords)  # finite: every payload entry was checked
        with np.errstate(over="ignore", invalid="ignore"):
            dets = _flipped_stack(spec, X)
        mag = np.hypot(dets.real, dets.imag)
        # an infinite magnitude clears the floor, so finiteness is its own test
        if np.isfinite(mag).all() and mag[1:].min(initial=np.inf) > CONDITION_FLOOR:
            return coords
    raise ValueError(
        f"could not draw a well-conditioned payload for {spec.family} "
        f"at radius {radius}; lower the radius")


def _sample_coordinates(spec: SpaceSpec, rng: np.random.Generator,
                        radius: float) -> Coordinates:
    """One candidate payload, each field from one generator call: a DIII/CI
    ``Z`` its free entries (above the antidiagonal, and on it for CI) row by
    row, a radius then an angle each, mirrored so the symmetry is exact;
    any other field a :func:`_disc_sample`, ``s`` uniform in ``[-radius, radius]``."""
    shapes = layout(spec).shapes
    sign = FAMILY[spec.family].payload_sign
    if sign is not None:
        n = shapes["Z"][0]
        i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < (n if sign > 0 else n - 1))
        z = _disc_points(rng.uniform(0.0, 1.0, size=(i.size, 2)).T, radius)
        Z = np.zeros((n, n), dtype=complex)
        Z[n - 1 - j, n - 1 - i] = sign * z
        Z[i, j] = z  # after the mirror: an antidiagonal entry is its own mirror
        return Coordinates(family=spec.family, Z=Z)
    fields = {name: float(rng.uniform(-radius, radius)) if name == "s"
              else _disc_sample(rng, shape, radius)
              for name, shape in shapes.items()}
    return Coordinates(family=spec.family, **fields)


def coordinates_to_json(spec: SpaceSpec, coords: Coordinates) -> dict:
    payload = {name: float(coords.s) if name == "s" else array_to_json(getattr(coords, name))
               for name in layout(spec).shapes}
    return {"family": spec.family, "params": spec.params_dict(), "payload": payload}


def coordinates_from_payload(spec: SpaceSpec, payload: dict) -> Coordinates:
    """Build coordinates from the JSON payload dict for ``spec``; a field
    the family has no slot for raises ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {payload!r}")
    shapes = layout(spec).shapes
    for name in payload:
        if name not in shapes:
            raise ValueError(f'family {spec.family} has no payload field "{name}"')
    fields = {}
    for name, shape in shapes.items():
        if name == "s":
            if "s" in payload:
                fields["s"] = _json_number(payload["s"], float,
                                           'payload field "s" must be a number')
            continue
        if name not in payload:
            raise ValueError(f'payload is missing field "{name}" for family {spec.family}')
        fields[name] = array_from_json(payload[name], shape, f'payload field "{name}"')
    return Coordinates(family=spec.family, **fields)


def coordinates_from_json(obj: dict) -> tuple[SpaceSpec, Coordinates]:
    if not isinstance(obj, dict):
        raise ValueError("coordinates JSON must be an object")
    for key in ("family", "params", "payload"):
        if key not in obj:
            raise ValueError(f'coordinates JSON is missing field "{key}"')
    if not isinstance(obj["family"], str):
        raise ValueError('coordinates JSON field "family" must be a string')
    if not isinstance(obj["params"], dict):
        raise ValueError('coordinates JSON field "params" must be an object')
    params = {k: _json_number(v, int, f'coordinates JSON parameter "{k}" must be an integer')
              for k, v in obj["params"].items()}
    spec = spec_from_family(obj["family"], **params)
    return spec, coordinates_from_payload(spec, obj["payload"])


# --- tangent construction --------------------------------------------------

class CoordinateError(ValueError):
    """Raised when a payload violates its family constraints."""


def _check_shape(name: str, arr, shape) -> np.ndarray:
    A = np.asarray(arr, dtype=complex)
    if A.shape != tuple(shape):
        raise CoordinateError(f"{name} has shape {A.shape}, expected {tuple(shape)}")
    if A.size and not np.isfinite(A).all():
        raise CoordinateError(f"{name} has non-finite entries")
    return A


def build_tangent(spec: SpaceSpec, coords: Coordinates) -> np.ndarray:
    """Assemble the tangent matrix for ``spec`` from its free coordinates.

    Each payload field is placed in its slot and every other entry is
    copied from a payload entry by the layout's :func:`_tangent_plan`, so the
    result is skew-Hermitian, anti-invariant under the involution, and
    satisfies the family reflection condition exactly.
    """
    if coords.family != spec.family:
        raise CoordinateError(
            f"coordinates are tagged {coords.family!r}, spec is {spec.family!r}")
    fam = FAMILY[spec.family]
    sign = fam.payload_sign
    lay = layout(spec)
    b = lay.bounds
    X = np.zeros((b[-1], b[-1]), dtype=complex)
    for name, shape in lay.shapes.items():
        r, c = fam.slots[name]
        if name == "s":
            s = float(coords.s)
            if not math.isfinite(s):
                raise CoordinateError("s has non-finite entries")
            # set directly: -(1j * s) would carry a real part of -0.0
            X[b[r], b[r]] = 1j * s
            X[b[r] + 1, b[r] + 1] = -1j * s
            continue
        A = _check_shape(name, getattr(coords, name), shape)
        if sign is not None and max_abs(A - sign * antitranspose(A)) > 1e-12:
            raise CoordinateError(f"{spec.family} payload must satisfy "
                                  f"Z {'+' if sign < 0 else '-'} antitranspose(Z) = 0")
        X[b[r]:b[r + 1], b[c]:b[c + 1]] = A.reshape(b[r + 1] - b[r], b[c + 1] - b[c])
    dst, src, flip = lay.plan
    # a real factor -1 flips the sign bit of one part exactly; a complex
    # factor can give a zero part the wrong sign: (-1+0j) * (0.3+0j) is
    # -0.3+0j, not -0.3-0j
    parts = X.reshape(-1).view(np.float64)
    parts[dst] = parts[src] * flip
    return X


def _tangent_plan(fam: Family, b: tuple[int, ...], perm: np.ndarray, flips: np.ndarray,
                  twist: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where every entry a payload does not fill comes from.

    Returns arrays ``(dst, src, flip)`` over the float parts of the
    flattened tangent (real part at ``2k``, imaginary part at ``2k + 1``):
    part ``dst`` is part ``src`` of a payload entry times ``flip`` = +-1.
    The equations, with the tables of :class:`Layout`, are applied in turn
    to every entry known so far, starting from the payload positions; each
    writes only entries still unknown, so a payload entry is never overwritten:

    * ``X = -I X I`` moves an entry across the swapped middle pair (a
      diagonal involution moves nothing; it only fixes the support);
    * the reflection ``X = -E J X^T J E``, whose signs are ``twist``;
    * ``X = -X*``.

    Each equation negates the real part, the imaginary part or both, so a
    dependent part is an exact sign flip of its source, signed zeros
    included.  The torus pair of ``s`` is left to the builder.
    """
    N = b[-1]
    entry = np.arange(N * N).reshape(N, N)
    source = np.full((N, N), -1)
    for name, (r, c) in fam.slots.items():
        if name != "s":
            source[b[r]:b[r + 1], b[c]:b[c + 1]] = entry[b[r]:b[r + 1], b[c]:b[c + 1]]
    source, entry = source.reshape(-1), entry.reshape(-1)
    negated = np.zeros((N * N, 2), dtype=bool)  # negate (real, imaginary) part

    # (i, j) -> (order[i], order[j]), transposed or not, negated where
    # table[i, j] > 0, and conjugated or not
    equations = [(perm, False, flips, False)]
    if twist is not None:
        equations.append((np.arange(N)[::-1], True, twist, False))
    equations.append((np.arange(N), True, np.ones((N, N)), True))
    for order, transposed, table, conjugate in equations:
        known = np.flatnonzero(source >= 0)
        i, j = np.divmod(known, N)
        negate = table[i, j] > 0
        if transposed:
            i, j = j, i
        dst = order[i] * N + order[j]
        new = source[dst] < 0
        source[dst[new]] = source[known[new]]
        negated[dst[new]] = negated[known[new]] ^ np.stack(
            [negate[new], negate[new] ^ conjugate], axis=1)

    derived = np.flatnonzero((source >= 0) & (source != entry))
    dst = (2 * derived[:, None] + [0, 1]).ravel()
    src = (2 * source[derived][:, None] + [0, 1]).ravel()
    flip = np.where(negated[derived].ravel(), -1.0, 1.0)
    return dst, src, flip


# --- validation ------------------------------------------------------------

@dataclass
class ViolationReport:
    """The verdict of a check that compares worst values with a tolerance.

    ``violations`` maps each checked quantity (a membership constraint, a
    route gap, a closed-form or intertwining deviation) to its worst value;
    the check passes when every one is at most ``tolerance``.
    """

    violations: dict[str, float]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tolerance for v in self.violations.values())


def validate_tangent(spec: SpaceSpec, X, tol: float = CHECK_TOL) -> ViolationReport:
    """Report how far ``X`` is from the tangent space of ``spec``.

    Checks skew-Hermitianity, anti-invariance under the involution, the
    family reflection condition, and vanishing outside the allowed block
    support.  A matrix of the wrong shape or with a non-finite entry
    raises ``ValueError``, as in ``verify_image``; any other gets a report.
    """
    X = as_matrix(X)
    _check_ambient(spec, X)
    lay = layout(spec)
    v = {
        "skew_hermitian": max_abs(X + X.conj().T),
        "involution_anti_invariance": max_abs(involution_apply(spec, X) + X),
        "block_support": max_abs(np.where(lay.support, 0.0, X)),
    }
    if lay.twist is not None:
        v["reflection"] = max_abs(X + antitranspose(X) * lay.twist)
    return ViolationReport(violations=v, tolerance=tol)


# --- the family registry -----------------------------------------------------

def _require(*checks: tuple[bool, str]) -> None:
    """Raise ``ValueError`` with the message of the first check that fails."""
    for ok, message in checks:
        if not ok:
            raise ValueError(message)


#: Every family's record, in the order ``bruhatdiag verify`` runs them.
FAMILY: dict[str, Family] = {
    "AIII": Family(
        params=("m", "n"),
        validate=lambda s: _require(
            (s.m >= 1 and s.n >= 1, "AIII requires m >= 1 and n >= 1"),
            (s.m <= s.n, "AIII uses the convention m <= n; swap the parameters")),
        sizes=lambda s: (s.m, s.n), signs=(-1, 1), reflection="",
        slots={"Z": (0, 1)}, defaults={"m": 2, "n": 3}),
    "DIII": Family(
        params=("n",), validate=lambda s: _require((s.n >= 1, "DIII requires n >= 1")),
        sizes=lambda s: (s.n, s.n), signs=(-1, 1), reflection="so",
        slots={"Z": (0, 1)}, defaults={"n": 3}, payload_sign=-1.0),
    "CI": Family(
        params=("n",), validate=lambda s: _require((s.n >= 1, "CI requires n >= 1")),
        sizes=lambda s: (s.n, s.n), signs=(-1, 1), reflection="sp",
        slots={"Z": (0, 1)}, defaults={"n": 3}, payload_sign=1.0),
    "CII": Family(
        params=("p", "q"),
        validate=lambda s: _require((s.p >= 1 and s.q >= 1, "CII requires p >= 1 and q >= 1")),
        sizes=lambda s: (s.p, s.q, s.q, s.p), signs=(-1, 1, 1, -1), reflection="sp",
        slots={"Z1": (0, 1), "Z2": (0, 2)}, defaults={"p": 2, "q": 2}),
    "BDI_even": Family(
        params=("p", "q"),
        validate=lambda s: _require(
            (s.p >= 2 and s.p % 2 == 0, "BDI_even requires even p >= 2"),
            (s.q >= 1, "BDI_even requires q >= 1")),
        sizes=lambda s: (s.p // 2, s.q, s.p // 2), signs=(-1, 1, -1), reflection="so",
        slots={"Z": (0, 1)}, defaults={"p": 4, "q": 3}),
    "BDI_oddodd": Family(
        params=("p", "q"),
        validate=lambda s: _require((s.p >= 1 and s.q >= 1 and s.p % 2 == 1 and s.q % 2 == 1,
                                     "BDI_oddodd requires odd p >= 1 and odd q >= 1")),
        sizes=lambda s: ((s.p - 1) // 2, (s.q - 1) // 2, 1, 1, (s.q - 1) // 2, (s.p - 1) // 2),
        signs=(1, -1, 0, 0, -1, 1), reflection="so",
        slots={"Z1": (0, 1), "Z2": (0, 4), "w1": (0, 2), "w2": (1, 2), "s": (2, 2)},
        defaults={"p": 3, "q": 3}),
}

FAMILIES = tuple(FAMILY)
