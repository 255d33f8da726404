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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    antitranspose,
    conj_antitranspose,
    flipped_determinants,
    leading_signature,
    max_abs,
    pair_to_complex,
    rectangular_from_json,
    rectangular_to_json,
    signature_matrix,
)

FAMILIES = ("AIII", "DIII", "CI", "CII", "BDI_even", "BDI_oddodd")

_SO_LIKE = ("DIII", "BDI_even", "BDI_oddodd")
_SP_LIKE = ("CI", "CII")


@dataclass(frozen=True)
class SpaceSpec:
    """Family tag plus dimension parameters.

    Unused parameters stay at zero; use the module-level constructors
    (:func:`aiii`, :func:`diii`, ...) rather than filling fields by hand.
    """

    family: str
    m: int = 0
    n: int = 0
    p: int = 0
    q: int = 0

    def __post_init__(self):
        fam = self.family
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; expected one of {FAMILIES}")
        if fam == "AIII":
            if self.m < 1 or self.n < 1:
                raise ValueError("AIII requires m >= 1 and n >= 1")
            if self.m > self.n:
                raise ValueError("AIII uses the convention m <= n; swap the parameters")
        elif fam in ("DIII", "CI"):
            if self.n < 1:
                raise ValueError(f"{fam} requires n >= 1")
        elif fam == "CII":
            if self.p < 1 or self.q < 1:
                raise ValueError("CII requires p >= 1 and q >= 1")
        elif fam == "BDI_even":
            if self.p < 2 or self.p % 2 != 0:
                raise ValueError("BDI_even requires even p >= 2")
            if self.q < 1:
                raise ValueError("BDI_even requires q >= 1")
        elif fam == "BDI_oddodd":
            if self.p < 1 or self.q < 1 or self.p % 2 == 0 or self.q % 2 == 0:
                raise ValueError("BDI_oddodd requires odd p >= 1 and odd q >= 1")

    @property
    def ambient(self) -> int:
        """Side length of the ambient matrices."""
        fam = self.family
        if fam == "AIII":
            return self.m + self.n
        if fam in ("DIII", "CI"):
            return 2 * self.n
        if fam == "CII":
            return 2 * (self.p + self.q)
        return self.p + self.q

    @property
    def so_like(self) -> bool:
        return self.family in _SO_LIKE

    @property
    def sp_like(self) -> bool:
        return self.family in _SP_LIKE

    def params_dict(self) -> dict:
        fam = self.family
        if fam == "AIII":
            return {"m": self.m, "n": self.n}
        if fam in ("DIII", "CI"):
            return {"n": self.n}
        return {"p": self.p, "q": self.q}


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
    if family == "AIII":
        return aiii(params["m"], params["n"])
    if family == "DIII":
        return diii(params["n"])
    if family == "CI":
        return ci(params["n"])
    if family == "CII":
        return cii(params["p"], params["q"])
    if family in ("BDI_even", "BDI_oddodd"):
        return SpaceSpec(family, p=params["p"], q=params["q"])
    raise ValueError(f"unknown family {family!r}")


# --- block layout ----------------------------------------------------------

def block_sizes(spec: SpaceSpec) -> tuple[int, ...]:
    """Row/column block sizes of the chosen matrix layout."""
    fam = spec.family
    if fam == "AIII":
        return (spec.m, spec.n)
    if fam in ("DIII", "CI"):
        return (spec.n, spec.n)
    if fam == "CII":
        return (spec.p, spec.q, spec.q, spec.p)
    if fam == "BDI_even":
        h = spec.p // 2
        return (h, spec.q, h)
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    return (n1, n2, 1, 1, n2, n1)


def _block_starts(sizes: tuple[int, ...]) -> list[int]:
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    return starts


def involution_matrix(spec: SpaceSpec) -> np.ndarray:
    """The concrete matrix whose conjugation action is the involution.

    Diagonal +/-1 for the inner families; for BDI with both parameters odd
    the fixed matrix swaps the middle two coordinates and is not diagonal.
    """
    fam = spec.family
    if fam == "AIII":
        return leading_signature(spec.ambient, spec.m)
    if fam in ("DIII", "CI"):
        return leading_signature(spec.ambient, spec.n)
    if fam == "CII":
        return signature_matrix((spec.p, 2 * spec.q, spec.p))
    if fam == "BDI_even":
        return signature_matrix((spec.p // 2, spec.q, spec.p // 2))
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    diag = [1.0] * n1 + [-1.0] * n2 + [0.0, 0.0] + [-1.0] * n2 + [1.0] * n1
    I = np.diag(np.array(diag, dtype=complex))
    mid = n1 + n2
    I[mid, mid + 1] = 1.0
    I[mid + 1, mid] = 1.0
    return I


def involution_apply(spec: SpaceSpec, A) -> np.ndarray:
    """Conjugate ``A`` by the involution matrix; involutive by construction."""
    A = np.asarray(A, dtype=complex)
    N = spec.ambient
    if A.shape != (N, N):
        raise ValueError(f"matrix has shape {A.shape}, ambient size is {N}")
    I = involution_matrix(spec)
    return I @ A @ I


def negated_position_mask(spec: SpaceSpec) -> np.ndarray:
    """Boolean mask of entries negated by the involution.

    Only meaningful away from the middle two rows/columns in the
    BDI_oddodd layout, where the fixed matrix acts diagonally.
    """
    N = spec.ambient
    I = involution_matrix(spec)
    d = np.real(np.diag(I))
    mask = np.outer(d, d) < -0.5
    return mask


def support_mask(spec: SpaceSpec) -> np.ndarray:
    """Mask of entries that may be nonzero for a tangent of this family."""
    sizes = block_sizes(spec)
    starts = _block_starts(sizes)
    N = spec.ambient
    mask = np.zeros((N, N), dtype=bool)

    def allow(bi: int, bj: int):
        mask[starts[bi]:starts[bi + 1], starts[bj]:starts[bj + 1]] = True

    fam = spec.family
    if fam in ("AIII", "DIII", "CI"):
        allow(0, 1), allow(1, 0)
    elif fam == "CII":
        for bi, bj in ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)):
            allow(bi, bj)
    elif fam == "BDI_even":
        for bi, bj in ((0, 1), (1, 0), (1, 2), (2, 1)):
            allow(bi, bj)
    else:
        pairs = (
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 0), (1, 2), (1, 3), (1, 5),
            (2, 0), (2, 1), (2, 2), (2, 4), (2, 5),
            (3, 0), (3, 1), (3, 3), (3, 4), (3, 5),
            (4, 0), (4, 2), (4, 3), (4, 5),
            (5, 1), (5, 2), (5, 3), (5, 4),
        )
        for bi, bj in pairs:
            allow(bi, bj)
    return mask


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


def _payload_shapes(spec: SpaceSpec) -> dict:
    fam = spec.family
    if fam == "AIII":
        return {"Z": (spec.m, spec.n)}
    if fam in ("DIII", "CI"):
        return {"Z": (spec.n, spec.n)}
    if fam == "CII":
        return {"Z1": (spec.p, spec.q), "Z2": (spec.p, spec.q)}
    if fam == "BDI_even":
        return {"Z": (spec.p // 2, spec.q)}
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    return {"Z1": (n1, n2), "Z2": (n1, n2), "w1": (n1,), "w2": (n2,), "s": ()}


def zero_coordinates(spec: SpaceSpec) -> Coordinates:
    shapes = _payload_shapes(spec)
    fields = {}
    for name, shape in shapes.items():
        if name == "s":
            fields["s"] = 0.0
        else:
            fields[name] = np.zeros(shape, dtype=complex)
    return Coordinates(family=spec.family, **fields)


def _disc_sample(rng: np.random.Generator, shape, radius: float) -> np.ndarray:
    """Entries uniform in the closed complex disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=shape))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return r * np.exp(1j * phi)


def random_coordinates(spec: SpaceSpec, rng: np.random.Generator,
                       radius: float = 0.7,
                       condition_floor: float = 1e-3) -> Coordinates:
    """Sample a coordinate payload with entries in the disc of ``radius``.

    Constrained payloads (DIII, CI) are filled from their free entries so
    the symmetry holds exactly rather than after projection.

    Draws whose tangent sits too close to a cell boundary (some
    ``|det(1 + I_k X)|`` below ``condition_floor``) are redrawn, so random
    sampling stays away from near-degenerate minors; degenerate inputs are
    for deliberate tests, not accidents.  Pass ``condition_floor=0`` to
    disable the rejection.
    """
    for _ in range(1000):
        coords = _sample_coordinates(spec, rng, radius)
        if condition_floor <= 0.0:
            return coords
        if _min_flipped_det(spec, coords) > condition_floor:
            return coords
    raise RuntimeError(
        f"could not draw a well-conditioned payload for {spec.family} "
        f"at radius {radius}; lower the radius or the condition floor")


def _min_flipped_det(spec: SpaceSpec, coords: Coordinates) -> float:
    """Smallest ``|det(1 + I_k X)|`` over k = 1..N (``inf`` when N = 0)."""
    dets = flipped_determinants(build_tangent(spec, coords))[1:]
    return float(np.hypot(dets.real, dets.imag).min(initial=np.inf))


def _sample_coordinates(spec: SpaceSpec, rng: np.random.Generator,
                        radius: float) -> Coordinates:
    fam = spec.family
    if fam in ("AIII", "BDI_even"):
        shape = _payload_shapes(spec)["Z"]
        return Coordinates(family=fam, Z=_disc_sample(rng, shape, radius))
    if fam in ("DIII", "CI"):
        n = spec.n
        Z = np.zeros((n, n), dtype=complex)
        sign = -1.0 if fam == "DIII" else 1.0
        for i in range(n):
            for j in range(n):
                if i + j > n - 1:
                    continue
                if i + j == n - 1:
                    # antidiagonal of Z: free for CI, forced zero for DIII
                    if fam == "CI":
                        Z[i, j] = _disc_sample(rng, (), radius)
                    continue
                z = _disc_sample(rng, (), radius)
                Z[i, j] = z
                Z[n - 1 - j, n - 1 - i] = sign * z
        return Coordinates(family=fam, Z=Z)
    if fam == "CII":
        shape = _payload_shapes(spec)["Z1"]
        return Coordinates(
            family=fam,
            Z1=_disc_sample(rng, shape, radius),
            Z2=_disc_sample(rng, shape, radius),
        )
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    return Coordinates(
        family=fam,
        Z1=_disc_sample(rng, (n1, n2), radius),
        Z2=_disc_sample(rng, (n1, n2), radius),
        w1=_disc_sample(rng, (n1,), radius),
        w2=_disc_sample(rng, (n2,), radius),
        s=float(rng.uniform(-radius, radius)),
    )


def coordinates_to_json(spec: SpaceSpec, coords: Coordinates) -> dict:
    payload = {}
    shapes = _payload_shapes(spec)
    for name in shapes:
        if name == "s":
            payload["s"] = float(coords.s)
        elif name.startswith("w"):
            vec = np.asarray(getattr(coords, name), dtype=complex)
            payload[name] = [[z.real, z.imag] for z in vec]
        else:
            payload[name] = rectangular_to_json(getattr(coords, name))
    return {"family": spec.family, "params": spec.params_dict(), "payload": payload}


def coordinates_from_payload(spec: SpaceSpec, payload: dict) -> Coordinates:
    """Build coordinates from the JSON payload dict for ``spec``."""
    shapes = _payload_shapes(spec)
    fields = {}
    for name, shape in shapes.items():
        if name == "s":
            if "s" in payload:
                fields["s"] = float(payload["s"])
            continue
        if name not in payload:
            raise ValueError(f'payload is missing field "{name}" for family {spec.family}')
        raw = payload[name]
        if name.startswith("w"):
            vec = np.array([pair_to_complex(z) for z in raw], dtype=complex)
            if vec.shape != shape:
                raise ValueError(f'payload field "{name}" has length {vec.shape}, expected {shape}')
            fields[name] = vec
        else:
            fields[name] = rectangular_from_json(raw, shape)
    return Coordinates(family=spec.family, **fields)


def coordinates_from_json(obj: dict) -> tuple[SpaceSpec, Coordinates]:
    if not isinstance(obj, dict):
        raise ValueError("coordinates JSON must be an object")
    for key in ("family", "params", "payload"):
        if key not in obj:
            raise ValueError(f'coordinates JSON is missing field "{key}"')
    spec = spec_from_family(obj["family"], **{k: int(v) for k, v in obj["params"].items()})
    return spec, coordinates_from_payload(spec, obj["payload"])


# --- tangent construction --------------------------------------------------

class CoordinateError(ValueError):
    """Raised when a payload violates its family constraints."""


def _check_shape(name: str, arr, shape) -> np.ndarray:
    A = np.asarray(arr, dtype=complex)
    if A.shape != tuple(shape):
        raise CoordinateError(f"{name} has shape {A.shape}, expected {tuple(shape)}")
    if A.size and not np.all(np.isfinite(A.view(float))):
        raise CoordinateError(f"{name} has non-finite entries")
    return A


def build_tangent(spec: SpaceSpec, coords: Coordinates) -> np.ndarray:
    """Assemble the tangent matrix for ``spec`` from its free coordinates.

    The result is skew-Hermitian, anti-invariant under the involution, and
    satisfies the family reflection condition exactly, because every
    dependent block is filled from the single stored copy.
    """
    if coords.family != spec.family:
        raise CoordinateError(
            f"coordinates are tagged {coords.family!r}, spec is {spec.family!r}")
    fam = spec.family
    N = spec.ambient
    X = np.zeros((N, N), dtype=complex)
    tol = 1e-12

    if fam in ("AIII", "DIII", "CI"):
        h = spec.m if fam == "AIII" else spec.n
        Z = _check_shape("Z", coords.Z, _payload_shapes(spec)["Z"])
        if fam == "DIII" and max_abs(Z + antitranspose(Z)) > tol:
            raise CoordinateError("DIII payload must satisfy Z + antitranspose(Z) = 0")
        if fam == "CI" and max_abs(Z - antitranspose(Z)) > tol:
            raise CoordinateError("CI payload must satisfy Z - antitranspose(Z) = 0")
        X[:h, h:] = Z
        X[h:, :h] = -Z.conj().T
        return X

    if fam == "CII":
        p, q = spec.p, spec.q
        Z1 = _check_shape("Z1", coords.Z1, (p, q))
        Z2 = _check_shape("Z2", coords.Z2, (p, q))
        s0, s1, s2, s3 = 0, p, p + q, p + 2 * q
        X[s0:s1, s1:s2] = Z1
        X[s0:s1, s2:s3] = Z2
        X[s1:s2, s0:s1] = -Z1.conj().T
        X[s1:s2, s3:] = antitranspose(Z2)
        X[s2:s3, s0:s1] = -Z2.conj().T
        X[s2:s3, s3:] = -antitranspose(Z1)
        X[s3:, s1:s2] = -conj_antitranspose(Z2)
        X[s3:, s2:s3] = conj_antitranspose(Z1)
        return X

    if fam == "BDI_even":
        h, q = spec.p // 2, spec.q
        Z = _check_shape("Z", coords.Z, (h, q))
        X[:h, h:h + q] = Z
        X[h:h + q, :h] = -Z.conj().T
        X[h:h + q, h + q:] = -antitranspose(Z)
        X[h + q:, h:h + q] = conj_antitranspose(Z)
        return X

    # BDI with both parameters odd: outer involution, middle 2x2 torus slot
    n1, n2 = (spec.p - 1) // 2, (spec.q - 1) // 2
    Z1 = _check_shape("Z1", coords.Z1, (n1, n2))
    Z2 = _check_shape("Z2", coords.Z2, (n1, n2))
    w1 = _check_shape("w1", coords.w1, (n1,)).reshape(n1, 1)
    w2 = _check_shape("w2", coords.w2, (n2,)).reshape(n2, 1)
    s = float(coords.s)
    b = _block_starts(block_sizes(spec))
    m1, m2 = b[2], b[3]  # the two middle positions

    X[b[0]:b[1], b[1]:b[2]] = Z1
    X[b[1]:b[2], b[0]:b[1]] = -Z1.conj().T
    X[b[0]:b[1], b[4]:b[5]] = Z2
    X[b[4]:b[5], b[0]:b[1]] = -Z2.conj().T
    X[b[1]:b[2], b[5]:b[6]] = -antitranspose(Z2)
    X[b[5]:b[6], b[1]:b[2]] = conj_antitranspose(Z2)
    X[b[4]:b[5], b[5]:b[6]] = -antitranspose(Z1)
    X[b[5]:b[6], b[4]:b[5]] = conj_antitranspose(Z1)

    X[b[0]:b[1], m1:m1 + 1] = w1
    X[b[0]:b[1], m2:m2 + 1] = -w1
    X[m1, b[0]:b[1]] = -w1.conj().ravel()
    X[m2, b[0]:b[1]] = w1.conj().ravel()
    X[m1, b[5]:b[6]] = antitranspose(w1).ravel()
    X[m2, b[5]:b[6]] = -antitranspose(w1).ravel()
    X[b[5]:b[6], m1:m1 + 1] = -antitranspose(w1.conj().T).reshape(n1, 1)
    X[b[5]:b[6], m2:m2 + 1] = antitranspose(w1.conj().T).reshape(n1, 1)

    X[b[1]:b[2], m1:m1 + 1] = w2
    X[b[1]:b[2], m2:m2 + 1] = w2
    X[m1, b[1]:b[2]] = -w2.conj().ravel()
    X[m2, b[1]:b[2]] = -w2.conj().ravel()
    X[m1, b[4]:b[5]] = -antitranspose(w2).ravel()
    X[m2, b[4]:b[5]] = -antitranspose(w2).ravel()
    X[b[4]:b[5], m1:m1 + 1] = antitranspose(w2.conj().T).reshape(n2, 1)
    X[b[4]:b[5], m2:m2 + 1] = antitranspose(w2.conj().T).reshape(n2, 1)

    X[m1, m1] = 1j * s
    X[m2, m2] = -1j * s
    return X


# --- validation ------------------------------------------------------------

@dataclass
class TangentReport:
    """Worst-case violation of each membership constraint."""

    violations: dict[str, float]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tolerance for v in self.violations.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.violations, key=self.violations.get)
        return name, self.violations[name]


def validate_tangent(spec: SpaceSpec, X, tol: float = 1e-9) -> TangentReport:
    """Report how far ``X`` is from the tangent space of ``spec``.

    Checks skew-Hermitianity, anti-invariance under the involution, the
    family reflection condition, and vanishing outside the allowed block
    support.  Always returns a report; nothing is raised.
    """
    X = np.asarray(X, dtype=complex)
    N = spec.ambient
    if X.shape != (N, N):
        raise ValueError(f"matrix has shape {X.shape}, ambient size is {N}")
    v = {
        "skew_hermitian": max_abs(X + X.conj().T),
        "involution_anti_invariance": max_abs(involution_apply(spec, X) + X),
        "block_support": max_abs(np.where(support_mask(spec), 0.0, X)),
    }
    if spec.so_like:
        v["reflection"] = max_abs(X + antitranspose(X))
    elif spec.sp_like:
        half = N // 2
        I = leading_signature(N, half)
        v["reflection"] = max_abs(X + I @ antitranspose(X) @ I)
    return TangentReport(violations=v, tolerance=tol)


# --- coroot exponent systems -------------------------------------------------

@dataclass(frozen=True)
class CorootSystem:
    """Integer diagonal exponent vectors driving the intrinsic product form.

    ``vectors[k-1]`` is the exponent vector attached to the k-th determinant
    ratio for ``k in product_indices``.  When a terminal factor exists, the
    ratio at ``terminal_index`` enters with exponent ``terminal_numerators/2``
    instead (the numerators are even for every family here, so the combined
    exponents are integers).
    """

    vectors: tuple[np.ndarray, ...]
    product_indices: tuple[int, ...]
    terminal_index: Optional[int] = None
    terminal_numerators: Optional[np.ndarray] = None

    def vector(self, k: int) -> np.ndarray:
        return self.vectors[k - 1]


def _e_diff(N: int, entries: dict[int, int]) -> np.ndarray:
    """Diagonal integer vector from 1-based position -> value pairs."""
    h = np.zeros(N, dtype=int)
    for pos, val in entries.items():
        h[pos - 1] += val
    return h


def coroots(spec: SpaceSpec) -> CorootSystem:
    """The family's exponent vectors and terminal rule.

    Rank-degenerate corners get their obvious systems: the n = 1
    orthogonal case is a single point (empty product, every diagonal
    entry 1), and the smallest doubly-odd layout has a bare torus slot
    whose diagonal is the first determinant ratio itself.
    """
    fam = spec.family
    N = spec.ambient

    if fam == "AIII":
        vecs = tuple(_e_diff(N, {k: 1, k + 1: -1}) for k in range(1, N))
        return CorootSystem(vectors=vecs, product_indices=tuple(range(1, N)))

    if fam in ("DIII", "CI"):
        n = spec.n
        if fam == "DIII" and n < 2:
            return CorootSystem(vectors=(), product_indices=())
        vecs = [
            _e_diff(N, {k: 1, k + 1: -1, 2 * n - k: 1, 2 * n - k + 1: -1})
            for k in range(1, n)
        ]
        if fam == "CI":
            vecs.append(_e_diff(N, {n: 1, n + 1: -1}))
            return CorootSystem(vectors=tuple(vecs), product_indices=tuple(range(1, n + 1)))
        h_n = _e_diff(N, {n - 1: 1, n: 1, n + 1: -1, n + 2: -1})
        vecs.append(h_n)
        numerators = -vecs[n - 2] + h_n
        return CorootSystem(
            vectors=tuple(vecs),
            product_indices=tuple(range(1, n)),
            terminal_index=n,
            terminal_numerators=numerators,
        )

    if fam == "CII":
        n = spec.p + spec.q
        vecs = [
            _e_diff(N, {k: 1, k + 1: -1, 2 * n - k: 1, 2 * n - k + 1: -1})
            for k in range(1, n)
        ]
        vecs.append(_e_diff(N, {n: 1, n + 1: -1}))
        return CorootSystem(vectors=tuple(vecs), product_indices=tuple(range(1, n + 1)))

    # both BDI layouts share the reflection-paired vectors below the middle
    r = N // 2
    if N == 2:
        return CorootSystem(vectors=(_e_diff(N, {1: 1, 2: -1}),),
                            product_indices=(1,))
    vecs = [
        _e_diff(N, {k: 1, k + 1: -1, N - k: 1, N - k + 1: -1})
        for k in range(1, r)
    ]
    if N % 2 == 0:
        h_r = _e_diff(N, {r - 1: 1, r: 1, r + 1: -1, r + 2: -1})
        vecs.append(h_r)
        numerators = -vecs[r - 2] + h_r
    else:
        h_r = _e_diff(N, {r: 2, r + 2: -2})
        vecs.append(h_r)
        numerators = h_r.copy()
    return CorootSystem(
        vectors=tuple(vecs),
        product_indices=tuple(range(1, r)),
        terminal_index=r,
        terminal_numerators=numerators,
    )
