"""Orthonormal discrete wavelet transforms with dyadic coefficient addressing.

Two representations of one transform live here.  The dense reference,
:func:`build_matrix`, materializes the n x n orthonormal matrix by
cascading one-level periodized analysis matrices; it costs O(n**3) time and
O(n**2) memory and serves as the oracle that tests compare against.  The
computation goes through :class:`SupportBasis`: the latest-value estimator
only needs the coefficients whose basis functions reach the newest sample,
O(L log n) of them for a filter of L taps, and their rows are built by
pyramid synthesis of unit coefficient vectors (Mallat 1989) in O(n L |S|)
without forming anything of size n x n.  One window's coefficients are a
product with those rows; :meth:`SupportBasis.sliding` gives those of up to m
consecutive length-m windows of a series as one FFT correlation with the
rows, O(|S| m log m) rather than O(|S| m**2) for the stacked windows.

Row order, shared by both: the single approximation row first, then detail
rows coarse-to-fine; within a level, positions run left to right (oldest to
newest sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import HorizonTooLarge, LengthMismatch, NonPowerOfTwo

# Minimum-phase Daubechies low-pass taps, normalized so the taps sum to
# sqrt(2).  DBk has k vanishing moments and 2k taps; Haar is DB1.  Values
# carry 20 significant digits (double precision uses ~17).
_FILTERS: dict[str, tuple[float, ...]] = {
    "haar": (
        0.7071067811865475244,
        0.7071067811865475244,
    ),
    "db2": (
        0.48296291314453414337,
        0.83651630373780790558,
        0.22414386804201338103,
        -0.12940952255126038117,
    ),
    "db3": (
        0.332670552950082616,
        0.80689150931109257649,
        0.4598775021184915701,
        -0.1350110200102545887,
        -0.085441273882026661693,
        0.035226291885709536603,
    ),
    "db4": (
        0.23037781330889650086,
        0.71484657055291564709,
        0.63088076792985890788,
        -0.027983769416859854211,
        -0.18703481171909308408,
        0.030841381835560763627,
        0.032883011666885199735,
        -0.010597401785069032105,
    ),
    "db5": (
        0.16010239797419291448,
        0.60382926979718967054,
        0.72430852843777292773,
        0.13842814590132073151,
        -0.24229488706638203186,
        -0.032244869584638374648,
        0.077571493840045713523,
        -0.0062414902127982742742,
        -0.012580751999081999469,
        0.003335725285473771278,
    ),
    "db6": (
        0.11154074335010946362,
        0.49462389039845308568,
        0.75113390802109535068,
        0.31525035170919762909,
        -0.22626469396543982008,
        -0.12976686756726193556,
        0.097501605587323049102,
        0.027522865530305728626,
        -0.031582039317486029565,
        0.00055384220116149613925,
        0.0047772575109455106396,
        -0.0010773010853084795649,
    ),
    "db7": (
        0.07785205408500917902,
        0.39653931948191730654,
        0.72913209084623511992,
        0.46978228740519312247,
        -0.14390600392856497541,
        -0.22403618499387498264,
        0.071309219266830264751,
        0.080612609151083071913,
        -0.03802993693501441358,
        -0.016574541630666880654,
        0.012550998556099840613,
        0.00042957797292136652113,
        -0.0018016407040474909153,
        0.00035371379997452024845,
    ),
    "db8": (
        0.054415842243104009955,
        0.31287159091429997066,
        0.67563073629728980681,
        0.58535468365420671277,
        -0.015829105256349305667,
        -0.28401554296154692652,
        0.00047248457391328277036,
        0.12874742662047845886,
        -0.01736930100180754617,
        -0.044088253930794751507,
        0.013981027917398281649,
        0.0087460940474057767164,
        -0.0048703529934515743104,
        -0.0003917403733769470463,
        0.00067544940645056936637,
        -0.00011747678412476953373,
    ),
}

FAMILY_NAMES = tuple(_FILTERS)

# |entry| below this is treated as a structural zero of the matrix; true
# zeros of the cascade are exact or <= 1e-15 after rounding.
SUPPORT_EPS = 1e-12

# Largest support basis (rows plus folded rows) that support_basis builds.
# A db8 basis takes ~270 MB at transform length 2**17 (a reflect-folded
# series of 2**16) and ~12 GB at 2**22, which would end in an out-of-memory
# kill rather than an error.
SUPPORT_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True)
class WaveletFamily:
    """A wavelet family given by its orthonormal low-pass filter taps and the
    quadrature-mirror detail filter ``highpass[l] = (-1)**l * filter[L-1-l]``
    (both read-only)."""

    name: str
    filter: np.ndarray
    highpass: np.ndarray

    @property
    def vanishing_moments(self) -> int:
        return len(self.filter) // 2


def get_family(name: str) -> WaveletFamily:
    """The family named ``name`` (case-insensitive; ``db1`` is Haar).  Each
    family is built once, so every caller shares its tap arrays."""
    key = name.lower()
    if key == "db1":
        key = "haar"
    if key not in _FILTERS:
        raise KeyError(f"unknown wavelet family {name!r}; choose from {FAMILY_NAMES}")
    return _family(key)


@lru_cache(maxsize=None)
def _family(key: str) -> WaveletFamily:
    taps = np.array(_FILTERS[key], dtype=np.float64)
    highpass = (-1.0) ** np.arange(len(taps)) * taps[::-1]
    taps.setflags(write=False)
    highpass.setflags(write=False)
    return WaveletFamily(key, taps, highpass)


@dataclass(frozen=True)
class TransformMatrix:
    """Explicit orthonormal transform with per-row dyadic addresses.

    ``index_map[i]`` is ``("approx", -1, 0)`` for the approximation row and
    ``("detail", j, k)`` for the detail row at level j (0 = coarsest,
    log2(n)-1 = finest) and position k in 0..2**j - 1.
    """

    family: WaveletFamily
    n: int
    rows: np.ndarray
    index_map: tuple[tuple[str, int, int], ...] = field(repr=False)

    @property
    def levels(self) -> int:
        return self.n.bit_length() - 1


@dataclass(frozen=True)
class CoefficientVector:
    """Wavelet coefficients sharing the dyadic addressing of their transform."""

    values: np.ndarray
    index_map: tuple[tuple[str, int, int], ...] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.values)


def _analysis_pair(family: WaveletFamily, m: int) -> tuple[np.ndarray, np.ndarray]:
    """One-level periodized analysis: (m/2 x m) low-pass and high-pass blocks.

    Filters longer than m wrap circularly with accumulation, which keeps the
    stacked matrix exactly orthogonal for any even m.
    """
    h = family.filter
    g = family.highpass
    half = m // 2
    lo = np.zeros((half, m))
    hi = np.zeros((half, m))
    for i in range(half):
        for l in range(len(h)):
            c = (2 * i + l) % m
            lo[i, c] += h[l]
            hi[i, c] += g[l]
    return lo, hi


def build_matrix(family: WaveletFamily, n: int) -> TransformMatrix:
    """Construct the n x n orthonormal transform matrix for ``family``.

    Args:
        family: wavelet family (see :func:`get_family`).
        n: signal length, a power of two >= 2.  Filters longer than the
            signal wrap circularly.

    Row order is approximation first, then details coarse-to-fine, which for
    Haar reproduces the textbook matrix layout exactly.
    """
    if n < 2 or (n & (n - 1)) != 0:
        raise NonPowerOfTwo(f"transform length must be 2**k with k >= 1, got {n}")

    approx = np.eye(n)  # rows of the running approximation basis
    details: list[np.ndarray] = []  # finest first
    m = n
    while m >= 2:
        lo, hi = _analysis_pair(family, m)
        details.append(hi @ approx)
        approx = lo @ approx
        m //= 2

    rows = np.vstack([approx] + details[::-1])
    index_map: list[tuple[str, int, int]] = [("approx", -1, 0)]
    for j in range(n.bit_length() - 1):
        index_map.extend(("detail", j, k) for k in range(2**j))
    rows.setflags(write=False)
    return TransformMatrix(family, n, rows, tuple(index_map))


@lru_cache(maxsize=64)
def cached_matrix(family_name: str, n: int) -> TransformMatrix:
    """Memoized :func:`build_matrix`; safe to share, the matrix is immutable."""
    return build_matrix(get_family(family_name), n)


def forward(W: TransformMatrix, y: np.ndarray) -> CoefficientVector:
    """Analysis transform W @ y with dyadic addressing."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (W.n,):
        raise LengthMismatch(f"expected signal of length {W.n}, got shape {y.shape}")
    return CoefficientVector(W.rows @ y, W.index_map)


def inverse(W: TransformMatrix, beta: CoefficientVector | np.ndarray) -> np.ndarray:
    """Synthesis transform W.T @ beta; exact inverse of :func:`forward`."""
    values = beta.values if isinstance(beta, CoefficientVector) else np.asarray(beta, dtype=np.float64)
    if values.shape != (W.n,):
        raise LengthMismatch(f"expected {W.n} coefficients, got shape {values.shape}")
    return W.rows.T @ values


def last_column_support(W: TransformMatrix) -> list[tuple[int, float]]:
    """Rows whose last-column entry is structurally nonzero, with |W[i, n-1]|.

    These are exactly the coefficients that enter the reconstruction of the
    newest sample; for Haar there are log2(n) + 1 of them.
    """
    col = W.rows[:, -1]
    return [(i, abs(col[i])) for i in range(W.n) if abs(col[i]) > SUPPORT_EPS]


def finest_level_coeffs(beta: CoefficientVector) -> np.ndarray:
    """Detail coefficients at the highest resolution (level log2(n) - 1)."""
    return np.asarray(beta.values[beta.n // 2 :])


# --- pyramid transform and the support basis ---------------------------------


def _check_length(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise NonPowerOfTwo(f"transform length must be 2**k with k >= 1, got {n}")


def _filter_down(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Periodized filter-and-decimate along the last axis.

    out[..., i] = sum_l taps[l] * x[..., (2i + l) % m]: the rows of one block
    of :func:`_analysis_pair` applied to x, taps wrapping as often as needed.
    """
    m = x.shape[-1]
    ext = x[..., np.arange(m + len(taps) - 2) % m]
    out = taps[0] * ext[..., 0 : m - 1 : 2]
    for l in range(1, len(taps)):
        out += taps[l] * ext[..., l : l + m - 1 : 2]
    return out


def _filter_up(
    approx: np.ndarray, detail: np.ndarray, h: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Transpose of one analysis level: x with lo @ x = approx, hi @ x = detail."""
    half = approx.shape[-1]
    m = 2 * half
    ext = np.zeros(approx.shape[:-1] + (m + len(h) - 2,))
    for l in range(len(h)):
        ext[..., l : l + m - 1 : 2] += h[l] * approx + g[l] * detail
    out = ext[..., :m].copy()
    for start in range(m, ext.shape[-1], m):  # fold the wrapped taps back
        chunk = ext[..., start : start + m]
        out[..., : chunk.shape[-1]] += chunk
    return out


def pyramid_analysis(family: WaveletFamily, x: np.ndarray) -> np.ndarray:
    """Coefficients ``build_matrix(family, n).rows @ x`` along the last axis, in
    O(n L) per vector; x may hold a batch of vectors in its leading axes."""
    x = np.asarray(x, dtype=np.float64)
    _check_length(x.shape[-1])
    h, g = family.filter, family.highpass
    details = []  # finest first
    approx = x
    while approx.shape[-1] >= 2:
        details.append(_filter_down(approx, g))
        approx = _filter_down(approx, h)
    return np.concatenate([approx] + details[::-1], axis=-1)


def pyramid_synthesis(family: WaveletFamily, beta: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`pyramid_analysis` (``rows.T @ beta``)."""
    beta = np.asarray(beta, dtype=np.float64)
    n = beta.shape[-1]
    _check_length(n)
    h, g = family.filter, family.highpass
    x = beta[..., :1]
    m = 1
    while m < n:
        x = _filter_up(x, beta[..., m : 2 * m], h, g)
        m *= 2
    return x


@dataclass(frozen=True)
class SupportBasis:
    """The transform rows that reach the newest sample of a length-n vector.

    ``support`` holds the row indices i of the dense transform W with
    ``|W[i, n-1]| > SUPPORT_EPS`` (ascending, as in
    :func:`last_column_support`), ``weights`` the entries ``W[support, n-1]``
    and ``rows`` the rows ``W[support, :]``.  For the reflect boundary, where
    the transformed vector is ``[reversed(w), w]`` for a window w of length
    n/2, ``folded`` absorbs the fold: ``folded @ w == rows @ [w[::-1], w]``.
    """

    family: WaveletFamily
    n: int
    support: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    folded: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def coefficients(self, windows: np.ndarray, *, fold: bool) -> np.ndarray:
        """Support coefficients of each window along the last axis: of the
        window itself (length n) or, with ``fold``, of its reflect fold
        (window length n/2).

        Each window is its own vector-matrix product, so its coefficients do
        not depend on the windows stacked with it; one matrix product of the
        stack does not promise that (BLAS may round edge rows differently)."""
        rows = self.folded if fold else self.rows
        return (windows[..., None, :] @ rows.T)[..., 0, :]

    def sliding(self, y: np.ndarray, count: int, *, fold: bool) -> np.ndarray:
        """:meth:`coefficients` of the ``count`` consecutive windows of y,
        ``y[j : j + r]`` for j = 0 .. count - 1, where r is the window length
        (n/2 with ``fold``, else n) and 1 <= count <= r.

        One FFT correlation of y with every support row instead of a product
        with the stacked windows.  With c the power of two >= count (at
        least 16, at most r), the rows are cut into r/c blocks of c samples;
        each block meets its stretch of y in an FFT of length 2c and the
        block spectra are summed (uniformly partitioned correlation), so the
        cost is O(|S| (r + c log c)): O(|S| r log r) for a full level,
        O(|S| r) for a single window.  The block spectra of the rows are
        computed on first use and kept on the basis.
        """
        r = self.n // 2 if fold else self.n
        if not 1 <= count <= r or len(y) < count + r - 1:
            raise LengthMismatch(
                f"{count} windows of length {r} need 1 <= count <= {r} and "
                f"{count + r - 1} samples, got {len(y)}"
            )
        # blocks shorter than 16 saved no time on a single window of 256 to
        # 8192 samples; they only enlarge the kept spectra, 2 (c + 1) / c
        # times the rows
        c = min(r, 1 << max(4, (count - 1).bit_length()))
        spectra = self._block_spectra(fold, c)
        if c == r:  # one block: the plain correlation
            segment = np.fft.rfft(y[: count + r - 1], 2 * r)
            lags = np.fft.irfft(spectra * segment, 2 * r)
            # copy out the lags used so the 2r lags are freed here; a view
            # would keep them alive through the caller's threshold step
            return np.ascontiguousarray(lags[:, :count].T)
        # row block b meets y[b c : b c + 2c], zero past the last sample read
        padded = np.zeros(r + c)
        padded[: count + r - 1] = y[: count + r - 1]
        blocks = padded.reshape(-1, c)
        segments = np.fft.rfft(np.concatenate([blocks[:-1], blocks[1:]], axis=1))
        product = (spectra @ segments.T[:, :, None])[..., 0]
        return np.fft.irfft(product, 2 * c, axis=0)[:count]

    def _block_spectra(self, fold: bool, c: int) -> np.ndarray:
        """conj(rfft) of each length-c block of each row, zero-padded to 2c:
        (|S|, r + 1) for one block, else (c + 1, |S|, r/c), the layout the
        block sum reads as one matrix product per frequency."""
        key = (fold, c)
        if key not in self._spectra:
            rows = self.folded if fold else self.rows
            blocks = rows.reshape(len(rows), -1, c)
            spectra = np.conj(np.fft.rfft(blocks, 2 * c))
            spectra = spectra[:, 0] if blocks.shape[1] == 1 else spectra.transpose(2, 0, 1)
            spectra = np.ascontiguousarray(spectra)
            spectra.setflags(write=False)
            self._spectra[key] = spectra
        return self._spectra[key]

    def finest(self, windows: np.ndarray, *, fold: bool) -> np.ndarray:
        """Finest-level detail coefficients (the last n/2 of the transform) of
        each window, arranged as in :meth:`coefficients`.

        The periodized vector (the reflect fold or the window itself) and its
        wrap, L - 2 samples for L taps (several periods when the filter is
        longer than the vector), are written into one buffer; one strided view
        of it holds samples 2i .. 2i + L - 1 as row i, so one product with the
        high-pass taps gives every coefficient.  The buffer keeps the sample
        axis outermost in memory, the layout these coefficients' rounding was
        fixed with: a window-major buffer rounds some of them differently in
        the last bit."""
        g = self.family.highpass
        w = windows.shape[-1]
        m = 2 * w if fold else w
        buf = np.empty((m + len(g) - 2,) + windows.shape[:-1])
        ext = buf.T
        if fold:
            ext[..., :w] = windows[..., ::-1]
        ext[..., m - w : m] = windows
        for start in range(m, ext.shape[-1], m):
            stop = min(start + m, ext.shape[-1])
            ext[..., start:stop] = ext[..., : stop - start]
        step = ext.strides[-1]
        rows = np.ndarray(
            ext.shape[:-1] + (m // 2, len(g)), buffer=buf,
            strides=ext.strides[:-1] + (2 * step, step),
        )
        return rows @ g


@lru_cache(maxsize=64)
def support_basis(family_name: str, n: int) -> SupportBasis:
    """The :class:`SupportBasis` of ``family_name`` at transform length n.

    The support is read off the pyramid analysis of the unit impulse at the
    newest sample (that is the last column of W); each support row is the
    pyramid synthesis of its unit coefficient vector.  Cost O(n |S| L).
    Raises :class:`HorizonTooLarge`, before building the rows, when the rows
    and folded rows (|S| n 8 * 1.5 bytes) would exceed
    ``SUPPORT_BUDGET_BYTES``.
    """
    family = get_family(family_name)
    _check_length(n)
    impulse = np.zeros(n)
    impulse[-1] = 1.0
    column = pyramid_analysis(family, impulse)
    support = np.flatnonzero(np.abs(column) > SUPPORT_EPS)
    nbytes = len(support) * n * 8 * 3 // 2
    if nbytes > SUPPORT_BUDGET_BYTES:
        raise HorizonTooLarge(
            f"the {family.name} support basis at transform length {n} needs "
            f"{nbytes / 2**20:.0f} MB, over the {SUPPORT_BUDGET_BYTES / 2**20:.0f} MB budget"
        )
    units = np.zeros((len(support), n))
    units[np.arange(len(support)), support] = 1.0
    rows = pyramid_synthesis(family, units)
    half = n // 2
    folded = rows[:, :half][:, ::-1] + rows[:, half:]
    arrays = (support, column[support], rows, np.ascontiguousarray(folded))
    for a in arrays:
        a.setflags(write=False)
    return SupportBasis(family, n, *arrays)
