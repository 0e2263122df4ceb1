"""Orthonormal discrete wavelet transforms with dyadic coefficient addressing.

Two representations of one transform live here.  The dense reference,
:func:`build_matrix`, materializes the n x n orthonormal matrix by
cascading one-level periodized analysis matrices; it costs O(n**3) time and
O(n**2) memory and serves as the oracle that tests compare against.  The
computation goes through :class:`SupportBasis`, one per (family, window
length m, boundary): the estimator only needs the O(L log n) coefficients
(L taps) whose basis functions reach the newest sample.  Their rows are
kept as one array that acts on the window itself (the reflect fold
absorbed), built from one pyramid synthesis (Mallat 1989) per band (the
approximation row, or one level's detail rows, which are circular shifts
of one another) in O(n L bands + |S| m), bands <= log2(n) + 1.
:meth:`SupportBasis.sliding` gives the coefficients of up to m consecutive
windows of a series as one FFT correlation with the rows, O(|S| m log m)
rather than O(|S| m**2); its FFT product and lags are written into two
scratch buffers that each thread keeps for reuse (:func:`_scratch`), so a
sweep allocates no large temporaries.  The MAD noise scale's finest-level
coefficients need only the high-pass taps: :func:`finest` is the first
high-pass step of :func:`pyramid_analysis`.

Row order, shared by both: the single approximation row first, then detail
rows coarse-to-fine; within a level, positions run left to right (oldest to
newest sample).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import groupby

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

# Largest support basis (its |S| rows at the full transform length n, then
# the kept rows and the row spectra a sweep keeps) that support_basis builds,
# and the largest block-sum table of a Haar prefix sweep.  db8's |S| n 8
# bytes are ~180 MB at transform length 2**17 (a reflect-folded series of
# 2**16) and ~7.6 GB at 2**22, where a build would end in an out-of-memory
# kill rather than an error.
SUPPORT_BUDGET_BYTES = 1 << 30


def _require_budget(what: str, need: int, held: int = 0) -> None:
    """Raise :class:`HorizonTooLarge` when ``need`` more bytes beside the
    ``held`` ones would exceed ``SUPPORT_BUDGET_BYTES``."""
    if held + need > SUPPORT_BUDGET_BYTES:
        beside = f" beside the {held / 2**20:.0f} MB held" if held else ""
        raise HorizonTooLarge(
            f"{what}: {need / 2**20:.0f} MB{beside} is over the "
            f"{SUPPORT_BUDGET_BYTES / 2**20:.0f} MB budget"
        )


# Largest scratch array kept per thread for reuse.  glibc may hand a freed
# block of this size back to the operating system (unmapped, or trimmed off
# the heap, depending on what the process freed before), and then a sweep
# that allocates its buffers afresh faults their pages back in.  Allocated
# per call, the db8 product and lags faulted ~110 pages per row of the
# paper tables' (25, 500) stacks, and the Haar sweeps 5-9 per horizon and
# trial of the tvscale flow's (10, 256..2048) stacks, at some lengths of
# the package's path.  1 MiB holds the FFT product and the lags at every
# db8 level up to windows of 512 (series of up to 1023 samples) and the
# Haar block-sum table of a 2048-sample series; larger requests allocate
# per call, so a long horizon does not keep its largest level's buffers.
_SCRATCH_BYTES = 1 << 20

_kept = threading.local()


def _scratch(slot: int, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An uninitialized array of ``shape``: a view of this thread's kept
    buffer ``slot`` (0 or 1) when it fits in ``_SCRATCH_BYTES``, else a new
    array.  A kept buffer grows to the largest request it has served, so a
    process never holds more than its sweeps have used.  The view is valid
    until the next request for the same slot in the same thread: a caller
    must be done with it before calling anything that asks for that slot.
    Per thread because numpy releases the GIL inside FFTs and ufunc loops."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes > _SCRATCH_BYTES:
        return np.empty(shape, dtype)
    buffers = getattr(_kept, "buffers", None)
    if buffers is None:
        buffers = _kept.buffers = [np.empty(0, np.uint8), np.empty(0, np.uint8)]
    if buffers[slot].nbytes < nbytes:
        buffers[slot] = np.empty(nbytes, np.uint8)
    return buffers[slot][:nbytes].view(dtype).reshape(shape)


def _empty_aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of ``shape`` whose data start on a
    64-byte boundary.  numpy aligns data to 16 bytes only, and a block that
    glibc maps on its own starts 16 bytes past a page boundary.  The rows of
    a support basis are read by one BLAS vector-matrix product per window:
    on a 2-vCPU AVX-512 Xeon with OpenBLAS 0.3.31, 8 windows of 1024 took
    66 us against db8's 101 rows at a 64-byte boundary and 102 us at 16
    bytes past one, which set select's speed by where the rows landed."""
    nbytes = math.prod(shape) * 8
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(np.float64).reshape(shape)


@dataclass(frozen=True)
class WaveletFamily:
    """A wavelet family given by its orthonormal low-pass filter taps and the
    quadrature-mirror detail filter ``highpass[l] = (-1)**l * filter[L-1-l]``
    (both read-only)."""

    name: str
    filter: np.ndarray
    highpass: np.ndarray


def get_family(name: str) -> WaveletFamily:
    """The family named ``name`` (case-insensitive; ``db1`` is Haar).  Each
    family is built once, so every caller shares its tap arrays.  A name
    that is not a known family, or not a string, raises ``KeyError``."""
    key = name.lower() if isinstance(name, str) else None
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
    _check_length(n)
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


def _cached_by_family(fn):
    """``lru_cache(maxsize=64)`` of fn(family_name, ...), keyed on the
    family's canonical name, so "DB8" and "db8" (or "haar", "HAAR" and
    "db1") share one entry; ``cache_clear`` and ``cache_info`` are the
    cache's own."""
    cached = lru_cache(maxsize=64)(fn)
    by_family = wraps(fn)(lambda family_name, *args: cached(get_family(family_name).name, *args))
    by_family.cache_clear, by_family.cache_info = cached.cache_clear, cached.cache_info
    return by_family


@_cached_by_family
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


def _filter_down(taps: np.ndarray, *pieces: np.ndarray) -> np.ndarray:
    """Periodized filter-and-decimate of the vector x that the ``pieces``
    make laid end to end along their last axis (their leading axes, the
    same for every piece, are kept): out[..., i] = sum_l taps[l] *
    x[..., (2i + l) % m], the rows of one block of :func:`_analysis_pair`
    applied to x, taps wrapping as often as needed.

    The pieces and their wrap (as many periods as the taps need) are
    written into one buffer; one strided view of it holds samples 2i ..
    2i + L - 1 as row i, so one product with the taps gives every output."""
    lead = pieces[0].shape[:-1]
    m = sum(piece.shape[-1] for piece in pieces)
    # numpy hands a lone vector to BLAS, which rounds differently from a
    # stack: it goes through as row 0 of a stack of two
    stack = (2,) if math.prod(lead) == 1 else lead
    # numpy hands a lone output row to its dot: at least two are formed
    count = max(m // 2, 2)
    # the sample axis outermost in memory makes numpy sum each output in
    # tap order, as a loop over the taps would
    buf = np.empty((2 * count + len(taps) - 2,) + stack[::-1])
    ext = buf.T
    start = 0
    for piece in pieces:
        ext[..., start : start + piece.shape[-1]] = piece
        start += piece.shape[-1]
    for start in range(m, ext.shape[-1], m):
        stop = min(start + m, ext.shape[-1])
        ext[..., start:stop] = ext[..., : stop - start]
    step = ext.strides[-1]
    rows = np.ndarray(
        stack + (count, len(taps)), buffer=buf, strides=ext.strides[:-1] + (2 * step, step)
    )
    out = (rows @ taps)[..., : m // 2]
    return out if stack == lead else out[0].reshape(lead + (-1,))


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
        details.append(_filter_down(g, approx))
        approx = _filter_down(h, approx)
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
    """The rows that reach the newest sample of a window w of m samples.

    The window is transformed as a vector of length n: w itself under the
    periodic boundary (n = m), its fold ``[w[::-1], w]`` under reflect
    (n = 2m).  ``support`` holds the row indices i of the dense transform W
    with ``|W[i, n-1]| > SUPPORT_EPS`` (ascending, as in
    :func:`last_column_support`) and ``weights`` the entries
    ``W[support, n-1]``.  ``rows`` (|S| x m) acts on w: ``W[support]`` under
    periodic, ``W[support, :m][:, ::-1] + W[support, m:]`` under reflect.
    """

    family: WaveletFamily
    n: int
    support: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def coefficients(self, windows: np.ndarray) -> np.ndarray:
        """Support coefficients of each window (length m) along the last axis.

        Each window is its own vector-matrix product, so its coefficients do
        not depend on the windows stacked with it; one matrix product of the
        stack does not promise that (BLAS may round edge rows differently)."""
        return (windows[..., None, :] @ self.rows.T)[..., 0, :]

    def sliding(self, y: np.ndarray, count: int) -> np.ndarray:
        """:meth:`coefficients` of the ``count`` consecutive windows
        ``y[..., j : j + m]``, j = 0 .. count - 1, of each series along the
        last axis of y, where 1 <= count <= m: shape (..., count, |S|).

        One FFT correlation of each series with every support row instead of
        a product with the stacked windows.  With c the power of two >=
        count (at least 16, at most m), the rows are cut into m/c blocks of
        c samples; each block meets its stretch of y in an FFT of length 2c
        and the block spectra are summed (uniformly partitioned
        correlation), so the cost is O(|S| (m + c log c)) per series:
        O(|S| m log m) for a full level, O(|S| m) for a single window.  The
        block spectra of the rows are computed on first use and kept on the
        basis.  Every FFT and product transforms each series on its own, so
        a series' coefficients do not depend on the series stacked with it.
        With one block, the spectra x segment product and the lags go to
        this thread's scratch (:func:`_scratch`); the coefficients returned
        are a new array.
        """
        m = self.rows.shape[1]
        if not 1 <= count <= m or y.shape[-1] < count + m - 1:
            raise LengthMismatch(
                f"{count} windows of length {m} need 1 <= count <= {m} and "
                f"{count + m - 1} samples, got {y.shape[-1]}"
            )
        # blocks shorter than 16 saved no time on a single window of 256 to
        # 8192 samples; they only enlarge the kept spectra, 2 (c + 1) / c
        # times the rows
        c = min(m, 1 << max(4, (count - 1).bit_length()))
        spectra = self._block_spectra(c)
        lead = y.shape[:-1]
        if c == m:  # one block: the plain correlation
            segment = np.fft.rfft(y[..., : count + m - 1], 2 * m)
            product = _scratch(0, lead + spectra.shape, np.complex128)
            np.multiply(spectra, segment[..., None, :], out=product)
            lags = np.fft.irfft(product, 2 * m, out=_scratch(1, lead + (len(spectra), 2 * m)))
            # a product too large for the scratch is freed before the copy
            # is allocated, so the copy can reuse its memory (holding both
            # raised the T = 4096 horizon's peak RSS by ~10 MB)
            del product
            # copy out the lags used: the scratch is rewritten by the next call
            return np.swapaxes(lags[..., :count], -1, -2).copy()
        # row block b meets y[b c : b c + 2c], zero past the last sample read
        padded = np.zeros(lead + (m + c,))
        padded[..., : count + m - 1] = y[..., : count + m - 1]
        blocks = padded.reshape(lead + (-1, c))
        segments = np.fft.rfft(np.concatenate([blocks[..., :-1, :], blocks[..., 1:, :]], axis=-1))
        product = (spectra @ np.swapaxes(segments, -1, -2)[..., None])[..., 0]
        return np.fft.irfft(product, 2 * c, axis=-2)[..., :count, :]

    def _block_spectra(self, c: int) -> np.ndarray:
        """conj(rfft) of each length-c block of each row, zero-padded to 2c:
        (|S|, m + 1) for one block, else (c + 1, |S|, m/c), the layout the
        block sum reads as one matrix product per frequency.

        Raises :class:`HorizonTooLarge`, before computing them, when the new
        spectra would take the rows and kept spectra over
        ``SUPPORT_BUDGET_BYTES``."""
        if c not in self._spectra:
            rows = self.rows
            _require_budget(
                f"the {self.family.name} row spectra at transform length {self.n}",
                16 * rows.shape[0] * (rows.shape[1] // c) * (c + 1),
                rows.nbytes + sum(kept.nbytes for kept in self._spectra.values()),
            )
            blocks = rows.reshape(len(rows), -1, c)
            spectra = np.conj(np.fft.rfft(blocks, 2 * c))
            spectra = spectra[:, 0] if blocks.shape[1] == 1 else spectra.transpose(2, 0, 1)
            spectra = np.ascontiguousarray(spectra)
            spectra.setflags(write=False)
            self._spectra[c] = spectra
        return self._spectra[c]


def finest(family: WaveletFamily, windows: np.ndarray, boundary: str) -> np.ndarray:
    """Finest-level detail coefficients (the last n/2 of a transform of
    length n) of each window along the last axis, any leading axes kept,
    arranged per ``boundary`` (the reflect fold, or the window itself under
    periodic): the first high-pass step of :func:`pyramid_analysis`."""
    pieces = (windows[..., ::-1], windows) if boundary == "reflect" else (windows,)
    return _filter_down(family.highpass, *pieces)


def _require_boundary(boundary: str) -> None:
    """ValueError unless boundary is "reflect" or "periodic": the one rule."""
    if boundary not in ("reflect", "periodic"):
        raise ValueError(f"boundary must be 'reflect' or 'periodic', got {boundary!r}")


@_cached_by_family
def support_basis(family_name: str, m: int, boundary: str) -> SupportBasis:
    """The :class:`SupportBasis` of ``family_name`` for windows of m samples
    under ``boundary`` (``"reflect"`` or ``"periodic"``).

    The support is read off the pyramid analysis of the unit impulse at the
    newest sample (the last column of W).  The rows come in bands: the
    approximation row, and the detail rows of each level.  The rows of
    level j are circular shifts of one another, by n / 2**j per position,
    so each band's first row (its atom) is the pyramid synthesis of its
    unit coefficient vector and every other row is gathered from it,
    folded onto the window during the gather under reflect.  Cost
    O(n L bands + |S| m), with bands <= log2(n) + 1; no |S| x n array is
    formed.  Raises :class:`HorizonTooLarge`, before the synthesis, when
    |S| n 8 bytes would exceed ``SUPPORT_BUDGET_BYTES``.
    """
    family = get_family(family_name)
    _require_boundary(boundary)
    n = 2 * m if boundary == "reflect" else m
    _check_length(n)
    impulse = np.zeros(n)
    impulse[-1] = 1.0
    column = pyramid_analysis(family, impulse)
    support = np.flatnonzero(np.abs(column) > SUPPORT_EPS)
    _require_budget(f"the {family.name} support basis at transform length {n}", len(support) * n * 8)
    # the bands: row 0 (bit length 0), then the rows 2**j .. 2**(j+1) - 1 of
    # each level j (bit length j + 1)
    bands = [list(band) for _, band in groupby(support.tolist(), int.bit_length)]
    units = np.zeros((len(bands), n))
    units[np.arange(len(bands)), [band[0] for band in bands]] = 1.0
    atoms = pyramid_synthesis(family, units)
    rows = _empty_aligned((len(support), m))
    r = 0
    for atom, band in zip(atoms, bands):
        # row i of level j is the atom shifted right by (i - band[0]) n / 2**j,
        # and n / 2**j = 2n >> (j + 1); two periods make every shift a slice
        ext = np.concatenate((atom, atom)) if len(band) > 1 else atom
        for i in band:
            stop = len(ext) - (i - band[0]) * (2 * n >> i.bit_length())
            row = ext[stop - n : stop]
            if n != m:
                np.add(row[:m][::-1], row[m:], out=rows[r])
            else:
                rows[r] = row
            r += 1
    arrays = (support, column[support], rows)
    for a in arrays:
        a.setflags(write=False)
    return SupportBasis(family, n, *arrays)
