"""Hamiltonian and jump-operator models: parsing, spectral normalization
and eigenspace bookkeeping.

Every input text format (Pauli sums, dense matrices, jump lists, state
files, oracles) is parsed here, from a str or from a file's UTF-8 bytes, and
so are the comma lists of numbers that CLI options take.  ``_strip`` alone
reads lines; a dense matrix in the layout ``format_dense_matrix`` writes is
read whole, by ``_written_layout``, before any line is split.

A :class:`Hamiltonian` always carries a normalized spectrum together with the
affine map back to the caller's original energy units.  Degenerate eigenvalues
(gap below ``CLUSTER_RTOL * ||H||``) are merged into one level whose
eigenvectors span the shared eigenspace, so the tolerance was exercised when
``dim > n_levels``.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from . import numkernel as nk
from .kernels import _require_memory

CLUSTER_RTOL = 1e-9      # eigenvalue clustering, relative to ||H||; read at call time

_LETTERS = {"I": (0, (1, 1)), "X": (1, (1, 1)), "Y": (1, (1j, -1j)), "Z": (0, (1, -1))}


class SpectrumMap(NamedTuple):
    """Affine map from normalized eigenvalues back to the original spectrum."""

    scale: float
    shift: float

    def to_original(self, h):
        return self.scale * np.asarray(h) + self.shift


class Hamiltonian(NamedTuple):
    """Hermitian operator with cached spectral decomposition.

    ``eigenvalues`` are distinct and ascending.  ``vectors`` holds orthonormal
    eigenvectors as columns and ``levels[j]`` the index of the eigenvalue that
    column j belongs to; clustered columns are contiguous, so eigenspace k is
    spanned by ``vectors[:, levels == k]``.  The methods that apply the
    decomposition to a state check that state's shape and dimension; the
    channels read their kernel on ``eigenvalues`` by ``channel.level_kernel``.
    A state vector whose node count is below ``dim`` skips this decomposition
    (``channel.evolve_matrix``): its kernel is read at every eigenvalue of the
    matrix, unmerged, which moves the output by at most sup |dK| times the
    width of a cluster merged here.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    levels: np.ndarray
    spectrum_map: SpectrumMap

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_levels(self) -> int:
        return len(self.eigenvalues)

    @property
    def matrix(self) -> np.ndarray:
        """V diag(eigenvalues[levels]) V^dag, rebuilt from the clustered
        decomposition on every access."""
        m = (self.vectors * self.eigenvalues[self.levels]) @ self.vectors.conj().T
        return 0.5 * (m + m.conj().T)

    def components(self, v: np.ndarray) -> np.ndarray:
        """Stack of eigenspace components P_k v, shape (n_levels, dim), of a
        normalized state ``v`` of dimension ``dim``."""
        v = nk.require_state(v, self.dim)
        # P_k v sums the columns of V diag(V^dag v) that belong to level k,
        # and each level's columns are contiguous
        starts = np.flatnonzero(np.diff(self.levels, prepend=-1))
        return np.add.reduceat(self.vectors * (self.vectors.conj().T @ v), starts, axis=1).T

    def dephase(self, kernel: np.ndarray, state: np.ndarray) -> np.ndarray:
        """sum_ab kernel[a, b] P_a rho P_b for an (n_levels, n_levels) kernel.

        Every single-Hermitian-jump channel is this map, with ``kernel[a, b]``
        a function of the eigenvalue gap h_a - h_b.  A density matrix rho is
        multiplied entrywise in the eigenbasis, V (K o V^dag rho V) V^dag
        with K taken at [levels[i], levels[j]].  A state vector x stands for
        rho = x x^dag and stays a vector until here: with C =
        ``components(x)``, shape (n_levels, dim), the sum is C^T K conj(C),
        O(n_levels dim^2) instead of four dim^3 products.
        """
        if np.ndim(state) == 1:
            comps = self.components(state)
            return comps.T @ kernel @ comps.conj()
        rho = nk.require_square(state)
        if rho.shape[0] != self.dim:
            raise ValidationError(f"dimension mismatch: rho {rho.shape[0]} vs Hamiltonian {self.dim}")
        v, vh = self.vectors, self.vectors.conj().T
        return v @ (kernel[np.ix_(self.levels, self.levels)] * (vh @ rho @ v)) @ vh


def _cluster(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ascending eigenvalues that lie within the cluster tolerance.

    Each group opens at its lowest eigenvalue and takes every later one
    within the tolerance of it, so no group spans more than the tolerance
    (a run of small gaps does not chain into one wide group).  Returns each
    group's first eigenvalue, which no rounding-level neighbour moves, and
    the group index of every eigenvalue.
    """
    norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    tol = CLUSTER_RTOL * (norm if norm > 0.0 else 1.0)
    levels = np.empty(eigs.size, dtype=np.int64)
    level, start, firsts = -1, -math.inf, []
    for i, e in enumerate(eigs.tolist()):
        if e - start > tol:
            level, start = level + 1, e
            firsts.append(e)
        levels[i] = level
    return np.array(firsts), levels


def normalize_spectrum(h: np.ndarray) -> Hamiltonian:
    """Build a Hamiltonian with spectrum in [0, 1].

    When the input spectrum already sits inside [0, 1] it is kept as is with
    an identity map; otherwise the affine map h -> (h - h_min) / (h_max -
    h_min) is applied and its inverse recorded.  A constant operator (zero
    spectral width) normalizes to the single level 0 (``n_levels == 1``).
    """
    w, v = nk.herm_eig(h)
    eigs, levels, smap = normalize_levels(w)
    return Hamiltonian(eigs, v, levels, smap)


def normalize_levels(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, SpectrumMap]:
    """The clustered levels of ascending eigenvalues ``w`` as ``normalize_spectrum``
    maps them, each eigenvalue's level index and the spectrum map."""
    reps, levels = _cluster(w)
    lo, hi = float(reps[0]), float(reps[-1])
    if len(reps) == 1:
        return np.zeros(1), levels, SpectrumMap(1.0, lo)
    if lo >= 0.0 and hi <= 1.0:
        return reps, levels, SpectrumMap(1.0, 0.0)
    return (reps - lo) / (hi - lo), levels, SpectrumMap(hi - lo, lo)


def spectral_gap(ham: Hamiltonian, beta: int) -> float:
    """Distance from eigenvalue ``beta`` to the rest of the spectrum; the one
    check of a preparation target: an integer index, two levels or more."""
    if not (isinstance(beta, numbers.Integral) and 0 <= beta < ham.n_levels):
        raise ValidationError(f"eigenspace index {beta} out of range")
    if ham.n_levels < 2:
        raise ValidationError("spectral gap undefined for a single-eigenvalue spectrum")
    others = np.delete(ham.eigenvalues, beta)
    return float(np.min(np.abs(others - ham.eigenvalues[beta])))


class SpectralState(NamedTuple):
    """Eigenspace decomposition of a pure state against a Hamiltonian.

    ``coeffs[k]`` is the (nonnegative) weight ||P_k v||, and ``components[k]``
    the normalized eigenspace component when the weight is nonzero.
    """

    coeffs: np.ndarray
    components: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.coeffs ** 2


def decompose_state(v: np.ndarray, ham: Hamiltonian) -> SpectralState:
    comps = ham.components(v)
    coeffs = np.linalg.norm(comps, axis=1)
    safe = np.where(coeffs > 0, coeffs, 1.0)
    normalized = comps / safe[:, None]
    normalized[coeffs == 0] = 0.0
    if not abs(float(np.sum(coeffs ** 2)) - 1.0) <= nk.UNIT_NORM_ATOL:
        raise ValidationError("eigenspace weights do not sum to 1; eigenbasis incomplete?")
    return SpectralState(coeffs, normalized)


class LindbladSpec(NamedTuple):
    """Ordered jump operators of a purely dissipative Lindbladian."""

    jumps: tuple[np.ndarray, ...]
    dim: int


def lindblad_spec(jumps) -> LindbladSpec:
    """Check a jump list's structure: a non-empty list of Hermitian matrices
    of one dimension, each of any operator norm."""
    mats = tuple(map(nk.require_hermitian, jumps))
    if not mats:
        raise ValidationError("empty jump list")
    for k, m in enumerate(mats):
        if m.shape != mats[0].shape:
            raise ValidationError(f"jump {k} has dim {m.shape[0]}, expected {mats[0].shape[0]}")
    return LindbladSpec(mats, mats[0].shape[0])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _strip(text: str | bytes) -> list[tuple[int, str]]:
    """The one line reader of every input format: (line number, content)
    pairs, where ``#`` starts a comment and lines left blank are dropped.
    Bytes are decoded as UTF-8, and bytes that are not UTF-8 are an error
    naming the offset of the first bad one."""
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"byte {exc.start}: not UTF-8 text") from None
    lines = ((i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(text.splitlines(), start=1))
    return [(i, line) for i, line in lines if line]


def _finite(where: str, token: str, what: str, nonnegative: bool = False,
            integer: bool = False):
    """``float(token)`` if it is finite (and >= 0 when ``nonnegative``); ``float``
    alone takes "nan" and "inf", which would only fail far downstream.  With
    ``integer`` the token must be an integer literal, returned as an ``int``.
    The error starts with ``where``, the line or the option read."""
    try:
        x = int(token) if integer else float(token)
        ok = integer or math.isfinite(x)
    except ValueError:
        ok = False
    if ok and (x >= 0 or not nonnegative):
        return x
    rule = ("an integer" if integer else "a finite number >= 0" if nonnegative
            else "a finite real number")
    raise ValidationError(f"{where}: {what} {token!r} is not {rule}")


def parse_number_list(option: str, text: str, integer: bool = False) -> list:
    """The numbers of a comma-list option (``--beta 1,2,4``), empty items skipped:
    each a finite number, or an integer with ``integer``; an error names ``option``."""
    return [_finite(option, tok, "value", integer=integer)
            for tok in map(str.strip, text.split(",")) if tok]


def parse_pauli_sum(text: str | bytes) -> np.ndarray:
    """Parse "coefficient PauliString" lines into a dense Hermitian matrix."""
    return _pauli_sum(_strip(text))


def _pauli_sum(lines: list[tuple[int, str]]) -> np.ndarray:
    """A letter maps |b> to v[b] |b xor f> (``_LETTERS`` holds f, v), so a Pauli string is
    the signed permutation P|j> = phase(j) |j xor flip>: one O(2^n) scatter per term."""
    terms = []
    width = None
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'coefficient PauliString', got {line!r}")
        coeff = _finite(f"line {lineno}", parts[0], "coefficient")
        string = parts[1].upper()
        bad = set(string) - set("IXYZ")
        if bad:
            raise ValidationError(f"line {lineno}: invalid Pauli letter(s) {sorted(bad)}")
        if width is None:
            width = len(string)
        elif len(string) != width:
            raise ValidationError(
                f"line {lineno}: Pauli string length {len(string)} != {width} from earlier lines"
            )
        terms.append((coeff, string))
    if not terms:
        raise ValidationError("empty Pauli-sum file")
    _require_memory(16 * 4 ** width, "Pauli sum", f"dense matrix at {width} qubits",
                    "use fewer qubits")
    cols = np.arange(2 ** width)
    h = np.zeros((cols.size, cols.size), dtype=complex)
    for coeff, string in terms:
        flip, phase = 0, np.ones(1, dtype=complex)
        for f, v in map(_LETTERS.get, string):
            flip, phase = 2 * flip + f, (phase[:, None] * v).ravel()
        h[cols ^ flip, cols] += coeff * phase
    return h


def parse_dense_matrix(text: str | bytes) -> np.ndarray:
    """Parse the dense text format: one row per line, entries "re,im"."""
    mat = _written_layout(text)
    return _dense_matrix(_strip(text)) if mat is None else mat


# The bytes of a number ("inf", "infinity" and "nan" in any case too)
_NUMBER_BYTES = b"0123456789+-.eEiInNfFtTyYaA"


def _written_layout(text: str | bytes) -> np.ndarray | None:
    """The matrix of a dense text in the layout ``format_dense_matrix`` writes,
    converted by one ``np.loadtxt`` call (numpy's C reader, correctly rounded),
    or None for any other text.  The layout: entries of number bytes with one
    comma in each, one blank between entries, lines ended by a newline byte
    (the last one optional), no comment and no blank line.  One check of the
    whole text finds it: with its number bytes deleted it is ``rows`` copies
    of one row, commas with a blank between each two and a newline after the
    last.  Blanks become commas; where the conversion refuses what the check
    lets through (an empty or malformed number) the answer is None too."""
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode()
    skeleton = text.translate(None, _NUMBER_BYTES)
    row = skeleton[:skeleton.find(b"\n") + 1] or skeleton + b"\n"
    ends = text.endswith(b"\n")
    rows = skeleton.count(row) + (not ends)
    if (row != b", " * (row.count(b",") - 1) + b",\n"
            or len(skeleton) != rows * len(row) - (not ends)
            or not (ends or skeleton.endswith(row[:-1]))):
        return None
    try:    # a list of lines, not one stream: the call touches fewer fresh pages
        return np.loadtxt(text.replace(b" ", b",").split(b"\n"), delimiter=",",
                          comments=None, ndmin=2).view(complex)
    except ValueError:
        return None


def _dense_matrix(lines: list[tuple[int, str]]) -> np.ndarray:
    """Entries "re,im", each real number as ``float`` reads it ("nan" and "inf"
    bit for bit; the checks where the matrix is used reject them), entry by
    entry: the format's definition for every layout (tabs, runs of blanks,
    comments and CRLF among them), which names the first malformed entry and
    takes what ``float`` alone does (underscores, non-ASCII digits and
    blanks)."""
    if not lines:
        raise ValidationError("empty dense-matrix file")
    rows = []
    for lineno, line in lines:
        row = []
        for tok in line.split():
            try:
                re_s, im_s = tok.split(",")
                row += float(re_s), float(im_s)
            except ValueError:
                raise ValidationError(f"line {lineno}: malformed entry {tok!r}, expected 're,im'") from None
        rows.append(row)
    if len({len(r) for r in rows}) != 1:
        raise ValidationError("rows have inconsistent lengths")
    return np.array(rows).view(complex)


_BLOCK = 1 << 14        # doubles per block (whole rows, or one wider row): 1.4 MiB of slots and masks
# One value's slot in a block: a sign, the 17 digits (A), "0.000", the 17
# digits again (B), an exponent and the separator.  A layout keeps some of
# these bytes: A up to the point and B after it in fixed notation, "0." and
# zeros before B below 1, A's first digit and "e-0" after B in exponent form.
_SLOT = b"-" + b"0" * 17 + b"0.000" + b"0" * 17 + b"e-00" + b"\n"
_A, _DOT, _B, _EXP = 1, 19, 23, 43      # offsets of digit A0, the point, digit B0, exponent digit
# The kernel's range, 10^-6 < |x| < 10^17: there 16 - E <= 22, so 10^(16 - E)
# is a double (5^22 < 2^53).  The double 1e-6 lies below 10^-6, outside.
_LO, _HI = 1e-6, 1e17
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo with 26 significant bits in each part."""
    c = 134217729.0 * a                  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product: (p, err) with p + err == a * 10^k exactly, for 0 <= k <= 22
    (every such 10^k is a double) and a * 10^k far from overflow and underflow."""
    b = _POW10[k]
    ah, al = _split(a)
    bh, bl = _split(b)
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built on first use: every 4-digit group 0000-9999
    as its ASCII bytes in one uint32, each group's trailing zeros, and the
    slot mask of each layout, row (E + 6) * 17 + k - 1 for exponent E in
    [-6, 16] and k = 1..17 significant digits, then one row for a zero.
    A layout writes the digits before the point from A (E + 1 of them in
    fixed notation, 1 in exponent form, none below 1) and the rest of the k
    from B, after the point."""
    ten = np.frombuffer(b"0123456789", dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        groups[..., place] = ten.reshape((10,) + (1,) * (3 - place))
    groups = groups.reshape(10 ** 4, 4).view(np.uint32).ravel()
    zeros = np.zeros(10 ** 4, dtype=np.uint8)
    for step in (10, 100, 1000, 10 ** 4):
        zeros[::step] += 1
    e = np.arange(-6, 17)[:, None, None]
    k = np.arange(1, 18)[:, None]
    c = np.arange(len(_SLOT))
    small, sci = (-4 <= e) & (e < 0), e < -4
    head = np.where(e >= 0, e + 1, sci)
    masks = (((_A <= c) & (c < _A + head))
             | (small & ((c == _DOT - 1) | ((_DOT < c) & (c < _DOT - e))))
             | ((c == _DOT) & (head < k))
             | ((_B + head <= c) & (c < _B + k))
             | (sci & (_EXP - 3 <= c) & (c <= _EXP))
             | (c == len(_SLOT) - 1))
    zero = (c == _DOT - 1) | (c == len(_SLOT) - 1)
    return groups, zeros, np.vstack([masks.reshape(-1, c.size), zero])


def _format_block(v: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.17g' % x`` and its separator from ``seps``, for each x of ``v``.

    For 10^-6 < |x| < 10^17 the 17 significant digits are the integer nearest
    |x| * 10^(16 - E) (ties to even), E the decimal exponent; Dekker's product
    gives that product exactly as hi + lo, and hi, in [10^16, 10^17], is an
    even integer, so rint(lo) rounds the sum.  E starts as floor(log10 |x|),
    which can be one off next to a power of ten, and moves to where the exact
    product lies in [10^16, 10^17).  The sum never rounds up to 10^17: the
    double below each power of ten in the range lies further below it than
    half a unit of the 17th digit.  The digits come from the 4-digit table,
    and a mask picks each value's layout out of its slot, as %g lays it out:
    fixed notation for -4 <= E < 17, trailing zeros and a bare point
    stripped.  Zeros get their own layout, so that a real matrix's imaginary
    parts stay in the array arithmetic; every other value (nan, inf,
    subnormals, the rest outside the range) is written by '%.17g' itself.
    """
    groups, zeros, masks = _text_tables()
    ax = np.abs(v)
    zero = ax == 0.0
    fast = (ax > _LO) & (ax < _HI)
    ax = np.where(fast, ax, 1.0)                     # the rest run as 1.0, then are overwritten
    e = np.floor(np.log10(ax)).astype(np.int64)
    np.clip(e, -6, 16, out=e)                        # one off at the range's ends, as anywhere
    hi, lo = _two_product(ax, 16 - e)
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    off = np.flatnonzero(down | up)
    if off.size:
        e[off] += up[off].astype(np.int64) - down[off]
        hi[off], lo[off] = _two_product(ax[off], 16 - e[off])
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    top, rest = np.divmod(n, 10 ** 8)
    quad = np.empty((v.size, 5), dtype=np.int32)
    quad[:, 0], mid = np.divmod(top.astype(np.int32), 10 ** 8)
    quad[:, 1], quad[:, 2] = np.divmod(mid, 10 ** 4)
    quad[:, 3], quad[:, 4] = np.divmod(rest.astype(np.int32), 10 ** 4)
    text = groups[quad].view(np.uint8)[:, 3:]        # the 17 digits; group 0 is "000" + d0
    tz = zeros[quad[:, 4]]
    run = quad[:, 4] == 0
    for col in (3, 2, 1):
        tz += run * zeros[quad[:, col]]
        run &= quad[:, col] == 0

    cls = np.where(zero, len(masks) - 1, (e + 6) * 17 + 16 - tz)
    mask = np.take(masks, cls, axis=0)
    mask[:, 0] = np.signbit(v)
    slot = np.empty_like(mask, dtype=np.uint8)
    slot[:] = np.frombuffer(_SLOT, dtype=np.uint8)
    slot[:, _A:_A + 17] = text
    slot[:, _B:_B + 17] = text
    slot[:, _EXP] = 48 - e
    slot[:, -1] = seps[:v.size]

    other = np.flatnonzero(~(fast | zero))
    if other.size:
        width = len(_SLOT) - 1                   # all but the separator, NUL-padded
        rare = np.array(["%.17g" % x for x in v[other].tolist()], dtype=f"S{width}")
        rare = rare.view(np.uint8).reshape(other.size, width)
        slot[other, :-1] = rare
        mask[other, :-1] = rare != 0
    return slot[mask]


def format_dense_matrix(a: np.ndarray, newline: bytes = b"\n") -> bytes:
    """One line per row, entries "re,im", each real number byte for byte as
    ``'%.17g' % x`` writes it: round-trip exact except NaN's sign and payload.
    The text is ASCII bytes, each row ended by ``newline`` (a record writes
    JSON's escaped newline, the two bytes backslash and n, there).

    The rows are formatted in blocks of about ``_BLOCK`` doubles by
    ``_format_block`` and the blocks joined once; a matrix with no rows or no
    columns gives one newline per row, and at least one.
    """
    x = np.ascontiguousarray(a, dtype=complex).view(float)
    rows, width = x.shape
    if rows == 0 or width == 0:
        return newline * max(rows, 1)
    step = max(1, _BLOCK // width)
    seps = np.tile(np.frombuffer(b", ", dtype=np.uint8), width // 2)
    seps[-1] = ord("\n")
    seps = np.tile(seps, min(step, rows))
    blocks = (_format_block(x[r:r + step].ravel(), seps) for r in range(0, rows, step))
    if newline != b"\n":
        blocks = (block.tobytes().replace(b"\n", newline) for block in blocks)
    return b"".join(blocks)


def load_hamiltonian_text(text: str | bytes) -> np.ndarray:
    """Parse either supported Hamiltonian format, read from the first line
    with content: a dense entry holds a comma, a Pauli line's first token
    never does.  A dense matrix in the written layout is read whole first."""
    mat = _written_layout(text)
    if mat is not None:
        return mat
    lines = _strip(text)
    if not lines:
        raise ValidationError("empty Hamiltonian file")
    return (_dense_matrix if "," in lines[0][1].split()[0] else _pauli_sum)(lines)


def parse_jump_list(text: str | bytes) -> list[tuple[str, float]]:
    """Parse a jump list, "path [rate]" per line, into (path, rate) pairs; the
    rate defaults to 1 and must be a finite number >= 0, and a list with no
    entry is rejected."""
    entries = []
    for lineno, line in _strip(text):
        path, *rate = line.split()
        if len(rate) > 1:
            raise ValidationError(f"line {lineno}: expected 'path [rate]', got {line!r}")
        entries.append((path, _finite(f"line {lineno}", rate[0], "rate", nonnegative=True)
                              if rate else 1.0))
    if not entries:
        raise ValidationError("empty jump list")
    return entries


def parse_oracle(text: str | bytes) -> tuple[int, int]:
    """Parse an oracle file: whitespace-separated values, each 0 or 1, a
    nonzero power of two of them.  Returns the address bits n and the
    witness count, the number of 1s."""
    size = witnesses = 0
    for lineno, line in _strip(text):
        for tok in line.split():
            if tok not in ("0", "1"):
                raise ValidationError(f"line {lineno}: oracle value {tok!r} is not 0 or 1")
            size += 1
            witnesses += tok == "1"
    if size == 0:
        raise ValidationError("empty oracle")
    if size & (size - 1):
        raise ValidationError(f"oracle length {size} is not a power of two")
    return size.bit_length() - 1, witnesses


def parse_state_vector(text: str | bytes) -> np.ndarray:
    """A state file: one row or one column of "re,im" amplitudes, finite and
    not all zero, returned as a unit vector."""
    rows = parse_dense_matrix(text)
    nrm = np.linalg.norm(rows)
    if 1 not in rows.shape or not 0.0 < nrm < math.inf:
        raise ValidationError("a state file holds one row or one column of finite amplitudes, "
                              f"not all zero; got shape {rows.shape}, norm {float(nrm)!r}")
    return rows.reshape(-1) / nrm
