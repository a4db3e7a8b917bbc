"""CSV text of a float table: a versioned banner, the header, and each value
as ``'%.15g' % value`` writes it, byte for byte.

CPython prints a 15-digit ``%g`` through dtoa's bignum path, about six times
the cost of printing a 15-digit integer. So each block of cells finds its
digits in numpy, exactly:

- e = floor(log10|x|) and q = fl(|x| * 10**(14 - e)). The power is an exact
  float64 for e in [-8, 14], and Dekker's TwoProduct (with a Veltkamp split)
  gives q's rounding error exactly, so q + err is the exact scaled value.
- That value lies in [1e14, 1e15) exactly when e is |x|'s decimal exponent,
  and q >= 1e14 tests it: a value just below 1e14 whose q rounds up to it
  rounds to the same 15 digits at e - 1 (with a carry). A log10 off by one,
  or a cell outside 1e-8 <= |x| < 1e15, fails the test.
- Since q < 2**50, q - floor(q) - 1/2 is exact, and a nonzero one outweighs
  err. So (q - floor(q) - 1/2) + err has the sign of the exact fraction less
  a half, which rounds the value to 15 digits, and is 0 only at an exact
  decimal tie, which goes to even, as dtoa does.
- The 15 digits stay a float64 integer x < 2**50, so integer work is float
  work: fl(x / 10**k) is an integer exactly when 10**k divides x (its
  rounding error is below a quarter of the 10**-k gap to one), and its
  floor is x // 10**k. The floors split x into four 4-digit groups (the
  first with a leading 0), and a cached table of each group's trailing
  zeros gives the significant digits.

Then each cell is four little-endian uint64 words, a NUL wherever it has no
character; its slot, chosen by (sign, e, significant digits, last column),
picks cached words and masks:

- a prefix word: the sign, and ``0.000`` (e from -4 to -1) or a zero's ``0``;
- two digit words: ASCII ``0`` and the 15 digits, from a cached table of the
  groups 0000 to 9999, the integer part shifted one byte down over the ``0``,
  the point OR-ed in after it and the digits not shown masked off;
- a suffix word: ``e-05`` to ``e-08`` and the separator.

Zeros have slots too. A cell the kernel does not cover (NaN, ±inf,
0 < |x| < 1e-8, |x| >= 1e15, or digits that carry to 16) has its NUL-padded
``'%.15g' % x`` in its first three words and the separator alone in its
suffix. Deleting the NULs leaves the block's text, written at once.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import __version__
from .errors import ShapeError

CSV_DIGITS = 15
# CSV cells (rows x columns) formatted and written as one block: a buffer and
# a kernel working set bounded whatever the table's width (a 64-site
# lattice's 193 columns: 21 rows), and blocks large enough that the kernel's
# fixed numpy calls per block stay small beside its per-cell cost
CSV_BLOCK_CELLS = 4096

# decimal exponents the kernel covers: 10**(CSV_DIGITS - 1 - e) is an exact float64
_LOWEST, _HIGHEST = -8, CSV_DIGITS - 1
_EXPONENTS = _HIGHEST - _LOWEST + 1
_SCALE = np.array([float(10**k) for k in range(_EXPONENTS)])
_NEGATIVE = (_EXPONENTS + 1) * CSV_DIGITS * 2  # a negative cell's offset among the slots
_FALLBACK = 2 * _NEGATIVE  # the two slots (a comma, a newline) of cells written by '%.15g' % x
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: a float64 splits into two 26-bit halves


def _split(a: np.ndarray) -> tuple:
    t = a * _SPLITTER
    high = t - (t - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)


@cache
def _quartets() -> tuple:
    """(each 4-digit group 0000 to 9999 as its ASCII bytes in a '<u4', and its trailing zeros)."""
    table = np.moveaxis(np.indices((10,) * 4, dtype=np.uint8) + ord("0"), 0, -1).copy()  # [a, b, c, d]: b"abcd"
    zeros = np.zeros((10, 10, 10, 10), dtype=np.intp)
    zeros[..., 0], zeros[..., 0, 0], zeros[..., 0, 0, 0], zeros[0, 0, 0, 0] = 1, 2, 3, 4
    tables = table.reshape(-1, 4).view("<u4").ravel(), zeros.ravel()
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


@cache
def _words() -> tuple:
    """(prefix, point and suffix words by slot; shown-digit and integer masks by slot // 2), four
    '<u8' words a row, laid out as a cell's; the integer masks apply to the digit words shifted one
    byte down. Slots are flat in the order of an array indexed by [negative, e - _LOWEST, significant
    digits - 1, last column], after the last exponent the zeros, then the two _FALLBACK slots."""
    tables = [np.zeros((rows, 32), dtype=np.uint8) for rows in (_FALLBACK + 2, _NEGATIVE + 1, _NEGATIVE + 1)]
    ends = tables[0][:_FALLBACK].reshape(2, _EXPONENTS + 1, CSV_DIGITS, 2, 32)
    shown, integer = (table[:_NEGATIVE].reshape(2, _EXPONENTS + 1, CSV_DIGITS, 1, 32) for table in tables[1:])
    exponents = range(_LOWEST, _HIGHEST + 2)  # the last: the zeros
    prefixes = [b"-" * negative + (b"0" if e > _HIGHEST else b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                for negative in (0, 1) for e in exponents]
    ends[..., :8] = np.array(prefixes, dtype="S8").view(np.uint8).reshape(2, -1, 1, 1, 8)
    suffixes = [(b"e-0%d" % -e if e < -4 else b"") + separator for e in exponents for separator in (b",", b"\n")]
    ends[..., 24:] = np.array(suffixes, dtype="S8").view(np.uint8).reshape(-1, 1, 2, 8)
    tables[0][_FALLBACK:, 24] = (ord(","), ord("\n"))
    point = np.array([1 if e < -4 else max(e + 1, 0) for e in exponents[:-1]] + [0])[:, None, None]  # its byte
    digits, byte = np.arange(1, CSV_DIGITS + 1)[:, None], np.arange(16)  # byte 0: the leading 0
    ends[..., 8:24] = (ord(".") * ((byte == point) & (digits > point) & (point > 0)))[..., None, :]
    shown[..., 8:24] = (255 * ((byte > point) & (byte <= digits)))[..., None, :]
    shown[:, _EXPONENTS] = 0  # a zero shows no digits
    integer[..., 8:24] = (255 * (byte < point))[..., None, :]
    tables = tuple(table.view("<u8") for table in tables)
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


def _rounded(a: np.ndarray) -> tuple:
    """(e, the 15 digits as a float64 integer, covered) of each |x| of a block: both are in range
    everywhere, and e is |x|'s decimal exponent and the digits exact where covered."""
    covered = (a >= 1e-8) & (a < 1e15)  # False for NaN
    a = np.where(covered, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), _LOWEST, _HIGHEST).astype(np.int64)
    k = _HIGHEST - e
    q = a * _SCALE[k]
    a_high, a_low = _split(a)
    s_high, s_low = _SCALE_HIGH[k], _SCALE_LOW[k]
    err = ((a_high * s_high - q) + a_high * s_low + a_low * s_high) + a_low * s_low
    covered &= (q >= 1e14) & (q < 1e15)
    q = np.where(covered, q, 1e14)
    floor = np.floor(q)
    above_half = (q - floor - 0.5) + err
    half = 0.5 * floor
    whole = floor + ((above_half > 0) | ((above_half == 0) & (np.floor(half) != half)))  # a tie goes to even
    covered &= whole < 1e15  # no carry to 16 digits
    return e, whole, covered


def _slots(block: np.ndarray) -> tuple:
    """(slot, digit words) of each cell of a (rows, width) float block, flat: the digit words, a
    (2, cells) '<u8' array, hold ASCII 0 and the cell's 15 digits."""
    e, whole, covered = _rounded(np.abs(block))
    zero = block == 0
    last = np.arange(block.shape[1]) == block.shape[1] - 1
    slot = (np.where(zero, _EXPONENTS, e - _LOWEST) * CSV_DIGITS + CSV_DIGITS - 1) * 2 + last
    slot += np.signbit(block) * _NEGATIVE
    upper = np.floor(whole / 1e8)
    lower = whole - upper * 1e8
    groups = [np.floor(upper / 1e4), None, np.floor(lower / 1e4), None]  # "0ddd", "dddd", "dddd", "dddd"
    groups[1], groups[3] = upper - groups[0] * 1e4, lower - groups[2] * 1e4
    groups = [group.astype(np.intp).ravel() for group in groups]
    quartets, trailing = _quartets()
    zeros = trailing.take(groups[0])
    for group in groups[1:]:  # a group of four zeros adds its 4 to the trailing zeros of the groups before it
        zeros = (own := trailing.take(group)) + (own == 4) * zeros
    slot -= 2 * zeros.reshape(block.shape)
    words = np.empty((2, block.size, 2), dtype="<u4")
    for index, group in enumerate(groups):
        words[index // 2, :, index % 2] = quartets.take(group)
    return np.where(covered | zero, slot, _FALLBACK + last).ravel(), words.view("<u8")[..., 0]


def _block_text(block: np.ndarray) -> str:
    """The CSV lines of a (rows, width) float block."""
    slot, digits = _slots(block)
    ends, shown, integer = _words()
    # four words a cell and one more: from the second byte on, digit words shifted one byte down
    number = np.empty(4 * slot.size + 1, dtype="<u8")
    unshifted = number[:-1].reshape(-1, 4)
    unshifted[:, 1], unshifted[:, 2] = digits
    words = number.view(np.uint8)[1:-7].view("<u8").reshape(-1, 4) & integer.take(slot >> 1, axis=0)
    words |= unshifted & shown.take(slot >> 1, axis=0)
    words |= ends.take(slot, axis=0)
    fallback = np.flatnonzero(slot >= _FALLBACK)
    if fallback.size:
        texts = ["%.15g" % x for x in block.ravel()[fallback].tolist()]
        words[fallback, :3] = np.array(texts, dtype="S24").view("<u8").reshape(-1, 3)  # -1.23456789012345e-308
    return words.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(handle, kind: str, columns, table: np.ndarray) -> None:
    """Write a versioned banner, the header and one line per row of the real 2-D ``table``, one
    column per name in ``columns`` (else ShapeError, or ValueError if not real), to ``handle``,
    each value as ``'%.15g' % value`` writes it (CSV_DIGITS significant digits), byte for byte.

    Lines go out a block of CSV_BLOCK_CELLS // width rows (at least one) at a time,
    one write per block; the module docstring says how a block's text is made.
    """
    columns, table = tuple(columns), np.asarray(table)
    if table.dtype.kind not in "biuf":
        raise ValueError(f"write_csv needs a table of real numbers, got dtype {table.dtype}")
    if table.ndim != 2 or not columns or table.shape[1] != len(columns):
        width = table.shape[1] if table.ndim == 2 else f"none ({table.ndim}-D)"
        raise ShapeError(f"write_csv got {len(columns)} column names for a table of width {width}")
    table = table.astype(np.float64, copy=False)
    handle.write(f"# entrodyn {__version__} {kind}\n{','.join(columns)}\n")
    rows = max(1, CSV_BLOCK_CELLS // table.shape[1])
    for start in range(0, len(table), rows):
        handle.write(_block_text(table[start : start + rows]))
