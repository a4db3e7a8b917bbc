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
  floor is x // 10**k. Trailing zeros are stripped that way, and the
  significant digits are 15 less the zeros stripped. The same floors split
  x into four 4-digit groups (the first with a leading 0).

Then the block's text is assembled as bytes, with no Python object per cell:

- Each cell has a source row: constant bytes (a NUL, a comma, a newline,
  ``.e-05678`` and a NUL), then its 16 digit bytes, taken as four uint32
  from a cached table of the groups 0000 to 9999.
- A cell's slot, chosen by (sign, e, significant digits, last column),
  names a cached pattern of row offsets that spells its text: the sign, a
  leading ``0.000``, the digits with the decimal point among them, an
  ``e-05`` and the separator, padded with the NUL.
- Gathering every cell's pattern from its row gives the block's bytes
  (one ``take`` per _GATHER_CELLS cells), and deleting the NULs leaves its
  text.

Zeros have slots too. A cell the kernel does not cover (NaN, ±inf,
0 < |x| < 1e-8, |x| >= 1e15, or digits that carry to 16) has its
``'%.15g' % x``, NUL-padded, written over the end of its row, and its slot
copies that text and the separator, in the same gather.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import __version__

CSV_DIGITS = 15
# CSV cells (rows x columns) formatted and written as one block: a buffer and
# a kernel working set bounded whatever the table's width (a 64-site
# lattice's 193 columns: 21 rows), and blocks large enough that the kernel's
# fixed numpy calls per block stay small beside its per-cell cost
CSV_BLOCK_CELLS = 4096

# decimal exponents the kernel covers: 10**(CSV_DIGITS - 1 - e) is an exact float64
_LOWEST, _HIGHEST = -8, CSV_DIGITS - 1
_EXPONENTS = _HIGHEST - _LOWEST + 1
_TENS = np.array([float(10**k) for k in range(CSV_DIGITS + 1)])
_SCALE = np.array([float(10**k) for k in range(_EXPONENTS)])
_NEGATIVE = (_EXPONENTS + 1) * CSV_DIGITS * 2  # a negative cell's offset among the slots
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: a float64 splits into two 26-bit halves


def _split(a: np.ndarray) -> tuple:
    t = a * _SPLITTER
    high = t - (t - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)

# A cell's source row: these bytes, then a 0 and the cell's 15 digits (from offset _DIGITS + 1); a
# fallback cell's row ends with its NUL-padded '%.15g' text instead
_CONSTANTS = b"\0,\n.e-05678\0"
_COMMA, _POINT, _E, _MINUS, _ZERO, _FIVE = 1, 3, 4, 5, 6, 7  # offset 0 is a NUL; a newline follows the comma
_DIGITS = len(_CONSTANTS)
_ROW = _DIGITS + 16
_FALLBACK = 2 * _NEGATIVE  # the two slots (a comma, a newline) of cells written by '%.15g' % x
_TEXT = 22  # the longest '%.15g' text, as in -1.23456789012345e-308
_WIDTH = _TEXT + 1  # and its separator
# Cells per gather. Every array a block allocates stays below glibc's 128 KiB mmap threshold (a gather's
# intp index is 94 KiB): freeing a larger one raises the threshold, and the heap then keeps later ones
# resident (a whole block's 746 KiB index added 0.5 MiB of peak RSS)
_GATHER_CELLS = 512


@cache
def _quartets() -> np.ndarray:
    """The ASCII bytes of each 4-digit group 0000 to 9999, as one uint32 each."""
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table[..., 0] = digits[:, None, None, None]
    table[..., 1] = digits[:, None, None]
    table[..., 2] = digits[:, None]
    table[..., 3] = digits
    table = table.view(np.uint32).ravel()
    table.setflags(write=False)  # shared by every caller
    return table


@cache
def _patterns() -> np.ndarray:
    """Source-row offsets of each slot's text and separator, one _WIDTH row per slot, padded with
    0 (the row's NUL). Slots are flat in the order of an array indexed by [negative, e - _LOWEST, significant
    digits - 1, last column], the index after the last exponent holding the zeros, and then come the
    two _FALLBACK slots."""
    point, zero, digits = bytes([_POINT]), bytes([_ZERO]), bytes(range(_DIGITS + 1, _ROW))
    texts = []  # unsigned, by [e - _LOWEST, significant digits - 1]
    for e in range(_LOWEST, _HIGHEST + 1):
        exponent = bytes([_E, _MINUS, _ZERO, _FIVE - 5 - e]) if e < -4 else b""  # e-05 to e-08
        integer = max(e, 0) + 1
        for d in range(1, CSV_DIGITS + 1):
            if -4 <= e < 0:  # 0.000ddd
                whole, fraction = zero, zero * (-e - 1) + digits[:d]
            else:
                whole, fraction = digits[:integer], digits[integer:d]
            texts.append(whole + point * bool(fraction) + fraction + exponent)
    texts += [zero] * CSV_DIGITS
    table = np.empty((_FALLBACK + 2, _WIDTH), dtype=np.uint8)
    slots = table[:_FALLBACK].reshape(2, _EXPONENTS + 1, CSV_DIGITS, 2, _WIDTH)
    separated = np.array([text + bytes([_COMMA]) for text in texts], dtype=f"S{_WIDTH}")  # NUL-padded
    slots[0, ..., 0, :] = separated.view(np.uint8).reshape(_EXPONENTS + 1, CSV_DIGITS, _WIDTH)
    slots[0, ..., 1, :] = slots[0, ..., 0, :] + (slots[0, ..., 0, :] == _COMMA)
    slots[1, ..., 0] = _MINUS
    slots[1, ..., 1:] = slots[0, ..., :-1]
    table[_FALLBACK:, :_TEXT] = np.arange(_ROW - _TEXT, _ROW)
    table[_FALLBACK:, _TEXT] = (_COMMA, _COMMA + 1)
    table.setflags(write=False)  # shared by every caller
    return table


def _slots(block: np.ndarray) -> tuple:
    """(slot, 15 digits as a float64 integer) of each cell of a (rows, width) float block, flat."""
    a = np.abs(block)
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
    stripped, digits = whole, np.full(block.shape, CSV_DIGITS)
    for zeros in (8, 4, 2, 1):  # at most 15 trailing zeros: strip 8, 4, 2 and 1 where they divide
        quotient = stripped / _TENS[zeros]
        divides = quotient == np.floor(quotient)
        stripped = np.where(divides, quotient, stripped)
        np.subtract(digits, zeros, out=digits, where=divides)
    np.maximum(digits, 1, out=digits)  # 10**15 (a carry to 16 digits) strips 15 zeros: keep its slot in range
    zero = block == 0
    last = np.arange(block.shape[1]) == block.shape[1] - 1
    slot = (np.where(zero, _EXPONENTS, e - _LOWEST) * CSV_DIGITS + digits - 1) * 2 + last
    slot += np.signbit(block) * _NEGATIVE
    return np.where(covered | zero, slot, _FALLBACK + last).ravel(), whole.ravel()


def _block_text(block: np.ndarray) -> str:
    """The CSV lines of a (rows, width) float block."""
    slot, whole = _slots(block)
    rows = np.empty((slot.size, _ROW // 4), dtype=np.uint32)
    rows[:, : _DIGITS // 4] = np.frombuffer(_CONSTANTS, dtype=np.uint32)
    for column in range(_ROW // 4 - 1, _DIGITS // 4 - 1, -1):  # 4 digits at a time from the last, exactly
        higher = np.floor(whole / 1e4)
        rows[:, column] = _quartets().take((whole - higher * 1e4).astype(np.intp))
        whole = higher
    source = rows.view(np.uint8)
    fallback = np.flatnonzero(slot >= _FALLBACK)
    texts = ["%.15g" % x for x in block.ravel()[fallback].tolist()]
    source[fallback, -_TEXT:] = np.array(texts, dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
    source, cells = source.ravel(), np.empty((slot.size, _WIDTH), dtype=np.uint8)
    row = np.arange(0, slot.size * _ROW, _ROW)[:, None]
    for start in range(0, slot.size, _GATHER_CELLS):
        part = slice(start, start + _GATHER_CELLS)
        source.take(_patterns().take(slot[part], axis=0) + row[part], out=cells[part])
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(handle, kind: str, columns, table: np.ndarray) -> None:
    """Write a versioned banner, the header and one line per row of the float ``table``
    to ``handle``, each value as ``'%.15g' % value`` writes it (CSV_DIGITS significant
    digits), byte for byte.

    Lines go out a block of CSV_BLOCK_CELLS // width rows (at least one) at a time,
    one write per block; the module docstring says how a block's text is made.
    """
    handle.write(f"# entrodyn {__version__} {kind}\n{','.join(columns)}\n")
    rows = max(1, CSV_BLOCK_CELLS // table.shape[1])
    for start in range(0, len(table), rows):
        handle.write(_block_text(table[start : start + rows]))
