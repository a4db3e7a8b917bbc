"""CSV text of a float table: a versioned banner, the header, and each value
as ``'%.15g' % value`` writes it, byte for byte.

CPython prints a 15-digit ``%g`` through dtoa's bignum path, about six times
the cost of printing a 15-digit integer. So each block of cells finds its
digits in numpy, exactly, and prints them as integers:

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
  significant digits are 15 less the zeros stripped.
- The cell is written by a template chosen by (sign, e, significant
  digits), with the decimal point, a leading ``0.000``, the zero-padded
  fraction width and the ``e-05`` built in, so it takes one or two ``%d``
  arguments.

Zeros have templates too. A cell the kernel does not cover (NaN, ±inf,
0 < |x| < 1e-8, |x| >= 1e15, or digits that carry to 16) is written by
``'%.15g' % x`` into its own template slot.
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
_NEGATIVE = (_EXPONENTS + 1) * CSV_DIGITS * 2  # a negative cell's offset among the templates
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: a float64 splits into two 26-bit halves


def _split(a: np.ndarray) -> tuple:
    t = a * _SPLITTER
    high = t - (t - a)
    return high, a - high


_SCALE_HIGH, _SCALE_LOW = _split(_SCALE)


@cache
def _templates() -> np.ndarray:
    """Cell templates, flat in the order of an array indexed by [negative, e - _LOWEST, significant
    digits - 1, last column]; the index after the last exponent holds the zeros. Each ends with ","
    or, in the last column, "\\n"."""
    cells = []
    for sign in ("", "-"):
        for e in range(_LOWEST, _HIGHEST + 2):
            for digits in range(1, CSV_DIGITS + 1):
                fraction = digits - 1 - max(e, 0)
                if e > _HIGHEST:
                    text = "0"
                elif -4 <= e < 0:
                    text = "0." + "0" * (-e - 1) + "%d"
                else:
                    text = "%d" + (f".%0{fraction}d" if fraction > 0 else "") + (f"e-{-e:02d}" if e < 0 else "")
                cells += [sign + text + ",", sign + text + "\n"]
    return np.array(cells, dtype=object)


def _block_text(block: np.ndarray) -> str:
    """The CSV lines of a (rows, width) float block."""
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
    fraction = np.maximum(digits - 1 - np.maximum(e, 0), 0)
    small = (e < 0) & (e >= -4)  # 0.000ddd: the stripped digits are the one argument
    arguments = np.empty(block.shape + (2,), dtype=np.int64)
    arguments[..., 0] = np.where(small, stripped, np.floor(whole / _TENS[_HIGHEST - np.maximum(e, 0)]))
    tens = _TENS[fraction]
    arguments[..., 1] = stripped - np.floor(stripped / tens) * tens  # np.fmod is ~30 times slower
    used = np.empty(arguments.shape, dtype=bool)
    used[..., 0] = covered
    used[..., 1] = covered & ~small & (fraction > 0)
    zero = block == 0
    last = np.arange(block.shape[1]) == block.shape[1] - 1
    slot = (np.where(zero, _EXPONENTS, e - _LOWEST) * CSV_DIGITS + digits - 1) * 2 + last
    slot += np.signbit(block) * _NEGATIVE
    cells = _templates().take(slot.ravel())
    for index in np.flatnonzero(~(covered | zero)):
        cells[index] = "%.15g" % block.flat[index] + cells[index][-1]
    return "".join(cells.tolist()) % tuple(arguments[used].tolist())


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
