"""CSV rows of float64 values, each value byte for byte as CPython's ``'%.17g' % x`` writes it.

`rows` formats most values with a vectorised numpy kernel, a correctly rounded binary to
decimal conversion (Gay 1990, "Correctly rounded binary-decimal and decimal-binary
conversions") done in fixed-width integer arithmetic.  It covers the fast domain: ±0 and
FAST_LOW <= |x| < FAST_HIGH, where FAST_LOW is the least double at or above 1e-11 and
FAST_HIGH is 1e16.  A row that holds any other value (infinite, NaN, subnormal, smaller or
larger) is formatted with ``%``, and so is a block that is not float64.

For x = m * 2**e with its 53-bit significand m, the kernel takes

1. k = floor(log10 |x|): an estimate from the binary exponent, raised by one where |x| is
   at least the least double at or above 10**(k + 1);
2. the 17 digits D = round_half_even(x * 10**(16 - k)) = m * 5**q * 2**(e + q), with
   q = 16 - k in [1, 27]: a 64 x 64 -> 128-bit product of m and 5**q (below 2**63) in
   32-bit limbs, then a right shift that rounds on the half and sticky bits.  No double in
   the fast domain rounds up to 10**17, so D always has exactly 17 digits
   (`test_no_fast_double_rounds_up_to_a_power_of_ten`);
3. the text in a 24-byte cell of three little-endian words: the sign at byte 0, the digits
   from byte 6 (from byte 2 in exponent form), where the digits before the point move down
   one byte to make room for it; the point, the ``0.000`` prefixes and the ``e-NN``
   suffixes come from tables by exponent, trailing zeros (and a bare point) are cleared,
   and the separator sits at byte 23.  One pass drops the NUL bytes.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_WORDS = np.dtype("<u8")  # a cell's words, little-endian on every host
_CHUNK = 8192  # values per kernel pass: each temporary is 64 kB, cache-sized (not runtime.BLOCK)


def _least_double_at_least(power: int) -> float:
    near = float(f"1e{power}")  # the nearest double, correctly rounded
    num, den = near.as_integer_ratio()
    if num * 10 ** max(-power, 0) < den * 10 ** max(power, 0):
        near = float(np.nextafter(near, np.inf))
    return near


FAST_LOW = _least_double_at_least(-11)
FAST_HIGH = 1e16
_K = range(-12, 17)  # the exponents k the tables cover, at index k + 12
_POW10_CEIL = np.array([_least_double_at_least(k) for k in _K])
_POW5_LO = np.array([5 ** (16 - k) & 0xFFFFFFFF for k in _K], np.uint64)
_POW5_HI = np.array([5 ** (16 - k) >> 32 for k in _K], np.uint64)
# floor(log10(2**(b - 1023))) + 12 by biased binary exponent b, kept inside the tables
_K_ESTIMATE = np.clip(np.floor((np.arange(2048) - 1023) * np.log10(2)).astype(np.intp) + 12, 0, 27)
# The four ASCII digits of 0-9999 as one word each, the first digit in the low byte.
_DIGITS2 = (
    (np.arange(100)[:, None] // [10, 1] % 10 + ord("0")).astype(np.uint8).view("<u2")[:, 0]
).astype(_U)
_DIGITS4 = (_DIGITS2[:, None] | (_DIGITS2 << _U(16))).ravel()
_ASCII_ZEROS = _U(0x3030303030303030)


def _as_words(cells: np.ndarray) -> np.ndarray:
    """Cells of 24 contiguous bytes, (..., 24), as a (3, cells) array of their words."""
    return np.moveaxis(cells.view(_WORDS).astype(_U), -1, 0).reshape(3, -1).copy()


def _layout() -> tuple[np.ndarray, ...]:
    """By exponent index: the bit where the first digit starts; the bytes of the digits
    before the point; the fixed text (the point, or the 0.000 prefix, and the e-NN
    suffix); and, at 18 * index + significant digits, the bytes that are kept."""
    origins = np.zeros(len(_K), _U)
    left, fixed = np.zeros((2, len(_K), 24), np.uint8)
    kept = np.zeros((len(_K), 18, 24), bool)
    byte, significant = np.arange(24), np.arange(18)[:, None]
    for i, k in enumerate(_K):
        if k < -4:  # d.ddde-NN
            origin, before, text, at = 2, 1, b"e-%02d" % -k, 19
        elif k < 0:  # 0.000ddd
            origin, before, text, at = 6, 0, b"0." + b"0" * (-k - 1), 5 + k
        else:  # ddd.ddd
            origin, before, text, at = 6, k + 1, b"", 0
        origins[i] = 8 * origin
        left[i, origin : origin + before] = 0xFF
        fixed[i, at : at + len(text)] = list(text)
        if before:
            fixed[i, origin - 1 + before] = ord(".")
        end = np.where(significant > before, origin + significant, origin - 1 + before)
        kept[i] = (byte < end) | (byte >= origin + 17)
    return origins, _as_words(left), _as_words(fixed), _as_words(kept * np.uint8(0xFF))


_ORIGIN, _LEFT, _FIXED, _KEEP = _layout()


def _cells(x: np.ndarray, separators: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the cells of the float64 values `x` into the (len(x), 3) words `out`, each cell
    ended by its word of `separators`; return which values are in the fast domain."""
    bits = x.view(_U)
    magnitude = bits & _U((1 << 63) - 1)
    fast = (magnitude.view(np.float64) >= FAST_LOW) & (magnitude.view(np.float64) < FAST_HIGH)
    zero = magnitude == _U(0)
    # 1.0 stands in for the other values, whose cells are cleared or dropped
    magnitude = np.where(fast, magnitude, _U(0x3FF0000000000000))
    biased = magnitude >> _U(52)
    m = (magnitude & _U((1 << 52) - 1)) | _U(1 << 52)
    k = _K_ESTIMATE[biased.view(np.intp)]  # k + 12 from here on
    k += magnitude.view(np.float64) >= _POW10_CEIL[k + 1]
    t = biased.view(np.intp) - k - (1075 - 28)  # x * 10**(16 - k) = m * 5**q * 2**t
    m = m << (np.maximum(t, 0) + 1).view(_U)  # one bit more: the shift below is never 0
    shift = (np.maximum(-t, 0) + 1).view(_U)  # in [1, 63]
    m_lo, m_hi = m & _U(0xFFFFFFFF), m >> _U(32)
    p_lo, p_hi = _POW5_LO[k], _POW5_HI[k]
    low = m_lo * p_lo
    mid = m_lo * p_hi + m_hi * p_lo
    carry = (low >> _U(32)) + (mid & _U(0xFFFFFFFF))
    low = (low & _U(0xFFFFFFFF)) | (carry << _U(32))
    high = m_hi * p_hi + (mid >> _U(32)) + (carry >> _U(32))
    digits = (high << (_U(64) - shift)) | (low >> shift)
    half = _U(1) << (shift - _U(1))
    rest = low & ((half << _U(1)) - _U(1))
    digits += (half - rest - (digits & _U(1))) >> _U(63)  # up past half, or at half to even
    digits[zero] = _U(0)
    k[zero] = 12

    # The first digit, then digits 2-9 and 10-17 as words of eight ASCII bytes.
    upper = digits // _U(10**8)
    lower = digits - upper * _U(10**8)
    first = upper // _U(10**8)
    upper -= first * _U(10**8)
    words = []
    for eight in (upper, lower):
        four = eight // _U(10000)
        words.append(
            _DIGITS4[four.view(np.intp)]
            | (_DIGITS4[(eight - four * _U(10000)).view(np.intp)] << _U(32))
        )
    w1, w2 = words
    # Significant digits: up to the last nonzero digit byte, whose index the float exponent
    # of the digit values (each byte 0 to 9) gives.
    late = w2 != _ASCII_ZEROS
    values = np.where(late, w2 - _ASCII_ZEROS, w1 - _ASCII_ZEROS)
    exponent = values.astype(np.float64).view(np.intp) >> 52
    significant = ((np.maximum(exponent, 1015) - 1015) >> 3) + 1 + 8 * late

    origin = _ORIGIN[k]
    a = ((first + _U(ord("0"))) << origin) | (w1 << (origin + _U(8)))
    b = (w1 >> (_U(56) - origin)) | (w2 << (origin + _U(8)))
    c = w2 >> (_U(56) - origin)
    # The digits before the point move down one byte; the sign (also of -0.0) goes in front.
    left_a, left_b, left_c = a & _LEFT[0][k], b & _LEFT[1][k], c & _LEFT[2][k]
    a ^= left_a
    a |= (left_a >> _U(8)) | (left_b << _U(56)) | _FIXED[0][k] | ((bits >> _U(63)) * _U(ord("-")))
    b ^= left_b
    b |= (left_b >> _U(8)) | (left_c << _U(56)) | _FIXED[1][k]
    c ^= left_c
    c |= (left_c >> _U(8)) | _FIXED[2][k] | separators
    keep = 18 * k + significant
    for column, word in enumerate((a, b, c)):
        np.bitwise_and(word, _KEEP[column][keep], out=out[:, column])
    return fast | zero


def _percent(block: np.ndarray) -> str:
    """`block`'s rows as text, with one ``%`` on its values."""
    row = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return (row * len(block)) % tuple(block.ravel().tolist())


def rows(block: np.ndarray) -> str:
    """The rows of the 2-D array `block` as text: each value as ``'%.17g' % value`` writes
    it, split by commas, and each row ended by LF."""
    n, width = block.shape
    if block.dtype != np.float64:
        return _percent(block)
    step = max(1, _CHUNK // width)
    ends = [ord(",") << 56] * (width - 1) + [ord("\n") << 56]
    separators = np.tile(np.array(ends, _U), min(n, step))
    out = np.empty((min(n, step) * width, 3), _U)
    parts = []
    for lo in range(0, n, step):
        chunk = np.ascontiguousarray(block[lo : lo + step])
        cells = out[: chunk.size]
        fast = _cells(chunk.ravel(), separators[: chunk.size], cells)
        slow = [] if fast.all() else np.flatnonzero(~fast.reshape(-1, width).all(axis=1))
        cells.reshape(len(chunk), -1)[slow] = 0
        text = cells.astype(_WORDS, copy=False).tobytes().translate(None, b"\0").decode("ascii")
        at = 0
        if len(slow):  # splice in the rows outside the fast domain
            row_bytes = np.count_nonzero(cells.view(np.uint8).reshape(len(chunk), -1), axis=1)
            row_ends = np.cumsum(row_bytes)
            for r in slow:
                parts += [text[at : row_ends[r]], _percent(chunk[r : r + 1])]
                at = row_ends[r]
        parts.append(text[at:])
    return "".join(parts)
