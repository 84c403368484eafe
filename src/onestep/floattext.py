"""Float text at array speed, and CSV rows assembled as bytes.

_float_fields gives every float of an array the bytes of its repr, as one
NUL-padded row of a uint8 array; _csv_text lays such cells out in rows,
with commas and newlines, and drops the NULs.  The CSV writers of sim and
cme build their text from these two, a block of rows at a time.

The digits are Ryu's (Adams, "Ryu: fast float-to-string conversion", PLDI
2018): the shortest that round-trip and, of those, the nearest to the
value, as are repr's (Gay's dtoa, mode 0).  The kernel computes them for
the values repr writes in plain notation, 1e-4 <= |x| < 2**50, and for
the signed zeros.  In that range Ryu's interval bounds are never exact
decimals and 5**i fits in 52 bits, so every product fits in 107 bits.
Every other value takes repr: exponent notation, plain values from 2**50
to 1e16, inf and NaN, and values below 0.001 with 17 digits, whose
fraction is one digit longer than a field's.

Every integer array of the kernel is uint64, and so is every integer
constant it mixes with one: numpy 1.24 turns uint64 mixed with int64 into
float64.
"""

from __future__ import annotations

import functools
import types

import numpy as np

_U = np.uint64
_LOW = 1e-4             # the plain-notation range the kernel writes
_HIGH = 2.0 ** 50
_E_LOW = 1009           # the biased exponents of [_LOW, _HIGH)
_E_HIGH = 1072
_DECPTS = 20            # decimal points -3 ... 16 of plain notation
_DIGITS = 17            # the most digits of a shortest repr
_FRACTION = 19          # fraction digits a field holds
_BLOCK_VALUES = 4096    # values of one block of a CSV writer: the kernel
                        # arrays and row bytes of a block take about 1 MB,
                        # which keeps a writer's peak near twice its output
                        # on the benchmark's ensembles

# A field is ten words of four bytes: the sign in byte 3, sixteen integer
# digits in bytes 4-19, the point in byte 20 and nineteen fraction digits
# in bytes 21-39.  A mask keyed by the sign, the decimal point and the
# digit count keeps the bytes of a value's repr, which are the sign and
# one run from the first integer digit on, and zeroes the rest.
_WORDS = 10


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The kernel's tables, built on the first call: powers of ten; the
    words of a field, which are the four-digit strings of 0 ... 9999, the
    point with the three digits of 0 ... 999 and the minus sign; the
    masks; and per exponent of [_LOW, _HIGH) Ryu's q, e10 and 5**i in two
    32-bit halves."""
    pow10 = _U(10) ** np.arange(20, dtype=_U)
    quads = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    quads = (quads + ord("0")).astype(np.uint8)
    points = quads[:1000].copy()
    points[:, 0] = ord(".")
    # -e2 of each exponent; q = floor(-e2 log10 5) - 1, i = -e2 - q
    minus_e2 = 1077 - np.arange(_E_LOW, _E_HIGH + 1)
    q = (minus_e2 * 732923 >> 20) - 1
    pow5 = _U(5) ** (minus_e2 - q).astype(_U)
    # indexed by (negative, decpt + 3, digits), digits at least decpt
    neg, decpt, digits = np.ix_([0, 1], np.arange(-3, _DECPTS - 3),
                                np.arange(_DIGITS + 1))
    first = 20 - np.maximum(decpt, 1)
    end = 21 + np.maximum(np.maximum(digits, decpt) - decpt, 1)
    pos = np.arange(4 * _WORDS)
    keep = ((pos == 3) & (neg[..., None] == 1)
            | (pos >= first[..., None]) & (pos < end[..., None]))
    masks = np.where(keep, 0xFF, 0).astype(np.uint8)
    words = np.concatenate([quads.ravel(), points.ravel(),
                            np.frombuffer(b"\0\0\0-", dtype=np.uint8)])
    return types.SimpleNamespace(
        pow10=pow10, words=words.view(np.uint32),
        masks=masks.view(np.uint32).reshape(-1, _WORDS),
        q=q.astype(_U), e10=(q - minus_e2).astype(np.intp),
        hi5=pow5 >> _U(32), lo5=pow5 & _U(0xFFFFFFFF))


def _split(values: np.ndarray, unit: int, out=None) -> np.ndarray:
    """values // unit and values % unit as the two rows of out, or of a
    new array."""
    if out is None:
        out = np.empty((2, values.size), dtype=_U)
    high = np.floor_divide(values, _U(unit), out=out[0])
    np.subtract(values, high * _U(unit), out=out[1])
    return out


def _interval(ax: np.ndarray) -> tuple:
    """Ryu's decimal interval of each float of ax, all in [_LOW, _HIGH):
    vr, vp and vm, the value and its rounding bounds times 10**-e10 and
    rounded down, whether vr is exact, and e10."""
    t = _tables()
    bits = ax.view(_U)
    at = ((bits >> _U(52)) - _U(_E_LOW)).astype(np.intp)
    mantissa = bits & _U(2 ** 52 - 1)
    mv = (mantissa | _U(2 ** 52)) << _U(2)
    q = t.q.take(at)
    tail = (_U(1) << q) - _U(1)
    # vr = mv * 5**i >> q, from the 107-bit product in two 64-bit halves;
    # vp and vm differ from vr by the carry of (mv * 5**i mod 2**q) plus
    # 2 * 5**i, or less (1 + shift) * 5**i
    hi5, lo5 = t.hi5.take(at), t.lo5.take(at)
    mv_hi, mv_lo = mv >> _U(32), mv & _U(0xFFFFFFFF)
    low = mv_lo * lo5
    mid = mv_hi * lo5
    mid += mv_lo * hi5
    lo = mid << _U(32)
    lo += low
    hi = mv_hi * hi5
    hi += mid >> _U(32)
    hi += lo < low
    vr = hi << (_U(64) - q)
    vr |= lo >> q
    below = lo & tail
    pow5 = (hi5 << _U(32)) | lo5
    vp = vr + ((below + (pow5 << _U(1))) >> q)
    vm = vr - (((pow5 << (mantissa != 0).astype(_U)) + tail - below) >> q)
    return vr, vp, vm, (mv & tail) == 0, t.e10.take(at)


def _shortest(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's shortest digits of each float of ax, all in [_LOW, _HIGH): the
    digits as one uint64 integer and the intp power of ten of the last."""
    t = _tables()
    vr, vp, vm, exact, e10 = _interval(ax)
    # drop the most digits that leave some number in (vm, vp]: at least
    # those of vp - vm, and one more while a multiple of 10**(r + 1) fits
    span = vp - vm
    drop = t.pow10.searchsorted(span, "right") - 1
    more = np.flatnonzero(vp % t.pow10[drop + 1] < span)
    while more.size:
        drop[more] += 1
        more = more[vp[more] % t.pow10[drop[more] + 1] < span[more]]
    # round the dropped digits, half to even where vr is exact
    scale = t.pow10[drop]
    out = vr // scale
    rest = vr - out * scale
    twice = rest << _U(1)
    exact_even = exact & ((out & _U(1)) == 0)
    up = (twice > scale) | ((twice == scale) & ~exact_even)
    out += (vm >= vr - rest) | up
    return out, e10 + drop


def _float_fields(values) -> np.ndarray:
    """The repr of each float of values as a NUL-padded row of bytes: a
    uint8 array of shape values.shape + (width,) whose nonzero bytes along
    the last axis, read left to right, are the value's repr.  The rows
    are the narrowest run of columns of the kernel's fields that holds
    every value's bytes, so the last axis is contiguous."""
    t = _tables()
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    ax = np.abs(x)
    inside = (ax >= _LOW) & (ax < _HIGH)
    zero = None
    if not inside.all():
        zero = ax == 0.0
        ax = np.where(inside, ax, 1.0)
    out, decpt = _shortest(ax)
    del ax
    # plain notation: the integer digits, then the point and the fraction's
    # nineteen digits; an integer gets the zeros up to its point, and 0.0
    # the digits of 1.0 with the 1 made 0
    digits = t.pow10.searchsorted(out, "right")
    decpt += digits
    pad = np.maximum(decpt - digits, 0)
    out *= t.pow10[pad]
    digits += pad
    if zero is not None:
        out[zero] = 0
    fraction = digits - decpt
    kept = np.minimum(fraction, _FRACTION)
    split = t.pow10[kept]
    whole = out // split
    out -= whole * split
    out *= t.pow10[_FRACTION - kept]
    del pad, kept, split
    # the words of each field, as indices into the words table, one
    # contiguous row per word: the minus sign, the integer digits in four
    # quads, the point with the first three fraction digits, then the
    # other sixteen in four quads
    index = np.empty((_WORDS, x.size), dtype=_U)
    index[0] = len(t.words) - 1
    lead = np.floor_divide(out, _U(10 ** 16), out=index[5])
    out -= lead * _U(10 ** 16)
    index[5] += _U(10000)
    for row, part in ((1, whole), (6, out)):
        for eight in _split(part, 10 ** 8):
            _split(eight, 10 ** 4, index[row:row + 2])
            row += 2
    del whole, out
    fields = np.ascontiguousarray(t.words[index.view(np.int64).T])
    del index
    negative = np.signbit(x)
    key = (negative * _DECPTS + decpt + 3) * (_DIGITS + 1) + digits
    fields &= t.masks.take(key, axis=0)
    fields = fields.view(np.uint8)
    # the narrowest run of columns: from the sign or the first integer
    # digit to the last fraction digit, or from column 0 where repr wrote
    first = 3 if negative.any() else 20 - int(decpt.max(initial=1))
    end = 21 + int(fraction.max(initial=1))
    other = ~inside | (fraction > _FRACTION)
    if zero is not None:
        other &= ~zero
    other = np.flatnonzero(other)
    if other.size:
        text = np.array([repr(v) for v in x[other].tolist()], dtype="S")
        fields[other] = 0
        fields[other, :text.itemsize] = text.view(np.uint8).reshape(
            other.size, -1)
        first, end = 0, max(end, text.itemsize)
    fields = fields[:, first:end]
    return fields.reshape(*np.shape(values), fields.shape[1])


def _block_rows(values_per_row: int) -> int:
    """Rows of one block of a CSV writer: as many as hold at most
    _BLOCK_VALUES values, and at least one."""
    return max(1, _BLOCK_VALUES // max(values_per_row, 1))


def _csv_text(*groups: np.ndarray) -> str:
    """The text of rows of NUL-padded cells.  Each group is a uint8 array of
    shape rows + (k, width), or one that broadcasts to it, whose last axis
    is contiguous: k cells of each row.  A row is the cells of every group
    in turn, each followed by a comma, and the last by a newline instead;
    the NULs are dropped.

    Each row starts as a copy of one row of separators, and each cell is
    copied in as one item of a void dtype of its width."""
    rows = np.broadcast_shapes(*(g.shape[:-2] for g in groups))
    row = []
    for *_, k, w in (g.shape for g in groups):
        row += ([0] * w + [ord(",")]) * k
    row[-1] = ord("\n")
    text = np.empty((*rows, len(row)), dtype=np.uint8)
    _items(text)[...] = _items(np.array(row, dtype=np.uint8))
    at = 0
    for group in groups:
        k, w = group.shape[-2:]
        cells = text[..., at:at + k * (w + 1)].reshape(*rows, k, w + 1)
        _items(cells[..., :w])[...] = _items(group)
        at += k * (w + 1)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _items(cells: np.ndarray) -> np.ndarray:
    """cells without its last axis, each cell one item of a void dtype."""
    return cells.view(f"V{cells.shape[-1] * cells.itemsize}")[..., 0]
