"""`repr` of every float of a table, as CSV lines, in numpy integer arrays.

`repr(v)` of a double is the shortest decimal that reads back as v, the one
closest to v among those, written in fixed notation for 1e-4 <= |v| < 1e16
and as d.ddde+XX otherwise. `CsvText.lines` gives the same bytes for whole
tables: the digits by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020, as in the JDK's `DoubleToDecimal`), the text by byte masks.

  * Digits. For v = c 2^q, Schubfach scales c and its two rounding bounds by
    g ~ 10^-k 2^-r, a 126-bit constant per decimal exponent k, and rounds the
    three products to odd. Each product is formed from 32-bit limbs in
    uint64 words. The shortest candidate among 10 s', 10 s' + 10, s and s + 1
    that lies within the bounds, the closest to v on a tie, is the digit
    string f, normalized to 17 digits.
  * Text. Each cell is laid out in 32 bytes (four little-endian words): the
    sign and "0.000", the first digit, the 16 other digits with the '.'
    moved in among them, then 'e', the exponent's sign and three digits, and
    the separator. The digits go in eight per word, converted by SWAR
    multiply-shifts. A byte mask, looked up by the decimal exponent and the
    digit count, keeps the bytes `repr` writes, and one boolean compress per
    table drops the rest.

Zero takes the fixed path as "0.0"; subnormal, infinite and nan cells, which
the lookups do not cover, are written by `repr` itself and spliced in.

Every ufunc writes into arrays allocated once per `CsvText`, and the cell
and mask buffers serve as eight of its word arrays until they are written:
0.66 MB for 512 rows of 11 columns. Temporaries allocated for every table
and freed after it would make glibc trim the top of its heap and fault the
pages back in on every table. uint64 words are never combined with int64
ones in one operation, since numpy promotes that pair to float64. The
tables (0.07 MB) are built at first use, in about 2 ms, not at import."""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
# decimal exponents k of the g table: 10^k spans the normal doubles
K_MIN, K_MAX = -324, 292
# little-endian words per cell
CELL_WORDS = 4
_DIGITS = 17
# byte offsets in a cell: sign and "0.000", the first digit, digits 1-16
# with the '.' among them (17 bytes), the exponent and the separator
_PREFIX, _FIRST, _REST, _EXP, _SEP = 0, 7, 8, 25, 31
_ASCII_ZEROS = _U(0x3030303030303030)
_FLAG_BYTES = _U(0x0101010101010101)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U((1 << 63) - 1)
# floor(log10(2^q)) = (q A) >> 41, floor(log10(3/4 2^q)) = (q A - B) >> 41 and
# floor(log2(10^e)) = (e C) >> 38 over the exponents of doubles (the JDK's
# MathUtils)
_LOG10_2, _LOG10_3_4, _LOG2_10 = 661_971_961_083, 274_743_187_321, 913_124_641_741


def g_entry(k: int) -> int:
    """g = floor(10^-k 2^-r) + 1 with r = floor(log2(10^-k)) - 125, so that
    2^125 <= g < 2^126, from Python ints."""
    r = ((-k * _LOG2_10) >> 38) - 125
    if k <= 0:
        return (10**-k >> r if r >= 0 else 10**-k << -r) + 1
    return (1 << -r) // 10**k + 1


class _Tables:
    """The lookups of `CsvText`: by decimal exponent k, by decimal point, by
    layout and digit count, and by the flag bytes of a digit word."""

    def __init__(self):
        # by k - K_MIN: g's four 32-bit limbs, g = g1 2^63 + g0
        g = [g_entry(k) for k in range(K_MIN, K_MAX + 1)]
        limbs = [[x >> 95, (x >> 63) & 0xFFFFFFFF, (x >> 32) & 0x7FFFFFFF, x & 0xFFFFFFFF] for x in g]
        self.g1_hi, self.g1_lo, self.g0_hi, self.g0_lo = np.array(limbs, dtype=_U).T.copy()

        # by digit flags: significant digits from the top flag of digits
        # 9-16 (W2) and of digits 1-8 (W1); float64(flags) >> 55 is 0 or
        # 127 + the byte of the top flag
        top = np.arange(135)
        self.digits_w2 = np.where(top >= 127, top - 117, 0)
        self.digits_w1 = np.where(top >= 127, top - 125, 1)

        # by decimal point E (v = 0.d1d2... 10^E), from `e_min`: which of
        # digits 1-16 stay before the '.' (`keep1`, `keep2` mask them in
        # the two digit words) and the '.' in those words, for the '.' at
        # digit E (fixed, 1 <= E <= 16), 1 (exponent form) or nowhere
        # (fixed, E <= 0); the exponent bytes; and the cell's layout, as
        # its first row in `masks`: two exponent forms (two or three
        # digits) and twenty fixed ones
        self.e_min = K_MIN + _DIGITS - 1
        exps = np.arange(self.e_min, K_MAX + _DIGITS + 1)
        fixed = (exps >= -3) & (exps <= 16)
        before = np.where(fixed, np.clip(exps - 1, 0, None) + 16 * (exps <= 0), 0)
        low = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype="<u8")
        self.keep1, self.keep2 = low[np.minimum(before, 8)], low[np.clip(before - 8, 0, 8)]
        dots = np.zeros((len(exps), 24), dtype=np.uint8)
        dots[np.arange(len(exps)), before] = ord(".")
        self.dot1, self.dot2 = dots.view("<u8")[:, :2].T.copy()
        self.suffix = np.zeros(len(exps), dtype="<u8")
        for j in np.flatnonzero(~fixed):
            self.suffix[j] = np.frombuffer(b"\0e%+04d\0\0" % (exps[j] - 1), dtype="<u8")[0]
        layout = np.where(fixed, exps + 5, np.abs(exps - 1) >= 100)
        self.layout = layout * _DIGITS - 1
        # by layout and digit count n, from 1: the byte mask of the cell
        masks = np.zeros((22, _DIGITS, 8 * CELL_WORDS), dtype=np.uint8)
        masks[:, :, _FIRST] = masks[:, :, _SEP] = 1
        for n in range(1, _DIGITS + 1):
            for wide, row in enumerate(masks[:2, n - 1]):
                row[_REST : _REST + (n if n > 1 else 0)] = 1
                row[_EXP : _EXP + 5] = 1
                row[_EXP + 2] = wide
            for E, row in zip(range(-3, 17), masks[2:, n - 1]):
                if E > 0:
                    row[_REST : _REST + max(n, E + 1)] = 1
                else:
                    row[_PREFIX + 1 : _PREFIX + 3 - E] = 1
                    row[_REST : _REST + n - 1] = 1
        self.masks = masks.reshape(-1, 8 * CELL_WORDS).view("<u8")
        # the cell of a subnormal, infinite or nan value: its separator alone
        self.separator_only = (np.arange(8 * CELL_WORDS) == _SEP).astype(np.uint8).view("<u8")


@functools.cache
def _tables() -> _Tables:
    return _Tables()


class CsvText:
    """Renders tables of up to `rows` x `cols` floats as CSV lines, each cell
    in the bytes of `repr`, in arrays allocated once."""

    def __init__(self, rows: int, cols: int):
        self.tables = _tables()
        cells = rows * cols
        self.cell = np.empty((cells, CELL_WORDS), dtype="<u8")
        self.mask = np.empty((cells, CELL_WORDS), dtype="<u8")
        self.words = np.empty((3, cells), dtype=_U)
        self.ints = np.empty((3, cells), dtype=np.int64)
        self.bools = np.empty((6, cells), dtype=bool)
        # the constant bytes: "-0.000" before the first digit and each
        # column's separator
        self.prefix = np.frombuffer(b"-0.000\0\0", dtype="<u8")[0]
        self.seps = np.frombuffer(b"," * (cols - 1) + b"\n", dtype=np.uint8).astype(_U) << _U(8 * (_SEP % 8))

    def lines(self, table: np.ndarray) -> list:
        """The CSV lines of the rows of `table`, C-contiguous float64 of at
        most `rows` x `cols`, as bytes-like pieces in order."""
        T = self.tables
        m = table.size
        x = table.reshape(-1)
        bits = x.view(_U)
        cell, mask = self.cell[:m], self.mask[:m]
        # word arrays: C in the cell buffer until the cell is written, M in
        # the mask buffer until the mask is, D of their own
        C, M, D = cell.reshape(CELL_WORDS, m), mask.reshape(CELL_WORDS, m), self.words[:, :m]
        I, b = self.ints[:, :m], self.bools[:, :m]
        tmp = D[0]

        # v = c 2^q: c = 2^52 + fraction, q = be - 1075 for the biased
        # exponent be; the lower bound is half as far when c = 2^52 and be > 1
        c, be, k, h = C[0], I[0], I[1], I[2]
        np.right_shift(bits, 52, out=c)
        c &= 0x7FF
        np.copyto(be, c, casting="unsafe")
        # zero, subnormal, infinite and nan cells, rare enough to find by
        # index once the extremes show there are any
        odd = ()
        if be.min() == 0 or be.max() == 2047:
            odd = np.flatnonzero((be == 0) | (be == 2047))
        np.bitwise_and(bits, _FRACTION, out=c)
        near = b[0]
        np.equal(c, 0, out=near)
        np.greater(be, 1, out=b[1])
        near &= b[1]
        c |= _HIDDEN
        # k, and h = q + floor(log2(10^-k)) + 2, so that g 4 c 2^h / 2^127
        # is about 4 v 10^-k
        np.multiply(be, _LOG10_2, out=k)
        k -= 1075 * _LOG10_2
        spare = D[2].view(np.int64)
        np.multiply(near, _LOG10_3_4, out=spare)
        k -= spare
        k >>= 41
        np.multiply(k, -_LOG2_10, out=h)
        h >>= 38
        h += be
        h -= 1073
        row = be
        np.subtract(k, K_MIN, out=row)

        # v and its bounds, 4 c 2^h and 4 c 2^h -/+ (2 or 1) 2^h, times g
        # / 2^127, rounded to odd: vb = 4 v 10^-k and its bounds vbl, vbr
        vb, vbl, vbr = C[1], C[2], C[3]
        np.copyto(tmp, h, casting="unsafe")
        np.left_shift(c, tmp, out=vb)
        vb <<= 2
        np.subtract(_U(2), near, out=vbl)
        vbl <<= tmp
        np.subtract(vb, vbl, out=vbl)
        np.left_shift(_U(2), tmp, out=vbr)
        vbr += vb
        for scaled in (vb, vbl, vbr):
            self._round_to_odd(row, scaled, (*M, *D))

        # the candidates s = floor(v 10^-k), t = s + 1, and s' = 10
        # floor(s / 10), t' = s' + 10; a bound is in the interval when c is
        # even, so an odd c moves both in by one
        s, t, sp, tp = M
        np.bitwise_and(c, 1, out=tmp)
        vbl += tmp
        vbr -= tmp
        np.right_shift(vb, 2, out=s)
        np.add(s, 1, out=t)
        np.floor_divide(s, 10, out=sp)
        sp *= 10
        np.add(sp, 10, out=tp)
        up_in, wp_in, u_in, w_in, pick, either = b
        self._within(vbl, sp, up_in, vbr, tp, wp_in, tmp)
        self._within(vbl, s, u_in, vbr, t, w_in, tmp)
        # s if it alone is within, or both are and v lies below their
        # midpoint 4 s + 2, or on it with s even: vb < 4 s + 3 - (s & 1)
        np.left_shift(s, 2, out=tmp)
        tmp += 3
        np.bitwise_and(s, 1, out=D[1])
        tmp -= D[1]
        np.less(vb, tmp, out=pick)
        np.not_equal(u_in, w_in, out=either)
        np.copyto(pick, u_in, where=either)
        f = t
        f -= pick
        # s' or t' when exactly one is within: one digit fewer
        np.not_equal(up_in, wp_in, out=either)
        np.copyto(f, tp, where=either)
        either &= up_in
        np.copyto(f, sp, where=either)

        # 17 digits: f 10 below 10^16; its decimal point E = k + 17, one
        # lower then
        E = k
        E += _DIGITS
        np.less(f, 10**16, out=b[0])
        E -= b[0]
        np.multiply(b[0], _U(9), out=tmp)
        tmp += 1
        f *= tmp
        if len(odd):
            zero = (bits[odd] << _U(1)) == 0
            f[odd[zero]] = 0
            E[odd[zero]] = 1
            odd = odd[~zero]

        first, w2, w1 = s, f, sp
        np.floor_divide(f, 10**16, out=first)
        np.multiply(first, 10**16, out=tmp)
        f -= tmp
        np.floor_divide(f, 10**8, out=w1)
        np.multiply(w1, 10**8, out=tmp)
        w2 -= tmp
        for w in (w1, w2):
            self._swar(w, tmp)

        # significant digits n from the top nonzero digit of each word:
        # float64 of its flag bytes, shifted right by 55, is 0 or 127 plus
        # that digit's byte
        n, top, index = h, spare, I[0]
        flags = D[1].view(np.float64)
        for w, by_top, out in ((w2, T.digits_w2, n), (w1, T.digits_w1, top)):
            np.right_shift(w, 1, out=tmp)
            tmp |= w
            np.right_shift(tmp, 2, out=tp)
            tmp |= tp
            tmp &= _FLAG_BYTES
            np.copyto(flags, tmp, casting="unsafe")
            np.right_shift(flags.view(_U), 55, out=index, casting="unsafe")
            np.take(by_top, index, out=out, mode="clip")
        np.maximum(n, top, out=n)

        # the cell's bytes: the first digit after the prefix, then digits
        # 1-16 with the bytes after the '.' moved up one (the three words
        # a | (h << 8) | dot for kept bytes a and moved ones h), then the
        # exponent and the separator
        first += 0x30
        first <<= 8 * _FIRST
        np.bitwise_or(first, self.prefix, out=cell[:, 0])
        E -= T.e_min
        kept1, kept2 = D[1], tp
        for w, keep, kept in ((w1, T.keep1, kept1), (w2, T.keep2, kept2)):
            w |= _ASCII_ZEROS
            np.take(keep, E, out=kept, mode="clip")
            kept &= w
            w ^= kept
        for word, kept, dot in ((1, kept1, T.dot1), (2, kept2, T.dot2)):
            np.take(dot, E, out=tmp, mode="clip")
            np.bitwise_or(kept, tmp, out=cell[:, word])
        np.left_shift(w1, 8, out=tmp)
        cell[:, 1] |= tmp
        np.left_shift(w2, 8, out=tmp)
        cell[:, 2] |= tmp
        np.right_shift(w1, 56, out=tmp)
        cell[:, 2] |= tmp
        np.take(T.suffix, E, out=tmp, mode="clip")
        w2 >>= 56
        tmp |= w2
        by_row = (-1, len(self.seps))
        np.bitwise_or(tmp.reshape(by_row), self.seps, out=cell.reshape(*by_row, CELL_WORDS)[:, :, 3])
        # and its mask, by E and n
        np.take(T.layout, E, out=index, mode="clip")
        index += n
        np.take(T.masks, index, axis=0, out=mask, mode="clip")
        np.right_shift(bits, 63, out=tmp)
        mask[:, 0] |= tmp
        if len(odd):
            mask[odd] = T.separator_only

        text = cell.view(np.uint8)[mask.view(bool)]
        if not len(odd):
            return [text]
        # subnormal, infinite and nan cells by repr, before their separators
        lengths = mask.view(np.uint8).reshape(m, -1).sum(axis=1)
        starts = np.cumsum(lengths) - lengths
        pieces, done = [], 0
        for j in odd:
            at = int(starts[j])
            pieces += [text[done:at], repr(float(x[j])).encode()]
            done = at
        return pieces + [text[done:]]

    def _round_to_odd(self, row, cp, tmp) -> None:
        """Replace cp by the top bits of g cp / 2^127, g = g1 2^63 + g0 of
        table row `row`, with the lower bits folded into the last one (the
        JDK's `rop`). The limbs are taken one at a time into `limb`."""
        T = self.tables
        limb, c_hi, c_lo, p, mid, x1, y = tmp
        out = cp
        np.right_shift(cp, 32, out=c_hi)
        np.bitwise_and(cp, _LOW32, out=c_lo)
        # x1 = high word of g0 cp: c_hi < 2^28 and g0's high limb < 2^31
        # keep every partial sum below 2^64
        np.take(T.g0_lo, row, out=limb, mode="clip")
        np.multiply(limb, c_lo, out=mid)
        mid >>= 32
        np.multiply(limb, c_hi, out=p)
        mid += p
        np.take(T.g0_hi, row, out=limb, mode="clip")
        np.multiply(limb, c_lo, out=p)
        mid += p
        mid >>= 32
        np.multiply(limb, c_hi, out=x1)
        x1 += mid
        # y1 2^64 + y0 = g1 cp
        np.take(T.g1_lo, row, out=limb, mode="clip")
        np.multiply(limb, c_lo, out=y)
        np.right_shift(y, 32, out=mid)
        y &= _LOW32
        np.multiply(limb, c_hi, out=p)
        mid += p
        np.take(T.g1_hi, row, out=limb, mode="clip")
        np.multiply(limb, c_lo, out=p)
        mid += p
        np.left_shift(mid, 32, out=p)
        y |= p
        mid >>= 32
        np.multiply(limb, c_hi, out=out)
        out += mid
        # z = y0 / 2 + x1; out = y1 + z's top bit, or 1 if its other bits are not 0
        y >>= 1
        y += x1
        np.right_shift(y, 63, out=p)
        out += p
        y &= _LOW63
        y += _LOW63
        y >>= 63
        out |= y

    @staticmethod
    def _within(vbl, low, low_in, vbr, high, high_in, tmp) -> None:
        """low_in: 4 low >= vbl; high_in: 4 high <= vbr (the bounds already
        moved in by one when they are not representable)."""
        np.left_shift(low, 2, out=tmp)
        np.less_equal(vbl, tmp, out=low_in)
        np.left_shift(high, 2, out=tmp)
        np.less_equal(tmp, vbr, out=high_in)

    @staticmethod
    def _swar(w, tmp) -> None:
        """Replace each w < 10^8 by its eight decimal digits, one per byte,
        the most significant in the lowest: 4 + 4 digits in 32-bit lanes,
        then 2 + 2 in 16-bit ones, then 1 + 1 in bytes. A lane's quotient q
        stays and its remainder moves up a lane: w << b + q (1 - d 2^b)
        modulo 2^64 is q + (w - d q) << b. floor(x / 100) is x 10486 >> 20
        and floor(x / 10) is x 103 >> 10, exact on each lane's x < 10^4
        (< 100), with no carry between lanes."""
        np.floor_divide(w, 10_000, out=tmp)
        tmp *= _U((1 - (10_000 << 32)) % (1 << 64))
        w <<= 32
        w += tmp
        for mult, shift, lanes, d, b in (
            (10486, 20, 0x0000007F0000007F, 100, 16),
            (103, 10, 0x000F000F000F000F, 10, 8),
        ):
            np.multiply(w, mult, out=tmp)
            tmp >>= shift
            tmp &= _U(lanes)
            tmp *= _U((1 - (d << b)) % (1 << 64))
            w <<= b
            w += tmp
