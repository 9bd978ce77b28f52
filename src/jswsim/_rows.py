"""CSV rows formatted in bulk, with numpy, a block of rows at a time: those
of ``simulate --out`` (:class:`SimulateRows`) and of ``[compare]
trajectories`` (:class:`TrajectoryRows`), which ``cli`` writes.

Each row of a block is one row of a uint64 array, :class:`Rows`. Every
field sits in a slot of whole words at a fixed place of the row, and the
bytes a field does not fill are NUL, which :meth:`Rows.text` drops. So no
field needs a shift or a gather: a digit's byte is the same for every row.

A float field holds exactly the bytes ``repr`` gives. For a finite ``x``
with ``1e-4 <= |x| < 1e16``, where ``repr`` writes positional digits, the
shortest decimal that reads back as ``x`` (the nearest of them, if there
are several) is found by Giulietti's Schubfach method ("The Schubfach way
to render doubles", 2020). In that range the scale ``10^-k`` is
``5^-k 2^-k`` with ``0 <= -k <= 20``, so the method's product is an exact
101-bit integer, from 32-bit limbs, and it chooses on exact remainders.
``+0.0`` and ``-0.0`` use the same digit layout. Every other value
(subnormal, exponent form, inf and nan) is formatted by ``repr`` and
spliced into its slot.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_SIGN = _U(1 << 63)
_SMALL = np.float64(1e-4).view(_U)
_LARGE = np.float64(1e16).view(_U)
_ONE = np.float64(1.0).view(_U)
# 5^n for the n = -k of the fast range: k = floor(log10(2^q)) >= -20 for
# 2^q >= 2^-66, the unit in the last place of 1e-4.
_FIVES = np.array([5**n for n in range(21)], dtype=np.uint64)

# A float slot is five words: the "," that precedes the field, the sign,
# the "0." and up to three zeros of a value below 1, and the first of the
# 17 digits of its decimal; then four words of four digits, each digit
# after a slot for the dot (the first after the first digit).
FLOAT_WORDS = 5


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# word 0 without its sign and digit, by min(max(e, -4), 0) + 4 for the
# exponent e of the first digit
_HEAD = np.array(
    [_word(b",\0" + b"0." + b"0" * zeros) for zeros in (3, 2, 1, 0)] + [_word(b",")],
    dtype=np.uint64,
)
# _QUAD[g]: the four digits of g, each in the high byte of a 16-bit lane, as
# in words 1 to 4
_QUAD = np.zeros(10**4, dtype=np.uint64)
# _LAST[j, g]: the index, of the 17, of the last nonzero digit of the four
# digits g of word j + 1; 0 for g = 0
_LAST = np.zeros((4, 10**4), dtype=np.int64)
for _j, _p in enumerate((1000, 100, 10, 1)):
    _QUAD |= (np.arange(10**4, dtype=np.uint64) // _U(_p) % _U(10) + _U(48)) << _U(16 * _j + 8)
    _LAST[:, np.arange(10**4) % (10 * _p) >= _p] = _j + 1
_LAST[:, 1:] += 4 * np.arange(4)[:, None]
# _KEEPS[j, n]: the bytes of word j + 1 that hold digits 0 to n of the 17
_KEEP = np.array([(1 << 16 * n) - 1 for n in range(5)], dtype=np.uint64)
_KEEPS = _KEEP[np.clip(np.arange(17) - 4 * np.arange(4)[:, None], 0, 4)]
# j for words 1 to 4, a column against a row of lanes; a word's row of
# _LAST and _KEEPS starts at j times the row's length
_ROWS = np.arange(4)[:, None]
_LAST, _KEEPS = _LAST.ravel(), _KEEPS.ravel()
del _j, _p


# The most values float_slots formats at once: a whole block of simulate at
# S = 2, 3 * 4096 values, in one pass, which takes about a fifth less CPU
# than a pass per row (1.65 against 2.03 ms a block). Its 1.9 MB of scratch
# is held through the walk. The Markov draw's batches (processes._BATCH) and
# Rows.text, which copies no rows, make room for it, so that simulate's peak
# RSS on the bench stays within 0.3 MB of a pass per row's.
_LANES = 3 * 4096


class _Scratch:
    """The arrays :func:`float_slots` works in, ``lanes`` lanes of 11 uint64,
    8 int64 and 5 bool arrays, kept from one block to the next: allocated
    anew for each block, they took most of the page faults of ``simulate
    --out``."""

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.u = np.empty((11, lanes), dtype=_U)
        self.i = np.empty((8, lanes), dtype=np.int64)
        self.b = np.empty((5, lanes), dtype=bool)


def float_slots(values, out, scratch: _Scratch) -> None:
    """Write each float of the array ``values``, as a field of a CSV row,
    into its slot: ``out[..., :FLOAT_WORDS]`` of the uint64 array ``out``,
    whose leading axes are those of ``values``. The slot's bytes are a ","
    and the ``repr`` of the float, and NUL.

    The values are formatted in passes of as many rows of ``values`` as
    ``scratch`` has lanes for, at least one. Every step writes into one of
    its arrays. Each name says what its array holds at the time; an array a
    name no longer needs takes a later name, so that the scratch stays
    small."""
    if values.size > scratch.lanes:
        rows = scratch.lanes // values[0].size
        for lo in range(0, len(values), rows):
            float_slots(values[lo : lo + rows], out[lo : lo + rows], scratch)
        return
    lanes = values.size
    u, i, b = scratch.u[:, :lanes], scratch.i[:, :lanes], scratch.b[:, :lanes]
    mag, t, lo, c2, c0, c1, f0, f1, tmp, five, hi = u
    s, unit, rem2, near, d, r, w, lead = c2, c0, c1, f0, hi, t, lo, five
    quads, slots = u[:4].view(np.int64), u[3:8]
    q, k, e, x = i[:4]
    index = i[4:]
    fast, other, b1, b2, b3 = b
    bits = np.ascontiguousarray(values).reshape(-1).view(_U)
    np.bitwise_and(bits, ~_SIGN, out=mag)
    np.greater_equal(mag, _SMALL, out=fast)
    np.less(mag, _LARGE, out=b1)
    fast &= b1
    np.not_equal(mag, _U(0), out=other)
    np.logical_not(fast, out=b1)
    other &= b1
    # the other lanes format 1.0 until they are given ±0.0 or a splice
    mag *= fast
    np.multiply(b1, _ONE, out=tmp)
    mag += tmp

    # Schubfach, for x = c 2^q with c = t + 2^52, k = floor(log10(2^q)).
    # When t = 0 the next double below x is half as far as the one above,
    # which the method's irregular case handles. Of the fast range, only
    # its 68 powers of two have t = 0, and this symmetric interval gives
    # each of them the digits of repr too (tests/test_rows.py checks all),
    # so that case is left out.
    np.bitwise_and(mag, _U((1 << 52) - 1), out=t)
    np.right_shift(mag, _U(52), out=tmp)
    np.copyto(q, tmp, casting="unsafe")
    q -= 1075
    np.multiply(q, 661_971_961_083, out=k)
    k >>= 41
    np.negative(k, out=x)
    np.take(_FIVES, x, out=five, mode="clip")
    # x / 10^k = 2c 5^-k / 2^shift exactly, shift in [0, 47]: the integer
    # part s < 2^57 and the remainder, below one unit = 2^shift. The 101-bit
    # 2c 5^-k is hi 2^64 + lo, from 32-bit limbs.
    np.bitwise_or(t, _U(1 << 52), out=c2)
    c2 <<= _U(1)
    np.bitwise_and(c2, _MASK32, out=c0)
    np.right_shift(c2, _U(32), out=c1)
    np.bitwise_and(five, _MASK32, out=f0)
    np.right_shift(five, _U(32), out=f1)
    np.multiply(c2, five, out=lo)
    np.multiply(c0, f0, out=hi)
    hi >>= _U(32)
    np.multiply(c1, f0, out=tmp)
    hi += tmp
    np.multiply(c0, f1, out=tmp)
    hi += tmp
    hi >>= _U(32)
    np.multiply(c1, f1, out=tmp)
    hi += tmp
    np.subtract(k, q, out=x)
    x += 1
    shift = x.view(_U)
    np.right_shift(lo, shift, out=s)
    np.subtract(_U(64), shift, out=tmp)
    hi <<= tmp  # numpy shifts by 64 to 0
    s |= hi
    np.left_shift(_U(1), shift, out=unit)
    np.subtract(unit, _U(1), out=tmp)
    np.bitwise_and(lo, tmp, out=rem2)
    # Distances are doubled, in units. Half a unit in the last place of x is
    # 5^-k units, and a decimal nearer than that reads back as x: one at
    # doubled distance at most "near". One exactly that far reads back as x
    # only if c is even, but of the decimals tried only s + 1 = x + 1 can be
    # that far, for x = 2c in [2^53, 1e16), and then x itself is nearer; so
    # the method's test of c's parity is left out.
    rem2 <<= _U(1)
    np.left_shift(five, _U(1), out=near)
    # d = s + up: the nearest of s and s + 1, ties to even
    up = b1
    np.bitwise_and(s, _U(1), out=tmp)
    np.equal(rem2, unit, out=up)
    np.logical_and(up, tmp, out=up)
    np.greater(rem2, unit, out=b2)
    up |= b2
    # unless exactly one of the two reads back
    np.less_equal(rem2, near, out=b2)
    np.left_shift(unit, _U(1), out=tmp)
    tmp -= rem2
    np.less_equal(tmp, near, out=b3)  # s + 1 reads back
    b2 ^= b3
    b3 ^= up
    b3 &= b2
    up ^= b3
    np.add(s, up, out=d)
    # or a multiple of ten, one digit shorter, s - r or s - r + 10, of which
    # exactly one reads back (at most one can); uint64 arithmetic wraps
    np.floor_divide(s, _U(10), out=r)
    r *= _U(10)
    np.subtract(s, r, out=r)
    np.multiply(r, unit, out=w)
    w <<= _U(1)
    w += rem2
    np.less_equal(w, near, out=b2)
    np.multiply(unit, _U(20), out=tmp)
    tmp -= w
    np.less_equal(tmp, near, out=b3)  # s - r + 10 reads back
    b2 ^= b3
    np.multiply(b3, _U(10), out=tmp)
    tmp -= r
    tmp -= up
    tmp *= b2
    d += tmp

    # d < 2^53 10 < 10^17 has 16 or 17 digits: make it 17, the first of
    # exponent e. ±0.0 writes "0.0" from d = 0 and e = 0.
    np.less(d, _U(10**16), out=b1)
    np.multiply(b1, _U(9), out=tmp)
    tmp += _U(1)
    d *= tmp
    np.add(k, 16, out=e)
    e -= b1
    d *= fast
    e *= fast
    # d = lead 10^16 + g0 10^12 + g1 10^8 + g2 10^4 + g3, the four digits gj
    # of word j + 1
    g0, g1, g2, g3 = (g.view(_U) for g in quads)
    np.floor_divide(d, _U(10**16), out=lead)
    np.multiply(lead, _U(10**16), out=tmp)
    d -= tmp
    np.floor_divide(d, _U(10**8), out=g1)
    np.multiply(g1, _U(10**8), out=tmp)
    d -= tmp
    np.floor_divide(g1, _U(10**4), out=g0)
    np.multiply(g0, _U(10**4), out=tmp)
    g1 -= tmp
    np.floor_divide(d, _U(10**4), out=g2)
    np.multiply(g2, _U(10**4), out=tmp)
    np.subtract(d, tmp, out=g3)
    words = slots[1:]
    np.take(_QUAD, quads, out=words, mode="clip")
    # the digits written: through the last nonzero one, and at least one
    # after the dot
    np.add(quads, _ROWS * 10**4, out=index)
    np.take(_LAST, index, out=quads, mode="clip")
    last = q
    np.max(quads, axis=0, out=last)
    np.add(e, 1, out=x)
    np.maximum(last, x, out=last)
    masks = quads.view(_U)
    np.add(last, _ROWS * 17, out=index)
    np.take(_KEEPS, index, out=masks, mode="clip")
    words &= masks
    # the dot after digit e, if it is one of word j + 1's: numpy shifts by
    # 64 or more, and by a negative e - 4j seen as uint64, to 0
    np.subtract(e, _ROWS * 4, out=index)
    index <<= 4
    np.left_shift(_U(ord(".")), index.view(_U), out=masks)
    words |= masks
    np.add(e, 4, out=x)
    np.take(_HEAD, x, out=slots[0], mode="clip")
    np.right_shift(bits, _U(63), out=tmp)
    tmp *= _U(ord("-") << 8)
    slots[0] |= tmp
    lead += _U(ord("0"))
    lead <<= _U(56)
    slots[0] |= lead
    out[...] = slots.T.reshape(out.shape)
    if other.any():
        at = np.unravel_index(np.flatnonzero(other), values.shape)
        texts = [b"," + repr(v).encode() for v in values[at].tolist()]
        out[at] = np.array(texts, dtype=f"S{8 * FLOAT_WORDS}").view(_U).reshape(-1, FLOAT_WORDS)


def int_words(digits: int) -> int:
    """The words of an int slot that holds ``digits`` digits."""
    return -(-digits // 4)


def int_slots(values, out) -> None:
    """Write the decimal digits of each nonnegative integer of the int64
    array ``values`` into its slot, ``out[..., :n]`` of the uint64 array
    ``out`` whose leading axes are those of ``values``, four digits a word
    as in a float slot, after NUL bytes; ``n`` words must hold the largest."""
    n = out.shape[-1]
    blank = 4 * n - np.searchsorted(10 ** np.arange(1, 19), values, side="right") - 1
    for j in range(n):
        quad = values // 10 ** (4 * (n - 1 - j)) % 10**4
        out[..., j] = _QUAD[quad] & ~_KEEP.take(blank - 4 * j, mode="clip")


class Rows:
    """A block of at most ``rows`` CSV rows of ``words`` 64-bit words each,
    for one run: the uint64 array ``words``, whose bytes are those of
    :meth:`text`'s rows and NUL, and its uint8 view ``bytes``. A byte never
    written stays NUL. ``scratch`` holds :func:`float_slots`' arrays for the
    ``values`` floats of a block, or for ``_LANES`` of them, in rows of
    ``rows``."""

    def __init__(self, rows: int, words: int, values: int) -> None:
        self._store = bytearray(8 * rows * words)
        self.words = np.frombuffer(self._store, dtype=_U).reshape(rows, words)
        self.bytes = self.words.view(np.uint8)
        self.scratch = _Scratch(min(values, max(rows, _LANES)))

    def put(self, start: int, text: bytes) -> None:
        """Write ``text`` into every row, from byte ``start``."""
        self.bytes[:, start : start + len(text)] = np.frombuffer(text, np.uint8)

    def text(self, rows: int) -> bytearray:
        """The first ``rows`` rows, without their NUL bytes: ASCII, as bytes.

        The whole store is translated, and the text of the rows past
        ``rows`` is cut from the end: a copy of the first rows to translate
        would hold as much again."""
        text = self._store.translate(None, b"\0")
        if rows < len(self.words):
            del text[np.count_nonzero(self.bytes[:rows]) :]
        return text


class SimulateRows:
    """The CSV rows of one ``simulate`` seed over ``horizon`` arrivals of
    ``system``, a block of at most ``columns`` steps at a time, in one
    :class:`Rows`: the seed, the step, the slots of the S coordinates, the
    total and the wait, and the newline."""

    def __init__(self, seed, horizon, system, columns):
        seed_cell = f"{seed},".encode()
        self.step = -(-len(seed_cell) // 8)  # the words before the step's
        self.head = self.step + int_words(len(str(horizon)))  # and before the floats
        self.rank = system.rank - 1
        self.fields = system.servers + 2
        words = self.head + FLOAT_WORDS * self.fields + 1
        self.rows = Rows(columns, words, columns * (self.fields - 1))
        self.rows.put(0, seed_cell)
        self.rows.put(8 * (words - 1), b"\n")
        self.values = np.empty(columns * (self.fields - 1))
        # step 0 precedes the first arrival: its wait field is empty
        self.wait = np.zeros(FLOAT_WORDS, dtype=_U)
        self.wait[0] = ord(",")

    def block(self, step, path, totals):
        """The bytes of the rows of steps ``step``, ``step + 1``, ... whose
        profiles are the columns of ``path`` and whose totals ``totals``."""
        n = path.shape[1]
        words = self.rows.words[:n]
        int_slots(np.arange(step, step + n), words[:, self.step : self.head])
        values = self.values[: n * (self.fields - 1)].reshape(-1, n)
        values[:-1] = path
        values[-1] = totals
        fields = words[:, self.head : -1].reshape(n, self.fields, FLOAT_WORDS)
        float_slots(values, fields[:, :-1].transpose(1, 0, 2), self.rows.scratch)
        # the wait column is coordinate r shifted down one row
        fields[0, -1] = self.wait
        fields[1:, -1] = fields[:-1, self.rank]
        self.wait = fields[-1, self.rank].copy()
        return self.rows.text(n)


class TrajectoryRows:
    """The ``[compare] trajectories`` CSV rows of one system of S servers
    over ``horizon`` arrivals, labelled ``label``: for each step, one
    "step,label,coordinate,value" row per coordinate. The S rows of a step
    are one row of a :class:`Rows`, of a block of at most ``columns``."""

    def __init__(self, label, servers, horizon, columns):
        self.step = int_words(len(str(horizon)))  # the words of the step
        texts = [f",{label},{i}".encode() for i in range(1, servers + 1)]
        self.head = self.step + -(-max(map(len, texts)) // 8)  # and of the label
        self.line = self.head + FLOAT_WORDS + 1
        self.rows = Rows(columns, self.line * servers, columns * servers)
        for i, text in enumerate(texts):
            self.rows.put(8 * (self.line * i + self.step), text)
            self.rows.put(8 * (self.line * (i + 1) - 1), b"\n")

    def block(self, step, path):
        """The bytes of the rows of steps ``step``, ``step + 1``, ... whose
        profiles are the columns of ``path``."""
        servers, n = path.shape
        lines = self.rows.words[:n].reshape(n, servers, self.line)
        int_slots(np.arange(step, step + n)[:, None], lines[..., : self.step])
        values = lines[..., self.head : self.head + FLOAT_WORDS].transpose(1, 0, 2)
        float_slots(path, values, self.rows.scratch)
        return self.rows.text(n)
