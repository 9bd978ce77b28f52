"""CSV rows formatted in bulk, with numpy, a block of rows at a time: those
of ``simulate --out`` (:class:`SimulateRows`) and of ``[compare]
trajectories`` (:class:`TrajectoryRows`), which ``cli`` writes.

Each row of a block is one row of a uint64 array, :class:`Rows`. Every
field sits at a fixed place of the row, and the bytes a field does not
fill are NUL, which :meth:`Rows.text` drops:

- A float field is a slot of :data:`FLOAT_WORDS` words. Word 0 holds the
  "," that opens the field, the sign, and the "0." and up to three zeros of
  a value below 1. Words 1 to 3 hold the 17 digits side by side, seven,
  seven and three, and the dot: the word whose digits it splits takes it
  by a shift of the digits after it by one byte, into the byte the word
  leaves free. The slot's last byte is always NUL, so the last slot of a
  row holds the row's newline there.
- A step field is the step's digits, right-aligned in a cell whose last
  four bytes are a 32-bit lane (:func:`write_steps`). A ``simulate`` row
  opens with one such region, the seed's digits and "," written once, and
  the step's after them.

Only a float whose text is not yet known is formatted. A +0.0 cell (bits
0; -0.0 is formatted) is the constant ``,0.0`` slot. In ``simulate``, a
total whose bits are those of coordinate S is a copy of that coordinate's
slot, and the wait is a copy of coordinate ``rank``'s slot of the row
before. The other values of a block are packed together and formatted in
passes (:meth:`Rows.floats`).

A formatted float holds exactly the bytes ``repr`` gives. For a finite
``x`` with ``1e-4 <= |x| < 1e16``, where ``repr`` writes positional
digits, the shortest decimal that reads back as ``x`` (the nearest of
them, if there are several) is found by Giulietti's Schubfach method ("The
Schubfach way to render doubles", 2020). In that range the scale
``10^-k`` is ``5^-k 2^-k`` with ``0 <= -k <= 20``, so the method's
product is an exact 101-bit integer, from 32-bit limbs, and it chooses on
exact remainders. Every other value (±0.0, subnormal, exponent form, inf
and nan) is formatted by ``repr`` and spliced into its slot; of these, a
row's +0.0 never reaches the formatter.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_SIGN = _U(1 << 63)
_SMALL = np.float64(1e-4).view(_U)
_LARGE = np.float64(1e16).view(_U)
# 5^n for the n = -k of the fast range: k = floor(log10(2^q)) >= -20 for
# 2^q >= 2^-66, the unit in the last place of 1e-4.
_FIVES = np.array([5**n for n in range(21)], dtype=np.uint64)

FLOAT_WORDS = 4


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# word 0 of a slot without its sign, by min(max(e, -4), 0) + 4 for the
# exponent e of the first digit
_HEAD = np.array(
    [_word(b",\0" + b"0." + b"0" * zeros) for zeros in (3, 2, 1, 0)] + [_word(b",")],
    dtype=np.uint64,
)
# the slot of +0.0, and that of an empty field
_ZERO = np.array([_word(b",0.0"), 0, 0, 0], dtype=np.uint64).view("V32")
_EMPTY = np.array([_word(b","), 0, 0, 0], dtype=np.uint64).view("V32")
# _STEPS[0, v]: the digits of v < 10^4, right-aligned in four bytes after
# NUL bytes; _STEPS[1, v]: the four digits of v, with its leading zeros
_STEPS = np.zeros((2, 10**4), dtype=np.uint32)
for _j, _p in enumerate((1000, 100, 10, 1)):
    _digit = np.arange(10**4, dtype=np.uint32) // _p % 10 + 48
    _STEPS[1] |= _digit << 8 * _j
    _STEPS[0] |= np.where(np.arange(10**4) >= _p, _digit, 0).astype(np.uint32) << 8 * _j
_STEPS[0, 0] = _STEPS[1, 0] & 0xFF000000  # "0" in the last byte
# three digits in bytes 0 to 2 of a word and four in bytes 3 to 6: words 1
# and 2 of a slot are _THREE[g] | _FOUR[h], word 3 is _THREE[g]
_THREE = _STEPS[1, :1000].astype(np.uint64) >> 8
_FOUR = _STEPS[1].astype(np.uint64) << 24
# for words 1 to 3, a column against a row of lanes: the index, of the 17,
# of the word's first digit, its digits' bytes with digit 0, and 2^8 to
# the power of the first digit's byte in the 17
_FIRST = np.array([0, 7, 14])[:, None]
_NOUGHTS = np.array([_word(b"0" * 7)] * 2 + [_word(b"000")], dtype=np.uint64)[:, None]
_SCALE = 2.0 ** (8 * _FIRST)
# _KEEP[n]: the first n bytes of a word
_KEEP = np.array([(1 << 8 * n) - 1 for n in range(8)], dtype=np.uint64)
del _j, _p, _digit


# The most values float_slots formats at once: a whole block of simulate at
# S = 2, 3 * 4096 values, in one pass. Its scratch, 1.5 MB, and the packed
# slots it writes, 0.4 MB, are held through the walk. The Markov draw's
# batches (processes._BATCH) and Rows.text, which copies no rows, make room
# for them.
_LANES = 3 * 4096


class _Scratch:
    """The arrays :func:`float_slots` works in, ``lanes`` lanes of 11 uint64,
    4 int64 and 5 bool arrays, kept from one block to the next: allocated
    anew for each block, they took most of the page faults of ``simulate
    --out``."""

    def __init__(self, lanes: int) -> None:
        self.lanes = lanes
        self.u = np.empty(11 * lanes, dtype=_U)
        self.i = np.empty(4 * lanes, dtype=np.int64)
        self.b = np.empty(5 * lanes, dtype=bool)

    def arrays(self, lanes: int):
        """The arrays for ``lanes`` values, each C-contiguous: a pass of
        fewer values than the scratch has lanes for takes and writes no
        temporary copies."""
        return (
            self.u[: 11 * lanes].reshape(11, lanes),
            self.i[: 4 * lanes].reshape(4, lanes),
            self.b[: 5 * lanes].reshape(5, lanes),
        )


def float_slots(values, out, scratch: _Scratch) -> None:
    """Write each float of the 1-D array ``values``, as a field of a CSV
    row, into its slot: the row of the ``(len(values), FLOAT_WORDS)`` uint64
    array ``out``. The slot's bytes are a "," and the ``repr`` of the float,
    and NUL. ``scratch`` must have a lane for each value.

    Every step writes into one of the scratch's arrays. Each name says what
    its array holds at the time; an array a name no longer needs takes a
    later name, so that the scratch stays small."""
    lanes = len(values)
    u, i, b = scratch.arrays(lanes)
    mag, t, lo, c2, c0, c1, f0, f1, tmp, five, hi = u
    s, unit, rem2, near, d, r, w = c2, c0, c1, f0, hi, t, lo
    q, k, e, x = i
    fast, other, b1, b2, b3 = b
    bits = np.ascontiguousarray(values).view(_U)
    np.bitwise_and(bits, ~_SIGN, out=mag)
    np.greater_equal(mag, _SMALL, out=fast)
    np.less(mag, _LARGE, out=b1)
    fast &= b1
    # the other lanes are formatted from whatever their bits give, which
    # overflows no float and divides by no zero, and then given a splice
    np.logical_not(fast, out=other)

    # Schubfach, for x = c 2^q with c = t + 2^52, k = floor(log10(2^q)).
    # When t = 0 the next double below x is half as far as the one above,
    # which the method's irregular case handles. Of the fast range, only
    # its 68 powers of two have t = 0, and this symmetric interval gives
    # each of them the digits of repr too (tests/test_rows.py checks all),
    # so that case is left out.
    np.bitwise_and(mag, _U((1 << 52) - 1), out=t)
    np.right_shift(mag, _U(52), out=tmp)
    np.subtract(tmp.view(np.int64), 1075, out=q)
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
    # exponent e
    np.less(d, _U(10**16), out=b1)
    np.multiply(b1, _U(9), out=tmp)
    tmp += _U(1)
    d *= tmp
    np.add(k, 16, out=e)
    e -= b1
    # d = a 10^10 + b 10^3 + c, with a and b of seven digits, each 10^4 g
    # + h of three and four digits, and c of three
    ab, three, four = u[0:2], u[2:5], u[5:7]
    np.floor_divide(d, _U(10**10), out=ab[0])
    np.multiply(ab[0], _U(10**10), out=tmp)
    d -= tmp
    np.floor_divide(d, _U(1000), out=ab[1])
    np.multiply(ab[1], _U(1000), out=tmp)
    np.subtract(d, tmp, out=three[2])
    np.floor_divide(ab, _U(10**4), out=three[:2])
    np.multiply(three[:2], _U(10**4), out=four)
    np.subtract(ab, four, out=four)
    words = u[7:10]
    np.take(_THREE, three.view(np.int64), out=words, mode="clip")
    np.take(_FOUR, four.view(np.int64), out=ab, mode="clip")
    words[:2] |= ab
    # the last nonzero digit: the top nonzero byte of word j's digit values
    # is its float's binary exponent over 8 (a byte below 10 never rounds
    # up to the next one), and the float times 2^56j counts the bytes from
    # digit 7j on, so the largest of the three words' gives the digit; with
    # every digit 0 that float is 0.0, and the index -128
    digits, top = u[0:3], u[3:6].view(np.float64)
    np.subtract(words, _NOUGHTS, out=digits)
    np.copyto(top, digits, casting="unsafe")
    top *= _SCALE
    last = q
    np.max(top, axis=0, out=last.view(np.float64))
    last >>= 52
    last += 1
    last >>= 3
    last -= 128
    # the digits written: through the last nonzero one, and at least one
    # after the dot
    np.add(e, 1, out=x)
    np.maximum(last, x, out=last)
    last += 1
    count, mask = digits.view(np.int64), u[3:6]
    np.subtract(last, _FIRST, out=count)
    np.take(_KEEP, count, out=mask, mode="clip")
    words &= mask
    # the dot after digit e, in the word whose byte e - 7j that is: the
    # bytes above it move up one, by adding them 255 times. numpy shifts by
    # 64 or more, and by a negative 8 (e - 7j) seen as uint64, to 0, so the
    # other words keep their bytes and take no dot.
    np.multiply(e, 8, out=x)
    shift = digits.view(np.int64)
    np.subtract(x, 8 * _FIRST, out=shift)
    shift = shift.view(_U)
    np.left_shift(~_U(255), shift, out=mask)
    mask &= words
    mask *= _U(255)
    words += mask
    np.left_shift(_U(ord(".") << 8), shift, out=mask)
    np.bitwise_or(words, mask, out=out[:, 1:].T)
    head, sign = u[0:2]
    np.add(e, 4, out=x)
    np.take(_HEAD, x, out=head, mode="clip")
    np.right_shift(bits, _U(63), out=sign)
    sign *= _U(ord("-") << 8)
    np.bitwise_or(head, sign, out=out[:, 0])
    if other.any():
        at = np.flatnonzero(other)
        texts = [b"," + repr(v).encode() for v in values[at].tolist()]
        out[at] = np.array(texts, dtype=f"S{8 * FLOAT_WORDS}").view(_U).reshape(-1, FLOAT_WORDS)


def write_steps(cells, step: int) -> None:
    """Write the digits of the steps ``step``, ``step + 1``, ... into the
    rows of the uint8 array ``cells``, whose last axis is a step field of
    whole 32-bit lanes: right-aligned, after NUL bytes. The last lane takes
    the step's low four digits from ``_STEPS``; consecutive steps read
    consecutive entries, so a stretch of rows takes a slice. The lanes
    before it take the digits of ``step // 10^4``, which change only where
    the low four wrap to 0, once in a block of fewer than 10^4 rows."""
    lanes = cells.view(np.uint32)
    low, high = lanes[..., -1], lanes[..., :-1]
    column = (-1,) + (1,) * (low.ndim - 1)
    start = 0
    while start < len(cells):
        big, small = divmod(step + start, 10**4)
        end = min(len(cells), start + 10**4 - small)
        low[start:end] = _STEPS[int(big > 0), small : small + end - start].reshape(column)
        digits = str(big).encode() if big else b""
        high[start:end] = np.frombuffer(digits.rjust(4 * high.shape[-1], b"\0"), np.uint32)
        start = end


def step_digits(horizon: int) -> int:
    """The bytes of the step field of a run of ``horizon`` arrivals: its
    digits, in whole 32-bit lanes."""
    return -(-len(str(horizon)) // 4) * 4


class Rows:
    """A block of at most ``rows`` CSV rows of ``words`` 64-bit words each,
    for one run: the uint64 array ``words``, whose bytes are those of
    :meth:`text`'s rows and NUL, and its uint8 view ``bytes``. A byte never
    written stays NUL. ``slots[j]`` is the float slot from word ``j`` of the
    store. ``scratch`` and ``packed`` hold :func:`float_slots`' arrays and
    the slots it writes, for the ``values`` floats of a block, or for
    ``_LANES`` of them, in rows of ``rows``."""

    def __init__(self, rows: int, words: int, values: int) -> None:
        self._store = bytearray(8 * rows * words)
        self.words = np.frombuffer(self._store, dtype=_U).reshape(rows, words)
        self.bytes = self.words.view(np.uint8)
        self.slots = np.ndarray(
            (max(rows * words - FLOAT_WORDS + 1, 0),), dtype="V32", buffer=self._store, strides=(8,)
        )
        self.scratch = _Scratch(min(values, max(rows, _LANES)))
        self.packed = np.empty((self.scratch.lanes, FLOAT_WORDS), dtype=_U)

    def put(self, start: int, text: bytes) -> None:
        """Write ``text`` into every row, from byte ``start``."""
        self.bytes[:, start : start + len(text)] = np.frombuffer(text, np.uint8)

    def offsets(self, columns) -> np.ndarray:
        """The word of the store at each word of ``columns`` of each row: an
        int64 array of ``(rows, len(columns))``, for :meth:`floats`."""
        rows, words = self.words.shape
        return np.arange(0, rows * words, words)[:, None] + np.asarray(columns)

    def floats(self, values, at, todo=None) -> None:
        """Write the field of each float of ``values`` into the slot at its
        word of ``at``, an array of the same shape. A +0.0 takes the
        ``,0.0`` slot. The values where ``todo``, a bool array of the same
        shape, by default every other one, are packed and formatted by
        :func:`float_slots`, as many at a time as the scratch has lanes for;
        a value neither +0.0 nor in ``todo`` is left to the caller."""
        bits = values.view(_U)
        zero = bits == 0
        self.slots[at[zero]] = _ZERO
        index = np.flatnonzero(~zero if todo is None else todo)
        for lo in range(0, len(index), self.scratch.lanes):
            part = index[lo : lo + self.scratch.lanes]
            packed = self.packed[: len(part)]
            float_slots(np.take(values, part), packed, self.scratch)
            self.slots[np.take(at, part)] = packed.view("V32")[:, 0]

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
    :class:`Rows`: the region of the seed and the step, then the slots of
    the S coordinates, the total and the wait, the wait's holding the
    newline."""

    def __init__(self, seed, horizon, system, columns):
        seed_cell = f"{seed},".encode()
        digits = step_digits(horizon)
        head = -(-(len(seed_cell) + digits) // 8)  # the words before the floats
        self.rank = system.rank - 1
        floats = system.servers + 1  # the coordinates and the total
        words = head + FLOAT_WORDS * (floats + 1)
        self.rows = Rows(columns, words, columns * floats)
        self.rows.put(8 * head - digits - len(seed_cell), seed_cell)
        self.step = self.rows.bytes[:, 8 * head - digits : 8 * head]
        self.at = self.rows.offsets(head + FLOAT_WORDS * np.arange(floats))
        self.fields = self.rows.words[:, head:].view("V32")  # and the wait's
        self.values = np.empty((columns, floats))
        # step 0 precedes the first arrival: its wait field is empty
        self.wait = _EMPTY.copy()

    def block(self, step, path, totals):
        """The bytes of the rows of steps ``step``, ``step + 1``, ... whose
        profiles are the columns of ``path`` and whose totals ``totals``."""
        n = path.shape[1]
        self._floats(path, totals)
        self.rows.bytes[:n, -1] = ord("\n")
        write_steps(self.step[:n], step)
        return self.rows.text(n)

    def _floats(self, path, totals):
        """Write the float fields of a block's rows; its masks are freed
        before :meth:`Rows.text` takes the store's size."""
        n = path.shape[1]
        values = self.values[:n]
        values[:, :-1] = path.T
        values[:, -1] = totals
        bits = values.view(_U)
        same = bits[:, -1] == bits[:, -2]  # the total is coordinate S's cell
        todo = bits != 0
        todo[:, -1] &= ~same
        self.rows.floats(values, self.at[:n], todo)
        copies = self.at[:n, -1][same]
        self.rows.slots[copies] = self.rows.slots[copies - FLOAT_WORDS]
        # the wait column is coordinate r shifted down one row
        fields = self.fields[:n]
        fields[0, -1] = self.wait[0]
        fields[1:, -1] = fields[:-1, self.rank]
        self.wait = fields[-1:, self.rank].copy()


class TrajectoryRows:
    """The ``[compare] trajectories`` CSV rows of one system of S servers
    over ``horizon`` arrivals, labelled ``label``: for each step, one
    "step,label,coordinate,value" row per coordinate. The S rows of a step
    are one row of a :class:`Rows`, of a block of at most ``columns``; each
    is the step, the label and coordinate, and the value's slot, which holds
    the newline."""

    def __init__(self, label, servers, horizon, columns):
        digits = step_digits(horizon)
        step = -(-digits // 8)  # the words of the step
        texts = [f",{label},{i}".encode() for i in range(1, servers + 1)]
        head = step + -(-max(map(len, texts)) // 8)  # and of the label
        line = head + FLOAT_WORDS
        self.rows = Rows(columns, line * servers, columns * servers)
        for i, text in enumerate(texts):
            self.rows.put(8 * (line * i + step), text)
        lines = self.rows.bytes.reshape(columns, servers, 8 * line)
        self.step = lines[..., 8 * step - digits : 8 * step]
        self.newlines = lines[..., -1]
        self.at = self.rows.offsets(head + line * np.arange(servers))

    def block(self, step, path):
        """The bytes of the rows of steps ``step``, ``step + 1``, ... whose
        profiles are the columns of ``path``."""
        n = path.shape[1]
        self.rows.floats(path.T, self.at[:n])
        self.newlines[:n] = ord("\n")
        write_steps(self.step[:n], step)
        return self.rows.text(n)
