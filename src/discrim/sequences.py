"""Sequence providers: the flagship 3^j-based sequence and generic specs.

The flagship sequence is u_j = (3^j - 5(-1)^j)/4, equivalently the recurrence
u_n = 2u_{n-1} + 3u_{n-2} with u_1 = 2, u_2 = 1. Generic second-order linear
recurrences and polynomial sequences feed the same discriminator engine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

SALAJAN = "salajan"
LINEAR_RECURRENCE = "linear_recurrence"
POLYNOMIAL = "polynomial"

DEFAULT_EXACT_CAP = 200_000

# A recurrence scan runs in a Python set loop, where almost every scan ends.
# Past tail_start(m) terms it continues in numpy blocks (`_recurrence_tail`),
# which cost about 150 Python steps to set up and then about a tenth of a
# Python step per term. So they take over only where a scan is unlikely to
# end soon: after at least TAIL_HEAD terms and after four times sqrt(m), the
# birthday length at which m random residues first collide. A block holds
# rows of _WINDOW terms, _FIRST_ROWS rows at first and four times as many
# after each block, up to _MAX_BLOCK terms. The blocks keep a table of m
# entries, so moduli above TAIL_MAX_MODULUS stay in the Python loop; below
# it, coefficient * residue products stay under 2^44 and fit int64.
#
# All of that holds once numpy is loaded. Before, the blocks first cost the
# import: 60-110 ms on 2 cores, about what TAIL_RENT = 2^19 terms cost in
# Python (0.14-0.22 us a step) over their cost in blocks (0.02-0.04 us).
# So a process without numpy keeps its scans in Python past tail_start(m),
# drawing those terms from one process-wide rent of TAIL_RENT, and the scan
# that outruns the rent imports numpy and goes on in blocks from where it
# stands. Renting until the rent has cost the import, then buying (rent or
# buy), costs at most about twice the cheaper of always and never importing.
TAIL_HEAD = 256
TAIL_RENT = 1 << 19
TAIL_MAX_MODULUS = 1 << 22
_WINDOW = 64
_FIRST_ROWS = 4
_MAX_BLOCK = 1024

_rent_left = TAIL_RENT  # Python terms past tail_start(m) this process may still run


class CapExceeded(RuntimeError):
    """A step or search budget ran out before the computation could finish."""


class MethodsDisagree(AssertionError):
    """Two methods that must give the same answer did not."""


class SequenceNotAdmissible(ValueError):
    """The sequence repeats a term, so no modulus can separate its prefix."""


@dataclass(frozen=True)
class SequenceSpec:
    kind: str
    coeffs: tuple[int, ...] = ()   # linear_recurrence: (c1, c2); polynomial: (a0, a1, ...)
    initial: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.kind == SALAJAN:
            if self.coeffs or self.initial:
                raise ValueError("salajan spec takes no parameters")
        elif self.kind == LINEAR_RECURRENCE:
            if len(self.coeffs) != 2 or len(self.initial) != 2:
                raise ValueError("linear recurrence needs coefficients (c1, c2) and initial (v1, v2)")
        elif self.kind == POLYNOMIAL:
            if not self.coeffs or self.initial:
                raise ValueError("polynomial needs a nonempty coefficient list and no initial terms")
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    def as_recurrence(self) -> tuple[int, int, int, int]:
        """(c1, c2, v1, v2) for recurrence kinds; rejects polynomials."""
        if self.kind == SALAJAN:
            return 2, 3, 2, 1
        if self.kind == LINEAR_RECURRENCE:
            return self.coeffs[0], self.coeffs[1], self.initial[0], self.initial[1]
        raise ValueError("polynomial sequences have no recurrence form")

    def text(self) -> str:
        if self.kind == SALAJAN:
            return "salajan"
        if self.kind == LINEAR_RECURRENCE:
            return "linrec:" + ",".join(map(str, self.coeffs + self.initial))
        return "poly:" + ",".join(map(str, self.coeffs))


def salajan() -> SequenceSpec:
    return SequenceSpec(SALAJAN)


def linear_recurrence(c1: int, c2: int, v1: int, v2: int) -> SequenceSpec:
    return SequenceSpec(LINEAR_RECURRENCE, (c1, c2), (v1, v2))


def polynomial(*coeffs: int) -> SequenceSpec:
    return SequenceSpec(POLYNOMIAL, tuple(coeffs))


def parse_spec(text: str) -> SequenceSpec:
    """Parse the CLI text form: salajan | linrec:c1,c2,v1,v2 | poly:a0,a1,..."""
    text = text.strip()
    if text == "salajan":
        return salajan()
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed sequence spec {text!r}")
    try:
        nums = [int(part) for part in body.split(",")] if body else []
    except ValueError:
        raise ValueError(f"non-integer parameter in sequence spec {text!r}") from None
    if head == "linrec":
        if len(nums) != 4:
            raise ValueError("linrec spec needs exactly c1,c2,v1,v2")
        return linear_recurrence(*nums)
    if head == "poly":
        if not nums:
            raise ValueError("poly spec needs at least one coefficient")
        return polynomial(*nums)
    raise ValueError(f"unknown sequence kind {head!r}")


def salajan_term_exact(j: int) -> int:
    """Exact u_j = (3^j - 5(-1)^j)/4; refuses j > DEFAULT_EXACT_CAP to bound memory."""
    if j < 1:
        raise ValueError("index must be positive")
    if j > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"exact term index {j} exceeds cap {DEFAULT_EXACT_CAP}")
    sign = -1 if j % 2 else 1
    num = 3**j - 5 * sign
    return num // 4


def salajan_term_mod(j: int, m: int) -> int:
    """u_j mod m in O(log j) time.

    Works modulo 4m so that the numerator 3^j - 5(-1)^j, which is exactly
    divisible by 4, can be divided without needing 4 to be invertible mod m.
    """
    if j < 1:
        raise ValueError("index must be positive")
    if m < 1:
        raise ValueError("modulus must be positive")
    four_m = 4 * m
    sign = -1 if j % 2 else 1
    t = (pow(3, j, four_m) - 5 * sign) % four_m
    return (t >> 2) % m


def _poly_eval(coeffs: tuple[int, ...], j: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = acc * j + a
    return acc


def term_exact(spec: SequenceSpec, j: int) -> int:
    """Exact j-th term of any spec (test-oracle path, arbitrary precision)."""
    if j < 1:
        raise ValueError("index must be positive")
    if spec.kind == SALAJAN:
        return salajan_term_exact(j)
    if spec.kind == POLYNOMIAL:
        return _poly_eval(spec.coeffs, j)
    if j > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"exact term index {j} exceeds cap {DEFAULT_EXACT_CAP}")
    for t in exact_terms(spec, j):
        pass
    return t


def exact_terms(spec: SequenceSpec, n: int):
    """Yield v_1, ..., v_n exactly: a recurrence is walked once, and the
    terms of any other spec come one by one from `term_exact`."""
    if spec.kind != LINEAR_RECURRENCE:
        yield from (term_exact(spec, j) for j in range(1, n + 1))
        return
    c1, c2, x, y = spec.as_recurrence()
    for _ in range(n):
        yield x
        x, y = y, c1 * y + c2 * x


def residue_iter(spec: SequenceSpec, m: int):
    """Yield v_1 mod m, v_2 mod m, ... with constant work per step."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if spec.kind == POLYNOMIAL:
        coeffs = spec.coeffs
        j = 1
        while True:
            yield _poly_eval(coeffs, j) % m
            j += 1
    else:
        c1, c2, v1, v2 = spec.as_recurrence()
        x = v1 % m
        y = v2 % m
        yield x
        while True:
            yield y
            x, y = y, (c1 * y + c2 * x) % m


def distinct_prefix_length(spec: SequenceSpec, m: int, limit: int) -> int:
    """min(iota(m), limit): how many leading terms stay pairwise distinct mod m.

    Streams residues into a set and stops at the first repeat or at `limit`,
    whichever comes first. This is the shared engine behind the single-modulus
    discriminator check and the incongruence index. Recurrence scans that
    pass tail_start(m) terms continue in numpy blocks (`_recurrence_tail`),
    or, while numpy is not loaded, in Python until the process has spent
    TAIL_RENT such terms; the blocks use nothing but the recurrence itself,
    so the answer stays a brute-force one.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if limit < 1:
        raise ValueError("limit must be positive")
    if spec.kind == POLYNOMIAL:
        seen = set()
        add = seen.add
        k = 0
        for r in residue_iter(spec, m):
            if r in seen:
                return k
            add(r)
            k += 1
            if k >= limit:
                return k
        raise AssertionError("unreachable")  # pragma: no cover
    c1, c2, v1, v2 = spec.as_recurrence()
    start = tail_start(m)
    start = limit if start is None else min(limit, start)
    if start == limit or "numpy" in sys.modules:
        return _recurrence_scan(c1, c2, v1, v2, m, limit, start)
    global _rent_left
    stop = start + _rent_left
    k = _recurrence_scan(c1, c2, v1, v2, m, limit, stop)
    _rent_left -= max(0, min(k, stop) - start)
    return k


def _recurrence_scan(c1: int, c2: int, v1: int, v2: int, m: int, limit: int, start: int) -> int:
    """min(iota(m), limit) for a recurrence: the first `start` terms in a
    Python set loop, the rest in numpy blocks."""
    x = v1 % m
    if limit == 1:
        return 1
    y = v2 % m
    if y == x:
        return 1
    head = start - _WINDOW if start < limit else limit
    seen = {x, y}
    add = seen.add
    k = 2
    while k < head:
        x, y = y, (c1 * y + c2 * x) % m
        if y in seen:
            return k
        add(y)
        k += 1
    if k == limit:
        return k
    # the last _WINDOW head terms are also kept in order, in a loop of their
    # own so that scans ending earlier pay nothing for it
    window = [y]
    keep = window.append
    while k < start:
        x, y = y, (c1 * y + c2 * x) % m
        if y in seen:
            return k
        add(y)
        keep(y)
        k += 1
    return _recurrence_tail(c1 % m, c2 % m, m, limit, seen, window)


def tail_start(m: int) -> int | None:
    """How many terms a recurrence scan mod m runs in Python before the numpy
    blocks take over, or None when m is too large for the blocks' table."""
    if m > TAIL_MAX_MODULUS:
        return None
    return max(TAIL_HEAD, 4 * math.isqrt(m))


@cache
def _positions() -> np.ndarray:
    """1, ..., _MAX_BLOCK as int16: the 1-based positions a block claims."""
    import numpy as np

    return np.arange(1, _MAX_BLOCK + 1, dtype=np.int16)


def _first_repeat(owner: np.ndarray, vals: np.ndarray) -> int | None:
    """Offset in `vals` of its first residue seen before, or None.

    `owner[r]` is 0 for a residue not seen yet and positive otherwise. The
    block claims its residues with their 1-based positions; a residue that
    occurs twice in the block reads back a position other than its own,
    whichever write won. numpy leaves the order of repeated writes open, so
    a block with a repeat is claimed again with `np.minimum.at`, which
    applies every write and leaves each residue its first position.
    """
    import numpy as np

    pos = _positions()[: len(vals)]
    prev = owner[vals]
    owner[vals] = pos
    if not np.count_nonzero(prev) and owner[vals].tobytes() == pos.tobytes():
        return None
    owner[vals] = _MAX_BLOCK + 1
    np.minimum.at(owner, vals, pos)
    repeat = owner[vals] != pos  # every occurrence but the first in the block
    repeat |= prev.astype(bool)
    return int(repeat.argmax())


def _recurrence_tail(c1: int, c2: int, m: int, limit: int, seen: set, window: list) -> int:
    """Continue a scan whose first len(seen) residues are distinct, the last
    _WINDOW + 1 of them in order in `window`, in numpy blocks; returns
    min(iota(m), limit).

    With w the last _WINDOW + 1 residues, row j of a block is
    v_{t+jW+1} = a_j*v_{t+1} + b_j*v_t (mod m) for the W = _WINDOW indices t
    of w, where (a_j, b_j) is the top row of P^j, P = [[c1, c2], [1, 0]]^W
    mod m. Each block's last W + 1 residues are the next block's w.
    """
    import numpy as np

    k = len(seen)
    owner = np.zeros(m, dtype=np.int16)
    owner[np.fromiter(seen, dtype=np.int64, count=k)] = 1
    w = np.array(window, dtype=np.int64)
    p11, p12, p21, p22 = c1, c2, 1, 0
    for _ in range(_WINDOW.bit_length() - 1):  # squarings: _WINDOW is a power of 2
        p11, p12, p21, p22 = (
            (p11 * p11 + p12 * p21) % m,
            (p11 * p12 + p12 * p22) % m,
            (p21 * p11 + p22 * p21) % m,
            (p21 * p12 + p22 * p22) % m,
        )
    tops = [(p11, p12)]
    rows = _FIRST_ROWS
    while k < limit:
        if len(tops) < rows:
            while len(tops) < rows:
                a, b = tops[-1]
                tops.append(((a * p11 + b * p21) % m, (a * p12 + b * p22) % m))
            coeffs = np.array(tops, dtype=np.int64)
            ca, cb = coeffs[:, :1], coeffs[:, 1:]
        vals = ((ca * w[1:] + cb * w[:-1]) % m).ravel()[: limit - k]
        hit = _first_repeat(owner, vals)
        if hit is not None:
            return k + hit
        k += len(vals)
        w = vals[-_WINDOW - 1 :]
        rows = min(4 * rows, _MAX_BLOCK // _WINDOW)
    return k
