"""Write the collision certificates that the theorem1 suite rechecks.

For every row (a, b, v) of `verify.EXPECTED_TABLE`, in order, the script
takes the `first` and then the `second` array of `collision_certificate(a, v)`
and writes them as little-endian unsigned 16-bit ints, zlib-compressed, to
`src/discrim/theorem1_pairs.bin`. `check_theorem1` hands each row above its
n_max these committed pairs, and `recheck_collision_certificate` alone
decides them, so the suite never runs the search. Rerun the script whenever
the search's pairs or `EXPECTED_TABLE` change:

    python tools/theorem1_pairs.py

It takes no options. `tests/test_discriminator.py` checks that the file
decodes to exactly the search's pairs, row by row.
"""

import sys
import zlib
from array import array
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PAIRS_FILE = SRC / "discrim" / "theorem1_pairs.bin"


def encode(certificates) -> bytes:
    """The file's bytes for (first, second) pair arrays given in
    `EXPECTED_TABLE` order: each row's first then second, as little-endian
    uint16, zlib-compressed. An entry above 65535 raises OverflowError."""
    pairs = array("H")
    for first, second in certificates:
        pairs.fromlist([*first, *second])
    if sys.byteorder == "big":
        pairs.byteswap()
    return zlib.compress(pairs.tobytes(), 9)


def main() -> None:
    if len(sys.argv) > 1:
        sys.exit("usage: python tools/theorem1_pairs.py (it takes no options)")
    sys.path.insert(0, str(SRC))
    from discrim.discriminator import collision_certificate
    from discrim.verify import EXPECTED_TABLE

    data = encode(collision_certificate(a, v) for a, _, v in EXPECTED_TABLE)
    PAIRS_FILE.write_bytes(data)
    print(f"wrote {len(data)} bytes for {len(EXPECTED_TABLE)} rows to {PAIRS_FILE.relative_to(SRC.parent)}")


if __name__ == "__main__":
    main()
