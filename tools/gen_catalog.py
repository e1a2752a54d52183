#!/usr/bin/env python3
"""Regenerate src/gf2kq/_catalog_data.py.

Searches, for every degree 2..512: the lexicographically least irreducible
polynomial (by integer encoding), the least-k irreducible trinomial
x^n + x^k + 1 with 1 < k < n if one exists, and the least-k irreducible
equally spaced polynomial of that degree if one exists. Run from the
repository root:

    python tools/gen_catalog.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gf2kq.catalog import search_least_irreducible
from gf2kq.gf2 import _is_irreducible

MAX_N = 512


def least_trinomial_k(n: int):
    for k in range(2, n):
        if _is_irreducible((1 << n) | (1 << k) | 1):
            return k
    return None


def equally_spaced(n: int):
    for terms in range(n, 1, -1):  # larger terms -> smaller k first
        if n % terms:
            continue
        k = n // terms
        if not 0 < k < terms:
            continue
        p = 0
        for i in range(terms + 1):
            p |= 1 << (i * k)
        if _is_irreducible(p):
            return terms, k
    return None


def main() -> None:
    t0 = time.time()
    generic = {}
    trinomial = {}
    spaced = {}
    for n in range(2, MAX_N + 1):
        generic[n] = search_least_irreducible(n).bits
        k = least_trinomial_k(n)
        if k is not None:
            trinomial[n] = k
        es = equally_spaced(n)
        if es is not None:
            spaced[n] = es
        if n % 64 == 0:
            print(f"... n={n} ({time.time() - t0:.0f}s)", file=sys.stderr)

    out = Path(__file__).resolve().parent.parent / "src" / "gf2kq" / "_catalog_data.py"
    with out.open("w") as fh:
        fh.write('"""Static irreducible-polynomial tables. Regenerate with tools/gen_catalog.py."""\n\n')
        fh.write("# degree -> least irreducible polynomial, int-encoded (bit i = coeff of x^i)\n")
        fh.write("GENERIC = {\n")
        for n, p in generic.items():
            fh.write(f"    {n}: {hex(p)},\n")
        fh.write("}\n\n")
        fh.write("# degree -> least k with x^n + x^k + 1 irreducible, 1 < k < n\n")
        fh.write("TRINOMIAL_K = {\n")
        for n, k in trinomial.items():
            fh.write(f"    {n}: {k},\n")
        fh.write("}\n\n")
        fh.write("# degree -> (terms, k) with sum_i x^(i*k) irreducible, 0 < k < terms\n")
        fh.write("EQUALLY_SPACED = {\n")
        for n, tk in spaced.items():
            fh.write(f"    {n}: {tk},\n")
        fh.write("}\n")
    print(f"wrote {out} in {time.time() - t0:.0f}s", file=sys.stderr)
    print(f"generic: {len(generic)}, trinomial: {len(trinomial)}, equally spaced: {len(spaced)}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
