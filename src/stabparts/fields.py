"""GF(q) arithmetic for q = p^k <= 64, with fixed modulus polynomials.

Elements are indexed 0..q-1 by the base-p encoding of their polynomial
coefficients (constant term least significant), so index 0 is zero, index 1
is one and, for k > 1, index p is the class of x.  The modulus for each q is
fixed by a built-in table so every derived point numbering is reproducible.
"""

from __future__ import annotations

import numpy as np

MAX_Q = 64

# coefficient lists, low degree first, monic leading 1 included
_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),            # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),         # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),      # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),   # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 2): (1, 0, 1),            # x^2 + 1
    (3, 3): (1, 2, 0, 1),         # x^3 + 2x + 1
    (5, 2): (2, 0, 1),            # x^2 + 2
    (7, 2): (1, 0, 1),            # x^2 + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FiniteField:
    """GF(p^k) with dense addition/multiplication tables."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        q = p**k
        if k < 1 or q > MAX_Q:
            raise ValueError(f"q = {q} out of supported range (2..{MAX_Q})")
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            self.modulus = (0, 1)
        else:
            try:
                self.modulus = _MODULI[(p, k)]
            except KeyError:
                raise ValueError(f"no modulus on file for GF({p}^{k})") from None
        self.add_table, self.mul_table = self._build_tables()
        self._inv = self._build_inverses()

    # -- table construction --------------------------------------------------

    def _coeffs(self, idx: int) -> list[int]:
        c = []
        for _ in range(self.k):
            c.append(idx % self.p)
            idx //= self.p
        return c

    def _index(self, coeffs: list[int]) -> int:
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + (c % self.p)
        return idx

    def _polymul(self, a: list[int], b: list[int]) -> list[int]:
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce modulo the monic modulus
        mod = self.modulus
        for deg in range(len(prod) - 1, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j in range(k):
                    prod[deg - k + j] = (prod[deg - k + j] - c * mod[j]) % p
        return prod[:k]

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        q = self.q
        add = np.zeros((q, q), dtype=np.int16)
        mul = np.zeros((q, q), dtype=np.int16)
        coeffs = [self._coeffs(i) for i in range(q)]
        for i in range(q):
            for j in range(q):
                add[i, j] = self._index(
                    [(a + b) % self.p for a, b in zip(coeffs[i], coeffs[j])]
                )
                mul[i, j] = self._index(self._polymul(coeffs[i], coeffs[j]))
        add.setflags(write=False)
        mul.setflags(write=False)
        return add, mul

    def _build_inverses(self) -> np.ndarray:
        inv = np.zeros(self.q, dtype=np.int16)
        for i in range(1, self.q):
            row = np.nonzero(self.mul_table[i] == 1)[0]
            if row.size != 1:
                raise AssertionError(f"element {i} of GF({self.q}) not invertible")
            inv[i] = row[0]
        inv.setflags(write=False)
        return inv

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        row = np.nonzero(self.add_table[a] == 0)[0]
        return int(row[0])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self._inv[a])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int, e: int = 1) -> int:
        """x -> x^(p^e)."""
        return self.power(a, self.p**e)

    def element_mult_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            order += 1
        return order

    def primitive_element(self) -> int:
        """Least element generating the multiplicative group."""
        for a in range(1, self.q):
            if self.element_mult_order(a) == self.q - 1:
                return a
        raise AssertionError("no primitive element found")  # pragma: no cover

    def __repr__(self) -> str:
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def build_field(p: int, k: int) -> FiniteField:
    key = (p, k)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, k)
    return _FIELD_CACHE[key]
