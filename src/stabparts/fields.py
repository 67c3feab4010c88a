"""GF(q) arithmetic for q = p^k <= 64, with fixed modulus polynomials.

Elements are indexed 0..q-1 by the base-p encoding of their polynomial
coefficients (constant term least significant), so index 0 is zero, index 1
is one and, for k > 1, index p is the class of x.  The modulus for each q is
fixed by a built-in table so every derived point numbering is reproducible.

Both tables are built from one (q, k) array of coefficient digits: addition
is digitwise mod p, and a * b is the sum of a_i (x^i b), where x^i b comes
from one "times x" table (shift the digits up, then subtract the overflow
digit times the modulus).
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


def prime_divisors(n: int) -> list[int]:
    """The primes dividing n, ascending, by trial division; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def prime_power(n: int) -> tuple[int, int] | None:
    """(r, d) with n = r^d for a prime r and d >= 1, or None."""
    primes = prime_divisors(n)
    if len(primes) != 1:
        return None
    return primes[0], next(d for d in range(1, n.bit_length()) if primes[0]**d == n)


def is_prime(n: int) -> bool:
    return prime_divisors(n) == [n]


class FiniteField:
    """GF(p^k) with dense lookup tables: addition and multiplication, and
    the Frobenius map a -> a^p (frobenius_table)."""

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
        self._check_inverses()
        self.frobenius_table = np.ones(q, dtype=np.int16)  # a -> a^p
        for _ in range(p):
            self.frobenius_table = self.mul_table[self.frobenius_table, np.arange(q)]
        self.frobenius_table.setflags(write=False)

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Both tables from the (q, k) array of every element's digits."""
        p, k, q = self.p, self.k, self.q
        weights = p ** np.arange(k)
        digits = np.arange(q)[:, np.newaxis] // weights % p  # (q, k) coefficients
        add = (digits[:, np.newaxis] + digits) % p @ weights
        # x * a: shift the digits up; x^k = -(modulus below degree k)
        shifted = np.pad(digits[:, :-1], ((0, 0), (1, 0)))
        times_x = (shifted - digits[:, -1:] * self.modulus[:k]) % p @ weights
        # a * b = sum over i of a_i (x^i b), summed digitwise
        total = np.zeros((q, q, k), dtype=np.int64)
        x_power_b = np.arange(q)
        for i in range(k):
            total += digits[:, i, np.newaxis, np.newaxis] * digits[x_power_b]
            x_power_b = times_x[x_power_b]
        mul = total % p @ weights
        add, mul = add.astype(np.int16), mul.astype(np.int16)
        add.setflags(write=False)
        mul.setflags(write=False)
        return add, mul

    def _check_inverses(self) -> None:
        for i in range(1, self.q):
            if np.count_nonzero(self.mul_table[i] == 1) != 1:
                raise AssertionError(f"element {i} of GF({self.q}) not invertible")

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def primitive_element(self) -> int:
        """Least element generating the multiplicative group: the least a
        whose powers first reach 1 at a^(q-1)."""
        units = np.arange(1, self.q)
        power, early = np.ones_like(units), np.zeros(units.shape, dtype=bool)
        for _ in range(self.q - 2):  # a^1 .. a^(q-2)
            power = self.mul_table[power, units]
            early |= power == 1
        return int(units[~early][0])

    def __repr__(self) -> str:
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def build_field(p: int, k: int) -> FiniteField:
    key = (p, k)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, k)
    return _FIELD_CACHE[key]
