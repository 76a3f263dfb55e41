"""Exact coefficients of Temme's uniform expansion of the incomplete gamma.

With lambda = x / a and eta^2 / 2 = lambda - 1 - ln lambda, sign eta =
sign(lambda - 1), P(a, x) = Phi(eta sqrt a) - R_a(eta), where

    R_a(eta) ~ e^{-a eta^2 / 2} / sqrt(2 pi a) sum_k c_k(eta) a^{-k},
    c_0 = 1/mu - 1/eta,   c_k = c_{k-1}'/eta + (-1)^k g_k / mu,

mu = lambda - 1 and g_k the Stirling coefficients of Gamma (Temme 1979;
DLMF 8.12.4, 8.12.8, 5.11.3).  Every c_k is analytic at eta = 0: this
module computes its Taylor coefficients d_{k,n} as exact rationals,
checking at each step that the poles of the two terms cancel, and
truncates row k where the terms left out, at |eta| <= H and a >= A0,
add up to less than 2^-56.

    python tests/temme_table.py > src/edgelab/_temme.py

writes the table that `edgelab.expansion` evaluates; a test re-derives it
and compares every entry with its rounded rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List

# The window of the expansion branch, chosen by measurement against
# mpmath (see the kernel's docstring): a >= A0 and |eta| <= H.
A0 = 20
H = Fraction(3, 2)
# Terms computed per row before truncation; the ratio of successive
# terms tends to H / (2 sqrt pi) < 0.43, so those past it are negligible.
LENGTH = 72
TAIL = Fraction(1, 2 ** 56)


def _power(h: List[Fraction], alpha: Fraction, length: int
           ) -> List[Fraction]:
    """h^alpha to `length` terms, for a series h with h[0] = 1, by the
    recurrence of (h^alpha)' h = alpha h' h^alpha."""
    out = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for n in range(1, length):
        acc = Fraction(0)
        for k in range(1, min(n, len(h) - 1) + 1):
            acc += ((alpha + 1) * k - n) * h[k] * out[n - k]
        out[n] = acc / n
    return out


def mu_series(length: int) -> List[Fraction]:
    """mu(eta) to `length` terms, the reversion of eta^2 / 2 = mu -
    ln(1 + mu) with sign eta = sign mu.  Writing mu - ln(1 + mu) = mu^2
    h(mu) / 2 gives eta = mu h^(1/2), and Lagrange inversion gives the
    coefficient of eta^j as [mu^(j-1)] h^(-j/2) / j."""
    h = [Fraction(2 * (-1) ** k, k + 2) for k in range(length)]
    mu = [Fraction(0)] * length
    for j in range(1, length):
        mu[j] = _power(h, Fraction(-j, 2), j)[j - 1] / j
    return mu


def stirling_g(K: int) -> List[Fraction]:
    """g_0..g_K of Gamma(z) ~ e^-z z^z (2 pi / z)^(1/2) sum_k g_k z^-k,
    the exponential of the Stirling series sum_m B_2m / (2m (2m - 1)
    z^(2m-1))."""
    B = [Fraction(1)] + [Fraction(0)] * (K + 1)
    for m in range(1, K + 2):
        B[m] = -sum(comb(m + 1, j) * B[j] for j in range(m)) / (m + 1)
    S = [Fraction(0)] * (K + 1)
    for m in range(1, K // 2 + 2):
        if 2 * m - 1 <= K:
            S[2 * m - 1] = B[2 * m] / (2 * m * (2 * m - 1))
    g = [Fraction(1)] + [Fraction(0)] * K
    for n in range(1, K + 1):
        g[n] = sum(k * S[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def temme_rows(K: int, length: int = LENGTH) -> List[List[Fraction]]:
    """Taylor coefficients of c_0..c_{K-1}, `length` - 2k of row k."""
    mu = mu_series(length + 2 * K + 1)
    inv_u = _power(mu[1:], Fraction(-1), len(mu) - 1)   # eta / mu
    g = stirling_g(K)
    rows = [inv_u[1:length + 2 * K - 1]]                 # 1/mu - 1/eta
    for k in range(1, K):
        prev, sign = rows[-1], (-1) ** k
        # c_{k-1}'/eta and (-1)^k g_k / mu each have a simple pole
        if prev[1] + sign * g[k] != 0:
            raise ArithmeticError("the poles of c_%d do not cancel" % k)
        rows.append([(n + 2) * prev[n + 2] + sign * g[k] * inv_u[n + 1]
                     for n in range(len(prev) - 2)])
    return rows


def table() -> List[List[Fraction]]:
    """The rows d_{k,0..N_k-1}: row k ends where the terms left out add up
    to less than 2^-56 at |eta| = H, a = A0; the rows stop at the first
    that would be empty."""
    out = []
    for k, row in enumerate(temme_rows(16)):
        scaled = [abs(d) * H ** n / Fraction(A0) ** k
                  for n, d in enumerate(row)]
        n_k = len(row)
        while n_k and sum(scaled[n_k - 1:]) < TAIL:
            n_k -= 1
        if n_k == 0:
            break
        out.append(row[:n_k])
    return out


def module_text(rows: List[List[Fraction]]) -> str:
    """The source of edgelab._temme: A0, H and the rows of D as the
    nearest floats to the rationals."""
    lines = ['"""Coefficients d_{k,n} of Temme\'s expansion of the incomplete '
             'gamma,',
             'c_k(eta) = sum_n d_{k,n} eta^n for k < len(D), as the nearest '
             'floats',
             'to the exact rationals; written by tests/temme_table.py, do not '
             'edit."""',
             '',
             'A0 = %r' % float(A0),
             'H = %r' % float(H),
             'D = (']
    for row in rows:
        lines.append('    (')
        line = ''
        for d in row:
            entry = '%r,' % float(d)
            if len(line) + len(entry) > 70:
                lines.append('       ' + line)
                line = ''
            line += ' ' + entry
        lines += ['       ' + line, '    ),']
    lines.append(')')
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(module_text(table()), end="")
