"""Seeded open-interval uniforms and the standard normal inverse CDF.

A pure-Python port that reproduces, bit for bit, NumPy's
`Generator(PCG64(seed)).integers(1, 2**53, n) / 2**53` and SciPy's
`special.ndtri`, so the GBM path bytes do not depend on either library
being installed.

- Seeding follows NumPy's `SeedSequence` (the `hashmix`/`mix` entropy
  pool of 4 32-bit words, then `generate_state(4, uint64)`).
- The generator is PCG64 (O'Neill, "PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation", 2014): a 128-bit LCG stepped before each XSL-RR output.
- Bounded integers use Lemire's multiply-and-reject method ("Fast Random
  Integer Generation in an Interval", ACM TOMACS 2019), as NumPy does.
- `ndtri` is S. Moshier's Cephes `ndtri.c`, with the same rational
  approximations evaluated in the same operation order.
"""

from __future__ import annotations

import math

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence constants (NumPy's bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Lemire's draw over [1, 2**53 - 1]: the range's width, and the threshold
#: below which a product's low word is rejected, (2**64 - width) % width.
_WIDTH = 2**53 - 1
_THRESHOLD = (2**64 - _WIDTH) % _WIDTH


def _seed_words(seed: int) -> list[int]:
    """A non-negative seed as little-endian 32-bit words (0 is one word)."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _seed_state(seed: int) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(4, uint64) as PCG64's (state, inc) seeds."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    entropy = _seed_words(seed)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    out_const = _INIT_B
    words = []  # 4 uint64 outputs as 8 uint32 words, low word first
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ out_const
        out_const = (out_const * _MULT_B) & _MASK32
        value = (value * out_const) & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    v0, v1, v2, v3 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    return v0 << 64 | v1, v2 << 64 | v3


def open_uniforms(seed: int, n: int) -> list[float]:
    """n uniforms in the open interval (0, 1): 53-bit integers in
    [1, 2**53 - 1] over 2**53, as NumPy draws them from PCG64(seed)."""
    init_state, init_seq = _seed_state(seed)
    inc = (init_seq << 1 | 1) & _MASK128
    state = (inc + init_state) & _MASK128  # srandom_r: step from 0, add, step
    state = (state * _PCG_MULT + inc) & _MASK128
    out = []
    while len(out) < n:
        state = (state * _PCG_MULT + inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        m = (((word >> rot) | (word << (-rot & 63))) & _MASK64) * _WIDTH
        if m & _MASK64 < _THRESHOLD:
            continue  # Lemire rejection: redraw
        out.append((1 + (m >> 64)) / 2**53)
    return out


# Cephes ndtri.c coefficients, highest power first.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# 0 <= |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (  # leading 1.0 implied
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 log y) in [2, 8)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64]
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """Like _polevl with a leading coefficient of 1.0."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """x with Phi(x) == y0 for the standard normal CDF Phi.

    ±inf at 0 and 1, and NaN outside [0, 1] (as SciPy returns it).
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
