/**
 * @file
 * Bit-level utilities used by the DLZS log-domain computing paradigm:
 * leading-zero counts for configurable widths, power-of-two helpers and
 * saturating shifts. These model the behaviour of the hardware
 * leading-zero counters (LZC) described in Section IV-B of the paper.
 */

#ifndef SOFA_COMMON_BITS_H
#define SOFA_COMMON_BITS_H

#include <cstdint>
#include <type_traits>

namespace sofa {

/**
 * Count leading zeros of @p value within a @p width -bit window.
 *
 * Mirrors the hardware LZC: the value is interpreted as an unsigned
 * magnitude occupying the low @p width bits; the count is the number of
 * zero bits above the most-significant set bit. An all-zero input yields
 * @p width (the hardware raises the all-zero flag `a`). Constant time:
 * one count-leading-zeros instruction over the masked window.
 *
 * @param value magnitude (bits above the low @p width are ignored)
 * @param width window width in bits (1..64)
 * @return number of leading zeros in [0, width]
 */
constexpr int
leadingZeros(std::uint64_t value, int width)
{
    // Bits above the window are ignored, as the LZC never sees them.
    const std::uint64_t window =
        width >= 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << width) - 1;
    const std::uint64_t v = value & window;
    if (v == 0)
        return width;
    return __builtin_clzll(v) - (64 - width);
}

/**
 * Effective exponent of a magnitude under the paper's Eq. (1a):
 * x = sign * M * 2^(W - LZ), so the exponent is W - LZ.
 * Zero input maps to exponent 0 (the hardware zero-eliminator removes
 * such terms before they reach the shift array).
 */
constexpr int
lzExponent(std::uint64_t value, int width)
{
    return width - leadingZeros(value, width);
}

/**
 * Absolute value of a signed integer, widened so INT_MIN is safe.
 * Branch-free (two's-complement negate under a sign mask): the LZ
 * encoders call it on operands of random sign.
 */
constexpr std::uint64_t
absMagnitude(std::int64_t v)
{
    const std::uint64_t u = static_cast<std::uint64_t>(v);
    const std::uint64_t neg = 0 - (u >> 63); // all ones when v < 0
    return (u ^ neg) - neg;
}

/** Left shift that saturates the shift amount instead of invoking UB. */
constexpr std::int64_t
shiftLeftSat(std::int64_t v, int amount)
{
    if (amount <= 0)
        return amount <= -63 ? 0 : (v >> -amount);
    if (amount >= 63)
        return 0;
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(v) << amount);
}

/** True when @p v is an exact power of two. */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Round @p v up to the next multiple of @p m (m > 0). */
constexpr std::int64_t
roundUp(std::int64_t v, std::int64_t m)
{
    return ((v + m - 1) / m) * m;
}

/** Integer ceiling division. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace sofa

#endif // SOFA_COMMON_BITS_H
