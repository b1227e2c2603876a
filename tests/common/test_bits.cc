#include <gtest/gtest.h>

#include "common/bits.h"

namespace sofa {
namespace {

TEST(LeadingZeros, FullWindowForZero)
{
    EXPECT_EQ(leadingZeros(0, 8), 8);
    EXPECT_EQ(leadingZeros(0, 16), 16);
    EXPECT_EQ(leadingZeros(0, 1), 1);
}

TEST(LeadingZeros, SingleBitPositions8)
{
    EXPECT_EQ(leadingZeros(0x80, 8), 0);
    EXPECT_EQ(leadingZeros(0x40, 8), 1);
    EXPECT_EQ(leadingZeros(0x01, 8), 7);
}

TEST(LeadingZeros, PaperExampleValues)
{
    // Fig. 7: 00010100 (20) has 3 leading zeros in 8 bits.
    EXPECT_EQ(leadingZeros(0b00010100, 8), 3);
    // 00000100 (4) has 5.
    EXPECT_EQ(leadingZeros(0b00000100, 8), 5);
    // 11111000 has 0.
    EXPECT_EQ(leadingZeros(0b11111000, 8), 0);
}

TEST(LeadingZeros, SixteenBitWindow)
{
    EXPECT_EQ(leadingZeros(0x8000, 16), 0);
    EXPECT_EQ(leadingZeros(0x0001, 16), 15);
    EXPECT_EQ(leadingZeros(0x00FF, 16), 8);
}

/** The per-bit priority-chain loop leadingZeros used to run. */
int
leadingZerosLoop(std::uint64_t value, int width)
{
    if (value == 0)
        return width;
    int n = 0;
    for (int bit = width - 1; bit >= 0; --bit) {
        if (value & (std::uint64_t{1} << bit))
            break;
        ++n;
    }
    return n;
}

static_assert(leadingZeros(0, 8) == 8 && leadingZeros(1, 8) == 7 &&
                  leadingZeros(0x100, 8) == 8,
              "leadingZeros stays constexpr");

TEST(LeadingZeros, MatchesBitLoopOnEveryValue)
{
    for (int width : {8, 16}) {
        for (std::uint64_t v = 0; v < (std::uint64_t{1} << width); ++v)
            ASSERT_EQ(leadingZeros(v, width), leadingZerosLoop(v, width))
                << "v=" << v << " width=" << width;
    }
}

TEST(LeadingZeros, IgnoresBitsAboveTheWindow)
{
    const std::uint64_t above[] = {
        0x100, 0x1FF, 0x1234, 0xFFFF0000, 0x8000000000000000ull,
        0xFFFFFFFFFFFFFFFFull, 0x10001, 0xFFFFFF00ull};
    for (int width : {1, 8, 16, 32, 63, 64}) {
        for (std::uint64_t v : above)
            EXPECT_EQ(leadingZeros(v, width), leadingZerosLoop(v, width))
                << "v=" << v << " width=" << width;
    }
    EXPECT_EQ(leadingZeros(0x100, 8), 8); // only the flag bit above
    EXPECT_EQ(leadingZeros(0x1FF, 8), 0);
    EXPECT_EQ(leadingZeros(0x10001, 16), 15);
    EXPECT_EQ(leadingZeros(1, 64), 63);
    EXPECT_EQ(leadingZeros(0, 64), 64);
}

TEST(LzExponent, MatchesEquation1a)
{
    // x = M * 2^(W - LZ): for x=20, W=8, LZ=3 -> exponent 5
    // (20 = 0.625 * 32).
    EXPECT_EQ(lzExponent(20, 8), 5);
    EXPECT_EQ(lzExponent(1, 8), 1);
    EXPECT_EQ(lzExponent(255, 8), 8);
    EXPECT_EQ(lzExponent(0, 8), 0);
}

TEST(AbsMagnitude, HandlesNegatives)
{
    EXPECT_EQ(absMagnitude(-5), 5u);
    EXPECT_EQ(absMagnitude(5), 5u);
    EXPECT_EQ(absMagnitude(0), 0u);
    EXPECT_EQ(absMagnitude(INT64_MIN),
              static_cast<std::uint64_t>(INT64_MAX) + 1);
}

TEST(ShiftLeftSat, BasicAndSaturating)
{
    EXPECT_EQ(shiftLeftSat(3, 2), 12);
    EXPECT_EQ(shiftLeftSat(3, 0), 3);
    EXPECT_EQ(shiftLeftSat(8, -2), 2);
    EXPECT_EQ(shiftLeftSat(1, 63), 0);  // saturated
    EXPECT_EQ(shiftLeftSat(1, 100), 0); // saturated
}

TEST(PowerOfTwo, Cases)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(CeilDivRoundUp, Cases)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 16), 1);
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
}

/** Property sweep: leadingZeros agrees with a log2-based formula. */
class LzProperty : public ::testing::TestWithParam<int>
{};

TEST_P(LzProperty, AgreesWithLog2)
{
    const int width = GetParam();
    for (std::uint64_t v = 1; v < (1ull << width); v += 7) {
        int expected = width;
        std::uint64_t x = v;
        while (x) {
            --expected;
            x >>= 1;
        }
        EXPECT_EQ(leadingZeros(v, width), expected) << "v=" << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, LzProperty,
                         ::testing::Values(4, 8, 12, 16));

} // namespace
} // namespace sofa
