/**
 * Randomized bit-exactness properties of the runtime-dispatched SIMD
 * kernels: for seeded random shapes (empty, single-element,
 * non-multiple-of-lane, ragged sparsity) every dispatched kernel must
 * be bit-identical to its scalar baseline — same float/int bits, same
 * survivor indices, same OpCounter tallies. On hosts without AVX2 the
 * forced level clamps to Scalar and the comparisons are trivially
 * (but still deterministically) exercised.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/dlzs.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "testprop.h"

namespace sofa {
namespace {

/** Bitwise equality for doubles (0.0 == -0.0 must *fail*). */
bool
sameBitsD(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameBitsF(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(KernelsProp, DotBlockSimdBitIdenticalToScalar)
{
    int simd_cases = 0;
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t n = testprop::edgeSize(rng, 0, 300);
        const std::vector<float> a = testprop::sparseFloats(rng, n);
        const std::vector<float> b = testprop::sparseFloats(rng, n);

        double ref, got;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            ref = dotBlock(a.data(), b.data(), n);
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            if (simd::active() == simd::Level::Avx2)
                ++simd_cases;
            got = dotBlock(a.data(), b.data(), n);
        }
        ASSERT_TRUE(sameBitsD(ref, got))
            << "case " << c << " n=" << n << " scalar=" << ref
            << " simd=" << got;
        // The scalar dispatch path is the exported baseline.
        ASSERT_TRUE(
            sameBitsD(ref, dotBlockScalar(a.data(), b.data(), n)))
            << "case " << c;
    });
    if (simd::detected() == simd::Level::Avx2) {
        EXPECT_EQ(simd_cases, 200);
    }
}

TEST(KernelsProp, MinmaxBlockSimdBitIdenticalToScalar)
{
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t n = testprop::edgeSize(rng, 1, 300);
        std::vector<float> a = testprop::sparseFloats(rng, n);
        // Negative zero stresses the min/max tie semantics.
        if (n > 2 && rng.bernoulli(0.25))
            a[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) -
                                      1))] = -0.0f;

        float ref_mn, ref_mx, got_mn, got_mx;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            minmaxBlock(a.data(), n, &ref_mn, &ref_mx);
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            minmaxBlock(a.data(), n, &got_mn, &got_mx);
        }
        ASSERT_TRUE(sameBitsF(ref_mn, got_mn) &&
                    sameBitsF(ref_mx, got_mx))
            << "case " << c << " n=" << n;

        float base_mn, base_mx;
        minmaxBlockScalar(a.data(), n, &base_mn, &base_mx);
        ASSERT_TRUE(sameBitsF(ref_mn, base_mn) &&
                    sameBitsF(ref_mx, base_mx))
            << "case " << c;
    });
}

TEST(KernelsProp, ScanSurvivorsSimdMatchesScalar)
{
    testprop::forEachSeededCase(200, [&](int c, Rng &rng) {
        const std::size_t n = testprop::edgeSize(rng, 0, 120);
        std::vector<float> x = testprop::sparseFloats(rng, n);
        if (n > 0 && rng.bernoulli(0.2))
            x[static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(n) - 1))] =
                std::numeric_limits<float>::quiet_NaN();
        float threshold;
        switch (rng.uniformInt(0, 3)) {
        case 0:
            threshold = -std::numeric_limits<float>::infinity();
            break;
        case 1:
            threshold = std::numeric_limits<float>::infinity();
            break;
        default:
            threshold = static_cast<float>(rng.gaussian());
            break;
        }

        std::vector<std::int32_t> ref_idx(n + 1), got_idx(n + 1);
        std::size_t ref_kept, got_kept;
        {
            simd::ScopedLevel lvl(simd::Level::Scalar);
            ref_kept = simd::scanSurvivors(x.data(), n, threshold,
                                           ref_idx.data());
        }
        {
            simd::ScopedLevel lvl(simd::Level::Avx2);
            got_kept = simd::scanSurvivors(x.data(), n, threshold,
                                           got_idx.data());
        }
        ASSERT_EQ(ref_kept, got_kept) << "case " << c << " n=" << n;
        for (std::size_t i = 0; i < ref_kept; ++i)
            ASSERT_EQ(ref_idx[i], got_idx[i])
                << "case " << c << " survivor " << i;
        ASSERT_EQ(ref_kept,
                  simd::scanSurvivorsScalar(x.data(), n, threshold,
                                            ref_idx.data()));
    });
}

/** Op tallies must agree field by field, not just in total. */
void
expectSameOps(const OpCounter &a, const OpCounter &b, int c)
{
    ASSERT_EQ(a.adds(), b.adds()) << "case " << c;
    ASSERT_EQ(a.cmps(), b.cmps()) << "case " << c;
    ASSERT_EQ(a.shifts(), b.shifts()) << "case " << c;
    ASSERT_EQ(a.muls(), b.muls()) << "case " << c;
    ASSERT_EQ(a.divs(), b.divs()) << "case " << c;
    ASSERT_EQ(a.exps(), b.exps()) << "case " << c;
}

/**
 * DLZS test shapes as (rows, cols, inner) of the GEMM the AVX2 path
 * runs. The first kTailSweep cases walk every (rows mod 4, cols mod
 * 12) tail of its 4 x 12 register tile next to zero, one and two
 * full tiles; the rest draw edge-biased sizes up to a few tiles.
 */
constexpr std::size_t kSweepRows = 8;
constexpr std::size_t kSweepCols = 26;
constexpr int kTailSweep = static_cast<int>(kSweepRows * kSweepCols);

struct GemmShape
{
    std::size_t rows, cols, inner;
};

GemmShape
dlzsShape(int c, Rng &rng, std::size_t max_rows, std::size_t max_cols,
          std::size_t max_inner)
{
    const std::size_t inner = testprop::edgeSize(rng, 1, max_inner, 4);
    if (c < kTailSweep) {
        const auto u = static_cast<std::size_t>(c);
        return {u % kSweepRows, u / kSweepRows, inner};
    }
    return {testprop::edgeSize(rng, 0, max_rows, 4),
            testprop::edgeSize(rng, 0, max_cols, 12), inner};
}

/** A dispatched DLZS phase at forced AVX2 against its Scalar
 * baseline: same values, same op tally in every field. */
template <typename X, typename Y>
using DlzsPhase = MatI64 (*)(const X &, const Y &, OpCounter *);

template <typename X, typename Y>
MatI64
expectDlzsMatchesScalar(DlzsPhase<X, Y> scalar,
                        DlzsPhase<X, Y> dispatched, const X &x,
                        const Y &y, int c)
{
    OpCounter ref_ops, got_ops;
    const MatI64 ref = scalar(x, y, &ref_ops);
    MatI64 got;
    {
        simd::ScopedLevel lvl(simd::Level::Avx2);
        got = dispatched(x, y, &got_ops);
    }
    EXPECT_EQ(ref.rows(), got.rows()) << "case " << c;
    EXPECT_EQ(ref.cols(), got.cols()) << "case " << c;
    EXPECT_EQ(ref.data(), got.data()) << "case " << c;
    expectSameOps(ref_ops, got_ops, c);
    return got;
}

TEST(KernelsProp, DlzsKPredictionSimdBitExactWithExactOps)
{
    testprop::forEachSeededCase(kTailSweep + 100, [&](int c, Rng &rng) {
        const GemmShape sh = dlzsShape(c, rng, 13, 40, 70);
        const std::size_t S = sh.rows, d = sh.cols, n = sh.inner;

        MatI8 tokens(S, n);
        const std::vector<std::int8_t> tok =
            testprop::sparseInts<std::int8_t>(rng, S * n, -128, 127);
        std::copy(tok.begin(), tok.end(), tokens.data().begin());
        MatI8 wk(n, d);
        const std::vector<std::int8_t> w =
            testprop::sparseInts<std::int8_t>(rng, n * d, -128, 127);
        std::copy(w.begin(), w.end(), wk.data().begin());
        expectDlzsMatchesScalar(dlzsKPredictionScalar, dlzsKPrediction,
                                tokens, lzEncodeI8(wk), c);
    });
}

TEST(KernelsProp, DlzsAPredictionSimdBitExactWithExactOps)
{
    testprop::forEachSeededCase(kTailSweep + 100, [&](int c, Rng &rng) {
        const GemmShape sh = dlzsShape(c, rng, 13, 40, 70);
        const std::size_t T = sh.rows, S = sh.cols, d = sh.inner;

        MatI16 q(T, d);
        // Full int16 range including INT16_MIN: |k| << 16 reaching
        // 2^31 is the largest product the kernel must hold exactly.
        const std::vector<std::int16_t> qv =
            testprop::sparseInts<std::int16_t>(rng, T * d, -32768,
                                               32767);
        std::copy(qv.begin(), qv.end(), q.data().begin());
        MatI16 k_hat(S, d);
        const std::vector<std::int16_t> kv =
            testprop::sparseInts<std::int16_t>(rng, S * d, -32768,
                                               32767);
        std::copy(kv.begin(), kv.end(), k_hat.data().begin());
        expectDlzsMatchesScalar(dlzsAPredictionScalar, dlzsAPrediction,
                                lzEncodeI16(q), k_hat, c);
    });
}

TEST(KernelsProp, DlzsPredictionExactFarPast32Bits)
{
    // Every operand at its most negative value: each A-phase product
    // is (-2^15) * (-2^16) = 2^31 and d = 1024 of them sum to 2^41,
    // so the accumulation must stay exact well beyond int32 (and the
    // 5 x 13 shape runs a full tile plus row and column tails).
    const std::size_t T = 5, S = 13, d = 1024;
    const MatI16 q(T, d, INT16_MIN);
    const MatI16 k_hat(S, d, INT16_MIN);
    const MatI64 a = expectDlzsMatchesScalar(
        dlzsAPredictionScalar, dlzsAPrediction, lzEncodeI16(q), k_hat, 0);
    for (std::int64_t v : a.data())
        ASSERT_EQ(v, std::int64_t{1} << 41);

    // K phase: (-2^7) * (-2^8) = 2^15 per product, 2^25 per sum.
    const MatI8 tokens(S, d, INT8_MIN);
    const MatI8 wk(d, T, INT8_MIN);
    const MatI64 k = expectDlzsMatchesScalar(
        dlzsKPredictionScalar, dlzsKPrediction, tokens, lzEncodeI8(wk), 1);
    for (std::int64_t v : k.data())
        ASSERT_EQ(v, std::int64_t{1} << 25);
}

TEST(KernelsPropDeath, DlzsSimdRejectsOversizedInnerAndLzPastWidth)
{
    if (simd::detected() != simd::Level::Avx2)
        GTEST_SKIP() << "the asserts guard the AVX2 packing pass";
    // Threadsafe style re-executes the binary, so no pool thread
    // another test started crosses a fork.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    simd::ScopedLevel lvl(simd::Level::Avx2);

    // Past 2^22 inner terms a sum of 2^31-sized products could leave
    // the range where doubles hold every integer. Zero-row operands
    // keep the shapes free to allocate.
    const std::size_t wide = (std::size_t{1} << 22) + 1;
    LzMatrix wk_wide;
    wk_wide.width = 8;
    wk_wide.codes = Matrix<LzCode>(wide, 0);
    EXPECT_DEATH(dlzsKPrediction(MatI8(0, wide), wk_wide),
                 "k <= kMaxInner");
    LzMatrix q_wide;
    q_wide.width = 16;
    q_wide.codes = Matrix<LzCode>(0, wide);
    EXPECT_DEATH(dlzsAPrediction(q_wide, MatI16(0, wide)),
                 "k <= kMaxInner");

    // A code claiming more leading zeros than its width has no
    // power-of-two value.
    const MatI8 one(1, 1, 1);
    LzMatrix bad = lzEncodeI8(one);
    bad.codes(0, 0).lz = 9;
    EXPECT_DEATH(dlzsKPrediction(one, bad), "lz <= width");
    bad.codes(0, 0).lz = 8; // == width: the valid edge, 2^0
    EXPECT_EQ(dlzsKPrediction(one, bad)(0, 0), 1);
}

TEST(KernelsProp, SimdLevelClampAndRestore)
{
    const simd::Level before = simd::active();
    {
        simd::ScopedLevel lvl(simd::Level::Scalar);
        EXPECT_EQ(simd::active(), simd::Level::Scalar);
        {
            simd::ScopedLevel inner(simd::Level::Avx2);
            // Nested override wins while alive, clamped to the CPU.
            EXPECT_EQ(simd::active(),
                      simd::detected() == simd::Level::Avx2
                          ? simd::Level::Avx2
                          : simd::Level::Scalar);
        }
        EXPECT_EQ(simd::active(), simd::Level::Scalar);
    }
    EXPECT_EQ(simd::active(), before);
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

} // namespace
} // namespace sofa
