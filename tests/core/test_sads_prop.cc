/**
 * Randomized bit-exactness of SADS against the frozen re-sorting
 * reference (sads_reference.h): for seeded shapes, configs and score
 * fills — Gaussian, small-integer ties, and rows of only +/-0.0 —
 * the merged 2m-buffer path must reproduce the reference's
 * selections, top1/top2, clip counts and comparison tallies exactly,
 * and disjoint row ranges must compose to the whole-matrix result.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/sads.h"
#include "sads_reference.h"
#include "testprop.h"

namespace sofa {
namespace {

/** Scores for one case: 0 Gaussian, 1 small-integer ties, 2 +/-0.0. */
MatF
scoreFill(Rng &rng, std::size_t rows, std::size_t cols, int fill)
{
    MatF m(rows, cols, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            float v;
            if (fill == 0)
                v = static_cast<float>(rng.gaussian());
            else if (fill == 1)
                v = static_cast<float>(rng.uniformInt(-3, 3));
            else
                v = rng.bernoulli(0.5) ? -0.0f : 0.0f;
            m(r, c) = v;
        }
    }
    return m;
}

void
expectSameRows(const std::vector<SadsRow> &got,
               const std::vector<SadsRow> &want, int c)
{
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].selected, want[r].selected)
            << "case " << c << " row " << r;
        EXPECT_EQ(got[r].top1, want[r].top1)
            << "case " << c << " row " << r;
        EXPECT_EQ(got[r].top2, want[r].top2)
            << "case " << c << " row " << r;
        EXPECT_EQ(got[r].clipped, want[r].clipped)
            << "case " << c << " row " << r;
    }
}

TEST(SadsProp, MatchesFrozenReferenceBitExactly)
{
    int fills[3] = {0, 0, 0};
    testprop::forEachSeededCase(300, [&](int c, Rng &rng) {
        const std::size_t S = testprop::edgeSize(rng, 0, 700, 12);
        const int k = static_cast<int>(
            rng.uniformInt(0, static_cast<std::int64_t>(S) + 5));
        // A row needs at least one key (minmaxBlock asserts n >= 1 in
        // both paths), so S = 0 comes with an empty row range.
        const std::size_t T =
            S == 0 ? 0 : static_cast<std::size_t>(rng.uniformInt(0, 6));
        SadsConfig cfg;
        cfg.segments = static_cast<int>(rng.uniformInt(1, 8));
        cfg.sorterInputs = static_cast<int>(rng.uniformInt(1, 16));
        cfg.refineIters = static_cast<int>(rng.uniformInt(0, 12));
        cfg.radiusFrac = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.0, 1.0);
        const int fill = static_cast<int>(rng.uniformInt(0, 2));
        ++fills[fill];
        const MatF scores = scoreFill(rng, T, S, fill);

        const SadsResult want =
            reference::sadsTopKReference(scores, k, cfg);
        const SadsResult got = sadsTopK(scores, k, cfg);
        expectSameRows(got.rows, want.rows, c);
        EXPECT_EQ(got.ops.cmps(), want.ops.cmps()) << "case " << c;
        EXPECT_EQ(got.ops.total(), want.ops.total()) << "case " << c;

        // A split row range composes to the whole-matrix result.
        const std::size_t split = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(T)));
        std::vector<SadsRow> rows(T);
        OpCounter ops;
        sadsTopKRows(scores, k, cfg, 0, split, &rows, &ops);
        sadsTopKRows(scores, k, cfg, split, T, &rows, &ops);
        expectSameRows(rows, want.rows, c);
        EXPECT_EQ(ops.cmps(), want.ops.cmps()) << "case " << c;
    });
    // Every fill is exercised, so ties and signed zeros are covered.
    for (int n : fills)
        EXPECT_GT(n, 50);
}

} // namespace
} // namespace sofa
