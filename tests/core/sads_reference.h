/**
 * @file
 * Frozen reference SADS top-k for the property test in
 * test_sads_prop.cc.
 *
 * This is the straightforward re-sorting implementation that
 * core/sads.cc used before it switched to a merged 2m buffer: each
 * segment re-sorts its whole top-m buffer after every sorter chunk,
 * keeps an unbounded excluded pool, and the refinement loop re-sorts
 * the selection after every swap. It is kept verbatim (apart from
 * being header-only and serial) so the optimized path can be checked
 * bit-exactly against it: selections, top1/top2, clip counts and
 * comparison tallies. Header-only and not named test_*.cc, so the
 * test glob does not build it as its own suite.
 */

#ifndef SOFA_TESTS_CORE_SADS_REFERENCE_H
#define SOFA_TESTS_CORE_SADS_REFERENCE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "core/sads.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace sofa {
namespace reference {

/** Candidate entry: (value, index). */
struct Cand
{
    float value;
    int index;

    bool
    operator<(const Cand &o) const
    {
        if (value != o.value)
            return value > o.value; // descending
        return index < o.index;
    }
};

struct SegmentResult
{
    std::vector<Cand> selected;  ///< up to m, descending
    std::vector<Cand> excluded;  ///< survivors that did not make it
    std::int64_t clipped = 0;
};

inline SegmentResult
segmentTopM(const float *row, int lo, int hi, int m,
            const SadsConfig &cfg, float row_span, OpCounter &ops)
{
    SegmentResult res;
    const int len = hi - lo;
    if (len <= 0 || m <= 0)
        return res;

    float running_max = -std::numeric_limits<float>::infinity();
    float low_bound = -std::numeric_limits<float>::infinity();
    const bool clip_enabled = cfg.radiusFrac < 1.0;
    const float radius = static_cast<float>(cfg.radiusFrac) * row_span;

    std::vector<Cand> buffer; // sorted descending, holds top-m so far
    buffer.reserve(m + cfg.sorterInputs);
    std::vector<Cand> batch;
    batch.reserve(cfg.sorterInputs);
    std::vector<std::int32_t> survivors(
        static_cast<std::size_t>(cfg.sorterInputs));

    int pos = lo;
    while (pos < hi) {
        const int chunk = std::min(cfg.sorterInputs, hi - pos);
        float threshold = -std::numeric_limits<float>::infinity();
        if (clip_enabled &&
            running_max > -std::numeric_limits<float>::infinity()) {
            threshold = std::max(running_max - radius, low_bound);
        }
        ops.cmpN(chunk); // clip filter compare, one per element
        const std::size_t kept = simd::scanSurvivors(
            row + pos, static_cast<std::size_t>(chunk), threshold,
            survivors.data());
        res.clipped += chunk - static_cast<std::int64_t>(kept);
        batch.clear();
        for (std::size_t s = 0; s < kept; ++s) {
            const int idx = pos + survivors[s];
            batch.push_back({row[idx], idx});
        }
        pos += chunk;
        if (batch.empty())
            continue;

        ops.cmpN(cfg.sorterComparators);
        for (const Cand &c : batch) {
            buffer.push_back(c);
            running_max = std::max(running_max, c.value);
        }
        std::sort(buffer.begin(), buffer.end());
        if (static_cast<int>(buffer.size()) > m) {
            for (std::size_t i = m; i < buffer.size(); ++i)
                res.excluded.push_back(buffer[i]);
            buffer.resize(m);
        }
        if (static_cast<int>(buffer.size()) == m)
            low_bound = buffer.back().value;
    }

    res.selected = std::move(buffer);
    std::sort(res.excluded.begin(), res.excluded.end());
    if (static_cast<int>(res.excluded.size()) > m)
        res.excluded.resize(m);
    return res;
}

/** Reference counterpart of sadsTopKRows (k must be >= 0). */
inline void
sadsTopKReferenceRows(const MatF &scores, int k, const SadsConfig &cfg,
                      std::size_t row_begin, std::size_t row_end,
                      std::vector<SadsRow> *rows, OpCounter *ops)
{
    SOFA_ASSERT(cfg.segments >= 1);
    SOFA_ASSERT(cfg.sorterInputs >= 1);
    SOFA_ASSERT(rows->size() == scores.rows());
    SOFA_ASSERT(row_end <= scores.rows());
    const int S = static_cast<int>(scores.cols());
    const int n = std::min(cfg.segments, std::max(1, S));
    const int keep = std::min(k, S);
    const int per_seg = static_cast<int>(ceilDiv(keep, n));

    OpCounter &result_ops = *ops;
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const float *row = scores.rowPtr(r);
        SadsRow &out = (*rows)[r];

        float mn, mx;
        minmaxBlock(row, static_cast<std::size_t>(S), &mn, &mx);
        const float span = std::max(mx - mn, 1e-6f);

        std::vector<Cand> selected;
        std::vector<Cand> excluded;
        for (int seg = 0; seg < n; ++seg) {
            const int lo = static_cast<int>(
                static_cast<std::int64_t>(seg) * S / n);
            const int hi = static_cast<int>(
                static_cast<std::int64_t>(seg + 1) * S / n);
            SegmentResult sr = segmentTopM(row, lo, hi, per_seg, cfg,
                                           span, result_ops);
            out.clipped += sr.clipped;
            selected.insert(selected.end(), sr.selected.begin(),
                            sr.selected.end());
            excluded.insert(excluded.end(), sr.excluded.begin(),
                            sr.excluded.end());
        }

        std::sort(selected.begin(), selected.end());
        std::sort(excluded.begin(), excluded.end());

        while (static_cast<int>(selected.size()) > keep) {
            excluded.push_back(selected.back());
            selected.pop_back();
        }
        std::sort(excluded.begin(), excluded.end());

        int iter = 0;
        std::size_t ex_head = 0;
        while (iter < cfg.refineIters && !selected.empty() &&
               ex_head < excluded.size()) {
            result_ops.cmpN(1 + n); // min-vs-max + per-segment reports
            if (excluded[ex_head].value <= selected.back().value)
                break;
            std::swap(selected.back(), excluded[ex_head]);
            ++ex_head;
            std::sort(selected.begin(), selected.end());
            ++iter;
        }

        out.selected.reserve(selected.size());
        for (const Cand &c : selected)
            out.selected.push_back(c.index);
        out.top1 = selected.empty() ? -1 : selected[0].index;
        out.top2 = selected.size() > 1 ? selected[1].index : -1;
    }
}

/** Whole-matrix reference, serial (the shape of sadsTopK). */
inline SadsResult
sadsTopKReference(const MatF &scores, int k, const SadsConfig &cfg = {})
{
    SadsResult result;
    result.rows.resize(scores.rows());
    sadsTopKReferenceRows(scores, k, cfg, 0, scores.rows(),
                          &result.rows, &result.ops);
    return result;
}

} // namespace reference
} // namespace sofa

#endif // SOFA_TESTS_CORE_SADS_REFERENCE_H
