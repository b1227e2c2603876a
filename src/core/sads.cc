#include "core/sads.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/bits.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"

namespace sofa {

SelectionList
SadsResult::selections() const
{
    SelectionList out;
    out.reserve(rows.size());
    for (const auto &r : rows)
        out.push_back(r.selected);
    return out;
}

namespace {

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

/** Reusable per-call buffers, so rows and segments do not allocate. */
struct SegmentScratch
{
    std::vector<Cand> best;   ///< segment's top-2m so far, descending
    std::vector<Cand> merged; ///< merge target, swapped into best
    std::vector<Cand> batch;  ///< one sorter chunk's survivors
    std::vector<std::int32_t> survivors;
};

/**
 * One sub-segment's local selection with the iterative 16-to-4 core.
 * Leaves in s.best the segment's strongest min(2m, survivors)
 * candidates, descending: the first m are its selection, the rest its
 * strongest excluded candidates (for refinement). Every survivor ends
 * up either selected or excluded, so the 2m buffer holds both exactly.
 * Returns the number of elements the clip filter blocked.
 */
std::int64_t
segmentTopM(const float *row, int lo, int hi, int m,
            const SadsConfig &cfg, float row_span, OpCounter &ops,
            SegmentScratch &s)
{
    s.best.clear();
    if (hi <= lo || m <= 0)
        return 0;

    // Adaptive clipping threshold state (Threshold Updating unit).
    float running_max = -std::numeric_limits<float>::infinity();
    float low_bound = -std::numeric_limits<float>::infinity();
    const bool clip_enabled = cfg.radiusFrac < 1.0;
    const float radius = static_cast<float>(cfg.radiusFrac) * row_span;
    const std::size_t cap = 2 * static_cast<std::size_t>(m);
    s.survivors.resize(static_cast<std::size_t>(cfg.sorterInputs));
    std::int64_t clipped = 0;

    int pos = lo;
    while (pos < hi) {
        const int chunk = std::min(cfg.sorterInputs, hi - pos);
        // The clip threshold is constant across a sorter chunk —
        // running_max and low_bound only advance after the batch
        // merge below — which is what lets the filter run as one
        // SIMD compare + compress sweep (tensor/simd.h) instead of
        // a per-element branch. Survivor order and count match the
        // scalar left-to-right filter exactly.
        float threshold = -std::numeric_limits<float>::infinity();
        if (clip_enabled &&
            running_max > -std::numeric_limits<float>::infinity()) {
            threshold = std::max(running_max - radius, low_bound);
        }
        ops.cmpN(chunk); // clip filter compare, one per element
        const std::size_t kept = simd::scanSurvivors(
            row + pos, static_cast<std::size_t>(chunk), threshold,
            s.survivors.data());
        clipped += chunk - static_cast<std::int64_t>(kept);
        s.batch.clear();
        for (std::size_t i = 0; i < kept; ++i) {
            const int idx = pos + s.survivors[i];
            const Cand c{row[idx], idx};
            running_max = std::max(running_max, c.value);
            // Insertion sort: a chunk is at most sorterInputs long.
            s.batch.push_back(c);
            std::size_t j = s.batch.size() - 1;
            for (; j > 0 && c < s.batch[j - 1]; --j)
                s.batch[j] = s.batch[j - 1];
            s.batch[j] = c;
        }
        pos += chunk;
        if (s.batch.empty())
            continue;

        // One 16-to-4 bitonic pass merges the batch with the current
        // buffer head; comparator count charged per pass.
        ops.cmpN(cfg.sorterComparators);
        s.merged.resize(s.best.size() + s.batch.size());
        std::merge(s.best.begin(), s.best.end(), s.batch.begin(),
                   s.batch.end(), s.merged.begin());
        if (s.merged.size() > cap)
            s.merged.resize(cap);
        s.best.swap(s.merged);
        if (s.best.size() >= static_cast<std::size_t>(m))
            low_bound = s.best[static_cast<std::size_t>(m) - 1].value;
    }
    return clipped;
}

} // namespace

void
sadsTopKRows(const MatF &scores, int k, const SadsConfig &cfg,
             std::size_t row_begin, std::size_t row_end,
             std::vector<SadsRow> *rows, OpCounter *ops)
{
    SOFA_ASSERT(cfg.segments >= 1);
    SOFA_ASSERT(cfg.sorterInputs >= 1);
    SOFA_ASSERT(rows->size() == scores.rows());
    SOFA_ASSERT(row_begin <= row_end);
    SOFA_ASSERT(row_end <= scores.rows());
    SOFA_ASSERT(k >= 0);
    const int S = static_cast<int>(scores.cols());
    const int n = std::min(cfg.segments, std::max(1, S));
    const int keep = std::min(k, S);
    const int per_seg = static_cast<int>(ceilDiv(keep, n));

    OpCounter &result_ops = *ops;
    SegmentScratch scratch;
    std::vector<Cand> selected;
    std::vector<Cand> excluded;
    for (std::size_t r = row_begin; r < row_end; ++r) {
        const float *row = scores.rowPtr(r);
        SadsRow &out = (*rows)[r];

        // Row span estimate for the clip radius (hardware tracks this
        // in the TU unit from the running max/min). min/max are
        // order-independent, so the blocked scan is bit-exact.
        float mn, mx;
        minmaxBlock(row, static_cast<std::size_t>(S), &mn, &mx);
        const float span = std::max(mx - mn, 1e-6f);

        // Distributed per-segment selection: each segment's buffer
        // splits into its top-m (selected) and next-best (excluded).
        selected.clear();
        excluded.clear();
        for (int seg = 0; seg < n; ++seg) {
            const int lo = static_cast<int>(
                static_cast<std::int64_t>(seg) * S / n);
            const int hi = static_cast<int>(
                static_cast<std::int64_t>(seg + 1) * S / n);
            out.clipped += segmentTopM(row, lo, hi, per_seg, cfg, span,
                                       result_ops, scratch);
            const auto &best = scratch.best;
            const auto mid = best.begin() +
                             std::min<std::ptrdiff_t>(per_seg, best.size());
            selected.insert(selected.end(), best.begin(), mid);
            excluded.insert(excluded.end(), mid, best.end());
        }

        // Trim the union (n * ceil(k/n) >= k) down to k; the overflow
        // joins the excluded pool.
        std::sort(selected.begin(), selected.end());
        if (static_cast<int>(selected.size()) > keep) {
            excluded.insert(excluded.end(), selected.begin() + keep,
                            selected.end());
            selected.resize(static_cast<std::size_t>(keep));
        }
        std::sort(excluded.begin(), excluded.end());

        // Sphere-search refinement: swap the selected minimum with the
        // excluded maximum while the exchange improves the set. The
        // swapped-in element is inserted at its position in O(k)
        // (the DSn exchange), since the rest of selected stays sorted.
        int iter = 0;
        std::size_t ex_head = 0;
        while (iter < cfg.refineIters && !selected.empty() &&
               ex_head < excluded.size()) {
            result_ops.cmpN(1 + n); // min-vs-max + per-segment reports
            const Cand in = excluded[ex_head];
            if (in.value <= selected.back().value)
                break;
            ++ex_head;
            std::size_t i = selected.size() - 1;
            for (; i > 0 && in < selected[i - 1]; --i)
                selected[i] = selected[i - 1];
            selected[i] = in;
            ++iter;
        }

        out.selected.reserve(selected.size());
        for (const Cand &c : selected)
            out.selected.push_back(c.index);
        out.top1 = selected.empty() ? -1 : selected[0].index;
        out.top2 = selected.size() > 1 ? selected[1].index : -1;
    }
}

SadsResult
sadsTopK(const MatF &scores, int k, const SadsConfig &cfg)
{
    SadsResult result;
    result.rows.resize(scores.rows());
    if (scores.rows() == 0)
        return result;

    // Shard rows across the pool; per-shard counters are merged with
    // integer addition (order-independent), so totals match a serial
    // run exactly. Per-row cost ~ S compares plus one linear merge of
    // each sorter chunk into a 2m buffer.
    ThreadPool &pool = ThreadPool::instance();
    std::vector<OpCounter> shard_ops(
        static_cast<std::size_t>(pool.threads()));
    const std::size_t grain =
        grainForRowCost(8.0 * static_cast<double>(scores.cols()));
    pool.parallelFor(
        scores.rows(), grain,
        [&](std::size_t begin, std::size_t end, int shard) {
            sadsTopKRows(scores, k, cfg, begin, end, &result.rows,
                         &shard_ops[static_cast<std::size_t>(shard)]);
        });
    for (const OpCounter &ops : shard_ops)
        result.ops += ops;
    return result;
}

std::int64_t
vanillaSortComparisons(std::int64_t rows, std::int64_t seq)
{
    return rows * bitonicSortComparisons(seq);
}

} // namespace sofa
