#include "core/dlzs.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/bits.h"
#include "common/logging.h"
#include "tensor/simd.h"

#if SOFA_SIMD_COMPILED_AVX2
#include <immintrin.h>
#endif

namespace sofa {

int
LzMatrix::bitsPerElement() const
{
    // sign bit + LZ field wide enough for [0, width]
    int lz_bits = 1;
    while ((1 << lz_bits) < width + 1)
        ++lz_bits;
    return 1 + lz_bits;
}

namespace {

template <typename T>
LzMatrix
lzEncodeImpl(const Matrix<T> &m, int width, OpCounter *ops)
{
    LzMatrix out;
    out.width = width;
    out.codes = Matrix<LzCode>(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.data().size(); ++i) {
        const std::int64_t v = m.data()[i];
        // Branch-free: operand signs are random. A zero gets sign 0
        // and LZ = width (leadingZeros' all-zero flag).
        LzCode c;
        c.sign = static_cast<std::int8_t>((v > 0) - (v < 0));
        c.lz = static_cast<std::uint8_t>(
            leadingZeros(absMagnitude(v), width));
        out.codes.data()[i] = c;
        if (ops)
            ops->cmpN(width); // LZC priority chain examines W bits
    }
    return out;
}

} // namespace

LzMatrix
lzEncodeI8(const MatI8 &m, OpCounter *ops)
{
    return lzEncodeImpl(m, 8, ops);
}

LzMatrix
lzEncodeI16(const MatI16 &m, OpCounter *ops)
{
    return lzEncodeImpl(m, 16, ops);
}

std::int64_t
dlzsProduct(std::int64_t x, int /*x_width*/, LzCode y, int y_width)
{
    if (x == 0 || y.isZero())
        return 0;
    const int exponent = y_width - static_cast<int>(y.lz);
    // Eq. 1c: magnitude |x| << (W - LZy); the -1 keeps the estimate
    // centred: y's mantissa lies in [0.5, 1), so scaling by the full
    // 2^(W-LZy) systematically overestimates by ~1.5x. Hardware uses
    // the shift as-is for the *relative* ranking; we match that.
    std::int64_t mag = shiftLeftSat(std::llabs(x), exponent);
    const int sign = (x < 0) != (y.sign < 0) ? -1 : 1;
    return sign * mag;
}

MatI64
dlzsKPredictionScalar(const MatI8 &tokens, const LzMatrix &wk_lz,
                      OpCounter *ops)
{
    SOFA_ASSERT(tokens.cols() == wk_lz.rows());
    SOFA_ASSERT(wk_lz.width == 8);
    const std::size_t S = tokens.rows();
    const std::size_t n = tokens.cols();
    const std::size_t d = wk_lz.cols();

    MatI64 k_hat(S, d, 0);
    for (std::size_t i = 0; i < S; ++i) {
        const std::int8_t *xi = tokens.rowPtr(i);
        for (std::size_t j = 0; j < d; ++j) {
            std::int64_t acc = 0;
            for (std::size_t t = 0; t < n; ++t) {
                const LzCode w = wk_lz.codes(t, j);
                if (xi[t] == 0 || w.isZero()) {
                    if (ops)
                        ops->cmpN(1); // zero-eliminator check
                    continue;
                }
                acc += dlzsProduct(xi[t], 8, w, 8);
                if (ops) {
                    ops->shiftN(1);
                    ops->addN(1);
                }
            }
            k_hat(i, j) = acc;
        }
    }
    return k_hat;
}

MatI64
dlzsAPredictionScalar(const LzMatrix &q_lz, const MatI16 &k_hat,
                      OpCounter *ops)
{
    SOFA_ASSERT(q_lz.cols() == k_hat.cols());
    SOFA_ASSERT(q_lz.width == 16);
    const std::size_t T = q_lz.rows();
    const std::size_t S = k_hat.rows();
    const std::size_t d = k_hat.cols();

    MatI64 a_hat(T, S, 0);
    for (std::size_t i = 0; i < T; ++i) {
        for (std::size_t j = 0; j < S; ++j) {
            const std::int16_t *kj = k_hat.rowPtr(j);
            std::int64_t acc = 0;
            for (std::size_t t = 0; t < d; ++t) {
                const LzCode qc = q_lz.codes(i, t);
                if (kj[t] == 0 || qc.isZero()) {
                    if (ops)
                        ops->cmpN(1);
                    continue;
                }
                acc += dlzsProduct(kj[t], 16, qc, 16);
                if (ops) {
                    ops->shiftN(1);
                    ops->addN(1);
                }
            }
            a_hat(i, j) = acc;
        }
    }
    return a_hat;
}

#if SOFA_SIMD_COMPILED_AVX2

// The AVX2 prediction bodies run each phase as one exact GEMM. The
// DLZS product XOR(Sx, Sy) * |x| << (W - LZy) equals x * pow(y) with
// pow(y) = Sy * 2^(W - LZy), so K-hat = X * pow(Wk) and
// A-hat = pow(Q) * K-hat^T. Both operands are packed to doubles once
// per call. Every product is an integer of magnitude <= 2^31
// (|k| <= 2^15, |pow(q)| <= 2^16) and every partial sum of K such
// terms stays below K * 2^31 <= 2^53, so each double multiply and add
// is exact, the summation order is irrelevant and the final int64
// conversion is exact: the results are bit-identical to the Scalar
// baselines. The per-pair zero-eliminator tallies are closed-form:
// pair (i, j, t) is shifted and added iff both operands at inner
// index t are nonzero, so active = sum_t nzA_t * nzB_t.

namespace {

/** Inner-dimension bound that keeps every partial sum <= 2^53. */
constexpr std::size_t kMaxInner = std::size_t{1} << 22;

/** Register tile: kTileRows rows x kTileCols doubles of C. */
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 12;

/** pow(c) = Sc * 2^(W - LZc), or 0 for an eliminated code. */
double
lzPow(LzCode c, int width)
{
    SOFA_ASSERT(c.lz <= width);
    if (c.isZero())
        return 0.0;
    const double mag =
        static_cast<double>(std::int64_t{1} << (width - c.lz));
    return c.sign < 0 ? -mag : mag;
}

/**
 * C[M x N] = A[M x K] * B[K x N] packed for the AVX2 kernel: A is
 * row-major, B is split into column panels of kTileCols (zero-padded
 * past N), each panel K x kTileCols row-major. nzA / nzB count the
 * nonzeros of A's column t and B's row t.
 */
struct PackedGemm
{
    std::size_t M = 0, N = 0, K = 0;
    std::vector<double> a, b;
    std::vector<std::int64_t> nzA, nzB;

    PackedGemm(std::size_t m, std::size_t n, std::size_t k)
        : M(m), N(n), K(innerDim(k)), a(m * k),
          b((n + kTileCols - 1) / kTileCols * kTileCols * k),
          nzA(k, 0), nzB(k, 0)
    {}

    static std::size_t
    innerDim(std::size_t k)
    {
        SOFA_ASSERT(k <= kMaxInner);
        return k;
    }

    void
    setA(std::size_t i, std::size_t t, double v)
    {
        a[i * K + t] = v;
        nzA[t] += v != 0.0;
    }

    void
    setB(std::size_t t, std::size_t j, double v)
    {
        b[(j / kTileCols * K + t) * kTileCols + j % kTileCols] = v;
        nzB[t] += v != 0.0;
    }

    /** The closed-form zero-eliminator tallies of the per-pair loop. */
    void
    chargeOps(OpCounter *ops) const
    {
        if (!ops)
            return;
        std::int64_t active = 0;
        for (std::size_t t = 0; t < K; ++t)
            active += nzA[t] * nzB[t];
        ops->cmpN(static_cast<std::int64_t>(M * N * K) - active);
        ops->shiftN(active);
        ops->addN(active);
    }
};

/**
 * One R x kTileCols tile of C: broadcast R elements of A per inner
 * index and multiply-add them into three four-wide B vectors. Plain
 * mul + add (every value is exact, so FMA would change nothing). The
 * row loops are fully unrolled so acc[][] lives in registers; left
 * rolled, GCC spills it to the stack on every inner step.
 */
template <std::size_t R>
SOFA_TARGET_AVX2 inline void
gemmTileAvx2(const double *a, std::size_t K, const double *panel,
             std::int64_t *c, std::size_t ldc, std::size_t cols)
{
    __m256d acc[R][3];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r)
        acc[r][0] = acc[r][1] = acc[r][2] = _mm256_setzero_pd();
    for (std::size_t t = 0; t < K; ++t) {
        const double *bt = panel + t * kTileCols;
        const __m256d b0 = _mm256_loadu_pd(bt);
        const __m256d b1 = _mm256_loadu_pd(bt + 4);
        const __m256d b2 = _mm256_loadu_pd(bt + 8);
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
            const __m256d av = _mm256_broadcast_sd(a + r * K + t);
            acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(av, b0));
            acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(av, b1));
            acc[r][2] = _mm256_add_pd(acc[r][2], _mm256_mul_pd(av, b2));
        }
    }
    double out[kTileCols];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
        _mm256_storeu_pd(out, acc[r][0]);
        _mm256_storeu_pd(out + 4, acc[r][1]);
        _mm256_storeu_pd(out + 8, acc[r][2]);
        for (std::size_t j = 0; j < cols; ++j)
            c[r * ldc + j] = static_cast<std::int64_t>(out[j]);
    }
}

SOFA_TARGET_AVX2 MatI64
gemmAvx2(const PackedGemm &g, OpCounter *ops)
{
    MatI64 c(g.M, g.N, 0);
    // Panel-outer: one K x kTileCols panel of B stays in L1 while
    // every row block of A streams past it.
    for (std::size_t j0 = 0; j0 < g.N; j0 += kTileCols) {
        const double *panel = g.b.data() + j0 * g.K;
        const std::size_t cols = std::min(kTileCols, g.N - j0);
        std::size_t i = 0;
        for (; i + kTileRows <= g.M; i += kTileRows)
            gemmTileAvx2<kTileRows>(g.a.data() + i * g.K, g.K, panel,
                                    c.rowPtr(i) + j0, g.N, cols);
        const std::size_t tail = g.M - i;
        if (tail == 0)
            continue;
        const double *a = g.a.data() + i * g.K;
        std::int64_t *ci = c.rowPtr(i) + j0;
        switch (tail) {
        case 3: gemmTileAvx2<3>(a, g.K, panel, ci, g.N, cols); break;
        case 2: gemmTileAvx2<2>(a, g.K, panel, ci, g.N, cols); break;
        case 1: gemmTileAvx2<1>(a, g.K, panel, ci, g.N, cols); break;
        default: break;
        }
    }
    g.chargeOps(ops);
    return c;
}

MatI64
dlzsKPredictionAvx2(const MatI8 &tokens, const LzMatrix &wk_lz,
                    OpCounter *ops)
{
    const std::size_t S = tokens.rows();
    const std::size_t n = tokens.cols();
    const std::size_t d = wk_lz.cols();

    PackedGemm g(S, d, n);
    for (std::size_t i = 0; i < S; ++i)
        for (std::size_t t = 0; t < n; ++t)
            g.setA(i, t, tokens(i, t));
    for (std::size_t t = 0; t < n; ++t)
        for (std::size_t j = 0; j < d; ++j)
            g.setB(t, j, lzPow(wk_lz.codes(t, j), 8));
    return gemmAvx2(g, ops);
}

MatI64
dlzsAPredictionAvx2(const LzMatrix &q_lz, const MatI16 &k_hat,
                    OpCounter *ops)
{
    const std::size_t T = q_lz.rows();
    const std::size_t S = k_hat.rows();
    const std::size_t d = k_hat.cols();

    PackedGemm g(T, S, d);
    for (std::size_t i = 0; i < T; ++i)
        for (std::size_t t = 0; t < d; ++t)
            g.setA(i, t, lzPow(q_lz.codes(i, t), 16));
    for (std::size_t j = 0; j < S; ++j)
        for (std::size_t t = 0; t < d; ++t)
            g.setB(t, j, k_hat(j, t));
    return gemmAvx2(g, ops);
}

} // namespace

#endif // SOFA_SIMD_COMPILED_AVX2

MatI64
dlzsKPrediction(const MatI8 &tokens, const LzMatrix &wk_lz,
                OpCounter *ops)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2) {
        SOFA_ASSERT(tokens.cols() == wk_lz.rows());
        SOFA_ASSERT(wk_lz.width == 8);
        return dlzsKPredictionAvx2(tokens, wk_lz, ops);
    }
#endif
    return dlzsKPredictionScalar(tokens, wk_lz, ops);
}

MatI64
dlzsAPrediction(const LzMatrix &q_lz, const MatI16 &k_hat,
                OpCounter *ops)
{
#if SOFA_SIMD_COMPILED_AVX2
    if (simd::active() == simd::Level::Avx2) {
        SOFA_ASSERT(q_lz.cols() == k_hat.cols());
        SOFA_ASSERT(q_lz.width == 16);
        return dlzsAPredictionAvx2(q_lz, k_hat, ops);
    }
#endif
    return dlzsAPredictionScalar(q_lz, k_hat, ops);
}

std::int64_t
vanillaLzProduct(std::int64_t x, int x_width, std::int64_t y,
                 int y_width)
{
    if (x == 0 || y == 0)
        return 0;
    const int ex = lzExponent(absMagnitude(x), x_width);
    const int ey = lzExponent(absMagnitude(y), y_width);
    std::int64_t mag = shiftLeftSat(1, ex + ey - 2);
    // -2: one-hot encode each operand at its MSB (2^(e-1) is the
    // value of the leading bit), matching the vanilla LOD scheme that
    // snaps each operand to its leading-one value.
    const int sign = (x < 0) != (y < 0) ? -1 : 1;
    return sign * mag;
}

MatI64
vanillaKPrediction(const MatI8 &tokens, const MatI8 &wk, OpCounter *ops)
{
    SOFA_ASSERT(tokens.cols() == wk.rows());
    const std::size_t S = tokens.rows();
    const std::size_t n = tokens.cols();
    const std::size_t d = wk.cols();

    MatI64 k_hat(S, d, 0);
    for (std::size_t i = 0; i < S; ++i) {
        const std::int8_t *xi = tokens.rowPtr(i);
        for (std::size_t j = 0; j < d; ++j) {
            std::int64_t acc = 0;
            for (std::size_t t = 0; t < n; ++t) {
                const std::int8_t w = wk(t, j);
                if (xi[t] == 0 || w == 0) {
                    if (ops)
                        ops->cmpN(1);
                    continue;
                }
                acc += vanillaLzProduct(xi[t], 8, w, 8);
                if (ops) {
                    // Both operands pass through runtime converters.
                    ops->cmpN(16); // two 8-bit LZCs
                    ops->shiftN(1);
                    ops->addN(1);
                }
            }
            k_hat(i, j) = acc;
        }
    }
    return k_hat;
}

DlzsPrediction
dlzsPredict(const MatF &tokens, const MatF &wk, const MatF &q)
{
    SOFA_ASSERT(tokens.cols() == wk.rows());
    SOFA_ASSERT(q.cols() == wk.cols());

    DlzsPrediction pred;

    // Quantize the runtime operands.
    QuantI8 x_q = quantizeI8(tokens);
    QuantI8 w_q = quantizeI8(wk);
    QuantI16 q_q = quantizeI16(q);

    // Offline weight pre-conversion: not charged to runtime ops, but
    // its DRAM footprint is (5 bits vs 8 per weight).
    LzMatrix wk_lz = lzEncodeI8(w_q.values);
    pred.predictionBitsFetched =
        static_cast<double>(wk_lz.rows()) * wk_lz.cols() *
        wk_lz.bitsPerElement();

    // Phase 1.1: K-hat.
    MatI64 k_acc = dlzsKPrediction(x_q.values, wk_lz, &pred.ops);
    pred.kHat = truncateToI16(k_acc, &pred.kShift);

    // Phase 1.2: A-hat, with Q encoded by the runtime (configurable)
    // LZE in 16-bit mode.
    LzMatrix q_lz = lzEncodeI16(q_q.values, &pred.ops);
    MatI64 a_acc = dlzsAPrediction(q_lz, pred.kHat, &pred.ops);

    // Descale to float so downstream stages see score magnitudes
    // comparable to the exact Q K^T. The DLZS shift substitutes
    // 2^(W-LZ) = y/M for the encoded operand y, with mantissa M in
    // [0.5, 1), so each product overestimates by 1/M; for uniformly
    // distributed operands E[1/M] = ln(2)/0.5 ~ 1.386, the debias
    // divisor applied per encoded phase.
    constexpr double kLzBias = 1.3863;
    const double k_scale = x_q.scale * w_q.scale *
                           std::pow(2.0, pred.kShift) / kLzBias;
    const double a_scale = k_scale * q_q.scale / kLzBias;
    pred.scoresHat = MatF(a_acc.rows(), a_acc.cols());
    for (std::size_t i = 0; i < a_acc.data().size(); ++i) {
        pred.scoresHat.data()[i] =
            static_cast<float>(a_acc.data()[i] * a_scale);
    }
    return pred;
}

} // namespace sofa
