/**
 * @file
 * The shared, header-only DiBA round kernel: the barrier-gradient /
 * emergency-shed local step for quadratic utilities, in scalar and
 * block (SIMD-friendly) form, plus the barrier-annealing update.
 *
 * Every engine that advances DiBA state goes through these
 * primitives — the serial reference path, the fused dense kernel,
 * the active-set sparse kernel — so the arithmetic is defined in
 * exactly one place and the bitwise equivalence the tests pin
 * (scalar == SIMD == threaded) is equivalence of *call schedules*,
 * never of re-implementations.
 *
 * Branchless form.  quadNodeDp() computes both candidate updates —
 * the curvature-scaled barrier step (e < 0) and the emergency shed
 * (e >= 0, the in-round power-capping safety action) — and selects
 * with one comparison.  Both candidates are finite for any finite
 * input (the barrier term is evaluated at e clamped to
 * -kBarrierFloor), so the selection maps 1:1 onto a SIMD blend and
 * the AVX2 path below is bitwise identical to the scalar path lane
 * for lane: vaddpd/vmulpd/vdivpd/vminpd/vmaxpd are IEEE-754
 * correctly rounded exactly like their scalar counterparts, and no
 * FMA contraction is emitted (the build never passes -mfma; see
 * the DPC_AVX2 option in CMakeLists.txt).
 *
 * stepBlockQuad() steps a contiguous block of nodes whose
 * post-diffusion estimates are already in e[]: plain elementwise
 * arrays in, dp applied in place, per-block max |dp| out.  The
 * restrict-qualified pointers promise the compiler the seven
 * streams never alias, which is what lets GCC vectorize the scalar
 * body; defining DPC_AVX2 (and compiling with -mavx2) swaps in the
 * hand-blended 4-wide intrinsics path, which the tests check
 * bitwise against the scalar body on random inputs.
 */

#ifndef DPC_ALLOC_ROUND_KERNEL_HH
#define DPC_ALLOC_ROUND_KERNEL_HH

#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#if defined(_MSC_VER)
#define DPC_RESTRICT __restrict
#else
#define DPC_RESTRICT __restrict__
#endif

namespace dpc {

/** Numerical floor keeping the barrier defined in transients. */
inline constexpr double kBarrierFloor = 1e-9;

/**
 * Target slack restored by an emergency shed: a node holding
 * non-negative debt drops its cap until e_i <= -kShedFloor (box
 * permitting).
 */
inline constexpr double kShedFloor = 1e-2;

/** Division guard for the curvature denominator. */
inline constexpr double kCurvFloor = 1e-12;

/**
 * The hot-loop subset of DibaAllocator::Config, flattened so the
 * kernels depend on nine doubles instead of the allocator header.
 */
struct RoundKernelParams
{
    double damping = 0.65;
    double max_move = 4.0;
    double barrier_keep = 0.1;
    double anneal_gate = 0.05;
    double reheat_gate = 1.0;
    double eta_floor = 0.004;
    double eta_initial = 0.08;
    double eta_decay = 0.93;
    double eta_reheat = 1.02;
};

/**
 * Power-capping safety action inside the local controller: with
 * e >= 0 the barrier is undefined and the quasi-Newton step
 * degenerates to an O(kBarrierFloor) move, so shed directly down
 * to -kShedFloor instead.  Debt parked on floor-clamped nodes can
 * reach a node with headroom only via diffusion (one hop per
 * round); this absorbs it the moment it arrives.
 */
inline double
emergencyShedStep(double &p, double &e, double p_min)
{
    const double want = e + kShedFloor;
    const double can = p - p_min;
    const double shed = std::max(0.0, std::min(want, can));
    p -= shed;
    e -= shed;
    return -shed;
}

/**
 * Fused barrier-gradient / emergency-shed step for one quadratic
 * node: gradient b + 2cp + eta/e, exact curvature 2|c| plus the
 * barrier term, backtracking into the action space (per-round move
 * limit, keep e strictly negative, stay in the [lo, hi] box); when
 * e >= 0 the returned move is the emergency shed instead.  Returns
 * dp; the caller applies p += dp, e += dp.
 */
inline double
quadNodeDp(double p, double e, double eta, double b, double c,
           double lo, double hi, const RoundKernelParams &k)
{
    // Barrier-gradient candidate (one reciprocal serves both
    // barrier terms).
    const double e_eff = std::min(e, -kBarrierFloor);
    const double inv = 1.0 / e_eff;
    const double grad = b + 2.0 * c * p + eta * inv;
    const double curv = eta * inv * inv + 2.0 * std::fabs(c);
    double dp = k.damping * grad / std::max(curv, kCurvFloor);
    dp = std::clamp(dp, -k.max_move, k.max_move);
    if (dp > 0.0)
        dp = std::min(dp, (k.barrier_keep - 1.0) * e);
    dp = std::clamp(dp, lo - p, hi - p);

    // Emergency-shed candidate; select branchlessly so the block
    // kernels can blend.
    const double want = e + kShedFloor;
    const double can = p - lo;
    const double shed = std::max(0.0, std::min(want, can));
    return e >= 0.0 ? -shed : dp;
}

/**
 * Post-step annealing decision: a locally quiescent node tightens
 * its barrier toward the floor, a node still transporting power
 * re-widens it (up to the initial weight).
 */
inline double
annealEta(double eta, double moved, const RoundKernelParams &k)
{
    if (moved < k.anneal_gate)
        return std::max(k.eta_floor, eta * k.eta_decay);
    if (moved > k.reheat_gate)
        return std::min(k.eta_initial, eta * k.eta_reheat);
    return eta;
}

/**
 * Scalar block step: e[] holds the post-diffusion estimates on
 * entry; p/e are updated in place, eta annealed, and the max |dp|
 * over the block returned.  The streams must not alias.
 */
inline double
stepBlockQuadScalar(std::size_t m, double *DPC_RESTRICT p,
                    double *DPC_RESTRICT e,
                    double *DPC_RESTRICT eta,
                    const double *DPC_RESTRICT b,
                    const double *DPC_RESTRICT c,
                    const double *DPC_RESTRICT lo,
                    const double *DPC_RESTRICT hi,
                    const RoundKernelParams &k)
{
    double max_dp = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double dp =
            quadNodeDp(p[i], e[i], eta[i], b[i], c[i], lo[i],
                       hi[i], k);
        p[i] += dp;
        e[i] += dp;
        const double moved = std::fabs(dp);
        max_dp = std::max(max_dp, moved);
        eta[i] = annealEta(eta[i], moved, k);
    }
    return max_dp;
}

#if defined(__AVX2__)

/**
 * 4-wide AVX2 block step, bitwise identical to the scalar body
 * (every vector op is the correctly rounded IEEE operation of its
 * scalar twin; selections become blends on full-lane masks).
 * Compiled whenever the translation unit has AVX2 enabled; the
 * library dispatches to it only under -DDPC_AVX2 so the default
 * build stays portable, and the equivalence test compiles this
 * header with -mavx2 explicitly to pin the two paths against each
 * other on the build machine.
 */
inline double
stepBlockQuadAvx2(std::size_t m, double *DPC_RESTRICT p,
                  double *DPC_RESTRICT e, double *DPC_RESTRICT eta,
                  const double *DPC_RESTRICT b,
                  const double *DPC_RESTRICT c,
                  const double *DPC_RESTRICT lo,
                  const double *DPC_RESTRICT hi,
                  const RoundKernelParams &k)
{
    const __m256d vzero = _mm256_setzero_pd();
    const __m256d vbar = _mm256_set1_pd(-kBarrierFloor);
    const __m256d vcurvf = _mm256_set1_pd(kCurvFloor);
    const __m256d vdamp = _mm256_set1_pd(k.damping);
    const __m256d vmove = _mm256_set1_pd(k.max_move);
    const __m256d vnmove = _mm256_set1_pd(-k.max_move);
    const __m256d vkeep = _mm256_set1_pd(k.barrier_keep - 1.0);
    const __m256d vshed = _mm256_set1_pd(kShedFloor);
    const __m256d vgate = _mm256_set1_pd(k.anneal_gate);
    const __m256d vreheat = _mm256_set1_pd(k.reheat_gate);
    const __m256d vefloor = _mm256_set1_pd(k.eta_floor);
    const __m256d veinit = _mm256_set1_pd(k.eta_initial);
    const __m256d vdecay = _mm256_set1_pd(k.eta_decay);
    const __m256d vwiden = _mm256_set1_pd(k.eta_reheat);
    const __m256d vtwo = _mm256_set1_pd(2.0);
    const __m256d vabsmask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));

    __m256d vmax_dp = vzero;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        const __m256d vp = _mm256_loadu_pd(p + i);
        const __m256d ve = _mm256_loadu_pd(e + i);
        const __m256d veta = _mm256_loadu_pd(eta + i);
        const __m256d vb = _mm256_loadu_pd(b + i);
        const __m256d vc = _mm256_loadu_pd(c + i);
        const __m256d vlo = _mm256_loadu_pd(lo + i);
        const __m256d vhi = _mm256_loadu_pd(hi + i);

        // Barrier-gradient candidate.
        const __m256d e_eff = _mm256_min_pd(ve, vbar);
        const __m256d inv =
            _mm256_div_pd(_mm256_set1_pd(1.0), e_eff);
        const __m256d grad = _mm256_add_pd(
            _mm256_add_pd(vb, _mm256_mul_pd(
                                  _mm256_mul_pd(vtwo, vc), vp)),
            _mm256_mul_pd(veta, inv));
        // (eta * inv) * inv, matching the scalar association
        // exactly (FP multiplication is not associative).
        const __m256d curv = _mm256_add_pd(
            _mm256_mul_pd(_mm256_mul_pd(veta, inv), inv),
            _mm256_mul_pd(vtwo, _mm256_and_pd(vc, vabsmask)));
        __m256d dp = _mm256_div_pd(_mm256_mul_pd(vdamp, grad),
                                   _mm256_max_pd(curv, vcurvf));
        // std::clamp(dp, -max_move, max_move) == min(max(dp, lo'),
        // hi') for finite dp.
        dp = _mm256_min_pd(_mm256_max_pd(dp, vnmove), vmove);
        const __m256d pos =
            _mm256_cmp_pd(dp, vzero, _CMP_GT_OQ);
        dp = _mm256_blendv_pd(
            dp, _mm256_min_pd(dp, _mm256_mul_pd(vkeep, ve)), pos);
        dp = _mm256_min_pd(_mm256_max_pd(dp, _mm256_sub_pd(vlo, vp)),
                           _mm256_sub_pd(vhi, vp));

        // Emergency-shed candidate and selection.
        const __m256d want = _mm256_add_pd(ve, vshed);
        const __m256d can = _mm256_sub_pd(vp, vlo);
        const __m256d shed =
            _mm256_max_pd(vzero, _mm256_min_pd(want, can));
        const __m256d over =
            _mm256_cmp_pd(ve, vzero, _CMP_GE_OQ);
        dp = _mm256_blendv_pd(dp, _mm256_sub_pd(vzero, shed), over);

        _mm256_storeu_pd(p + i, _mm256_add_pd(vp, dp));
        _mm256_storeu_pd(e + i, _mm256_add_pd(ve, dp));

        const __m256d moved = _mm256_and_pd(dp, vabsmask);
        vmax_dp = _mm256_max_pd(vmax_dp, moved);

        // annealEta, blended: quiescent lanes decay toward the
        // floor, hot lanes re-widen toward the initial weight.
        const __m256d decayed = _mm256_max_pd(
            vefloor, _mm256_mul_pd(veta, vdecay));
        const __m256d widened = _mm256_min_pd(
            veinit, _mm256_mul_pd(veta, vwiden));
        const __m256d quiet =
            _mm256_cmp_pd(moved, vgate, _CMP_LT_OQ);
        const __m256d hot =
            _mm256_cmp_pd(moved, vreheat, _CMP_GT_OQ);
        __m256d eta_out = _mm256_blendv_pd(veta, widened, hot);
        eta_out = _mm256_blendv_pd(eta_out, decayed, quiet);
        _mm256_storeu_pd(eta + i, eta_out);
    }

    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, vmax_dp);
    double max_dp = std::max(std::max(lanes[0], lanes[1]),
                             std::max(lanes[2], lanes[3]));
    if (i < m) {
        max_dp = std::max(
            max_dp, stepBlockQuadScalar(m - i, p + i, e + i,
                                        eta + i, b + i, c + i,
                                        lo + i, hi + i, k));
    }
    return max_dp;
}

#endif // __AVX2__

#if defined(__AVX512F__)

/**
 * 8-wide AVX-512F block step, bitwise identical to the scalar body
 * by the same argument as the AVX2 twin: every 512-bit op is the
 * correctly rounded IEEE operation of its scalar counterpart
 * (vaddpd/vmulpd/vdivpd/vminpd/vmaxpd), selections become mask
 * blends on full-lane compare masks, and no FMA is emitted (the
 * build passes -mavx512f only; see the DPC_AVX512 option in
 * CMakeLists.txt).  |x| uses _mm512_abs_pd, which is pure AVX512F
 * (the bitwise-and-with-mask form needs the DQ extension).
 */
inline double
stepBlockQuadAvx512(std::size_t m, double *DPC_RESTRICT p,
                    double *DPC_RESTRICT e,
                    double *DPC_RESTRICT eta,
                    const double *DPC_RESTRICT b,
                    const double *DPC_RESTRICT c,
                    const double *DPC_RESTRICT lo,
                    const double *DPC_RESTRICT hi,
                    const RoundKernelParams &k)
{
    const __m512d vzero = _mm512_setzero_pd();
    const __m512d vbar = _mm512_set1_pd(-kBarrierFloor);
    const __m512d vcurvf = _mm512_set1_pd(kCurvFloor);
    const __m512d vdamp = _mm512_set1_pd(k.damping);
    const __m512d vmove = _mm512_set1_pd(k.max_move);
    const __m512d vnmove = _mm512_set1_pd(-k.max_move);
    const __m512d vkeep = _mm512_set1_pd(k.barrier_keep - 1.0);
    const __m512d vshed = _mm512_set1_pd(kShedFloor);
    const __m512d vgate = _mm512_set1_pd(k.anneal_gate);
    const __m512d vreheat = _mm512_set1_pd(k.reheat_gate);
    const __m512d vefloor = _mm512_set1_pd(k.eta_floor);
    const __m512d veinit = _mm512_set1_pd(k.eta_initial);
    const __m512d vdecay = _mm512_set1_pd(k.eta_decay);
    const __m512d vwiden = _mm512_set1_pd(k.eta_reheat);
    const __m512d vtwo = _mm512_set1_pd(2.0);

    __m512d vmax_dp = vzero;
    std::size_t i = 0;
    for (; i + 8 <= m; i += 8) {
        const __m512d vp = _mm512_loadu_pd(p + i);
        const __m512d ve = _mm512_loadu_pd(e + i);
        const __m512d veta = _mm512_loadu_pd(eta + i);
        const __m512d vb = _mm512_loadu_pd(b + i);
        const __m512d vc = _mm512_loadu_pd(c + i);
        const __m512d vlo = _mm512_loadu_pd(lo + i);
        const __m512d vhi = _mm512_loadu_pd(hi + i);

        // Barrier-gradient candidate.
        const __m512d e_eff = _mm512_min_pd(ve, vbar);
        const __m512d inv =
            _mm512_div_pd(_mm512_set1_pd(1.0), e_eff);
        const __m512d grad = _mm512_add_pd(
            _mm512_add_pd(vb, _mm512_mul_pd(
                                  _mm512_mul_pd(vtwo, vc), vp)),
            _mm512_mul_pd(veta, inv));
        // (eta * inv) * inv, matching the scalar association
        // exactly (FP multiplication is not associative).
        const __m512d curv = _mm512_add_pd(
            _mm512_mul_pd(_mm512_mul_pd(veta, inv), inv),
            _mm512_mul_pd(vtwo, _mm512_abs_pd(vc)));
        __m512d dp = _mm512_div_pd(_mm512_mul_pd(vdamp, grad),
                                   _mm512_max_pd(curv, vcurvf));
        // std::clamp(dp, -max_move, max_move) == min(max(dp, lo'),
        // hi') for finite dp.
        dp = _mm512_min_pd(_mm512_max_pd(dp, vnmove), vmove);
        const __mmask8 pos =
            _mm512_cmp_pd_mask(dp, vzero, _CMP_GT_OQ);
        dp = _mm512_mask_blend_pd(
            pos, dp, _mm512_min_pd(dp, _mm512_mul_pd(vkeep, ve)));
        dp = _mm512_min_pd(_mm512_max_pd(dp, _mm512_sub_pd(vlo, vp)),
                           _mm512_sub_pd(vhi, vp));

        // Emergency-shed candidate and selection.
        const __m512d want = _mm512_add_pd(ve, vshed);
        const __m512d can = _mm512_sub_pd(vp, vlo);
        const __m512d shed =
            _mm512_max_pd(vzero, _mm512_min_pd(want, can));
        const __mmask8 over =
            _mm512_cmp_pd_mask(ve, vzero, _CMP_GE_OQ);
        dp = _mm512_mask_blend_pd(over, dp,
                                  _mm512_sub_pd(vzero, shed));

        _mm512_storeu_pd(p + i, _mm512_add_pd(vp, dp));
        _mm512_storeu_pd(e + i, _mm512_add_pd(ve, dp));

        const __m512d moved = _mm512_abs_pd(dp);
        vmax_dp = _mm512_max_pd(vmax_dp, moved);

        // annealEta, blended: quiescent lanes decay toward the
        // floor, hot lanes re-widen toward the initial weight.
        const __m512d decayed = _mm512_max_pd(
            vefloor, _mm512_mul_pd(veta, vdecay));
        const __m512d widened = _mm512_min_pd(
            veinit, _mm512_mul_pd(veta, vwiden));
        const __mmask8 quiet =
            _mm512_cmp_pd_mask(moved, vgate, _CMP_LT_OQ);
        const __mmask8 hot =
            _mm512_cmp_pd_mask(moved, vreheat, _CMP_GT_OQ);
        __m512d eta_out = _mm512_mask_blend_pd(hot, veta, widened);
        eta_out = _mm512_mask_blend_pd(quiet, eta_out, decayed);
        _mm512_storeu_pd(eta + i, eta_out);
    }

    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, vmax_dp);
    double max_dp = std::max(
        std::max(std::max(lanes[0], lanes[1]),
                 std::max(lanes[2], lanes[3])),
        std::max(std::max(lanes[4], lanes[5]),
                 std::max(lanes[6], lanes[7])));
    if (i < m) {
        max_dp = std::max(
            max_dp, stepBlockQuadScalar(m - i, p + i, e + i,
                                        eta + i, b + i, c + i,
                                        lo + i, hi + i, k));
    }
    return max_dp;
}

#endif // __AVX512F__

/** Block step dispatch: AVX-512 when the build opts in, then AVX2,
 * then the (auto-vectorizable) scalar body.  All three are pinned
 * bitwise-identical by the kernel equivalence tests, so the choice
 * is pure speed. */
inline double
stepBlockQuad(std::size_t m, double *DPC_RESTRICT p,
              double *DPC_RESTRICT e, double *DPC_RESTRICT eta,
              const double *DPC_RESTRICT b,
              const double *DPC_RESTRICT c,
              const double *DPC_RESTRICT lo,
              const double *DPC_RESTRICT hi,
              const RoundKernelParams &k)
{
#if defined(DPC_AVX512) && defined(__AVX512F__)
    return stepBlockQuadAvx512(m, p, e, eta, b, c, lo, hi, k);
#elif defined(DPC_AVX2) && defined(__AVX2__)
    return stepBlockQuadAvx2(m, p, e, eta, b, c, lo, hi, k);
#else
    return stepBlockQuadScalar(m, p, e, eta, b, c, lo, hi, k);
#endif
}

} // namespace dpc

#endif // DPC_ALLOC_ROUND_KERNEL_HH
