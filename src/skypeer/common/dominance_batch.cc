#include "skypeer/common/dominance_batch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SKYPEER_HAVE_AVX2_PATH 1
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define SKYPEER_HAVE_NEON_PATH 1
#endif

namespace skypeer {

namespace {

constexpr size_t kW = kDomBlockWidth;

/// One implementation of every kernel. Blocked-storage kernels receive the
/// raw block data plus the logical point count (padding lanes are +inf).
struct KernelTable {
  DomKernelMode mode;
  size_t (*first_dominator)(const double* blocks, size_t n, int k,
                            const double* q, bool strict);
  void (*dominated_mask)(const double* blocks, size_t n, int k,
                         const double* p, bool strict, uint8_t* out_masks);
  bool (*any_dominates_rows)(const double* rows, size_t stride, size_t n,
                             int k, const double* q, bool strict);
  void (*dominated_flags_rows)(const double* rows, size_t stride, size_t n,
                               int k, const double* p, bool strict,
                               uint8_t* out);
  void (*min_coord)(const double* rows, size_t n, int dims, double* out);
};

// --- scalar / compiler-vectorizable blocked loops ---------------------------

/// Bit l set when lane l of the block dominates `q` — with `kReverse`,
/// when `q` dominates lane l — strictly on every dimension when `strict`.
/// Padding and killed lanes are +inf, so all 8 lanes run unconditionally:
/// they never dominate `q`, and the reverse direction reports them as
/// dominated for callers to filter.
template <bool kReverse>
unsigned ScalarBlockMask(const double* block, int k, const double* q,
                         bool strict) {
  uint8_t dom[kW];
  uint8_t lt[kW];
  for (size_t l = 0; l < kW; ++l) {
    dom[l] = 1;
    lt[l] = 0;
  }
  for (int d = 0; d < k; ++d) {
    const double* row = block + static_cast<size_t>(d) * kW;
    const double qd = q[d];
    // Lane l dominates when a[l] <= b[l] (strict: a[l] < b[l]) everywhere.
    const auto a = [&](size_t l) { return kReverse ? qd : row[l]; };
    const auto b = [&](size_t l) { return kReverse ? row[l] : qd; };
    uint8_t live = 0;
    if (strict) {
      for (size_t l = 0; l < kW; ++l) {
        dom[l] &= static_cast<uint8_t>(a(l) < b(l));
        live |= dom[l];
      }
    } else {
      for (size_t l = 0; l < kW; ++l) {
        dom[l] &= static_cast<uint8_t>(a(l) <= b(l));
        lt[l] |= static_cast<uint8_t>(a(l) < b(l));
        live |= dom[l];
      }
    }
    if (!live) {
      return 0;
    }
  }
  unsigned mask = 0;
  for (size_t l = 0; l < kW; ++l) {
    mask |= static_cast<unsigned>(dom[l] & (strict ? 1 : lt[l])) << l;
  }
  return mask;
}

size_t ScalarFirstDominator(const double* blocks, size_t n, int k,
                            const double* q, bool strict) {
  const size_t num_blocks = (n + kW - 1) / kW;
  for (size_t b = 0; b < num_blocks; ++b) {
    const unsigned mask = ScalarBlockMask<false>(
        blocks + b * kW * static_cast<size_t>(k), k, q, strict);
    if (mask != 0) {
      return b * kW + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return n;
}

void ScalarDominatedMask(const double* blocks, size_t n, int k,
                         const double* p, bool strict, uint8_t* out_masks) {
  const size_t num_blocks = (n + kW - 1) / kW;
  for (size_t b = 0; b < num_blocks; ++b) {
    unsigned mask = ScalarBlockMask<true>(
        blocks + b * kW * static_cast<size_t>(k), k, p, strict);
    if (b == num_blocks - 1 && n % kW != 0) {
      mask &= (1u << (n % kW)) - 1;
    }
    out_masks[b] = static_cast<uint8_t>(mask);
  }
}

/// Per-row scalar dominance over `k` contiguous doubles; mirrors
/// `Dominates`/`ExtDominates` from dominance.h on the full k-space.
inline bool RowDominates(const double* e, const double* q, int k,
                         bool strict) {
  bool strictly = false;
  for (int d = 0; d < k; ++d) {
    if (strict ? e[d] >= q[d] : e[d] > q[d]) {
      return false;
    }
    if (e[d] < q[d]) {
      strictly = true;
    }
  }
  return strict || strictly;
}

bool ScalarAnyDominatesRows(const double* rows, size_t stride, size_t n,
                            int k, const double* q, bool strict) {
  for (size_t i = 0; i < n; ++i) {
    if (RowDominates(rows + i * stride, q, k, strict)) {
      return true;
    }
  }
  return false;
}

void ScalarDominatedFlagsRows(const double* rows, size_t stride, size_t n,
                              int k, const double* p, bool strict,
                              uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const double* e = rows + i * stride;
    bool strictly = false;
    bool dominates = true;
    for (int d = 0; d < k; ++d) {
      if (strict ? p[d] >= e[d] : p[d] > e[d]) {
        dominates = false;
        break;
      }
      if (p[d] < e[d]) {
        strictly = true;
      }
    }
    out[i] = static_cast<uint8_t>(dominates && (strict || strictly));
  }
}

void ScalarMinCoord(const double* rows, size_t n, int dims, double* out) {
  size_t i = 0;
  // Blocks of 8 rows, reduced dimension-by-dimension so the lane loop is
  // uniform (compiler-vectorizable with gathers) and the reduction order
  // per row matches scalar `MinCoord` exactly.
  for (; i + kW <= n; i += kW) {
    double acc[kW];
    for (size_t l = 0; l < kW; ++l) {
      acc[l] = rows[(i + l) * static_cast<size_t>(dims)];
    }
    for (int d = 1; d < dims; ++d) {
      for (size_t l = 0; l < kW; ++l) {
        const double v = rows[(i + l) * static_cast<size_t>(dims) + d];
        acc[l] = v < acc[l] ? v : acc[l];
      }
    }
    for (size_t l = 0; l < kW; ++l) {
      out[i + l] = acc[l];
    }
  }
  for (; i < n; ++i) {
    const double* row = rows + i * static_cast<size_t>(dims);
    double m = row[0];
    for (int d = 1; d < dims; ++d) {
      m = row[d] < m ? row[d] : m;
    }
    out[i] = m;
  }
}

constexpr KernelTable kScalarTable = {
    DomKernelMode::kScalar,     ScalarFirstDominator,
    ScalarDominatedMask,        ScalarAnyDominatesRows,
    ScalarDominatedFlagsRows,   ScalarMinCoord,
};

// --- AVX2 -------------------------------------------------------------------

#ifdef SKYPEER_HAVE_AVX2_PATH

/// Lane masks of one block while its dimensions are folded in, as the
/// lower/upper halves, lanes [0,4) and [4,8): `dom` holds "a <= b"
/// (strict: "a < b") on every dimension so far, `lt` holds "a < b" on
/// some dimension.
struct Avx2BlockState {
  __m256d dom_lo;
  __m256d dom_hi;
  __m256d lt_lo;
  __m256d lt_hi;
};

/// Folds one dimension run of a block (8 lanes at `row`) against the
/// broadcast query coordinate `qd`. Lane l dominates when a[l] <= b[l]
/// (strict: a[l] < b[l]) everywhere; `kReverse` swaps the operands, so the
/// lane passes when `q` dominates it. Templated on strictness because
/// `_mm256_cmp_pd` predicates must be immediates.
template <bool kStrict, bool kReverse>
__attribute__((target("avx2"))) inline void Avx2BlockStep(const double* row,
                                                          __m256d qd,
                                                          Avx2BlockState* s) {
  const __m256d e_lo = _mm256_loadu_pd(row);
  const __m256d e_hi = _mm256_loadu_pd(row + 4);
  const __m256d a_lo = kReverse ? qd : e_lo;
  const __m256d b_lo = kReverse ? e_lo : qd;
  const __m256d a_hi = kReverse ? qd : e_hi;
  const __m256d b_hi = kReverse ? e_hi : qd;
  if constexpr (kStrict) {
    s->dom_lo = _mm256_and_pd(s->dom_lo, _mm256_cmp_pd(a_lo, b_lo, _CMP_LT_OQ));
    s->dom_hi = _mm256_and_pd(s->dom_hi, _mm256_cmp_pd(a_hi, b_hi, _CMP_LT_OQ));
  } else {
    s->dom_lo = _mm256_and_pd(s->dom_lo, _mm256_cmp_pd(a_lo, b_lo, _CMP_LE_OQ));
    s->dom_hi = _mm256_and_pd(s->dom_hi, _mm256_cmp_pd(a_hi, b_hi, _CMP_LE_OQ));
    s->lt_lo = _mm256_or_pd(s->lt_lo, _mm256_cmp_pd(a_lo, b_lo, _CMP_LT_OQ));
    s->lt_hi = _mm256_or_pd(s->lt_hi, _mm256_cmp_pd(a_hi, b_hi, _CMP_LT_OQ));
  }
}

/// Widths that get their own instance of the block test.
constexpr int kAvx2FixedWidths = 4;

/// The block test of one kernel call: bit l of `Mask(block)` is set when
/// lane l dominates `q` (with `kReverse`, when `q` dominates lane l). The
/// query broadcasts are made once per call.
///
/// `K` in 1..4 fixes the width at compile time, so the dimension loop
/// unrolls with the broadcasts in registers, and every comparison of a
/// block runs: at the query widths (k = 3, 4) an "all lanes dead" exit is
/// a data-dependent branch that mispredicts and costs more than the few
/// comparisons it saves. `K = 0` is the runtime width k > 4. It exits
/// after dimension 1, where a query that no lane dominates usually loses
/// every lane, and then once every 4 dimensions, on one OR'd movemask.
/// An exit only ever returns the 0 that the remaining ANDs would leave,
/// so every mask is the same with or without it.
template <bool kStrict, bool kReverse, int K>
class Avx2BlockTest {
 public:
  __attribute__((target("avx2"))) Avx2BlockTest(const double* q, int k)
      : k_(K > 0 ? K : k) {
    for (int d = 0; d < (K > 0 ? K : k); ++d) {
      qd_[d] = _mm256_set1_pd(q[d]);
    }
  }

  __attribute__((target("avx2"))) int Mask(const double* block) const {
    const int k = K > 0 ? K : k_;
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    Avx2BlockState s{all, all, _mm256_setzero_pd(), _mm256_setzero_pd()};
    Avx2BlockStep<kStrict, kReverse>(block, qd_[0], &s);
    int d = 1;
    if constexpr (K == 0) {
      while (true) {
        if (_mm256_movemask_pd(_mm256_or_pd(s.dom_lo, s.dom_hi)) == 0) {
          return 0;
        }
        if (d + 4 >= k) {
          break;
        }
        for (const int end = d + 4; d < end; ++d) {
          Avx2BlockStep<kStrict, kReverse>(block + d * kW, qd_[d], &s);
        }
      }
    }
    for (; d < k; ++d) {
      Avx2BlockStep<kStrict, kReverse>(block + d * kW, qd_[d], &s);
    }
    if constexpr (!kStrict) {
      s.dom_lo = _mm256_and_pd(s.dom_lo, s.lt_lo);
      s.dom_hi = _mm256_and_pd(s.dom_hi, s.lt_hi);
    }
    return _mm256_movemask_pd(s.dom_lo) | (_mm256_movemask_pd(s.dom_hi) << 4);
  }

 private:
  int k_;
  __m256d qd_[K > 0 ? K : kMaxDims];
};

template <bool kStrict, int K>
__attribute__((target("avx2"))) size_t Avx2FirstDominatorK(
    const double* blocks, size_t n, int k, const double* q) {
  const Avx2BlockTest<kStrict, false, K> test(q, k);
  const size_t num_blocks = (n + kW - 1) / kW;
  const size_t stride = kW * static_cast<size_t>(k);
  for (size_t b = 0; b < num_blocks; ++b) {
    const int mask = test.Mask(blocks + b * stride);
    if (mask != 0) {
      return b * kW + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return n;
}

template <bool kStrict, int K>
__attribute__((target("avx2"))) void Avx2DominatedMaskK(const double* blocks,
                                                        size_t n, int k,
                                                        const double* p,
                                                        uint8_t* out_masks) {
  const Avx2BlockTest<kStrict, true, K> test(p, k);
  const size_t num_blocks = (n + kW - 1) / kW;
  const size_t stride = kW * static_cast<size_t>(k);
  for (size_t b = 0; b < num_blocks; ++b) {
    out_masks[b] = static_cast<uint8_t>(test.Mask(blocks + b * stride));
  }
  if (n % kW != 0) {
    out_masks[num_blocks - 1] &= static_cast<uint8_t>((1u << (n % kW)) - 1);
  }
}

/// Instances by width slot: slot k in 1..4 is the fixed width k, slot 0
/// the runtime width.
template <bool kStrict>
constexpr size_t (*kAvx2FirstDominators[])(const double*, size_t, int,
                                           const double*) = {
    Avx2FirstDominatorK<kStrict, 0>, Avx2FirstDominatorK<kStrict, 1>,
    Avx2FirstDominatorK<kStrict, 2>, Avx2FirstDominatorK<kStrict, 3>,
    Avx2FirstDominatorK<kStrict, 4>};
template <bool kStrict>
constexpr void (*kAvx2DominatedMasks[])(const double*, size_t, int,
                                        const double*, uint8_t*) = {
    Avx2DominatedMaskK<kStrict, 0>, Avx2DominatedMaskK<kStrict, 1>,
    Avx2DominatedMaskK<kStrict, 2>, Avx2DominatedMaskK<kStrict, 3>,
    Avx2DominatedMaskK<kStrict, 4>};

inline int Avx2WidthSlot(int k) { return k <= kAvx2FixedWidths ? k : 0; }

size_t Avx2FirstDominator(const double* blocks, size_t n, int k,
                          const double* q, bool strict) {
  const int slot = Avx2WidthSlot(k);
  return strict ? kAvx2FirstDominators<true>[slot](blocks, n, k, q)
                : kAvx2FirstDominators<false>[slot](blocks, n, k, q);
}

void Avx2DominatedMask(const double* blocks, size_t n, int k, const double* p,
                       bool strict, uint8_t* out_masks) {
  const int slot = Avx2WidthSlot(k);
  if (strict) {
    kAvx2DominatedMasks<true>[slot](blocks, n, k, p, out_masks);
  } else {
    kAvx2DominatedMasks<false>[slot](blocks, n, k, p, out_masks);
  }
}

/// Load mask for the trailing `m` (1..3) lanes of a 4-double slice.
__attribute__((target("avx2"))) inline __m256i TailMaskAvx2(int m) {
  return _mm256_set_epi64x(m > 3 ? -1 : 0, m > 2 ? -1 : 0, m > 1 ? -1 : 0,
                           m > 0 ? -1 : 0);
}

/// Dominance of one row-major point over dims-slices of width 4: tests
/// e-dominates-q like RowDominates.
template <bool kStrict>
__attribute__((target("avx2"))) inline bool RowDominatesAvx2(const double* e,
                                                             const double* q,
                                                             int k) {
  int lt_any = 0;
  int d = 0;
  for (; d + 4 <= k; d += 4) {
    const __m256d ev = _mm256_loadu_pd(e + d);
    const __m256d qv = _mm256_loadu_pd(q + d);
    int le;
    if constexpr (kStrict) {
      le = _mm256_movemask_pd(_mm256_cmp_pd(ev, qv, _CMP_LT_OQ));
    } else {
      le = _mm256_movemask_pd(_mm256_cmp_pd(ev, qv, _CMP_LE_OQ));
    }
    if (le != 0xF) {
      return false;
    }
    lt_any |= _mm256_movemask_pd(_mm256_cmp_pd(ev, qv, _CMP_LT_OQ));
  }
  const int rem = k - d;
  if (rem > 0) {
    const __m256i mask = TailMaskAvx2(rem);
    const __m256d ev = _mm256_maskload_pd(e + d, mask);
    const __m256d qv = _mm256_maskload_pd(q + d, mask);
    const int active = (1 << rem) - 1;
    int le;
    if constexpr (kStrict) {
      le = _mm256_movemask_pd(_mm256_cmp_pd(ev, qv, _CMP_LT_OQ));
    } else {
      le = _mm256_movemask_pd(_mm256_cmp_pd(ev, qv, _CMP_LE_OQ));
    }
    if ((le & active) != active) {
      return false;
    }
    lt_any |= _mm256_movemask_pd(_mm256_cmp_pd(ev, qv, _CMP_LT_OQ)) & active;
  }
  return kStrict || lt_any != 0;
}

__attribute__((target("avx2"))) bool Avx2AnyDominatesRows(
    const double* rows, size_t stride, size_t n, int k, const double* q,
    bool strict) {
  if (strict) {
    for (size_t i = 0; i < n; ++i) {
      if (RowDominatesAvx2<true>(rows + i * stride, q, k)) {
        return true;
      }
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (RowDominatesAvx2<false>(rows + i * stride, q, k)) {
        return true;
      }
    }
  }
  return false;
}

__attribute__((target("avx2"))) void Avx2DominatedFlagsRows(
    const double* rows, size_t stride, size_t n, int k, const double* p,
    bool strict, uint8_t* out) {
  if (strict) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(RowDominatesAvx2<true>(p, rows + i * stride, k));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] =
          static_cast<uint8_t>(RowDominatesAvx2<false>(p, rows + i * stride, k));
    }
  }
}

// Min-coord stays on the blocked scalar kernel even when AVX2 is
// available: the rows are row-major, so an explicit-SIMD version needs a
// strided gather per dimension (`_mm256_set_pd` of four row pointers),
// which measured consistently *slower* than the compiler-vectorized
// blocked loop at every k <= 16 (bench_dominance_kernels, MinCoord
// rows). The result is bitwise the same either way.
constexpr KernelTable kAvx2Table = {
    DomKernelMode::kAvx2,     Avx2FirstDominator,
    Avx2DominatedMask,        Avx2AnyDominatesRows,
    Avx2DominatedFlagsRows,   ScalarMinCoord,
};

#endif  // SKYPEER_HAVE_AVX2_PATH

// --- NEON -------------------------------------------------------------------

#ifdef SKYPEER_HAVE_NEON_PATH

/// 8-bit lane mask of one block (bit l = lane l dominates q).
inline int BlockDomMaskNeon(const double* block, int k, const double* q,
                            bool strict) {
  uint64x2_t dom[4];
  uint64x2_t lt[4];
  for (int h = 0; h < 4; ++h) {
    dom[h] = vdupq_n_u64(~uint64_t{0});
    lt[h] = vdupq_n_u64(0);
  }
  for (int d = 0; d < k; ++d) {
    const double* row = block + static_cast<size_t>(d) * kW;
    const float64x2_t qd = vdupq_n_f64(q[d]);
    uint64_t live = 0;
    for (int h = 0; h < 4; ++h) {
      const float64x2_t e = vld1q_f64(row + 2 * h);
      if (strict) {
        dom[h] = vandq_u64(dom[h], vcltq_f64(e, qd));
      } else {
        dom[h] = vandq_u64(dom[h], vcleq_f64(e, qd));
        lt[h] = vorrq_u64(lt[h], vcltq_f64(e, qd));
      }
      live |= vgetq_lane_u64(dom[h], 0) | vgetq_lane_u64(dom[h], 1);
    }
    if (!live) {
      return 0;
    }
  }
  int mask = 0;
  for (int h = 0; h < 4; ++h) {
    const uint64x2_t m = strict ? dom[h] : vandq_u64(dom[h], lt[h]);
    mask |= static_cast<int>(vgetq_lane_u64(m, 0) & 1) << (2 * h);
    mask |= static_cast<int>(vgetq_lane_u64(m, 1) & 1) << (2 * h + 1);
  }
  return mask;
}

size_t NeonFirstDominator(const double* blocks, size_t n, int k,
                          const double* q, bool strict) {
  const size_t num_blocks = (n + kW - 1) / kW;
  for (size_t b = 0; b < num_blocks; ++b) {
    const int mask = BlockDomMaskNeon(
        blocks + b * kW * static_cast<size_t>(k), k, q, strict);
    if (mask != 0) {
      return b * kW + static_cast<size_t>(__builtin_ctz(mask));
    }
  }
  return n;
}

inline int BlockRevDomMaskNeon(const double* block, int k, const double* p,
                               bool strict) {
  uint64x2_t dom[4];
  uint64x2_t gt[4];
  for (int h = 0; h < 4; ++h) {
    dom[h] = vdupq_n_u64(~uint64_t{0});
    gt[h] = vdupq_n_u64(0);
  }
  for (int d = 0; d < k; ++d) {
    const double* row = block + static_cast<size_t>(d) * kW;
    const float64x2_t pd = vdupq_n_f64(p[d]);
    uint64_t live = 0;
    for (int h = 0; h < 4; ++h) {
      const float64x2_t e = vld1q_f64(row + 2 * h);
      if (strict) {
        dom[h] = vandq_u64(dom[h], vcgtq_f64(e, pd));
      } else {
        dom[h] = vandq_u64(dom[h], vcgeq_f64(e, pd));
        gt[h] = vorrq_u64(gt[h], vcgtq_f64(e, pd));
      }
      live |= vgetq_lane_u64(dom[h], 0) | vgetq_lane_u64(dom[h], 1);
    }
    if (!live) {
      return 0;
    }
  }
  int mask = 0;
  for (int h = 0; h < 4; ++h) {
    const uint64x2_t m = strict ? dom[h] : vandq_u64(dom[h], gt[h]);
    mask |= static_cast<int>(vgetq_lane_u64(m, 0) & 1) << (2 * h);
    mask |= static_cast<int>(vgetq_lane_u64(m, 1) & 1) << (2 * h + 1);
  }
  return mask;
}

void NeonDominatedMask(const double* blocks, size_t n, int k, const double* p,
                       bool strict, uint8_t* out_masks) {
  const size_t num_blocks = (n + kW - 1) / kW;
  for (size_t b = 0; b < num_blocks; ++b) {
    int mask = BlockRevDomMaskNeon(blocks + b * kW * static_cast<size_t>(k),
                                   k, p, strict);
    if (b == num_blocks - 1 && n % kW != 0) {
      mask &= (1 << (n % kW)) - 1;
    }
    out_masks[b] = static_cast<uint8_t>(mask);
  }
}

constexpr KernelTable kNeonTable = {
    DomKernelMode::kNeon,       NeonFirstDominator,
    NeonDominatedMask,          ScalarAnyDominatesRows,
    ScalarDominatedFlagsRows,   ScalarMinCoord,
};

#endif  // SKYPEER_HAVE_NEON_PATH

// --- dispatch ---------------------------------------------------------------

bool EnvForcesScalar() {
  const char* env = std::getenv("SKYPEER_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

const KernelTable* DetectTable() {
  if (EnvForcesScalar()) {
    return &kScalarTable;
  }
#ifdef SKYPEER_HAVE_AVX2_PATH
  if (__builtin_cpu_supports("avx2")) {
    return &kAvx2Table;
  }
#endif
#ifdef SKYPEER_HAVE_NEON_PATH
  return &kNeonTable;
#endif
  return &kScalarTable;
}

std::atomic<const KernelTable*> g_table{nullptr};

const KernelTable* Table() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: concurrent first calls detect the same table.
    table = DetectTable();
    g_table.store(table, std::memory_order_release);
  }
  return table;
}

}  // namespace

DomKernelMode ActiveDomKernelMode() { return Table()->mode; }

const char* DomKernelModeName(DomKernelMode mode) {
  switch (mode) {
    case DomKernelMode::kScalar:
      return "scalar";
    case DomKernelMode::kAvx2:
      return "avx2";
    case DomKernelMode::kNeon:
      return "neon";
  }
  return "unknown";
}

void SetForceScalarKernels(bool force) {
  if (force) {
    g_table.store(&kScalarTable, std::memory_order_release);
  } else {
    g_table.store(DetectTable(), std::memory_order_release);
  }
}

size_t FirstDominator(const BlockedProjection& w, const double* q,
                      bool strict) {
  if (w.empty()) {
    return 0;
  }
  return Table()->first_dominator(w.BlockData(0), w.size(), w.k(), q, strict);
}

void DominatedMask(const BlockedProjection& w, const double* p, bool strict,
                   uint8_t* out_masks) {
  if (w.empty()) {
    return;
  }
  Table()->dominated_mask(w.BlockData(0), w.size(), w.k(), p, strict,
                          out_masks);
}

bool AnyDominatesRows(const double* rows, size_t stride, size_t n, int k,
                      const double* q, bool strict) {
  if (n == 0) {
    return false;
  }
  return Table()->any_dominates_rows(rows, stride, n, k, q, strict);
}

void DominatedFlagsRows(const double* rows, size_t stride, size_t n, int k,
                        const double* p, bool strict, uint8_t* out) {
  if (n == 0) {
    return;
  }
  Table()->dominated_flags_rows(rows, stride, n, k, p, strict, out);
}

void BatchMinCoord(const double* rows, size_t n, int dims, double* out) {
  if (n == 0) {
    return;
  }
  Table()->min_coord(rows, n, dims, out);
}

}  // namespace skypeer
