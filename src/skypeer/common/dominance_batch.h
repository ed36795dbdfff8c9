#ifndef SKYPEER_COMMON_DOMINANCE_BATCH_H_
#define SKYPEER_COMMON_DOMINANCE_BATCH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "skypeer/common/macros.h"
#include "skypeer/common/subspace.h"

namespace skypeer {

/// \file
/// Batched dominance kernels over fixed-width blocks of u-projected
/// points. Every SKYPEER variant funnels through the window dominance
/// test of Algorithm 1 — quadratic in window size, run once per scanned
/// point — so this layer restructures it from one-point-at-a-time scalar
/// loops (`dominance.h`) into block kernels that test `kDomBlockWidth`
/// candidates per iteration.
///
/// The kernels perform the *same double comparisons* as the scalar code
/// and reduce block results in lane-index order, so every boolean outcome
/// — and therefore skylines, scan counts, thresholds and all simulated
/// metrics — is bit-identical across the scalar, auto-vectorized and
/// explicit-SIMD paths. Dispatch is runtime (AVX2 on x86-64, NEON on
/// AArch64, compiler-vectorizable blocked loops otherwise) and can be
/// pinned to the scalar path with the `SKYPEER_FORCE_SCALAR` environment
/// variable or `SetForceScalarKernels` for differential testing.

/// Number of points per block of a `BlockedProjection`. Eight doubles per
/// dimension = two AVX2 vectors or four NEON vectors.
inline constexpr size_t kDomBlockWidth = 8;

/// \brief Blocked structure-of-arrays storage for k-dimensional projected
/// points: block `b` holds points `[b*8, b*8+8)` as `k` contiguous runs of
/// 8 doubles, one per dimension (dim-major within the block).
///
/// Padding lanes of a partial final block hold `+inf` on every
/// dimension, which makes them inert for "does any stored point dominate
/// q" queries (`+inf` never dominates a finite point, strictly or not).
/// The reverse kernel (`DominatedMask`) clears them itself. `Erase`
/// removes points and returns the lanes it frees to padding, so every
/// lane below `size()` holds a stored point.
class BlockedProjection {
 public:
  explicit BlockedProjection(int k) : k_(k) {
    SKYPEER_CHECK(k >= 1 && k <= kMaxDims);
  }

  int k() const { return k_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t num_blocks() const {
    return (size_ + kDomBlockWidth - 1) / kDomBlockWidth;
  }

  void Reserve(size_t n) {
    data_.reserve(((n + kDomBlockWidth - 1) / kDomBlockWidth) *
                  kDomBlockWidth * static_cast<size_t>(k_));
  }

  /// Appends a point given by `k()` coordinates. The domain is NaN-free
  /// (skyline coordinates are real costs); NaN would silently corrupt
  /// every comparison-based kernel, so it is rejected in debug builds.
  void Append(const double* row) {
    if (size_ % kDomBlockWidth == 0) {
      data_.resize(data_.size() + kDomBlockWidth * static_cast<size_t>(k_),
                   std::numeric_limits<double>::infinity());
    }
    for (int d = 0; d < k_; ++d) {
      SKYPEER_DCHECK(!std::isnan(row[d]));
      data_[Lane(size_, d)] = row[d];
    }
    ++size_;
  }

  /// Gathers the `k()` coordinates of point `i` into `out`.
  void Row(size_t i, double* out) const {
    SKYPEER_DCHECK(i < size_);
    for (int d = 0; d < k_; ++d) {
      out[d] = data_[Lane(i, d)];
    }
  }

  /// Removes every point whose bit is set in `drop_masks` (bit `i % 8` of
  /// `drop_masks[i / 8]`, the `DominatedMask` layout), keeping the
  /// survivors in order; freed lanes return to `+inf`.
  void Erase(const uint8_t* drop_masks) {
    size_t kept = 0;
    for (size_t i = 0; i < size_; ++i) {
      if (!((drop_masks[i / kDomBlockWidth] >> (i % kDomBlockWidth)) & 1)) {
        for (int d = 0; kept != i && d < k_; ++d) {
          data_[Lane(kept, d)] = data_[Lane(i, d)];
        }
        ++kept;
      }
    }
    for (size_t i = kept; i < size_; ++i) {
      for (int d = 0; d < k_; ++d) {
        data_[Lane(i, d)] = std::numeric_limits<double>::infinity();
      }
    }
    size_ = kept;
    data_.resize(num_blocks() * kDomBlockWidth * static_cast<size_t>(k_));
  }

  void Clear() {
    data_.clear();
    size_ = 0;
  }

  const double* BlockData(size_t b) const {
    return data_.data() + b * kDomBlockWidth * static_cast<size_t>(k_);
  }

 private:
  /// Index in `data_` of coordinate `d` of point `i`: lane `i % 8` of the
  /// `d` run of block `i / 8`.
  size_t Lane(size_t i, int d) const {
    return (i / kDomBlockWidth * static_cast<size_t>(k_) +
            static_cast<size_t>(d)) * kDomBlockWidth + i % kDomBlockWidth;
  }

  int k_;
  size_t size_ = 0;
  std::vector<double> data_;
};

/// Which kernel implementation the dispatcher resolved to.
enum class DomKernelMode {
  kScalar,  ///< Blocked loops, no explicit SIMD (compiler may auto-vectorize).
  kAvx2,    ///< Explicit AVX2 intrinsics (x86-64, runtime-detected).
  kNeon,    ///< Explicit NEON intrinsics (AArch64).
};

/// The active implementation: `SKYPEER_FORCE_SCALAR` (env, non-empty and
/// not "0") or `SetForceScalarKernels(true)` pins `kScalar`; otherwise the
/// best path the CPU supports.
DomKernelMode ActiveDomKernelMode();

/// Short name of a mode: "scalar", "avx2", "neon".
const char* DomKernelModeName(DomKernelMode mode);

/// Overrides dispatch for testing: `true` forces the scalar path, `false`
/// restores default dispatch (`SKYPEER_FORCE_SCALAR` re-checked, then CPU
/// detection). Thread-safe; affects subsequently issued kernel calls
/// process-wide.
void SetForceScalarKernels(bool force);

/// Index of the first stored point of `w` that dominates `q` (`k()`
/// coordinates) — strictly on every dimension when `strict`
/// (ext-dominance), the usual `<= everywhere, < somewhere` otherwise — or
/// `w.size()` when none does. Padding lanes are `+inf` and never
/// dominate, so they are never returned. Equivalent to the first `i`
/// with `Dominates(p_i, q)`; evaluated blockwise with early exit.
size_t FirstDominator(const BlockedProjection& w, const double* q,
                      bool strict);

/// True if some stored point of `w` dominates `q` (see `FirstDominator`).
inline bool AnyDominates(const BlockedProjection& w, const double* q,
                         bool strict) {
  return FirstDominator(w, q, strict) < w.size();
}

/// For every stored point `i`, sets bit `i % 8` of `out_masks[i / 8]` to
/// whether `p` dominates point `i`. `out_masks` must hold `num_blocks()`
/// bytes. Padding lanes past `size()` are reported as 0.
void DominatedMask(const BlockedProjection& w, const double* p, bool strict,
                   uint8_t* out_masks);

/// Row-major variant of `AnyDominates` for data that lives in an existing
/// layout (R-tree leaf entries, survivor unions): row `i` starts at
/// `rows + i * stride` and spans `k` doubles. Exactly equivalent to
/// OR-ing `Dominates(row_i, q)` over the `n` rows.
bool AnyDominatesRows(const double* rows, size_t stride, size_t n, int k,
                      const double* q, bool strict);

/// Row-major variant of `DominatedMask`: `out[i]` is set to 1 when `p`
/// dominates row `i`, 0 otherwise. `out` must hold `n` bytes.
void DominatedFlagsRows(const double* rows, size_t stride, size_t n, int k,
                        const double* p, bool strict, uint8_t* out);

/// Batched `f(p) = min_i p[i]` over `n` row-major `dims`-dimensional rows
/// (paper §5.1); `out` receives `n` values. Reduces each row in dimension
/// order, so results are bit-identical to scalar `MinCoord`.
void BatchMinCoord(const double* rows, size_t n, int dims, double* out);

}  // namespace skypeer

#endif  // SKYPEER_COMMON_DOMINANCE_BATCH_H_
