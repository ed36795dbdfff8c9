// Micro-benchmarks (google-benchmark) of the batched dominance kernels
// against the one-point-at-a-time scalar baseline they replaced. Three
// configurations per operation:
//
//   Baseline  row-major loop over `Dominates` (the pre-blocked code path)
//   Scalar    blocked SoA kernels pinned to the scalar path
//   Dispatch  blocked SoA kernels with runtime dispatch (AVX2/NEON)
//
// The acceptance bar for the SIMD work is Dispatch >= 2x Baseline on
// `AnyDominates` for k <= 8 at window >= 256. In the grid runs queries
// are taken near the origin so no window point dominates them: every
// call scans the full window, which is the worst case Algorithm 1 pays
// per accepted skyline point and the case the blocked kernels target.
// Every lane also fails on the first dimension there, so every branch is
// predictable. The `Mixed` runs (k = 3, 4, 8) draw window and queries
// from one anti-correlated distribution, so some queries are dominated
// early, some late and some not at all, as offers to a scan window are;
// their `dominated` counter is the share of queries with a dominator
// (EXPERIMENTS.md §A19).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "skypeer/common/dominance.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/subspace.h"

namespace skypeer {
namespace {

// Window coordinates in (0, 1]: strictly positive so an all-zero query is
// never dominated and `AnyDominates` cannot exit early.
std::vector<double> RandomRows(int k, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> rows(n * static_cast<size_t>(k));
  for (double& v : rows) {
    v = 0.5 * rng.Uniform() + 0.5;
  }
  return rows;
}

BlockedProjection ToBlocked(const std::vector<double>& rows, int k) {
  BlockedProjection proj(k);
  const size_t n = rows.size() / static_cast<size_t>(k);
  proj.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    proj.Append(rows.data() + i * static_cast<size_t>(k));
  }
  return proj;
}

// RAII pin of the kernel dispatch mode for one benchmark run.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(bool force_scalar) {
    SetForceScalarKernels(force_scalar);
  }
  ~ScopedKernelMode() { SetForceScalarKernels(false); }
};

void BM_AnyDominates_Baseline(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(k, n, 17);
  const std::vector<double> q(static_cast<size_t>(k), 0.0);
  const Subspace u = Subspace::FullSpace(k);
  for (auto _ : state) {
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      if (Dominates(rows.data() + i * static_cast<size_t>(k), q.data(), u)) {
        any = true;
        break;
      }
    }
    benchmark::DoNotOptimize(any);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <bool kForceScalar>
void BM_AnyDominates_Blocked(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const BlockedProjection proj = ToBlocked(RandomRows(k, n, 17), k);
  const std::vector<double> q(static_cast<size_t>(k), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnyDominates(proj, q.data(), false));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_AnyDominates_Scalar(benchmark::State& state) {
  BM_AnyDominates_Blocked<true>(state);
}

void BM_AnyDominates_Dispatch(benchmark::State& state) {
  BM_AnyDominates_Blocked<false>(state);
}

void BM_DominatedMask_Baseline(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(k, n, 23);
  const std::vector<double> p(static_cast<size_t>(k), 0.0);
  const Subspace u = Subspace::FullSpace(k);
  std::vector<uint8_t> flags(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      flags[i] = Dominates(p.data(), rows.data() + i * static_cast<size_t>(k),
                           u)
                     ? 1
                     : 0;
    }
    benchmark::DoNotOptimize(flags.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <bool kForceScalar>
void BM_DominatedMask_Blocked(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const BlockedProjection proj = ToBlocked(RandomRows(k, n, 23), k);
  const std::vector<double> p(static_cast<size_t>(k), 0.0);
  std::vector<uint8_t> masks(proj.num_blocks());
  for (auto _ : state) {
    DominatedMask(proj, p.data(), false, masks.data());
    benchmark::DoNotOptimize(masks.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_DominatedMask_Scalar(benchmark::State& state) {
  BM_DominatedMask_Blocked<true>(state);
}

void BM_DominatedMask_Dispatch(benchmark::State& state) {
  BM_DominatedMask_Blocked<false>(state);
}

void BM_MinCoord_Baseline(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(dims, n, 29);
  std::vector<double> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = MinCoord(rows.data() + i * static_cast<size_t>(dims), dims);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

template <bool kForceScalar>
void BM_MinCoord_Blocked(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int dims = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const std::vector<double> rows = RandomRows(dims, n, 29);
  std::vector<double> out(n);
  for (auto _ : state) {
    BatchMinCoord(rows.data(), n, dims, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_MinCoord_Scalar(benchmark::State& state) {
  BM_MinCoord_Blocked<true>(state);
}

void BM_MinCoord_Dispatch(benchmark::State& state) {
  BM_MinCoord_Blocked<false>(state);
}

// Rows near the plane sum(x) = k/2: a uniform point of that simplex plus
// a uniform jitter per coordinate. The jitter doubles with each dimension,
// which keeps the share of queries a window of 256 such rows dominates
// mixed (a quarter to a half) at k = 3, 4 and 8.
std::vector<double> AnticorrelatedRows(int k, size_t n, uint64_t seed) {
  Rng rng(seed);
  const double jitter = 0.3 * std::ldexp(1.0, k - 3);
  std::vector<double> rows(n * static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    double* row = rows.data() + i * static_cast<size_t>(k);
    double sum = 0.0;
    for (int d = 0; d < k; ++d) {
      row[d] = -std::log(1.0 - rng.Uniform());
      sum += row[d];
    }
    for (int d = 0; d < k; ++d) {
      row[d] = 0.5 * k * row[d] / sum + jitter * rng.Uniform();
    }
  }
  return rows;
}

constexpr size_t kMixedQueries = 512;

template <bool kForceScalar>
void BM_FirstDominator_Mixed(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const BlockedProjection proj = ToBlocked(AnticorrelatedRows(k, n, 31), k);
  const std::vector<double> queries = AnticorrelatedRows(k, kMixedQueries, 37);
  size_t dominated = 0;
  for (size_t i = 0; i < kMixedQueries; ++i) {
    dominated += AnyDominates(proj, queries.data() + i * k, false) ? 1 : 0;
  }
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FirstDominator(proj, queries.data() + qi * k, false));
    qi = qi + 1 == kMixedQueries ? 0 : qi + 1;
  }
  state.counters["dominated"] =
      static_cast<double>(dominated) / static_cast<double>(kMixedQueries);
  state.SetItemsProcessed(state.iterations());
}

void BM_FirstDominator_Mixed_Scalar(benchmark::State& state) {
  BM_FirstDominator_Mixed<true>(state);
}

void BM_FirstDominator_Mixed_Dispatch(benchmark::State& state) {
  BM_FirstDominator_Mixed<false>(state);
}

template <bool kForceScalar>
void BM_DominatedMask_Mixed(benchmark::State& state) {
  ScopedKernelMode mode(kForceScalar);
  const int k = static_cast<int>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const BlockedProjection proj = ToBlocked(AnticorrelatedRows(k, n, 41), k);
  const std::vector<double> queries = AnticorrelatedRows(k, kMixedQueries, 43);
  std::vector<uint8_t> masks(proj.num_blocks());
  size_t qi = 0;
  for (auto _ : state) {
    DominatedMask(proj, queries.data() + qi * k, false, masks.data());
    benchmark::DoNotOptimize(masks.data());
    qi = qi + 1 == kMixedQueries ? 0 : qi + 1;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_DominatedMask_Mixed_Scalar(benchmark::State& state) {
  BM_DominatedMask_Mixed<true>(state);
}

void BM_DominatedMask_Mixed_Dispatch(benchmark::State& state) {
  BM_DominatedMask_Mixed<false>(state);
}

void MixedGrid(benchmark::internal::Benchmark* b) {
  for (int k : {3, 4, 8}) {
    for (int window : {64, 256, 1024}) {
      b->Args({k, window});
    }
  }
}

void KernelGrid(benchmark::internal::Benchmark* b) {
  for (int k : {1, 2, 3, 5, 8}) {
    for (int window : {64, 256, 1024, 4096}) {
      b->Args({k, window});
    }
  }
}

BENCHMARK(BM_AnyDominates_Baseline)->Apply(KernelGrid);
BENCHMARK(BM_AnyDominates_Scalar)->Apply(KernelGrid);
BENCHMARK(BM_AnyDominates_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_DominatedMask_Baseline)->Apply(KernelGrid);
BENCHMARK(BM_DominatedMask_Scalar)->Apply(KernelGrid);
BENCHMARK(BM_DominatedMask_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_MinCoord_Baseline)->Apply(KernelGrid);
BENCHMARK(BM_MinCoord_Scalar)->Apply(KernelGrid);
BENCHMARK(BM_MinCoord_Dispatch)->Apply(KernelGrid);
BENCHMARK(BM_FirstDominator_Mixed_Scalar)->Apply(MixedGrid);
BENCHMARK(BM_FirstDominator_Mixed_Dispatch)->Apply(MixedGrid);
BENCHMARK(BM_DominatedMask_Mixed_Scalar)->Apply(MixedGrid);
BENCHMARK(BM_DominatedMask_Mixed_Dispatch)->Apply(MixedGrid);

}  // namespace
}  // namespace skypeer

BENCHMARK_MAIN();
