// Wall-clock scaling of speculative staged execution for the
// refined-threshold variants (RTFM, RTPM) and the pipeline on the
// largest-store configuration: few super-peers, each holding a large
// anticorrelated 8-d store, so the per-query cost is dominated by the
// local threshold scans that `--speculative-rt` runs concurrently.
//
// Every cell is identity-checked: the speculative run must reproduce the
// sequential skylines and simulated metrics bit-for-bit; the table's
// last column flags any mismatch.

#include <chrono>
#include <thread>

#include "bench/bench_util.h"

namespace {

using namespace skypeer;

struct QueryOutcome {
  ResultList skyline{1};
  QueryMetrics metrics;
};

bool SameList(const ResultList& a, const ResultList& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.points.id(i) != b.points.id(i) || a.f[i] != b.f[i]) {
      return false;
    }
    for (int d = 0; d < a.points.dims(); ++d) {
      if (a.points[i][d] != b.points[i][d]) {
        return false;
      }
    }
  }
  return true;
}

bool SameMetrics(const QueryMetrics& a, const QueryMetrics& b) {
  return a.computational_time_s == b.computational_time_s &&
         a.total_time_s == b.total_time_s &&
         a.bytes_transferred == b.bytes_transferred &&
         a.messages == b.messages && a.result_size == b.result_size &&
         a.store_points_scanned == b.store_points_scanned &&
         a.local_result_points == b.local_result_points;
}

/// Runs every task once, capturing per-task outcomes; returns the median
/// wall time over `repeats` passes.
double MedianBatchSeconds(SkypeerNetwork* network,
                          const std::vector<QueryTask>& tasks, Variant variant,
                          int repeats, std::vector<QueryOutcome>* outcomes) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<QueryOutcome> pass;
    pass.reserve(tasks.size());
    for (const QueryTask& task : tasks) {
      QueryResult result =
          network->ExecuteQuery(task.subspace, task.initiator_sp, variant);
      pass.push_back({std::move(result.skyline), result.metrics});
    }
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    *outcomes = std::move(pass);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int repeats = options.QueriesOr(3, 7);
  constexpr int kQueryDims = 5;

  NetworkConfig config;
  config.num_peers = options.full ? 400 : 240;
  config.num_super_peers = 8;
  config.points_per_peer = options.full ? 2500 : 1200;
  config.dims = 8;
  config.distribution = Distribution::kAnticorrelated;
  config.seed = options.seed;
  // At 1 thread the speculative wave is skipped, so the same network
  // serves as its own sequential baseline.
  config.speculative_rt = true;

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("== Speculative staged RT*M / pipeline, largest-store config ==\n");
  std::printf("# k=%d, %d queries per pass, median of %d passes\n", kQueryDims,
              4, repeats);
  std::printf("# host cores: %u — thread counts above this measure overhead "
              "only, not speedup\n", cores);
  SkypeerNetwork network = BuildNetwork(config, options);
  const PreprocessStats stats = network.Preprocess();
  std::printf("# store points per super-peer ~%zu (SEL_sp=%.1f%%)\n",
              stats.super_peer_ext_points /
                  static_cast<size_t>(network.num_super_peers()),
              stats.sel_sp() * 100);

  const auto tasks =
      GenerateWorkload(config.dims, kQueryDims, 4, network.num_super_peers(),
                       options.seed + 99);

  Table table({"variant", "threads", "seq (ms)", "spec (ms)", "speedup",
               "identical"});
  for (Variant variant :
       {Variant::kRTFM, Variant::kRTPM, Variant::kPipeline}) {
    ThreadPool::SetGlobalConcurrency(1);
    std::vector<QueryOutcome> reference;
    const double seq_s =
        MedianBatchSeconds(&network, tasks, variant, repeats, &reference);

    for (int threads : {1, 2, 4, 8}) {
      ThreadPool::SetGlobalConcurrency(threads);
      std::vector<QueryOutcome> outcomes;
      const double spec_s =
          MedianBatchSeconds(&network, tasks, variant, repeats, &outcomes);
      bool identical = outcomes.size() == reference.size();
      for (size_t t = 0; identical && t < reference.size(); ++t) {
        identical = SameList(outcomes[t].skyline, reference[t].skyline) &&
                    SameMetrics(outcomes[t].metrics, reference[t].metrics);
      }
      table.AddRow({VariantName(variant), std::to_string(threads),
                    FmtMs(seq_s), FmtMs(spec_s), Fmt(seq_s / spec_s, 2) + "x",
                    identical ? "yes" : "NO"});
    }
  }
  ThreadPool::SetGlobalConcurrency(1);
  table.Print();
  return 0;
}
