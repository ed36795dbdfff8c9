// CI performance gate: a small fixed-seed bench matrix over all six
// variants. Under `--cost-model calibrated` (or unit) every number in the
// emitted `--json` report — op counts, simulated times, volume — is
// bit-reproducible across runs, machines and thread counts, so CI diffs
// the report byte-for-byte against the committed baseline in
// bench/baselines/ and fails on any perf-relevant drift. Each network's
// pre-processing op counts (peer extended skylines, super-peer merges)
// are part of the report, so the set-up path is gated as well.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int queries = options.QueriesOr(6, 24);

  std::printf("== CI perf gate: all variants, fixed seed ==\n");
  NetworkConfig config;
  config.num_peers = 160;
  config.num_super_peers = 8;
  config.points_per_peer = 60;
  config.dims = 6;
  config.seed = options.seed;
  SkypeerNetwork network = BuildNetwork(config, options);
  RecordPreprocess("plain", network.Preprocess());

  static const Variant kGateVariants[] = {Variant::kNaive, Variant::kFTFM,
                                          Variant::kFTPM,  Variant::kRTFM,
                                          Variant::kRTPM,  Variant::kPipeline};
  Table table({"variant", "comp_ms", "total_ms", "kb", "msgs", "dominance",
               "scan_steps", "merge_pulls"});
  for (Variant variant : kGateVariants) {
    const AggregateMetrics agg =
        RunVariant(&network, /*k=*/3, queries, options.seed + 17, variant);
    table.AddRow({VariantName(variant), FmtMs(agg.avg_comp_s()),
                  FmtMs(agg.avg_total_s()), Fmt(agg.avg_kb()),
                  Fmt(agg.avg_messages(), 1),
                  std::to_string(agg.total_ops.dominance_tests),
                  std::to_string(agg.total_ops.scan_steps),
                  std::to_string(agg.total_ops.merge_pulls)});
  }
  table.Print();
  return 0;
}
