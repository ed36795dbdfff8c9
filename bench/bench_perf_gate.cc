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

  // Filter axis: the same matrix with a 16-point broadcast filter set, so
  // drift in the sampled-filter path (selection, seeding, volume
  // accounting) trips the gate too. Skylines are identical to the run
  // above; volume and op counts legitimately differ.
  std::printf("\n== CI perf gate: filtered (--filter-set 16) ==\n");
  BenchOptions filtered = options;
  if (filtered.filter_set == 0) {
    filtered.filter_set = 16;
  }
  SkypeerNetwork filtered_network = BuildNetwork(config, filtered);
  RecordPreprocess("filtered", filtered_network.Preprocess());
  Table filtered_table({"variant", "comp_ms", "total_ms", "kb", "msgs",
                        "dominance", "scan_steps", "merge_pulls"});
  for (Variant variant : kGateVariants) {
    const AggregateMetrics agg = RunVariant(&filtered_network, /*k=*/3,
                                            queries, options.seed + 17,
                                            variant);
    filtered_table.AddRow({VariantName(variant), FmtMs(agg.avg_comp_s()),
                           FmtMs(agg.avg_total_s()), Fmt(agg.avg_kb()),
                           Fmt(agg.avg_messages(), 1),
                           std::to_string(agg.total_ops.dominance_tests),
                           std::to_string(agg.total_ops.scan_steps),
                           std::to_string(agg.total_ops.merge_pulls)});
  }
  filtered_table.Print();
  return 0;
}
