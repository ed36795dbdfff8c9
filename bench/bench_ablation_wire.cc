// Ablation: the wire format. SKYPEER ships only the k queried
// coordinates plus f(p) per result point; a naive format would ship all
// d coordinates. Reports transferred volume under both models across
// data dimensionality (deterministic: CPU accounting disabled).

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int queries = options.QueriesOr(15);

  std::printf(
      "== Ablation: projected (k+1 values) vs full (d values) wire format "
      "==\n");
  Table table({"d", "FTPM proj KB", "FTPM full KB", "saving %"});
  for (int d = 5; d <= 10; ++d) {
    double kb[2] = {0.0, 0.0};
    for (int full = 0; full < 2; ++full) {
      NetworkConfig config;
      config.dims = d;
      config.num_peers = 1000;
      config.num_super_peers = 50;
      config.seed = options.seed;
      if (full == 1) {
        // Shipping all d coordinates: model it by inflating the
        // per-point cost. PointBytes(k) = (k+1)*coord + id; to charge
        // (d+1)*coord + id for a k-query we scale coord_bytes.
        // Simpler: run the k=3 workload but set coord_bytes so that
        // (k+1)*coord' = (d+1)*coord.
        config.wire.coord_bytes =
            static_cast<size_t>(8.0 * (d + 1) / (3 + 1));
      }
      SkypeerNetwork network = BuildNetwork(config, options);
      network.Preprocess();
      const AggregateMetrics agg = RunVariant(&network, /*k=*/3, queries,
                                              options.seed + d,
                                              Variant::kFTPM);
      kb[full] = agg.avg_kb();
    }
    table.AddRow({std::to_string(d), Fmt(kb[0], 1), Fmt(kb[1], 1),
                  Fmt(100.0 * (1.0 - kb[0] / kb[1]), 1)});
  }
  table.Print();
  return 0;
}
