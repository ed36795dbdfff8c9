// Ablation: the R-tree dominance index of Algorithm 1 (§5.2.1) versus a
// linear scan over the running skyline window. The R-tree pays off once
// the running skyline is large (high k / large stores); linear wins for
// small windows.

#include <chrono>

#include "bench/bench_util.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int repeats = options.QueriesOr(5, 20);

  std::printf(
      "== Ablation: Algorithm 1 dominance test, R-tree vs linear scan ==\n");
  Table table({"n", "k", "skyline", "rtree (ms)", "linear (ms)", "speedup"});
  Rng rng(options.seed);
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    PointSet data = GenerateUniform(8, n, &rng);
    ResultList sorted = BuildSortedByF(data);
    for (int k : {2, 4, 6}) {
      std::vector<int> dims(k);
      for (int i = 0; i < k; ++i) {
        dims[i] = i;
      }
      const Subspace u = Subspace::FromDims(dims);
      double elapsed[2] = {0.0, 0.0};
      size_t skyline_size = 0;
      for (int variant = 0; variant < 2; ++variant) {
        ThresholdScanOptions scan;
        scan.use_rtree = variant == 0;
        const auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < repeats; ++r) {
          ResultList result = SortedSkyline(sorted, u, scan);
          skyline_size = result.size();
        }
        elapsed[variant] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count() /
            repeats;
      }
      table.AddRow({std::to_string(n), std::to_string(k),
                    std::to_string(skyline_size), FmtMs(elapsed[0]),
                    FmtMs(elapsed[1]),
                    Fmt(elapsed[1] / elapsed[0], 2) + "x"});
    }
  }
  table.Print();
  return 0;
}
