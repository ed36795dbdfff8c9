#ifndef SKYPEER_ENGINE_ZIPF_WORKLOAD_H_
#define SKYPEER_ENGINE_ZIPF_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "skypeer/engine/experiment.h"

namespace skypeer {

/// Configuration of a skewed query workload. The paper's workload picks
/// every k-subset of dimensions with uniform probability; real users are
/// not uniform — a few criteria combinations (price+distance, ...) carry
/// most of the load. Zipf-ranked subspace popularity models that.
struct ZipfWorkloadConfig {
  int query_dims = 3;
  int num_queries = 100;
  /// Zipf exponent; 0 degenerates to the uniform workload, larger values
  /// concentrate queries on fewer subspaces.
  double exponent = 1.0;
  uint64_t seed = 1;
};

/// Generates `num_queries` tasks whose subspaces are drawn from all
/// C(dims, query_dims) candidates with Zipf(exponent) popularity over a
/// seed-shuffled rank order; initiators are uniform. Deterministic in the
/// seed.
std::vector<QueryTask> GenerateZipfWorkload(int dims,
                                            const ZipfWorkloadConfig& config,
                                            int num_super_peers);

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_ZIPF_WORKLOAD_H_
