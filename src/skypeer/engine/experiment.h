#ifndef SKYPEER_ENGINE_EXPERIMENT_H_
#define SKYPEER_ENGINE_EXPERIMENT_H_

#include <cstdint>
#include <vector>

#include "skypeer/common/subspace.h"
#include "skypeer/engine/metrics.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/query.h"

namespace skypeer {

/// One query of a workload: a subspace plus a randomly selected initiator
/// super-peer.
struct QueryTask {
  Subspace subspace;
  int initiator_sp = 0;
};

/// Generates the paper's query workload (§6): `num_queries` subspaces of
/// exactly `query_dims` dimensions, each dimension subset equally likely,
/// each query issued from a uniformly random initiator super-peer.
/// Deterministic in `seed`.
std::vector<QueryTask> GenerateWorkload(int dims, int query_dims,
                                        int num_queries, int num_super_peers,
                                        uint64_t seed);

/// Runs every task of the workload under `variant` and averages the
/// metrics. The same task vector can be replayed across variants for a
/// paired comparison.
///
/// When the global thread pool (common/thread_pool.h) has more than one
/// thread and the network's queries are order-independent (no churn
/// plan), the tasks are distributed over store replicas and executed
/// concurrently; metrics are still aggregated in task order, so the
/// returned aggregate is identical to the sequential loop's.
AggregateMetrics RunWorkload(SkypeerNetwork* network,
                             const std::vector<QueryTask>& tasks,
                             Variant variant);

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_EXPERIMENT_H_
