#include "skypeer/engine/experiment.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "skypeer/common/macros.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"

namespace skypeer {

std::vector<QueryTask> GenerateWorkload(int dims, int query_dims,
                                        int num_queries, int num_super_peers,
                                        uint64_t seed) {
  SKYPEER_CHECK(query_dims >= 1 && query_dims <= dims);
  SKYPEER_CHECK(num_super_peers >= 1);
  Rng rng(seed);
  std::vector<int> all_dims(dims);
  std::iota(all_dims.begin(), all_dims.end(), 0);

  std::vector<QueryTask> tasks;
  tasks.reserve(num_queries);
  for (int q = 0; q < num_queries; ++q) {
    std::shuffle(all_dims.begin(), all_dims.end(), rng.engine());
    QueryTask task;
    task.subspace = Subspace::FromDims(
        std::vector<int>(all_dims.begin(), all_dims.begin() + query_dims));
    task.initiator_sp = static_cast<int>(rng.UniformInt(0, num_super_peers - 1));
    tasks.push_back(task);
  }
  return tasks;
}

namespace {

// Snapshot the buffer pool's physical counters into the aggregate at
// workload end. These are observability only — in parallel workloads
// their values depend on thread interleaving.
void SnapshotPhysicalCounters(const SkypeerNetwork& network,
                              AggregateMetrics* aggregate) {
  if (const BufferManager* buffer = network.buffer_manager()) {
    const BufferManager::Stats stats = buffer->stats();
    aggregate->buffer_hits = stats.hits;
    aggregate->buffer_misses = stats.misses;
    aggregate->buffer_evictions = stats.evictions;
    aggregate->buffer_prefetches = stats.prefetches_issued;
  }
}

}  // namespace

AggregateMetrics RunWorkload(SkypeerNetwork* network,
                             const std::vector<QueryTask>& tasks,
                             Variant variant) {
  AggregateMetrics aggregate;
  ThreadPool* pool = network->pool();
  const size_t workers =
      std::min<size_t>(static_cast<size_t>(pool->num_threads()), tasks.size());
  if (workers <= 1 || !network->SupportsParallelWorkloads()) {
    for (const QueryTask& task : tasks) {
      const QueryResult result =
          network->ExecuteQuery(task.subspace, task.initiator_sp, variant);
      aggregate.Add(result.metrics);
    }
    SnapshotPhysicalCounters(*network, &aggregate);
    return aggregate;
  }

  // Queries of a workload are independent (read-only stores), so each
  // worker executes a round-robin slice of the tasks against its own store replica.
  // Metrics are aggregated in task order afterwards, making the result
  // identical to the sequential loop.
  std::vector<std::unique_ptr<SkypeerNetwork>> replicas;
  replicas.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    replicas.push_back(network->CloneForQueries());
  }
  std::vector<QueryMetrics> per_task(tasks.size());
  pool->ParallelFor(workers, [&](size_t w) {
    SkypeerNetwork* net = w == 0 ? network : replicas[w - 1].get();
    for (size_t t = w; t < tasks.size(); t += workers) {
      per_task[t] =
          net->ExecuteQuery(tasks[t].subspace, tasks[t].initiator_sp, variant)
              .metrics;
    }
  });
  for (const QueryMetrics& metrics : per_task) {
    aggregate.Add(metrics);
  }
  // Parent counters only: replicas hold private buffer pools.
  SnapshotPhysicalCounters(*network, &aggregate);
  return aggregate;
}

}  // namespace skypeer
