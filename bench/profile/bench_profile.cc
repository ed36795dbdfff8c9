// bench_profile: host wall-clock profile of the SKYPEER library.
//
// One client drives one network in a closed loop: a synchronous
// `ExecuteQuery` at a time, on the workload with writes each preceded by
// one membership write (`ApplyChurnEvent`). The untraced run (--trace 0)
// reports end-to-end metrics; the traced run (--trace 1) additionally
// replays every query's scan and merge layers through their public
// functions, records spans around each call, and reports per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See README.md for the workloads and every metric's definition.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/parse.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/subspace.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/metrics.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/zipf_workload.h"
#include "skypeer/sim/churn_plan.h"
#include "spans.h"

namespace skypeer::bench {
namespace {

struct Workload {
  const char* name;
  const char* why;
  int peers;
  int super_peers;
  int dims;
  Distribution distribution;
  BackboneTopology topology = BackboneTopology::kWaxman;
  /// The network's private pool size; only anti_deep runs two threads.
  int threads = 1;
  int query_dims;
  /// Zipf(1.0) subspace popularity instead of cycling through all of them.
  bool zipf_subspaces = false;
  /// Consecutive queries sharing one subspace and initiator; 6 runs every
  /// variant on it.
  int queries_per_subspace = 1;
  /// Buffer-pool frames; 0 keeps the stores resident.
  size_t buffer_pages = 0;
  /// Message loss; > 0 runs the reliable transport.
  double drop_prob = 0.0;
  /// One membership write precedes every query; false: read-only.
  bool writes = false;
};

// Every workload has 250 points per peer.
constexpr Workload kWorkloads[] = {
    {.name = "paper_uniform",
     .why = "paper Sec. 6 shape: 100 super-peers, short scans, protocol and "
            "simulator dominate the query",
     .peers = 2000,
     .super_peers = 100,
     .dims = 8,
     .distribution = Distribution::kUniform,
     .query_dims = 3,
     .queries_per_subspace = 6},
    // A 16-node HyperCuP cube: the same backbone for every seed, so the
    // run-to-run spread comes from the data rather than the edge count.
    // 20K points keep the stores within a core's L2 cache; at 40K the
    // query latency followed the load of other tenants on the shared L3.
    {.name = "anti_deep",
     .why = "anti-correlated d=6, SEL_sp near 1: long Algorithm 1 scans and "
            "big merges, 2 threads",
     .peers = 80,
     .super_peers = 16,
     .dims = 6,
     .distribution = Distribution::kAnticorrelated,
     .topology = BackboneTopology::kHypercube,
     .threads = 2,
     .query_dims = 4,
     .queries_per_subspace = 6},
    {.name = "paged_churn",
     .why = "stores 27x a 64-page buffer pool, Zipf subspaces, one "
            "membership write per query",
     .peers = 1000,
     .super_peers = 50,
     .dims = 8,
     .distribution = Distribution::kUniform,
     .query_dims = 3,
     .zipf_subspaces = true,
     .buffer_pages = 64,
     .writes = true},
    {.name = "lossy_wide",
     .why = "d=12 with 10% message loss over the reliable transport; no "
            "repeated subspaces",
     .peers = 600,
     .super_peers = 30,
     .dims = 12,
     .distribution = Distribution::kUniform,
     .query_dims = 4,
     .drop_prob = 0.1},
};

constexpr Variant kRotation[] = {Variant::kNaive, Variant::kFTFM,
                                 Variant::kFTPM,  Variant::kRTFM,
                                 Variant::kRTPM,  Variant::kPipeline};
constexpr int kNumVariants = 6;
/// Set-up builds the network at least kSetupBuilds times and until
/// kSetupSeconds have been timed, so a workload whose build is short still
/// reports a median over enough builds to be steady.
constexpr int kSetupBuilds = 3;
constexpr double kSetupSeconds = 2.0;
/// Length of the pre-generated query and churn streams; a run cycles
/// through them if it outlasts them.
constexpr int kStreamLength = 4096;
/// Op-count and simulated metrics average over this fixed prefix of the
/// timed operations, so they repeat bit for bit for a seed however many
/// operations the time budget admits. Every run completes the prefix.
constexpr int64_t kDeterministicQueries = 60;
/// Coprime with kNumVariants, so the periodic checks cycle through every
/// variant.
constexpr int64_t kCheckEvery = 7;
constexpr int kSmokeDivisor = 20;

// Seed streams, offset from --seed.
constexpr uint64_t kQuerySeedOffset = 17;
constexpr uint64_t kChurnSeedOffset = 29;
constexpr uint64_t kWarmupSeedOffset = 43;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool traced = false;
  bool smoke = false;
  std::string trace_dir = ".";
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

BufferManager::Stats PoolStats(const SkypeerNetwork& net) {
  return net.buffer_manager() != nullptr ? net.buffer_manager()->stats()
                                         : BufferManager::Stats{};
}

NetworkConfig MakeConfig(const Workload& w, const Options& opt) {
  NetworkConfig config;
  config.num_peers = w.peers;
  config.num_super_peers = w.super_peers;
  config.buffer_pages = w.buffer_pages;
  if (opt.smoke) {
    config.num_peers = w.peers / kSmokeDivisor;
    config.num_super_peers = std::max(4, w.super_peers / kSmokeDivisor);
    config.buffer_pages = w.buffer_pages == 0 ? 0 : 4;
  }
  config.points_per_peer = 250;
  config.dims = w.dims;
  config.distribution = w.distribution;
  config.topology = w.topology;
  config.seed = opt.seed;
  config.cost_model = CostModel::Calibrated();
  config.threads = w.threads;
  config.dynamic_membership = w.writes;
  config.reliable = w.drop_prob > 0.0;
  config.drop_prob = w.drop_prob;
  return config;
}

/// The timed query stream. Blocks of `queries_per_subspace` queries share a
/// subspace and an initiator; block subspaces cycle through a seed-shuffled
/// list of every k-subset (or follow Zipf(1.0) popularity), so runs with
/// different seeds see the same subspace mix.
std::vector<QueryTask> QueryStream(const Workload& w, int num_super_peers,
                                   uint64_t seed) {
  const int blocks = kStreamLength / w.queries_per_subspace;
  std::vector<QueryTask> draws;
  if (w.zipf_subspaces) {
    ZipfWorkloadConfig zipf;
    zipf.query_dims = w.query_dims;
    zipf.num_queries = blocks;
    zipf.exponent = 1.0;
    zipf.seed = seed;
    draws = GenerateZipfWorkload(w.dims, zipf, num_super_peers);
  } else {
    std::vector<Subspace> subspaces = SubspacesOfSize(w.dims, w.query_dims);
    Rng rng(seed);
    std::shuffle(subspaces.begin(), subspaces.end(), rng.engine());
    for (int b = 0; b < blocks; ++b) {
      draws.push_back(
          {subspaces[b % subspaces.size()],
           static_cast<int>(rng.UniformInt(0, num_super_peers - 1))});
    }
  }
  std::vector<QueryTask> tasks;
  for (const QueryTask& draw : draws) {
    tasks.insert(tasks.end(), w.queries_per_subspace, draw);
  }
  return tasks;
}

/// Membership writes cycling join, remove, replace at seeded super-peers.
constexpr sim::ChurnKind kWriteKinds[] = {
    sim::ChurnKind::kJoin, sim::ChurnKind::kRemove, sim::ChurnKind::kReplace};

std::vector<sim::ChurnEvent> WriteStream(int num_super_peers, uint64_t seed) {
  Rng rng(seed);
  std::vector<sim::ChurnEvent> events(kStreamLength);
  for (int i = 0; i < kStreamLength; ++i) {
    events[i].slot = i;
    events[i].kind = kWriteKinds[i % 3];
    events[i].node = static_cast<int>(rng.UniformInt(0, num_super_peers - 1));
    events[i].seed = rng.Fork();
  }
  return events;
}

/// Sums of per-operation quantities over the deterministic prefix.
struct Totals {
  int64_t queries = 0;
  int64_t writes = 0;
  OpCounts query_ops;
  double messages = 0, retransmits = 0, dropped = 0;
  double total_s = 0, comp_s = 0, bytes = 0;
  double result_points = 0, local_points = 0;
  int64_t repeated_subspaces = 0;
  OpCounts write_ops;
  double write_pages = 0;
  int64_t writes_skipped = 0;
  // Replay of the scan and merge layers (traced run only).
  OpCounts scan_ops;
  double scan_points = 0, scan_results = 0, store_points = 0;
  OpCounts merge_ops;
};

/// Wall time of the replayed layers, summed over all timed queries.
struct ReplayWall {
  Clock::duration scan{0};
  Clock::duration merge{0};
  uint64_t scan_steps = 0;
  uint64_t merge_pulls = 0;
};

/// One pass of a query's layers through public functions on the live
/// stores: Algorithm 1 at the initiator (unconstrained), then at every
/// other super-peer under the initiator's final threshold, then
/// Algorithm 2 over all local results. The engine simulates each query
/// twice, so this pass is roughly half of the in-query scan and merge
/// work.
void Replay(const SkypeerNetwork& net, const QueryTask& task, int64_t query,
            SpanRecorder* spans, ReplayWall* wall, Totals* det) {
  const int n = net.num_super_peers();
  std::vector<ResultList> locals;
  locals.reserve(n);
  double threshold = std::numeric_limits<double>::infinity();
  for (int k = 0; k < n; ++k) {
    const SuperPeer& sp = net.super_peer((task.initiator_sp + k) % n);
    const StoreView view = sp.View();
    ThresholdScanOptions options;
    options.initial_threshold = threshold;
    ThresholdScanStats stats;
    const auto start = Clock::now();
    locals.push_back(SortedSkyline(view, task.subspace, options, &stats));
    const auto end = Clock::now();
    spans->Add("replay.scan", start, end, query);
    if (k == 0) {
      threshold = stats.final_threshold;
    }
    wall->scan += end - start;
    wall->scan_steps += stats.ops.scan_steps;
    if (det != nullptr) {
      det->scan_ops += stats.ops;
      det->scan_points += static_cast<double>(stats.scanned);
      det->scan_results += static_cast<double>(locals.back().size());
      det->store_points += static_cast<double>(view.size());
    }
  }
  ThresholdScanOptions options;
  options.initial_threshold = threshold;
  ThresholdScanStats stats;
  const auto start = Clock::now();
  const ResultList merged =
      MergeSortedSkylines(net.dims(), locals, task.subspace, options, &stats);
  const auto end = Clock::now();
  spans->Add("replay.merge", start, end, query);
  wall->merge += end - start;
  wall->merge_pulls += stats.ops.merge_pulls;
  if (det != nullptr) {
    det->merge_ops += stats.ops;
  }
}

/// The oracle: BNL over the union of the stores the answer covers (every
/// super-peer unless the reliable transport reports coverage) must yield
/// exactly the answer's id set. The union's skyline is taken as the skyline
/// of the per-store skylines, so only one store is materialized at a time
/// and the check barely moves the process's peak memory.
bool AnswerMatchesOracle(const SkypeerNetwork& net, Subspace subspace,
                         const QueryResult& result) {
  std::vector<int> covered = result.metrics.covered;
  if (!net.config().reliable) {
    covered.clear();
    for (int sp = 0; sp < net.num_super_peers(); ++sp) {
      covered.push_back(sp);
    }
  }
  PointSet candidates(net.dims());
  for (int sp : covered) {
    candidates.AppendAll(
        BnlSkyline(net.super_peer(sp).MaterializeStore().points, subspace));
  }
  const PointSet expected = BnlSkyline(candidates, subspace);
  std::vector<PointId> want(expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    want[i] = expected.id(i);
  }
  std::vector<PointId> got(result.skyline.size());
  for (size_t i = 0; i < result.skyline.size(); ++i) {
    got[i] = result.skyline.points.id(i);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  return want == got;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(const Options& opt) {
  const Workload& w = *opt.workload;
  const NetworkConfig config = MakeConfig(w, opt);
  const Status valid = SkypeerNetwork::Validate(config);
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  SpanRecorder spans(opt.traced, "workload");

  // --- setup: fresh builds, the last one serves the queries ---------------
  MetricSeries setup_s, build_s, preprocess_s;
  std::unique_ptr<SkypeerNetwork> net;
  PreprocessStats pre;
  const double min_setup_s = opt.smoke ? 0.0 : kSetupSeconds;
  while (setup_s.count() < kSetupBuilds || setup_s.sum() < min_setup_s) {
    net.reset();
    const auto t0 = Clock::now();
    net = std::make_unique<SkypeerNetwork>(config);
    const auto t1 = Clock::now();
    pre = net->Preprocess();
    const auto t2 = Clock::now();
    spans.Add("setup.build", t0, t1);
    spans.Add("setup.preprocess", t1, t2);
    build_s.Add(Ms(t1 - t0) / 1e3);
    preprocess_s.Add(Ms(t2 - t1) / 1e3);
    setup_s.Add(Ms(t2 - t0) / 1e3);
  }
  const int nsp = net->num_super_peers();
  double store_points = 0;
  for (int sp = 0; sp < nsp; ++sp) {
    store_points += static_cast<double>(net->super_peer(sp).StoreSize());
  }
  const BufferManager::Stats pool_after_setup = PoolStats(*net);

  // --- inputs -------------------------------------------------------------
  const std::vector<QueryTask> tasks =
      QueryStream(w, nsp, opt.seed + kQuerySeedOffset);
  const std::vector<sim::ChurnEvent> churn =
      WriteStream(nsp, opt.seed + kChurnSeedOffset);
  const std::vector<QueryTask> warmup = GenerateWorkload(
      w.dims, w.query_dims, kNumVariants, nsp, opt.seed + kWarmupSeedOffset);
  for (int v = 0; v < kNumVariants; ++v) {
    net->ExecuteQuery(warmup[v].subspace, warmup[v].initiator_sp, kRotation[v]);
  }

  // --- timed closed loop ----------------------------------------------------
  MetricSeries query_ms, write_ms;
  MetricSeries variant_ms[kNumVariants];
  MetricSeries write_kind_ms[3];
  Totals det;
  int64_t queries = 0, writes = 0;
  ReplayWall replay;
  Clock::duration query_wall{0};
  BufferManager::Stats pool_queries{};
  int64_t failed = 0, checked = 0, mismatches = 0;
  Clock::duration verify_wall{0};
  std::set<uint32_t> seen_subspaces;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (int64_t i = 0; i < kDeterministicQueries || Clock::now() < deadline;
       ++i) {
    Totals* prefix = i < kDeterministicQueries ? &det : nullptr;
    if (w.writes) {
      const sim::ChurnEvent& event = churn[writes % churn.size()];
      const uint64_t skipped = net->churn_stats().skipped;
      const BufferManager::Stats pool0 = PoolStats(*net);
      OpCounts ops;
      const auto start = Clock::now();
      const Status status = net->ApplyChurnEvent(event, &ops);
      const auto end = Clock::now();
      const BufferManager::Stats pool1 = PoolStats(*net);
      spans.Add("write", start, end);
      write_ms.Add(Ms(end - start));
      write_kind_ms[static_cast<int>(event.kind)].Add(Ms(end - start));
      ++writes;
      if (!status.ok()) {
        ++failed;
        std::fprintf(stderr, "write %lld failed: %s\n",
                     static_cast<long long>(writes),
                     status.ToString().c_str());
      }
      if (prefix != nullptr) {
        ++prefix->writes;
        prefix->write_ops += ops;
        prefix->write_pages +=
            static_cast<double>(pool1.pages_written - pool0.pages_written);
        prefix->writes_skipped +=
            static_cast<int64_t>(net->churn_stats().skipped - skipped);
      }
    }

    const QueryTask& task = tasks[i % tasks.size()];
    const Variant variant = kRotation[i % kNumVariants];
    const BufferManager::Stats pool0 = PoolStats(*net);
    const auto start = Clock::now();
    const QueryResult result =
        net->ExecuteQuery(task.subspace, task.initiator_sp, variant);
    const auto end = Clock::now();
    const BufferManager::Stats pool1 = PoolStats(*net);
    spans.Add("query", start, end, i);
    query_wall += end - start;
    query_ms.Add(Ms(end - start));
    variant_ms[i % kNumVariants].Add(Ms(end - start));
    pool_queries.hits += pool1.hits - pool0.hits;
    pool_queries.misses += pool1.misses - pool0.misses;
    pool_queries.evictions += pool1.evictions - pool0.evictions;
    pool_queries.prefetch_hits += pool1.prefetch_hits - pool0.prefetch_hits;
    ++queries;
    if (result.metrics.partial) {
      ++failed;
    }
    if (prefix != nullptr) {
      const QueryMetrics& m = result.metrics;
      ++prefix->queries;
      prefix->query_ops += m.ops;
      prefix->messages += static_cast<double>(m.messages);
      prefix->retransmits += static_cast<double>(m.retransmits);
      prefix->dropped += static_cast<double>(m.messages_dropped);
      prefix->total_s += m.total_time_s;
      prefix->comp_s += m.computational_time_s;
      prefix->bytes += static_cast<double>(m.bytes_transferred);
      prefix->result_points += static_cast<double>(m.result_size);
      prefix->local_points += static_cast<double>(m.local_result_points);
      if (!seen_subspaces.insert(task.subspace.mask()).second) {
        ++prefix->repeated_subspaces;
      }
    }

    if (opt.traced) {
      Replay(*net, task, i, &spans, &replay, prefix);
    }
    if (opt.smoke || i < kNumVariants || i % kCheckEvery == 0) {
      const auto v0 = Clock::now();
      const bool ok = AnswerMatchesOracle(*net, task.subspace, result);
      const auto v1 = Clock::now();
      spans.Add("verify", v0, v1, i);
      verify_wall += v1 - v0;
      ++checked;
      if (!ok) {
        ++mismatches;
        ++failed;
        std::fprintf(stderr, "query %lld (%s, %s) disagrees with the oracle\n",
                     static_cast<long long>(i), VariantName(variant),
                     task.subspace.ToString().c_str());
      }
    }
  }
  spans.CloseRoot();

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  const double n = static_cast<double>(det.queries);
  const double nw = static_cast<double>(det.writes);
  const double nq = static_cast<double>(queries);
  std::vector<Metric> metrics;
  if (!opt.traced) {
    metrics = {
        {"setup_s", setup_s.Percentile(50), "s"},
        {"query_p50_ms", query_ms.Percentile(50), "ms"},
        {"query_p90_ms", query_ms.Percentile(90), "ms"},
        {"queries_per_s", nq / (Ms(query_wall) / 1e3), "1/s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  } else {
    const double pool_pins =
        static_cast<double>(pool_queries.hits + pool_queries.misses);
    const double store_pages =
        static_cast<double>(pool_after_setup.pages_written);
    metrics = {
        {"setup.build_s", build_s.Percentile(50), "s"},
        {"setup.preprocess_s", preprocess_s.Percentile(50), "s"},
        {"setup.peer_ext.dominance_tests",
         static_cast<double>(pre.peer_ops.dominance_tests), "count"},
        {"setup.peer_ext.rtree_node_visits",
         static_cast<double>(pre.peer_ops.rtree_node_visits), "count"},
        {"setup.sp_merge.merge_pulls",
         static_cast<double>(pre.super_peer_ops.merge_pulls), "count"},
        {"setup.sp_merge.rtree_node_visits",
         static_cast<double>(pre.super_peer_ops.rtree_node_visits), "count"},
        {"setup.sel_sp", pre.sel_sp(), "ratio"},
    };
    for (int v = 0; v < kNumVariants; ++v) {
      metrics.push_back({std::string("engine.") + VariantName(kRotation[v]) +
                             ".p50_ms",
                         variant_ms[v].Percentile(50), "ms"});
    }
    const std::vector<Metric> rest = {
        {"engine.query.p50_ms", query_ms.Percentile(50), "ms"},
        {"engine.unreplayed_ms_per_query",
         Ratio(Ms(query_wall - replay.scan - replay.merge), nq), "ms"},
        {"engine.ops.dominance_tests_per_query",
         Ratio(det.query_ops.dominance_tests, n), "count"},
        {"engine.ops.scan_steps_per_query",
         Ratio(det.query_ops.scan_steps, n), "count"},
        {"engine.ops.merge_pulls_per_query",
         Ratio(det.query_ops.merge_pulls, n), "count"},
        {"engine.merge.yield", Ratio(det.result_points, det.local_points),
         "ratio"},
        {"sim.messages_per_query", Ratio(det.messages, n), "count"},
        {"sim.retransmits_per_query", Ratio(det.retransmits, n), "count"},
        {"sim.dropped_per_query", Ratio(det.dropped, n), "count"},
        {"sim.total_ms_per_query", Ratio(det.total_s * 1e3, n), "sim_ms"},
        {"sim.comp_ms_per_query", Ratio(det.comp_s * 1e3, n), "sim_ms"},
        {"sim.volume_kb_per_query", Ratio(det.bytes / 1024.0, n), "KiB"},
        {"algo.scan.ms_per_query", Ratio(Ms(replay.scan), nq), "ms"},
        {"algo.scan.ns_per_step",
         Ratio(Ms(replay.scan) * 1e6, static_cast<double>(replay.scan_steps)),
         "ns"},
        {"algo.scan.steps_per_query", Ratio(det.scan_ops.scan_steps, n),
         "count"},
        {"algo.scan.dominance_tests_per_query",
         Ratio(det.scan_ops.dominance_tests, n), "count"},
        {"algo.scan.rtree_node_visits_per_query",
         Ratio(det.scan_ops.rtree_node_visits, n), "count"},
        {"algo.scan.scanned_frac", Ratio(det.scan_points, det.store_points),
         "ratio"},
        {"algo.scan.yield", Ratio(det.scan_results, det.scan_points), "ratio"},
        {"storage.summary.blocks_skipped_per_query",
         Ratio(det.query_ops.blocks_skipped, n), "count"},
        {"algo.merge.ms_per_query", Ratio(Ms(replay.merge), nq), "ms"},
        {"algo.merge.ns_per_pull",
         Ratio(Ms(replay.merge) * 1e6,
               static_cast<double>(replay.merge_pulls)),
         "ns"},
        {"algo.merge.pulls_per_query", Ratio(det.merge_ops.merge_pulls, n),
         "count"},
        {"storage.page_reads_per_query", Ratio(det.query_ops.page_reads, n),
         "count"},
        {"storage.buffer.hit_rate",
         Ratio(static_cast<double>(pool_queries.hits), pool_pins), "ratio"},
        {"storage.buffer.misses_per_query",
         Ratio(static_cast<double>(pool_queries.misses), nq), "count"},
        {"storage.buffer.evictions_per_query",
         Ratio(static_cast<double>(pool_queries.evictions), nq), "count"},
        {"storage.buffer.prefetch_hit_rate",
         Ratio(static_cast<double>(pool_queries.prefetch_hits), pool_pins),
         "ratio"},
        {"storage.pages_written_per_write", Ratio(det.write_pages, nw),
         "count"},
        {"engine.write.p50_ms", write_ms.Percentile(50), "ms"},
        {"engine.write.p90_ms", write_ms.Percentile(90), "ms"},
        {"engine.write.join.p50_ms", write_kind_ms[0].Percentile(50), "ms"},
        {"engine.write.remove.p50_ms", write_kind_ms[1].Percentile(50), "ms"},
        {"engine.write.replace.p50_ms", write_kind_ms[2].Percentile(50), "ms"},
        {"engine.write.merge_pulls_per_write",
         Ratio(det.write_ops.merge_pulls, nw), "count"},
        {"engine.write.rtree_node_visits_per_write",
         Ratio(det.write_ops.rtree_node_visits, nw), "count"},
        {"engine.write.skipped", static_cast<double>(det.writes_skipped),
         "count"},
        {"workload.subspace_reuse_frac",
         Ratio(static_cast<double>(det.repeated_subspaces), n), "ratio"},
        {"workload.store_points", store_points, "count"},
        {"workload.store_pages_over_pool",
         Ratio(store_pages, static_cast<double>(config.buffer_pages)), "ratio"},
        {"verify.checked", static_cast<double>(checked), "count"},
        {"verify.ms_total", Ms(verify_wall), "ms"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());

    const std::string path =
        opt.trace_dir + "/TRACE_" + std::string(w.name) + ".json";
    if (!spans.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  const int64_t attempted = queries + writes;
  PrintResult(mismatches == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

void PrintHelp() {
  std::printf(
      "usage: bench_profile --workload NAME [--seed S] [--seconds T] "
      "[--trace 0|1] [--smoke] [--trace-dir DIR]\n\n"
      "  --workload NAME  one of the workloads below\n"
      "  --seed S         input seed (default 1)\n"
      "  --seconds T      wall-clock budget of the timed loop (default 15)\n"
      "  --trace 0|1      1: replay layers, report per-layer metrics and "
      "write DIR/TRACE_<workload>.json\n"
      "  --smoke          1/%d-size network, oracle on every query\n"
      "  --trace-dir DIR  where the trace goes (default .)\n\nworkloads:\n",
      kSmokeDivisor);
  for (const Workload& w : kWorkloads) {
    std::printf("  %-14s %s\n", w.name, w.why);
  }
}

}  // namespace
}  // namespace skypeer::bench

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--help") == 0) {
      PrintHelp();
      return 0;
    }
    if (std::strcmp(flag, "--smoke") == 0) {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "unknown flag or missing value: %s\n", flag);
      return 1;
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(value, w.name) == 0) {
          opt.workload = &w;
        }
      }
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "--workload: unknown workload '%s' (see --help)\n",
                     value);
        return 1;
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = ParseU64Flag("--seed", value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = ParseDoubleFlag("--seconds", value, 0.0, 3600.0);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.traced = ParseIntFlag("--trace", value, 0, 1) == 1;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      opt.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag);
      return 1;
    }
  }
  if (opt.workload == nullptr) {
    std::fprintf(stderr, "--workload is required (see --help)\n");
    return 1;
  }
  return Run(opt);
}
