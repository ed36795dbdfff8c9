// skypeer_cli — run a SKYPEER simulation from the command line.
//
//   skypeer_cli [--peers N] [--super-peers N] [--points N] [--dims D]
//               [--degree G] [--dist uniform|clustered|correlated|anti]
//               [--k K] [--queries Q] [--variant naive|FTFM|FTPM|RTFM|RTPM|all]
//               [--bandwidth BYTES_PER_S] [--latency S] [--seed S]
//               [--verbose]
//
// Prints pre-processing statistics and per-variant averages in the
// paper's three metrics (computational time, total time, volume).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/parse.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/engine/cost_model.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/zipf_workload.h"
#include "skypeer/storage/buffer_manager.h"

namespace {

using namespace skypeer;

struct CliOptions {
  NetworkConfig network;
  int k = 3;
  int queries = 20;
  int threads = 0;  // 0: hardware_concurrency.
  std::string variant = "all";
  double zipf = -1.0;  // < 0: uniform workload.
  bool verbose = false;
  std::string cost_profile;  // --cost-profile path; empty = none.
};

void PrintUsageAndExit(const char* binary, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --peers N        number of peers (default 4000)\n"
      "  --super-peers N  number of super-peers (default: paper rule,\n"
      "                   5%% of peers; 1%% from 20000 peers on)\n"
      "  --points N       points per peer (default 250)\n"
      "  --dims D         data dimensionality, 1..32 (default 8)\n"
      "  --degree G       average super-peer degree (default 4)\n"
      "  --dist NAME      uniform | clustered | correlated | anti\n"
      "  --k K            query dimensionality (default 3)\n"
      "  --queries Q      number of queries (default 20)\n"
      "  --variant V      naive | FTFM | FTPM | RTFM | RTPM | PIPE | all\n"
      "  --topology T     waxman (default) | hypercube\n"
      "  --zipf E         Zipf-skew the subspace popularity with\n"
      "                   exponent E (default: uniform workload)\n"
      "  --bandwidth B    link bandwidth in bytes/s (default 4096)\n"
      "  --latency L      link latency in seconds (default 0)\n"
      "  --seed S         master seed (default 1)\n"
      "  --threads N      worker threads (default: hardware concurrency;\n"
      "                   1 = sequential). Results and metrics do not\n"
      "                   depend on the thread count\n"
      "  --cost-model M   how counted ops are priced into virtual CPU\n"
      "                   seconds: calibrated (default) or unit (one\n"
      "                   second per op). Every metric is bit-reproducible\n"
      "                   under either\n"
      "  --cost-profile F load per-op cost constants from F (key=value\n"
      "                   lines)\n"
      "  --net-threads N  scope the worker pool to the network instead of\n"
      "                   the process-wide pool (default 0 = global pool)\n"
      "  --churn-events N schedule N seeded membership events (joins,\n"
      "                   removals, data replacements cycling) over the\n"
      "                   first N queries; each event applies atomically\n"
      "                   between queries while its maintenance cost is\n"
      "                   charged mid-query on the affected super-peer's\n"
      "                   virtual clock (default 0 = no scheduled churn).\n"
      "                   Implies dynamic membership\n"
      "  --churn-rate R   mean in-query charge instant in seconds of a\n"
      "                   scheduled event (exponential; default 0.05)\n"
      "  --churn-seed S   seed of the churn schedule (default: derived\n"
      "                   from --seed)\n"
      "  --rebuild-maintenance  peer removals rebuild the super-peer\n"
      "                   store from the retained lists instead of the\n"
      "                   default incremental drop + candidate re-merge;\n"
      "                   stores and all metrics are bit-identical\n"
      "  --page-size B    store page size in bytes, a power of two in\n"
      "                   [4096, 1048576] (default 4096); fixes the\n"
      "                   logical page-charging geometry in both store\n"
      "                   modes\n"
      "  --buffer-pages N beyond-RAM stores: spill super-peer stores to\n"
      "                   disk pages behind a pinning buffer manager of N\n"
      "                   frames (N >= 2; default 0 = in-memory). Results\n"
      "                   and every simulated metric are bit-identical to\n"
      "                   the in-memory mode\n"
      "  --force-scalar   pin the dominance kernels to the scalar path\n"
      "                   instead of runtime SIMD dispatch (same effect as\n"
      "                   SKYPEER_FORCE_SCALAR=1). Results and metrics are\n"
      "                   bit-identical either way\n"
      "  --reliable       run the query protocol over the reliable\n"
      "                   per-hop transport (ACKs, retransmission,\n"
      "                   rerouting, coverage reporting). Implied by any\n"
      "                   fault flag below\n"
      "  --drop-prob P    lose each transmission with probability P\n"
      "                   (deterministic per seed)\n"
      "  --delay-jitter J add uniform extra delay in [0, J) seconds to\n"
      "                   every arrival\n"
      "  --crash-sp I     crash super-peer I for every query (repeatable)\n"
      "  --fault-seed S   seed of the fault RNG stream (default: derived\n"
      "                   from --seed)\n"
      "  --ack-timeout T  base ACK timeout in seconds before a hop\n"
      "                   retransmits (default 0.25; exponential backoff)\n"
      "  --max-retries N  retransmissions before a hop is abandoned and\n"
      "                   recovery kicks in (default 8)\n"
      "  --query-deadline S  initiator deadline per query; on expiry the\n"
      "                   collected partial result is returned, flagged\n"
      "                   (default 0 = no deadline)\n"
      "  --verbose        per-query output\n",
      binary);
  std::exit(code);
}

CliOptions Parse(int argc, char** argv) {
  CliOptions options;
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      PrintUsageAndExit(argv[0], 1);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--peers") == 0) {
      options.network.num_peers = static_cast<int>(
          ParseIntFlag("--peers", next_value(&i), 1, 100'000'000));
    } else if (std::strcmp(arg, "--super-peers") == 0) {
      options.network.num_super_peers = static_cast<int>(
          ParseIntFlag("--super-peers", next_value(&i), 0, 1'000'000));
    } else if (std::strcmp(arg, "--points") == 0) {
      options.network.points_per_peer = static_cast<int>(
          ParseIntFlag("--points", next_value(&i), 0, 100'000'000));
    } else if (std::strcmp(arg, "--dims") == 0) {
      options.network.dims =
          static_cast<int>(ParseIntFlag("--dims", next_value(&i), 1, 32));
    } else if (std::strcmp(arg, "--degree") == 0) {
      options.network.degree_sp =
          ParseDoubleFlag("--degree", next_value(&i), 0.0, 1e6);
    } else if (std::strcmp(arg, "--dist") == 0) {
      const std::string name = next_value(&i);
      if (name == "uniform") {
        options.network.distribution = Distribution::kUniform;
      } else if (name == "clustered") {
        options.network.distribution = Distribution::kClustered;
      } else if (name == "correlated") {
        options.network.distribution = Distribution::kCorrelated;
      } else if (name == "anti" || name == "anticorrelated") {
        options.network.distribution = Distribution::kAnticorrelated;
      } else {
        std::fprintf(stderr, "unknown distribution: %s\n", name.c_str());
        PrintUsageAndExit(argv[0], 1);
      }
    } else if (std::strcmp(arg, "--k") == 0) {
      options.k = static_cast<int>(ParseIntFlag("--k", next_value(&i), 1, 32));
    } else if (std::strcmp(arg, "--queries") == 0) {
      options.queries = static_cast<int>(
          ParseIntFlag("--queries", next_value(&i), 1, 1'000'000));
    } else if (std::strcmp(arg, "--variant") == 0) {
      options.variant = next_value(&i);
    } else if (std::strcmp(arg, "--topology") == 0) {
      const std::string name = next_value(&i);
      if (name == "waxman") {
        options.network.topology = BackboneTopology::kWaxman;
      } else if (name == "hypercube") {
        options.network.topology = BackboneTopology::kHypercube;
      } else {
        std::fprintf(stderr, "unknown topology: %s\n", name.c_str());
        PrintUsageAndExit(argv[0], 1);
      }
    } else if (std::strcmp(arg, "--bandwidth") == 0) {
      options.network.bandwidth =
          ParseDoubleFlag("--bandwidth", next_value(&i), 0.0, 1e18);
    } else if (std::strcmp(arg, "--latency") == 0) {
      options.network.latency =
          ParseDoubleFlag("--latency", next_value(&i), 0.0, 1e9);
    } else if (std::strcmp(arg, "--zipf") == 0) {
      options.zipf = ParseDoubleFlag("--zipf", next_value(&i), 0.0, 100.0);
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.network.seed = ParseU64Flag("--seed", next_value(&i));
    } else if (std::strcmp(arg, "--threads") == 0) {
      options.threads = static_cast<int>(
          ParseIntFlag("--threads", next_value(&i), 0, 4096));
    } else if (std::strcmp(arg, "--net-threads") == 0) {
      options.network.threads = static_cast<int>(
          ParseIntFlag("--net-threads", next_value(&i), 0, 4096));
    } else if (std::strcmp(arg, "--cost-model") == 0) {
      const std::string name = next_value(&i);
      CostModelMode mode;
      if (!ParseCostModelMode(name, &mode)) {
        std::fprintf(stderr, "unknown cost model: %s\n", name.c_str());
        PrintUsageAndExit(argv[0], 1);
      }
      switch (mode) {
        case CostModelMode::kCalibrated:
          options.network.cost_model = CostModel::Calibrated();
          break;
        case CostModelMode::kUnit:
          options.network.cost_model = CostModel::Unit();
          break;
      }
    } else if (std::strcmp(arg, "--cost-profile") == 0) {
      options.cost_profile = next_value(&i);
    } else if (std::strcmp(arg, "--churn-events") == 0) {
      options.network.churn_events = static_cast<int>(
          ParseIntFlag("--churn-events", next_value(&i), 0, 1'000'000));
      if (options.network.churn_events > 0) {
        options.network.dynamic_membership = true;
      }
    } else if (std::strcmp(arg, "--churn-rate") == 0) {
      options.network.churn_rate =
          ParseDoubleFlag("--churn-rate", next_value(&i), 0.0, 1e9);
    } else if (std::strcmp(arg, "--churn-seed") == 0) {
      options.network.churn_seed =
          ParseU64Flag("--churn-seed", next_value(&i));
    } else if (std::strcmp(arg, "--rebuild-maintenance") == 0) {
      options.network.incremental_maintenance = false;
    } else if (std::strcmp(arg, "--page-size") == 0) {
      options.network.page_size =
          static_cast<size_t>(ParseU64Flag("--page-size", next_value(&i)));
    } else if (std::strcmp(arg, "--buffer-pages") == 0) {
      options.network.buffer_pages =
          static_cast<size_t>(ParseU64Flag("--buffer-pages", next_value(&i)));
    } else if (std::strcmp(arg, "--force-scalar") == 0) {
      SetForceScalarKernels(true);
    } else if (std::strcmp(arg, "--reliable") == 0) {
      options.network.reliable = true;
    } else if (std::strcmp(arg, "--drop-prob") == 0) {
      options.network.drop_prob =
          ParseDoubleFlag("--drop-prob", next_value(&i), 0.0, 1.0);
      options.network.reliable = true;
    } else if (std::strcmp(arg, "--delay-jitter") == 0) {
      options.network.delay_jitter =
          ParseDoubleFlag("--delay-jitter", next_value(&i), 0.0, 1e9);
      options.network.reliable = true;
    } else if (std::strcmp(arg, "--crash-sp") == 0) {
      options.network.crashed_sps.push_back(static_cast<int>(
          ParseIntFlag("--crash-sp", next_value(&i), 0, 1'000'000)));
      options.network.reliable = true;
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      options.network.fault_seed = ParseU64Flag("--fault-seed", next_value(&i));
    } else if (std::strcmp(arg, "--ack-timeout") == 0) {
      options.network.ack_timeout =
          ParseDoubleFlag("--ack-timeout", next_value(&i), 0.0, 1e9);
    } else if (std::strcmp(arg, "--max-retries") == 0) {
      options.network.max_retries = static_cast<int>(
          ParseIntFlag("--max-retries", next_value(&i), 0, 1'000'000));
    } else if (std::strcmp(arg, "--query-deadline") == 0) {
      options.network.query_deadline =
          ParseDoubleFlag("--query-deadline", next_value(&i), 0.0, 1e18);
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      PrintUsageAndExit(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      PrintUsageAndExit(argv[0], 1);
    }
  }
  return options;
}

std::vector<Variant> SelectVariants(const std::string& name) {
  if (name == "all") {
    std::vector<Variant> all(kAllVariants, kAllVariants + 5);
    all.push_back(Variant::kPipeline);
    return all;
  }
  for (Variant variant : kAllVariants) {
    if (name == VariantName(variant)) {
      return {variant};
    }
  }
  if (name == VariantName(Variant::kPipeline)) {
    return {Variant::kPipeline};
  }
  std::fprintf(stderr, "unknown variant: %s\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options = Parse(argc, argv);
  ThreadPool::SetGlobalConcurrency(options.threads);

  if (!options.cost_profile.empty()) {
    std::FILE* file = std::fopen(options.cost_profile.c_str(), "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open cost profile: %s\n",
                   options.cost_profile.c_str());
      return 1;
    }
    std::string text;
    char buffer[4096];
    size_t got;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      text.append(buffer, got);
    }
    std::fclose(file);
    if (!options.network.cost_model.LoadProfileString(text)) {
      std::fprintf(stderr, "malformed cost profile: %s\n",
                   options.cost_profile.c_str());
      return 1;
    }
  }

  const Status status = SkypeerNetwork::Validate(options.network);
  if (!status.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (options.k < 1 || options.k > options.network.dims) {
    std::fprintf(stderr, "invalid query dimensionality k=%d (d=%d)\n",
                 options.k, options.network.dims);
    return 1;
  }

  SkypeerNetwork network(options.network);
  std::printf("building network: %d peers / %d super-peers, %s data, d=%d\n",
              network.num_peers(), network.num_super_peers(),
              DistributionName(options.network.distribution),
              options.network.dims);
  std::printf("dominance kernels: %s\n",
              DomKernelModeName(ActiveDomKernelMode()));
  std::printf("cpu charging: %s\n",
              CostModelModeName(options.network.cost_model.mode));
  if (options.network.buffer_pages > 0) {
    std::printf("store paging: %zu-byte pages, %zu-frame buffer pool\n",
                options.network.page_size, options.network.buffer_pages);
  }
  const PreprocessStats stats = network.Preprocess();
  std::printf(
      "pre-processing: n=%zu  SEL_p=%.1f%%  SEL_sp=%.1f%%  "
      "(peer cpu %.2fs, super-peer cpu %.2fs)\n\n",
      stats.total_points, stats.sel_p() * 100, stats.sel_sp() * 100,
      stats.peer_cpu_s, stats.super_peer_cpu_s);

  std::vector<QueryTask> tasks;
  if (options.zipf >= 0.0) {
    ZipfWorkloadConfig zipf_config;
    zipf_config.query_dims = options.k;
    zipf_config.num_queries = options.queries;
    zipf_config.exponent = options.zipf;
    zipf_config.seed = options.network.seed + 99;
    tasks = GenerateZipfWorkload(options.network.dims, zipf_config,
                                 network.num_super_peers());
  } else {
    tasks =
        GenerateWorkload(options.network.dims, options.k, options.queries,
                         network.num_super_peers(), options.network.seed + 99);
  }

  std::printf("%-6s | %11s | %10s | %13s | %12s | %9s | %7s\n", "variant",
              "comp (ms)", "total (s)", "total p95 (s)", "volume (KB)",
              "messages", "result");
  std::printf(
      "-------+-------------+------------+---------------+--------------+"
      "-----------+--------\n");
  for (Variant variant : SelectVariants(options.variant)) {
    AggregateMetrics aggregate;
    if (options.verbose) {
      // Per-query output wants interleaved prints; run sequentially.
      for (const QueryTask& task : tasks) {
        const QueryResult result =
            network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
        aggregate.Add(result.metrics);
        std::printf("  [%s] U=%s init=%d -> %zu points, %.2f s, %.1f KB\n",
                    VariantName(variant), task.subspace.ToString().c_str(),
                    task.initiator_sp, result.metrics.result_size,
                    result.metrics.total_time_s, result.metrics.volume_kb());
        std::printf("        ops: %s\n", result.metrics.ops.ToString().c_str());
      }
    } else {
      // Distributes the batch over the thread pool when --threads > 1.
      aggregate = RunWorkload(&network, tasks, variant);
    }
    std::printf("%-6s | %11.3f | %10.2f | %13.2f | %12.1f | %9.1f | %7.1f\n",
                VariantName(variant), aggregate.avg_comp_s() * 1e3,
                aggregate.avg_total_s(), aggregate.total_s.Percentile(95),
                aggregate.avg_kb(), aggregate.avg_messages(),
                aggregate.avg_result());
    if (options.network.reliable) {
      std::printf(
          "       | reliability: coverage %.1f%%  partial %zu/%zu  "
          "retransmits/query %.1f\n",
          aggregate.avg_coverage() * 100, aggregate.partial_queries,
          aggregate.queries, aggregate.avg_retransmits());
    }
  }
  if (options.network.churn_events > 0) {
    // Deterministic: the schedule, victim picks and maintenance ops are
    // pure functions of the seeds and the query order, so this line
    // participates in determinism diffs.
    const SkypeerNetwork::ChurnStats& cs = network.churn_stats();
    std::printf(
        "churn: events=%zu joins=%llu removals=%llu replacements=%llu "
        "skipped=%llu\n",
        network.churn_plan().size(),
        static_cast<unsigned long long>(cs.joins),
        static_cast<unsigned long long>(cs.removals),
        static_cast<unsigned long long>(cs.replacements),
        static_cast<unsigned long long>(cs.skipped));
    std::printf("churn: maintenance ops: %s\n",
                cs.maintenance_ops.ToString().c_str());
  }
  // Out-of-band physical counters: hit/miss/eviction totals depend on
  // thread interleaving in parallel workloads, so they are printed under
  // a greppable prefix and never enter determinism comparisons.
  if (const BufferManager* buffer = network.buffer_manager()) {
    const BufferManager::Stats bs = buffer->stats();
    std::printf(
        "physical: buffer hits=%llu misses=%llu evictions=%llu "
        "prefetches=%llu prefetch_hits=%llu pages_written=%llu\n",
        static_cast<unsigned long long>(bs.hits),
        static_cast<unsigned long long>(bs.misses),
        static_cast<unsigned long long>(bs.evictions),
        static_cast<unsigned long long>(bs.prefetches_issued),
        static_cast<unsigned long long>(bs.prefetch_hits),
        static_cast<unsigned long long>(bs.pages_written));
  }
  return 0;
}
