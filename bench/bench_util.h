#ifndef SKYPEER_BENCH_BENCH_UTIL_H_
#define SKYPEER_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "skypeer/common/parse.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/engine/cost_model.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"

namespace skypeer::bench {

/// Command-line options shared by all figure benches.
///
///   --queries N    queries per data point (default: figure-specific)
///   --seed S       master seed (default 1)
///   --threads N    worker threads (default hardware_concurrency;
///                  1 = sequential); simulated metrics are unaffected
///   --filter-set N broadcast at most N sampled filter points from the
///                  initiator's local skyline with every query (default 0
///                  = no filter); skylines are identical either way
///   --page-size B  store page size in bytes (power of two in
///                  [4096, 1048576], default 4096); fixes the logical
///                  page-charging geometry in both store modes
///   --buffer-pages N beyond-RAM stores: spill super-peer stores to disk
///                  pages behind a pinning buffer manager of N frames
///                  (N >= 2; default 0 = in-memory); all metrics are
///                  identical either way
///   --churn-events N schedule N seeded membership changes (join/leave/
///                  replace) spread over the run's queries (default 0 =
///                  no churn); implies dynamic membership
///   --churn-rate R mean in-query arrival time, simulated seconds, of a
///                  scheduled churn event's maintenance charge
///                  (default 0.05)
///   --churn-seed S dedicated churn stream (default 0 = derive from
///                  --seed)
///   --rebuild-maintenance rebuild stores from retained peer lists on
///                  every membership change instead of incremental
///                  maintenance (the cost baseline)
///   --cost-model M op-count CPU pricing: calibrated (default) or unit
///   --json PATH    additionally emit the run as a BENCH_*.json report
///                  (series tables, per-variant metrics and op counts)
///   --full         paper-scale parameters (more queries, larger sweeps)
struct BenchOptions {
  int queries = -1;  // -1: use the bench's default.
  uint64_t seed = 1;
  int threads = 0;  // 0: hardware_concurrency.
  size_t filter_set = 0;  // 0: no broadcast filter set.
  size_t page_size = kDefaultPageSize;
  size_t buffer_pages = 0;  // 0: in-memory stores.
  int churn_events = 0;     // 0: no scheduled churn.
  double churn_rate = 0.05;
  uint64_t churn_seed = 0;  // 0: derive from seed.
  bool rebuild_maintenance = false;  // Full rebuilds instead of incremental.
  bool full = false;
  CostModel cost_model;
  std::string json_path;  // Empty: no JSON report.

  int QueriesOr(int fallback, int full_value = 100) const {
    if (queries > 0) {
      return queries;
    }
    return full ? full_value : fallback;
  }
};

// Strict numeric flag parsing lives in skypeer/common/parse.h
// (ParseIntFlag / ParseU64Flag / ParseDoubleFlag), shared with the CLI.

inline CostModel CostModelForMode(CostModelMode mode) {
  switch (mode) {
    case CostModelMode::kCalibrated:
      return CostModel::Calibrated();
    case CostModelMode::kUnit:
      return CostModel::Unit();
  }
  return CostModel::Calibrated();
}

// --- JSON report -----------------------------------------------------------

/// Accumulates everything a bench prints into a machine-readable
/// `BENCH_<name>.json`. Filled as a side effect of `Table::Print` and
/// `RunVariant`, written at process exit when `--json` was given. Every
/// simulated number is deterministic (CPU is priced from op counts),
/// which is what lets CI exact-diff the file against a committed baseline.
struct BenchReport {
  std::string name;       // Basename of argv[0].
  std::string path;       // --json destination; empty disables emission.
  std::string options_json;
  // Per-RecordPreprocess JSON objects; the "preprocess" section is
  // written only when a bench recorded one.
  std::vector<std::string> preprocess_objects;
  std::vector<std::string> run_objects;    // Per-RunVariant JSON objects.
  std::vector<std::string> table_objects;  // Per-Table JSON objects.
};

inline BenchReport& GlobalBenchReport() {
  static BenchReport report;
  return report;
}

inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
      out += buffer;
    } else {
      out += ch;
    }
  }
  return out;
}

/// Round-trip double formatting: bit-identical doubles yield identical
/// text, so calibrated-mode reports diff clean.
inline std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

inline std::string JsonOpCounts(const OpCounts& ops) {
  char buffer[640];
  std::snprintf(buffer, sizeof(buffer),
                "{\"dominance_tests\":%llu,\"scan_steps\":%llu,"
                "\"merge_pulls\":%llu,\"sort_steps\":%llu,"
                "\"bytes_serialized\":%llu,\"page_reads\":%llu,"
                "\"page_bytes\":%llu}",
                static_cast<unsigned long long>(ops.dominance_tests),
                static_cast<unsigned long long>(ops.scan_steps),
                static_cast<unsigned long long>(ops.merge_pulls),
                static_cast<unsigned long long>(ops.sort_steps),
                static_cast<unsigned long long>(ops.bytes_serialized),
                static_cast<unsigned long long>(ops.page_reads),
                static_cast<unsigned long long>(ops.page_bytes));
  return buffer;
}

inline void WriteBenchReport() {
  const BenchReport& report = GlobalBenchReport();
  if (report.path.empty()) {
    return;
  }
  std::FILE* file = std::fopen(report.path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", report.path.c_str());
    return;
  }
  std::fprintf(file, "{\n  \"bench\": \"%s\",\n  \"options\": %s,\n",
               JsonEscape(report.name).c_str(), report.options_json.c_str());
  if (!report.preprocess_objects.empty()) {
    std::fprintf(file, "  \"preprocess\": [\n");
    for (size_t i = 0; i < report.preprocess_objects.size(); ++i) {
      std::fprintf(file, "    %s%s\n", report.preprocess_objects[i].c_str(),
                   i + 1 < report.preprocess_objects.size() ? "," : "");
    }
    std::fprintf(file, "  ],\n");
  }
  std::fprintf(file, "  \"runs\": [\n");
  for (size_t i = 0; i < report.run_objects.size(); ++i) {
    std::fprintf(file, "    %s%s\n", report.run_objects[i].c_str(),
                 i + 1 < report.run_objects.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"tables\": [\n");
  for (size_t i = 0; i < report.table_objects.size(); ++i) {
    std::fprintf(file, "    %s%s\n", report.table_objects[i].c_str(),
                 i + 1 < report.table_objects.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
}

inline BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      options.full = true;
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      options.queries =
          static_cast<int>(ParseIntFlag("--queries", argv[++i], 1, 1'000'000));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = ParseU64Flag("--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads =
          static_cast<int>(ParseIntFlag("--threads", argv[++i], 0, 4096));
    } else if (std::strcmp(argv[i], "--filter-set") == 0 && i + 1 < argc) {
      options.filter_set =
          static_cast<size_t>(ParseU64Flag("--filter-set", argv[++i]));
    } else if (std::strcmp(argv[i], "--page-size") == 0 && i + 1 < argc) {
      options.page_size =
          static_cast<size_t>(ParseU64Flag("--page-size", argv[++i]));
      if (options.page_size < kMinPageSize ||
          options.page_size > kMaxPageSize ||
          (options.page_size & (options.page_size - 1)) != 0) {
        std::fprintf(stderr,
                     "--page-size: %zu is not a power of two in "
                     "[4096, 1048576]\n",
                     options.page_size);
        std::exit(1);
      }
    } else if (std::strcmp(argv[i], "--buffer-pages") == 0 && i + 1 < argc) {
      options.buffer_pages =
          static_cast<size_t>(ParseU64Flag("--buffer-pages", argv[++i]));
      if (options.buffer_pages == 1) {
        std::fprintf(stderr,
                     "--buffer-pages: must be 0 (in-memory) or >= 2\n");
        std::exit(1);
      }
    } else if (std::strcmp(argv[i], "--churn-events") == 0 && i + 1 < argc) {
      options.churn_events = static_cast<int>(
          ParseIntFlag("--churn-events", argv[++i], 0, 1'000'000));
    } else if (std::strcmp(argv[i], "--churn-rate") == 0 && i + 1 < argc) {
      options.churn_rate = ParseDoubleFlag("--churn-rate", argv[++i], 0.0, 1e9);
      if (options.churn_rate <= 0.0) {
        std::fprintf(stderr, "--churn-rate: must be > 0\n");
        std::exit(1);
      }
    } else if (std::strcmp(argv[i], "--churn-seed") == 0 && i + 1 < argc) {
      options.churn_seed = ParseU64Flag("--churn-seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--rebuild-maintenance") == 0) {
      options.rebuild_maintenance = true;
    } else if (std::strcmp(argv[i], "--cost-model") == 0 && i + 1 < argc) {
      CostModelMode mode;
      if (!ParseCostModelMode(argv[++i], &mode)) {
        std::fprintf(stderr,
                     "--cost-model: '%s' is not calibrated|unit\n",
                     argv[i]);
        std::exit(1);
      }
      options.cost_model = CostModelForMode(mode);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      options.json_path = argv[++i];
      if (options.json_path.empty()) {
        std::fprintf(stderr, "--json: path must be non-empty\n");
        std::exit(1);
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--queries N] [--seed S] [--threads N] "
          "[--filter-set N] [--page-size B] "
          "[--buffer-pages N] [--churn-events N] "
          "[--churn-rate R] [--churn-seed S] [--rebuild-maintenance] "
          "[--cost-model calibrated|unit] [--json PATH] [--full]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(1);
    }
  }
  ThreadPool::SetGlobalConcurrency(options.threads);

  BenchReport& report = GlobalBenchReport();
  const char* slash = std::strrchr(argv[0], '/');
  report.name = slash != nullptr ? slash + 1 : argv[0];
  report.path = options.json_path;
  char buffer[832];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"queries\": %d, \"seed\": %llu, \"threads\": %d, "
      "\"filter_set\": %llu, \"page_size\": %llu, "
      "\"buffer_pages\": %llu, \"churn_events\": %d, "
      "\"churn_rate\": %s, \"churn_seed\": %llu, "
      "\"rebuild_maintenance\": %s, "
      "\"full\": %s, \"cost_model\": \"%s\"}",
      options.queries, static_cast<unsigned long long>(options.seed),
      options.threads, static_cast<unsigned long long>(options.filter_set),
      static_cast<unsigned long long>(options.page_size),
      static_cast<unsigned long long>(options.buffer_pages),
      options.churn_events, JsonNumber(options.churn_rate).c_str(),
      static_cast<unsigned long long>(options.churn_seed),
      options.rebuild_maintenance ? "true" : "false",
      options.full ? "true" : "false", CostModelModeName(options.cost_model.mode));
  report.options_json = buffer;
  if (!report.path.empty()) {
    std::atexit(WriteBenchReport);
  }
  return options;
}

/// Fixed-width table printer for paper-style series. `Print` also records
/// the table into the JSON report (columns + cell strings verbatim).
class Table {
 public:
  explicit Table(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) {
          widths[c] = std::max(widths[c], row[c].size());
        }
      }
    }
    PrintRow(columns_, widths);
    std::string rule;
    for (size_t c = 0; c < columns_.size(); ++c) {
      rule += std::string(widths[c], '-');
      if (c + 1 < columns_.size()) {
        rule += "-+-";
      }
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      PrintRow(row, widths);
    }
    Record();
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells,
                       const std::vector<size_t>& widths) {
    std::string line;
    for (size_t c = 0; c < widths.size(); ++c) {
      std::string cell = c < cells.size() ? cells[c] : "";
      cell.resize(std::max(cell.size(), widths[c]), ' ');
      line += cell;
      if (c + 1 < widths.size()) {
        line += " | ";
      }
    }
    std::printf("%s\n", line.c_str());
  }

  void Record() const {
    const auto cells = [](const std::vector<std::string>& row) {
      std::string out = "[";
      for (size_t c = 0; c < row.size(); ++c) {
        out += '"' + JsonEscape(row[c]) + '"';
        if (c + 1 < row.size()) {
          out += ',';
        }
      }
      return out + "]";
    };
    std::string object = "{\"columns\":" + cells(columns_) + ",\"rows\":[";
    for (size_t r = 0; r < rows_.size(); ++r) {
      object += cells(rows_[r]);
      if (r + 1 < rows_.size()) {
        object += ',';
      }
    }
    object += "]}";
    GlobalBenchReport().table_objects.push_back(std::move(object));
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string FmtMs(double seconds) { return Fmt(seconds * 1e3, 3); }

/// Builds + preprocesses a network, echoing the configuration. Applies
/// the harness options that map onto the network config (`--filter-set`,
/// `--cost-model`, ...).
inline SkypeerNetwork BuildNetwork(NetworkConfig config,
                                   const BenchOptions& options) {
  config.filter_set_size = options.filter_set;
  config.page_size = options.page_size;
  config.buffer_pages = options.buffer_pages;
  config.cost_model = options.cost_model;
  if (options.churn_events > 0) {
    config.churn_events = options.churn_events;
    config.churn_rate = options.churn_rate;
    config.churn_seed = options.churn_seed;
    config.dynamic_membership = true;
    config.incremental_maintenance = !options.rebuild_maintenance;
  }
  std::printf(
      "# N_p=%d N_sp=%d points/peer=%d d=%d DEG_sp=%.0f dist=%s seed=%llu "
      "filter_set=%zu page_size=%zu "
      "buffer_pages=%zu cost_model=%s\n",
      config.num_peers,
      config.num_super_peers > 0 ? config.num_super_peers
                                 : DefaultNumSuperPeers(config.num_peers),
      config.points_per_peer, config.dims, config.degree_sp,
      DistributionName(config.distribution),
      static_cast<unsigned long long>(config.seed), config.filter_set_size,
      config.page_size, config.buffer_pages,
      CostModelModeName(config.cost_model.mode));
  return SkypeerNetwork(config);
}

/// Records one network's pre-processing (store sizes and the op counts
/// of the peer and super-peer phases) into the JSON report under
/// `label`.
inline void RecordPreprocess(const std::string& label,
                             const PreprocessStats& stats) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "\",\"peer_ext_points\":%zu,\"super_peer_ext_points\":%zu",
                stats.peer_ext_points, stats.super_peer_ext_points);
  std::string object = "{\"network\":\"" + JsonEscape(label) + buffer;
  object += ",\"peer_ops\":" + JsonOpCounts(stats.peer_ops);
  object += ",\"super_peer_ops\":" + JsonOpCounts(stats.super_peer_ops);
  object += "}";
  GlobalBenchReport().preprocess_objects.push_back(std::move(object));
}

/// Runs `queries` workload queries of dimensionality `k` under `variant`,
/// recording the aggregate (time series, volume, op counts) into the JSON
/// report.
inline AggregateMetrics RunVariant(SkypeerNetwork* network, int k,
                                   int queries, uint64_t seed,
                                   Variant variant) {
  const auto tasks = GenerateWorkload(network->dims(), k, queries,
                                      network->num_super_peers(), seed);
  const AggregateMetrics agg = RunWorkload(network, tasks, variant);
  std::string object = "{\"variant\":\"";
  object += VariantName(variant);
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "\",\"k\":%d,\"queries\":%d,\"seed\":%llu,\"dims\":%d,"
                "\"num_super_peers\":%d,",
                k, queries, static_cast<unsigned long long>(seed),
                network->dims(), network->num_super_peers());
  object += buffer;
  object += "\"avg_comp_s\":" + JsonNumber(agg.avg_comp_s());
  object += ",\"avg_total_s\":" + JsonNumber(agg.avg_total_s());
  object += ",\"avg_kb\":" + JsonNumber(agg.avg_kb());
  object += ",\"avg_messages\":" + JsonNumber(agg.avg_messages());
  object += ",\"avg_result\":" + JsonNumber(agg.avg_result());
  object += ",\"avg_scanned\":" + JsonNumber(agg.scanned.mean());
  object += ",\"p50_comp_s\":" + JsonNumber(agg.comp_s.Percentile(50));
  object += ",\"p100_comp_s\":" + JsonNumber(agg.comp_s.Percentile(100));
  object += ",\"ops\":" + JsonOpCounts(agg.total_ops);
  object += "}";
  GlobalBenchReport().run_objects.push_back(std::move(object));
  return agg;
}

}  // namespace skypeer::bench

#endif  // SKYPEER_BENCH_BENCH_UTIL_H_
