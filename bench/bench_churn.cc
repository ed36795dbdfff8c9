// Churn under fire (§A16): what membership maintenance costs, and what
// queries look like while it happens. Two sweeps:
//   1. maintenance cost — the same seeded join/leave/replace history is
//      applied once with incremental maintenance (drop the departing
//      peer's points, re-merge only resurrection candidates) and once
//      with the full store rebuild it replaces; reported as op counts
//      and calibrated milliseconds per event, by event kind.
//   2. availability — a scheduled churn plan executes *while* a query
//      workload runs, composed with crashed super-peers under the
//      reliable transport; reported as coverage, partial-result rate and
//      per-query times for incremental vs rebuild maintenance.
// Maintenance work is charged in counted operations, so sweep 1 is
// bit-reproducible per seed in every cost mode; sweep 2 measures CPU
// only under a counted cost model (--cost-model calibrated|unit), where
// every number is deterministic.
//
//   ./bench_churn [--churn-events N] [--churn-rate R] [--churn-seed S]
//                 [--queries N] [--seed S] [--json PATH] [--full]

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "skypeer/sim/churn_plan.h"

int main(int argc, char** argv) {
  using namespace skypeer;
  using namespace skypeer::bench;
  const BenchOptions options = ParseArgs(argc, argv);
  const int queries = options.QueriesOr(20);
  const int history_events =
      options.churn_events > 0 ? options.churn_events : (options.full ? 200 : 48);
  const uint64_t churn_seed =
      options.churn_seed != 0 ? options.churn_seed : options.seed + 13;

  NetworkConfig base;
  base.num_peers = 400;
  base.num_super_peers = 20;
  base.points_per_peer = 50;
  base.dims = 6;
  base.seed = options.seed;
  base.dynamic_membership = true;
  base.filter_set_size = options.filter_set;
  base.page_size = options.page_size;
  base.buffer_pages = options.buffer_pages;
  base.cost_model = options.cost_model;

  std::printf("== Churn: maintenance cost and availability under fire ==\n");

  // -- sweep 1: incremental vs rebuild maintenance cost ------------------
  std::printf("\n-- maintenance cost (%d seeded events, by kind) --\n",
              history_events);
  const sim::ChurnPlan history = sim::ChurnPlan::Seeded(
      history_events, options.churn_rate, churn_seed,
      /*num_slots=*/history_events, base.num_super_peers);
  const CostModel pricing = CostModel::Calibrated();

  struct KindCost {
    uint64_t events = 0;
    OpCounts ops;
  };
  // [maintenance mode][event kind]: 0 incremental, 1 rebuild.
  KindCost costs[2][3];
  OpCounts mode_total[2];
  for (int mode = 0; mode < 2; ++mode) {
    NetworkConfig config = base;
    config.incremental_maintenance = mode == 0;
    SkypeerNetwork network(config);
    network.Preprocess();
    for (const sim::ChurnEvent& event : history.events) {
      OpCounts ops;
      const Status status = network.ApplyChurnEvent(event, &ops);
      SKYPEER_CHECK(status.ok());
      KindCost& cost = costs[mode][static_cast<int>(event.kind)];
      ++cost.events;
      cost.ops += ops;
      mode_total[mode] += ops;
    }
  }

  Table cost_table({"kind", "events", "incremental ops/ev",
                    "rebuild ops/ev", "incr (ms/ev)", "rebuild (ms/ev)",
                    "speedup"});
  const char* kind_names[3] = {"join", "remove", "replace"};
  for (int kind = 0; kind < 3; ++kind) {
    const KindCost& incr = costs[0][kind];
    const KindCost& rebuild = costs[1][kind];
    if (incr.events == 0) {
      continue;
    }
    const double incr_ms = pricing.Seconds(incr.ops) * 1e3 / incr.events;
    const double rebuild_ms =
        pricing.Seconds(rebuild.ops) * 1e3 / rebuild.events;
    cost_table.AddRow(
        {kind_names[kind], std::to_string(incr.events),
         Fmt(static_cast<double>(incr.ops.total()) / incr.events, 0),
         Fmt(static_cast<double>(rebuild.ops.total()) / rebuild.events, 0),
         Fmt(incr_ms, 3), Fmt(rebuild_ms, 3),
         Fmt(rebuild_ms / incr_ms, 2) + "x"});
  }
  const double total_incr_ms = pricing.Seconds(mode_total[0]) * 1e3;
  const double total_rebuild_ms = pricing.Seconds(mode_total[1]) * 1e3;
  cost_table.AddRow({"all", std::to_string(history.size()),
                     Fmt(static_cast<double>(mode_total[0].total()) /
                             history.size(), 0),
                     Fmt(static_cast<double>(mode_total[1].total()) /
                             history.size(), 0),
                     Fmt(total_incr_ms / history.size(), 3),
                     Fmt(total_rebuild_ms / history.size(), 3),
                     Fmt(total_rebuild_ms / total_incr_ms, 2) + "x"});
  cost_table.Print();

  // -- sweep 2: availability while churning (and crashing) ---------------
  const int scheduled_events = options.churn_events > 0
                                   ? options.churn_events
                                   : queries;  // one event per query slot
  std::printf("\n-- availability: %d scheduled events across %d RTPM "
              "queries, reliable transport --\n",
              scheduled_events, queries);
  Table avail_table({"crashed", "maintenance", "applied", "coverage",
                     "partial", "total (s)", "maint ops/ev"});
  for (const int crashes : {0, 2}) {
    for (int mode = 0; mode < 2; ++mode) {
      NetworkConfig config = base;
      config.incremental_maintenance = mode == 0;
      config.churn_events = scheduled_events;
      config.churn_rate = options.churn_rate;
      config.churn_seed = churn_seed;
      config.reliable = true;
      config.max_retries = 2;
      config.fault_seed = options.seed + 3;
      for (int c = 0; c < crashes; ++c) {
        // Spread crashes over the backbone, keeping node 0 alive so the
        // workload's initiators mostly survive.
        config.crashed_sps.push_back(7 + 9 * c);
      }
      SkypeerNetwork network(config);
      network.Preprocess();
      const auto tasks = GenerateWorkload(config.dims, 3, queries,
                                          network.num_super_peers(),
                                          options.seed + 7);
      const AggregateMetrics agg =
          RunWorkload(&network, tasks, Variant::kRTPM);
      const SkypeerNetwork::ChurnStats& stats = network.churn_stats();
      const uint64_t applied =
          stats.joins + stats.removals + stats.replacements + stats.skipped;
      avail_table.AddRow(
          {std::to_string(crashes), mode == 0 ? "incremental" : "rebuild",
           std::to_string(applied) + "/" + std::to_string(scheduled_events),
           Fmt(agg.avg_coverage() * 100, 1) + "%",
           std::to_string(agg.partial_queries) + "/" +
               std::to_string(agg.queries),
           Fmt(agg.avg_total_s(), 3),
           applied > 0
               ? Fmt(static_cast<double>(stats.maintenance_ops.total()) /
                         applied, 0)
               : "-"});
    }
  }
  avail_table.Print();
  return 0;
}
