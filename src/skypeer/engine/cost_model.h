#ifndef SKYPEER_ENGINE_COST_MODEL_H_
#define SKYPEER_ENGINE_COST_MODEL_H_

#include <string>

#include "skypeer/common/op_counts.h"

namespace skypeer {

/// How super-peers convert counted local computation into virtual CPU
/// seconds. Both modes are op-count models: nothing reads the host clock.
enum class CostModelMode {
  /// Charge counted operations times calibrated per-op constants.
  /// Bit-reproducible across runs, thread counts, kernel dispatch and
  /// machines.
  kCalibrated,
  /// Charge one second per counted operation. Bit-reproducible; useful
  /// for reading op counts directly off the time metrics in tests.
  kUnit,
};

const char* CostModelModeName(CostModelMode mode);

/// Parses "calibrated" | "unit" into `*mode`. Returns false
/// on anything else.
bool ParseCostModelMode(const std::string& name, CostModelMode* mode);

/// \brief Converts `OpCounts` into deterministic virtual CPU seconds.
///
/// The model is a linear cost function: each operation class has a
/// per-op cost in seconds, and `Seconds` returns the dot product with
/// the counts. The committed defaults (`Calibrated()`) were measured
/// once with `skypeer_cli --calibrate` on a 2020s x86-64 server; any
/// fixed profile yields bit-identical metrics everywhere, so the
/// absolute scale only matters for realism, never for reproducibility.
struct CostModel {
  CostModelMode mode = CostModelMode::kCalibrated;

  // Per-operation costs in seconds.
  double dominance_test_s = 2.0e-9;
  double scan_step_s = 1.2e-8;
  double merge_pull_s = 4.0e-8;
  double sort_step_s = 1.0e-8;
  double byte_s = 2.5e-10;
  // Store-page I/O: a fixed per-page cost (seek + request overhead of one
  // buffer-pool fill) plus a per-byte streaming cost. Charged against the
  // *logical* page counts, so paged and in-memory runs bill identically.
  double page_read_s = 2.0e-5;
  double page_byte_s = 5.0e-10;

  /// Virtual seconds for `ops` under this profile.
  double Seconds(const OpCounts& ops) const;

  static CostModel Calibrated() {
    return CostModel{CostModelMode::kCalibrated};
  }
  static CostModel Unit() {
    CostModel model{CostModelMode::kUnit};
    model.dominance_test_s = 1.0;
    model.scan_step_s = 1.0;
    model.merge_pull_s = 1.0;
    model.sort_step_s = 1.0;
    model.byte_s = 1.0;
    model.page_read_s = 1.0;
    model.page_byte_s = 1.0;
    return model;
  }

  /// Serializes the per-op costs as `key=value` lines (the profile file
  /// format).
  std::string ToProfileString() const;

  /// Parses a profile produced by `ToProfileString` (unknown keys and
  /// blank/comment lines are ignored) into this model's constants.
  /// Returns false on a malformed line.
  bool LoadProfileString(const std::string& text);
};

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_COST_MODEL_H_
