#ifndef SKYPEER_COMMON_DOMINANCE_H_
#define SKYPEER_COMMON_DOMINANCE_H_

#include <cmath>

#include "skypeer/common/macros.h"
#include "skypeer/common/subspace.h"

namespace skypeer {

/// \file
/// Dominance tests on raw coordinate rows. Skylines are computed under min
/// conditions on every dimension (paper §3.1): smaller is better, values
/// are assumed non-negative. The domain is NaN-free: a NaN coordinate
/// makes every comparison false, which silently breaks the transitivity
/// every algorithm here relies on (and the early-exit in
/// `CompareDominance`), so debug builds assert against it.

/// True if `p` dominates `q` on subspace `u`: `p[i] <= q[i]` on every
/// dimension of `u`, strictly smaller on at least one.
inline bool Dominates(const double* p, const double* q, Subspace u) {
  bool strictly_smaller = false;
  for (int dim : u) {
    SKYPEER_DCHECK(!std::isnan(p[dim]) && !std::isnan(q[dim]));
    if (p[dim] > q[dim]) {
      return false;
    }
    if (p[dim] < q[dim]) {
      strictly_smaller = true;
    }
  }
  return strictly_smaller;
}

/// True if `p` *ext-dominates* `q` on subspace `u` (paper Definition 1):
/// `p[i] < q[i]` strictly on every dimension of `u`. Ext-dominance is
/// stricter than dominance, so the extended skyline is a superset of the
/// skyline — and (Observation 4) a superset of every subspace skyline.
inline bool ExtDominates(const double* p, const double* q, Subspace u) {
  for (int dim : u) {
    SKYPEER_DCHECK(!std::isnan(p[dim]) && !std::isnan(q[dim]));
    if (p[dim] >= q[dim]) {
      return false;
    }
  }
  return true;
}

/// Three-way dominance relation on subspace `u`, used by top-k dominating.
enum class DomRelation {
  kPDominatesQ,
  kQDominatesP,
  kIncomparable,  ///< Neither dominates (also covers equal points).
};

/// Classifies the dominance relation between `p` and `q` on `u` in a
/// single pass.
inline DomRelation CompareDominance(const double* p, const double* q,
                                    Subspace u) {
  bool p_smaller = false;
  bool q_smaller = false;
  for (int dim : u) {
    SKYPEER_DCHECK(!std::isnan(p[dim]) && !std::isnan(q[dim]));
    if (p[dim] < q[dim]) {
      p_smaller = true;
    } else if (q[dim] < p[dim]) {
      q_smaller = true;
    }
    if (p_smaller && q_smaller) {
      return DomRelation::kIncomparable;
    }
  }
  if (p_smaller && !q_smaller) {
    return DomRelation::kPDominatesQ;
  }
  if (q_smaller && !p_smaller) {
    return DomRelation::kQDominatesP;
  }
  return DomRelation::kIncomparable;
}

}  // namespace skypeer

#endif  // SKYPEER_COMMON_DOMINANCE_H_
