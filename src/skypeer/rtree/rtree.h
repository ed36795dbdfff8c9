#ifndef SKYPEER_RTREE_RTREE_H_
#define SKYPEER_RTREE_RTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "skypeer/common/macros.h"

namespace skypeer {

/// \brief Main-memory R-tree over points with runtime dimensionality.
///
/// The paper (§5.2.1) speeds up the dominance test of Algorithm 1 with "a
/// main-memory R-tree with dimensionality equal to the query
/// dimensionality"; this is that structure. Algorithm 1 here uses the
/// blocked linear window instead, which measured faster (DESIGN.md,
/// "Measured departure"); the tree remains the index of `NnSkyline`.
/// It indexes k-dimensional points (leaf MBRs are degenerate boxes)
/// tagged with a 64-bit payload, and supports the three dominance
/// operations of a skyline window:
///
///  * `AnyDominates(q)` — is some indexed point dominating `q`?
///  * `EraseDominated(p)` — remove all indexed points dominated by `p`.
///  * `Insert(p, payload)`.
///
/// plus general window queries used by tests. Quadratic-split insertion
/// (Guttman); deletion condenses underfull nodes by reinserting their
/// points.
///
/// Dominance follows the library convention (min on every dimension):
/// `p` dominates `q` iff `p[i] <= q[i]` everywhere, strictly on at least
/// one dimension; the `strict` flavor requires `p[i] < q[i]` everywhere
/// (ext-dominance).
class RTree {
 public:
  /// Creates an empty tree indexing `dims`-dimensional points.
  /// `max_entries` is the node fan-out M (>= 4); the minimum fill is M/3.
  explicit RTree(int dims, int max_entries = 16);
  ~RTree();

  /// Builds a tree over `n` points at once with Sort-Tile-Recursive
  /// packing (Leutenegger et al.): points are recursively tiled into
  /// near-full leaves, yielding better-clustered nodes than repeated
  /// insertion. `points` is row-major `n * dims` doubles; `payloads` has
  /// one entry per point.
  static RTree BulkLoad(int dims, const double* points,
                        const uint64_t* payloads, size_t n,
                        int max_entries = 16);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;

  int dims() const { return dims_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts a point given by `dims()` coordinates with a payload.
  /// `node_visits`, when non-null, is incremented once per tree node the
  /// descent (and any split-triggered reinsertion) enters — the
  /// machine-independent work count of the operation. All counting
  /// out-params below share this convention and may alias a caller
  /// accumulator; pass nullptr to skip counting.
  void Insert(const double* point, uint64_t payload,
              uint64_t* node_visits = nullptr);

  /// Removes one indexed point equal to `point` with payload `payload`.
  /// Returns false if no such entry exists.
  bool Erase(const double* point, uint64_t payload);

  /// True if some indexed point dominates `q` (strictly on every
  /// dimension when `strict`).
  bool AnyDominates(const double* q, bool strict = false,
                    uint64_t* node_visits = nullptr) const;

  /// Appends payloads of all indexed points dominated by `p` (strictly on
  /// every dimension when `strict`).
  void CollectDominated(const double* p, bool strict,
                        std::vector<uint64_t>* payloads) const;

  /// Removes all indexed points dominated by `p` and returns their
  /// payloads (strict = ext-dominance).
  std::vector<uint64_t> EraseDominated(const double* p, bool strict = false,
                                       uint64_t* node_visits = nullptr);

  /// Appends payloads of all points inside the closed box [lo, hi].
  void WindowQuery(const double* lo, const double* hi,
                   std::vector<uint64_t>* payloads) const;

  /// Finds the point with the smallest coordinate sum inside the box
  /// [lo, hi] (half-open on dimensions whose bit is set in
  /// `strict_upper_mask`: coordinate must be < hi[d] there). Best-first
  /// search. Returns false if the region is empty; otherwise fills
  /// `out_point` (dims() doubles) and `out_payload`. Used by the
  /// nearest-neighbor skyline algorithm (Kossmann et al., VLDB'02).
  bool NearestBySum(const double* lo, const double* hi,
                    uint32_t strict_upper_mask, double* out_point,
                    uint64_t* out_payload) const;

  /// Removes all entries.
  void Clear();

  /// Validates structural invariants (tight MBRs, fill factors, uniform
  /// leaf depth, size bookkeeping). Aborts on violation; returns the
  /// number of indexed points. Test helper.
  size_t CheckInvariants() const;

  /// Height of the tree (1 = the root is a leaf).
  int height() const;

  /// Opaque node type (defined in rtree.cc; public so that file-local
  /// helpers can name it).
  struct Node;

 private:
  /// A harvested point awaiting reinsertion during tree condensation.
  struct Orphan {
    std::vector<double> coords;
    uint64_t payload;
  };

  std::unique_ptr<Node> InsertRec(Node* node, const double* point,
                                  uint64_t payload, uint64_t* node_visits);
  std::unique_ptr<Node> QuadraticSplit(Node* node);
  void GrowRoot(std::unique_ptr<Node> sibling);
  void CleanupChildren(Node* node, std::vector<Orphan>* orphans);
  bool EraseRec(Node* node, const double* point, uint64_t payload,
                std::vector<Orphan>* orphans);
  void RemoveDominatedRec(Node* node, const double* p, bool strict,
                          std::vector<uint64_t>* payloads,
                          std::vector<Orphan>* orphans,
                          uint64_t* node_visits);
  void ShrinkRoot();
  void ReinsertOrphans(std::vector<Orphan> orphans, uint64_t* node_visits);

  int dims_;
  int max_entries_;
  int min_entries_;
  size_t size_ = 0;
  std::unique_ptr<Node> root_;
};

}  // namespace skypeer

#endif  // SKYPEER_RTREE_RTREE_H_
