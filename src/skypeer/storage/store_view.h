#ifndef SKYPEER_STORAGE_STORE_VIEW_H_
#define SKYPEER_STORAGE_STORE_VIEW_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/storage/paged_store.h"

namespace skypeer {

/// \brief Uniform read-only view over an f-sorted store, either resident
/// (`ResultList`) or paged (`PagedStore`).
///
/// The view is a cheap immutable descriptor; per-scan state (the pinned
/// frame, the gathered row) lives in `StoreCursor`, so concurrent scans
/// each open their own cursor. Both modes carry a `PageLayout`: logical
/// page charges derive from the layout alone, which keeps paged and
/// in-memory runs bit-identical.
class StoreView {
 public:
  /// View over a resident list; `page_size` fixes the logical page
  /// geometry (the default mirrors the `--page-size` default).
  explicit StoreView(const ResultList* list,
                     size_t page_size = kDefaultPageSize)
      : list_(list), layout_(page_size, list->points.dims()) {}

  /// View over a paged store.
  explicit StoreView(const PagedStore* store)
      : store_(store), layout_(store->layout()) {}

  size_t size() const { return list_ != nullptr ? list_->size() : store_->size(); }
  bool empty() const { return size() == 0; }
  int dims() const { return layout_.dims; }
  const PageLayout& layout() const { return layout_; }
  bool paged() const { return store_ != nullptr; }
  const ResultList* list() const { return list_; }
  const PagedStore* paged_store() const { return store_; }

 private:
  const ResultList* list_ = nullptr;
  const PagedStore* store_ = nullptr;
  PageLayout layout_;
};

/// \brief Stateful reader over a `StoreView`.
///
/// Random access API (`f(i)`, `row(i)`, `id(i)`); sequential use in
/// ascending `i` is the fast path. On a paged view the cursor keeps
/// exactly one page pinned — it releases the current pin before pinning
/// the next page, so any number of concurrent cursors make progress on a
/// pool of >= 2 frames — and issues deterministic read-ahead for the
/// next pages along scan order whenever it crosses a page boundary
/// moving forward. A step within the current page does no division.
/// `row(i)` returns a pointer valid until the next cursor call.
class StoreCursor {
 public:
  /// Pages of read-ahead issued when the cursor crosses into a new page.
  static constexpr size_t kPrefetchDepth = 2;

  explicit StoreCursor(const StoreView& view)
      : list_(view.list()),
        store_(view.paged_store()),
        dims_(static_cast<size_t>(view.dims())),
        points_per_page_(view.layout().points_per_page()),
        doubles_per_block_(view.layout().doubles_per_block()) {
    if (store_ != nullptr) {
      row_scratch_.resize(dims_);
    }
  }
  ~StoreCursor() { ReleasePage(); }

  StoreCursor(const StoreCursor&) = delete;
  StoreCursor& operator=(const StoreCursor&) = delete;

  double f(size_t i) {
    if (list_ != nullptr) {
      return list_->f[i];
    }
    const double* block = Block(i);
    return block[dims_ * kDomBlockWidth + i % kDomBlockWidth];
  }

  const double* row(size_t i) {
    if (list_ != nullptr) {
      return list_->points[i];
    }
    const double* block = Block(i);
    const size_t lane = i % kDomBlockWidth;
    for (size_t d = 0; d < row_scratch_.size(); ++d) {
      row_scratch_[d] = block[d * kDomBlockWidth + lane];
    }
    return row_scratch_.data();
  }

  PointId id(size_t i) {
    if (list_ != nullptr) {
      return list_->points.id(i);
    }
    const double* block = Block(i);
    PointId id;
    std::memcpy(&id,
                &block[(dims_ + 1) * kDomBlockWidth + i % kDomBlockWidth],
                sizeof(PointId));
    return id;
  }

 private:
  static constexpr size_t kNoPage = ~size_t{0};

  /// Pointer to the 8-wide block holding point `i`, pinning its page.
  const double* Block(size_t i) {
    if (i < page_first_ || i >= page_end_) {
      EnterPage(i / points_per_page_);
    }
    return page_data_ +
           ((i - page_first_) / kDomBlockWidth) * doubles_per_block_;
  }

  void EnterPage(size_t page) {
    BufferManager* buffer = store_->buffer();
    const bool forward = current_page_ == kNoPage || page > current_page_;
    ReleasePage();
    page_data_ =
        reinterpret_cast<const double*>(buffer->Pin(store_->page_id(page)));
    current_page_ = page;
    page_first_ = page * points_per_page_;
    page_end_ = page_first_ + points_per_page_;
    if (forward) {
      const size_t last = std::min(page + kPrefetchDepth,
                                   store_->num_pages() - 1);
      for (size_t next = page + 1; next <= last; ++next) {
        buffer->Prefetch(store_->page_id(next));
      }
    }
  }

  void ReleasePage() {
    if (current_page_ != kNoPage) {
      store_->buffer()->Unpin(store_->page_id(current_page_));
      current_page_ = kNoPage;
      page_first_ = page_end_ = 0;
      page_data_ = nullptr;
    }
  }

  const ResultList* list_ = nullptr;
  const PagedStore* store_ = nullptr;
  size_t dims_;
  size_t points_per_page_;
  size_t doubles_per_block_;
  size_t current_page_ = kNoPage;
  // Points [page_first_, page_end_) lie on the pinned page; empty when
  // none is pinned.
  size_t page_first_ = 0;
  size_t page_end_ = 0;
  const double* page_data_ = nullptr;
  std::vector<double> row_scratch_;
};

}  // namespace skypeer

#endif  // SKYPEER_STORAGE_STORE_VIEW_H_
