#ifndef SKYPEER_STORAGE_PAGED_STORE_H_
#define SKYPEER_STORAGE_PAGED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/page_layout.h"

namespace skypeer {

/// \brief An immutable f-sorted store spilled to pages (see `PageLayout`)
/// owned by a `BufferManager`.
///
/// Built once from a `ResultList` (write-through, no frames consumed),
/// then read through `StoreCursor` pins. Rebuilding a super-peer's store
/// after churn builds a new `PagedStore` with freshly allocated page ids
/// and releases the old pages — stale frames are unreachable by
/// construction because page ids are never recycled.
class PagedStore {
 public:
  PagedStore() = default;
  ~PagedStore() { Release(); }

  PagedStore(PagedStore&& other) noexcept { *this = std::move(other); }
  PagedStore& operator=(PagedStore&& other) noexcept {
    if (this != &other) {
      Release();
      buffer_ = other.buffer_;
      layout_ = other.layout_;
      size_ = other.size_;
      pages_ = std::move(other.pages_);
      other.buffer_ = nullptr;
      other.size_ = 0;
      other.pages_.clear();
    }
    return *this;
  }

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  /// Spills `list` (f-sorted) into freshly allocated pages of `buffer`.
  static PagedStore Build(const ResultList& list, BufferManager* buffer);

  bool valid() const { return buffer_ != nullptr; }
  size_t size() const { return size_; }
  int dims() const { return layout_.dims; }
  const PageLayout& layout() const { return layout_; }
  size_t num_pages() const { return pages_.size(); }
  uint64_t page_id(size_t page_index) const { return pages_[page_index]; }
  BufferManager* buffer() const { return buffer_; }

  /// Reads the whole store back into memory (persistence, cloning and
  /// churn-merge inputs). Bit-exact inverse of `Build`.
  ResultList Materialize() const;

  /// Drops every page and detaches from the buffer manager.
  void Release();

 private:
  BufferManager* buffer_ = nullptr;
  PageLayout layout_;
  size_t size_ = 0;
  std::vector<uint64_t> pages_;
};

}  // namespace skypeer

#endif  // SKYPEER_STORAGE_PAGED_STORE_H_
