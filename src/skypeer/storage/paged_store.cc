#include "skypeer/storage/paged_store.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "skypeer/common/macros.h"

namespace skypeer {

PagedStore PagedStore::Build(const ResultList& list, BufferManager* buffer) {
  SKYPEER_CHECK(buffer != nullptr);
  PagedStore store;
  store.buffer_ = buffer;
  store.layout_ = PageLayout(buffer->page_size(), list.points.dims());
  store.size_ = list.size();
  const PageLayout& layout = store.layout_;
  const size_t dims = static_cast<size_t>(layout.dims);
  const size_t num_pages = layout.PagesForPoints(store.size_);
  store.pages_.reserve(num_pages);

  constexpr double kPad = std::numeric_limits<double>::infinity();
  std::vector<double> page(layout.page_size / sizeof(double));
  for (size_t p = 0; p < num_pages; ++p) {
    std::fill(page.begin(), page.end(), 0.0);
    for (size_t b = 0; b < layout.blocks_per_page(); ++b) {
      double* block = page.data() + b * layout.doubles_per_block();
      for (size_t lane = 0; lane < kDomBlockWidth; ++lane) {
        const size_t i =
            p * layout.points_per_page() + b * kDomBlockWidth + lane;
        if (i < store.size_) {
          const double* row = list.points[i];
          for (size_t d = 0; d < dims; ++d) {
            block[d * kDomBlockWidth + lane] = row[d];
          }
          block[dims * kDomBlockWidth + lane] = list.f[i];
          const PointId id = list.points.id(i);
          std::memcpy(&block[(dims + 1) * kDomBlockWidth + lane], &id,
                      sizeof(PointId));
        } else {
          for (size_t d = 0; d <= dims; ++d) {
            block[d * kDomBlockWidth + lane] = kPad;
          }
          const PointId id = ~PointId{0};
          std::memcpy(&block[(dims + 1) * kDomBlockWidth + lane], &id,
                      sizeof(PointId));
        }
      }
    }
    const uint64_t page_id = buffer->AllocatePage();
    buffer->WritePage(page_id, page.data());
    store.pages_.push_back(page_id);
  }
  return store;
}

ResultList PagedStore::Materialize() const {
  ResultList out(layout_.dims);
  out.points.Reserve(size_);
  out.f.reserve(size_);
  const size_t dims = static_cast<size_t>(layout_.dims);
  std::vector<double> row(dims);
  for (size_t p = 0; p < pages_.size(); ++p) {
    const double* page =
        reinterpret_cast<const double*>(buffer_->Pin(pages_[p]));
    const size_t first = p * layout_.points_per_page();
    const size_t count =
        std::min(layout_.points_per_page(), size_ - first);
    for (size_t local = 0; local < count; ++local) {
      const double* block =
          page + (local / kDomBlockWidth) * layout_.doubles_per_block();
      const size_t lane = local % kDomBlockWidth;
      for (size_t d = 0; d < dims; ++d) {
        row[d] = block[d * kDomBlockWidth + lane];
      }
      PointId id;
      std::memcpy(&id, &block[(dims + 1) * kDomBlockWidth + lane],
                  sizeof(PointId));
      out.points.Append(row.data(), id);
      out.f.push_back(block[dims * kDomBlockWidth + lane]);
    }
    buffer_->Unpin(pages_[p]);
  }
  return out;
}

void PagedStore::Release() {
  if (buffer_ == nullptr) {
    return;
  }
  for (uint64_t page_id : pages_) {
    buffer_->DropPage(page_id);
  }
  pages_.clear();
  buffer_ = nullptr;
  size_ = 0;
}

}  // namespace skypeer
