// Tests of the paged-store subsystem: `PageLayout` geometry and logical
// page charging, the pinning `BufferManager` (residency, deterministic
// second-chance eviction, write-once pages, prefetch), `PagedStore`
// round-trips, and the property that a `StoreCursor` over a paged store
// enumerates exactly the `ResultList` order — for random sizes including
// non-multiples of the 8-wide block and several page sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/page_layout.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {
namespace {

// --- PageLayout geometry ----------------------------------------------------

TEST(PageLayout, BlockAndPageGeometry) {
  // dims=6: a block is (6+2)*8 doubles = 512 bytes, so a 4 KiB page
  // holds 8 blocks = 64 points.
  const PageLayout six(4096, 6);
  EXPECT_EQ(six.bytes_per_block(), 512u);
  EXPECT_EQ(six.doubles_per_block(), 64u);
  EXPECT_EQ(six.blocks_per_page(), 8u);
  EXPECT_EQ(six.points_per_page(), 64u);

  // dims=4: 384-byte blocks do not divide 4096 — the page-tail slack
  // (4096 - 10*384 = 256 bytes) is simply unused.
  const PageLayout four(4096, 4);
  EXPECT_EQ(four.bytes_per_block(), 384u);
  EXPECT_EQ(four.blocks_per_page(), 10u);
  EXPECT_EQ(four.points_per_page(), 80u);

  EXPECT_EQ(four.PagesForPoints(0), 0u);
  EXPECT_EQ(four.PagesForPoints(1), 1u);
  EXPECT_EQ(four.PagesForPoints(80), 1u);
  EXPECT_EQ(four.PagesForPoints(81), 2u);
  EXPECT_EQ(four.PagesForPoints(801), 11u);
}

TEST(PageLayout, ScanExaminedCountsTheRejectedProbe) {
  // A threshold scan that stops early reads one rejected f past the
  // consumed prefix; a scan that exhausts the store does not.
  EXPECT_EQ(ScanExamined(100, 10), 11u);
  EXPECT_EQ(ScanExamined(100, 100), 100u);
  EXPECT_EQ(ScanExamined(60, 60), 60u);
  EXPECT_EQ(ScanExamined(60, 0), 1u);
  EXPECT_EQ(ScanExamined(0, 0), 0u);
}

TEST(PageLayout, ChargeScanPagesSpansTheExaminedPrefix) {
  const PageLayout layout(4096, 6);  // 64 points per page.
  OpCounts ops;

  // Nothing examined: nothing charged.
  ChargeScanPages(layout, 0, 0, &ops);
  EXPECT_EQ(ops.page_reads, 0u);
  EXPECT_EQ(ops.page_bytes, 0u);

  // 10 consumed + 1 probe, all inside page 0.
  ChargeScanPages(layout, 1000, 10, &ops);
  EXPECT_EQ(ops.page_reads, 1u);
  EXPECT_EQ(ops.page_bytes, 4096u);

  // 63 consumed + probe at position 63: still one page.
  ops = OpCounts();
  ChargeScanPages(layout, 1000, 63, &ops);
  EXPECT_EQ(ops.page_reads, 1u);

  // 64 consumed + probe at position 64: crosses into page 1.
  ops = OpCounts();
  ChargeScanPages(layout, 1000, 64, &ops);
  EXPECT_EQ(ops.page_reads, 2u);

  // An exhausted store has no probe past its end.
  ops = OpCounts();
  ChargeScanPages(layout, 128, 128, &ops);
  EXPECT_EQ(ops.page_reads, 2u);

  // A prefix ending mid-page pays that whole page.
  ops = OpCounts();
  ChargeScanPages(layout, 128, 66, &ops);
  EXPECT_EQ(ops.page_reads, 2u);
  EXPECT_EQ(ops.page_bytes, 2u * 4096u);
}

// --- BufferManager ----------------------------------------------------------

std::vector<std::byte> PatternPage(size_t page_size, uint8_t seed) {
  std::vector<std::byte> bytes(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    bytes[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return bytes;
}

TEST(BufferManager, PinReadsBackWrittenPages) {
  BufferManager buffer(4096, 4);
  std::vector<uint64_t> pages;
  for (uint8_t p = 0; p < 3; ++p) {
    const uint64_t id = buffer.AllocatePage();
    buffer.WritePage(id, PatternPage(4096, p).data());
    pages.push_back(id);
  }
  for (uint8_t p = 0; p < 3; ++p) {
    const std::byte* data = buffer.Pin(pages[p]);
    EXPECT_EQ(std::memcmp(data, PatternPage(4096, p).data(), 4096), 0)
        << "page " << int{p};
    buffer.Unpin(pages[p]);
  }
  BufferManager::Stats stats = buffer.stats();
  EXPECT_EQ(stats.pages_written, 3u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);

  // Re-pinning resident pages is a hit, no read.
  for (uint64_t id : pages) {
    buffer.Pin(id);
    buffer.Unpin(id);
  }
  stats = buffer.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(BufferManager, EvictsUnpinnedPagesAndReloadsThemCorrectly) {
  // 2 frames, 4 pages: streaming through them forces evictions, and a
  // reloaded page must carry its original bytes.
  BufferManager buffer(4096, 2);
  std::vector<uint64_t> pages;
  for (uint8_t p = 0; p < 4; ++p) {
    const uint64_t id = buffer.AllocatePage();
    buffer.WritePage(id, PatternPage(4096, p).data());
    pages.push_back(id);
  }
  for (int round = 0; round < 3; ++round) {
    for (uint8_t p = 0; p < 4; ++p) {
      const std::byte* data = buffer.Pin(pages[p]);
      EXPECT_EQ(std::memcmp(data, PatternPage(4096, p).data(), 4096), 0)
          << "round " << round << " page " << int{p};
      buffer.Unpin(pages[p]);
    }
  }
  const BufferManager::Stats stats = buffer.stats();
  // Every pin of this access pattern misses (4 pages cycling through 2
  // frames), and each miss after the pool filled evicts.
  EXPECT_EQ(stats.misses, 12u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 10u);
}

TEST(BufferManager, EvictionIsDeterministic) {
  // The second-chance sweep is a pure function of the pin/unpin
  // sequence: two managers fed the same operations report the same
  // statistics.
  auto run = [] {
    BufferManager buffer(4096, 3);
    std::vector<uint64_t> pages;
    for (uint8_t p = 0; p < 6; ++p) {
      const uint64_t id = buffer.AllocatePage();
      buffer.WritePage(id, PatternPage(4096, p).data());
      pages.push_back(id);
    }
    // A mixed pattern with re-references.
    const size_t order[] = {0, 1, 2, 0, 3, 4, 0, 5, 1, 2, 3};
    for (size_t i : order) {
      buffer.Pin(pages[i]);
      buffer.Unpin(pages[i]);
    }
    return buffer.stats();
  };
  const BufferManager::Stats a = run();
  const BufferManager::Stats b = run();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.hits + a.misses, 11u);
}

TEST(BufferManager, DroppedPageOffsetIsReusedWithoutStaleReads) {
  // Dropping a resident page frees its file offset; a new page written
  // over the same offset must read back its own bytes, and the dropped
  // id is gone from the pool (ids are never recycled).
  BufferManager buffer(4096, 2);
  const uint64_t old_id = buffer.AllocatePage();
  buffer.WritePage(old_id, PatternPage(4096, 7).data());
  buffer.Pin(old_id);
  buffer.Unpin(old_id);
  buffer.DropPage(old_id);

  const uint64_t new_id = buffer.AllocatePage();
  EXPECT_NE(new_id, old_id);
  buffer.WritePage(new_id, PatternPage(4096, 9).data());
  const std::byte* data = buffer.Pin(new_id);
  EXPECT_EQ(std::memcmp(data, PatternPage(4096, 9).data(), 4096), 0);
  buffer.Unpin(new_id);
}

TEST(BufferManager, PrefetchedPageServesAHit) {
  // Deterministic prefetch-hit: ThreadPool(2) runs one worker draining
  // a FIFO queue, so a marker task submitted after Prefetch completes
  // only after the prefetch read finished — the following Pin must be
  // served from the prefetched frame without a read.
  ThreadPool pool(2);
  BufferManager buffer(4096, 4, &pool);
  const uint64_t id = buffer.AllocatePage();
  buffer.WritePage(id, PatternPage(4096, 3).data());

  buffer.Prefetch(id);
  pool.Submit([] {}).get();  // Barrier: the prefetch read has completed.

  const std::byte* data = buffer.Pin(id);
  EXPECT_EQ(std::memcmp(data, PatternPage(4096, 3).data(), 4096), 0);
  buffer.Unpin(id);

  const BufferManager::Stats stats = buffer.stats();
  EXPECT_EQ(stats.prefetches_issued, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(BufferManager, PinClaimsAQueuedPrefetch) {
  // A Pin that catches up with a still-queued prefetch performs the read
  // itself instead of waiting on pool scheduling. Block the pool's one
  // worker so the prefetch task cannot run before the Pin (ThreadPool(1)
  // would run Submit inline on this thread and self-block).
  ThreadPool pool(2);
  BufferManager buffer(4096, 4, &pool);
  const uint64_t id = buffer.AllocatePage();
  buffer.WritePage(id, PatternPage(4096, 5).data());

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = pool.Submit([released] { released.wait(); });

  buffer.Prefetch(id);  // Queued behind the blocker.
  const std::byte* data = buffer.Pin(id);
  EXPECT_EQ(std::memcmp(data, PatternPage(4096, 5).data(), 4096), 0);
  buffer.Unpin(id);
  release.set_value();
  blocker.get();

  const BufferManager::Stats stats = buffer.stats();
  EXPECT_EQ(stats.prefetches_issued, 1u);
  EXPECT_EQ(stats.prefetch_hits, 0u);  // Claimed, not served.
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BufferManager, PinWaitsForAFrameWhenAllArePinned) {
  // With every frame pinned, a Pin of a non-resident page blocks until
  // an Unpin frees capacity — the cursors' release-before-next-pin
  // discipline guarantees this always happens.
  BufferManager buffer(4096, 2);
  std::vector<uint64_t> pages;
  for (uint8_t p = 0; p < 3; ++p) {
    const uint64_t id = buffer.AllocatePage();
    buffer.WritePage(id, PatternPage(4096, p).data());
    pages.push_back(id);
  }
  buffer.Pin(pages[0]);
  buffer.Pin(pages[1]);

  std::atomic<bool> pinned{false};
  std::thread waiter([&] {
    const std::byte* data = buffer.Pin(pages[2]);
    pinned = true;
    EXPECT_EQ(std::memcmp(data, PatternPage(4096, 2).data(), 4096), 0);
    buffer.Unpin(pages[2]);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pinned.load());
  buffer.Unpin(pages[0]);
  waiter.join();
  EXPECT_TRUE(pinned.load());
  buffer.Unpin(pages[1]);
}

// --- PagedStore / StoreCursor ----------------------------------------------

/// Exact content comparison of two result lists.
void ExpectListsEqual(const ResultList& a, const ResultList& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  ASSERT_EQ(a.points.dims(), b.points.dims()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points.id(i), b.points.id(i)) << context << " index " << i;
    EXPECT_EQ(a.f[i], b.f[i]) << context << " index " << i;
    for (int d = 0; d < a.points.dims(); ++d) {
      EXPECT_EQ(a.points[i][d], b.points[i][d])
          << context << " index " << i << " dim " << d;
    }
  }
}

TEST(PagedStore, BuildMaterializeRoundTripsExactly) {
  Rng rng(11);
  BufferManager buffer(4096, 3);
  for (size_t n : {0u, 1u, 7u, 64u, 200u}) {
    const ResultList list = BuildSortedByF(GenerateUniform(5, n, &rng));
    const PagedStore store = PagedStore::Build(list, &buffer);
    EXPECT_EQ(store.size(), n);
    EXPECT_EQ(store.num_pages(), store.layout().PagesForPoints(n));
    ExpectListsEqual(store.Materialize(), list,
                     "round trip n=" + std::to_string(n));
  }
}

TEST(PagedStore, ReleaseDropsEveryPage) {
  BufferManager buffer(4096, 3);
  Rng rng(13);
  const ResultList list = BuildSortedByF(GenerateUniform(4, 300, &rng));
  PagedStore store = PagedStore::Build(list, &buffer);
  ASSERT_GT(store.num_pages(), 1u);
  store.Release();
  EXPECT_FALSE(store.valid());
  EXPECT_EQ(store.size(), 0u);
  // The freed offsets are reused: a rebuilt store reads back exactly.
  const PagedStore rebuilt = PagedStore::Build(list, &buffer);
  ExpectListsEqual(rebuilt.Materialize(), list, "rebuilt store");
}

TEST(StoreCursor, EnumeratesExactlyTheResultListOrder) {
  // The property test: for random store sizes — including sizes that are
  // not multiples of the 8-wide block or of a page — and several page
  // sizes, a cursor over the paged store returns exactly the f, id and
  // row sequence of the source `ResultList`, both in sequential order
  // and under random access, through a pool far smaller than the store.
  Rng rng(17);
  const size_t page_sizes[] = {4096, 8192, 65536};
  const int dims_choices[] = {2, 5, 9};
  for (size_t page_size : page_sizes) {
    BufferManager buffer(page_size, 2);
    for (int dims : dims_choices) {
      for (int trial = 0; trial < 3; ++trial) {
        // Sizes deliberately off-grid: never a multiple of 8 on trial 1+.
        const size_t n = 1 + rng.UniformInt(0, 400);
        const ResultList list = BuildSortedByF(GenerateUniform(dims, n, &rng));
        const PagedStore store = PagedStore::Build(list, &buffer);
        const StoreView paged(&store);
        ASSERT_EQ(paged.size(), list.size());
        ASSERT_TRUE(paged.paged());
        const std::string context = "page_size=" + std::to_string(page_size) +
                                    " dims=" + std::to_string(dims) +
                                    " n=" + std::to_string(n);

        // Sequential enumeration.
        {
          StoreCursor cursor(paged);
          for (size_t i = 0; i < list.size(); ++i) {
            EXPECT_EQ(cursor.f(i), list.f[i]) << context << " i=" << i;
            EXPECT_EQ(cursor.id(i), list.points.id(i)) << context << " i=" << i;
            const double* row = cursor.row(i);
            for (int d = 0; d < dims; ++d) {
              EXPECT_EQ(row[d], list.points[i][d])
                  << context << " i=" << i << " d=" << d;
            }
          }
        }

        // Random access (backward page moves included).
        {
          std::vector<size_t> order(list.size());
          std::iota(order.begin(), order.end(), size_t{0});
          std::shuffle(order.begin(), order.end(), rng.engine());
          StoreCursor cursor(paged);
          for (size_t i : order) {
            EXPECT_EQ(cursor.f(i), list.f[i]) << context << " i=" << i;
            EXPECT_EQ(cursor.id(i), list.points.id(i)) << context;
          }
        }

        // The in-memory view of the same list agrees index for index.
        {
          const StoreView resident(&list, page_size);
          EXPECT_EQ(resident.layout().points_per_page(),
                    paged.layout().points_per_page())
              << context;
          StoreCursor a(paged);
          StoreCursor b(resident);
          for (size_t i = 0; i < list.size(); ++i) {
            EXPECT_EQ(a.f(i), b.f(i)) << context;
            EXPECT_EQ(a.id(i), b.id(i)) << context;
          }
        }
      }
    }
  }
}

TEST(StoreCursor, ConcurrentCursorsShareATinyPool) {
  // Many cursors over the same store on a 2-frame pool: the
  // release-before-next-pin discipline keeps them all making progress.
  Rng rng(23);
  BufferManager buffer(4096, 2);
  const ResultList list = BuildSortedByF(GenerateUniform(6, 500, &rng));
  const PagedStore store = PagedStore::Build(list, &buffer);
  ASSERT_GT(store.num_pages(), 4u);

  ThreadPool pool(8);
  std::atomic<size_t> mismatches{0};
  pool.ParallelFor(8, [&](size_t worker) {
    const StoreView view(&store);
    StoreCursor cursor(view);
    // Each worker walks the whole store from a different starting page.
    const size_t start = worker * 61 % list.size();
    for (size_t step = 0; step < list.size(); ++step) {
      const size_t i = (start + step) % list.size();
      if (cursor.f(i) != list.f[i] || cursor.id(i) != list.points.id(i)) {
        ++mismatches;
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace skypeer
