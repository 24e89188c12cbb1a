// Twin/diff machinery: the core data-movement currency of both AEC and
// TreadMarks. A diff is a run-length encoding of the words of a page that
// differ from its twin (the pristine copy snapshotted when the page was
// first written in the current epoch).
//
// Diff creation and merging sit on the simulator's hottest host paths
// (every release, every served fetch), so the storage behind each run is
// recycled through a thread-local buffer pool: a destroyed diff donates its
// word vectors back, and create/merge/copy draw capacity from the pool
// instead of malloc. Each host thread owns its pool, and a cell's engine
// and cothreads all run on one thread, so no synchronization is needed, and
// recycled capacity never crosses threads in a racy way — the vectors
// themselves use the global allocator, the pool merely keeps them alive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace aecdsm::mem {

class Diff {
 public:
  /// A maximal run of consecutive modified words.
  struct Run {
    std::uint32_t word_offset = 0;  ///< first modified word within the page
    std::vector<Word> words;        ///< new values
  };

  Diff() = default;
  ~Diff();
  Diff(const Diff& o);
  Diff& operator=(const Diff& o);
  Diff(Diff&&) noexcept = default;
  Diff& operator=(Diff&&) noexcept = default;

  /// Encode the difference `current - twin`. Both spans must be one page.
  /// Scans in word chunks whose XOR-OR reduction the compiler vectorizes
  /// (SSE2/NEON without intrinsics); bitwise-equal to create_scalar().
  static Diff create(std::span<const Word> twin, std::span<const Word> current);

  /// Reference encoder: one word at a time, no chunking. Kept as the oracle
  /// the vectorized create() is tested (and microbenchmarked) against.
  static Diff create_scalar(std::span<const Word> twin,
                            std::span<const Word> current);

  /// Overwrite the encoded words of `page` with this diff's values.
  void apply_to(std::span<Word> page) const;

  /// Combine two diffs of the same page: where both touch a word, `newer`
  /// wins. The result covers the union of both footprints. Used by AEC at
  /// lock release to merge inherited diffs with the releaser's own.
  static Diff merge(const Diff& older, const Diff& newer);

  bool empty() const { return runs_.empty(); }

  /// Total number of encoded (modified) words.
  std::size_t changed_words() const;

  /// Wire size: per-run header (offset + length, 8 bytes) plus word data.
  /// This is the `bytes` a transfer of the diff puts on the network.
  std::size_t encoded_bytes() const;

  const std::vector<Run>& runs() const { return runs_; }

  bool operator==(const Diff& o) const;

 private:
  std::vector<Run> runs_;  ///< sorted by word_offset, non-overlapping, maximal
};

/// Thread-local recycling pool behind Run::words (exposed for tests and the
/// microbench): acquire() returns an empty vector, reusing donated capacity
/// when available; recycle() donates one back (capped, excess is freed).
namespace wordpool {
std::vector<Word> acquire();
void recycle(std::vector<Word>&& v);
/// Buffers currently parked in this thread's pool.
std::size_t parked();
}  // namespace wordpool

}  // namespace aecdsm::mem
