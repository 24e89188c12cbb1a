#include "mem/diff.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "common/check.hpp"

namespace aecdsm::mem {

namespace wordpool {
namespace {

/// Thread-local free list. Function-local so each host thread that runs
/// cells gets its own on first use and tears it down at thread exit; no Diff
/// outlives its thread's pool (a cell is built, run and destroyed on one
/// thread, and its cothreads are fibers on that same thread).
struct Pool {
  std::vector<std::vector<Word>> free;
};

Pool& pool() {
  static thread_local Pool p;
  return p;
}

/// Parked-buffer cap: diffs at peak concurrency stay bounded, so a small
/// cap captures nearly all reuse while bounding idle memory.
constexpr std::size_t kMaxParked = 256;

}  // namespace

std::vector<Word> acquire() {
  Pool& p = pool();
  if (p.free.empty()) return {};
  std::vector<Word> v = std::move(p.free.back());
  p.free.pop_back();
  v.clear();
  return v;
}

void recycle(std::vector<Word>&& v) {
  if (v.capacity() == 0) return;
  Pool& p = pool();
  if (p.free.size() >= kMaxParked) return;  // excess capacity is just freed
  p.free.push_back(std::move(v));
}

std::size_t parked() { return pool().free.size(); }

}  // namespace wordpool

Diff::~Diff() {
  for (Run& r : runs_) wordpool::recycle(std::move(r.words));
}

Diff::Diff(const Diff& o) {
  runs_.reserve(o.runs_.size());
  for (const Run& r : o.runs_) {
    Run copy;
    copy.word_offset = r.word_offset;
    copy.words = wordpool::acquire();
    copy.words.assign(r.words.begin(), r.words.end());
    runs_.push_back(std::move(copy));
  }
}

Diff& Diff::operator=(const Diff& o) {
  if (this == &o) return *this;
  Diff copy(o);
  *this = std::move(copy);
  return *this;
}

Diff Diff::create(std::span<const Word> twin, std::span<const Word> current) {
  AECDSM_CHECK_MSG(twin.size() == current.size(),
                   "twin/page size mismatch: " << twin.size() << " vs " << current.size());
  Diff d;
  const std::size_t n = twin.size();
  const Word* const t = twin.data();
  const Word* const c = current.data();
  // Fixed-width chunks whose XOR-OR reduction (clean test) and != -AND
  // reduction (dirty test) compile to branch-free vector compares on any
  // SIMD ISA the compiler targets. Chunks are positional, not aligned:
  // unaligned 32-byte loads are cheap everywhere that matters.
  constexpr std::size_t K = 8;
  std::size_t i = 0;
  while (i < n) {
    // Skip clean chunks (pages are mostly clean in practice).
    while (i + K <= n) {
      Word acc = 0;
      for (std::size_t j = 0; j < K; ++j) acc |= t[i + j] ^ c[i + j];
      if (acc != 0) break;
      i += K;
    }
    while (i < n && t[i] == c[i]) ++i;  // tail / position within dirty chunk
    if (i >= n) break;
    const std::size_t start = i;
    // Extend the run: whole-dirty chunks first, then the word boundary.
    while (i + K <= n) {
      bool all = true;
      for (std::size_t j = 0; j < K; ++j) all &= (t[i + j] != c[i + j]);
      if (!all) break;
      i += K;
    }
    while (i < n && t[i] != c[i]) ++i;
    Run run;
    run.word_offset = static_cast<std::uint32_t>(start);
    run.words = wordpool::acquire();
    run.words.assign(c + start, c + i);
    d.runs_.push_back(std::move(run));
  }
  return d;
}

Diff Diff::create_scalar(std::span<const Word> twin,
                         std::span<const Word> current) {
  AECDSM_CHECK_MSG(twin.size() == current.size(),
                   "twin/page size mismatch: " << twin.size() << " vs " << current.size());
  Diff d;
  const std::size_t n = twin.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && twin[i] == current[i]) ++i;
    if (i >= n) break;
    const std::size_t start = i;
    while (i < n && twin[i] != current[i]) ++i;
    Run run;
    run.word_offset = static_cast<std::uint32_t>(start);
    run.words.assign(current.begin() + static_cast<std::ptrdiff_t>(start),
                     current.begin() + static_cast<std::ptrdiff_t>(i));
    d.runs_.push_back(std::move(run));
  }
  return d;
}

void Diff::apply_to(std::span<Word> page) const {
  for (const Run& run : runs_) {
    AECDSM_CHECK_MSG(run.word_offset + run.words.size() <= page.size(),
                     "diff run exceeds page bounds");
    std::copy(run.words.begin(), run.words.end(),
              page.begin() + run.word_offset);
  }
}

Diff Diff::merge(const Diff& older, const Diff& newer) {
  // Linear two-pointer merge over the sorted run lists: both sides are
  // walked word-position by word-position, newer winning where the
  // footprints overlap. O(changed words) with no intermediate
  // materialization — this sits on the lock-release hot path.
  Diff out;
  Run current;
  bool open = false;
  std::uint32_t expected = 0;
  auto emit = [&](std::uint32_t off, Word w) {
    if (open && off == expected) {
      current.words.push_back(w);
    } else {
      if (open) out.runs_.push_back(std::move(current));
      current = Run{};
      current.word_offset = off;
      current.words = wordpool::acquire();
      current.words.push_back(w);
      open = true;
    }
    expected = off + 1;
  };

  const std::vector<Run>& a = older.runs_;
  const std::vector<Run>& b = newer.runs_;
  std::size_t ai = 0, aw = 0;  // run index / word index within the run
  std::size_t bi = 0, bw = 0;
  while (ai < a.size() || bi < b.size()) {
    const bool has_a = ai < a.size();
    const bool has_b = bi < b.size();
    const std::uint32_t pa =
        has_a ? a[ai].word_offset + static_cast<std::uint32_t>(aw) : 0;
    const std::uint32_t pb =
        has_b ? b[bi].word_offset + static_cast<std::uint32_t>(bw) : 0;
    const bool take_a = has_a && (!has_b || pa <= pb);
    const bool take_b = has_b && (!has_a || pb <= pa);
    if (take_b) {
      emit(pb, b[bi].words[bw]);  // where both cover a word, newer wins
      if (++bw == b[bi].words.size()) { ++bi; bw = 0; }
    } else {
      emit(pa, a[ai].words[aw]);
    }
    if (take_a) {
      if (++aw == a[ai].words.size()) { ++ai; aw = 0; }
    }
  }
  if (open) out.runs_.push_back(std::move(current));
  return out;
}

std::size_t Diff::changed_words() const {
  std::size_t n = 0;
  for (const Run& run : runs_) n += run.words.size();
  return n;
}

std::size_t Diff::encoded_bytes() const {
  std::size_t bytes = 0;
  for (const Run& run : runs_) bytes += 8 + run.words.size() * kWordBytes;
  return bytes;
}

bool Diff::operator==(const Diff& o) const {
  if (runs_.size() != o.runs_.size()) return false;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].word_offset != o.runs_[i].word_offset) return false;
    if (runs_[i].words != o.runs_[i].words) return false;
  }
  return true;
}

}  // namespace aecdsm::mem
