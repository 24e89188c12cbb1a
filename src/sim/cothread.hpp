// Cooperative thread: a fiber that runs only when the simulation engine
// explicitly hands it control, and always hands control back before the
// engine proceeds. The fiber lives on the engine's own OS thread, so at any
// instant at most one cooperative thread (or the engine itself) is running,
// which makes the simulation deterministic while letting application code
// keep its natural sequential structure — the same contract Mint gave the
// original paper's workloads.
//
// Each fiber owns an mmap'd stack of kStackBytes with one PROT_NONE guard
// page below it, so a runaway recursion faults instead of overwriting a
// neighbour's stack. Switches go through glibc swapcontext. Under ASan and
// TSan the switches are annotated (selected at compile time), so both
// sanitizers follow the fiber stacks like thread stacks.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace aecdsm::sim {

/// Thrown inside a cooperative thread when the engine tears it down early
/// (e.g., a failed run being unwound). Body code should not catch it.
struct CoThreadCancelled {};

class CoThread {
 public:
  /// Usable stack of every cothread. Reserved with MAP_NORESERVE, so only
  /// the pages a body actually touches cost memory.
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;

  /// The body starts suspended; nothing runs until the first resume().
  explicit CoThread(std::function<void()> body);

  /// If the body has started but not finished, it is cancelled: resumed
  /// once more so that yield_to_engine() throws CoThreadCancelled and the
  /// body's stack unwinds. A body that never started never runs.
  ~CoThread();

  CoThread(const CoThread&) = delete;
  CoThread& operator=(const CoThread&) = delete;

  /// Engine side: run the body until it yields or finishes. If the body
  /// exited with an exception, it is rethrown here on the engine side.
  void resume();

  /// Body side: suspend and return control to the engine. Throws
  /// CoThreadCancelled if the engine is tearing the cothread down.
  void yield_to_engine();

  bool finished() const { return finished_; }

 private:
  static void entry(unsigned hi, unsigned lo);
  [[noreturn]] void run_body();
  void switch_in();
  void switch_out(bool exiting);

  std::function<void()> body_;
  ucontext_t engine_ctx_{};  // zeroed uc_stack: ASan's swapcontext hook reads it
  ucontext_t fiber_ctx_{};
  void* mapping_ = nullptr;  ///< guard page, then the stack
  bool started_ = false;
  bool finished_ = false;
  bool cancel_ = false;
  std::exception_ptr error_;

  // Sanitizer bookkeeping; unused unless built with ASan or TSan.
  void* fiber_fake_stack_ = nullptr;
  const void* engine_stack_ = nullptr;
  std::size_t engine_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_engine_ = nullptr;
};

}  // namespace aecdsm::sim
