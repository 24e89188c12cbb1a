#include "sim/cothread.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define AECDSM_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define AECDSM_TSAN_FIBERS 1
#endif

namespace aecdsm::sim {

namespace {

std::size_t guard_bytes() {
  static const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Lowest usable stack address of a mapping: just above its guard page.
char* stack_bottom(void* mapping) { return static_cast<char*>(mapping) + guard_bytes(); }

}  // namespace

CoThread::CoThread(std::function<void()> body) : body_(std::move(body)) {
  AECDSM_CHECK(getcontext(&fiber_ctx_) == 0);
  const std::size_t guard = guard_bytes();
  void* m = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  AECDSM_CHECK_MSG(m != MAP_FAILED, "cothread stack mmap failed");
  if (mprotect(m, guard, PROT_NONE) != 0) {
    munmap(m, guard + kStackBytes);
    AECDSM_CHECK_MSG(false, "cothread guard page mprotect failed");
  }
  mapping_ = m;
  fiber_ctx_.uc_stack.ss_sp = stack_bottom(m);
  fiber_ctx_.uc_stack.ss_size = kStackBytes;
  fiber_ctx_.uc_link = nullptr;
  // makecontext passes int-sized arguments only: split the pointer.
  const auto self = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&fiber_ctx_, reinterpret_cast<void (*)()>(&CoThread::entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
#ifdef AECDSM_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

CoThread::~CoThread() {
  if (started_) {
    // Unwind a suspended body: every yield now throws CoThreadCancelled.
    cancel_ = true;
    while (!finished_) switch_in();
  }
#ifdef AECDSM_TSAN_FIBERS
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#ifdef AECDSM_ASAN_FIBERS
  // Frames abandoned by the final switch leave poisoned shadow behind; the
  // next mapping at this address must start clean.
  __asan_unpoison_memory_region(stack_bottom(mapping_), kStackBytes);
#endif
  munmap(mapping_, guard_bytes() + kStackBytes);
}

void CoThread::entry(unsigned hi, unsigned lo) {
  const std::uint64_t self = (static_cast<std::uint64_t>(hi) << 32) | lo;
  reinterpret_cast<CoThread*>(static_cast<std::uintptr_t>(self))->run_body();
}

void CoThread::run_body() {
#ifdef AECDSM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &engine_stack_, &engine_stack_bytes_);
#endif
  try {
    body_();
  } catch (const CoThreadCancelled&) {
    // Clean teardown path.
  } catch (...) {
    error_ = std::current_exception();
  }
  finished_ = true;
  switch_out(/*exiting=*/true);
  std::abort();  // a finished cothread is never switched back in
}

void CoThread::switch_in() {
#ifdef AECDSM_ASAN_FIBERS
  void* engine_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&engine_fake_stack, stack_bottom(mapping_), kStackBytes);
#endif
#ifdef AECDSM_TSAN_FIBERS
  tsan_engine_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&engine_ctx_, &fiber_ctx_);
#ifdef AECDSM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(engine_fake_stack, nullptr, nullptr);
#endif
}

void CoThread::switch_out(bool exiting) {
#ifdef AECDSM_ASAN_FIBERS
  // A null save slot tells ASan this fiber's fake stack can be destroyed.
  __sanitizer_start_switch_fiber(exiting ? nullptr : &fiber_fake_stack_, engine_stack_,
                                 engine_stack_bytes_);
#else
  (void)exiting;
#endif
#ifdef AECDSM_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_engine_, 0);
#endif
  swapcontext(&fiber_ctx_, &engine_ctx_);
#ifdef AECDSM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &engine_stack_,
                                  &engine_stack_bytes_);
#endif
}

void CoThread::resume() {
  AECDSM_CHECK_MSG(!finished_, "resume() on a finished CoThread");
  started_ = true;
  switch_in();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void CoThread::yield_to_engine() {
  switch_out(/*exiting=*/false);
  if (cancel_) throw CoThreadCancelled{};
}

}  // namespace aecdsm::sim
