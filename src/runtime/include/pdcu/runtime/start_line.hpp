// A start gate for real-thread race demonstrations: the juice robots,
// ticket clerks, gardeners and bank tellers of pdcu::act / pdcu::ext.
#pragma once

#include <atomic>
#include <thread>

namespace pdcu::rt {

/// A start line every thread leaves together: each spins (yielding) until
/// the last one arrives, so all are already running, none still waking
/// from a blocking wait, when the race begins. A std::latch releases its
/// waiters through the kernel one by one, long enough for the first
/// thread to finish a small race alone on a multi-core host.
class StartLine {
 public:
  explicit StartLine(int threads) : waiting_(threads) {}

  void arrive_and_wait() {
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<int> waiting_;
};

}  // namespace pdcu::rt
