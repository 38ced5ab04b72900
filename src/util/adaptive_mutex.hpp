/// \file adaptive_mutex.hpp
/// \brief A mutex that spins briefly before it sleeps, for the short
///        critical sections of the serving read path.
///
/// A contended std::mutex puts the waiter to sleep at once, and the
/// unlock that ends the wait costs a futex wake-up; on a virtual
/// machine, waking a thread on an idle CPU takes tens of microseconds.
/// The LRU caches (util/lru_cache.hpp) and the store's bookkeeping hold
/// their locks for well under that, so a waiter whose holder is running
/// is better off retrying for a moment. AdaptiveMutex retries
/// try_lock() kSpins times, pausing the CPU between tries, and only then
/// blocks, so a holder that was preempted or sits in I/O still costs
/// its waiters no CPU beyond the spin.

#pragma once

#include <mutex>

namespace adtp {

/// A std::mutex whose lock() spins on try_lock() before it blocks.
/// Meets the Lockable requirements (std::lock_guard, std::unique_lock).
class AdaptiveMutex {
 public:
  /// Tries before blocking: a few microseconds of pause instructions.
  static constexpr int kSpins = 128;

  void lock() {
    for (int spin = 0; spin < kSpins; ++spin) {
      if (mutex_.try_lock()) return;
      cpu_relax();
    }
    mutex_.lock();
  }
  [[nodiscard]] bool try_lock() { return mutex_.try_lock(); }
  void unlock() { mutex_.unlock(); }

 private:
  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mutex_;
};

}  // namespace adtp
