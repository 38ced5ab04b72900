/// run_on_stack(): runs a test body on a thread with a small stack, so a
/// walk that takes a stack frame per model level overflows there instead
/// of passing on the default 8 MiB main-thread stack.

#pragma once

#include <gtest/gtest.h>
#include <pthread.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace adtp {

/// Runs \p body on a new thread with a \p stack_bytes stack and rethrows
/// what it throws.
inline void run_on_stack(std::size_t stack_bytes,
                         const std::function<void()>& body) {
  struct Call {
    const std::function<void()>* body;
    std::exception_ptr error;
  } call{&body, nullptr};
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  const int created = pthread_create(
      &thread, &attr,
      [](void* arg) -> void* {
        auto* c = static_cast<Call*>(arg);
        try {
          (*c->body)();
        } catch (...) {
          c->error = std::current_exception();
        }
        return nullptr;
      },
      &call);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(created, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  if (call.error) std::rethrow_exception(call.error);
}

}  // namespace adtp
