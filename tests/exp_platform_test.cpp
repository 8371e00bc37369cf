/// exp::Platform::builtin builds each built-in snapshot once per process and
/// hands every caller the same one. Labelled `concurrency`: under TSan the
/// first-use race below covers the function-local static initialisation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rispp/exp/platform.hpp"

namespace {

using rispp::exp::Platform;

constexpr int kThreads = 8;

TEST(PlatformBuiltin, ConcurrentFirstUseSharesOneSnapshot) {
  // Each ctest case runs in its own process, so these calls race on the
  // very first construction of every built-in.
  for (const auto& name : Platform::builtin_names()) {
    SCOPED_TRACE(name);
    std::vector<const Platform*> seen(kThreads, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        seen[t] = Platform::builtin(name).get();
      });
    for (auto& thread : threads) thread.join();
    const auto* first = Platform::builtin(name).get();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->name(), name);
    for (const auto* p : seen) EXPECT_EQ(p, first);
  }
}

TEST(PlatformBuiltin, SnapshotOutlivesEveryHandle) {
  const Platform* first = nullptr;
  {
    const auto handle = Platform::builtin("h264");
    first = handle.get();
  }
  // The cache keeps its own reference: dropping every caller's handle does
  // not destroy the snapshot, and the next call returns the same one.
  const auto again = Platform::builtin("h264");
  EXPECT_EQ(again.get(), first);
  EXPECT_EQ(again->library().size(), 4u);
}

}  // namespace
