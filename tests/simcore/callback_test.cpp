#include "simcore/callback.h"

#include <array>
#include <functional>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

namespace conscale {
namespace {

/// Counts live copies of itself: every construction adds one, every
/// destruction removes one, so a leak or a double destroy shows as a
/// non-zero balance.
struct Tracked {
  explicit Tracked(int* counter) : live(counter) { ++*live; }
  Tracked(const Tracked& other) : live(other.live) { ++*live; }
  Tracked(Tracked&& other) noexcept : live(other.live) { ++*live; }
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() { --*live; }
  int* live;
};

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() const {}
};

struct alignas(32) OverAligned {
  void operator()() const {}
};

TEST(Callback, EmptyByDefaultAndFromNull) {
  Callback a;
  Callback b = nullptr;
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(a.is_inline());
  EXPECT_THROW(a(), std::bad_function_call);
}

TEST(Callback, EmptyStdFunctionAndNullPointerStayEmpty) {
  std::function<void()> empty;
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(Callback(empty));
  EXPECT_FALSE(Callback(null_fn));
  EXPECT_TRUE(Callback(std::function<void()>([] {})));
}

TEST(Callback, StorageChosenBySizeAlignmentAndNothrowMove) {
  struct Fits {
    void* a;
    void* b;
    void* c;
    void* d;
    void operator()() const {}
  };
  struct TooBig {
    std::array<char, 33> bytes;
    void operator()() const {}
  };
  static_assert(Callback::stores_inline<Fits>);
  static_assert(!Callback::stores_inline<TooBig>);
  static_assert(!Callback::stores_inline<OverAligned>);
  static_assert(!Callback::stores_inline<ThrowingMove>);
  // A forwarded std::function (32 bytes, nothrow move) rides inline.
  static_assert(Callback::stores_inline<std::function<void()>>);

  EXPECT_TRUE(Callback(Fits{}).is_inline());
  EXPECT_FALSE(Callback(TooBig{}).is_inline());
  EXPECT_FALSE(Callback(OverAligned{}).is_inline());
  EXPECT_FALSE(Callback(ThrowingMove{}).is_inline());
}

TEST(Callback, InvokesInlineAndHeapTargets) {
  int calls = 0;
  Callback small([&calls] { ++calls; });
  std::array<int, 16> big{};
  big[15] = 5;
  Callback large([&calls, big] { calls += big[15]; });
  ASSERT_TRUE(small.is_inline());
  ASSERT_FALSE(large.is_inline());
  small();
  large();
  EXPECT_EQ(calls, 6);
}

TEST(Callback, MoveOnlyCapture) {
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  Callback cb([p = std::move(owned), &seen] { seen = ++*p; });
  ASSERT_TRUE(cb.is_inline());
  Callback moved = std::move(cb);
  EXPECT_FALSE(cb);  // a moved-from Callback is empty
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(Callback, CaptureDestroyedExactlyOnceInline) {
  int live = 0;
  {
    Callback a([t = Tracked(&live)] { (void)t; });
    ASSERT_TRUE(a.is_inline());
    EXPECT_EQ(live, 1);
    Callback b(std::move(a));  // move-construct
    EXPECT_EQ(live, 1);
    Callback c([t = Tracked(&live)] { (void)t; });
    EXPECT_EQ(live, 2);
    c = std::move(b);  // move-assign over a live callable
    EXPECT_EQ(live, 1);
    c = nullptr;  // reset
    EXPECT_EQ(live, 0);
    Callback d([t = Tracked(&live)] { (void)t; });
    EXPECT_EQ(live, 1);
  }  // destruction
  EXPECT_EQ(live, 0);
}

TEST(Callback, CaptureDestroyedExactlyOnceOnHeap) {
  int live = 0;
  std::array<char, 40> pad{};
  {
    Callback a([t = Tracked(&live), pad] { (void)t, (void)pad; });
    ASSERT_FALSE(a.is_inline());
    EXPECT_EQ(live, 1);
    Callback b(std::move(a));
    EXPECT_EQ(live, 1);
    Callback c([t = Tracked(&live), pad] { (void)t, (void)pad; });
    EXPECT_EQ(live, 2);
    c = std::move(b);
    EXPECT_EQ(live, 1);
    c = nullptr;
    EXPECT_EQ(live, 0);
    Callback d([t = Tracked(&live), pad] { (void)t, (void)pad; });
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(Callback, TriviallyCopyableCapturesRelocateByMemcpy) {
  int target = 0;
  auto trivial = [&target, step = 3] { target += step; };
  static_assert(Callback::relocates_by_memcpy<decltype(trivial)>);
  // Inline but not trivially copyable: moved and destroyed one by one.
  static_assert(Callback::stores_inline<std::function<void()>>);
  static_assert(!Callback::relocates_by_memcpy<std::function<void()>>);
  // The request path's continuations: `this` plus a {slot, generation} ref.
  struct Continuation {
    void* self;
    std::uint32_t slot;
    std::uint32_t generation;
    void operator()() const {}
  };
  static_assert(Callback::relocates_by_memcpy<Continuation>);

  Callback a(trivial);
  Callback b(std::move(a));
  Callback c;
  c = std::move(b);
  c();
  EXPECT_EQ(target, 3);
}

TEST(Callback, ConstInvocationRunsMutableTarget) {
  int count = 0;
  const Callback cb([&count, n = 0]() mutable { count = ++n; });
  cb();
  cb();
  EXPECT_EQ(count, 2);
}

TEST(Callback, SelfMoveAssignKeepsTarget) {
  int calls = 0;
  Callback cb([&calls] { ++calls; });
  Callback& alias = cb;
  cb = std::move(alias);
  ASSERT_TRUE(cb);
  cb();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace conscale
