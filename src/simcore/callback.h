// Callback: a move-only, type-erased `void()` callable with a 32-byte inline
// buffer. It is the storage behind every scheduled event (EventCallback) and
// every completion on the request path (PS / FCFS / TokenPool / Server /
// LoadBalancer), see DESIGN.md §6.4.
//
// Why not std::function: libstdc++'s std::function stores only callables of
// at most 16 bytes without allocating, and it must be copyable. The request
// path's continuations are a `this` pointer plus a pool reference (16 bytes)
// or a `std::function` forwarded from a caller (32 bytes); both fit here.
//
// Storage rules (all decided at compile time, per callable type F):
//   - F is stored inline when it is at most kInlineSize bytes, its alignment
//     divides kInlineAlign, and its move constructor is noexcept (so moving a
//     Callback can be noexcept too);
//   - otherwise F lives on the heap in a std::unique_ptr, whose pointer is
//     what the inline buffer holds;
//   - an inline F that is trivially copyable is relocated by memcpy and never
//     destroyed; any other F is relocated by move-construct + destroy.
//
// The size budget matters: an EventArena slot is a Callback plus two 32-bit
// words, 48 bytes, and the session workloads keep over a million of them
// pending. A 48-byte buffer would cost the slot 16 bytes more.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>  // also placement new and std::launder
#include <type_traits>
#include <utility>

namespace conscale {

namespace detail {

/// Per-type operation table. A null `relocate` means memcpy; a null
/// `destroy` means nothing to destroy.
struct CallbackOps {
  void (*invoke)(void* storage);
  void (*relocate)(void* dst, void* src) noexcept;
  void (*destroy)(void* storage) noexcept;
  bool on_heap;
};

/// Types whose value can be empty and must produce an empty Callback, as
/// std::function does for them.
template <typename T>
struct IsNullableCallable : std::is_pointer<T> {};
template <typename Sig>
struct IsNullableCallable<std::function<Sig>> : std::true_type {};

}  // namespace detail

class Callback {
 public:
  static constexpr std::size_t kInlineSize = 32;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  /// True when a callable of type F is stored in the inline buffer.
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineSize && kInlineAlign % alignof(F) == 0 &&
      std::is_nothrow_move_constructible_v<F>;

  /// True when an inline F is relocated by memcpy and needs no destructor.
  template <typename F>
  static constexpr bool relocates_by_memcpy =
      stores_inline<F> && std::is_trivially_copyable_v<F>;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}

  /// Implicit, like std::function's, so a lambda converts at the call site.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        std::is_invocable_v<Fn&>>>
  Callback(F&& f) {
    if constexpr (detail::IsNullableCallable<Fn>::value) {
      if (!f) return;
    }
    if constexpr (stores_inline<Fn>) {
      // detlint: allow(raw-new) placement new into the inline buffer; no heap
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      using Box = std::unique_ptr<Fn>;
      // detlint: allow(raw-new) placement new of the owning unique_ptr
      ::new (static_cast<void*>(storage_))
          Box(std::make_unique<Fn>(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) take(other);
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) take(other);
    }
    return *this;
  }

  Callback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable (which may mutate its own captures, as a
  /// std::function target may). Throws std::bad_function_call when empty.
  void operator()() const {
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(storage_);
  }

  /// True when the held callable lives in the inline buffer (empty: false).
  bool is_inline() const noexcept {
    return ops_ != nullptr && !ops_->on_heap;
  }

 private:
  template <typename Fn>
  static Fn* as(void* storage) noexcept {
    return std::launder(static_cast<Fn*>(storage));
  }

  template <typename Fn>
  static void invoke_inline(void* storage) {
    (*as<Fn>(storage))();
  }
  template <typename Fn>
  static void relocate_inline(void* dst, void* src) noexcept {
    Fn* from = as<Fn>(src);
    // detlint: allow(raw-new) placement move into the destination buffer
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <typename Fn>
  static void destroy_inline(void* storage) noexcept {
    as<Fn>(storage)->~Fn();
  }

  // The heap form keeps a std::unique_ptr<Fn> in the inline buffer and
  // relocates / destroys it as the inline form would.
  template <typename Fn>
  static void invoke_heap(void* storage) {
    (**as<std::unique_ptr<Fn>>(storage))();
  }

  template <typename Fn>
  static constexpr detail::CallbackOps kInlineOps{
      &invoke_inline<Fn>,
      relocates_by_memcpy<Fn> ? nullptr : &relocate_inline<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>,
      false};
  template <typename Fn>
  static constexpr detail::CallbackOps kHeapOps{
      &invoke_heap<Fn>, &relocate_inline<std::unique_ptr<Fn>>,
      &destroy_inline<std::unique_ptr<Fn>>, true};

  /// Moves `other`'s callable into this (ops_ already copied) and empties it.
  void take(Callback& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineSize);
    }
    other.ops_ = nullptr;
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(kInlineAlign) mutable unsigned char storage_[kInlineSize] = {};
  const detail::CallbackOps* ops_ = nullptr;
};

static_assert(sizeof(Callback) == 40, "Callback: 32-byte buffer + ops table");

}  // namespace conscale
