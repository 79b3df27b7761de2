/**
 * @file
 * InlineFn: a `void()` callable held by value in three machine words.
 *
 * Replaces `std::function<void()>` on the simulator's hot paths.  The
 * callable is stored in a two-word inline buffer — large enough for a
 * `this` pointer plus one word of packed arguments — beside its invoke
 * pointer, and never touches the heap.  Captures must be trivially
 * copyable and trivially destructible, so an InlineFn is itself
 * trivially copyable: the event queue keeps each callback inside its
 * queue entry and moves entries as plain bytes.  A capture that is too
 * large or holds an owning member fails to compile (static_assert)
 * instead of silently falling back to allocation.
 */

#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dvsnet
{

/** Heap-free `void()` callable; capacity is two machine words. */
class InlineFn
{
  public:
    static constexpr std::size_t kCapacity = 2 * sizeof(void *);

    InlineFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    InlineFn(F &&fn) noexcept  // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kCapacity,
                      "capture too large for InlineFn: pack state into "
                      "at most two words (e.g. this + one packed word)");
        static_assert(alignof(Fn) <= alignof(void *),
                      "over-aligned captures are not supported");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "InlineFn captures must be trivially copyable and "
                      "trivially destructible (pointers and plain values, "
                      "nothing that owns): callbacks are copied as bytes "
                      "and never destroyed");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
    }

    // A move copies the bytes and leaves the source as it was.  Copies
    // stay deleted: Router, Inbox and DvsChannel hold hooks that capture
    // `this`, and a copyable hook would make them copyable.
    InlineFn(InlineFn &&) noexcept = default;
    InlineFn &operator=(InlineFn &&) noexcept = default;
    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    /** True if a callable is stored. */
    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    /** Invoke the stored callable. Precondition: non-empty. */
    void operator()() { invoke_(buf_); }

  private:
    using Invoke = void (*)(void *);

    alignas(void *) unsigned char buf_[kCapacity];
    Invoke invoke_ = nullptr;
};

static_assert(std::is_trivially_copyable_v<InlineFn>,
              "the event queue copies InlineFn as bytes");

} // namespace dvsnet
