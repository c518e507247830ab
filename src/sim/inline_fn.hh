/**
 * @file
 * Move-only callable with small-buffer storage, the continuation type
 * of the event kernel and of the allocation-free hit and miss paths.
 */

#ifndef VMP_SIM_INLINE_FN_HH
#define VMP_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace vmp
{

/** Bytes of callable state an InlineFn keeps in place. */
inline constexpr std::size_t inlineFnCapacity = 24;

/**
 * True if InlineFn stores a callable of type @p F in place: it is
 * trivially copyable (so moving it is copying bytes and destroying it
 * is a no-op) and fits the buffer, e.g. `this` plus two small values.
 */
template <class F>
inline constexpr bool fitsInline =
    std::is_trivially_copyable_v<F> && sizeof(F) <= inlineFnCapacity &&
    alignof(F) <= alignof(void *);

template <class Sig>
class InlineFn;

/**
 * Move-only `std::function` replacement. A callable that fitsInline is
 * stored in the object itself and called through one function pointer;
 * moving the InlineFn copies its bytes and destroying it calls nothing.
 * Any other callable is moved into one heap box the InlineFn owns. An
 * empty InlineFn (default, nullptr, moved-from, or built from a null
 * function pointer or empty std::function) must not be called.
 */
template <class R, class... Args>
class InlineFn<R(Args...)>
{
  public:
    InlineFn() = default;
    InlineFn(std::nullptr_t) {}

    template <class F,
              class Fn = std::decay_t<F>,
              class = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFn> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFn(F &&fn)
    {
        if (isNull(fn))
            return;
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            invoke_ = &callInPlace<Fn>;
        } else {
            Fn *boxed = new Fn(std::forward<F>(fn));
            std::memcpy(buf_, &boxed, sizeof boxed);
            invoke_ = &callBoxed<Fn>;
            destroy_ = &deleteBoxed<Fn>;
        }
    }

    InlineFn(InlineFn &&other) noexcept
        : invoke_(other.invoke_), destroy_(other.destroy_)
    {
        std::memcpy(buf_, other.buf_, inlineFnCapacity);
        other.invoke_ = nullptr;
        other.destroy_ = nullptr;
    }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            std::memcpy(buf_, other.buf_, inlineFnCapacity);
            invoke_ = other.invoke_;
            destroy_ = other.destroy_;
            other.invoke_ = nullptr;
            other.destroy_ = nullptr;
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn()
    {
        if (destroy_ != nullptr)
            destroy_(buf_);
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args) const
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

  private:
    using Invoke = R (*)(void *, Args &&...);
    using Destroy = void (*)(void *);

    template <class T>
    struct IsStdFunction : std::false_type
    {};
    template <class S>
    struct IsStdFunction<std::function<S>> : std::true_type
    {};

    template <class Fn>
    static bool
    isNull(const Fn &fn)
    {
        if constexpr (std::is_pointer_v<Fn> ||
                      std::is_member_pointer_v<Fn> ||
                      IsStdFunction<Fn>::value)
            return !fn;
        else
            return false;
    }

    template <class Fn>
    static R
    callInPlace(void *buf, Args &&...args)
    {
        return std::invoke(*std::launder(static_cast<Fn *>(buf)),
                           std::forward<Args>(args)...);
    }

    template <class Fn>
    static Fn *
    boxOf(void *buf)
    {
        Fn *boxed;
        std::memcpy(&boxed, buf, sizeof boxed);
        return boxed;
    }

    template <class Fn>
    static R
    callBoxed(void *buf, Args &&...args)
    {
        return std::invoke(*boxOf<Fn>(buf), std::forward<Args>(args)...);
    }

    template <class Fn>
    static void
    deleteBoxed(void *buf)
    {
        delete boxOf<Fn>(buf);
    }

    void
    reset()
    {
        if (destroy_ != nullptr)
            destroy_(buf_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

    // Zeroed so moving an InlineFn never copies indeterminate bytes.
    alignas(void *) mutable unsigned char buf_[inlineFnCapacity] = {};
    Invoke invoke_ = nullptr;
    /** Frees the heap box; null when the callable is in place. */
    Destroy destroy_ = nullptr;
};

} // namespace vmp

#endif // VMP_SIM_INLINE_FN_HH
