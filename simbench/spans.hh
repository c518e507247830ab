/**
 * @file
 * In-memory span log for the benchmark's traced pass. Each span is a
 * name, a start, an end and the span that was open when it began; the
 * log is written out once, after the pass, so recording costs two
 * clock reads and a vector append.
 */

#ifndef SIMBENCH_SPANS_HH
#define SIMBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace simbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

class SpanLog
{
  public:
    /** Closes its span when destroyed. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::size_t index) : log_(log), index_(index)
        {}
        ~Scope() { log_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the span opened. */
        double elapsed() const;

      private:
        SpanLog &log_;
        std::size_t index_;
    };

    SpanLog();

    /** Open a span whose parent is the innermost open one. */
    [[nodiscard]] Scope open(std::string name);

    /**
     * Write {"spans": [...], "by_name": {...}} where by_name gives, per
     * span name, the count, total and self nanoseconds (self = total
     * minus the time its child spans cover).
     */
    void writeJson(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
        std::int64_t parent = -1;
    };

    std::int64_t now() const;
    void close(std::size_t index);

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

} // namespace simbench

#endif // SIMBENCH_SPANS_HH
