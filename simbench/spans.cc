#include "spans.hh"

#include <map>
#include <ostream>

#include "sim/logging.hh"

namespace simbench
{

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

SpanLog::Scope
SpanLog::open(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1
                                : static_cast<std::int64_t>(open_.back());
    span.startNs = now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return Scope(*this, spans_.size() - 1);
}

void
SpanLog::close(std::size_t index)
{
    spans_[index].endNs = now();
    if (open_.empty() || open_.back() != index)
        vmp::panic("span ", spans_[index].name, " closed out of order");
    open_.pop_back();
}

double
SpanLog::Scope::elapsed() const
{
    return static_cast<double>(log_.now() -
                               log_.spans_[index_].startNs) *
        1e-9;
}

void
SpanLog::writeJson(std::ostream &os) const
{
    struct Totals
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t childNs = 0;
    };
    std::map<std::string, Totals> by_name;
    for (const Span &span : spans_) {
        Totals &t = by_name[span.name];
        ++t.count;
        t.totalNs += span.endNs - span.startNs;
        if (span.parent >= 0) {
            by_name[spans_[static_cast<std::size_t>(span.parent)].name]
                .childNs += span.endNs - span.startNs;
        }
    }

    os << "{\n  \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << i
           << ", \"name\": \"" << span.name << "\", \"start_ns\": "
           << span.startNs << ", \"end_ns\": " << span.endNs
           << ", \"parent\": " << span.parent << "}";
    }
    os << "\n  ],\n  \"by_name\": {";
    bool first = true;
    for (const auto &[name, t] : by_name) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": {\"count\": " << t.count << ", \"total_ns\": "
           << t.totalNs << ", \"self_ns\": " << t.totalNs - t.childNs
           << "}";
        first = false;
    }
    os << "\n  }\n}\n";
}

} // namespace simbench
