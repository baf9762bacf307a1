#include "trace.hpp"

#include <time.h>

#include <unordered_set>

namespace ledger {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int32_t Tracer::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.start_ns = now_ns();
  spans_.push_back(rec);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close in LIFO order on the one recording thread.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::tag(std::uint64_t key) {
  for (const std::int32_t index : stack_) {
    SpanRecord& rec = spans_[static_cast<std::size_t>(index)];
    if (rec.key == 0) rec.key = key;
  }
}

std::map<std::string, SpanStats> Tracer::by_name() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& rec : spans_) {
    if (rec.parent >= 0)
      child_ms[static_cast<std::size_t>(rec.parent)] +=
          static_cast<double>(rec.end_ns - rec.start_ns) / 1e6;
  }
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& rec = spans_[i];
    const double ms = static_cast<double>(rec.end_ns - rec.start_ns) / 1e6;
    SpanStats& stats = out[rec.name];
    ++stats.calls;
    stats.total_ms += ms;
    stats.self_ms += ms - child_ms[i];
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, stats] : by_name()) {
    out[name.substr(0, name.find('.'))] += stats.self_ms;
  }
  return out;
}

std::size_t Tracer::distinct_keys() const {
  std::unordered_set<std::uint64_t> keys;
  for (const SpanRecord& rec : spans_) {
    if (rec.key != 0) keys.insert(rec.key);
  }
  return keys.size();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace ledger
