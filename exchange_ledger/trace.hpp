// In-memory span recorder for the exchange cost ledger.
//
// Spans are recorded from the ledger's own code around calls into the
// BcWAN layers (no span lives inside the library). A span has a name whose
// prefix up to the first '.' names its layer (crypto, bcwan, lora, chain,
// p2p, store, driver), a start and end on the monotonic clock, the index of
// the enclosing span, and a correlation key: the ephemeral-key fingerprint
// of the exchange it served (0 for shared work such as a block connect).
//
// Everything runs on one thread, so nesting follows a plain stack.
// When tracing is off a Span costs one branch.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t key = 0;
};

/// Per-name aggregate over the recorded spans.
struct SpanStats {
  std::uint64_t calls = 0;
  double total_ms = 0.0;  // span durations
  double self_ms = 0.0;   // durations minus the time child spans cover
};

class Tracer {
 public:
  bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  std::int32_t open(const char* name);
  void close(std::int32_t index);
  /// Give every open span that has no key yet the exchange key `key`.
  void tag(std::uint64_t key);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Aggregate by span name.
  std::map<std::string, SpanStats> by_name() const;
  /// Self time summed by layer (the name prefix before the first '.').
  std::map<std::string, double> self_ms_by_layer() const;
  /// Distinct non-zero correlation keys seen.
  std::size_t distinct_keys() const;

 private:
  bool on_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

Tracer& tracer();

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : index_(tracer().on() ? tracer().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace ledger
