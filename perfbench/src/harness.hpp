// Shared machinery of the design-space benchmark: options, the span tracer
// and its forwarding LAP, closed-loop measured slices, the workload driver
// and the result printer. The workloads (maps.cpp, jobs.cpp, ledger.cpp)
// only describe their cells: how to build them, one request, and how to
// check what the requests returned.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stm/stm.hpp"

namespace perfbench {

namespace stm = proust::stm;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The opaque corners of the design space (DESIGN.md §2), in report order.
inline constexpr std::array<const char*, 5> kConfigs = {
    "eager-opt", "eager-pess", "lazy-memo", "lazy-pess", "lazy-snap"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;     // tiny slices, one setup, one round
  bool corrupt = false;   // self-test: falsify one tally or recovered record
  std::string workdir = ".";
};

// ---------------------------------------------------------------------------
// Tracing. Spans are opened and closed from the benchmark's own code, around
// the calls it makes into each layer. Each thread keeps a preallocated
// fixed-depth stack of open spans; a closing span adds its duration and its
// self time (duration minus the time its child spans covered) to per-kind
// totals in the same preallocated per-thread record, which the slice runner
// merges when the slice ends. Untraced threads have no record, and every
// span guard is then one thread-local load and a branch.
// ---------------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  ReadOp,      // wrapper read: get, contains, range_sum / window sum
  WriteOp,     // wrapper update: put, remove, pq insert, pq remove_min
  LapAcquire,  // LAP acquire (CA read/write or abstract RW lock)
  LapPostOp,   // LAP post-op (lazy read-after-operation)
  kCount,
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct ThreadTrace {
  struct Frame {
    SpanKind kind;
    std::uint64_t t0;
    std::uint64_t child_ns;
  };
  static constexpr unsigned kMaxDepth = 8;
  std::array<Frame, kMaxDepth> stack{};
  unsigned depth = 0;
  std::array<SpanTotals, static_cast<std::size_t>(SpanKind::kCount)> spans{};
  // Split of each committed `atomically` call, measured around the body:
  // retry = first body entry -> last body entry (aborted attempts plus
  // backoff), body = the committing attempt's body, commit = body exit ->
  // return (validation, locking, write-back, hooks, lazy replay).
  std::uint64_t calls = 0;
  std::uint64_t call_ns = 0;
  std::uint64_t retry_ns = 0;
  std::uint64_t body_ns = 0;
  std::uint64_t commit_ns = 0;

  void merge(const ThreadTrace& o) noexcept;
  const SpanTotals& span(SpanKind k) const noexcept {
    return spans[static_cast<std::size_t>(k)];
  }
};

/// The calling thread's trace record, or nullptr when untraced.
ThreadTrace*& current_trace() noexcept;

class Span {
 public:
  explicit Span(SpanKind kind) noexcept : tr_(current_trace()) {
    if (tr_ != nullptr && tr_->depth < ThreadTrace::kMaxDepth) {
      tr_->stack[tr_->depth++] = {kind, now_ns(), 0};
    } else {
      tr_ = nullptr;
    }
  }
  ~Span() {
    if (tr_ == nullptr) return;
    const ThreadTrace::Frame f = tr_->stack[--tr_->depth];
    const std::uint64_t dur = now_ns() - f.t0;
    SpanTotals& s = tr_->spans[static_cast<std::size_t>(f.kind)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - (f.child_ns < dur ? f.child_ns : dur);
    if (tr_->depth > 0) tr_->stack[tr_->depth - 1].child_ns += dur;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* tr_;
};

/// A LAP that forwards to `Inner` and records a span around every acquire
/// and post-op. It satisfies core::LockAllocatorPolicy for Inner's key type,
/// so the wrappers are built over it unchanged; untraced it costs one branch.
template <class Inner>
class TracingLap {
 public:
  explicit TracingLap(Inner& inner) noexcept : inner_(&inner) {}
  TracingLap(const TracingLap&) = delete;
  TracingLap& operator=(const TracingLap&) = delete;

  template <class Key>
  void acquire(stm::Txn& tx, const Key& key, bool write) {
    Span s(SpanKind::LapAcquire);
    inner_->acquire(tx, key, write);
  }
  template <class Key>
  void post_op(stm::Txn& tx, const Key& key, bool write) {
    Span s(SpanKind::LapPostOp);
    inner_->post_op(tx, key, write);
  }
  stm::Stm& stm() noexcept { return inner_->stm(); }

 private:
  Inner* inner_;
};

// ---------------------------------------------------------------------------
// Measured slices.
// ---------------------------------------------------------------------------

/// Log-linear latency histogram: exact below 128 ns, then 128 buckets per
/// power of two (relative width under 0.8%). Quantiles interpolate inside
/// the bucket, so they keep all their digits; memory stays fixed however
/// long a run is.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns) noexcept {
    ++buckets_[index(ns)];
    ++count_;
    sum_ns_ += ns;
  }
  void merge(const LatencyHistogram& o) noexcept;
  double mean_us() const noexcept;
  double quantile_us(double q) const noexcept;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return (e - kSubBits + 1) * kSub + sub;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

/// One load thread's output for one slice.
struct WorkerOut {
  std::uint64_t calls = 0;   // committed atomically calls
  std::uint64_t failed = 0;  // calls that ended in an exception
  LatencyHistogram lat;      // latency of each committed call
  ThreadTrace trace;
};

/// Run `body` as one committed `atomically` call on `s`, timing it into
/// `out`. Traced, it also splits the call at the body's entry and exit.
template <class Body>
bool timed_call(stm::Stm& s, WorkerOut& out, Body&& body) {
  ThreadTrace* tr = current_trace();
  const std::uint64_t t0 = now_ns();
  try {
    if (tr == nullptr) {
      s.atomically(body);
    } else {
      std::uint64_t first = 0, entry = 0, exit = 0;
      s.atomically([&](stm::Txn& tx) {
        entry = now_ns();
        if (first == 0) first = entry;
        body(tx);
        exit = now_ns();
      });
      const std::uint64_t t1 = now_ns();
      ++tr->calls;
      tr->call_ns += t1 - t0;
      tr->retry_ns += entry - first;
      tr->body_ns += exit - entry;
      tr->commit_ns += t1 - exit;
    }
  } catch (...) {
    ++out.failed;
    return false;
  }
  out.lat.add(now_ns() - t0);
  ++out.calls;
  return true;
}

/// A measured unit of the benchmark: one configuration (or reference) of
/// one workload, owning its Stm, LAPs, structures, inputs and tallies.
class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}
  virtual ~Cell() = default;
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  const std::string& name() const noexcept { return name_; }
  virtual stm::Stm& stm() = 0;
  /// Closed loop: issue committed requests until `stop` is set.
  virtual void work(unsigned t, const std::atomic<bool>& stop,
                    WorkerOut& out) = 0;
  /// Runs after the load threads stop and before the slice's clock stops.
  virtual void drain() {}
  /// Output checks over everything this cell's requests returned. With
  /// `corrupt`, one tally (or recovered record) is falsified first, and the
  /// check is expected to fail. Appends a reason to `why` on failure.
  virtual bool check(bool corrupt, std::string& why) = 0;
  /// Base-only pass: this cell's op stream applied straight to standalone
  /// base containers of the same kind, no STM. Returns thread-µs per op.
  virtual double base_pass(unsigned threads, double seconds) = 0;
  /// Workload-specific per-layer figures (WAL, checkpoint, recovery).
  virtual void layer_metrics(std::map<std::string, double>&) {}

 private:
  std::string name_;
};

struct SliceResult {
  double seconds = 0;  // wall time, load start to drained
  double steal = 0;    // share of all CPU time the host stole meanwhile
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  LatencyHistogram lat;
  ThreadTrace trace;
  /// Wall time scaled by the share the host did not steal: the time the
  /// machine actually ran, which throughput is measured against.
  double run_seconds() const noexcept { return seconds * (1 - steal); }
};

/// One closed-loop slice of `cell` on `threads` threads for `seconds`.
SliceResult run_slice(Cell& cell, unsigned threads, double seconds,
                      bool traced);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Load threads per cell.
  virtual unsigned threads() const = 0;
  /// Build the five configuration cells (kConfigs order), their inputs and
  /// prefill. Timed as setup_s.
  virtual std::vector<std::unique_ptr<Cell>> build(const Options& o) = 0;
  /// Reference cells measured only by the traced run, keyed by role
  /// ("pure" for baselines.pure_stm_txn_per_s, "nowal.<cfg>" for the
  /// ledger's no-WAL run).
  virtual std::vector<std::pair<std::string, std::unique_ptr<Cell>>>
  references(const Options&) {
    return {};
  }
};

std::unique_ptr<Workload> make_map_workload(const std::string& name);
std::unique_ptr<Workload> make_jobs_workload();
std::unique_ptr<Workload> make_ledger_workload();

/// Run one workload end to end and print its record and result lines.
/// Returns the process exit code.
int run_workload(Workload& w, const Options& o);

// ---------------------------------------------------------------------------
// Small shared helpers.
// ---------------------------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Xoshiro-derived per-purpose seed: the same (seed, stream) always gives
/// the same inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// Fixed-duration closed loop over a base-only op function; returns the
/// thread-µs per op. `step(t)` performs one unit and returns its op count.
template <class Step>
double base_loop(unsigned threads, double seconds, Step&& step) {
  std::atomic<bool> stop{false};
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> ops(threads, 0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) n += step(t);
      ops[t] = n;
    });
  }
  while (ready.load() != threads) {
  }
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : pool) th.join();
  const double wall_us = static_cast<double>(now_ns() - t0) / 1e3;
  std::uint64_t total = 0;
  for (std::uint64_t n : ops) total += n;
  return total == 0 ? 0 : wall_us * threads / static_cast<double>(total);
}

}  // namespace perfbench
