#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "common/topology.hpp"

namespace perfbench {

ThreadTrace*& current_trace() noexcept {
  thread_local ThreadTrace* tr = nullptr;
  return tr;
}

void ThreadTrace::merge(const ThreadTrace& o) noexcept {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].count += o.spans[i].count;
    spans[i].total_ns += o.spans[i].total_ns;
    spans[i].self_ns += o.spans[i].self_ns;
  }
  calls += o.calls;
  call_ns += o.call_ns;
  retry_ns += o.retry_ns;
  body_ns += o.body_ns;
  commit_ns += o.commit_ns;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  proust::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL);
  return rng();
}

void LatencyHistogram::merge(const LatencyHistogram& o) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
  sum_ns_ += o.sum_ns_;
}

double LatencyHistogram::mean_us() const noexcept {
  return count_ == 0 ? 0
                     : static_cast<double>(sum_ns_) /
                           static_cast<double>(count_) / 1e3;
}

double LatencyHistogram::quantile_us(double q) const noexcept {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n == 0 || seen + n <= rank) {
      seen += n;
      continue;
    }
    double lo = static_cast<double>(i);
    double width = 1;
    if (i >= kSub) {
      const std::size_t e = i / kSub + kSubBits - 1;
      width = std::ldexp(1.0, static_cast<int>(e - kSubBits));
      lo = static_cast<double>(kSub + i % kSub) * width;
    }
    return (lo + width * (rank - seen + 0.5) / n) / 1e3;
  }
  return 0;
}

namespace {

/// Aggregate CPU time the host has stolen from this machine (the `steal`
/// column of /proc/stat's first line) and the total, in clock ticks. Both 0
/// where the file is unreadable.
std::pair<std::uint64_t, std::uint64_t> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  std::uint64_t total = 0;
  for (unsigned long long x : v) total += x;
  return {v[7], total};
}

/// Load-thread output buffers, reused by every slice of the run.
std::vector<WorkerOut>& worker_outs(unsigned threads) {
  static std::vector<WorkerOut> outs;
  if (outs.size() < threads) outs.resize(threads);
  return outs;
}

}  // namespace

SliceResult run_slice(Cell& cell, unsigned threads, double seconds,
                      bool traced) {
  std::vector<WorkerOut>& outs = worker_outs(threads);
  for (unsigned t = 0; t < threads; ++t) {
    outs[t].calls = 0;
    outs[t].failed = 0;
    outs[t].lat = LatencyHistogram{};
    outs[t].trace = ThreadTrace{};
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> go{false};
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      current_trace() = traced ? &outs[t].trace : nullptr;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      cell.work(t, stop, outs[t]);
      current_trace() = nullptr;
    });
  }
  while (ready.load() != threads) {
  }
  const auto st0 = steal_ticks();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& th : pool) th.join();
  cell.drain();
  const std::uint64_t t1 = now_ns();
  const auto st1 = steal_ticks();

  SliceResult r;
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  if (st1.second > st0.second) {
    r.steal = static_cast<double>(st1.first - st0.first) /
              static_cast<double>(st1.second - st0.second);
  }
  for (unsigned t = 0; t < threads; ++t) {
    r.calls += outs[t].calls;
    r.failed += outs[t].failed;
    r.trace.merge(outs[t].trace);
    r.lat.merge(outs[t].lat);
  }
  return r;
}

namespace {

// ---------------------------------------------------------------------------
// The metric catalogue. BENCHMARK.json lists the same names; the benchmark's
// own test compares the two.
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

bool optimistic(const std::string& cfg) {
  return cfg == "eager-opt" || cfg == "lazy-memo" || cfg == "lazy-snap";
}

std::vector<MetricDef> end_to_end_metrics() {
  std::vector<MetricDef> m{{"setup_s", "s"}};
  for (const char* c : kConfigs) m.push_back({std::string("txn_per_s.") + c, "txn/s"});
  // The pessimistic configurations' p99 is left out: under skew their call
  // latency is bimodal (abstract-lock timeouts), and the 99th percentile
  // falls between the modes, moving 0.1 -> 2 ms from run to run. Their tail
  // is the per-layer sync.p99_us.<cfg>.
  for (const char* c : kConfigs) {
    if (optimistic(c)) m.push_back({std::string("p99_us.") + c, "us"});
  }
  return m;
}

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m;
  const std::pair<const char*, const char*> per_cfg[] = {
      {"stm.call_us", "us"},
      {"stm.retry_us", "us"},
      {"stm.body_us", "us"},
      {"stm.commit_us", "us"},
      {"stm.split_coverage", "ratio"},
      {"stm.commits_per_attempt", "ratio"},
      {"stm.reads_per_commit", "count"},
      {"core.read_op_us", "us"},
      {"core.write_op_us", "us"},
      {"core.op_self_us", "us"},
      {"containers.base_op_us", "us"},
      {"trace.overhead", "ratio"},
  };
  for (const auto& [name, unit] : per_cfg) {
    for (const char* c : kConfigs) m.push_back({std::string(name) + "." + c, unit});
  }
  for (const char* c : kConfigs) {
    if (optimistic(c)) m.push_back({std::string("core.ca_acquire_us.") + c, "us"});
  }
  for (const char* c : {"lazy-memo", "lazy-snap"}) {
    m.push_back({std::string("core.ca_post_op_us.") + c, "us"});
  }
  for (const char* c : kConfigs) {
    if (!optimistic(c)) {
      m.push_back({std::string("sync.rw_acquire_us.") + c, "us"});
      m.push_back({std::string("sync.timeouts_per_commit.") + c, "ratio"});
      m.push_back({std::string("sync.p99_us.") + c, "us"});
    }
  }
  const MetricDef tail[] = {
      {"baselines.pure_stm_txn_per_s", "txn/s"},
      {"wal.commit_us", "us"},
      {"wal.off_commit_us", "us"},
      {"wal.records_per_fsync", "ratio"},
      {"wal.bytes_per_txn", "B"},
      {"wal.flush_ms", "ms"},
      {"checkpoint.count", "count"},
      {"checkpoint.bytes", "B"},
      {"recovery.replay_ms", "ms"},
      {"recovery.records", "count"},
      {"recovery.segments", "count"},
  };
  m.insert(m.end(), std::begin(tail), std::end(tail));
  return m;
}

struct StatsDelta {
  double starts = 0;
  double commits = 0;
  double reads = 0;
  double timeouts = 0;
  void add(const stm::StatsSnapshot& a, const stm::StatsSnapshot& b) {
    starts += static_cast<double>(b.starts - a.starts);
    commits += static_cast<double>(b.commits - a.commits);
    reads += static_cast<double>(b.reads - a.reads);
    const auto i = static_cast<std::size_t>(stm::AbortReason::AbstractLockTimeout);
    timeouts += static_cast<double>(b.aborts[i] - a.aborts[i]);
  }
};

struct CellRun {
  std::vector<double> tput;        // untraced, one per round
  std::vector<double> wall_tput;   // the same, not corrected for steal
  std::vector<double> steal;       // untraced, one per round
  std::vector<double> p99;         // untraced, one per round
  LatencyHistogram lat;            // untraced, every round pooled
  std::vector<double> traced_tput;
  ThreadTrace trace;
  StatsDelta stats;
  double base_op_us = 0;
};

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }
double us(std::uint64_t ns, std::uint64_t n) {
  return n == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(n) / 1e3;
}

void print_metric(bool& first, const std::string& name, const char* unit,
                  double v) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(), std::isfinite(v) ? v : 0.0,
              unit);
  first = false;
}

}  // namespace

int run_workload(Workload& w, const Options& o) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(w.threads(), hw);

  // Set-up: built several times, the median reported, the last one kept.
  const int reps = (o.trace || o.smoke) ? 1 : 5;
  std::vector<double> setup_times;
  std::vector<std::unique_ptr<Cell>> cells;
  for (int r = 0; r < reps; ++r) {
    cells.clear();
    const std::uint64_t t0 = now_ns();
    cells = w.build(o);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::vector<std::pair<std::string, std::unique_ptr<Cell>>> refs;
  if (o.trace) refs = w.references(o);

  const int rounds = o.smoke ? 1 : (o.trace ? 3 : 10);
  const std::size_t nslices =
      static_cast<std::size_t>(rounds) *
      (o.trace ? 2 * cells.size() + refs.size() : cells.size());
  const double slice = o.smoke ? 0.05 : (o.trace ? 0.9 : 1.0) * o.seconds /
                                            static_cast<double>(nslices);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<CellRun> runs(cells.size());
  std::vector<std::vector<double>> ref_tput(refs.size()), ref_mean(refs.size());
  const auto account = [&](const SliceResult& r) {
    attempted += r.calls + r.failed;
    failed += r.failed;
  };
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Cell& cell = *cells[c];
      if (o.trace) {
        const stm::StatsSnapshot s0 = cell.stm().stats().snapshot();
        const SliceResult t = run_slice(cell, threads, slice, true);
        runs[c].stats.add(s0, cell.stm().stats().snapshot());
        runs[c].trace.merge(t.trace);
        runs[c].traced_tput.push_back(ratio(t.calls, t.run_seconds()));
        account(t);
      }
      const SliceResult u = run_slice(cell, threads, slice, false);
      runs[c].tput.push_back(ratio(u.calls, u.run_seconds()));
      runs[c].wall_tput.push_back(ratio(u.calls, u.seconds));
      runs[c].steal.push_back(u.steal);
      runs[c].p99.push_back(u.lat.quantile_us(0.99));
      runs[c].lat.merge(u.lat);
      account(u);
    }
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const SliceResult u = run_slice(*refs[i].second, threads, slice, false);
      ref_tput[i].push_back(ratio(u.calls, u.run_seconds()));
      ref_mean[i].push_back(u.lat.mean_us());
      account(u);
    }
  }
  if (o.trace) {
    const double base_s =
        o.smoke ? 0.02 : 0.1 * o.seconds / static_cast<double>(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      runs[c].base_op_us = cells[c]->base_pass(threads, base_s);
    }
  }

  // Output checks, over every cell that ran.
  bool correct = true;
  std::string why;
  for (const auto& c : cells) correct &= c->check(o.corrupt, why);
  for (const auto& r : refs) correct &= r.second->check(o.corrupt, why);

  // Host and run record.
  const proust::topo::Topology& topo = proust::topo::Topology::system();
  for (char& ch : why) {
    if (ch == '"' || ch == '\\') ch = '\'';
  }
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"seconds\": %g, \"smoke\": %d, \"host\": {\"cpus\": "
      "%u, \"nodes\": %u, \"smt\": %s}, \"threads\": %u, \"rounds\": %d, "
      "\"slice_s\": %g, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"correct\": %s, \"check_failures\": \"%s\", \"per_round\": {",
      o.workload.c_str(), o.seed, o.trace ? 1 : 0, o.seconds, o.smoke ? 1 : 0,
      topo.cpu_count(), topo.node_count, topo.smt ? "true" : "false", threads,
      rounds, slice, attempted, failed, correct ? "true" : "false",
      why.c_str());
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
      out += buf;
    }
    return out + "]";
  };
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::printf("%s\"%s\": {\"txn_per_s\": %s, \"wall_txn_per_s\": %s, "
                "\"steal\": %s, \"p99_us\": %s}",
                c ? ", " : "", cells[c]->name().c_str(),
                list(runs[c].tput).c_str(), list(runs[c].wall_tput).c_str(),
                list(runs[c].steal).c_str(), list(runs[c].p99).c_str());
  }
  std::printf("}}}\n");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::printf(
        "# %-10s txn/s %11.0f (wall %11.0f, steal %4.2f)  p50 %8.2f  p99 "
        "%9.2f (pooled %9.2f)  p999 %9.2f  mean %8.2f us\n",
        cells[c]->name().c_str(), median(runs[c].tput),
        median(runs[c].wall_tput), median(runs[c].steal),
        runs[c].lat.quantile_us(0.5), median(runs[c].p99),
        runs[c].lat.quantile_us(0.99), runs[c].lat.quantile_us(0.999),
        runs[c].lat.mean_us());
  }

  std::map<std::string, double> values;
  std::vector<MetricDef> defs;
  if (!o.trace) {
    defs = end_to_end_metrics();
    values["setup_s"] = median(setup_times);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      values["txn_per_s." + cells[c]->name()] = median(runs[c].tput);
      values["p99_us." + cells[c]->name()] = median(runs[c].p99);
    }
  } else {
    defs = per_layer_metrics();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& n = cells[c]->name();
      const ThreadTrace& tr = runs[c].trace;
      const StatsDelta& d = runs[c].stats;
      values["stm.call_us." + n] = us(tr.call_ns, tr.calls);
      values["stm.retry_us." + n] = us(tr.retry_ns, tr.calls);
      values["stm.body_us." + n] = us(tr.body_ns, tr.calls);
      values["stm.commit_us." + n] = us(tr.commit_ns, tr.calls);
      values["stm.split_coverage." + n] =
          ratio(static_cast<double>(tr.retry_ns + tr.body_ns + tr.commit_ns),
                static_cast<double>(tr.call_ns));
      values["stm.commits_per_attempt." + n] = ratio(d.commits, d.starts);
      values["stm.reads_per_commit." + n] = ratio(d.reads, d.commits);
      const SpanTotals& rd = tr.span(SpanKind::ReadOp);
      const SpanTotals& wr = tr.span(SpanKind::WriteOp);
      const SpanTotals& acq = tr.span(SpanKind::LapAcquire);
      const SpanTotals& post = tr.span(SpanKind::LapPostOp);
      values["core.read_op_us." + n] = us(rd.total_ns, rd.count);
      values["core.write_op_us." + n] = us(wr.total_ns, wr.count);
      values["core.op_self_us." + n] =
          us(rd.self_ns + wr.self_ns, rd.count + wr.count);
      values["containers.base_op_us." + n] = runs[c].base_op_us;
      values["trace.overhead." + n] =
          ratio(median(runs[c].tput), median(runs[c].traced_tput));
      if (optimistic(n)) {
        values["core.ca_acquire_us." + n] = us(acq.total_ns, acq.count);
        values["core.ca_post_op_us." + n] = us(post.total_ns, post.count);
      } else {
        values["sync.rw_acquire_us." + n] = us(acq.total_ns, acq.count);
        values["sync.timeouts_per_commit." + n] = ratio(d.timeouts, d.commits);
        values["sync.p99_us." + n] = median(runs[c].p99);
      }
    }
    // References: the pure-STM baseline, and the ledger's no-WAL run whose
    // call time is the WAL's reference.
    std::vector<double> nowal_us;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].first == "pure") {
        values["baselines.pure_stm_txn_per_s"] = median(ref_tput[i]);
      } else if (refs[i].first.rfind("nowal.", 0) == 0) {
        nowal_us.push_back(median(ref_mean[i]));
      }
    }
    if (!nowal_us.empty()) {
      std::vector<double> wal_us;
      for (const CellRun& r : runs) wal_us.push_back(r.lat.mean_us());
      values["wal.commit_us"] = mean(wal_us);
      values["wal.off_commit_us"] = mean(nowal_us);
    }
    std::map<std::string, std::vector<double>> layer;
    for (const auto& c : cells) {
      std::map<std::string, double> m;
      c->layer_metrics(m);
      for (const auto& [k, v] : m) layer[k].push_back(v);
    }
    for (const auto& [k, v] : layer) values[k] = mean(v);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const ThreadTrace& tr = runs[c].trace;
      std::printf(
          "# %-10s traced: call %.3f = retry %.3f + body %.3f + commit %.3f us"
          " (coverage %.3f), tracing overhead x%.3f\n",
          cells[c]->name().c_str(), us(tr.call_ns, tr.calls),
          us(tr.retry_ns, tr.calls), us(tr.body_ns, tr.calls),
          us(tr.commit_ns, tr.calls),
          values["stm.split_coverage." + cells[c]->name()],
          values["trace.overhead." + cells[c]->name()]);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const MetricDef& m : defs) {
    const auto it = values.find(m.name);
    print_metric(first, m.name, m.unit, it == values.end() ? 0.0 : it->second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
