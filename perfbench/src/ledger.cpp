// durable-ledger: 4 096 accounts in stm::Var<long>, registered with a
// write-ahead log, on 3 load threads (a core is left for the WAL's group
// committer and the checkpointer).
//
//   90% transfer  read two accounts, write both, and record the transfer in
//                 the configuration's account index (two puts)
//   10% audit     read 64 accounts and their index entries
//
// Every configuration cell runs with its own Wal (Relaxed ack, 1 MiB
// segments, default group commit) and a Checkpointer triggered every 2^20
// records. A slice's clock stops when Wal::flush() returns, so a backlog
// cannot hide. After the last slice each cell takes one checkpoint_now(),
// runs a fixed single-thread tail of 1 024 transfers, and restarts: a fresh
// Wal on the same directory with fresh vars, whose replay_into() is timed,
// so every run recovers one checkpoint plus the same tail.
//
// The traced run adds references: each configuration without a Wal
// ("nowal.<cfg>", the WAL's baseline) and the bare-Var ledger with neither
// Wal nor index ("pure", the STM without any Proust layer).
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "configs.hpp"
#include "stm/checkpoint.hpp"
#include "stm/wal.hpp"

namespace perfbench {
namespace {

constexpr long kAccounts = 4096;
constexpr long kBalance = 1000;
constexpr unsigned kAudit = 64;
constexpr std::size_t kStreamLen = 65536;
constexpr std::size_t kTail = 1024;
// About one checkpoint per second of load at the measured commit rate; a
// trigger every 65 536 records cut ~15 per second and measured checkpoint
// interference instead of commits.
constexpr std::uint64_t kCheckpointRecords = std::uint64_t{1} << 20;
constexpr int kValueShift = 20;

/// amount > 0: transfer amount from a to b; amount == 0: audit from a.
struct Req {
  std::int32_t a;
  std::int32_t b;
  std::int32_t amount;
};

struct LedgerInputs {
  unsigned threads;
  std::vector<std::vector<Req>> reqs;
  std::vector<Req> tail;  // single-thread transfers before the restart
};

Req transfer(proust::Xoshiro256& r) {
  const auto a = static_cast<std::int32_t>(r.below(kAccounts));
  auto b = static_cast<std::int32_t>(r.below(kAccounts - 1));
  if (b >= a) ++b;
  return {a, b, static_cast<std::int32_t>(1 + r.below(100))};
}

std::shared_ptr<const LedgerInputs> make_inputs(unsigned threads,
                                                std::uint64_t seed) {
  auto in = std::make_shared<LedgerInputs>();
  in->threads = threads;
  for (unsigned t = 0; t < threads; ++t) {
    proust::Xoshiro256 r(derive_seed(seed, 300 + t));
    std::vector<Req> q(kStreamLen);
    for (Req& x : q) {
      x = r.uniform() < 0.9
              ? transfer(r)
              : Req{static_cast<std::int32_t>(r.below(kAccounts)), 0, 0};
    }
    in->reqs.push_back(std::move(q));
  }
  proust::Xoshiro256 r(derive_seed(seed, 399));
  for (std::size_t i = 0; i < kTail; ++i) in->tail.push_back(transfer(r));
  return in;
}

/// The bare-Var ledger: an Stm and nothing else.
struct NoIndex {
  NoIndex(stm::Mode mode, long, stm::StmOptions opts) : stm(mode, opts) {}
  stm::Stm stm;
};

template <class Stack>
constexpr bool kIndexed = requires(Stack& s) { s.map; };

template <class Stack>
class LedgerCell final : public Cell {
 public:
  LedgerCell(std::string name, std::shared_ptr<const LedgerInputs> in,
             stm::Mode mode, const std::string& wal_dir)
      : Cell(std::move(name)), in_(std::move(in)),
        accounts_(std::make_unique<stm::Var<long>[]>(kAccounts)),
        bad_(in_->threads, 0), cursor_(in_->threads, 0),
        calls_(in_->threads, 0) {
    for (long i = 0; i < kAccounts; ++i) accounts_[i].unsafe_store(kBalance);
    stm::StmOptions opts;
    if (!wal_dir.empty()) {
      std::filesystem::remove_all(wal_dir);
      std::filesystem::create_directories(
          std::filesystem::path(wal_dir).parent_path());
      wopts_.dir = wal_dir;
      wopts_.segment_bytes = std::size_t{1} << 20;
      wopts_.durability = stm::WalDurability::Relaxed;
      wal_ = std::make_unique<stm::Wal>(wopts_);
      for (long i = 0; i < kAccounts; ++i) {
        wal_->register_var(static_cast<std::uint64_t>(i + 1), accounts_[i]);
      }
      opts.durability = wal_.get();
    }
    stack_ = std::make_unique<Stack>(mode, kAccounts, opts);
    if constexpr (kIndexed<Stack>) {
      for (long k = 0; k < kAccounts; ++k) {
        stack_->map.unsafe_put(k, k << kValueShift);
      }
    }
    if (wal_) {
      stm::CheckpointOptions c;
      c.every_records = kCheckpointRecords;
      cp_ = std::make_unique<stm::Checkpointer>(*wal_, c);
    }
  }

  ~LedgerCell() override {
    cp_.reset();
    stack_.reset();
    wal_.reset();
    if (!wopts_.dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wopts_.dir, ec);
    }
  }

  stm::Stm& stm() override { return stack_->stm; }

  /// One request as a transaction body; sets `bad` on a wrong result.
  void apply(stm::Txn& tx, const Req& r, long seq, bool& bad) {
    bad = false;
    if (r.amount > 0) {
      stm::Var<long>& a = accounts_[r.a];
      stm::Var<long>& b = accounts_[r.b];
      const long va = a.read(tx);
      const long vb = b.read(tx);
      a.write(tx, va - r.amount);
      b.write(tx, vb + r.amount);
      if constexpr (kIndexed<Stack>) {
        for (const long k : {static_cast<long>(r.a), static_cast<long>(r.b)}) {
          Span sp(SpanKind::WriteOp);
          const std::optional<long> old =
              stack_->map.put(tx, k, k << kValueShift | (seq & 0xFFFFF));
          bad |= !old || (*old >> kValueShift) != k;
        }
      }
    } else {
      long sum = 0;
      for (unsigned j = 0; j < kAudit; ++j) {
        const long k = (r.a + static_cast<long>(j) * 61) % kAccounts;
        sum += accounts_[k].read(tx);
        if constexpr (kIndexed<Stack>) {
          Span sp(SpanKind::ReadOp);
          const std::optional<long> v = stack_->map.get(tx, k);
          bad |= !v || (*v >> kValueShift) != k;
        }
      }
      bad |= sum == std::numeric_limits<long>::min();  // keeps the reads live
    }
  }

  void work(unsigned t, const std::atomic<bool>& stop,
            WorkerOut& out) override {
    const std::vector<Req>& reqs = in_->reqs[t];
    std::size_t cur = cursor_[t];
    while (!stop.load(std::memory_order_relaxed)) {
      const Req& r = reqs[cur];
      const long seq = static_cast<long>(calls_[t] * in_->threads + t);
      bool bad = false;
      if (timed_call(stack_->stm, out,
                     [&](stm::Txn& tx) { apply(tx, r, seq, bad); })) {
        ++calls_[t];
        bad_[t] += bad;
      }
      cur = cur + 1 == reqs.size() ? 0 : cur + 1;
    }
    cursor_[t] = cur;
  }

  void drain() override {
    if (!wal_) return;
    const std::uint64_t t0 = now_ns();
    wal_->flush();
    flush_ms_.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }

  bool check(bool corrupt, std::string& why) override {
    std::string fail;
    std::uint64_t bad = std::accumulate(bad_.begin(), bad_.end(), 0ull);
    if (bad != 0) fail += std::to_string(bad) + " wrong index results, ";
    if (wal_) {
      wal_->flush();
      if (!cp_->checkpoint_now()) fail += "checkpoint_now failed, ";
      for (const Req& r : in_->tail) {
        bool b = false;
        stack_->stm.atomically([&](stm::Txn& tx) { apply(tx, r, 0, b); });
      }
      wal_->flush();
    }
    std::vector<long> live(kAccounts);
    long total = 0;
    for (long i = 0; i < kAccounts; ++i) {
      live[static_cast<std::size_t>(i)] = accounts_[i].unsafe_ref();
      total += live[static_cast<std::size_t>(i)];
    }
    if (total != kAccounts * kBalance) {
      fail += "balance not conserved (" + std::to_string(total) + "), ";
    }
    if (wal_) fail += restart_and_compare(live, corrupt);
    if (fail.empty()) return true;
    why += name() + ": " + fail + "; ";
    return false;
  }

  double base_pass(unsigned threads, double seconds) override {
    if constexpr (!kIndexed<Stack>) {
      return 0;
    } else {
      using Base = typename Stack::Base;
      std::unique_ptr<Base> base = make_base<Base>(kAccounts);
      for (long k = 0; k < kAccounts; ++k) base->put(k, k << kValueShift);
      std::vector<std::size_t> cur(threads, 0);
      std::vector<long> sink(threads, 0);
      const double per_op = base_loop(threads, seconds, [&](unsigned t) {
        const std::vector<Req>& reqs = in_->reqs[t];
        const Req& r = reqs[cur[t]];
        cur[t] = cur[t] + 1 == reqs.size() ? 0 : cur[t] + 1;
        if (r.amount > 0) {
          sink[t] += base->put(r.a, long{r.a} << kValueShift).value_or(0);
          sink[t] += base->put(r.b, long{r.b} << kValueShift).value_or(0);
          return 2u;
        }
        for (unsigned j = 0; j < kAudit; ++j) {
          sink[t] += base->get((r.a + static_cast<long>(j) * 61) % kAccounts)
                         .value_or(0);
        }
        return kAudit;
      });
      if (std::accumulate(sink.begin(), sink.end(), 0L) == -1) {
        std::printf("#\n");
      }
      return per_op;
    }
  }

  void layer_metrics(std::map<std::string, double>& m) override {
    if (!wal_stats_) return;
    const std::uint64_t calls =
        std::accumulate(calls_.begin(), calls_.end(), 0ull) + kTail;
    m["wal.records_per_fsync"] =
        wal_stats_->fsyncs == 0 ? 0
                                : static_cast<double>(wal_stats_->records) /
                                      static_cast<double>(wal_stats_->fsyncs);
    m["wal.bytes_per_txn"] = static_cast<double>(wal_stats_->bytes) /
                             static_cast<double>(calls);
    m["wal.flush_ms"] = mean(flush_ms_);
    m["checkpoint.count"] = static_cast<double>(ckpt_.checkpoints);
    m["checkpoint.bytes"] =
        ckpt_.checkpoints == 0 ? 0
                               : static_cast<double>(ckpt_.bytes) /
                                     static_cast<double>(ckpt_.checkpoints);
    m["recovery.replay_ms"] = replay_ms_;
    m["recovery.records"] = static_cast<double>(recovery_.records +
                                                recovery_.checkpoint_records);
    m["recovery.segments"] = recovery_.segments;
  }

 private:
  /// Tear the cell down, restart on the same log directory with fresh vars,
  /// and compare the recovered state with `live`. With `corrupt`, recovery
  /// runs through Wal::recover with the last record dropped instead.
  std::string restart_and_compare(const std::vector<long>& live,
                                  bool corrupt) {
    const std::uint64_t published = wal_->published_epoch();
    ckpt_ = cp_->stats();
    wal_stats_ = wal_->stats();
    cp_.reset();
    stack_.reset();
    wal_.reset();

    auto fresh = std::make_unique<stm::Var<long>[]>(kAccounts);
    std::uint64_t last_epoch = 0;
    if (!corrupt) {
      stm::Wal wal(wopts_);
      for (long i = 0; i < kAccounts; ++i) {
        wal.register_var(static_cast<std::uint64_t>(i + 1), fresh[i]);
      }
      const std::uint64_t t0 = now_ns();
      recovery_ = wal.replay_into();
      replay_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
      last_epoch = recovery_.last_epoch;
    } else {
      std::vector<std::pair<std::uint64_t, long>> recs;
      recovery_ = stm::Wal::recover(
          wopts_.dir, [&](const stm::WalRecordView& v) {
            std::uint64_t id = 0;
            const std::uint8_t* p = nullptr;
            std::uint32_t n = 0;
            long x = 0;
            if (stm::Wal::decode_var_record(v, id, p, n) && n == sizeof(x)) {
              std::memcpy(&x, p, sizeof(x));
              recs.emplace_back(id, x);
            }
          });
      if (!recs.empty()) recs.pop_back();  // the dropped record
      for (const auto& [id, x] : recs) {
        if (id >= 1 && id <= static_cast<std::uint64_t>(kAccounts)) {
          fresh[static_cast<long>(id) - 1].unsafe_store(x);
        }
      }
      last_epoch = recovery_.last_epoch;
    }
    std::string fail;
    long differ = 0;
    for (long i = 0; i < kAccounts; ++i) {
      differ += fresh[i].unsafe_ref() != live[static_cast<std::size_t>(i)];
    }
    if (differ != 0) {
      fail += std::to_string(differ) + " recovered accounts differ, ";
    }
    if (last_epoch != published) {
      fail += "recovered epoch " + std::to_string(last_epoch) +
              " != published " + std::to_string(published) + ", ";
    }
    return fail;
  }

  std::shared_ptr<const LedgerInputs> in_;
  std::unique_ptr<stm::Var<long>[]> accounts_;
  stm::WalOptions wopts_;
  std::unique_ptr<stm::Wal> wal_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<stm::Checkpointer> cp_;
  std::vector<std::uint64_t> bad_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint64_t> calls_;
  std::vector<double> flush_ms_;
  std::optional<stm::WalStats> wal_stats_;
  stm::CheckpointStats ckpt_;
  stm::WalRecoveryInfo recovery_;
  double replay_ms_ = 0;
};

class LedgerWorkload final : public Workload {
 public:
  unsigned threads() const override { return 3; }

  std::vector<std::unique_ptr<Cell>> build(const Options& o) override {
    o_ = o;
    in_ = make_inputs(load_threads(threads()), o.seed);
    return configs("", true);
  }

  std::vector<std::pair<std::string, std::unique_ptr<Cell>>> references(
      const Options&) override {
    std::vector<std::pair<std::string, std::unique_ptr<Cell>>> r;
    for (auto& c : configs("nowal.", false)) {
      std::string role = c->name();
      r.emplace_back(std::move(role), std::move(c));
    }
    r.emplace_back("pure", std::make_unique<LedgerCell<NoIndex>>(
                               "pure-stm", in_, stm::Mode::Lazy, ""));
    return r;
  }

 private:
  std::vector<std::unique_ptr<Cell>> configs(const std::string& prefix,
                                             bool durable) {
    std::vector<std::unique_ptr<Cell>> cells;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      const std::string name = prefix + kConfigs[c];
      const std::string dir =
          durable ? o_.workdir + "/wal/" + name : std::string();
      cells.push_back(visit_map_config(c, [&]<class S>(std::type_identity<S>,
                                                       stm::Mode mode) {
        return std::unique_ptr<Cell>(new LedgerCell<S>(name, in_, mode, dir));
      }));
    }
    return cells;
  }

  Options o_;
  std::shared_ptr<const LedgerInputs> in_;
};

}  // namespace

std::unique_ptr<Workload> make_ledger_workload() {
  return std::make_unique<LedgerWorkload>();
}

}  // namespace perfbench
