// jobs: a job index composed with a priority queue of the same jobs, one
// transaction per request.
//
//   80% dispatch+resubmit  remove the queue minimum, remove its key from the
//                          index, and submit one fresh absent key to both
//   20% report             sum the index over a random 512-key window
//
// 65 536 keys, 4 096 jobs pending throughout (dispatch+resubmit keeps the
// count constant). A queue entry is (submission sequence << 16 | key), so
// dispatch is FIFO while index keys stay uniformly spread. Each job's index
// value is 1, so a window sum counts the jobs in the window.
//
// eager-opt and eager-pess use the interval-CA ordered map (64 contiguous
// stripes over the key range) and the Boosting-style priority queue with
// the abstract-state CA (PQueueMin / PQueueMultiSet). No lazy ordered map
// exists, so the lazy configurations index jobs in their lazy hash map and
// sum a window with 512 point lookups; lazy-memo and lazy-snap queue jobs
// in the snapshot-over-COW-heap lazy queue, and lazy-pess keeps the
// Boosting queue (a snapshot shadow copy under pessimistic locks is not
// serializable, DESIGN.md §2).
#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/rng.hpp"
#include "configs.hpp"
#include "containers/blocking_pqueue.hpp"
#include "containers/concurrent_skip_list.hpp"
#include "containers/cow_heap.hpp"
#include "core/lazy_pqueue.hpp"
#include "core/pqueue_state.hpp"
#include "core/txn_ordered_map.hpp"
#include "core/txn_pqueue.hpp"

namespace perfbench {
namespace {

constexpr long kKeys = 65536;
constexpr long kPending = 4096;
constexpr long kWindow = 512;
constexpr std::size_t kIntervalStripes = 64;
constexpr std::size_t kStreamLen = 65536;

using core::PQueueState;
using core::PQueueStateHasher;
using core::StripeHasher;
using IntervalOptLap = core::OptimisticLap<std::size_t, StripeHasher>;
using IntervalPessLap = core::PessimisticLap<std::size_t, StripeHasher>;
using QueueOptLap = core::OptimisticLap<PQueueState, PQueueStateHasher>;
using QueuePessLap = core::PessimisticLap<PQueueState, PQueueStateHasher>;

IntervalOptLap build_lap(std::type_identity<IntervalOptLap>, stm::Stm& s) {
  return IntervalOptLap(s, kIntervalStripes);
}
IntervalPessLap build_lap(std::type_identity<IntervalPessLap>, stm::Stm& s) {
  return IntervalPessLap(s, kIntervalStripes);
}
OptLap build_lap(std::type_identity<OptLap>, stm::Stm& s) {
  return OptLap(s, kKeys);
}
PessLap build_lap(std::type_identity<PessLap>, stm::Stm& s) {
  return PessLap(s, kKeys);
}
QueueOptLap build_lap(std::type_identity<QueueOptLap>, stm::Stm& s) {
  return QueueOptLap(s, 2);
}
QueuePessLap build_lap(std::type_identity<QueuePessLap>, stm::Stm& s) {
  return QueuePessLap(s, 2, core::pqueue_lock_kind);
}

template <class L>
core::TxnOrderedMap<long, L> build_map(
    std::type_identity<core::TxnOrderedMap<long, L>>, L& lap, long keys) {
  return core::TxnOrderedMap<long, L>(lap, 0, keys - 1, kIntervalStripes);
}

template <class L> using OrderedIndex = core::TxnOrderedMap<long, L>;
template <class L> using BoostQueue = core::TxnPriorityQueue<long, L>;
template <class L> using LazyQueue = core::LazyPriorityQueue<long, L>;
using SkipBase = containers::ConcurrentSkipList<long, long>;
using HeapBase = containers::BlockingPriorityQueue<long>;
using CowBase = containers::CowHeap<long>;

template <class IL, template <class> class IndexOf, class QL,
          template <class> class QueueOf, class IB, class QB>
struct JobsStack {
  using Index = IndexOf<TracingLap<IL>>;
  using Queue = QueueOf<TracingLap<QL>>;
  using IndexBase = IB;
  using QueueBase = QB;

  explicit JobsStack(stm::Mode mode)
      : stm(mode), il(build_lap(std::type_identity<IL>{}, stm)), ilap(il),
        index(build_map(std::type_identity<Index>{}, ilap, kKeys)),
        ql(build_lap(std::type_identity<QL>{}, stm)), qlap(ql), queue(qlap) {}

  stm::Stm stm;
  IL il;
  TracingLap<IL> ilap;
  Index index;
  QL ql;
  TracingLap<QL> qlap;
  Queue queue;
};

template <class Fn>
auto visit_jobs_config(std::size_t cfg, Fn&& fn) {
  using stm::Mode;
  switch (cfg) {
    case 0:
      return fn(std::type_identity<JobsStack<IntervalOptLap, OrderedIndex,
                                             QueueOptLap, BoostQueue, SkipBase,
                                             HeapBase>>{},
                Mode::EagerAll);
    case 1:
      return fn(std::type_identity<JobsStack<IntervalPessLap, OrderedIndex,
                                             QueuePessLap, BoostQueue,
                                             SkipBase, HeapBase>>{},
                Mode::Lazy);
    case 2:
      return fn(std::type_identity<JobsStack<OptLap, MemoMap, QueueOptLap,
                                             LazyQueue, StripedBase, CowBase>>{},
                Mode::Lazy);
    case 3:
      return fn(std::type_identity<JobsStack<PessLap, MemoMap, QueuePessLap,
                                             BoostQueue, StripedBase,
                                             HeapBase>>{},
                Mode::Lazy);
    default:
      return fn(std::type_identity<JobsStack<OptLap, TrieMap, QueueOptLap,
                                             LazyQueue, HamtBase, CowBase>>{},
                Mode::Lazy);
  }
}

// --- uniform access to the differing index / queue interfaces -------------

template <class Index>
long window_sum(Index& index, stm::Txn& tx, long lo, long hi) {
  if constexpr (requires { index.range_sum(tx, lo, hi); }) {
    return index.range_sum(tx, lo, hi);
  } else {
    long sum = 0;
    for (long k = lo; k <= hi; ++k) sum += index.get(tx, k).value_or(0);
    return sum;
  }
}

/// Base-only window: one call on an ordered base, one lookup per key on a
/// hashed one. Returns {sum, base calls}.
template <class Base>
std::pair<long, unsigned> base_window(Base& b, long lo, long hi) {
  if constexpr (requires { b.range_for_each(lo, hi, [](long, long) {}); }) {
    long sum = 0;
    b.range_for_each(lo, hi, [&](long, long v) { sum += v; });
    return {sum, 1};
  } else {
    long sum = 0;
    for (long k = lo; k <= hi; ++k) sum += b.get(k).value_or(0);
    return {sum, static_cast<unsigned>(hi - lo + 1)};
  }
}
template <class Q>
void base_push(Q& q, long v) {
  if constexpr (requires { q.add(v); }) {
    q.add(v);
  } else {
    q.insert(v);
  }
}
template <class Q>
std::optional<long> base_pop(Q& q) {
  if constexpr (requires { q.poll(); }) {
    return q.poll();
  } else {
    return q.remove_min();
  }
}

struct JobsInputs {
  unsigned threads;
  std::vector<long> initial;                   // pending keys, seq = index
  std::vector<std::vector<std::int32_t>> reqs;  // -1 dispatch, else window lo
  std::vector<std::vector<long>> cands;        // fresh-key candidates
};

std::shared_ptr<const JobsInputs> make_inputs(unsigned threads,
                                              std::uint64_t seed) {
  auto in = std::make_shared<JobsInputs>();
  in->threads = threads;
  proust::Xoshiro256 rng(derive_seed(seed, 2));
  std::vector<long> perm(kKeys);
  std::iota(perm.begin(), perm.end(), 0L);
  std::shuffle(perm.begin(), perm.end(), rng);
  in->initial.assign(perm.begin(), perm.begin() + kPending);
  for (unsigned t = 0; t < threads; ++t) {
    proust::Xoshiro256 r(derive_seed(seed, 200 + t));
    std::vector<std::int32_t> q(kStreamLen);
    std::vector<long> c(kStreamLen);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      q[i] = r.uniform() < 0.8
                 ? -1
                 : static_cast<std::int32_t>(r.below(kKeys - kWindow + 1));
      c[i] = static_cast<long>(r.below(kKeys));
    }
    in->reqs.push_back(std::move(q));
    in->cands.push_back(std::move(c));
  }
  return in;
}

template <class Stack>
class JobsCell final : public Cell {
 public:
  JobsCell(std::string name, std::shared_ptr<const JobsInputs> in,
           std::unique_ptr<Stack> stack)
      : Cell(std::move(name)), in_(std::move(in)), s_(std::move(stack)),
        threads_(in_->threads), submitted_(threads_), dispatched_(threads_),
        bad_(threads_, 0), cursor_(threads_, 0), cand_(threads_, 0),
        count_(threads_, 0) {
    for (unsigned t = 0; t < threads_; ++t) {
      submitted_[t].assign(kKeys, 0);
      dispatched_[t].assign(kKeys, 0);
    }
    for (std::size_t i = 0; i < in_->initial.size(); ++i) {
      s_->index.unsafe_put(in_->initial[i], 1L);
      s_->queue.unsafe_insert(static_cast<long>(i) << 16 | in_->initial[i]);
    }
  }

  stm::Stm& stm() override { return s_->stm; }

  void work(unsigned t, const std::atomic<bool>& stop,
            WorkerOut& out) override {
    auto& index = s_->index;
    auto& queue = s_->queue;
    const std::vector<std::int32_t>& reqs = in_->reqs[t];
    const std::vector<long>& cands = in_->cands[t];
    std::size_t cur = cursor_[t];
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int32_t rq = reqs[cur];
      if (rq < 0) {
        const long seq =
            kPending + static_cast<long>(count_[t] * threads_ + t);
        long got = -1, fresh = -1;
        bool had = false;
        std::size_t cc_out = 0;
        const bool ok = timed_call(s_->stm, out, [&](stm::Txn& tx) {
          std::size_t cc = cand_[t];
          got = -1;
          std::optional<long> m;
          {
            Span sp(SpanKind::WriteOp);
            m = queue.remove_min(tx);
          }
          if (!m) return;
          got = *m & 0xFFFF;
          {
            Span sp(SpanKind::WriteOp);
            had = index.remove(tx, got).has_value();
          }
          for (;;) {
            const long c = cands[cc];
            cc = cc + 1 == cands.size() ? 0 : cc + 1;
            bool present;
            {
              Span sp(SpanKind::ReadOp);
              present = index.contains(tx, c);
            }
            if (!present) {
              fresh = c;
              break;
            }
          }
          {
            Span sp(SpanKind::WriteOp);
            index.put(tx, fresh, 1L);
          }
          {
            Span sp(SpanKind::WriteOp);
            queue.insert(tx, seq << 16 | fresh);
          }
          cc_out = cc;
        });
        if (ok) {
          if (got < 0 || !had) {
            ++bad_[t];
          } else {
            ++dispatched_[t][static_cast<std::size_t>(got)];
            ++submitted_[t][static_cast<std::size_t>(fresh)];
            cand_[t] = cc_out;
            ++count_[t];
          }
        }
      } else {
        const long lo = rq;
        long sum = 0;
        const bool ok = timed_call(s_->stm, out, [&](stm::Txn& tx) {
          Span sp(SpanKind::ReadOp);
          sum = window_sum(index, tx, lo, lo + kWindow - 1);
        });
        if (ok && (sum < 0 || sum > kWindow)) ++bad_[t];
      }
      cur = cur + 1 == reqs.size() ? 0 : cur + 1;
    }
    cursor_[t] = cur;
  }

  bool check(bool corrupt, std::string& why) override {
    // Expected pending set from the tallies: prefill + submitted -
    // dispatched, per key; no key dispatched more often than submitted.
    std::vector<int> expect(kKeys, 0);
    for (long k : in_->initial) expect[static_cast<std::size_t>(k)] = 1;
    for (unsigned t = 0; t < threads_; ++t) {
      for (std::size_t k = 0; k < static_cast<std::size_t>(kKeys); ++k) {
        expect[k] += submitted_[t][k] - dispatched_[t][k];
      }
    }
    if (corrupt) {
      const long k = in_->initial[0];
      ++submitted_[0][static_cast<std::size_t>(k)];
      ++expect[static_cast<std::size_t>(k)];
    }
    long over_dispatched = 0;
    for (int e : expect) over_dispatched += e < 0 || e > 1;
    std::uint64_t bad = std::accumulate(bad_.begin(), bad_.end(), 0ull);

    // Index contents.
    std::vector<std::uint8_t> in_index(kKeys, 0);
    constexpr long kBatch = 256;
    for (long k0 = 0; k0 < kKeys; k0 += kBatch) {
      s_->stm.atomically([&](stm::Txn& tx) {
        for (long k = k0; k < k0 + kBatch; ++k) {
          in_index[static_cast<std::size_t>(k)] = s_->index.contains(tx, k);
        }
      });
    }
    // Queue contents: drain it.
    std::vector<std::uint8_t> in_queue(kKeys, 0);
    long queued = 0, dup = 0;
    for (;;) {
      std::optional<long> m;
      s_->stm.atomically(
          [&](stm::Txn& tx) { m = s_->queue.remove_min(tx); });
      if (!m) break;
      std::uint8_t& q = in_queue[static_cast<std::size_t>(*m & 0xFFFF)];
      dup += q;
      q = 1;
      ++queued;
    }
    long set_diff = 0, tally_diff = 0, indexed = 0;
    for (std::size_t k = 0; k < static_cast<std::size_t>(kKeys); ++k) {
      set_diff += in_index[k] != in_queue[k];
      tally_diff += in_index[k] != expect[k];
      indexed += in_index[k];
    }
    if (bad == 0 && over_dispatched == 0 && dup == 0 && set_diff == 0 &&
        tally_diff == 0 && queued == kPending && indexed == kPending) {
      return true;
    }
    why += name() + ": bad results " + std::to_string(bad) +
           ", keys with pending count outside 0..1 " +
           std::to_string(over_dispatched) + ", queue duplicates " +
           std::to_string(dup) + ", queue/index set difference " +
           std::to_string(set_diff) + ", index/tally difference " +
           std::to_string(tally_diff) + ", queued " + std::to_string(queued) +
           ", indexed " + std::to_string(indexed) + "; ";
    return false;
  }

  double base_pass(unsigned threads, double seconds) override {
    using IB = typename Stack::IndexBase;
    using QB = typename Stack::QueueBase;
    std::unique_ptr<IB> index = make_base<IB>(kKeys);
    auto queue = std::make_unique<QB>();
    for (std::size_t i = 0; i < in_->initial.size(); ++i) {
      index->put(in_->initial[i], 1L);
      base_push(*queue, static_cast<long>(i) << 16 | in_->initial[i]);
    }
    std::vector<std::size_t> cur(threads, 0), cc(threads, 0);
    std::vector<long> n(threads, 0), sink(threads, 0);
    const double per_op = base_loop(threads, seconds, [&](unsigned t) {
      const std::vector<std::int32_t>& reqs = in_->reqs[t];
      const std::vector<long>& cands = in_->cands[t];
      const std::int32_t rq = reqs[cur[t]];
      cur[t] = cur[t] + 1 == reqs.size() ? 0 : cur[t] + 1;
      if (rq >= 0) {
        const auto [sum, calls] = base_window(*index, rq, rq + kWindow - 1);
        sink[t] += sum;
        return calls;
      }
      const std::optional<long> m = base_pop(*queue);
      if (!m) return 1u;
      index->remove(*m & 0xFFFF);
      unsigned calls = 2;
      long fresh;
      do {
        fresh = cands[cc[t]];
        cc[t] = cc[t] + 1 == cands.size() ? 0 : cc[t] + 1;
        ++calls;
      } while (index->contains(fresh));
      index->put(fresh, 1L);
      base_push(*queue, (kPending + n[t]++ * threads + t) << 16 | fresh);
      return calls + 2;
    });
    if (std::accumulate(sink.begin(), sink.end(), 0L) == -1) std::printf("#\n");
    return per_op;
  }

 private:
  std::shared_ptr<const JobsInputs> in_;
  std::unique_ptr<Stack> s_;
  unsigned threads_;
  std::vector<std::vector<int>> submitted_;   // per thread, per key
  std::vector<std::vector<int>> dispatched_;  // per thread, per key
  std::vector<std::uint64_t> bad_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> cand_;
  std::vector<std::uint64_t> count_;
};

class JobsWorkload final : public Workload {
 public:
  unsigned threads() const override { return 4; }
  std::vector<std::unique_ptr<Cell>> build(const Options& o) override {
    auto in = make_inputs(load_threads(threads()), o.seed);
    std::vector<std::unique_ptr<Cell>> cells;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      cells.push_back(visit_jobs_config(c, [&]<class S>(std::type_identity<S>,
                                                        stm::Mode mode) {
        return std::unique_ptr<Cell>(
            new JobsCell<S>(kConfigs[c], in, std::make_unique<S>(mode)));
      }));
    }
    return cells;
  }
};

}  // namespace

std::unique_ptr<Workload> make_jobs_workload() {
  return std::make_unique<JobsWorkload>();
}

}  // namespace perfbench
