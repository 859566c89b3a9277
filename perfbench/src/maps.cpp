// map-update and map-read-skew: one hash map per configuration, driven by
// the same per-thread op streams, each transaction `ops` map operations.
//
//   map-update     4 096 keys, uniform, 4 ops/txn, 50% updates
//   map-read-skew  65 536 keys, Zipf θ=0.9, 16 ops/txn, 5% updates
//
// Updates split evenly between put and remove; both maps start with exactly
// half of the keys present. A stored value encodes its key in the bits above
// 20, so every returned value can be checked against the key asked for.
#include <algorithm>
#include <numeric>

#include "baselines/pure_stm_map.hpp"
#include "bench_util/workload.hpp"
#include "common/rng.hpp"
#include "configs.hpp"

namespace perfbench {
namespace {

struct MapParams {
  long keys;
  unsigned ops;       // map operations per transaction
  double update;      // share of operations that update
  double zipf;        // 0 = uniform
};

enum : std::uint32_t { kGet = 0, kPut = 1, kRemove = 2 };
constexpr unsigned kTxnsPerStream = 16384;
constexpr int kValueShift = 20;

/// Inputs shared by every cell of one set-up: per-thread op streams (kind
/// in the top 8 bits, key in the low 24) and the prefilled key set.
struct MapInputs {
  MapParams p;
  unsigned threads;
  std::vector<std::vector<std::uint32_t>> streams;
  std::vector<std::uint8_t> prefilled;
};

std::shared_ptr<const MapInputs> make_inputs(const MapParams& p,
                                             unsigned threads,
                                             std::uint64_t seed) {
  auto in = std::make_shared<MapInputs>();
  in->p = p;
  in->threads = threads;
  // Zipf ranks map to keys through a seeded permutation, so the hot keys
  // move with the seed instead of always being 0, 1, 2, ...
  proust::Xoshiro256 rng(derive_seed(seed, 1));
  std::vector<long> perm(static_cast<std::size_t>(p.keys));
  std::iota(perm.begin(), perm.end(), 0L);
  std::shuffle(perm.begin(), perm.end(), rng);
  in->prefilled.assign(static_cast<std::size_t>(p.keys), 0);
  std::vector<long> order(perm);
  std::shuffle(order.begin(), order.end(), rng);
  for (long i = 0; i < p.keys / 2; ++i) {
    in->prefilled[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = 1;
  }
  const proust::bench::ZipfSampler zipf(p.keys, p.zipf);
  for (unsigned t = 0; t < threads; ++t) {
    proust::Xoshiro256 r(derive_seed(seed, 100 + t));
    std::vector<std::uint32_t> s(std::size_t{kTxnsPerStream} * p.ops);
    for (std::uint32_t& op : s) {
      const double u = r.uniform();
      const std::uint32_t kind = u < p.update / 2 ? kPut
                                 : u < p.update   ? kRemove
                                                  : kGet;
      const long key = perm[static_cast<std::size_t>(zipf.sample(r))];
      op = kind << 24 | static_cast<std::uint32_t>(key);
    }
    in->streams.push_back(std::move(s));
  }
  return in;
}

/// One map cell. `Stack` owns the Stm and map (a MapStack, or the pure-STM
/// baseline); `Base` is the container for the base-only pass (void: none).
template <class Stack, class Base>
class MapCell final : public Cell {
 public:
  MapCell(std::string name, std::shared_ptr<const MapInputs> in,
          std::unique_ptr<Stack> stack)
      : Cell(std::move(name)), in_(std::move(in)), stack_(std::move(stack)),
        threads_(in_->threads), net_(threads_), bad_(threads_, 0),
        cursor_(threads_, 0), seq_(threads_, 0) {
    for (auto& n : net_) n.assign(static_cast<std::size_t>(in_->p.keys), 0);
    for (long k = 0; k < in_->p.keys; ++k) {
      if (in_->prefilled[static_cast<std::size_t>(k)]) {
        stack_->map.unsafe_put(k, k << kValueShift);
      }
    }
  }

  stm::Stm& stm() override { return stack_->stm; }

  void work(unsigned t, const std::atomic<bool>& stop,
            WorkerOut& out) override {
    auto& map = stack_->map;
    const std::vector<std::uint32_t>& s = in_->streams[t];
    const unsigned ops = in_->p.ops;
    std::vector<std::int32_t>& net = net_[t];
    std::size_t cur = cursor_[t];
    std::uint64_t seq = seq_[t];
    std::array<std::int8_t, 16> res{};
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint32_t* op = &s[cur];
      const bool ok = timed_call(stack_->stm, out, [&](stm::Txn& tx) {
        for (unsigned i = 0; i < ops; ++i) {
          const std::uint32_t kind = op[i] >> 24;
          const long key = op[i] & 0xFFFFFF;
          res[i] = 0;
          if (kind == kGet) {
            Span sp(SpanKind::ReadOp);
            const std::optional<long> v = map.get(tx, key);
            if (v && (*v >> kValueShift) != key) res[i] = kBad;
          } else if (kind == kPut) {
            Span sp(SpanKind::WriteOp);
            const long val =
                key << kValueShift | static_cast<long>((seq + i) & 0xFFFFF);
            const std::optional<long> r = map.put(tx, key, val);
            res[i] = !r                              ? kInserted
                     : (*r >> kValueShift) != key ? kBad
                                                  : 0;
          } else {
            Span sp(SpanKind::WriteOp);
            const std::optional<long> r = map.remove(tx, key);
            res[i] = !r                              ? 0
                     : (*r >> kValueShift) != key ? kBad
                                                  : kRemoved;
          }
        }
      });
      // Tallies come from the committed call's return values only.
      if (ok) {
        for (unsigned i = 0; i < ops; ++i) {
          const std::size_t key = op[i] & 0xFFFFFF;
          if (res[i] == kInserted) ++net[key];
          if (res[i] == kRemoved) --net[key];
          if (res[i] == kBad) ++bad_[t];
        }
        seq += ops;
      }
      cur += ops;
      if (cur >= s.size()) cur = 0;
    }
    cursor_[t] = cur;
    seq_[t] = seq;
  }

  bool check(bool corrupt, std::string& why) override {
    const long keys = in_->p.keys;
    std::vector<int> expect(static_cast<std::size_t>(keys));
    for (long k = 0; k < keys; ++k) {
      int e = in_->prefilled[static_cast<std::size_t>(k)];
      for (const auto& n : net_) e += n[static_cast<std::size_t>(k)];
      expect[static_cast<std::size_t>(k)] = e;
    }
    if (corrupt) expect[static_cast<std::size_t>(keys / 3)] += 1;
    std::uint64_t bad = 0;
    for (std::uint64_t b : bad_) bad += b;
    long mismatches = 0;
    constexpr long kBatch = 64;
    for (long k0 = 0; k0 < keys; k0 += kBatch) {
      std::array<std::int8_t, kBatch> present{};
      stack_->stm.atomically([&](stm::Txn& tx) {
        for (long k = k0; k < std::min(keys, k0 + kBatch); ++k) {
          const std::optional<long> v = stack_->map.get(tx, k);
          present[static_cast<std::size_t>(k - k0)] =
              !v ? 0 : (*v >> kValueShift) == k ? 1 : 2;
        }
      });
      for (long k = k0; k < std::min(keys, k0 + kBatch); ++k) {
        if (present[static_cast<std::size_t>(k - k0)] !=
            expect[static_cast<std::size_t>(k)]) {
          ++mismatches;
        }
      }
    }
    if (bad == 0 && mismatches == 0) return true;
    why += name() + ": " + std::to_string(bad) + " values with a foreign key, " +
           std::to_string(mismatches) + " keys whose presence disagrees with "
           "prefill + inserts - removes; ";
    return false;
  }

  double base_pass(unsigned threads, double seconds) override {
    if constexpr (std::is_void_v<Base>) {
      return 0;
    } else {
      std::unique_ptr<Base> base = make_base<Base>(in_->p.keys);
      for (long k = 0; k < in_->p.keys; ++k) {
        if (in_->prefilled[static_cast<std::size_t>(k)]) {
          base->put(k, k << kValueShift);
        }
      }
      std::vector<std::size_t> cur(threads, 0);
      std::vector<long> sink(threads, 0);
      const unsigned ops = in_->p.ops;
      const double per_op = base_loop(threads, seconds, [&](unsigned t) {
        const std::vector<std::uint32_t>& s = in_->streams[t];
        const std::uint32_t* op = &s[cur[t]];
        for (unsigned i = 0; i < ops; ++i) {
          const long key = op[i] & 0xFFFFFF;
          switch (op[i] >> 24) {
            case kGet: sink[t] += base->get(key).value_or(0); break;
            case kPut: sink[t] += base->put(key, key << kValueShift).value_or(0); break;
            default: sink[t] += base->remove(key).value_or(0); break;
          }
        }
        cur[t] += ops;
        if (cur[t] >= s.size()) cur[t] = 0;
        return ops;
      });
      if (std::accumulate(sink.begin(), sink.end(), 0L) == 42) std::printf("#\n");
      return per_op;
    }
  }

 private:
  enum : std::int8_t { kInserted = 1, kRemoved = 2, kBad = 3 };

  std::shared_ptr<const MapInputs> in_;
  std::unique_ptr<Stack> stack_;
  unsigned threads_;
  std::vector<std::vector<std::int32_t>> net_;  // per thread, per key
  std::vector<std::uint64_t> bad_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint64_t> seq_;
};

/// The pure-STM reference: the whole map in STM memory (open addressing,
/// 4x the key range), no Proust layer. Size tracking is off: the Proust
/// maps reify size out of the abstract state, so a shared size var would
/// measure that hot spot instead of the STM.
struct PureStack {
  explicit PureStack(long keys)
      : stm(stm::Mode::Lazy), map(stm, static_cast<std::size_t>(keys) * 4,
                                  /*track_size=*/false) {}
  stm::Stm stm;
  proust::baselines::PureStmMap<long, long> map;
};

class MapWorkload final : public Workload {
 public:
  explicit MapWorkload(const MapParams& p) : p_(p) {}
  unsigned threads() const override { return 4; }

  std::vector<std::unique_ptr<Cell>> build(const Options& o) override {
    in_ = make_inputs(p_, load_threads(threads()), o.seed);
    std::vector<std::unique_ptr<Cell>> cells;
    for (std::size_t c = 0; c < kConfigs.size(); ++c) {
      cells.push_back(visit_map_config(c, [&]<class S>(std::type_identity<S>,
                                                       stm::Mode mode) {
        return std::unique_ptr<Cell>(new MapCell<S, typename S::Base>(
            kConfigs[c], in_, std::make_unique<S>(mode, p_.keys)));
      }));
    }
    return cells;
  }

  std::vector<std::pair<std::string, std::unique_ptr<Cell>>> references(
      const Options&) override {
    std::vector<std::pair<std::string, std::unique_ptr<Cell>>> r;
    r.emplace_back("pure", std::make_unique<MapCell<PureStack, void>>(
                               "pure-stm", in_,
                               std::make_unique<PureStack>(p_.keys)));
    return r;
  }

 private:
  MapParams p_;
  std::shared_ptr<const MapInputs> in_;
};

}  // namespace

std::unique_ptr<Workload> make_map_workload(const std::string& name) {
  if (name == "map-update") {
    return std::make_unique<MapWorkload>(MapParams{4096, 4, 0.5, 0.0});
  }
  return std::make_unique<MapWorkload>(MapParams{65536, 16, 0.05, 0.9});
}

}  // namespace perfbench
