// rw_concurrent: ConcurrentFitingTree<int64_t> with its shipped defaults
// (inline merges), four client threads, a Zipfian mix of 50% reads, 20%
// inserts, 20% updates, 5% deletes and 5% scans of about 100 keys. Reads,
// updates and scans draw Zipfian ranks; inserts land in uniformly chosen
// gaps and deletes hit uniformly chosen keys, so the hot set stays live for
// the whole run instead of being deleted away in its first seconds.
//
// Every client owns an interleaved slice of the key space (bench.h
// Partition), so its model of its own keys is exact: point replies are
// checked op by op, scans are checked for order and bounds everywhere and
// for exact contents on the client's own keys, and the final state is
// checked by size, a full scan and sampled absent keys. Traced runs add
// the concurrency ledger, including the same streams replayed on one
// thread.

#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "concurrency/concurrent_fiting_tree.h"

namespace perfbench {
namespace {

using Tree = fitree::ConcurrentFitingTree<Key>;
using Zipf = fitree::workloads::detail::ZipfianRanks;

constexpr size_t kThreads = 4;
constexpr size_t kScanKeys = 100;
constexpr size_t kWarmupOpsPerThread = 50'000;
constexpr size_t kAbsentSamples = 10'000;

enum Kind : uint32_t { kRead, kInsert, kUpdate, kDelete, kScan, kKinds };

class Client {
 public:
  Client(Tree& tree, const std::vector<Key>& keys,
         std::vector<Payload>& model, const Zipf& zipf, size_t part,
         uint64_t seed, bool traced)
      : tree_(tree),
        keys_(keys),
        model_(model),
        part_(keys.size(), kThreads, part),
        zipf_(zipf),
        rng_(StreamSeed(seed, kClientStream + part)),
        traced_(traced) {}

  // Issues and checks one op, recording it when `windows` is set (the
  // timed phase); returns its completion time.
  uint64_t Step(const Windows* windows) {
    const double u = Unit(rng_);
    Kind kind = kRead;
    Key key = 0;
    if (u < 0.50) {
      kind = kRead;
    } else if (u < 0.70) {
      kind = DrawInsertKey(keys_, part_, rng_, &key) ? kInsert : kRead;
    } else if (u < 0.90) {
      kind = kUpdate;
    } else if (u < 0.95) {
      kind = kDelete;
    } else {
      kind = kScan;
    }
    uint64_t t0 = 0, t1 = 0;
    switch (kind) {
      case kRead: {
        const size_t r = ZipfRank();
        t0 = NowNs();
        const auto got = tree_.Lookup(keys_[r]);
        t1 = NowNs();
        const Payload want = model_[r];
        outcome.Check(want == 0 ? !got.has_value()
                                : got.has_value() && *got == want,
                      [&] { return Describe("lookup", keys_[r]); });
        break;
      }
      case kInsert: {
        const Payload v = NewPayload(rng_);
        t0 = NowNs();
        const bool ok = tree_.Insert(key, v);
        t1 = NowNs();
        const bool fresh = inserted.emplace(key, v).second;
        outcome.Check(ok == fresh, [&] { return Describe("insert", key); });
        inserts_ok += ok;
        break;
      }
      case kUpdate: {
        const size_t r = ZipfRank();
        const Payload v = NewPayload(rng_);
        t0 = NowNs();
        const bool ok = tree_.Update(keys_[r], v);
        t1 = NowNs();
        outcome.Check(ok == (model_[r] != 0),
                      [&] { return Describe("update", keys_[r]); });
        if (model_[r] != 0) model_[r] = v;
        break;
      }
      case kDelete: {
        const size_t r = part_.rank(rng_() % part_.owned_ranks());
        t0 = NowNs();
        const bool ok = tree_.Delete(keys_[r]);
        t1 = NowNs();
        outcome.Check(ok == (model_[r] != 0),
                      [&] { return Describe("delete", keys_[r]); });
        deletes_ok += ok;
        model_[r] = 0;
        break;
      }
      case kScan: {
        const size_t r = ZipfRank();
        const size_t hi_rank = std::min(keys_.size() - 1, r + kScanKeys - 1);
        scan_out_.clear();
        t0 = NowNs();
        const size_t count = tree_.ScanRange(
            keys_[r], keys_[hi_rank], [this](const Key& k, const Payload& v) {
              scan_out_.emplace_back(k, v);
            });
        t1 = NowNs();
        outcome.Check(count == scan_out_.size() && ScanAgrees(r, hi_rank),
                      [&] { return Describe("scan from", keys_[r]); });
        break;
      }
      case kKinds:
        break;
    }
    if (windows != nullptr) {
      latency[kind].Add(windows->Of(t1), t1 - t0);
      rate.Add(windows->Of(t1));
      if (traced_) spans.push_back({kind, t0, t1});
    }
    return t1;
  }

  WindowedLog latency[kKinds];
  WindowedRate rate;
  std::vector<Span> spans;
  Outcome outcome;
  std::map<Key, Payload> inserted;  // this client's inserts (never deleted)
  uint64_t inserts_ok = 0;
  uint64_t deletes_ok = 0;

 private:
  size_t ZipfRank() { return part_.rank(zipf_.Next(rng_)); }

  std::string Describe(const char* op, Key key) const {
    return std::string(op) + " " + std::to_string(key) + " (client " +
           std::to_string(part_.part()) + ") disagrees with the model";
  }

  // A scan of base ranks [r, hi_rank]: keys ascending and in bounds, and
  // exactly this client's live keys with their payloads. Other clients'
  // keys are changing underneath, so only their order is checked.
  bool ScanAgrees(size_t r, size_t hi_rank) const {
    const Key lo = keys_[r], hi = keys_[hi_rank];
    size_t slot = r, own_seen = 0;
    for (size_t i = 0; i < scan_out_.size(); ++i) {
      const auto& [k, v] = scan_out_[i];
      if (k < lo || k > hi || (i > 0 && !(scan_out_[i - 1].first < k))) {
        return false;
      }
      while (slot < hi_rank && keys_[slot + 1] <= k) ++slot;
      if (part_.OwnerOf(slot) != part_.part()) continue;
      ++own_seen;
      if (keys_[slot] == k) {
        if (model_[slot] != v) return false;
      } else {
        const auto it = inserted.find(k);
        if (it == inserted.end() || it->second != v) return false;
      }
    }
    size_t own_live = 0;
    for (size_t s = r; s <= hi_rank; ++s) {
      own_live += part_.OwnerOf(s) == part_.part() && model_[s] != 0;
    }
    for (auto it = inserted.lower_bound(lo);
         it != inserted.end() && it->first <= hi; ++it) {
      ++own_live;
    }
    return own_seen == own_live;
  }

  Tree& tree_;
  const std::vector<Key>& keys_;
  std::vector<Payload>& model_;  // payload per base rank, 0 once deleted
  Partition part_;
  Zipf zipf_;
  std::mt19937_64 rng_;
  bool traced_;
  std::vector<std::pair<Key, Payload>> scan_out_;
};

std::vector<std::unique_ptr<Client>> MakeClients(Tree& tree, const Dataset& ds,
                                                 std::vector<Payload>& model,
                                                 const Zipf& zipf,
                                                 uint64_t seed, bool traced) {
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.push_back(std::make_unique<Client>(tree, ds.keys, model, zipf, t,
                                               seed, traced));
  }
  return clients;
}

// Final state against the merged models: size, a full scan, and sampled
// keys that were never inserted.
void CheckFinalState(const Tree& tree, const Dataset& ds,
                     const std::vector<Payload>& model,
                     const std::vector<std::unique_ptr<Client>>& clients,
                     uint64_t seed, Outcome* outcome) {
  const std::vector<Key>& keys = ds.keys;
  std::vector<std::pair<Key, Payload>> ins;
  size_t expected_size = keys.size();
  for (const auto& c : clients) {
    ins.insert(ins.end(), c->inserted.begin(), c->inserted.end());
    expected_size += c->inserts_ok;
    expected_size -= c->deletes_ok;
  }
  std::sort(ins.begin(), ins.end());
  outcome->Check(tree.size() == expected_size, [&] {
    return "size " + std::to_string(tree.size()) + ", model says " +
           std::to_string(expected_size);
  });

  size_t b = 0, i = 0, mismatches = 0;
  const auto skip_deleted = [&] {
    while (b < keys.size() && model[b] == 0) ++b;
  };
  skip_deleted();
  tree.ScanRange(std::numeric_limits<Key>::min(),
                 std::numeric_limits<Key>::max(),
                 [&](const Key& k, const Payload& v) {
                   const bool from_base =
                       b < keys.size() &&
                       (i >= ins.size() || keys[b] < ins[i].first);
                   if (from_base) {
                     mismatches += keys[b] != k || model[b] != v;
                     ++b;
                     skip_deleted();
                   } else if (i < ins.size()) {
                     mismatches += ins[i].first != k || ins[i].second != v;
                     ++i;
                   } else {
                     ++mismatches;
                   }
                 });
  outcome->Check(mismatches == 0 && b == keys.size() && i == ins.size(),
                 [&] { return std::string("full scan disagrees with the model"); });

  std::mt19937_64 rng(StreamSeed(seed, kAbsentStream));
  const Partition all(keys.size(), 1, 0);
  size_t wrong = 0;
  for (size_t s = 0; s < kAbsentSamples; ++s) {
    Key k = 0;
    if (!GapKey(keys, all, rng() % (keys.size() - 1), rng, &k)) continue;
    const size_t owner = SlotOf(keys, k) % kThreads;
    if (clients[owner]->inserted.count(k) != 0) continue;
    wrong += tree.Lookup(k).has_value();
  }
  outcome->Check(wrong == 0, [&] {
    return std::to_string(wrong) + " never-inserted keys were found";
  });
}

}  // namespace

WorkloadResult RunRwConcurrent(const Dataset& ds, uint64_t seed,
                               const RunConfig& rc) {
  WorkloadResult res;
  std::unique_ptr<Tree> tree;
  std::vector<double> setup_s;
  for (int rep = 0; rep < rc.setup_reps; ++rep) {
    tree.reset();
    const uint64_t t0 = NowNs();
    tree = Tree::Create(ds.keys, ds.values, fitree::ConcurrentFitingTreeConfig{});
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::vector<Payload> model = ds.values;
  if (rc.corrupt_reference) CorruptModel(&model);

  const Zipf zipf(ds.keys.size() / kThreads);
  auto clients = MakeClients(*tree, ds, model, zipf, seed, rc.traced);
  const size_t warmup = std::min(kWarmupOpsPerThread, ds.keys.size());

  // Warm-up, then a common start; every thread stops at the deadline.
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> start{0};
  uint64_t merges_before = 0;
  double bytes_per_key = 0.0;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client& c = *clients[t];
      for (size_t i = 0; i < warmup; ++i) c.Step(nullptr);
      if (ready.fetch_add(1) + 1 == kThreads) {
        // Every other thread is parked until `start` is set.
        bytes_per_key = BytesPerKey(tree->IndexSizeBytes(), tree->size());
        merges_before = tree->stats().segment_merges;
        start.store(NowNs());
      }
      while (start.load() == 0) std::this_thread::yield();
      const Windows windows(start.load(), rc.seconds);
      for (uint64_t end = 0; end < windows.deadline();) {
        end = c.Step(&windows);
      }
    });
  }
  for (auto& th : threads) th.join();
  tree->QuiesceMerges();

  const Windows windows(start.load(), rc.seconds);
  WindowedRate rate;
  WindowedLog lat[kKinds], writes;
  for (const auto& c : clients) {
    res.outcome.Merge(c->outcome);
    rate.Append(c->rate);
    for (size_t k = 0; k < kKinds; ++k) lat[k].Append(c->latency[k]);
  }
  res.ops_per_s = rate.PerSecond(windows);
  const uint64_t total_ops = rate.total();
  const uint64_t merges = tree->stats().segment_merges - merges_before;
  writes.Append(lat[kInsert]);
  writes.Append(lat[kUpdate]);
  writes.Append(lat[kDelete]);
  CheckFinalState(*tree, ds, model, clients, seed, &res.outcome);

  const size_t segments_end = tree->SegmentCount();
  res.end_to_end.Add("setup_s", Median(setup_s), "s");
  res.end_to_end.Add("ops_per_s", res.ops_per_s, "ops/s");
  res.end_to_end.Add("read_p50_ns", lat[kRead].Percentile(0.50), "ns");
  res.end_to_end.Add("read_p99_ns", lat[kRead].Percentile(0.99), "ns");
  res.end_to_end.Add("write_p50_ns", writes.Percentile(0.50), "ns");
  res.end_to_end.Add("write_p99_ns", writes.Percentile(0.99), "ns");
  res.end_to_end.Add("index_bytes_per_key", bytes_per_key, "B");
  res.detail.Add("read_samples", static_cast<double>(lat[kRead].count()),
                 "count");
  res.detail.Add("write_samples", static_cast<double>(writes.count()), "count");
  res.detail.Add("scan_samples", static_cast<double>(lat[kScan].count()),
                 "count");
  res.detail.Add("scan_p50_ns", lat[kScan].Percentile(0.50), "ns");
  res.detail.Add("scan_p99_ns", lat[kScan].Percentile(0.99), "ns");
  res.detail.Add("merges", static_cast<double>(merges), "count");
  if (!rc.traced) return res;

  size_t spans = 0;
  for (const auto& c : clients) spans += c->spans.size();
  res.detail.Add("concurrency.trace_spans", static_cast<double>(spans), "count");
  Report& layer = res.layer;
  layer.Add("concurrency.insert_mean_ns", lat[kInsert].Mean(), "ns");
  layer.Add("concurrency.update_mean_ns", lat[kUpdate].Mean(), "ns");
  layer.Add("concurrency.delete_mean_ns", lat[kDelete].Mean(), "ns");
  layer.Add("concurrency.insert_p99_ns", lat[kInsert].Percentile(0.99), "ns");
  layer.Add("concurrency.update_p99_ns", lat[kUpdate].Percentile(0.99), "ns");
  layer.Add("concurrency.delete_p99_ns", lat[kDelete].Percentile(0.99), "ns");
  layer.Add("concurrency.scan_p50_ns", lat[kScan].Percentile(0.50), "ns");
  layer.Add("concurrency.scan_p99_ns", lat[kScan].Percentile(0.99), "ns");
  layer.Add("concurrency.merges_per_kop",
            static_cast<double>(merges) * 1000.0 /
                static_cast<double>(total_ops),
            "count");
  layer.Add("concurrency.segments_end", static_cast<double>(segments_end),
            "count");

  // The same streams replayed round-robin on one thread, against a fresh
  // tree and model, for as long as the threaded run lasted (a prefix of
  // each stream when one thread cannot finish them in that time).
  std::vector<uint64_t> clients_ops;
  for (const auto& c : clients) clients_ops.push_back(c->rate.total());
  clients.clear();
  tree.reset();
  tree = Tree::Create(ds.keys, ds.values, fitree::ConcurrentFitingTreeConfig{});
  model = ds.values;
  if (rc.corrupt_reference) CorruptModel(&model);
  auto replay = MakeClients(*tree, ds, model, zipf, seed, rc.traced);
  for (auto& c : replay) {
    for (size_t i = 0; i < warmup; ++i) c->Step(nullptr);
  }
  const Windows r_windows(NowNs(), rc.seconds);
  std::vector<uint64_t> done(kThreads, 0);
  WindowedRate r_rate;
  for (uint64_t end = 0; end < r_windows.deadline();) {
    bool more = false;
    for (size_t t = 0; t < kThreads; ++t) {
      if (done[t] == clients_ops[t]) continue;
      end = replay[t]->Step(&r_windows);
      r_rate.Add(r_windows.Of(end));
      ++done[t];
      more = true;
    }
    if (!more) break;
  }
  for (const auto& c : replay) res.outcome.Merge(c->outcome);
  const double ops_1t = r_rate.PerSecond(r_windows);
  layer.Add("concurrency.ops_per_s_1t", ops_1t, "ops/s");
  layer.Add("concurrency.scaling", res.ops_per_s / ops_1t, "ratio");
  return res;
}

}  // namespace perfbench
