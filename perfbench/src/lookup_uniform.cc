// lookup_uniform: FitingTree<int64_t> with its shipped defaults, one client
// thread, uniform point lookups of present keys plus 5% in-place payload
// updates (the update path descends and searches exactly like a lookup and
// never merges). Traced runs add the core-layer ledger: the directory,
// window-search and whole-lookup passes over one probe stream, prediction
// error against epsilon, and segmentation cost.

#include <memory>
#include <span>

#include "bench.h"
#include "core/fiting_tree.h"
#include "core/flat_directory.h"
#include "core/search_policy.h"
#include "core/shrinking_cone.h"

namespace perfbench {
namespace {

using Tree = fitree::FitingTree<Key>;

constexpr double kUpdateFraction = 0.05;
constexpr size_t kWarmupOps = 200'000;
constexpr size_t kLedgerProbes = size_t{1} << 19;
constexpr int kLedgerReps = 3;

enum SpanKind : uint32_t { kSpanLookup, kSpanUpdate };

class Client {
 public:
  Client(Tree& tree, const std::vector<Key>& keys,
         std::vector<Payload>& model, uint64_t seed, bool traced)
      : tree_(tree), keys_(keys), model_(model), rng_(seed), traced_(traced) {
    next_ = rng_() % keys_.size();
  }

  // Issues and checks one op, recording it when `windows` is set (the
  // timed phase); returns its completion time. The next op's
  // rank is drawn one step ahead so its key and model slot are already
  // travelling from memory while this op runs (outside its timing).
  uint64_t Step(const Windows* windows) {
    const size_t r = next_;
    next_ = rng_() % keys_.size();
    __builtin_prefetch(&keys_[next_]);
    __builtin_prefetch(&model_[next_]);
    const Key key = keys_[r];
    if (Unit(rng_) < kUpdateFraction) {
      const Payload v = NewPayload(rng_);
      const uint64_t t0 = NowNs();
      const bool ok = tree_.Update(key, v);
      const uint64_t t1 = NowNs();
      outcome.Check(ok, [&] {
        return "update of present key " + std::to_string(key) +
               " returned false";
      });
      model_[r] = v;
      if (windows != nullptr) {
        writes.Add(windows->Of(t1), t1 - t0);
        rate.Add(windows->Of(t1));
        if (traced_) spans.push_back({kSpanUpdate, t0, t1});
      }
      return t1;
    }
    const uint64_t t0 = NowNs();
    const auto got = tree_.Lookup(key);
    const uint64_t t1 = NowNs();
    outcome.Check(got.has_value() && *got == model_[r], [&] {
      return "lookup " + std::to_string(key) + " disagrees with the model";
    });
    if (windows != nullptr) {
      reads.Add(windows->Of(t1), t1 - t0);
      rate.Add(windows->Of(t1));
      if (traced_) spans.push_back({kSpanLookup, t0, t1});
    }
    return t1;
  }

  WindowedLog reads, writes;
  WindowedRate rate;
  std::vector<Span> spans;
  Outcome outcome;

 private:
  Tree& tree_;
  const std::vector<Key>& keys_;
  std::vector<Payload>& model_;  // current payload per base rank
  std::mt19937_64 rng_;
  bool traced_;
  size_t next_ = 0;
};

// Median ns per probe of `pass` over kLedgerReps repetitions.
template <typename Pass>
double TimePass(size_t probes, Pass pass) {
  std::vector<double> ns;
  for (int rep = 0; rep < kLedgerReps; ++rep) {
    const uint64_t t0 = NowNs();
    pass();
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(probes));
  }
  return Median(ns);
}

// The core layer timed from outside over one uniform probe stream of
// present keys: FlatKeyIndex::FloorIndex alone, ErrorWindow +
// BoundedLowerBound alone, and the whole FitingTree::Lookup; the
// remainder of the lookup is prediction, buffer probe and payload.
void CoreLedger(const Dataset& ds, const Tree& tree, uint64_t seed,
                Report* layer, Outcome* outcome) {
  const std::vector<Key>& keys = ds.keys;
  const size_t n = keys.size();

  std::vector<fitree::Segment<Key>> segs;
  std::vector<double> cone_s;
  for (int rep = 0; rep < kLedgerReps; ++rep) {
    const uint64_t t0 = NowNs();
    segs = fitree::SegmentShrinkingCone<Key>(std::span<const Key>(keys),
                                             kEpsilon);
    cone_s.push_back(static_cast<double>(NowNs() - t0));
  }
  layer->Add("core.segments", static_cast<double>(segs.size()), "count");
  layer->Add("core.segment_ns_per_key",
             Median(cone_s) / static_cast<double>(n), "ns");

  // |prediction - true rank| over every key.
  double err_sum = 0.0, err_max = 0.0;
  for (const auto& s : segs) {
    for (size_t i = s.start; i < s.start + s.length; ++i) {
      const double err = std::fabs(s.Predict(keys[i]) - static_cast<double>(i));
      err_sum += err;
      err_max = std::max(err_max, err);
    }
  }
  layer->Add("core.pred_err_mean", err_sum / static_cast<double>(n), "keys");
  layer->Add("core.pred_err_max", err_max, "keys");
  outcome->Check(err_max <= kEpsilon, [&] {
    return "core.pred_err_max " + std::to_string(err_max) +
           " exceeds epsilon";
  });

  std::vector<Key> first_keys;
  first_keys.reserve(segs.size());
  for (const auto& s : segs) first_keys.push_back(s.first_key);
  const fitree::FlatKeyIndex<Key> dir(std::move(first_keys));

  const size_t m = std::min(kLedgerProbes, 4 * n);
  std::vector<Key> probes(m);
  std::vector<size_t> probe_rank(m);
  std::mt19937_64 rng(StreamSeed(seed, kProbeStream));
  for (size_t i = 0; i < m; ++i) {
    probe_rank[i] = rng() % n;
    probes[i] = keys[probe_rank[i]];
  }
  // Inputs of the window pass, computed outside its timing.
  std::vector<size_t> seg_of(m);
  std::vector<double> pred(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t f = dir.FloorIndex(probes[i]);
    seg_of[i] = f == fitree::FlatKeyIndex<Key>::kNone ? 0 : f;
    pred[i] = segs[seg_of[i]].Predict(probes[i]);
  }

  uint64_t sink = 0;
  const double directory_ns = TimePass(m, [&] {
    for (size_t i = 0; i < m; ++i) sink += dir.FloorIndex(probes[i]);
  });
  double window_keys = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const auto& s = segs[seg_of[i]];
    const auto [b, e] =
        fitree::ErrorWindow(pred[i], kEpsilon, s.start, s.start + s.length);
    window_keys += static_cast<double>(e - b);
  }
  size_t window_misses = 0;
  const double window_ns = TimePass(m, [&] {
    window_misses = 0;
    for (size_t i = 0; i < m; ++i) {
      const auto& s = segs[seg_of[i]];
      const auto [b, e] =
          fitree::ErrorWindow(pred[i], kEpsilon, s.start, s.start + s.length);
      const size_t hint = static_cast<size_t>(std::max(0.0, pred[i]));
      const size_t at = fitree::detail::BoundedLowerBound(
          keys.data(), b, e, hint, probes[i], fitree::SearchPolicy::kSimd);
      window_misses += at != probe_rank[i];
    }
  });
  outcome->Check(window_misses == 0, [&] {
    return std::to_string(window_misses) +
           " window searches missed the probe's rank";
  });
  const double lookup_ns = TimePass(m, [&] {
    for (size_t i = 0; i < m; ++i) sink += tree.Lookup(probes[i]).value_or(0);
  });
  Consume(sink);

  layer->Add("core.directory_ns", directory_ns, "ns");
  layer->Add("core.window_search_ns", window_ns, "ns");
  layer->Add("core.lookup_ns", lookup_ns, "ns");
  layer->Add("core.lookup_rest_ns", lookup_ns - directory_ns - window_ns,
             "ns");
  layer->Add("core.window_keys", window_keys / static_cast<double>(m),
             "keys");
}

}  // namespace

WorkloadResult RunLookupUniform(const Dataset& ds, uint64_t seed,
                                const RunConfig& rc) {
  WorkloadResult res;
  std::unique_ptr<Tree> tree;
  std::vector<double> setup_s;
  for (int rep = 0; rep < rc.setup_reps; ++rep) {
    tree.reset();
    const uint64_t t0 = NowNs();
    tree = Tree::Create(ds.keys, ds.values, fitree::FitingTreeConfig{});
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::vector<Payload> model = ds.values;
  if (rc.corrupt_reference) CorruptModel(&model);

  Client client(*tree, ds.keys, model, StreamSeed(seed, kClientStream),
                rc.traced);
  for (size_t i = 0; i < std::min(kWarmupOps, 4 * ds.keys.size()); ++i) {
    client.Step(nullptr);
  }
  const double bytes_per_key = BytesPerKey(tree->IndexSizeBytes(), tree->size());
  const Windows windows(NowNs(), rc.seconds);
  for (uint64_t end = 0; end < windows.deadline();) end = client.Step(&windows);
  res.ops_per_s = client.rate.PerSecond(windows);

  res.outcome.Merge(client.outcome);
  res.outcome.Check(tree->size() == ds.keys.size(), [&] {
    return "size " + std::to_string(tree->size()) + " after a read/update run";
  });

  res.end_to_end.Add("setup_s", Median(setup_s), "s");
  res.end_to_end.Add("ops_per_s", res.ops_per_s, "ops/s");
  res.end_to_end.Add("read_p50_ns", client.reads.Percentile(0.50), "ns");
  res.end_to_end.Add("read_p99_ns", client.reads.Percentile(0.99), "ns");
  res.end_to_end.Add("write_p50_ns", client.writes.Percentile(0.50), "ns");
  res.end_to_end.Add("write_p99_ns", client.writes.Percentile(0.99), "ns");
  res.end_to_end.Add("index_bytes_per_key", bytes_per_key, "B");
  res.detail.Add("read_samples", static_cast<double>(client.reads.count()),
                 "count");
  res.detail.Add("write_samples", static_cast<double>(client.writes.count()),
                 "count");
  res.detail.Add("segments", static_cast<double>(tree->SegmentCount()),
                 "count");
  if (rc.traced) {
    res.detail.Add("trace_spans", static_cast<double>(client.spans.size()),
                   "count");
    CoreLedger(ds, *tree, seed, &res.layer, &res.outcome);
  }
  return res;
}

}  // namespace perfbench
