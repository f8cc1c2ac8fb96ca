// Shared plumbing of the perfbench workloads: run configuration, the
// clock, latency logs, metric reports, reference-check accounting, the
// generated dataset, and the key-ownership rule that keeps every client's
// reference model exact under concurrency.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "workloads/workloads.h"

namespace perfbench {

using Key = int64_t;
using Payload = uint64_t;

// The default seed, and a second one held out for re-checking a claim on
// inputs nobody tuned against.
inline constexpr uint64_t kDefaultSeed = 20190630;
inline constexpr uint64_t kHeldOutSeed = 1907;

// The engines' shipped error bound (FitingTreeConfig and friends default to
// it; the benchmark never sets it, it only checks predictions against it).
inline constexpr double kEpsilon = 64.0;

// Seed streams: every generator is seeded with
// workloads::ThreadSeed(seed, stream), so one --seed fixes the dataset and
// every per-thread op stream, and no two generators share a stream.
enum Stream : uint64_t {
  kDatasetStream = 0,
  kProbeStream = 1,   // ledger probe keys
  kAbsentStream = 2,  // sampled absent keys of the final checks
  kClientStream = 16, // + client index
};

inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return fitree::workloads::ThreadSeed(seed, stream);
}

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Keeps a computed value observable so a timed pass is not optimized away.
inline void Consume(uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

// Uniform double in [0, 1) from one 64-bit draw.
inline double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// Median of a small sample (set-up repetitions, ledger passes).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// One run of one workload: how long the timed phase lasts, whether spans
// are recorded, and how often set-up is repeated (setup_s is the median).
struct RunConfig {
  double seconds = 10.0;
  bool traced = false;
  int setup_reps = 5;
  bool corrupt_reference = false;
  std::string tmpdir;  // disk_rw's per-run index directory
};

// Every op's latency in ns, kept whole so percentiles are exact.
class LatencyLog {
 public:
  void Add(uint64_t ns) {
    samples_.push_back(ns > UINT32_MAX ? UINT32_MAX
                                       : static_cast<uint32_t>(ns));
    sorted_ = false;
  }
  void Append(const LatencyLog& o) {
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
    sorted_ = false;
  }
  size_t count() const { return samples_.size(); }

  // Nearest-rank percentile, q in [0, 1]; 0 for an empty log.
  double Percentile(double q) {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const double rank = std::ceil(q * static_cast<double>(samples_.size()));
    const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return samples_[std::min(i, samples_.size() - 1)];
  }

  double Mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const uint32_t s : samples_) sum += s;
    return sum / static_cast<double>(samples_.size());
  }

 private:
  std::vector<uint32_t> samples_;
  bool sorted_ = false;
};

// The timed phase cut into equal windows. Rates and percentiles are
// computed per window and the median over the windows is reported, so a
// burst of outside load that lands in one window barely moves a figure.
class Windows {
 public:
  static constexpr size_t kCount = 10;

  Windows(uint64_t start_ns, double seconds)
      : start_(start_ns), span_(static_cast<uint64_t>(seconds * 1e9)) {}

  uint64_t start() const { return start_; }
  uint64_t deadline() const { return start_ + span_; }
  double window_seconds() const {
    return static_cast<double>(span_) * 1e-9 / kCount;
  }
  // The window an op completing at `t` counts in (late ones in the last).
  size_t Of(uint64_t t) const {
    const uint64_t w = t <= start_ ? 0 : (t - start_) * kCount / span_;
    return w < kCount ? static_cast<size_t>(w) : kCount - 1;
  }

 private:
  uint64_t start_;
  uint64_t span_;
};

// Latencies of one op class, kept per window of the timed phase.
class WindowedLog {
 public:
  void Add(size_t window, uint64_t ns) { logs_[window].Add(ns); }
  void Append(const WindowedLog& o) {
    for (size_t w = 0; w < Windows::kCount; ++w) logs_[w].Append(o.logs_[w]);
  }
  size_t count() const {
    size_t n = 0;
    for (const auto& l : logs_) n += l.count();
    return n;
  }
  // Median over the non-empty windows of each window's percentile q.
  double Percentile(double q) {
    std::vector<double> per_window;
    for (auto& l : logs_) {
      if (l.count() > 0) per_window.push_back(l.Percentile(q));
    }
    return Median(per_window);
  }
  double Mean() const {
    double sum = 0.0;
    for (const auto& l : logs_) sum += l.Mean() * static_cast<double>(l.count());
    const size_t n = count();
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  LatencyLog logs_[Windows::kCount];
};

// Ops completed per window; the reported rate is the median window's.
class WindowedRate {
 public:
  void Add(size_t window, uint64_t ops = 1) { ops_[window] += ops; }
  void Append(const WindowedRate& o) {
    for (size_t w = 0; w < Windows::kCount; ++w) ops_[w] += o.ops_[w];
  }
  uint64_t total() const {
    uint64_t n = 0;
    for (const uint64_t o : ops_) n += o;
    return n;
  }
  double PerSecond(const Windows& windows) const {
    std::vector<double> rates;
    for (const uint64_t o : ops_) {
      rates.push_back(static_cast<double>(o) / windows.window_seconds());
    }
    return Median(rates);
  }

 private:
  uint64_t ops_[Windows::kCount] = {};
};

// One in-memory trace span: an op (or layer call) the benchmark timed from
// outside. Traced runs keep them per thread and fold them into the ledger
// when the run ends.
struct Span {
  uint32_t kind = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Append(const Report& o) {
    metrics_.insert(metrics_.end(), o.metrics_.begin(), o.metrics_.end());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Reference-check accounting: ops attempted, ops whose reply disagreed
// with the model (or whose engine reported an error), and the first few
// disagreements spelled out.
class Outcome {
 public:
  void Fail(const std::string& what) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(what);
  }
  // Counts one checked op; `what` is only built when the check fails.
  template <typename Describe>
  void Check(bool ok, Describe describe) {
    ++attempted_;
    if (!ok) Fail(describe());
  }
  void Merge(const Outcome& o) {
    attempted_ += o.attempted_;
    failed_ += o.failed_;
    for (const auto& e : o.errors_) {
      if (errors_.size() < 8) errors_.push_back(e);
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// Index bytes per live key. Workloads take it right after their fixed,
// seeded warm-up prefix: at the end of a timed run the index would have
// absorbed as many mutations as the engine had time for, and a faster
// engine would read as a bigger index.
inline double BytesPerKey(size_t index_bytes, size_t live_keys) {
  return static_cast<double>(index_bytes) / static_cast<double>(live_keys);
}

// What one workload run hands back to main().
struct WorkloadResult {
  Outcome outcome;
  double ops_per_s = 0.0;
  Report end_to_end;  // untraced runs
  Report layer;       // traced runs: this workload's per-layer ledger
  Report detail;      // sample counts and other context, printed apart
  // Named facts for the environment record (the I/O backend in use, ...).
  std::vector<std::pair<std::string, std::string>> facts;
};

// The generated input: sorted unique Weblogs keys and their initial
// payloads (a pure function of the key, so a model can be rebuilt).
struct Dataset {
  std::vector<Key> keys;
  std::vector<Payload> values;
};

// Nonzero by construction: the models use 0 for "deleted".
inline Payload InitialPayload(Key key) {
  uint64_t state = static_cast<uint64_t>(key);
  return fitree::workloads::SplitMix64(state) | 1u;
}

inline Payload NewPayload(std::mt19937_64& rng) { return rng() | 1u; }

// Key ownership: of `parts` clients, client p owns the base ranks
// r = z * parts + p and the gaps (keys[g], keys[g + 1]) with g = z * parts
// + p. A key's owner is therefore fixed by where it falls in the base
// array, no two clients ever mutate the same key, and each client's model
// of its own keys is exact whatever the interleaving.
class Partition {
 public:
  Partition(size_t n, size_t parts, size_t part)
      : n_(n), parts_(parts), part_(part) {}

  size_t owned_ranks() const { return Count(n_); }
  size_t owned_gaps() const { return n_ < 2 ? 0 : Count(n_ - 1); }
  size_t rank(size_t z) const { return z * parts_ + part_; }
  size_t part() const { return part_; }

  // Owner of the base slot `index` (a base rank or the gap after it).
  size_t OwnerOf(size_t index) const { return index % parts_; }

 private:
  size_t Count(size_t limit) const {
    return limit > part_ ? (limit - part_ + parts_ - 1) / parts_ : 0;
  }

  size_t n_;
  size_t parts_;
  size_t part_;
};

// A key strictly inside the owned gap number z, or false when that gap has
// no room (adjacent base keys).
inline bool GapKey(const std::vector<Key>& keys, const Partition& part,
                   size_t z, std::mt19937_64& rng, Key* out) {
  const size_t g = part.rank(z);
  if (g + 1 >= keys.size()) return false;
  const Key width = keys[g + 1] - keys[g];
  if (width <= 1) return false;
  *out = keys[g] + 1 +
         static_cast<Key>(rng() % static_cast<uint64_t>(width - 1));
  return true;
}

// Draws an insert key from a uniformly chosen owned gap; false when a few
// draws found no room (the caller turns the op into a read).
inline bool DrawInsertKey(const std::vector<Key>& keys, const Partition& part,
                          std::mt19937_64& rng, Key* out) {
  const size_t gaps = part.owned_gaps();
  if (gaps == 0) return false;
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (GapKey(keys, part, rng() % gaps, rng, out)) return true;
  }
  return false;
}

// Index of the base slot `key` falls in: its rank when it is a base key,
// else the gap it sits in. Keys below keys[0] never occur.
inline size_t SlotOf(const std::vector<Key>& keys, Key key) {
  return static_cast<size_t>(
             std::upper_bound(keys.begin(), keys.end(), key) - keys.begin()) -
         1;
}

// The self-check's deliberately wrong reference: flips a payload bit of
// one base key in 64 (bit 1, so the value stays nonzero).
inline void CorruptModel(std::vector<Payload>* model) {
  for (size_t r = 0; r < model->size(); r += 64) (*model)[r] ^= 2u;
}

Dataset MakeDataset(uint64_t seed, size_t n);

WorkloadResult RunLookupUniform(const Dataset& ds, uint64_t seed,
                                const RunConfig& rc);
WorkloadResult RunRwConcurrent(const Dataset& ds, uint64_t seed,
                               const RunConfig& rc);
WorkloadResult RunServerPipelined(const Dataset& ds, uint64_t seed,
                                  const RunConfig& rc);
WorkloadResult RunDiskRw(const Dataset& ds, uint64_t seed,
                         const RunConfig& rc);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
