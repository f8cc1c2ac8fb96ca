// disk_rw: DiskFitingTree<int64_t> over an index file written from the
// dataset, with a buffer pool holding 10% of the leaf pages and the
// incremental-compaction threshold set by the benchmark (the only engine
// setting it chooses); everything else, including buffered page reads and
// the fsyncs of compaction, is the shipped default. One client thread
// runs a Zipfian mix of 80% reads, 10% inserts into uniformly chosen gaps
// and 10% updates. The file lives in a per-run directory and is removed
// on every exit path. Page reads are served by the OS page cache, so the
// latencies here are the page cache's, not a device's.
//
// Every reply is checked against the model (base payloads plus a
// std::map of inserts), io_error() must stay false, and after the run the
// overlay is compacted into a fresh file that is reopened and scanned in
// full against the model. Traced runs add the storage ledger.

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "core/static_fiting_tree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_fiting_tree.h"
#include "storage/page.h"
#include "storage/segment_file.h"

namespace perfbench {
namespace {

using Disk = fitree::storage::DiskFitingTree<Key>;
using Static = fitree::StaticFitingTree<Key>;
using Zipf = fitree::workloads::detail::ZipfianRanks;

// A segment is queued for incremental compaction once its overlay holds
// this percent of its length (at least 8 entries).
constexpr size_t kCompactThresholdPct = 1;
constexpr size_t kCachePercent = 10;
constexpr size_t kWarmupOps = 100'000;
constexpr size_t kPageReadSamples = 20'000;
constexpr size_t kPoolFrames = 64;
constexpr size_t kPoolHitOps = 1 << 20;
constexpr double kUserBytesPerMutation = 16.0;  // key + payload

enum SpanKind : uint32_t { kSpanRead, kSpanWrite, kSpanCompactingWrite };

// Removes the index file and any compaction leftover when the run ends,
// whichever way it ends.
class IndexFile {
 public:
  explicit IndexFile(std::string path) : path_(std::move(path)) {}
  ~IndexFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".compact").c_str());
  }
  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class Client {
 public:
  Client(Disk& tree, const std::vector<Key>& keys,
         std::vector<Payload>& model, uint64_t seed, bool traced)
      : tree_(tree),
        keys_(keys),
        model_(model),
        part_(keys.size(), 1, 0),
        zipf_(keys.size()),
        rng_(StreamSeed(seed, kClientStream)),
        traced_(traced) {}

  // Issues and checks one op, recording it when `windows` is set (the
  // timed phase); returns its completion time.
  uint64_t Step(const Windows* windows) {
    const double u = Unit(rng_);
    Key key = 0;
    if (u >= 0.80 && u < 0.90 && DrawInsertKey(keys_, part_, rng_, &key)) {
      const Payload v = NewPayload(rng_);
      const bool fresh = inserted.emplace(key, v).second;
      return Write(windows, key, fresh, [&] { return tree_.Insert(key, v); });
    }
    const size_t r = zipf_.Next(rng_);
    if (u >= 0.90) {
      const Payload v = NewPayload(rng_);
      model_[r] = v;
      return Write(windows, keys_[r], true,
                   [&] { return tree_.Update(keys_[r], v); });
    }
    const uint64_t t0 = NowNs();
    const auto got = tree_.Lookup(keys_[r]);
    const uint64_t t1 = NowNs();
    outcome.Check(got.has_value() && *got == model_[r], [&] {
      return "lookup " + std::to_string(keys_[r]) + " disagrees with the model";
    });
    if (windows != nullptr) {
      reads.Add(windows->Of(t1), t1 - t0);
      rate.Add(windows->Of(t1));
      if (traced_) spans.push_back({kSpanRead, t0, t1});
    }
    return t1;
  }

  WindowedLog reads, writes, compacting_writes, plain_writes;
  WindowedRate rate;
  std::vector<Span> spans;
  Outcome outcome;
  std::map<Key, Payload> inserted;
  uint64_t mutations = 0;  // successful inserts and updates

 private:
  // One insert or update; `want` is the expected return. Writes during
  // which an incremental compaction completed are logged apart.
  template <typename Op>
  uint64_t Write(const Windows* windows, Key key, bool want, Op op) {
    const uint64_t compactions = tree_.IncrementalCompactions();
    const uint64_t t0 = NowNs();
    const bool ok = op();
    const uint64_t t1 = NowNs();
    const bool compacted = tree_.IncrementalCompactions() != compactions;
    outcome.Check(ok == want, [&] {
      return "write " + std::to_string(key) + " disagrees with the model";
    });
    mutations += ok;
    if (windows != nullptr) {
      const size_t w = windows->Of(t1);
      writes.Add(w, t1 - t0);
      (compacted ? compacting_writes : plain_writes).Add(w, t1 - t0);
      rate.Add(w);
      if (traced_) {
        spans.push_back(
            {compacted ? kSpanCompactingWrite : kSpanWrite, t0, t1});
      }
    }
    return t1;
  }

  Disk& tree_;
  const std::vector<Key>& keys_;
  std::vector<Payload>& model_;
  Partition part_;
  Zipf zipf_;
  std::mt19937_64 rng_;
  bool traced_;
};

// Leaf pages the file will hold: each segment's keys start a fresh page.
uint64_t LeafPages(const Static& tree) {
  const uint64_t cap =
      fitree::storage::LeafCapacity<Key>(fitree::storage::kDefaultPageBytes);
  uint64_t pages = 0;
  for (const auto& s : tree.ExportSegmentTable()) {
    pages += fitree::storage::PagesForRecords(s.length, cap);
  }
  return pages;
}

// SegmentFileReader::ReadPageInto over random leaf pages, and
// BufferPool::Fetch/Unpin on resident pages, each timed from outside.
void StorageParts(const std::string& path, uint64_t seed, Report* layer,
                  WorkloadResult* res) {
  fitree::storage::SegmentFileReader<Key> reader;
  if (!reader.Open(path)) {
    res->outcome.Fail("cannot open the index file for the page-read pass");
    return;
  }
  const size_t page_bytes = reader.page_bytes();
  res->facts.emplace_back("page_bytes", std::to_string(page_bytes));
  const uint64_t leaves = reader.meta().leaf_page_count;
  std::mt19937_64 rng(StreamSeed(seed, kProbeStream));
  fitree::storage::AlignedBytes buf(page_bytes);
  size_t bad = 0;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kPageReadSamples; ++i) {
    bad += !reader.ReadPageInto(reader.LeafPageId(rng() % leaves), buf.data());
  }
  layer->Add("storage.page_read_ns",
             static_cast<double>(NowNs() - t0) /
                 static_cast<double>(kPageReadSamples),
             "ns");

  fitree::storage::BufferPool pool(&reader, page_bytes, kPoolFrames);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < kPoolFrames && i < leaves; ++i) {
    ids.push_back(reader.LeafPageId(i));
    bad += pool.Fetch(ids.back()) == nullptr || !pool.Unpin(ids.back());
  }
  const uint64_t t1 = NowNs();
  for (size_t i = 0; i < kPoolHitOps; ++i) {
    const uint32_t id = ids[i % ids.size()];
    bad += pool.Fetch(id) == nullptr || !pool.Unpin(id);
  }
  layer->Add("storage.pool_hit_ns",
             static_cast<double>(NowNs() - t1) /
                 static_cast<double>(kPoolHitOps),
             "ns");
  res->outcome.Check(bad == 0, [&] {
    return std::to_string(bad) + " page reads or pool fetches failed";
  });
}

// Write amplification: bytes compaction wrote per byte of user mutations.
double WriteAmp(uint64_t pages, uint64_t mutations) {
  return mutations == 0 ? 0.0
                        : static_cast<double>(pages) *
                              static_cast<double>(
                                  fitree::storage::kDefaultPageBytes) /
                              (static_cast<double>(mutations) *
                               kUserBytesPerMutation);
}

}  // namespace

WorkloadResult RunDiskRw(const Dataset& ds, uint64_t seed,
                         const RunConfig& rc) {
  WorkloadResult res;
  const IndexFile file(rc.tmpdir + "/disk_rw.fit");
  Disk::Options options;
  options.compact_threshold_pct = kCompactThresholdPct;

  std::unique_ptr<Disk> tree;
  std::vector<double> setup_s, write_s, open_s;
  for (int rep = 0; rep < rc.setup_reps; ++rep) {
    tree.reset();
    const uint64_t t0 = NowNs();
    auto built = Static::Create(ds.keys, ds.values, kEpsilon);
    const uint64_t t1 = NowNs();
    const bool written = fitree::storage::WriteIndexFile(file.path(), *built);
    const uint64_t t2 = NowNs();
    options.cache_pages = static_cast<size_t>(
        std::max<uint64_t>(1, LeafPages(*built) * kCachePercent / 100));
    built.reset();
    const uint64_t t3 = NowNs();
    tree = written ? Disk::Open(file.path(), options) : nullptr;
    const uint64_t t4 = NowNs();
    if (tree == nullptr) {
      res.outcome.Fail("writing or opening " + file.path() + " failed");
      return res;
    }
    setup_s.push_back(static_cast<double>((t2 - t0) + (t4 - t3)) * 1e-9);
    write_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    open_s.push_back(static_cast<double>(t4 - t3) * 1e-9);
  }
  if (rc.traced) StorageParts(file.path(), seed, &res.layer, &res);

  std::vector<Payload> model = ds.values;
  if (rc.corrupt_reference) CorruptModel(&model);
  Client client(*tree, ds.keys, model, seed, rc.traced);
  for (size_t i = 0; i < std::min(kWarmupOps, ds.keys.size()); ++i) {
    client.Step(nullptr);
  }
  const double bytes_per_key = BytesPerKey(tree->IndexSizeBytes(), tree->size());

  // Timed phase, with compaction progress noted at each quarter.
  const fitree::IoStats io_before = tree->io();
  const Windows windows(NowNs(), rc.seconds);
  const uint64_t quarter = (windows.deadline() - windows.start()) / 4;
  std::vector<uint64_t> q_pages{tree->CompactPagesRewritten()};
  std::vector<uint64_t> q_mutations{client.mutations};
  for (uint64_t end = 0; end < windows.deadline();) {
    end = client.Step(&windows);
    if (q_pages.size() < 4 &&
        end >= windows.start() + quarter * q_pages.size()) {
      q_pages.push_back(tree->CompactPagesRewritten());
      q_mutations.push_back(client.mutations);
    }
  }
  q_pages.push_back(tree->CompactPagesRewritten());
  q_mutations.push_back(client.mutations);
  res.ops_per_s = client.rate.PerSecond(windows);
  const uint64_t ops = client.rate.total();
  const fitree::IoStats io = tree->io() - io_before;
  res.outcome.Merge(client.outcome);
  res.outcome.Check(!tree->io_error(),
                    [] { return std::string("io_error() during the run"); });

  const double live = static_cast<double>(tree->size());
  const double wamp = WriteAmp(tree->CompactPagesRewritten(), client.mutations);
  const double wamp_q3 = WriteAmp(q_pages[3] - q_pages[2],
                                  q_mutations[3] - q_mutations[2]);
  const double wamp_q4 = WriteAmp(q_pages[4] - q_pages[3],
                                  q_mutations[4] - q_mutations[3]);
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
  res.detail.Add("file_bytes_per_key",
                 static_cast<double>(tree->FileBytes()) / live, "B");
  res.detail.Add("write_bytes_per_user_byte", wamp, "ratio");
  res.detail.Add("compaction_cycles",
                 static_cast<double>(tree->IncrementalCompactions()), "count");
  res.detail.Add("write_bytes_per_user_byte_q3", wamp_q3, "ratio");
  res.detail.Add("write_bytes_per_user_byte_q4", wamp_q4, "ratio");
  res.detail.Add("write_amp_levelled",
                 wamp_q3 > 0.0 && std::fabs(wamp_q4 / wamp_q3 - 1.0) <= 0.25,
                 "bool");
  res.facts.emplace_back("io_backend_used", tree->IoBackendName());
  res.facts.emplace_back("direct_io", tree->DirectIo() ? "1" : "0");

  if (rc.traced) {
    const double n_ops = static_cast<double>(ops);
    Report& layer = res.layer;
    layer.Add("storage.hit_rate", io.HitRate(), "ratio");
    layer.Add("storage.pages_read_per_op",
              static_cast<double>(io.pages_read) / n_ops, "pages");
    layer.Add("storage.bytes_read_per_op",
              static_cast<double>(io.bytes_read) / n_ops, "B");
    layer.Add("storage.compacting_write_p50_ns",
              client.compacting_writes.Percentile(0.50), "ns");
    layer.Add("storage.plain_write_p50_ns",
              client.plain_writes.Percentile(0.50), "ns");
    layer.Add("storage.incremental_compactions",
              static_cast<double>(tree->IncrementalCompactions()), "count");
    layer.Add("storage.compact_pages_rewritten",
              static_cast<double>(tree->CompactPagesRewritten()), "pages");
    layer.Add("storage.delta_entries_end",
              static_cast<double>(tree->DeltaEntries()), "count");
    layer.Add("storage.write_file_s", Median(write_s), "s");
    layer.Add("storage.open_s", Median(open_s), "s");
    layer.Add("storage.file_bytes_per_key",
              static_cast<double>(tree->FileBytes()) / live, "B");
    layer.Add("storage.write_bytes_per_user_byte", wamp, "ratio");
    res.detail.Add("storage.trace_spans",
                   static_cast<double>(client.spans.size()), "count");
  }

  // Durability check: fold the overlay into the file, reopen it, and scan
  // it in full against the model.
  const size_t expected_size = ds.keys.size() + client.inserted.size();
  res.outcome.Check(tree->Compact(),
                    [] { return std::string("full Compact() failed"); });
  tree.reset();
  tree = Disk::Open(file.path(), options);
  if (tree == nullptr) {
    res.outcome.Fail("reopening the compacted file failed");
    return res;
  }
  size_t i = 0, mismatches = 0;
  auto ins = client.inserted.begin();
  tree->ScanRange(std::numeric_limits<Key>::min(),
                  std::numeric_limits<Key>::max(),
                  [&](const Key& k, const Payload& v) {
                    const bool from_base =
                        i < ds.keys.size() &&
                        (ins == client.inserted.end() || ds.keys[i] < ins->first);
                    if (from_base) {
                      mismatches += ds.keys[i] != k || model[i] != v;
                      ++i;
                    } else if (ins != client.inserted.end()) {
                      mismatches += ins->first != k || ins->second != v;
                      ++ins;
                    } else {
                      ++mismatches;
                    }
                  });
  res.outcome.Check(mismatches == 0 && i == ds.keys.size() &&
                        ins == client.inserted.end() &&
                        tree->size() == expected_size && !tree->io_error(),
                    [] {
                      return std::string(
                          "reopened file disagrees with the model");
                    });
  return res;
}

}  // namespace perfbench
