// server_pipelined: ShardedIndex<FitingTree<int64_t>> with 2 shards and the
// shipped batch limit, driven by 2 client threads that each keep 8 requests
// outstanding through SubmitAsync (a closed loop: a slot is refilled only
// once its reply arrived). Zipfian mix of 90% reads, 5% inserts into
// uniformly chosen gaps and 5% updates.
//
// Each client owns an interleaved slice of the keys (bench.h Partition)
// and computes every reply's expected value when it submits: one client's
// requests for one key all go to the same shard's FIFO queue, so they
// execute in submission order. After the run the registry's server op
// counts must equal the ops the clients issued. Traced runs add the server
// ledger: route, engine and queue costs timed apart, the window-1 round
// trip, and what is left of it for enqueue, wait, wake and publish.

#include <array>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "core/fiting_tree.h"
#include "server/op_queue.h"
#include "server/sharded_index.h"
#include "telemetry/registry.h"

namespace perfbench {
namespace {

using Engine = fitree::FitingTree<Key>;
using Server = fitree::server::ShardedIndex<Engine>;
using Req = Server::Req;
using Slot = Server::Slot;
using fitree::server::ReqOp;
using Zipf = fitree::workloads::detail::ZipfianRanks;

constexpr size_t kShards = 2;
constexpr size_t kClients = 2;
constexpr size_t kWindow = 8;
constexpr size_t kWarmupOpsPerClient = 50'000;
constexpr size_t kQueueOps = 1 << 20;
constexpr size_t kRouteProbes = 1 << 20;

enum SpanKind : uint32_t { kSpanRoute, kSpanRequest };

// One generated request with the reply the model expects.
struct PlannedOp {
  ReqOp op = ReqOp::kLookup;
  Key key = 0;
  Payload value = 0;
  Payload want_value = 0;  // lookups
  bool want_ok = false;    // inserts and updates
};

// Op generator plus the exact model of one client's keys. The model
// advances when an op is planned, which is when it is submitted.
class Planner {
 public:
  Planner(const Dataset& ds, std::vector<Payload>& model, const Zipf& zipf,
          size_t part, uint64_t seed)
      : keys_(ds.keys),
        model_(model),
        part_(ds.keys.size(), kClients, part),
        zipf_(zipf),
        rng_(StreamSeed(seed, kClientStream + part)) {}

  PlannedOp Next() {
    PlannedOp p;
    const double u = Unit(rng_);
    if (u < 0.05 && DrawInsertKey(keys_, part_, rng_, &p.key)) {
      p.op = ReqOp::kInsert;
      p.value = NewPayload(rng_);
      p.want_ok = inserted_.insert(p.key).second;
      inserts_ok += p.want_ok;
      return p;
    }
    const size_t r = part_.rank(zipf_.Next(rng_));
    p.key = keys_[r];
    if (u >= 0.05 && u < 0.10) {
      p.op = ReqOp::kUpdate;
      p.value = NewPayload(rng_);
      p.want_ok = true;
      model_[r] = p.value;
    } else {
      p.op = ReqOp::kLookup;
      p.want_value = model_[r];
    }
    return p;
  }

  uint64_t inserts_ok = 0;

 private:
  const std::vector<Key>& keys_;
  std::vector<Payload>& model_;  // payload per base rank (no deletes)
  Partition part_;
  Zipf zipf_;
  std::mt19937_64 rng_;
  std::unordered_set<Key> inserted_;
};

// Whether a reply matches what the planner expected.
bool ReplyAgrees(const PlannedOp& p, bool ok, bool found, Payload value) {
  if (p.op == ReqOp::kLookup) return found && value == p.want_value;
  return ok == p.want_ok;
}

std::string Describe(const PlannedOp& p) {
  static const char* const kNames[] = {"lookup", "insert", "update", "delete",
                                       "scan"};
  return std::string(kNames[static_cast<int>(p.op)]) + " " +
         std::to_string(p.key) + " disagrees with the model";
}

// A closed-loop client keeping `window` requests in flight.
class Client {
 public:
  Client(const Server& server, Planner& planner, size_t window, bool traced)
      : server_(server), planner_(planner), window_(window), traced_(traced) {}

  // Runs `warmup` ops unrecorded, then records for `seconds` (none when 0)
  // from a shared start taken once `ready` counts every client in, then
  // drains the request window.
  void Run(size_t warmup, double seconds, std::atomic<size_t>* ready,
           std::atomic<uint64_t>* start, size_t clients) {
    for (size_t i = 0; i < window_; ++i) Submit(i);
    uint64_t completed = 0;
    while (completed < warmup) completed += Poll(nullptr, true);
    if (ready->fetch_add(1) + 1 == clients) start->store(NowNs());
    while (start->load() == 0) Poll(nullptr, true);
    if (seconds > 0.0) {
      const Windows windows(start->load(), seconds);
      while (last_ready_ns_ < windows.deadline()) Poll(&windows, true);
    }
    while (in_flight_ > 0) Poll(nullptr, false);
  }

  WindowedLog reads, writes;
  WindowedRate rate;
  std::vector<Span> spans;
  Outcome outcome;
  uint64_t issued = 0;

 private:
  struct Pending {
    Slot slot;
    PlannedOp plan;
    uint64_t submit_ns = 0;
    bool busy = false;
  };

  void Submit(size_t i) {
    Pending& p = pending_[i];
    p.plan = planner_.Next();
    p.slot.Reset();
    Req req;
    req.op = p.plan.op;
    req.key = p.plan.key;
    req.value = p.plan.value;
    req.slot = &p.slot;
    if (traced_) {
      // The router, timed from outside ahead of the request it routes.
      const uint64_t r0 = NowNs();
      Consume(server_.router().ShardOf(req.key));
      spans.push_back({kSpanRoute, r0, NowNs()});
    }
    p.submit_ns = NowNs();
    server_.SubmitAsync(req);
    p.busy = true;
    ++in_flight_;
    ++issued;
  }

  // One pass over the request window: checks every arrived reply, records
  // it when `windows` is set (the timed phase) and, when `refill`,
  // resubmits its slot. Returns the replies seen.
  uint64_t Poll(const Windows* windows, bool refill) {
    uint64_t seen = 0;
    for (size_t i = 0; i < window_; ++i) {
      Pending& p = pending_[i];
      if (!p.busy || !p.slot.Ready()) continue;
      const uint64_t now = NowNs();
      last_ready_ns_ = now;
      p.busy = false;
      --in_flight_;
      ++seen;
      outcome.Check(ReplyAgrees(p.plan, p.slot.ok, p.slot.found, p.slot.value),
                    [&] { return Describe(p.plan); });
      if (windows != nullptr) {
        (p.plan.op == ReqOp::kLookup ? reads : writes)
            .Add(windows->Of(now), now - p.submit_ns);
        rate.Add(windows->Of(now));
        if (traced_) spans.push_back({kSpanRequest, p.submit_ns, now});
      }
      if (refill) Submit(i);
    }
    return seen;
  }

  const Server& server_;
  Planner& planner_;
  size_t window_;
  bool traced_;
  std::array<Pending, kWindow> pending_;
  size_t in_flight_ = 0;
  uint64_t last_ready_ns_ = 0;
};

struct LoopResult {
  double ops_per_s = 0.0;
  uint64_t issued = 0;
  WindowedLog reads, writes;
  size_t spans = 0;
};

// One closed-loop client of window `window` per planner, against `server`.
// Planners outlive runs, so a later run continues the same model.
LoopResult RunClients(const Server& server, std::vector<Planner>& planners,
                      size_t warmup, size_t window, double seconds,
                      bool traced, Outcome* outcome) {
  const size_t clients = planners.size();
  std::vector<std::unique_ptr<Client>> cs;
  for (Planner& p : planners) {
    cs.push_back(std::make_unique<Client>(server, p, window, traced));
  }
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> start{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      cs[c]->Run(warmup, seconds, &ready, &start, clients);
    });
  }
  for (auto& t : threads) t.join();
  LoopResult r;
  WindowedRate rate;
  for (const auto& c : cs) {
    outcome->Merge(c->outcome);
    rate.Append(c->rate);
    r.issued += c->issued;
    r.reads.Append(c->reads);
    r.writes.Append(c->writes);
    r.spans += c->spans.size();
  }
  if (seconds > 0.0) r.ops_per_s = rate.PerSecond(Windows(start.load(), seconds));
  return r;
}

Server::Factory EngineFactory() {
  return [](const std::vector<Key>& keys, const std::vector<Payload>& values) {
    return Engine::Create(keys, values, fitree::FitingTreeConfig{});
  };
}

uint64_t ServerOps(const fitree::telemetry::RegistrySnapshot& s) {
  using fitree::telemetry::Engine;
  using fitree::telemetry::Op;
  uint64_t n = 0;
  for (const Op op : {Op::kLookup, Op::kInsert, Op::kUpdate, Op::kDelete,
                      Op::kScan}) {
    n += s.op(Engine::kServer, op).count;
  }
  return n;
}

// The server's parts timed apart: routing over the probe keys, the
// engine alone under the same op streams (one shard's slice, its keys
// only), and one thread's Push + PopBatch through an OpQueue.
void ServerParts(const Server& server, const Dataset& ds, const Zipf& zipf,
                 uint64_t seed, uint64_t stream_ops, double seconds,
                 Report* layer, Outcome* outcome) {
  const std::vector<Key>& keys = ds.keys;
  std::mt19937_64 rng(StreamSeed(seed, kProbeStream));
  std::vector<Key> probes(std::min(kRouteProbes, 4 * keys.size()));
  for (Key& k : probes) k = keys[rng() % keys.size()];
  uint64_t sink = 0;
  const uint64_t r0 = NowNs();
  for (const Key k : probes) sink += server.router().ShardOf(k);
  layer->Add("server.route_ns",
             static_cast<double>(NowNs() - r0) /
                 static_cast<double>(probes.size()),
             "ns");

  // Shard 0 owns the keys below the router's second boundary.
  const Key limit = server.shard_count() > 1
                        ? server.router().boundary(1)
                        : std::numeric_limits<Key>::max();
  const size_t cut = static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), limit) - keys.begin());
  const std::vector<Key> slice_keys(keys.begin(), keys.begin() + cut);
  const std::vector<Payload> slice_values(ds.values.begin(),
                                          ds.values.begin() + cut);
  const auto engine = Engine::Create(slice_keys, slice_values,
                                     fitree::FitingTreeConfig{});
  std::vector<Payload> model = ds.values;
  std::vector<Planner> planners;
  for (size_t c = 0; c < kClients; ++c) {
    planners.emplace_back(ds, model, zipf, c, seed);
  }
  LatencyLog engine_ns;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0; i < stream_ops && NowNs() < deadline; ++i) {
    const PlannedOp p = planners[i % kClients].Next();
    if (p.key >= limit) continue;
    bool ok = false, found = false;
    Payload value = 0;
    const uint64_t t0 = NowNs();
    switch (p.op) {
      case ReqOp::kLookup: {
        const auto got = engine->Lookup(p.key);
        found = got.has_value();
        value = got.value_or(0);
        break;
      }
      case ReqOp::kInsert:
        ok = engine->Insert(p.key, p.value);
        break;
      default:
        ok = engine->Update(p.key, p.value);
        break;
    }
    engine_ns.Add(NowNs() - t0);
    outcome->Check(ReplyAgrees(p, ok, found, value),
                   [&] { return "direct engine: " + Describe(p); });
  }
  layer->Add("server.engine_ns", engine_ns.Percentile(0.50), "ns");

  fitree::server::OpQueue<Req> queue(4096);
  std::vector<Req> batch(32);
  Req req;
  const uint64_t q0 = NowNs();
  for (size_t done = 0; done < kQueueOps; done += batch.size()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      req.key = static_cast<Key>(done + i);
      sink += queue.Push(req);
    }
    sink += queue.PopBatch(batch.data(), batch.size());
  }
  layer->Add("server.queue_ns",
             static_cast<double>(NowNs() - q0) / static_cast<double>(kQueueOps),
             "ns");
  Consume(sink);
}

}  // namespace

WorkloadResult RunServerPipelined(const Dataset& ds, uint64_t seed,
                                  const RunConfig& rc) {
  WorkloadResult res;
  Server::Config config;
  config.shards = kShards;
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < rc.setup_reps; ++rep) {
    server.reset();
    const uint64_t t0 = NowNs();
    server = Server::Create(ds.keys, ds.values, EngineFactory(), config);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::vector<Payload> model = ds.values;
  if (rc.corrupt_reference) CorruptModel(&model);
  const Zipf zipf(ds.keys.size() / kClients);
  std::vector<Planner> planners;
  for (size_t c = 0; c < kClients; ++c) {
    planners.emplace_back(ds, model, zipf, c, seed);
  }

  auto& registry = fitree::telemetry::Registry::Get();
  const auto before = registry.Snapshot();
  const uint64_t stalls_before = before.counter(
      fitree::telemetry::CounterId::kServerEnqueueStalls);
  const size_t warmup = std::min(kWarmupOpsPerClient, ds.keys.size());
  const LoopResult warm = RunClients(*server, planners, warmup, kWindow, 0.0,
                                     rc.traced, &res.outcome);
  size_t index_bytes = 0;
  for (size_t s = 0; s < server->shard_count(); ++s) {
    index_bytes += server->shard_engine(s).IndexSizeBytes();
  }
  const double bytes_per_key = BytesPerKey(index_bytes, server->size());
  LoopResult loop = RunClients(*server, planners, 0, kWindow, rc.seconds,
                               rc.traced, &res.outcome);
  const auto after = registry.Snapshot();
  res.ops_per_s = loop.ops_per_s;
  if (fitree::telemetry::kEnabled) {
    const uint64_t counted = ServerOps(after) - ServerOps(before);
    const uint64_t issued = warm.issued + loop.issued;
    res.outcome.Check(counted == issued, [&] {
      return "registry counted " + std::to_string(counted) +
             " server ops, clients issued " + std::to_string(issued);
    });
  }
  uint64_t inserts_ok = 0;
  for (const Planner& p : planners) inserts_ok += p.inserts_ok;
  res.outcome.Check(server->size() == ds.keys.size() + inserts_ok, [&] {
    return "server size " + std::to_string(server->size()) +
           " disagrees with the model";
  });

  res.end_to_end.Add("setup_s", Median(setup_s), "s");
  res.end_to_end.Add("ops_per_s", loop.ops_per_s, "ops/s");
  res.end_to_end.Add("read_p50_ns", loop.reads.Percentile(0.50), "ns");
  res.end_to_end.Add("read_p99_ns", loop.reads.Percentile(0.99), "ns");
  res.end_to_end.Add("write_p50_ns", loop.writes.Percentile(0.50), "ns");
  res.end_to_end.Add("write_p99_ns", loop.writes.Percentile(0.99), "ns");
  res.end_to_end.Add("index_bytes_per_key", bytes_per_key, "B");
  res.detail.Add("read_samples", static_cast<double>(loop.reads.count()),
                 "count");
  res.detail.Add("write_samples", static_cast<double>(loop.writes.count()),
                 "count");
  if (!rc.traced) return res;

  res.detail.Add("server.trace_spans", static_cast<double>(loop.spans),
                 "count");
  const auto stats = server->Stats();
  Report& layer = res.layer;
  layer.Add("server.avg_batch", stats.Get("avg_batch"), "ops");
  layer.Add("server.enqueue_stalls",
            static_cast<double>(
                after.counter(fitree::telemetry::CounterId::kServerEnqueueStalls) -
                stalls_before),
            "count");
  layer.Add("server.shard_key_skew",
            stats.Get("max_shard_keys") *
                static_cast<double>(server->shard_count()) /
                static_cast<double>(server->size()),
            "ratio");

  // Window-1 round trip: one client (continuing client 0's stream and
  // model), one request in flight.
  std::vector<Planner> first(planners.begin(), planners.begin() + 1);
  LoopResult w1 = RunClients(*server, first, warmup, 1, rc.seconds / 2.0,
                             false, &res.outcome);
  const double rtt = w1.reads.Percentile(0.50);
  layer.Add("server.rtt_w1_p50_ns", rtt, "ns");

  ServerParts(*server, ds, zipf, seed, loop.issued, rc.seconds / 2.0, &layer,
              &res.outcome);
  double route = 0.0, engine = 0.0;
  for (const Metric& m : layer.metrics()) {
    if (m.name == "server.route_ns") route = m.value;
    if (m.name == "server.engine_ns") engine = m.value;
  }
  layer.Add("server.overhead_ns", rtt - route - engine, "ns");
  return res;
}

}  // namespace perfbench
