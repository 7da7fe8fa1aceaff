// p2kvs_perfbench: one run of one benchmark workload against a p2KVS store
// (4 unpinned workers, RocksLite with bench::DefaultLsmOptions, NVMe device
// model over a MemEnv, every other option at its default).
//
//   p2kvs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file.json>]
//   p2kvs_perfbench --selftest
//
// Prints a host-facts line, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 times every layer boundary and reports the
// per-layer metrics instead (see README.md for both tables).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "perfbench/checks.h"
#include "perfbench/layers.h"
#include "src/core/engines.h"
#include "src/core/p2kvs.h"
#include "src/io/async_io.h"
#include "src/lsm/merging_iterator.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/clock.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/ycsb/generator.h"

namespace perfbench {
namespace {

using p2kvs::NowNanos;
using p2kvs::P2KVS;
using p2kvs::P2kvsOptions;
using p2kvs::P2kvsStats;
using p2kvs::Random64;
using p2kvs::Slice;
using p2kvs::Status;
using p2kvs::WriteBatch;

// Set-up time is measured from here: static initialisation of the process.
const uint64_t g_process_start_ns = NowNanos();

constexpr int kWorkers = 4;
constexpr size_t kValueSize = 128;
constexpr size_t kKeySize = 16;  // KeyOf(): "user" + 12 digits
constexpr uint64_t kPreloadBatch = 1000;

// tcp_open's offered load: a constant, never derived from the host at run
// time. Both connections together; well below the ~48 KQPS the loopback
// server sustains closed-loop on a 4-core host.
constexpr double kTcpRequestsPerSec = 12000;
constexpr int kTcpConnections = 2;

enum OpKind { kPut, kGet, kMultiGet, kMultiWrite, kScan, kTxn, kNumOpKinds };
const char* const kOpSpan[kNumOpKinds] = {"op.put",        "op.get",  "op.multiget",
                                          "op.multiwrite", "op.scan", "op.txn"};

struct WorkloadSpec {
  const char* name;
  int clients;
  uint64_t records;
  uint64_t txn_groups;  // keys [0, 4 * txn_groups) are written only by WriteTxn
  OpKind write_class;   // reported as write_p50_us
  OpKind read_class;    // reported as read_p50_us
};

const WorkloadSpec kWorkloads[] = {
    // 50k x 144 B = 7 MB: fits the 4 x 8 MB block caches with room for the
    // overwritten versions a run leaves behind.
    {"sync_1c", 1, 50000, 0, kPut, kGet},
    // 640k x 144 B = 92 MB: ~3x the combined block cache.
    {"mixed_4c", 4, 640000, 0, kPut, kGet},
    // 20k records (3 MB, cache-resident), the first 2000 keys in 500 txn
    // groups. At 100k the overwritten versions outgrow the block caches
    // within the window and throughput falls all the way through it.
    {"fanout_2c", 2, 20000, 500, kMultiWrite, kMultiGet},
    {"tcp_open", kTcpConnections, 100000, 0, kPut, kGet},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
  // sync_1c only: the client hashes each key to one of the same 4 RocksLite
  // instances and calls it on its own thread (no workers, no queues): the
  // floor for the handoff tax.
  bool raw = false;
};

// What one load-generating thread did in the timed window.
struct ClientLog {
  std::vector<uint64_t> lat_ns[kNumOpKinds];  // completed-OK ops
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t client_ns = 0;  // summed call time of every op
  uint64_t keys_written = 0;
  uint64_t key_hash_written = 0;
  uint64_t user_bytes_written = 0;
  uint64_t user_bytes_acked = 0;
  uint64_t scan_pairs = 0;
  uint64_t txns = 0;
  // tcp_open only
  uint64_t frames = 0;
  uint64_t flushes = 0;
  uint64_t responses = 0;
  uint64_t expected_door = 0;
  uint64_t max_lag_ns = 0;
  uint64_t last_done_ns = 0;
  Checker check;

  void Merge(const ClientLog& o) {
    for (int k = 0; k < kNumOpKinds; k++) {
      lat_ns[k].insert(lat_ns[k].end(), o.lat_ns[k].begin(), o.lat_ns[k].end());
    }
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    client_ns += o.client_ns;
    keys_written += o.keys_written;
    key_hash_written += o.key_hash_written;
    user_bytes_written += o.user_bytes_written;
    user_bytes_acked += o.user_bytes_acked;
    scan_pairs += o.scan_pairs;
    txns += o.txns;
    frames += o.frames;
    flushes += o.flushes;
    responses += o.responses;
    expected_door += o.expected_door;
    max_lag_ns = std::max(max_lag_ns, o.max_lag_ns);
    last_done_ns = std::max(last_done_ns, o.last_done_ns);
    check.Merge(o.check);
  }
};

// Latency percentile in microseconds (0 when the op kind never ran).
double PercentileUs(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]) / 1000.0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Rusage {
  double user_us = 0;
  double sys_us = 0;
  uint64_t vcsw = 0;
  uint64_t maxrss_kb = 0;
};

Rusage ReadRusage() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  r.user_us = us(ru.ru_utime);
  r.sys_us = us(ru.ru_stime);
  r.vcsw = static_cast<uint64_t>(ru.ru_nvcsw);
  r.maxrss_kb = static_cast<uint64_t>(ru.ru_maxrss);
  return r;
}

// The store under test plus everything the benchmark wraps around it.
class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec), args_(args), model_(spec.records, kValueSize, args.seed) {}

  const WorkloadSpec& spec() const { return spec_; }
  const Args& args() const { return args_; }
  Model& model() { return model_; }
  P2KVS* store() { return store_.get(); }

  Status Open() {
    if (device_.env == nullptr) {
      device_ = p2kvs::bench::MakeDevice(p2kvs::DeviceProfile::NvmeSsd());
      layer_env_ = NewLayerEnv(device_.env.get());
    }
    p2kvs::EngineFactory engines = WrapEngineFactory(
        p2kvs::MakeRocksLiteFactory(p2kvs::bench::DefaultLsmOptions(layer_env_.get())));
    if (args_.raw) {
      raw_.resize(kWorkers);
      for (int i = 0; i < kWorkers; i++) {
        Status s = engines(std::string(kPath) + "/raw-" + std::to_string(i), nullptr, &raw_[i]);
        if (!s.ok()) {
          return s;
        }
      }
      return Status::OK();
    }
    P2kvsOptions options;
    options.env = layer_env_.get();
    options.num_workers = kWorkers;
    options.pin_workers = false;
    options.engine_factory = std::move(engines);
    return P2KVS::Open(options, kPath, &store_);
  }

  void Close() {
    store_.reset();
    raw_.clear();
  }

  Status Put(const Slice& key, const Slice& value) {
    return args_.raw ? Raw(key)->Put(key, value, p2kvs::KvWriteOptions())
                     : store_->Put(key, value);
  }
  Status Get(const Slice& key, std::string* value) {
    return args_.raw ? Raw(key)->Get(key, value) : store_->Get(key, value);
  }

  // Every key at version 0, through MultiWrite (raw: one Put per key), then
  // every memtable flushed and background work drained, so each window
  // starts from the same LSM shape: the cost of reads and scans grows as a
  // memtable fills with versions, and a window that began mid-cycle would
  // measure a different mix of cheap and dear seconds.
  Status Preload(ClientLog* log) {
    for (uint64_t begin = 0; begin < spec_.records; begin += kPreloadBatch) {
      WriteBatch batch;
      const uint64_t end = std::min(spec_.records, begin + kPreloadBatch);
      for (uint64_t k = begin; k < end; k++) {
        const std::string key = KeyOf(k);
        const std::string value = model_.Value(k, 0);
        log->keys_written++;
        log->key_hash_written += p2kvs::Hash64(key);
        if (!args_.raw) {
          batch.Put(key, value);
        } else if (Status s = Put(key, value); !s.ok()) {
          return s;
        }
      }
      if (!args_.raw) {
        if (Status s = store_->MultiWrite(&batch); !s.ok()) {
          return s;
        }
      }
      log->user_bytes_acked += (end - begin) * (kKeySize + kValueSize);
    }
    if (args_.raw) {
      for (auto& engine : raw_) {
        if (Status s = engine->Flush(); !s.ok()) {
          return s;
        }
        engine->WaitIdle();
      }
      return Status::OK();
    }
    if (Status s = store_->FlushAll(); !s.ok()) {
      return s;
    }
    return store_->WaitIdle();
  }

  // (b) + (d): one ordered pass over every partition.
  void Readback(Checker* check) {
    ReadbackCheck rb(model_, spec_.txn_groups, check);
    std::unique_ptr<p2kvs::Iterator> it;
    if (args_.raw) {
      std::vector<p2kvs::Iterator*> children;
      for (auto& engine : raw_) {
        children.push_back(engine->NewIterator());
      }
      it.reset(p2kvs::NewMergingIterator(p2kvs::BytewiseComparator(), children.data(),
                                         static_cast<int>(children.size())));
    } else {
      it.reset(store_->NewGlobalIterator());
    }
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      rb.Next(it->key(), it->value());
    }
    if (!it->status().ok()) {
      check->Fail("readback iterator: " + it->status().ToString());
    }
    rb.Finish();
  }

  // Bytes in every file of the simulated device.
  uint64_t StoredBytes() {
    uint64_t total = 0;
    std::vector<std::string> stack = {kPath};
    while (!stack.empty()) {
      const std::string dir = stack.back();
      stack.pop_back();
      std::vector<std::string> children;
      if (!device_.base->GetChildren(dir, &children).ok()) {
        continue;
      }
      for (const std::string& child : children) {
        const std::string path = dir + "/" + child;
        uint64_t size = 0;
        if (device_.base->GetFileSize(path, &size).ok()) {
          total += size;
        } else {
          stack.push_back(path);
        }
      }
    }
    return total;
  }

  // Joins the load generators once `running` drops to 0, sampling the
  // device footprint every 100 ms meanwhile. The window's mean footprint is
  // reported: the footprint at one instant depends on where the instant falls
  // in a flush/compaction cycle, and after the window it is bimodal.
  //
  // Also prints completed ops per second of the window to stderr: a slow
  // second shows interference from outside the process.
  void JoinSampling(std::vector<std::thread>* threads, const std::atomic<int>& running) {
    std::string per_second;
    uint64_t last_ops = 0;
    for (int tick = 1; running.load(std::memory_order_acquire) > 0; tick++) {
      footprint_sum_ += static_cast<double>(StoredBytes());
      footprint_samples_++;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (tick % 10 == 0) {
        const uint64_t ops = completed_ops_.load(std::memory_order_relaxed);
        per_second += ' ';
        per_second += std::to_string(ops - last_ops);
        last_ops = ops;
      }
    }
    for (std::thread& t : *threads) {
      t.join();
    }
    std::fprintf(stderr, "ops per second:%s\n", per_second.c_str());
  }
  void CountCompleted() { completed_ops_.fetch_add(1, std::memory_order_relaxed); }
  double MeanStoredBytes() const { return Ratio(footprint_sum_, footprint_samples_); }

  // Owner of a key: txn groups move together, other keys round-robin.
  int Owner(uint64_t k) const {
    const uint64_t unit = k < 4 * spec_.txn_groups ? k / 4 : k;
    return static_cast<int>(unit % static_cast<uint64_t>(spec_.clients));
  }

  // A key owned by `client` near `k` (same stride block).
  uint64_t OwnKey(uint64_t k, int client) const {
    const uint64_t stride = static_cast<uint64_t>(spec_.clients);
    uint64_t own = k - k % stride + static_cast<uint64_t>(client);
    if (own >= spec_.records) {
      own -= stride;
    }
    return own;
  }

  // Version bounds a read by `client` may return for key k (see checks.h).
  std::pair<uint32_t, uint32_t> Bounds(int client, uint64_t k) const {
    if (Owner(k) == client) {
      const uint32_t v = model_.Acked(k);
      return {v, v};
    }
    return {0, model_.Issued(k)};
  }

 private:
  static constexpr const char* kPath = "/perfbench";

  p2kvs::KVStore* Raw(const Slice& key) {
    return raw_[static_cast<size_t>(partitioner_(key, kWorkers))].get();
  }

  const WorkloadSpec& spec_;
  const Args& args_;
  Model model_;
  p2kvs::bench::SimulatedDevice device_;
  std::unique_ptr<p2kvs::Env> layer_env_;
  std::unique_ptr<P2KVS> store_;
  std::vector<std::unique_ptr<p2kvs::KVStore>> raw_;
  const p2kvs::Partitioner partitioner_ = p2kvs::MakeHashPartitioner();
  double footprint_sum_ = 0;
  double footprint_samples_ = 0;
  std::atomic<uint64_t> completed_ops_{0};
};

// --- Closed-loop clients (direct P2KVS calls) ---

class DirectClient {
 public:
  DirectClient(Bench* bench, int id, ClientLog* log)
      : bench_(bench), store_(bench->store()), model_(bench->model()), id_(id), log_(log),
        rnd_(bench->args().seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(id) + 1) {}

  Random64& rnd() { return rnd_; }

  void Put(uint64_t k) {
    const uint32_t v = model_.Issue(k);
    const std::string key = KeyOf(k);
    const std::string value = model_.Value(k, v);
    const uint64_t t0 = NowNanos();
    const Status s = bench_->Put(key, value);
    const uint64_t t1 = NowNanos();
    CountWrite(key);
    if (Done(kPut, s, t0, t1)) {
      model_.Ack(k, v);
      log_->user_bytes_acked += kKeySize + kValueSize;
    }
  }

  void Get(uint64_t k) {
    const std::string key = KeyOf(k);
    const uint32_t lo = bench_->Bounds(id_, k).first;
    std::string value;
    const uint64_t t0 = NowNanos();
    const Status s = bench_->Get(key, &value);
    const uint64_t t1 = NowNanos();
    if (Done(kGet, s, t0, t1)) {
      log_->check.Read(model_, k, value, lo, model_.Issued(k));
    }
  }

  void MultiGet(const std::vector<uint64_t>& ks) {
    std::vector<std::string> keys;
    std::vector<Slice> slices;
    std::vector<uint32_t> lo;
    for (uint64_t k : ks) {
      keys.push_back(KeyOf(k));
      lo.push_back(bench_->Bounds(id_, k).first);
    }
    for (const std::string& key : keys) {
      slices.emplace_back(key);
    }
    std::vector<std::string> values;
    const uint64_t t0 = NowNanos();
    const std::vector<Status> st = store_->MultiGet(slices, &values);
    const uint64_t t1 = NowNanos();
    Status first;
    for (const Status& s : st) {
      if (!s.ok() && first.ok()) {
        first = s;
      }
    }
    if (Done(kMultiGet, first, t0, t1)) {
      for (size_t i = 0; i < ks.size(); i++) {
        log_->check.Read(model_, ks[i], values[i], lo[i], model_.Issued(ks[i]));
      }
    }
  }

  // kMultiWrite or kTxn: one batch of new versions of `ks`.
  void WriteBatchOp(OpKind kind, const std::vector<uint64_t>& ks) {
    WriteBatch batch;
    std::vector<uint32_t> versions;
    for (uint64_t k : ks) {
      versions.push_back(model_.Issue(k));
      const std::string key = KeyOf(k);
      batch.Put(key, model_.Value(k, versions.back()));
      CountWrite(key);
    }
    const uint64_t t0 = NowNanos();
    const Status s = kind == kTxn ? store_->WriteTxn(&batch) : store_->MultiWrite(&batch);
    const uint64_t t1 = NowNanos();
    if (kind == kTxn) {
      log_->txns++;
    }
    if (Done(kind, s, t0, t1)) {
      for (size_t i = 0; i < ks.size(); i++) {
        model_.Ack(ks[i], versions[i]);
      }
      log_->user_bytes_acked += ks.size() * (kKeySize + kValueSize);
    }
  }

  void Scan(uint64_t begin, size_t n) {
    KvPairs out;
    const uint64_t t0 = NowNanos();
    const Status s = store_->Scan(KeyOf(begin), n, &out);
    const uint64_t t1 = NowNanos();
    log_->scan_pairs += out.size();
    if (Done(kScan, s, t0, t1)) {
      log_->check.Scan(model_, begin, n, out,
                       [this](uint64_t k) { return bench_->Bounds(id_, k); });
    }
  }

 private:
  void CountWrite(const std::string& key) {
    log_->keys_written++;
    log_->key_hash_written += p2kvs::Hash64(key);
    log_->user_bytes_written += kKeySize + kValueSize;
  }

  bool Done(OpKind kind, const Status& s, uint64_t t0, uint64_t t1) {
    log_->attempted++;
    log_->client_ns += t1 - t0;
    RecordSpan(kOpSpan[kind], t0, t1, ++op_id_);
    if (!s.ok()) {
      log_->failed++;
      log_->check.Fail(std::string(kOpSpan[kind]) + " failed: " + s.ToString());
      return false;
    }
    log_->ok++;
    log_->lat_ns[kind].push_back(t1 - t0);
    bench_->CountCompleted();
    return true;
  }

  Bench* const bench_;
  P2KVS* const store_;
  Model& model_;
  const int id_;
  ClientLog* const log_;
  Random64 rnd_;
  uint64_t op_id_ = static_cast<uint64_t>(id_) << 40;
};

// One round of each closed-loop workload; clients stop only between rounds.
using RoundFn = std::function<void(DirectClient&)>;

RoundFn SyncRound(Bench* bench) {
  const uint64_t n = bench->spec().records;
  return [n](DirectClient& c) {
    Random64& r = c.rnd();
    if (r.Next() & 1) {
      c.Put(r.Uniform(n));
      c.Get(r.Uniform(n));
    } else {
      c.Get(r.Uniform(n));
      c.Put(r.Uniform(n));
    }
  };
}

RoundFn FanoutRound(Bench* bench, int client) {
  const uint64_t n = bench->spec().records;
  const uint64_t groups = bench->spec().txn_groups;
  const uint64_t first_free = 4 * groups;
  return [bench, client, n, groups, first_free](DirectClient& c) {
    Random64& r = c.rnd();
    int order[4] = {0, 1, 2, 3};
    for (int i = 3; i > 0; i--) {
      std::swap(order[i], order[r.Uniform(static_cast<uint64_t>(i + 1))]);
    }
    for (int step : order) {
      switch (step) {
        case 0: {
          std::vector<uint64_t> ks(16);
          for (uint64_t& k : ks) {
            k = r.Uniform(n);
          }
          c.MultiGet(ks);
          break;
        }
        case 1: {
          std::set<uint64_t> picked;
          while (picked.size() < 16) {
            picked.insert(bench->OwnKey(first_free + r.Uniform(n - first_free), client));
          }
          c.WriteBatchOp(kMultiWrite, std::vector<uint64_t>(picked.begin(), picked.end()));
          break;
        }
        case 2:
          c.Scan(r.Uniform(n), 50);
          break;
        default: {
          const uint64_t g = bench->OwnKey(r.Uniform(groups), client);
          c.WriteBatchOp(kTxn, {4 * g, 4 * g + 1, 4 * g + 2, 4 * g + 3});
          break;
        }
      }
    }
  };
}

void RunClosedLoop(Bench* bench, std::vector<ClientLog>* logs, uint64_t* window_ns) {
  const WorkloadSpec& spec = bench->spec();
  const int clients = spec.clients;
  std::vector<RoundFn> rounds;
  for (int c = 0; c < clients; c++) {
    if (std::strcmp(spec.name, "sync_1c") == 0) {
      rounds.push_back(SyncRound(bench));
    } else if (std::strcmp(spec.name, "fanout_2c") == 0) {
      rounds.push_back(FanoutRound(bench, c));
    } else {
      // mixed_4c: YCSB-A, scrambled zipfian over every key; updates go to
      // the client's own key next to the drawn one.
      auto zipf = std::make_shared<p2kvs::ycsb::ScrambledZipfianGenerator>(
          spec.records, bench->args().seed * 7919 + static_cast<uint64_t>(c));
      rounds.push_back([bench, zipf, c](DirectClient& dc) {
        const bool update_first = dc.rnd().Next() & 1;
        const uint64_t rk = zipf->Next();
        const uint64_t wk = bench->OwnKey(zipf->Next(), c);
        if (update_first) {
          dc.Put(wk);
          dc.Get(rk);
        } else {
          dc.Get(rk);
          dc.Put(wk);
        }
      });
    }
  }
  logs->assign(static_cast<size_t>(clients), ClientLog());
  std::vector<std::thread> threads;
  std::atomic<int> running{clients};
  const uint64_t start = NowNanos();
  const uint64_t end = start + static_cast<uint64_t>(bench->args().seconds) * 1000000000ull;
  for (int c = 0; c < clients; c++) {
    threads.emplace_back([bench, c, end, logs, &rounds, &running] {
      NameThread("client-" + std::to_string(c));
      ClientLog& log = (*logs)[static_cast<size_t>(c)];
      DirectClient client(bench, c, &log);
      while (NowNanos() < end) {
        rounds[static_cast<size_t>(c)](client);
      }
      log.last_done_ns = NowNanos();
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  bench->JoinSampling(&threads, running);
  uint64_t last = start;
  for (const ClientLog& log : *logs) {
    last = std::max(last, log.last_done_ns);
  }
  *window_ns = last - start;
}

// --- tcp_open: open loop over loopback ---

struct TcpSlot {
  uint64_t request_id = 0;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  OpKind kind = kGet;
  uint64_t key = 0;  // GET/PUT key, SCAN begin
  uint32_t version = 0;
  std::vector<uint64_t> keys;  // MULTIGET
  std::vector<uint32_t> lo;    // per key read (GET: lo[0])
};

constexpr int kTcpRound = 20;  // 10 GET, 8 PUT, 1 MULTIGET(8), 1 SCAN(20)
constexpr size_t kTcpMultiGetKeys = 8;
constexpr uint32_t kTcpScanCount = 20;

void RunTcpConnection(Bench* bench, uint16_t port, int conn, uint64_t start_ns,
                      uint64_t rounds, ClientLog* log) {
  using p2kvs::server::Client;
  using p2kvs::server::Response;
  Model& model = bench->model();
  const uint64_t n = bench->spec().records;
  const uint64_t total = rounds * kTcpRound;
  const double interval_ns = 1e9 * kTcpConnections / kTcpRequestsPerSec;
  Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    log->attempted += total;
    log->failed += total;
    log->check.Fail("connect failed");
    return;
  }
  std::vector<TcpSlot> slots(total);
  std::atomic<uint64_t> published{0};

  std::thread reader([&] {
    NameThread("tcp-reader-" + std::to_string(conn));
    for (uint64_t i = 0; i < total; i++) {
      Response resp;
      const Status rs = client.ReadResponse(&resp);
      const uint64_t now = NowNanos();
      if (!rs.ok()) {
        log->failed += total - i;
        log->check.Fail("connection lost: " + rs.ToString());
        return;
      }
      while (published.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      const TcpSlot& slot = slots[i];
      log->responses++;
      log->last_done_ns = now;
      log->client_ns += now - slot.sent_ns;
      RecordSpan(kOpSpan[slot.kind], slot.sent_ns, now, slot.request_id);
      const Status s = resp.ToStatus();
      if (resp.request_id != slot.request_id || !s.ok()) {
        log->failed++;
        log->check.Fail(std::string(kOpSpan[slot.kind]) + " over tcp failed: " +
                        (s.ok() ? "response out of order" : s.ToString()));
        continue;
      }
      log->ok++;
      bench->CountCompleted();
      log->lat_ns[slot.kind].push_back(now - slot.due_ns);
      switch (slot.kind) {
        case kPut:
          model.Ack(slot.key, slot.version);
          log->user_bytes_acked += kKeySize + kValueSize;
          break;
        case kGet:
          log->check.Read(model, slot.key, resp.payload, slot.lo[0], model.Issued(slot.key));
          break;
        case kMultiGet: {
          std::vector<Status> st;
          std::vector<std::string> values;
          if (!resp.DecodeMultiGet(&st, &values) || values.size() != slot.keys.size()) {
            log->check.Fail("malformed MULTIGET response");
            break;
          }
          for (size_t k = 0; k < slot.keys.size(); k++) {
            if (!st[k].ok()) {
              log->check.Fail("MULTIGET key failed: " + st[k].ToString());
              continue;
            }
            log->check.Read(model, slot.keys[k], values[k], slot.lo[k],
                            model.Issued(slot.keys[k]));
          }
          break;
        }
        default: {
          KvPairs pairs;
          if (!resp.DecodeScan(&pairs)) {
            log->check.Fail("malformed SCAN response");
            break;
          }
          log->scan_pairs += pairs.size();
          log->check.Scan(model, slot.key, kTcpScanCount, pairs, [&](uint64_t k) {
            const uint64_t at = k - slot.key;
            return std::make_pair(slot.lo[at], model.Issued(k));
          });
          break;
        }
      }
    }
  });

  Random64 rnd(bench->args().seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(conn) + 1);
  OpKind round[kTcpRound];
  bool unflushed = false;
  for (uint64_t i = 0; i < total; i++) {
    if (i % kTcpRound == 0) {
      int at = 0;
      for (int j = 0; j < 10; j++) round[at++] = kGet;
      for (int j = 0; j < 8; j++) round[at++] = kPut;
      round[at++] = kMultiGet;
      round[at++] = kScan;
      for (int j = kTcpRound - 1; j > 0; j--) {
        std::swap(round[j], round[rnd.Uniform(static_cast<uint64_t>(j + 1))]);
      }
    }
    const uint64_t due = start_ns + static_cast<uint64_t>(static_cast<double>(i) * interval_ns);
    uint64_t now = NowNanos();
    if (now < due) {
      if (unflushed) {
        if (!client.Flush().ok()) {
          log->check.Fail("flush failed");
        }
        log->flushes++;
        unflushed = false;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNanos();
    }
    log->max_lag_ns = std::max(log->max_lag_ns, now - due);
    TcpSlot& slot = slots[i];
    slot.kind = round[i % kTcpRound];
    slot.due_ns = due;
    const int workers = bench->store()->num_workers();
    switch (slot.kind) {
      case kPut: {
        slot.key = bench->OwnKey(rnd.Uniform(n), conn);
        slot.version = model.Issue(slot.key);
        const std::string key = KeyOf(slot.key);
        log->keys_written++;
        log->key_hash_written += p2kvs::Hash64(key);
        log->user_bytes_written += kKeySize + kValueSize;
        log->expected_door += 1;
        slot.sent_ns = NowNanos();
        slot.request_id = client.SendPut(key, model.Value(slot.key, slot.version));
        break;
      }
      case kGet:
        slot.key = rnd.Uniform(n);
        slot.lo.push_back(bench->Bounds(conn, slot.key).first);
        log->expected_door += 1;
        slot.sent_ns = NowNanos();
        slot.request_id = client.SendGet(KeyOf(slot.key));
        break;
      case kMultiGet: {
        std::vector<std::string> keys;
        std::set<int> partitions;
        for (size_t k = 0; k < kTcpMultiGetKeys; k++) {
          slot.keys.push_back(rnd.Uniform(n));
          slot.lo.push_back(bench->Bounds(conn, slot.keys.back()).first);
          keys.push_back(KeyOf(slot.keys.back()));
          partitions.insert(bench->store()->PartitionOf(keys.back()));
        }
        log->expected_door += partitions.size();
        slot.sent_ns = NowNanos();
        slot.request_id = client.SendMultiGet(keys);
        break;
      }
      default:
        slot.key = rnd.Uniform(n);
        for (uint64_t k = slot.key; k < std::min(n, slot.key + kTcpScanCount); k++) {
          slot.lo.push_back(bench->Bounds(conn, k).first);
        }
        log->expected_door += static_cast<uint64_t>(workers);
        slot.sent_ns = NowNanos();
        slot.request_id = client.SendScan(KeyOf(slot.key), kTcpScanCount);
        break;
    }
    published.store(i + 1, std::memory_order_release);
    log->attempted++;
    log->frames++;
    unflushed = true;
  }
  if (!client.Flush().ok()) {
    log->check.Fail("flush failed");
  }
  log->flushes++;
  reader.join();
}

void RunTcpOpen(Bench* bench, std::vector<ClientLog>* logs, uint64_t* window_ns,
                p2kvs::server::ServerStatsSnapshot* server_stats, uint64_t completed_before) {
  const uint64_t per_conn_per_sec = static_cast<uint64_t>(kTcpRequestsPerSec / kTcpConnections);
  const uint64_t rounds = std::max<uint64_t>(
      1, per_conn_per_sec * static_cast<uint64_t>(bench->args().seconds) / kTcpRound);
  // The store under test sheds nothing, so neither may the server: its
  // per-connection pipeline cap (default 1024 in flight, ~170 ms of this
  // schedule) is raised to a connection's whole run. With the default, a
  // stall of the host can turn a backlog into BUSY replies.
  p2kvs::server::ServerOptions options;
  options.max_pipeline = rounds * kTcpRound;
  p2kvs::server::Server server(bench->store(), options);
  Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  logs->assign(kTcpConnections, ClientLog());
  const uint64_t start = NowNanos() + 1000000;  // first arrival 1 ms from now
  std::vector<std::thread> threads;
  std::atomic<int> running{kTcpConnections};
  for (int c = 0; c < kTcpConnections; c++) {
    threads.emplace_back([bench, &server, c, start, rounds, logs, &running] {
      NameThread("tcp-sender-" + std::to_string(c));
      RunTcpConnection(bench, server.port(), c, start, rounds, &(*logs)[static_cast<size_t>(c)]);
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  bench->JoinSampling(&threads, running);
  uint64_t last = start;
  for (const ClientLog& log : *logs) {
    last = std::max(last, log.last_done_ns);
  }
  *window_ns = last - start;
  server.Stop();
  *server_stats = server.Stats();

  // (g) door accounting.
  ClientLog all;
  for (const ClientLog& log : *logs) {
    all.Merge(log);
  }
  P2kvsStats stats;
  Checker& check = (*logs)[0].check;
  if (!bench->store()->GetStats(&stats).ok()) {
    check.Fail("GetStats failed");
    return;
  }
  check.Doors(all.frames, server_stats->submitted_to_store, all.responses,
              stats.totals.completed - completed_before, all.expected_door);
}

// --- Reporting ---

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintHostFacts(const Args& args) {
#ifdef P2KVS_IO_URING
  const bool uring_compiled = true;
#else
  const bool uring_compiled = false;
#endif
  std::printf(
      "{\"host\": {\"nproc\": %ld, \"build_type\": \"%s\", \"io_uring_compiled\": %s, "
      "\"io_uring_usable\": %s}, \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, uring_compiled ? "true" : "false",
      p2kvs::IoUringAvailable() ? "true" : "false", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.raw && std::strcmp(spec->name, "sync_1c") != 0) {
    std::fprintf(stderr, "--raw applies to sync_1c only\n");
    return 2;
  }
  PrintHostFacts(args);
  SetTracing(args.trace);

  Bench bench(*spec, args);
  Status s = bench.Open();
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const CounterSnapshot at_open = SnapshotCounters();
  ClientLog preload;
  s = bench.Preload(&preload);
  if (!s.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double setup_s = static_cast<double>(NowNanos() - g_process_start_ns) / 1e9;

  P2kvsStats stats_before;
  s = args.raw ? Status::OK() : bench.store()->GetStats(&stats_before);
  if (!s.ok()) {
    std::fprintf(stderr, "GetStats failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const CounterSnapshot before = SnapshotCounters();
  const Rusage ru_before = ReadRusage();
  ResetMaxReadsInFlight();
  SetRecording(args.trace);

  std::vector<ClientLog> logs;
  uint64_t window_ns = 0;
  p2kvs::server::ServerStatsSnapshot server_stats;
  const bool is_tcp = std::strcmp(spec->name, "tcp_open") == 0;
  if (is_tcp) {
    RunTcpOpen(&bench, &logs, &window_ns, &server_stats, stats_before.totals.completed);
  } else {
    RunClosedLoop(&bench, &logs, &window_ns);
  }

  SetRecording(false);
  const Rusage ru_after = ReadRusage();
  const CounterSnapshot after = SnapshotCounters();
  const uint64_t max_reads_in_flight = MaxReadsInFlight();
  P2kvsStats stats_after;
  ClientLog all;
  for (const ClientLog& log : logs) {
    all.Merge(log);
  }
  Checker& check = all.check;
  if (!args.raw) {
    if (!bench.store()->GetStats(&stats_after).ok()) {
      check.Fail("GetStats failed");
    }
    Status self = stats_after.SelfCheck();
    if (!self.ok()) {
      check.Fail("SelfCheck: " + self.ToString());
    }
  }

  // (e) and (f), from store open through the window.
  check.EngineWrites(Delta(at_open, after, kLsmWriteKeys), Delta(at_open, after, kLsmWriteKeyHash),
                     preload.keys_written + all.keys_written,
                     preload.key_hash_written + all.key_hash_written);
  check.WalBytes(Delta(at_open, after, kWalBytes),
                 preload.user_bytes_acked + all.user_bytes_acked);

  // Peak RSS before the readback adds its own buffers.
  const double peak_rss_mb = static_cast<double>(ReadRusage().maxrss_kb) / 1024.0;

  // (b) + (d) before and after a reopen.
  bench.Readback(&check);
  bench.Close();
  s = bench.Open();
  if (!s.ok()) {
    check.Fail("reopen failed: " + s.ToString());
  } else {
    bench.Readback(&check);
    bench.Close();
  }
  if (!check.ok()) {
    std::fprintf(stderr, "CHECK FAILED (%llu violations): %s\n",
                 static_cast<unsigned long long>(check.violations()), check.first().c_str());
  }

  const double ops = static_cast<double>(all.ok);
  const double user_bytes_live = static_cast<double>(spec->records * (kKeySize + kValueSize));
  // End-to-end metrics are computed on traced runs too (stderr only), which
  // is how the tracing overhead is measured.
  const double user_us = ru_after.user_us - ru_before.user_us;
  const double sys_us = ru_after.sys_us - ru_before.sys_us;
  const std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", Ratio(ops, static_cast<double>(window_ns) / 1e9), "1/s"},
      {"cpu_us_per_op", Ratio(user_us + sys_us, ops), "us"},
      {"write_p50_us", PercentileUs(all.lat_ns[spec->write_class], 0.50), "us"},
      {"read_p50_us", PercentileUs(all.lat_ns[spec->read_class], 0.50), "us"},
      {"stored_bytes_per_user_byte", Ratio(bench.MeanStoredBytes(), user_bytes_live), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::fprintf(stderr, "end-to-end:");
  for (const Metric& m : e2e) {
    std::fprintf(stderr, " %s=%.6g", m.name.c_str(), m.value);
  }
  std::fprintf(stderr, "\n");
  std::vector<Metric> metrics = e2e;
  if (args.trace) {
    auto d = [&](Counter c) { return static_cast<double>(Delta(before, after, c)); };
    const double attempted = static_cast<double>(all.attempted);
    auto per_op = [attempted](double x) { return Ratio(x, attempted); };
    const double lsm_calls =
        d(kLsmWriteCalls) + d(kLsmGetCalls) + d(kLsmMultiGetCalls) + d(kLsmIterators);
    const double lsm_ns = d(kLsmWriteNs) + d(kLsmGetNs) + d(kLsmMultiGetNs) + d(kLsmIterNs);
    const double point_keys = d(kLsmGetCalls) + d(kLsmMultiGetKeys);
    const double user_keys = static_cast<double>(all.keys_written);
    const double user_bytes = static_cast<double>(all.user_bytes_written);
    const double txns = static_cast<double>(all.txns);
    const p2kvs::WorkerStatsSnapshot& t0 = stats_before.totals;
    const p2kvs::WorkerStatsSnapshot& t1 = stats_after.totals;
    const double executed = static_cast<double>(t1.requests_executed() - t0.requests_executed());
    const double queue_wait_ns = static_cast<double>(t1.queue_wait_nanos - t0.queue_wait_nanos);
    const double nonengine_us = per_op(static_cast<double>(all.client_ns) - lsm_ns) / 1000.0;
    metrics = {
        {"core.handoff_us_per_op", is_tcp ? 0 : nonengine_us, "us"},
        {"core.queue_wait_us", Ratio(queue_wait_ns, executed) / 1000.0, "us"},
        {"proc.vcsw_per_op", per_op(static_cast<double>(ru_after.vcsw - ru_before.vcsw)), "count"},
        {"proc.user_us_per_op", per_op(user_us), "us"},
        {"proc.sys_us_per_op", per_op(sys_us), "us"},
        {"core.write_keys_per_lsm_call", Ratio(d(kLsmWriteKeys), d(kLsmWriteCalls)), "count"},
        {"core.read_keys_per_lsm_call", Ratio(point_keys, d(kLsmGetCalls) + d(kLsmMultiGetCalls)),
         "count"},
        {"core.lsm_calls_per_fanout_op", per_op(lsm_calls), "count"},
        {"core.scan_keys_read_per_key_returned",
         Ratio(d(kLsmIterSteps), static_cast<double>(all.scan_pairs)), "count"},
        {"lsm.write_us_per_call", Ratio(d(kLsmWriteNs), d(kLsmWriteCalls)) / 1000.0, "us"},
        {"lsm.get_us_per_key", Ratio(d(kLsmGetNs), d(kLsmGetCalls)) / 1000.0, "us"},
        {"lsm.multiget_us_per_call", Ratio(d(kLsmMultiGetNs), d(kLsmMultiGetCalls)) / 1000.0, "us"},
        {"lsm.iter_us_per_key", Ratio(d(kLsmIterNs), d(kLsmIterSteps)) / 1000.0, "us"},
        {"lsm.self_us_per_call", Ratio(lsm_ns - d(kLsmNestedIoNs), lsm_calls) / 1000.0, "us"},
        {"lsm.busy_s", lsm_ns / 1e9, "s"},
        {"wal.appends_per_user_write", Ratio(d(kWalAppends), user_keys), "count"},
        {"wal.bytes_per_user_byte", Ratio(d(kWalBytes), user_bytes), "ratio"},
        {"wal.syncs_per_txn", Ratio(d(kWalSyncs), txns), "count"},
        {"wal.sync_us", Ratio(d(kWalSyncNs), d(kWalSyncs)) / 1000.0, "us"},
        {"txn_log.syncs_per_txn", Ratio(d(kTxnLogSyncs), txns), "count"},
        {"txn_log.bytes_per_txn", Ratio(d(kTxnLogBytes), txns), "bytes"},
        {"io.reads_per_get", Ratio(d(kTableReads), point_keys), "count"},
        {"io.read_us", Ratio(d(kTableReadNs), d(kTableReads)) / 1000.0, "us"},
        {"io.max_reads_in_flight", static_cast<double>(max_reads_in_flight), "count"},
        {"io.table_write_bytes_per_user_byte", Ratio(d(kTableWriteBytes), user_bytes), "ratio"},
        {"io.background_busy_s", d(kBackgroundIoNs) / 1e9, "s"},
        {"server.bytes_in_per_op", per_op(static_cast<double>(server_stats.bytes_received)),
         "bytes"},
        {"server.bytes_out_per_op", per_op(static_cast<double>(server_stats.bytes_sent)), "bytes"},
        {"client.frames_per_flush",
         Ratio(static_cast<double>(all.frames), static_cast<double>(all.flushes)), "count"},
        {"server.nonengine_us_per_op", is_tcp ? nonengine_us : 0, "us"},
        {"loadgen.max_lag_ms", static_cast<double>(all.max_lag_ns) / 1e6, "ms"},
        {"client.scan_p50_us", PercentileUs(all.lat_ns[kScan], 0.50), "us"},
        {"client.txn_p50_us", PercentileUs(all.lat_ns[kTxn], 0.50), "us"},
    };
    const std::string& path = args.trace_out;
    uint64_t spans = 0;
    if (path.empty()) {
      std::fprintf(stderr, "trace: no --trace-out given, spans not written\n");
    } else if (WriteTraceJson(path, &spans)) {
      std::fprintf(stderr, "trace: %llu spans -> %s\n", static_cast<unsigned long long>(spans),
                   path.c_str());
    } else {
      std::fprintf(stderr, "trace: could not write %s\n", path.c_str());
    }
  }
  PrintResult(check.ok(), all.attempted, all.failed, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--selftest") {
      args->selftest = true;
    } else if (a == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (a == "--seed") {
      if (!value(&v)) return false;
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      if (!value(&v)) return false;
      args->seconds = std::max(1, std::atoi(v.c_str()));
    } else if (a == "--trace") {
      if (!value(&v)) return false;
      args->trace = v == "1";
    } else if (a == "--raw") {
      args->raw = true;
    } else if (a == "--trace-out") {
      if (!value(&args->trace_out)) return false;
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The store's bench helpers read these; a run must not inherit them.
  for (const char* name : {"P2KVS_BENCH_SCALE", "P2KVS_DEVICE_SCALE", "P2KVS_BENCH_THREADS_MAX"}) {
    unsetenv(name);
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <sync_1c|mixed_4c|fanout_2c|tcp_open> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] [--raw] | --selftest\n",
                 argv[0]);
    return 2;
  }
  if (args.selftest) {
    return perfbench::RunCheckerSelfTest() == 0 ? 0 : 1;
  }
  return perfbench::Run(args);
}
