#include "perfbench/layers.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "src/io/io_stats.h"
#include "src/util/clock.h"
#include "src/util/hash.h"

namespace perfbench {

using p2kvs::Env;
using p2kvs::IoPurpose;
using p2kvs::Iterator;
using p2kvs::KVStore;
using p2kvs::NowNanos;
using p2kvs::RandomAccessFile;
using p2kvs::Slice;
using p2kvs::Status;
using p2kvs::WritableFile;

namespace {

// Spans kept per thread; later spans of a long window are counted, not kept,
// so a trace stays small enough to open in Perfetto.
constexpr size_t kMaxSpansPerThread = 20000;

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
};

struct ThreadState {
  // Single writer (the owning thread); relaxed atomics so snapshots taken
  // from other threads are race-free.
  std::atomic<uint64_t> counters[kNumCounters] = {};
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
  uint32_t tid = 0;
  std::string name;
  int lsm_depth = 0;  // > 0 while inside a decorated engine call
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_registry_mu
std::atomic<bool> g_tracing{false};
std::atomic<bool> g_recording{false};
std::atomic<uint64_t> g_reads_in_flight{0};
std::atomic<uint64_t> g_max_reads_in_flight{0};
thread_local ThreadState* tl_state = nullptr;

ThreadState& Self() {
  if (tl_state == nullptr) {
    auto state = std::make_unique<ThreadState>();
    char buf[32] = {};
    if (pthread_getname_np(pthread_self(), buf, sizeof(buf)) == 0) {
      state->name = buf;
    }
    std::lock_guard<std::mutex> lock(g_registry_mu);
    state->tid = static_cast<uint32_t>(g_threads.size() + 1);
    tl_state = state.get();
    g_threads.push_back(std::move(state));
  }
  return *tl_state;
}

void Add(ThreadState& st, Counter c, uint64_t delta) {
  std::atomic<uint64_t>& slot = st.counters[c];
  slot.store(slot.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

// Times one call into the engine. `span` = false keeps the time in the
// counters only (iterator steps are too many to keep one span each).
class LsmCall {
 public:
  LsmCall(const char* name, Counter ns_counter, bool span = true)
      : st_(Self()), name_(name), ns_counter_(ns_counter), span_(span) {
    st_.lsm_depth++;
    if (Tracing()) {
      start_ = NowNanos();
    }
  }
  ~LsmCall() {
    st_.lsm_depth--;
    if (start_ != 0) {
      const uint64_t end = NowNanos();
      Add(st_, ns_counter_, end - start_);
      if (span_) {
        RecordSpan(name_, start_, end);
      }
    }
  }
  LsmCall(const LsmCall&) = delete;
  LsmCall& operator=(const LsmCall&) = delete;

 private:
  ThreadState& st_;
  const char* name_;
  Counter ns_counter_;
  bool span_;
  uint64_t start_ = 0;
};

// Times one file operation; returns its duration (0 when not tracing) and
// attributes it to the enclosing lsm call or to background work.
class IoOp {
 public:
  explicit IoOp(const char* name) : st_(Self()), name_(name) {
    if (Tracing()) {
      start_ = NowNanos();
    }
  }
  uint64_t Finish() {
    if (start_ == 0) {
      return 0;
    }
    const uint64_t end = NowNanos();
    const uint64_t dur = end - start_;
    if (st_.lsm_depth > 0) {
      Add(st_, kLsmNestedIoNs, dur);
    }
    if (Background()) {
      Add(st_, kBackgroundIoNs, dur);
    }
    RecordSpan(name_, start_, end);
    return dur;
  }
  static bool Background() {
    const IoPurpose p = p2kvs::GetThreadIoPurpose();
    return p == IoPurpose::kFlush || p == IoPurpose::kCompaction;
  }

 private:
  ThreadState& st_;
  const char* name_;
  uint64_t start_ = 0;
};

uint64_t KeyHashOf(const Slice& key) { return p2kvs::Hash64(key); }

class LayerIterator final : public Iterator {
 public:
  explicit LayerIterator(Iterator* inner) : inner_(inner), created_ns_(Tracing() ? NowNanos() : 0) {
    Add(Self(), kLsmIterators, 1);
  }
  ~LayerIterator() override {
    if (created_ns_ != 0) {
      RecordSpan("lsm.iter", created_ns_, NowNanos());
    }
  }

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override {
    Step();
    LsmCall call("lsm.iter", kLsmIterNs, false);
    inner_->SeekToFirst();
  }
  void SeekToLast() override {
    Step();
    LsmCall call("lsm.iter", kLsmIterNs, false);
    inner_->SeekToLast();
  }
  void Seek(const Slice& target) override {
    Step();
    LsmCall call("lsm.iter", kLsmIterNs, false);
    inner_->Seek(target);
  }
  void Next() override {
    Step();
    LsmCall call("lsm.iter", kLsmIterNs, false);
    inner_->Next();
  }
  void Prev() override {
    Step();
    LsmCall call("lsm.iter", kLsmIterNs, false);
    inner_->Prev();
  }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  static void Step() { Add(Self(), kLsmIterSteps, 1); }

  std::unique_ptr<Iterator> inner_;
  const uint64_t created_ns_;
};

class LayerStore final : public KVStore {
 public:
  explicit LayerStore(std::unique_ptr<KVStore> inner) : inner_(std::move(inner)) {}

  p2kvs::EngineCaps caps() const override { return inner_->caps(); }

  Status Put(const Slice& key, const Slice& value, const p2kvs::KvWriteOptions& o) override {
    CountWrite(1, KeyHashOf(key));
    LsmCall call("lsm.write", kLsmWriteNs);
    return inner_->Put(key, value, o);
  }
  Status Delete(const Slice& key, const p2kvs::KvWriteOptions& o) override {
    CountWrite(1, KeyHashOf(key));
    LsmCall call("lsm.write", kLsmWriteNs);
    return inner_->Delete(key, o);
  }
  Status Write(p2kvs::WriteBatch* batch, const p2kvs::KvWriteOptions& o) override {
    struct Hasher : public p2kvs::WriteBatch::Handler {
      uint64_t sum = 0;
      void Put(const Slice& key, const Slice& /*value*/) override { sum += KeyHashOf(key); }
      void Delete(const Slice& key) override { sum += KeyHashOf(key); }
    } hasher;
    Status s = batch->Iterate(&hasher);
    if (!s.ok()) {
      return s;
    }
    CountWrite(static_cast<uint64_t>(batch->Count()), hasher.sum);
    LsmCall call("lsm.write", kLsmWriteNs);
    return inner_->Write(batch, o);
  }
  Status Get(const Slice& key, std::string* value) override {
    Add(Self(), kLsmGetCalls, 1);
    LsmCall call("lsm.get", kLsmGetNs);
    return inner_->Get(key, value);
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    ThreadState& st = Self();
    Add(st, kLsmMultiGetCalls, 1);
    Add(st, kLsmMultiGetKeys, keys.size());
    LsmCall call("lsm.multiget", kLsmMultiGetNs);
    return inner_->MultiGet(keys, values);
  }
  Iterator* NewIterator() override { return new LayerIterator(inner_->NewIterator()); }

  const p2kvs::Snapshot* GetSnapshot() override { return inner_->GetSnapshot(); }
  void ReleaseSnapshot(const p2kvs::Snapshot* snapshot) override {
    inner_->ReleaseSnapshot(snapshot);
  }
  Status GetAtSnapshot(const Slice& key, std::string* value,
                       const p2kvs::Snapshot* snapshot) override {
    Add(Self(), kLsmGetCalls, 1);
    LsmCall call("lsm.get", kLsmGetNs);
    return inner_->GetAtSnapshot(key, value, snapshot);
  }
  void InstallEventHooks(const p2kvs::EngineEventHooks& hooks) override {
    inner_->InstallEventHooks(hooks);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Resume() override { return inner_->Resume(); }
  void WaitIdle() override { inner_->WaitIdle(); }
  size_t ApproximateMemoryUsage() const override { return inner_->ApproximateMemoryUsage(); }

 private:
  static void CountWrite(uint64_t keys, uint64_t hash_sum) {
    ThreadState& st = Self();
    Add(st, kLsmWriteCalls, 1);
    Add(st, kLsmWriteKeys, keys);
    Add(st, kLsmWriteKeyHash, hash_sum);
  }

  std::unique_ptr<KVStore> inner_;
};

enum class FileKind { kWal, kTxnLog, kTable, kOther };

FileKind KindOf(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  const std::string base = slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&base](const char* suffix) {
    const std::string s(suffix);
    return base.size() >= s.size() && base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".log")) {
    return FileKind::kWal;
  }
  if (base == "TXNLOG") {
    return FileKind::kTxnLog;
  }
  if (ends_with(".sst")) {
    return FileKind::kTable;
  }
  return FileKind::kOther;
}

class LayerWritableFile final : public WritableFile {
 public:
  LayerWritableFile(std::unique_ptr<WritableFile> inner, FileKind kind)
      : inner_(std::move(inner)), kind_(kind) {}

  Status Append(const Slice& data) override {
    ThreadState& st = Self();
    const char* name = "io.write";
    switch (kind_) {
      case FileKind::kWal:
        Add(st, kWalAppends, 1);
        Add(st, kWalBytes, data.size());
        name = "wal.append";
        break;
      case FileKind::kTxnLog:
        Add(st, kTxnLogAppends, 1);
        Add(st, kTxnLogBytes, data.size());
        name = "txn_log.append";
        break;
      case FileKind::kTable:
        Add(st, kTableWriteBytes, data.size());
        break;
      case FileKind::kOther:
        break;
    }
    IoOp op(name);
    Status s = inner_->Append(data);
    op.Finish();
    return s;
  }
  Status Flush() override { return inner_->Flush(); }
  Status Sync() override {
    ThreadState& st = Self();
    const char* name = "io.sync";
    if (kind_ == FileKind::kWal) {
      Add(st, kWalSyncs, 1);
      name = "wal.sync";
    } else if (kind_ == FileKind::kTxnLog) {
      Add(st, kTxnLogSyncs, 1);
      name = "txn_log.sync";
    }
    IoOp op(name);
    Status s = inner_->Sync();
    const uint64_t dur = op.Finish();
    if (kind_ == FileKind::kWal) {
      Add(st, kWalSyncNs, dur);
    }
    return s;
  }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<WritableFile> inner_;
  const FileKind kind_;
};

class TableReadFile final : public RandomAccessFile {
 public:
  explicit TableReadFile(std::unique_ptr<RandomAccessFile> inner) : inner_(std::move(inner)) {}

  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    const uint64_t depth = g_reads_in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t seen = g_max_reads_in_flight.load(std::memory_order_relaxed);
    while (depth > seen &&
           !g_max_reads_in_flight.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
    }
    const bool foreground = !IoOp::Background();
    IoOp op("io.read");
    Status s = inner_->Read(offset, n, result, scratch);
    const uint64_t dur = op.Finish();
    g_reads_in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (foreground) {
      ThreadState& st = Self();
      Add(st, kTableReads, 1);
      Add(st, kTableReadNs, dur);
    }
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> inner_;
};

class LayerEnv final : public p2kvs::EnvWrapper {
 public:
  explicit LayerEnv(Env* target) : EnvWrapper(target) {}

  Status NewWritableFile(const std::string& f, std::unique_ptr<WritableFile>* r) override {
    return Wrap(f, target()->NewWritableFile(f, r), r);
  }
  Status NewAppendableFile(const std::string& f, std::unique_ptr<WritableFile>* r) override {
    return Wrap(f, target()->NewAppendableFile(f, r), r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    Status s = target()->NewRandomAccessFile(f, r);
    if (s.ok() && KindOf(f) == FileKind::kTable) {
      *r = std::make_unique<TableReadFile>(std::move(*r));
    }
    return s;
  }

 private:
  static Status Wrap(const std::string& f, Status s, std::unique_ptr<WritableFile>* r) {
    if (s.ok()) {
      *r = std::make_unique<LayerWritableFile>(std::move(*r), KindOf(f));
    }
    return s;
  }
};

void JsonEscapeTo(std::FILE* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", c);
    } else {
      std::fputc(c, out);
    }
  }
}

}  // namespace

CounterSnapshot SnapshotCounters() {
  CounterSnapshot out(kNumCounters, 0);
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& st : g_threads) {
    for (int c = 0; c < kNumCounters; c++) {
      out[c] += st->counters[c].load(std::memory_order_relaxed);
    }
  }
  return out;
}

uint64_t Delta(const CounterSnapshot& before, const CounterSnapshot& after, Counter c) {
  return after[c] - before[c];
}

void ResetMaxReadsInFlight() {
  g_max_reads_in_flight.store(g_reads_in_flight.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

uint64_t MaxReadsInFlight() { return g_max_reads_in_flight.load(std::memory_order_relaxed); }

void SetTracing(bool enabled) { g_tracing.store(enabled, std::memory_order_relaxed); }
void SetRecording(bool recording) { g_recording.store(recording, std::memory_order_relaxed); }

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id) {
  if (!g_recording.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadState& st = Self();
  if (st.spans.size() >= kMaxSpansPerThread) {
    st.spans_dropped++;
    return;
  }
  if (st.spans.empty()) {
    st.spans.reserve(kMaxSpansPerThread);
  }
  st.spans.push_back(Span{name, start_ns, end_ns, id});
}

void NameThread(const std::string& name) { Self().name = name; }

bool WriteTraceJson(const std::string& path, uint64_t* spans_written) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(g_registry_mu);
  uint64_t base = UINT64_MAX;
  for (const auto& st : g_threads) {
    for (const Span& sp : st->spans) {
      base = std::min(base, sp.start_ns);
    }
  }
  uint64_t written = 0;
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (const auto& st : g_threads) {
    if (st->spans.empty()) {
      continue;
    }
    std::fprintf(out,
                 "%s\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"name\":\"",
                 first ? "" : ",", st->tid);
    JsonEscapeTo(out, st->name.empty() ? "thread" : st->name);
    std::fprintf(out, "\",\"spans_dropped\":%llu}}",
                 static_cast<unsigned long long>(st->spans_dropped));
    first = false;
    for (const Span& sp : st->spans) {
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   sp.name, st->tid, static_cast<double>(sp.start_ns - base) / 1000.0,
                   static_cast<double>(sp.end_ns - sp.start_ns) / 1000.0,
                   static_cast<unsigned long long>(sp.id));
      written++;
    }
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  *spans_written = written;
  return ok;
}

p2kvs::EngineFactory WrapEngineFactory(p2kvs::EngineFactory inner) {
  return [inner = std::move(inner)](const std::string& path,
                                    std::function<bool(uint64_t)> recovery_filter,
                                    std::unique_ptr<KVStore>* out) -> Status {
    std::unique_ptr<KVStore> engine;
    Status s = inner(path, std::move(recovery_filter), &engine);
    if (s.ok()) {
      *out = std::make_unique<LayerStore>(std::move(engine));
    }
    return s;
  };
}

std::unique_ptr<Env> NewLayerEnv(Env* target) { return std::make_unique<LayerEnv>(target); }

}  // namespace perfbench
