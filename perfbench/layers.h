// Per-layer instrumentation owned by the benchmark. Everything here wraps the
// store's public interfaces from the outside:
//
//   lsm  — a KVStore decorator installed through P2kvsOptions::engine_factory
//          (every engine call a p2KVS worker makes);
//   wal, txn_log, io — an Env decorator over the simulated device, classifying
//          files by name (*.log = engine WAL, TXNLOG = framework txn log,
//          *.sst = tables).
//
// Counters are always kept (they feed the correctness checks (e) and (f)).
// Clock reads and spans only happen when tracing is on: spans are recorded
// per thread in memory and written out as Chrome/Perfetto JSON at the end.
// A layer's self time is its span minus the io spans nested inside it on the
// same thread; that subtraction happens as the nested span ends.

#ifndef P2KVS_PERFBENCH_LAYERS_H_
#define P2KVS_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kv_store.h"
#include "src/io/env_wrapper.h"

namespace perfbench {

enum Counter : int {
  kLsmWriteCalls,
  kLsmWriteKeys,
  kLsmWriteKeyHash,  // wrap-around sum of Hash64(key) over written keys
  kLsmWriteNs,
  kLsmGetCalls,
  kLsmGetNs,
  kLsmMultiGetCalls,
  kLsmMultiGetKeys,
  kLsmMultiGetNs,
  kLsmIterators,
  kLsmIterSteps,  // Seek/SeekToFirst/Next calls on engine iterators
  kLsmIterNs,
  kLsmNestedIoNs,  // io time inside an lsm call on the same thread
  kWalAppends,
  kWalBytes,
  kWalSyncs,
  kWalSyncNs,
  kTxnLogAppends,
  kTxnLogBytes,
  kTxnLogSyncs,
  kTableReads,  // foreground table reads (block-cache misses)
  kTableReadNs,
  kTableWriteBytes,
  kBackgroundIoNs,  // io on flush/compaction threads
  kNumCounters
};

using CounterSnapshot = std::vector<uint64_t>;

// Sum of every thread's counters (exact for threads that have ended; a
// relaxed snapshot for running ones).
CounterSnapshot SnapshotCounters();
uint64_t Delta(const CounterSnapshot& before, const CounterSnapshot& after, Counter c);

// Highest number of table reads inside the device at once since the last
// reset.
void ResetMaxReadsInFlight();
uint64_t MaxReadsInFlight();

// Tracing switch: `enabled` turns on clock reads and span recording; spans
// are kept only while `recording` (the timed window).
void SetTracing(bool enabled);
void SetRecording(bool recording);

// Records one span on the calling thread (no-op unless recording).
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id = 0);
// Names the calling thread's track in the exported trace.
void NameThread(const std::string& name);

// Writes every recorded span as Chrome trace-event JSON (loads in
// ui.perfetto.dev). Call after every recording thread has been joined.
bool WriteTraceJson(const std::string& path, uint64_t* spans_written);

// Wraps every engine the factory creates in the counting/tracing decorator.
p2kvs::EngineFactory WrapEngineFactory(p2kvs::EngineFactory inner);

// Env decorator over the device env.
std::unique_ptr<p2kvs::Env> NewLayerEnv(p2kvs::Env* target);

}  // namespace perfbench

#endif  // P2KVS_PERFBENCH_LAYERS_H_
