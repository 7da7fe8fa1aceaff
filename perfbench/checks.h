// Correctness model and checkers. Every expected value is computed here, from
// the benchmark's own record of what each client wrote, never read back from
// the store's bookkeeping:
//
//   (a) reads — values encode key and version; a key has exactly one writing
//       client, so a read returns a version in [lo, hi]: lo = the latest
//       version the reader's own client had acknowledged when it sent the
//       read (0 for other clients' keys), hi = the latest version handed to
//       the store when the reply arrived;
//   (b) readback — after the window every key is read back and equals the
//       model, before and after a close + reopen;
//   (c) scans — the key set is fixed, so Scan(begin, n) returns exactly the
//       next min(n, remaining) keys, in order, with values as in (a);
//   (d) txn groups — all keys of a group carry one tag: the group's last
//       acknowledged one;
//   (e) keys seen by the engine decorator = keys written by clients plus the
//       preload (count and hash sum);
//   (f) WAL bytes >= key + value bytes of acknowledged writes;
//   (g) door accounting over TCP: requests sent = server submissions =
//       responses read, and the store's completed door equals the
//       per-partition requests those imply.

#ifndef P2KVS_PERFBENCH_CHECKS_H_
#define P2KVS_PERFBENCH_CHECKS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/slice.h"

namespace perfbench {

using KvPairs = std::vector<std::pair<std::string, std::string>>;

std::string KeyOf(uint64_t index);
// Parses a KeyOf() string back to its index; false if malformed.
bool ParseKey(const p2kvs::Slice& key, uint64_t* index);

// Value of `key` at `version`: a header naming both, then filler derived
// from (key, version, seed), `size` bytes in all.
std::string MakeValue(uint64_t key, uint32_t version, size_t size, uint64_t seed);
// Recovers (key, version) and verifies every byte against MakeValue.
bool ParseValue(const p2kvs::Slice& value, size_t size, uint64_t seed, uint64_t* key,
                uint32_t* version);

// Keys [0, n), each with one writing client. A key's versions are written
// only by its owner; `issued` and `acked` are read by every client.
class Model {
 public:
  Model(uint64_t num_keys, size_t value_size, uint64_t seed);

  uint64_t size() const { return num_keys_; }
  size_t value_size() const { return value_size_; }
  uint64_t seed() const { return seed_; }

  // Owner only: the next version of `key`, recorded as issued.
  uint32_t Issue(uint64_t key);
  // Owner only: `version` of `key` was acknowledged.
  void Ack(uint64_t key, uint32_t version);
  uint32_t Issued(uint64_t key) const;
  uint32_t Acked(uint64_t key) const;

  std::string Value(uint64_t key, uint32_t version) const {
    return MakeValue(key, version, value_size_, seed_);
  }

 private:
  const uint64_t num_keys_;
  const size_t value_size_;
  const uint64_t seed_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

// Collects violations; one per client thread, merged at the end.
class Checker {
 public:
  void Fail(const std::string& what);
  bool ok() const { return violations_ == 0; }
  uint64_t violations() const { return violations_; }
  const std::string& first() const { return first_; }
  void Merge(const Checker& other);

  // (a) One point read of `key` that returned `value`.
  void Read(const Model& model, uint64_t key, const p2kvs::Slice& value, uint32_t lo,
            uint32_t hi);
  // (c) Scan(KeyOf(begin), n) returned `pairs`; bounds(k) gives the [lo, hi]
  // versions allowed for key k.
  template <typename Bounds>
  void Scan(const Model& model, uint64_t begin, size_t n, const KvPairs& pairs,
            const Bounds& bounds) {
    const uint64_t want = std::min<uint64_t>(n, model.size() - std::min(begin, model.size()));
    if (pairs.size() != want) {
      Fail("scan from " + std::to_string(begin) + " returned " + std::to_string(pairs.size()) +
           " pairs, want " + std::to_string(want));
      return;
    }
    for (size_t i = 0; i < pairs.size(); i++) {
      uint64_t k = 0;
      if (!ParseKey(pairs[i].first, &k) || k != begin + i) {
        Fail("scan from " + std::to_string(begin) + ": position " + std::to_string(i) +
             " holds key '" + pairs[i].first + "'");
        return;
      }
      const std::pair<uint32_t, uint32_t> b = bounds(k);
      Read(model, k, pairs[i].second, b.first, b.second);
    }
  }
  // (e)
  void EngineWrites(uint64_t keys_seen, uint64_t hash_seen, uint64_t keys_written,
                    uint64_t hash_written);
  // (f)
  void WalBytes(uint64_t wal_bytes, uint64_t acked_user_bytes);
  // (g)
  void Doors(uint64_t sent, uint64_t server_submitted, uint64_t responses,
             uint64_t store_completed, uint64_t expected_completed);

 private:
  uint64_t violations_ = 0;
  std::string first_;
};

// (b) + (d) A full ordered pass over the store, fed pair by pair, equals the
// model: every key once, in order, at its acknowledged version; every txn
// group (keys [4g, 4g+4) for g < txn_groups) at one tag.
class ReadbackCheck {
 public:
  ReadbackCheck(const Model& model, uint64_t txn_groups, Checker* checker)
      : model_(model), txn_groups_(txn_groups), checker_(checker) {}

  void Next(const p2kvs::Slice& key, const p2kvs::Slice& value);
  void Finish();

 private:
  const Model& model_;
  const uint64_t txn_groups_;
  Checker* const checker_;
  std::vector<uint32_t> versions_;
  bool broken_ = false;
};

// Runs every checker on a correct input and on corrupted ones; returns the
// number of cases that did not behave (0 = the checkers can fail).
int RunCheckerSelfTest();

}  // namespace perfbench

#endif  // P2KVS_PERFBENCH_CHECKS_H_
