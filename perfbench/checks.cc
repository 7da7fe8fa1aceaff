#include "perfbench/checks.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

using p2kvs::Slice;

namespace {

constexpr size_t kKeyDigits = 12;
// "k<12 digits>.v<10 digits>." — the rest of a value is filler.
constexpr size_t kValueHeader = 1 + kKeyDigits + 2 + 10 + 1;

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool ParseDigits(const char* p, size_t n, uint64_t* out) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; i++) {
    if (p[i] < '0' || p[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(p[i] - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::string KeyOf(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(index));
  return buf;
}

bool ParseKey(const Slice& key, uint64_t* index) {
  return key.size() == 4 + kKeyDigits && std::memcmp(key.data(), "user", 4) == 0 &&
         ParseDigits(key.data() + 4, kKeyDigits, index);
}

std::string MakeValue(uint64_t key, uint32_t version, size_t size, uint64_t seed) {
  char header[kValueHeader + 1];
  std::snprintf(header, sizeof(header), "k%012llu.v%010u.", static_cast<unsigned long long>(key),
                version);
  std::string value(header, kValueHeader);
  uint64_t state = Mix(seed ^ Mix(key * 0x9e3779b97f4a7c15ull + version));
  while (value.size() < size) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    value.push_back(static_cast<char>('a' + ((state >> 33) % 26)));
  }
  value.resize(size);
  return value;
}

bool ParseValue(const Slice& value, size_t size, uint64_t seed, uint64_t* key,
                uint32_t* version) {
  if (value.size() != size || size < kValueHeader || value[0] != 'k' ||
      value[1 + kKeyDigits] != '.' || value[2 + kKeyDigits] != 'v') {
    return false;
  }
  uint64_t k = 0;
  uint64_t v = 0;
  if (!ParseDigits(value.data() + 1, kKeyDigits, &k) ||
      !ParseDigits(value.data() + 3 + kKeyDigits, 10, &v) || v > UINT32_MAX) {
    return false;
  }
  if (MakeValue(k, static_cast<uint32_t>(v), size, seed) != value.ToString()) {
    return false;
  }
  *key = k;
  *version = static_cast<uint32_t>(v);
  return true;
}

Model::Model(uint64_t num_keys, size_t value_size, uint64_t seed)
    : num_keys_(num_keys),
      value_size_(value_size),
      seed_(seed),
      issued_(new std::atomic<uint32_t>[num_keys]()),
      acked_(new std::atomic<uint32_t>[num_keys]()) {}

uint32_t Model::Issue(uint64_t key) {
  const uint32_t v = issued_[key].load(std::memory_order_relaxed) + 1;
  issued_[key].store(v, std::memory_order_relaxed);
  return v;
}

void Model::Ack(uint64_t key, uint32_t version) {
  acked_[key].store(version, std::memory_order_relaxed);
}

uint32_t Model::Issued(uint64_t key) const {
  return issued_[key].load(std::memory_order_relaxed);
}

uint32_t Model::Acked(uint64_t key) const { return acked_[key].load(std::memory_order_relaxed); }

void Checker::Fail(const std::string& what) {
  if (violations_ == 0) {
    first_ = what;
  }
  violations_++;
}

void Checker::Merge(const Checker& other) {
  if (violations_ == 0 && other.violations_ != 0) {
    first_ = other.first_;
  }
  violations_ += other.violations_;
}

void Checker::Read(const Model& model, uint64_t key, const Slice& value, uint32_t lo,
                   uint32_t hi) {
  uint64_t k = 0;
  uint32_t v = 0;
  if (!ParseValue(value, model.value_size(), model.seed(), &k, &v)) {
    Fail("key " + std::to_string(key) + ": malformed value");
  } else if (k != key) {
    Fail("key " + std::to_string(key) + ": value belongs to key " + std::to_string(k));
  } else if (v < lo || v > hi) {
    Fail("key " + std::to_string(key) + ": version " + std::to_string(v) + " outside [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

void ReadbackCheck::Next(const Slice& key, const Slice& value) {
  if (broken_) {
    return;
  }
  const uint64_t i = versions_.size();
  uint64_t k = 0;
  if (i >= model_.size() || !ParseKey(key, &k) || k != i) {
    checker_->Fail("readback position " + std::to_string(i) + " holds key '" +
                   key.ToString() + "'");
    broken_ = true;
    return;
  }
  uint64_t vk = 0;
  uint32_t version = 0;
  if (!ParseValue(value, model_.value_size(), model_.seed(), &vk, &version) || vk != i) {
    checker_->Fail("readback key " + std::to_string(i) + ": malformed value");
    broken_ = true;
    return;
  }
  versions_.push_back(version);
}

void ReadbackCheck::Finish() {
  if (broken_) {
    return;
  }
  if (versions_.size() != model_.size()) {
    checker_->Fail("readback holds " + std::to_string(versions_.size()) + " keys, want " +
                   std::to_string(model_.size()));
    return;
  }
  for (uint64_t g = 0; g < txn_groups_; g++) {
    const uint64_t k0 = 4 * g;
    for (uint64_t k = k0 + 1; k < k0 + 4; k++) {
      if (versions_[k] != versions_[k0]) {
        checker_->Fail("txn group " + std::to_string(g) + " torn: key " + std::to_string(k) +
                       " tag " + std::to_string(versions_[k]) + ", key " + std::to_string(k0) +
                       " tag " + std::to_string(versions_[k0]));
        return;
      }
    }
  }
  for (uint64_t i = 0; i < versions_.size(); i++) {
    if (versions_[i] != model_.Acked(i)) {
      checker_->Fail("readback key " + std::to_string(i) + ": version " +
                     std::to_string(versions_[i]) + ", last acknowledged " +
                     std::to_string(model_.Acked(i)));
      return;
    }
  }
}

void Checker::EngineWrites(uint64_t keys_seen, uint64_t hash_seen, uint64_t keys_written,
                           uint64_t hash_written) {
  if (keys_seen != keys_written || hash_seen != hash_written) {
    Fail("engine saw " + std::to_string(keys_seen) + " written keys, clients wrote " +
         std::to_string(keys_written) + (hash_seen != hash_written ? " (key sets differ)" : ""));
  }
}

void Checker::WalBytes(uint64_t wal_bytes, uint64_t acked_user_bytes) {
  if (wal_bytes < acked_user_bytes) {
    Fail("WAL holds " + std::to_string(wal_bytes) + " bytes, acknowledged writes carry " +
         std::to_string(acked_user_bytes));
  }
}

void Checker::Doors(uint64_t sent, uint64_t server_submitted, uint64_t responses,
                    uint64_t store_completed, uint64_t expected_completed) {
  if (sent != server_submitted || sent != responses || store_completed != expected_completed) {
    Fail("doors: sent " + std::to_string(sent) + ", server submitted " +
         std::to_string(server_submitted) + ", responses " + std::to_string(responses) +
         ", store completed " + std::to_string(store_completed) + " (want " +
         std::to_string(expected_completed) + ")");
  }
}

}  // namespace perfbench
