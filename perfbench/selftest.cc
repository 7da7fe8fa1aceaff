// Self-test of the checkers: each must accept a correct result and report a
// corrupted one (wrong value, scan missing or repeating a key, torn txn
// group, door count off by one, ...).

#include <cstdio>
#include <functional>

#include "perfbench/checks.h"

namespace perfbench {

namespace {

struct Case {
  const char* name;
  bool want_ok;
  std::function<void(Checker*)> run;
};

}  // namespace

int RunCheckerSelfTest() {
  constexpr uint64_t kKeys = 40;
  constexpr size_t kValueSize = 64;
  Model model(kKeys, kValueSize, /*seed=*/7);
  // Every key at version 2; the first two txn groups (keys 0..7) were
  // written together.
  for (uint64_t k = 0; k < kKeys; k++) {
    model.Issue(k);
    model.Ack(k, model.Issue(k));
  }
  auto readback = [&model]() {
    KvPairs all;
    for (uint64_t k = 0; k < kKeys; k++) {
      all.emplace_back(KeyOf(k), model.Value(k, model.Acked(k)));
    }
    return all;
  };
  auto scan = [&](uint64_t begin, size_t n) {
    KvPairs out;
    for (uint64_t k = begin; k < kKeys && out.size() < n; k++) {
      out.emplace_back(KeyOf(k), model.Value(k, 2));
    }
    return out;
  };
  auto check_readback = [&model](Checker* c, const KvPairs& all) {
    ReadbackCheck rb(model, /*txn_groups=*/2, c);
    for (const auto& [k, v] : all) {
      rb.Next(k, v);
    }
    rb.Finish();
  };
  auto exact = [&model](uint64_t k) { return std::make_pair(model.Acked(k), model.Acked(k)); };

  const std::vector<Case> cases = {
      {"read: latest version", true,
       [&](Checker* c) { c->Read(model, 3, model.Value(3, 2), 2, 2); }},
      {"read: one byte wrong", false,
       [&](Checker* c) {
         std::string v = model.Value(3, 2);
         v[40] = v[40] == 'a' ? 'b' : 'a';
         c->Read(model, 3, v, 2, 2);
       }},
      {"read: another key's value", false,
       [&](Checker* c) { c->Read(model, 3, model.Value(4, 2), 2, 2); }},
      {"read: stale version", false,
       [&](Checker* c) { c->Read(model, 3, model.Value(3, 1), 2, 2); }},
      {"read: version never written", false,
       [&](Checker* c) { c->Read(model, 3, model.Value(3, 3), 0, 2); }},
      {"read: truncated value", false,
       [&](Checker* c) { c->Read(model, 3, model.Value(3, 2).substr(0, 30), 2, 2); }},
      {"scan: exact", true, [&](Checker* c) { c->Scan(model, 5, 10, scan(5, 10), exact); }},
      {"scan: short at the end", true,
       [&](Checker* c) { c->Scan(model, 35, 10, scan(35, 10), exact); }},
      {"scan: missing key", false,
       [&](Checker* c) {
         KvPairs p = scan(5, 11);
         p.erase(p.begin() + 4);
         c->Scan(model, 5, 10, p, exact);
       }},
      {"scan: repeated key", false,
       [&](Checker* c) {
         KvPairs p = scan(5, 10);
         p[4] = p[3];
         c->Scan(model, 5, 10, p, exact);
       }},
      {"scan: one pair too few", false,
       [&](Checker* c) {
         KvPairs p = scan(5, 10);
         p.pop_back();
         c->Scan(model, 5, 10, p, exact);
       }},
      {"scan: one pair too many", false,
       [&](Checker* c) { c->Scan(model, 5, 10, scan(5, 11), exact); }},
      {"scan: wrong value", false,
       [&](Checker* c) {
         KvPairs p = scan(5, 10);
         p[2].second = model.Value(7, 1);
         c->Scan(model, 5, 10, p, exact);
       }},
      {"readback: exact", true, [&](Checker* c) { check_readback(c, readback()); }},
      {"readback: missing key", false,
       [&](Checker* c) {
         KvPairs all = readback();
         all.erase(all.begin() + 20);
         check_readback(c, all);
       }},
      {"readback: extra key", false,
       [&](Checker* c) {
         KvPairs all = readback();
         all.emplace_back(KeyOf(kKeys), model.Value(kKeys, 0));
         check_readback(c, all);
       }},
      {"readback: lost update", false,
       [&](Checker* c) {
         KvPairs all = readback();
         all[20].second = model.Value(20, 1);
         check_readback(c, all);
       }},
      {"readback: torn txn group", false,
       [&](Checker* c) {
         KvPairs all = readback();
         all[6].second = model.Value(6, 1);
         check_readback(c, all);
       }},
      {"engine writes: equal", true, [](Checker* c) { c->EngineWrites(10, 77, 10, 77); }},
      {"engine writes: one key missing", false,
       [](Checker* c) { c->EngineWrites(9, 77, 10, 77); }},
      {"engine writes: other keys", false, [](Checker* c) { c->EngineWrites(10, 78, 10, 77); }},
      {"wal bytes: enough", true, [](Checker* c) { c->WalBytes(1000, 1000); }},
      {"wal bytes: one short", false, [](Checker* c) { c->WalBytes(999, 1000); }},
      {"doors: equal", true, [](Checker* c) { c->Doors(5, 5, 5, 9, 9); }},
      {"doors: server submitted off by one", false, [](Checker* c) { c->Doors(5, 4, 5, 9, 9); }},
      {"doors: responses off by one", false, [](Checker* c) { c->Doors(5, 5, 6, 9, 9); }},
      {"doors: completed off by one", false, [](Checker* c) { c->Doors(5, 5, 5, 8, 9); }},
  };

  int bad = 0;
  for (const Case& tc : cases) {
    Checker checker;
    tc.run(&checker);
    const bool pass = checker.ok() == tc.want_ok;
    std::printf("%-40s %s%s%s\n", tc.name, pass ? "ok" : "WRONG",
                checker.ok() ? "" : "  -- reported: ", checker.ok() ? "" : checker.first().c_str());
    bad += pass ? 0 : 1;
  }
  std::printf("checker self-test: %zu cases, %d wrong\n", cases.size(), bad);
  return bad;
}

}  // namespace perfbench
