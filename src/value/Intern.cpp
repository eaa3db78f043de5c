//===-- value/Intern.cpp - Hash-consed value interning ---------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "value/Intern.h"

#include <algorithm>

using namespace commcsl;

std::atomic<bool> ValueInterner::Enabled{true};

ValueInterner &ValueInterner::global() {
  // Leaked on purpose: values may be destroyed during static teardown, and
  // destruction never touches the table (entries are weak and swept
  // lazily), but keeping the interner alive avoids any ordering questions
  // for values interned from other static objects.
  static ValueInterner *I = new ValueInterner();
  return *I;
}

ValueRef ValueInterner::intern(Value &&Staged) {
  if (!enabled())
    return std::make_shared<Value>(std::move(Staged));

  size_t H = Staged.hash();
  Shard &S = Shards[H & (NumShards - 1)];
  std::lock_guard<std::mutex> Lock(S.Mu);

  auto Range = S.Table.equal_range(H);
  for (auto It = Range.first; It != Range.second;) {
    if (ValueRef Existing = It->second.lock()) {
      if (Value::compare(*Existing, Staged) == 0) {
        ++S.Hits;
        return Existing;
      }
      ++It;
    } else {
      // Expired slot in this bucket; reclaim it opportunistically.
      It = S.Table.erase(It);
      ++S.Purged;
    }
  }

  ++S.Misses;
  std::shared_ptr<Value> Fresh = std::make_shared<Value>(std::move(Staged));
  Fresh->Interned = true;
  ValueRef Ref = std::move(Fresh);
  S.Table.emplace(H, Ref);

  if (S.Table.size() >= S.PurgeAt) {
    for (auto It = S.Table.begin(); It != S.Table.end();) {
      if (It->second.expired()) {
        It = S.Table.erase(It);
        ++S.Purged;
      } else {
        ++It;
      }
    }
    S.PurgeAt = std::max<size_t>(1024, 2 * S.Table.size());
  }
  return Ref;
}

ValueInterner::Stats ValueInterner::stats() const {
  Stats Total;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Total.Hits += S.Hits;
    Total.Misses += S.Misses;
    Total.Purged += S.Purged;
    Total.Live += S.Table.size();
  }
  return Total;
}
