//===-- value/Value.cpp - Pure mathematical value domain ------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "value/Value.h"

#include "support/StringUtils.h"
#include "value/Intern.h"

#include <algorithm>
#include <array>
#include <functional>
#include <sstream>

using namespace commcsl;

const char *commcsl::valueKindName(ValueKind Kind) {
  switch (Kind) {
  case ValueKind::Unit:
    return "unit";
  case ValueKind::Int:
    return "int";
  case ValueKind::Bool:
    return "bool";
  case ValueKind::String:
    return "string";
  case ValueKind::Pair:
    return "pair";
  case ValueKind::Seq:
    return "seq";
  case ValueKind::Set:
    return "set";
  case ValueKind::Multiset:
    return "mset";
  case ValueKind::Map:
    return "map";
  }
  return "invalid";
}

int Value::compare(const Value &A, const Value &B) {
  if (&A == &B)
    return 0; // shared canonical objects compare equal in O(1)
  if (A.Kind != B.Kind)
    return A.Kind < B.Kind ? -1 : 1;
  switch (A.Kind) {
  case ValueKind::Unit:
    return 0;
  case ValueKind::Int:
  case ValueKind::Bool:
    if (A.IntVal != B.IntVal)
      return A.IntVal < B.IntVal ? -1 : 1;
    return 0;
  case ValueKind::String:
    return A.StrVal.compare(B.StrVal) < 0   ? -1
           : A.StrVal.compare(B.StrVal) > 0 ? 1
                                            : 0;
  case ValueKind::Pair:
  case ValueKind::Seq:
  case ValueKind::Set:
  case ValueKind::Multiset:
  case ValueKind::Map: {
    // One loop serves both element runs and alternating map-entry runs: for
    // maps it visits k0, v0, k1, v1, ..., which is exactly the entrywise
    // key-then-value order, and the slot-count tiebreak has the same sign as
    // the entry-count tiebreak (slots = 2 * entries).
    const ValueRef *SA = A.slots(), *SB = B.slots();
    size_t N = std::min(A.NumSlots, B.NumSlots);
    for (size_t I = 0; I < N; ++I) {
      int C = compare(*SA[I], *SB[I]);
      if (C != 0)
        return C;
    }
    if (A.NumSlots != B.NumSlots)
      return A.NumSlots < B.NumSlots ? -1 : 1;
    return 0;
  }
  }
  return 0;
}

void Value::computeHash() {
  size_t Seed = static_cast<size_t>(Kind) * 0x9e3779b9u;
  switch (Kind) {
  case ValueKind::Unit:
    break;
  case ValueKind::Int:
  case ValueKind::Bool:
    hashCombine(Seed, std::hash<int64_t>()(IntVal));
    break;
  case ValueKind::String:
    hashCombine(Seed, std::hash<std::string>()(StrVal));
    break;
  case ValueKind::Pair:
  case ValueKind::Seq:
  case ValueKind::Set:
  case ValueKind::Multiset:
  case ValueKind::Map: {
    // Maps hash k0, v0, k1, v1, ... — the same sequence the original
    // entrywise loop produced.
    const ValueRef *S = slots();
    for (uint32_t I = 0; I < NumSlots; ++I)
      hashCombine(Seed, S[I]->HashVal);
    break;
  }
  }
  HashVal = Seed;
}

std::string Value::str() const {
  std::ostringstream OS;
  const ValueRef *S = slots();
  switch (Kind) {
  case ValueKind::Unit:
    OS << "unit";
    break;
  case ValueKind::Int:
    OS << IntVal;
    break;
  case ValueKind::Bool:
    OS << (IntVal ? "true" : "false");
    break;
  case ValueKind::String:
    OS << '"' << StrVal << '"';
    break;
  case ValueKind::Pair:
    OS << "(" << S[0]->str() << ", " << S[1]->str() << ")";
    break;
  case ValueKind::Seq: {
    OS << "[";
    for (uint32_t I = 0; I < NumSlots; ++I)
      OS << (I ? ", " : "") << S[I]->str();
    OS << "]";
    break;
  }
  case ValueKind::Set: {
    OS << "{";
    for (uint32_t I = 0; I < NumSlots; ++I)
      OS << (I ? ", " : "") << S[I]->str();
    OS << "}";
    break;
  }
  case ValueKind::Multiset: {
    OS << "ms{";
    for (uint32_t I = 0; I < NumSlots; ++I)
      OS << (I ? ", " : "") << S[I]->str();
    OS << "}";
    break;
  }
  case ValueKind::Map: {
    OS << "map{";
    for (uint32_t I = 0; I < NumSlots; I += 2)
      OS << (I ? ", " : "") << S[I]->str() << " -> " << S[I + 1]->str();
    OS << "}";
    break;
  }
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// ValueFactory
//===----------------------------------------------------------------------===//

// Seals a freshly-staged value: fixes its structural hash and hands it to
// the interner, which either returns the existing canonical representative
// (no allocation) or materializes the staged value as the canonical object.
ValueRef ValueFactory::finish(Value &&V) {
  V.computeHash();
  return ValueInterner::global().intern(std::move(V));
}

ValueRef ValueFactory::unit() {
  static ValueRef Cached = finish(Value(ValueKind::Unit));
  return Cached;
}

namespace {
// Scalar singleton caches.  The enumeration and interpretation hot loops
// construct the same small integers and booleans millions of times; serving
// them from a one-time table skips both the interner shard lock and the
// staged construction entirely.  Like `unit()`, the cached objects are
// process-lifetime singletons and are returned regardless of the interner
// enable toggle.
// The range is sized so that typical loop counters, sequence indices, and
// running accumulators (e.g. a counter resource summing a few thousand
// small additions) stay inside it; the table costs well under a megabyte.
} // namespace

// Dynamic initialization fills the table and publishes it to the inline
// intV fast path; until then the null check in intV routes every call
// through intVSlow, which produces the same canonical (interned) values.
const ValueRef *ValueFactory::SmallIntCache = [] {
  static std::array<ValueRef, size_t(SmallIntMax - SmallIntMin + 1)> Table;
  for (int64_t K = SmallIntMin; K <= SmallIntMax; ++K) {
    Value V(ValueKind::Int);
    V.IntVal = K;
    Table[size_t(K - SmallIntMin)] = finish(std::move(V));
  }
  return Table.data();
}();

ValueRef ValueFactory::intVSlow(int64_t I) {
  Value V(ValueKind::Int);
  V.IntVal = I;
  return finish(std::move(V));
}

ValueRef ValueFactory::boolV(bool B) {
  static ValueRef CachedFalse = [] {
    Value V(ValueKind::Bool);
    V.IntVal = 0;
    return finish(std::move(V));
  }();
  static ValueRef CachedTrue = [] {
    Value V(ValueKind::Bool);
    V.IntVal = 1;
    return finish(std::move(V));
  }();
  return B ? CachedTrue : CachedFalse;
}

ValueRef ValueFactory::stringV(std::string S) {
  Value V(ValueKind::String);
  V.StrVal = std::move(S);
  return finish(std::move(V));
}

ValueRef ValueFactory::pair(ValueRef Fst, ValueRef Snd) {
  assert(Fst && Snd && "null pair component");
  Value V(ValueKind::Pair);
  V.initSlots(2);
  ValueRef *S = V.slotsMut();
  S[0] = std::move(Fst);
  S[1] = std::move(Snd);
  return finish(std::move(V));
}

ValueRef ValueFactory::seq(const ValueRef *Data, size_t N) {
  Value V(ValueKind::Seq);
  V.initSlots(uint32_t(N));
  std::copy(Data, Data + N, V.slotsMut());
  return finish(std::move(V));
}

ValueRef ValueFactory::seq(std::vector<ValueRef> Elems) {
  Value V(ValueKind::Seq);
  V.initSlots(uint32_t(Elems.size()));
  std::move(Elems.begin(), Elems.end(), V.slotsMut());
  return finish(std::move(V));
}

ValueRef ValueFactory::set(const ValueRef *Data, size_t N) {
  Value V(ValueKind::Set);
  V.initSlots(uint32_t(N));
  ValueRef *S = V.slotsMut();
  std::copy(Data, Data + N, S);
  std::sort(S, S + N, ValueRefLess());
  ValueRef *End =
      std::unique(S, S + N, [](const ValueRef &A, const ValueRef &B) {
        return Value::equal(A, B);
      });
  V.shrinkSlots(uint32_t(End - S));
  return finish(std::move(V));
}

ValueRef ValueFactory::set(std::vector<ValueRef> Elems) {
  Value V(ValueKind::Set);
  V.initSlots(uint32_t(Elems.size()));
  ValueRef *S = V.slotsMut();
  std::move(Elems.begin(), Elems.end(), S);
  std::sort(S, S + Elems.size(), ValueRefLess());
  ValueRef *End = std::unique(S, S + Elems.size(),
                              [](const ValueRef &A, const ValueRef &B) {
                                return Value::equal(A, B);
                              });
  V.shrinkSlots(uint32_t(End - S));
  return finish(std::move(V));
}

ValueRef ValueFactory::multiset(const ValueRef *Data, size_t N) {
  Value V(ValueKind::Multiset);
  V.initSlots(uint32_t(N));
  ValueRef *S = V.slotsMut();
  std::copy(Data, Data + N, S);
  std::sort(S, S + N, ValueRefLess());
  return finish(std::move(V));
}

ValueRef ValueFactory::multiset(std::vector<ValueRef> Elems) {
  Value V(ValueKind::Multiset);
  V.initSlots(uint32_t(Elems.size()));
  ValueRef *S = V.slotsMut();
  std::move(Elems.begin(), Elems.end(), S);
  std::sort(S, S + Elems.size(), ValueRefLess());
  return finish(std::move(V));
}

ValueRef
ValueFactory::map(std::vector<std::pair<ValueRef, ValueRef>> Entries) {
  // Later entries win, matching repeated map_put semantics: stable-sort by
  // key and keep the last entry of each equal-key run.
  std::stable_sort(Entries.begin(), Entries.end(),
                   [](const auto &A, const auto &B) {
                     return Value::compare(A.first, B.first) < 0;
                   });
  size_t Canon = 0; // number of surviving entries, compacted in place
  for (size_t I = 0; I < Entries.size(); ++I) {
    if (Canon != 0 &&
        Value::equal(Entries[Canon - 1].first, Entries[I].first))
      Entries[Canon - 1].second = std::move(Entries[I].second);
    else
      Entries[Canon++] = std::move(Entries[I]);
  }
  Value V(ValueKind::Map);
  V.initSlots(uint32_t(2 * Canon));
  ValueRef *S = V.slotsMut();
  for (size_t I = 0; I < Canon; ++I) {
    S[2 * I] = std::move(Entries[I].first);
    S[2 * I + 1] = std::move(Entries[I].second);
  }
  return finish(std::move(V));
}

ValueRef ValueFactory::emptySeq() {
  static ValueRef Cached = seq(nullptr, size_t(0));
  return Cached;
}

ValueRef ValueFactory::emptySet() {
  static ValueRef Cached = set(nullptr, size_t(0));
  return Cached;
}

ValueRef ValueFactory::emptyMultiset() {
  static ValueRef Cached = multiset(nullptr, size_t(0));
  return Cached;
}

ValueRef ValueFactory::emptyMap() {
  static ValueRef Cached = map({});
  return Cached;
}
