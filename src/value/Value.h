//===-- value/Value.h - Pure mathematical value domain ----------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure mathematical value domain over which resource specifications are
/// defined (Sec. 2.4 / 3.2 of the paper). Resource specifications map heap
/// data structures to values of this domain via separation-logic predicates;
/// abstraction functions and action functions are total functions on it.
///
/// Values are immutable and shared via `ValueRef`. Sets are kept as sorted
/// unique element runs, multisets as sorted runs, and maps as key-sorted
/// entry runs, so structural equality coincides with mathematical equality
/// and hashing/printing are canonical.
///
/// Representation: a `Value` is a flat tagged union.  Scalar payloads live
/// in dedicated fields; collection children live in a single run of
/// `ValueRef` slots that is stored *inline* (up to `NumInlineSlots`) and
/// spills to one heap array only for wide collections.  Map entries are the
/// alternating run [k0, v0, k1, v1, ...].  This removes a `std::vector`
/// allocation (two for maps) and a cache-missing indirection per value
/// compared to the original vector-of-children layout; the enumeration and
/// interpretation hot paths construct and compare millions of small values,
/// so the children are now on the same cache line as the tag and hash.
/// `elems()` / `mapEntries()` return lightweight views over the slot run
/// that still convert implicitly to the old vector types where needed.
///
/// Construction is hash-consed through the global `ValueInterner` (see
/// value/Intern.h): while interning is enabled (the default), structurally
/// equal values share one canonical `Value` object, so `Value::equal` and
/// `ValueRefHash` are O(1) pointer/word operations. The structural hash is
/// computed once at construction and stored.  Values are staged on the
/// stack and only materialized on the heap on an interner miss, so a
/// hash-cons hit performs no allocation at all.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_VALUE_VALUE_H
#define COMMCSL_VALUE_VALUE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace commcsl {

class Value;

/// Shared immutable reference to a Value.
using ValueRef = std::shared_ptr<const Value>;

/// Discriminator for the value domain.
enum class ValueKind : uint8_t {
  Unit,
  Int,
  Bool,
  String,
  Pair,     ///< ordered pair <fst, snd>
  Seq,      ///< finite sequence
  Set,      ///< finite set (canonical: sorted, unique)
  Multiset, ///< finite multiset (canonical: sorted)
  Map,      ///< finite partial map (canonical: key-sorted entries)
};

/// Returns a printable name for \p Kind ("int", "seq", ...).
const char *valueKindName(ValueKind Kind);

/// Contiguous view over the element run of a Pair/Seq/Set/Multiset.
/// Converts implicitly to `std::vector<ValueRef>` so legacy call sites that
/// want an owned copy keep working.
class ValueElems {
public:
  using value_type = ValueRef;
  using const_iterator = const ValueRef *;
  using iterator = const_iterator;

  ValueElems(const ValueRef *Data, size_t N) : Data(Data), N(N) {}

  const ValueRef *begin() const { return Data; }
  const ValueRef *end() const { return Data + N; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  const ValueRef &operator[](size_t I) const { return Data[I]; }
  const ValueRef &front() const { return Data[0]; }
  const ValueRef &back() const { return Data[N - 1]; }

  operator std::vector<ValueRef>() const {
    return std::vector<ValueRef>(Data, Data + N);
  }

private:
  const ValueRef *Data;
  size_t N;
};

/// Random-access view over a Map's alternating [k, v, k, v, ...] slot run,
/// presenting it as a range of key/value pairs.  Iterators dereference to a
/// pair of references (no materialized std::pair storage), which supports
/// the same `It->first` / `Entry.second` idioms as the old entry vector.
class ValueMapEntries {
public:
  class iterator {
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = std::pair<ValueRef, ValueRef>;
    using difference_type = ptrdiff_t;
    using reference = std::pair<const ValueRef &, const ValueRef &>;
    struct pointer {
      reference Ref;
      const reference *operator->() const { return &Ref; }
    };

    iterator() : P(nullptr) {}
    explicit iterator(const ValueRef *P) : P(P) {}

    reference operator*() const { return {P[0], P[1]}; }
    pointer operator->() const { return pointer{{P[0], P[1]}}; }
    reference operator[](difference_type I) const {
      return {P[2 * I], P[2 * I + 1]};
    }

    iterator &operator++() { P += 2; return *this; }
    iterator operator++(int) { iterator T = *this; P += 2; return T; }
    iterator &operator--() { P -= 2; return *this; }
    iterator operator--(int) { iterator T = *this; P -= 2; return T; }
    iterator &operator+=(difference_type I) { P += 2 * I; return *this; }
    iterator &operator-=(difference_type I) { P -= 2 * I; return *this; }
    iterator operator+(difference_type I) const { return iterator(P + 2 * I); }
    iterator operator-(difference_type I) const { return iterator(P - 2 * I); }
    difference_type operator-(const iterator &O) const {
      return (P - O.P) / 2;
    }
    friend iterator operator+(difference_type I, const iterator &It) {
      return It + I;
    }

    bool operator==(const iterator &O) const { return P == O.P; }
    bool operator!=(const iterator &O) const { return P != O.P; }
    bool operator<(const iterator &O) const { return P < O.P; }
    bool operator>(const iterator &O) const { return P > O.P; }
    bool operator<=(const iterator &O) const { return P <= O.P; }
    bool operator>=(const iterator &O) const { return P >= O.P; }

  private:
    const ValueRef *P;
  };
  using const_iterator = iterator;

  /// \p Slots is the alternating k/v run; \p NumSlots its slot (not entry)
  /// count.
  ValueMapEntries(const ValueRef *Slots, size_t NumSlots)
      : Slots(Slots), NumSlots(NumSlots) {}

  iterator begin() const { return iterator(Slots); }
  iterator end() const { return iterator(Slots + NumSlots); }
  size_t size() const { return NumSlots / 2; }
  bool empty() const { return NumSlots == 0; }
  iterator::reference operator[](size_t I) const {
    return {Slots[2 * I], Slots[2 * I + 1]};
  }

  operator std::vector<std::pair<ValueRef, ValueRef>>() const {
    std::vector<std::pair<ValueRef, ValueRef>> Out;
    Out.reserve(size());
    for (size_t I = 0; I < NumSlots; I += 2)
      Out.emplace_back(Slots[I], Slots[I + 1]);
    return Out;
  }

private:
  const ValueRef *Slots;
  size_t NumSlots;
};

/// An immutable mathematical value. Construct through the factory functions
/// below; they maintain the canonical-form invariants for collections.
class Value {
public:
  /// Collections with at most this many slots (map entries count two) are
  /// stored inline with no separate child allocation.  Six slots cover
  /// pairs, the bounded-enumeration scopes in the examples, and 3-entry
  /// maps while keeping sizeof(Value) near one cache line pair.
  static constexpr uint32_t NumInlineSlots = 6;

  ValueKind kind() const { return Kind; }

  bool isInt() const { return Kind == ValueKind::Int; }
  bool isBool() const { return Kind == ValueKind::Bool; }

  /// Integer payload; only valid for Int values.
  int64_t getInt() const {
    assert(Kind == ValueKind::Int && "not an int");
    return IntVal;
  }

  /// Boolean payload; only valid for Bool values.
  bool getBool() const {
    assert(Kind == ValueKind::Bool && "not a bool");
    return IntVal != 0;
  }

  /// String payload; only valid for String values.
  const std::string &getString() const {
    assert(Kind == ValueKind::String && "not a string");
    return StrVal;
  }

  /// Elements of a Pair (size 2), Seq, Set or Multiset.
  ValueElems elems() const {
    assert((Kind == ValueKind::Pair || Kind == ValueKind::Seq ||
            Kind == ValueKind::Set || Kind == ValueKind::Multiset) &&
           "no element payload");
    return ValueElems(slots(), NumSlots);
  }

  /// Entries of a Map, sorted by key.
  ValueMapEntries mapEntries() const {
    assert(Kind == ValueKind::Map && "not a map");
    return ValueMapEntries(slots(), NumSlots);
  }

  /// Total order over all values: first by kind, then by payload. This is the
  /// order used to canonicalize sets/multisets/maps.
  static int compare(const Value &A, const Value &B);
  static int compare(const ValueRef &A, const ValueRef &B) {
    return compare(*A, *B);
  }

  /// Structural equality. Fast paths: identical pointers are equal; values
  /// with different stored hashes are unequal; two *interned* values with
  /// different pointers are unequal (the interner guarantees that live
  /// structurally-equal interned values share one object).
  static bool equal(const ValueRef &A, const ValueRef &B) {
    const Value *PA = A.get(), *PB = B.get();
    if (PA == PB)
      return true;
    if (PA->HashVal != PB->HashVal)
      return false;
    if (PA->Interned && PB->Interned)
      return false;
    return compare(*PA, *PB) == 0;
  }

  /// Structural hash consistent with `equal`; computed once at construction.
  size_t hash() const { return HashVal; }

  /// Whether this value is the canonical interned representative.
  bool isInterned() const { return Interned; }

  /// Canonical textual rendering, e.g. `ms{1, 1, 2}` or `map{1 -> 2}`.
  std::string str() const;

  /// Public so staged stack values can be materialized by the interner via
  /// std::allocate_shared; not meant for general use (copying is deleted,
  /// Values are immutable once published).
  Value(Value &&O) noexcept
      : Kind(O.Kind), Interned(O.Interned), NumSlots(O.NumSlots),
        IntVal(O.IntVal), HashVal(O.HashVal), StrVal(std::move(O.StrVal)),
        HeapSlots(O.HeapSlots) {
    if (!HeapSlots)
      for (uint32_t I = 0; I < NumSlots; ++I)
        InlineSlots[I] = std::move(O.InlineSlots[I]);
    O.HeapSlots = nullptr;
    O.NumSlots = 0;
  }

  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  Value &operator=(Value &&) = delete;

  ~Value() { delete[] HeapSlots; }

private:
  friend class ValueFactory;
  friend class ValueInterner;

  explicit Value(ValueKind Kind) : Kind(Kind) {}

  /// The element/entry slot run, inline or spilled.
  const ValueRef *slots() const { return HeapSlots ? HeapSlots : InlineSlots; }
  ValueRef *slotsMut() { return HeapSlots ? HeapSlots : InlineSlots; }

  /// Sizes the slot run to \p N default-constructed slots.  Called once per
  /// value, before the payload is filled in.
  void initSlots(uint32_t N) {
    assert(NumSlots == 0 && !HeapSlots && "slots already initialized");
    if (N > NumInlineSlots)
      HeapSlots = new ValueRef[N];
    NumSlots = N;
  }

  /// Logically shrinks the slot run after canonicalization dropped
  /// duplicates; the now-unused tail slots are cleared so they pin nothing.
  void shrinkSlots(uint32_t N) {
    assert(N <= NumSlots && "shrink cannot grow");
    ValueRef *S = slotsMut();
    for (uint32_t I = N; I < NumSlots; ++I)
      S[I] = nullptr;
    NumSlots = N;
  }

  /// Computes and stores the structural hash from the payload (using the
  /// children's already-stored hashes). Called once, after the payload is
  /// final and before the value is published.
  void computeHash();

  ValueKind Kind;
  bool Interned = false; ///< set by the interner on the canonical object
  uint32_t NumSlots = 0; ///< slot count (map entries occupy two slots)
  int64_t IntVal = 0;    ///< Int payload; Bool payload (0/1).
  size_t HashVal = 0;    ///< structural hash, fixed at construction
  std::string StrVal;
  ValueRef *HeapSlots = nullptr; ///< spill array iff NumSlots > NumInlineSlots
  ValueRef InlineSlots[NumInlineSlots];
};

/// Factory namespace-like helper building canonical values. All collection
/// constructors canonicalize their input (sorting sets/multisets, sorting
/// and de-duplicating map entries by key with later entries winning).
class ValueFactory {
public:
  static ValueRef unit();
  /// Small integers (loop counters, accumulators, sequence elements) are
  /// served inline from a pre-interned cache: one bounds check plus a
  /// refcount bump, no call. The null check covers early static
  /// initialization in other translation units (the slow path interns and
  /// yields the same canonical value, so order does not matter).
  static ValueRef intV(int64_t V) {
    const ValueRef *C = SmallIntCache;
    if (C && V >= SmallIntMin && V <= SmallIntMax)
      return C[V - SmallIntMin];
    return intVSlow(V);
  }
  static ValueRef boolV(bool V);
  static ValueRef stringV(std::string V);
  static ValueRef pair(ValueRef Fst, ValueRef Snd);
  static ValueRef seq(std::vector<ValueRef> Elems);
  static ValueRef set(std::vector<ValueRef> Elems);
  static ValueRef multiset(std::vector<ValueRef> Elems);
  static ValueRef map(std::vector<std::pair<ValueRef, ValueRef>> Entries);

  /// Span-style constructors for hot paths: build directly from a borrowed
  /// run of refs with no intermediate vector.
  static ValueRef seq(const ValueRef *Data, size_t N);
  static ValueRef set(const ValueRef *Data, size_t N);
  static ValueRef multiset(const ValueRef *Data, size_t N);

  /// View conveniences so e.g. `seq(V->elems())` skips the vector copy.
  static ValueRef seq(ValueElems E) { return seq(E.begin(), E.size()); }
  static ValueRef set(ValueElems E) { return set(E.begin(), E.size()); }
  static ValueRef multiset(ValueElems E) {
    return multiset(E.begin(), E.size());
  }

  static ValueRef emptySeq();
  static ValueRef emptySet();
  static ValueRef emptyMultiset();
  static ValueRef emptyMap();

private:
  /// Fixes the structural hash of the staged value \p V and hash-conses it
  /// through the global interner (which materializes it only on a miss).
  static ValueRef finish(Value &&V);

  /// Out-of-line intV: interns the integer (cache miss or pre-init call).
  static ValueRef intVSlow(int64_t V);

  static constexpr int64_t SmallIntMin = -8192;
  static constexpr int64_t SmallIntMax = 8192;
  /// Points at the pre-interned [SmallIntMin, SmallIntMax] cache once
  /// Value.cpp's dynamic initialization has run; null before that.
  static const ValueRef *SmallIntCache;
};

/// Ordering functor for ValueRef, for use in std::map / sort.
struct ValueRefLess {
  bool operator()(const ValueRef &A, const ValueRef &B) const {
    return Value::compare(A, B) < 0;
  }
};

/// Hash functor for ValueRef, for use in unordered containers.
struct ValueRefHash {
  size_t operator()(const ValueRef &V) const { return V->hash(); }
};

/// Equality functor for ValueRef.
struct ValueRefEq {
  bool operator()(const ValueRef &A, const ValueRef &B) const {
    return Value::equal(A, B);
  }
};

} // namespace commcsl

#endif // COMMCSL_VALUE_VALUE_H
