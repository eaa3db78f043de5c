//===-- tests/service/JsonTest.cpp - Protocol JSON unit tests --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve protocol's JSON layer: parse/render round trips, escape
/// handling, 64-bit integer fidelity, and error reporting. The daemon's
/// wire behavior is only as trustworthy as this parser.
///
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include <gtest/gtest.h>

using namespace commcsl;

TEST(JsonTest, ParsesScalars) {
  EXPECT_EQ(JsonValue::parse("null")->kind(), JsonValue::Kind::Null);
  EXPECT_TRUE(JsonValue::parse("true")->asBool());
  EXPECT_FALSE(JsonValue::parse("false")->asBool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e1")->asDouble(), -25.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"")->asString(), "hi");
}

TEST(JsonTest, ObjectLookupAndTypedAccessors) {
  auto V = JsonValue::parse(
      R"({"verb":"verify","jobs":3,"triage":true,"name":"a.hv"})");
  ASSERT_TRUE(V && V->isObject());
  EXPECT_EQ(V->getString("verb"), "verify");
  EXPECT_EQ(V->getU64("jobs"), 3u);
  EXPECT_TRUE(V->getBool("triage"));
  EXPECT_EQ(V->getString("missing", "dflt"), "dflt");
  EXPECT_EQ(V->getU64("missing", 7), 7u);
  // Wrong-typed members fall back to the default instead of garbage.
  EXPECT_EQ(V->getU64("verb", 9), 9u);
  EXPECT_EQ(V->getString("jobs", "x"), "x");
  EXPECT_EQ(V->find("nope"), nullptr);
}

TEST(JsonTest, U64RoundTripsExactly) {
  // Values above 2^53 lose precision through a double; the token-preserving
  // path must still return them exactly (fuzz seeds are u64).
  const uint64_t Big = 0xFFFFFFFFFFFFFFFFULL;
  auto V = JsonValue::parse("{\"seed\":18446744073709551615}");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->getU64("seed"), Big);

  JsonValue Out = JsonValue::object();
  Out.set("seed", JsonValue::number(Big));
  auto Back = JsonValue::parse(Out.dump());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->getU64("seed"), Big);
}

TEST(JsonTest, StringEscapesRoundTrip) {
  // The payload the daemon actually ships: multi-line reports with quotes,
  // backslashes, tabs, and control characters.
  const std::string Report =
      "a.hv: REJECTED\n  \"quoted\"\tback\\slash\r\x01end";
  JsonValue Out = JsonValue::object();
  Out.set("report", JsonValue::string(Report));
  const std::string Line = Out.dump();
  // ndjson invariant: rendering never emits a raw newline.
  EXPECT_EQ(Line.find('\n'), std::string::npos);
  auto Back = JsonValue::parse(Line);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->getString("report"), Report);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto V = JsonValue::parse(R"({"s":"é中"})");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->getString("s"), "\xC3\xA9\xE4\xB8\xAD");
  // Surrogate pair: U+1F600.
  auto P = JsonValue::parse(R"("😀")");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->asString(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, NestedStructuresRoundTrip) {
  const std::string Text =
      R"({"a":[1,2,{"b":null}],"c":{"d":[true,false],"e":""}})";
  auto V = JsonValue::parse(Text);
  ASSERT_TRUE(V);
  EXPECT_EQ(V->dump(), Text); // insertion order and compactness preserved
  EXPECT_EQ(V->find("a")->items().size(), 3u);
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(JsonValue::parse("", &Err));
  EXPECT_FALSE(JsonValue::parse("{", &Err));
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", &Err));
  EXPECT_FALSE(JsonValue::parse("[1,]", &Err));
  EXPECT_FALSE(JsonValue::parse("\"unterminated", &Err));
  EXPECT_FALSE(JsonValue::parse("nul", &Err));
  EXPECT_FALSE(JsonValue::parse("{} trailing", &Err));
  EXPECT_FALSE(Err.empty()); // errors carry a description
}

TEST(JsonTest, NestingIsBounded) {
  const unsigned Max = JsonValue::MaxNesting;
  auto Nest = [](unsigned N, char Open, char Close, const char *Inner) {
    std::string S;
    for (unsigned I = 0; I < N; ++I)
      S += Open + std::string(Open == '{' ? "\"k\":" : "");
    S += Inner;
    return S + std::string(N, Close);
  };
  // Siblings do not add depth; only open containers count.
  EXPECT_TRUE(JsonValue::parse(Nest(Max, '[', ']', "1") + ""));
  EXPECT_TRUE(JsonValue::parse("[" + Nest(Max - 1, '[', ']', "") + "," +
                               Nest(Max - 1, '{', '}', "null") + "]"));
  for (unsigned Over : {Max + 1, 100000u}) {
    std::string Err;
    EXPECT_FALSE(JsonValue::parse(Nest(Over, '[', ']', ""), &Err));
    EXPECT_EQ(Err, "nesting exceeds the limit of " + std::to_string(Max) +
                       " levels at offset " + std::to_string(Max));
    EXPECT_FALSE(JsonValue::parse(Nest(Over, '{', '}', "1"), &Err));
  }
}

TEST(JsonTest, DuplicateKeysLastWins) {
  auto V = JsonValue::parse(R"({"k":1,"k":2})");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->getU64("k"), 2u);
}

TEST(JsonTest, SetRawSplicesVerbatim) {
  JsonValue O = JsonValue::object();
  O.set("ok", JsonValue::boolean(true));
  O.setRaw("metrics", R"({"counts":{"x":1}})");
  auto Back = JsonValue::parse(O.dump());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->find("metrics")->find("counts")->getU64("x"), 1u);
}
