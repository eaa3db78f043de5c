//===-- service/Json.cpp - Minimal JSON parsing and rendering --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include "support/StringUtils.h" // jsonEscape

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

using namespace commcsl;

JsonValue JsonValue::boolean(bool B) {
  JsonValue V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

JsonValue JsonValue::number(double N) {
  JsonValue V;
  V.K = Kind::Number;
  V.Num = N;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  V.NumText = Buf;
  return V;
}

JsonValue JsonValue::number(uint64_t N) {
  JsonValue V;
  V.K = Kind::Number;
  V.Num = static_cast<double>(N);
  V.NumText = std::to_string(N);
  return V;
}

JsonValue JsonValue::numberFromToken(double N, std::string Token) {
  JsonValue V;
  V.K = Kind::Number;
  V.Num = N;
  V.NumText = std::move(Token);
  return V;
}

JsonValue JsonValue::string(std::string S) {
  JsonValue V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

JsonValue JsonValue::array() {
  JsonValue V;
  V.K = Kind::Array;
  return V;
}

JsonValue JsonValue::object() {
  JsonValue V;
  V.K = Kind::Object;
  return V;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  const JsonValue *Found = nullptr;
  for (const auto &[K2, V] : Obj)
    if (K2 == Key)
      Found = &V;
  return Found;
}

std::string JsonValue::getString(const std::string &Key,
                                 const std::string &Default) const {
  const JsonValue *V = find(Key);
  return V && V->K == Kind::String ? V->Str : Default;
}

bool JsonValue::getBool(const std::string &Key, bool Default) const {
  const JsonValue *V = find(Key);
  return V && V->K == Kind::Bool ? V->B : Default;
}

uint64_t JsonValue::getU64(const std::string &Key, uint64_t Default) const {
  const JsonValue *V = find(Key);
  if (!V || V->K != Kind::Number)
    return Default;
  std::optional<uint64_t> N = V->asU64();
  return N ? *N : Default;
}

std::optional<uint64_t> JsonValue::asU64() const {
  if (K != Kind::Number || NumText.empty() || NumText[0] == '-')
    return std::nullopt;
  uint64_t N = 0;
  auto [Ptr, Ec] = std::from_chars(NumText.data(),
                                   NumText.data() + NumText.size(), N);
  if (Ec != std::errc() || Ptr != NumText.data() + NumText.size())
    return std::nullopt;
  return N;
}

JsonValue &JsonValue::set(std::string Key, JsonValue V) {
  Obj.emplace_back(std::move(Key), std::move(V));
  return *this;
}

JsonValue &JsonValue::push(JsonValue V) {
  Arr.push_back(std::move(V));
  return *this;
}

JsonValue &JsonValue::setRaw(std::string Key, std::string RawJson) {
  JsonValue V;
  V.K = Kind::String;
  V.Str = std::move(RawJson);
  V.Raw = true;
  Obj.emplace_back(std::move(Key), std::move(V));
  return *this;
}

void JsonValue::dumpInto(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += B ? "true" : "false";
    break;
  case Kind::Number:
    Out += NumText;
    break;
  case Kind::String:
    if (Raw) {
      Out += Str;
    } else {
      Out += '"';
      Out += jsonEscape(Str);
      Out += '"';
    }
    break;
  case Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &V : Arr) {
      if (!First)
        Out += ',';
      First = false;
      V.dumpInto(Out);
    }
    Out += ']';
    break;
  }
  case Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, V] : Obj) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += jsonEscape(Key);
      Out += "\":";
      V.dumpInto(Out);
    }
    Out += '}';
    break;
  }
  }
}

std::string JsonValue::dump() const {
  std::string Out;
  dumpInto(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Error;

  explicit Parser(const std::string &Text) : Text(Text) {}

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  /// Appends \p Code as UTF-8.
  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("bad \\u escape digit");
    }
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= Text.size())
          return fail("truncated escape");
        char E = Text[Pos++];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out += E;
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          unsigned Code = 0;
          if (!parseHex4(Code))
            return false;
          // Surrogate pair: combine \uD800-\uDBFF with a following low
          // surrogate into one code point.
          if (Code >= 0xD800 && Code <= 0xDBFF &&
              Text.compare(Pos, 2, "\\u") == 0) {
            size_t Save = Pos;
            Pos += 2;
            unsigned Low = 0;
            if (!parseHex4(Low))
              return false;
            if (Low >= 0xDC00 && Low <= 0xDFFF)
              Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
            else
              Pos = Save; // lone surrogate; keep it as-is
          }
          appendUtf8(Out, Code);
          break;
        }
        default:
          return fail("unknown escape");
        }
      } else {
        Out += C;
      }
    }
    return fail("unterminated string");
  }

  /// Parses a value inside \p Depth open arrays and objects.
  bool parseValue(JsonValue &Out, unsigned Depth);

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    std::string Token = Text.substr(Start, Pos - Start);
    if (Token.empty() || Token == "-")
      return fail("bad number");
    char *End = nullptr;
    double D = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size())
      return fail("bad number");
    // Keep the exact source token so 64-bit integers round-trip.
    Out = JsonValue::numberFromToken(D, std::move(Token));
    return true;
  }
};

bool Parser::parseValue(JsonValue &Out, unsigned Depth) {
  skipWs();
  if (Pos >= Text.size())
    return fail("unexpected end of input");
  char C = Text[Pos];
  if ((C == '{' || C == '[') && Depth == JsonValue::MaxNesting)
    return fail("nesting exceeds the limit of " +
                std::to_string(JsonValue::MaxNesting) + " levels");
  if (C == '{') {
    ++Pos;
    Out = JsonValue::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return false;
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.set(std::move(Key), std::move(V));
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}');
    }
  }
  if (C == '[') {
    ++Pos;
    Out = JsonValue::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.push(std::move(V));
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']');
    }
  }
  if (C == '"') {
    std::string S;
    if (!parseString(S))
      return false;
    Out = JsonValue::string(std::move(S));
    return true;
  }
  if (C == 't') {
    if (!literal("true"))
      return false;
    Out = JsonValue::boolean(true);
    return true;
  }
  if (C == 'f') {
    if (!literal("false"))
      return false;
    Out = JsonValue::boolean(false);
    return true;
  }
  if (C == 'n') {
    if (!literal("null"))
      return false;
    Out = JsonValue::null();
    return true;
  }
  return parseNumber(Out);
}

} // namespace

std::optional<JsonValue> JsonValue::parse(const std::string &Text,
                                          std::string *Error) {
  Parser P(Text);
  JsonValue V;
  if (!P.parseValue(V, 0)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = "trailing characters at offset " + std::to_string(P.Pos);
    return std::nullopt;
  }
  return V;
}
