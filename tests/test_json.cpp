/**
 * @file
 * Unit tests for the JSON substrate: value model, parser (including
 * error reporting) and writer (compact/pretty, round trips, and its
 * std::to_chars number and string primitives checked against the
 * printf forms they replaced).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>

#include "common/logging.hh"
#include "json/parser.hh"
#include "json/value.hh"
#include "json/writer.hh"

namespace skipsim::json
{
namespace
{

// ------------------------------------------------------------------ value

TEST(JsonValue, DefaultIsNull)
{
    Value v;
    EXPECT_TRUE(v.isNull());
}

TEST(JsonValue, KindsAreDistinguished)
{
    EXPECT_TRUE(Value(true).isBool());
    EXPECT_TRUE(Value(1.5).isNumber());
    EXPECT_TRUE(Value("s").isString());
    EXPECT_TRUE(Value(Value::Array{}).isArray());
    EXPECT_TRUE(Value(Object{}).isObject());
}

TEST(JsonValue, IntegersPreserved)
{
    Value v(1234567890123LL);
    EXPECT_EQ(v.asInt(), 1234567890123LL);
}

TEST(JsonValue, AsIntRejectsFractions)
{
    EXPECT_THROW(Value(1.5).asInt(), FatalError);
}

TEST(JsonValue, KindMismatchThrows)
{
    EXPECT_THROW(Value(1.0).asString(), FatalError);
    EXPECT_THROW(Value("x").asDouble(), FatalError);
    EXPECT_THROW(Value(true).asArray(), FatalError);
    EXPECT_THROW(Value(nullptr).asObject(), FatalError);
}

TEST(JsonObject, SetAndGet)
{
    Object obj;
    obj.set("a", 1);
    obj.set("b", "two");
    EXPECT_TRUE(obj.has("a"));
    EXPECT_EQ(obj.at("b").asString(), "two");
    EXPECT_EQ(obj.size(), 2u);
}

TEST(JsonObject, OverwriteKeepsOrder)
{
    Object obj;
    obj.set("x", 1);
    obj.set("y", 2);
    obj.set("x", 3);
    EXPECT_EQ(obj.keys().size(), 2u);
    EXPECT_EQ(obj.keys()[0], "x");
    EXPECT_EQ(obj.at("x").asInt(), 3);
}

TEST(JsonObject, MissingKeyThrows)
{
    Object obj;
    EXPECT_THROW(obj.at("nope"), FatalError);
}

TEST(JsonObject, GetWithDefault)
{
    Object obj;
    Value def(42);
    EXPECT_EQ(obj.get("nope", def).asInt(), 42);
}

// ----------------------------------------------------------------- parser

TEST(JsonParser, ParsesScalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_DOUBLE_EQ(parse("3.25").asDouble(), 3.25);
    EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(JsonParser, ParsesNegativeAndExponent)
{
    EXPECT_DOUBLE_EQ(parse("-12").asDouble(), -12.0);
    EXPECT_DOUBLE_EQ(parse("2e3").asDouble(), 2000.0);
    EXPECT_DOUBLE_EQ(parse("1.5E-2").asDouble(), 0.015);
}

TEST(JsonParser, ParsesNestedStructures)
{
    Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
    const Object &root = v.asObject();
    const auto &arr = root.at("a").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[2].asObject().at("b").asString(), "c");
    EXPECT_EQ(root.at("d").asObject().size(), 0u);
}

TEST(JsonParser, ParsesEmptyContainers)
{
    EXPECT_EQ(parse("[]").asArray().size(), 0u);
    EXPECT_EQ(parse("{}").asObject().size(), 0u);
}

TEST(JsonParser, HandlesEscapes)
{
    EXPECT_EQ(parse(R"("a\nb\t\"q\"\\")").asString(), "a\nb\t\"q\"\\");
}

TEST(JsonParser, HandlesUnicodeEscapes)
{
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    // U+00E9 (e-acute) encodes to two UTF-8 bytes.
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(JsonParser, SkipsWhitespace)
{
    Value v = parse(" \n\t { \"k\" : 1 } \r\n");
    EXPECT_EQ(v.asObject().at("k").asInt(), 1);
}

TEST(JsonParser, TrailingGarbageThrows)
{
    EXPECT_THROW(parse("{} extra"), FatalError);
}

TEST(JsonParser, UnterminatedStringThrows)
{
    EXPECT_THROW(parse("\"abc"), FatalError);
}

TEST(JsonParser, MissingCommaThrows)
{
    EXPECT_THROW(parse("[1 2]"), FatalError);
}

TEST(JsonParser, MissingColonThrows)
{
    EXPECT_THROW(parse("{\"a\" 1}"), FatalError);
}

TEST(JsonParser, BadLiteralThrows)
{
    EXPECT_THROW(parse("tru"), FatalError);
    EXPECT_THROW(parse("nul"), FatalError);
}

TEST(JsonParser, BadNumberThrows)
{
    EXPECT_THROW(parse("1."), FatalError);
    EXPECT_THROW(parse("-"), FatalError);
    EXPECT_THROW(parse("1e"), FatalError);
}

TEST(JsonParser, ControlCharacterInStringThrows)
{
    std::string bad = "\"a\nb\"";
    EXPECT_THROW(parse(bad), FatalError);
}

TEST(JsonParser, ErrorMessageHasLineAndColumn)
{
    try {
        parse("{\n  \"a\": ?\n}");
        FAIL() << "expected parse failure";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("2:"), std::string::npos);
    }
}

TEST(JsonParser, MissingFileThrows)
{
    EXPECT_THROW(parseFile("/nonexistent/path.json"), FatalError);
}

// ----------------------------------------------------------------- writer

TEST(JsonWriter, CompactScalars)
{
    EXPECT_EQ(write(Value(nullptr)), "null");
    EXPECT_EQ(write(Value(true)), "true");
    EXPECT_EQ(write(Value(5)), "5");
    EXPECT_EQ(write(Value("x")), "\"x\"");
}

TEST(JsonWriter, IntegersWrittenWithoutDecimal)
{
    EXPECT_EQ(write(Value(1234567.0)), "1234567");
}

TEST(JsonWriter, FractionsKeepPrecision)
{
    Value v = parse(write(Value(0.1)));
    EXPECT_DOUBLE_EQ(v.asDouble(), 0.1);
}

TEST(JsonWriter, EscapesSpecialCharacters)
{
    EXPECT_EQ(write(Value("a\"b\\c\nd")), R"("a\"b\\c\nd")");
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    EXPECT_EQ(write(Value(std::numeric_limits<double>::infinity())),
              "null");
}

TEST(JsonWriter, ObjectOrderStable)
{
    Object obj;
    obj.set("z", 1);
    obj.set("a", 2);
    EXPECT_EQ(write(Value(std::move(obj))), R"({"z":1,"a":2})");
}

TEST(JsonWriter, PrettyIndents)
{
    Object obj;
    obj.set("k", Value(Value::Array{Value(1), Value(2)}));
    std::string pretty = writePretty(Value(std::move(obj)));
    EXPECT_NE(pretty.find("\n  \"k\""), std::string::npos);
}

TEST(JsonWriter, RoundTripComplexDocument)
{
    std::string text =
        R"({"events":[{"name":"k1","ts":12.5,"args":{"id":7}},)"
        R"({"name":"k2","ts":13,"args":{"id":8}}],"ok":true})";
    Value v = parse(text);
    Value v2 = parse(write(v));
    EXPECT_EQ(write(v), write(v2));
}

TEST(JsonWriter, FileRoundTrip)
{
    std::string path = testing::TempDir() + "/skipsim_json_test.json";
    Object obj;
    obj.set("answer", 42);
    writeFile(path, Value(std::move(obj)));
    Value v = parseFile(path);
    EXPECT_EQ(v.asObject().at("answer").asInt(), 42);
}

// The printf-based formatters the writer used before it moved to
// std::to_chars; the streaming exporters depend on the two agreeing
// byte for byte.
std::string
printfNumber(double d)
{
    if (!std::isfinite(d))
        return "null";
    char buf[64];
    double rounded = std::nearbyint(d);
    if (d == rounded && std::abs(d) < 9.007199254740992e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(rounded));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

std::string
printfEscaped(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out + "\"";
}

std::string
formatted(double d)
{
    std::string out;
    appendNumber(out, d);
    return out;
}

TEST(JsonWriter, AppendNumberMatchesPrintfOnEdgeCases)
{
    const double two53 = 9007199254740992.0;
    const double edges[] = {
        0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 1e-7, -1e-7,
        1e-5, 1e-4, 1e15, 1e16, 1e17, 1e21, -1e21, 1e22, 1e300,
        two53 - 1, two53, two53 + 2, -(two53 - 1), -two53,
        std::nextafter(two53, 0.0), 123456789012345678.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::min() / 3.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        1.234, 7.123, 9007199254740.993, 2500.5, 0.001,
    };
    for (double d : edges)
        EXPECT_EQ(formatted(d), printfNumber(d)) << d;
    EXPECT_EQ(formatted(-0.0), "0");
    EXPECT_EQ(formatted(1e21), "1e+21");
    EXPECT_EQ(formatted(1e-7), "9.9999999999999995e-08");
    EXPECT_EQ(formatted(two53 - 1), "9007199254740991");
    EXPECT_EQ(formatted(two53), "9007199254740992");
    EXPECT_EQ(formatted(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(formatted(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(formatted(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonWriter, AppendNumberMatchesPrintfOnRandomDoubles)
{
    std::mt19937_64 rng(0x5eed);
    std::uniform_int_distribution<std::int64_t> ns(
        -(std::int64_t{1} << 60), std::int64_t{1} << 60);
    std::uniform_int_distribution<std::int64_t> small_ns(0, 100'000'000);
    std::size_t mismatches = 0;
    std::string first_bad;
    auto check = [&](double d) {
        if (formatted(d) != printfNumber(d) && mismatches++ == 0)
            first_bad = printfNumber(d);
    };
    for (int i = 0; i < 400'000; ++i) {
        // The span exporter's numbers: ns / 1000 (ts, dur) and ns.
        const std::int64_t t = i % 2 ? ns(rng) : small_ns(rng);
        check(static_cast<double>(t) / 1000.0);
        check(static_cast<double>(t));
        // Raw bit patterns: every exponent, subnormals, NaN payloads.
        const std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        check(d);
    }
    EXPECT_EQ(mismatches, 0u) << "first printf form: " << first_bad;
}

TEST(JsonWriter, AppendStringMatchesPrintfEscaperOnEveryByte)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string one(1, static_cast<char>(b));
        std::string got;
        appendString(got, one);
        EXPECT_EQ(got, printfEscaped(one)) << "byte " << b;
        all.push_back(static_cast<char>(b));
    }
    std::string got;
    appendString(got, all + "tail" + all);
    EXPECT_EQ(got, printfEscaped(all + "tail" + all));
    got.clear();
    appendString(got, "");
    EXPECT_EQ(got, "\"\"");
}

TEST(JsonWriter, WriteToBadPathThrows)
{
    Object obj;
    EXPECT_THROW(writeFile("/nonexistent/dir/file.json",
                           Value(std::move(obj))),
                 FatalError);
}

} // namespace
} // namespace skipsim::json
