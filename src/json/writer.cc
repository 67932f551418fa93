#include "json/writer.hh"

#include <charconv>
#include <cmath>
#include <fstream>

#include "common/logging.hh"

namespace skipsim::json
{

void
appendString(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
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
                out += "\\u00";
                out.push_back(kHex[c >> 4]);
                out.push_back(kHex[c & 0xf]);
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        // JSON has no NaN/Inf; emit null, matching common tooling.
        out += "null";
        return;
    }
    // Longest form: "-2.2250738585072014e-308" (24 bytes).
    char buf[32];
    std::to_chars_result res;
    double rounded = std::nearbyint(d);
    if (d == rounded && std::abs(d) < 9.007199254740992e15) {
        res = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(rounded));
    } else {
        // Specified to print as printf("%.17g") does: scientific
        // only for exponents < -4 or >= 17, trailing zeros stripped.
        res = std::to_chars(buf, buf + sizeof(buf), d,
                            std::chars_format::general, 17);
    }
    out.append(buf, res.ptr);
}

namespace
{

void
writeValue(std::string &out, const Value &v, int indent, int depth)
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };

    switch (v.kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, v.asDouble());
        break;
      case Kind::String:
        appendString(out, v.asString());
        break;
      case Kind::Array: {
        const auto &arr = v.asArray();
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            newline(depth + 1);
            writeValue(out, arr[i], indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      }
      case Kind::Object: {
        const auto &obj = v.asObject();
        if (obj.size() == 0) {
            out += "{}";
            break;
        }
        out.push_back('{');
        bool first = true;
        for (const auto &key : obj.keys()) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            appendString(out, key);
            out.push_back(':');
            if (indent >= 0)
                out.push_back(' ');
            writeValue(out, obj.at(key), indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
}

} // namespace

std::string
write(const Value &value)
{
    std::string out;
    writeValue(out, value, -1, 0);
    return out;
}

std::string
writePretty(const Value &value)
{
    std::string out;
    writeValue(out, value, 2, 0);
    return out;
}

void
writeFile(const std::string &path, const Value &value, bool pretty)
{
    writeTextFile(path, pretty ? writePretty(value) : write(value));
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("json: cannot open file '" + path + "' for writing");
    out << text;
    if (!out)
        fatal("json: write to '" + path + "' failed");
}

} // namespace skipsim::json
