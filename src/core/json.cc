#include "json.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>

namespace cmtl {

Json
Json::boolean(bool v)
{
    Json j;
    j.kind = Kind::Bool;
    j.b = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.kind = Kind::Num;
    j.num = v;
    return j;
}

Json
Json::number(uint64_t v)
{
    return number(static_cast<double>(v));
}

Json
Json::number(int v)
{
    return number(static_cast<double>(v));
}

Json
Json::string(std::string v)
{
    Json j;
    j.kind = Kind::Str;
    j.str = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind = Kind::Arr;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind = Kind::Obj;
    return j;
}

Json &
Json::set(const std::string &key, Json v)
{
    kind = Kind::Obj;
    for (auto &kv : obj) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

Json &
Json::push(Json v)
{
    kind = Kind::Arr;
    arr.push_back(std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (kind != Kind::Obj)
        return nullptr;
    for (const auto &kv : obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

bool
Json::asBool(bool dflt) const
{
    return kind == Kind::Bool ? b : dflt;
}

double
Json::asNum(double dflt) const
{
    return kind == Kind::Num ? num : dflt;
}

uint64_t
Json::asU64(uint64_t dflt) const
{
    // Only an integral number in [0, 2^64) converts, as for asInt;
    // 2^64 itself is the first double the cast would overflow on.
    if (kind != Kind::Num || num != std::trunc(num) || num < 0 ||
        num >= 18446744073709551616.0)
        return dflt;
    return static_cast<uint64_t>(num);
}

int
Json::asInt(int dflt) const
{
    // Only an integral number inside int's range converts: 2.7, 1e20
    // and inf yield the default instead of truncating or overflowing.
    if (kind != Kind::Num || num != std::trunc(num) || num < INT_MIN ||
        num > INT_MAX)
        return dflt;
    return static_cast<int>(num);
}

std::string
Json::asStr(const std::string &dflt) const
{
    return kind == Kind::Str ? str : dflt;
}

namespace {

void
encodeString(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
encodeValue(const Json &j, std::string &out)
{
    switch (j.kind) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += j.b ? "true" : "false";
        break;
      case Json::Kind::Num: {
        // JSON cannot spell NaN or an infinity: they become null.
        // Exact integers below 2^53 (ids, cycles, counts) print as
        // integers; every other double prints in the shortest form
        // that parses back to the same value.
        const double v = j.num;
        char buf[32];
        if (!std::isfinite(v))
            out += "null";
        else if (v == std::trunc(v) && std::fabs(v) < 9007199254740992.0)
            out += std::to_string(static_cast<long long>(v));
        else
            out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        break;
      }
      case Json::Kind::Str:
        encodeString(j.str, out);
        break;
      case Json::Kind::Arr:
        out += '[';
        for (size_t i = 0; i < j.arr.size(); ++i) {
            if (i)
                out += ',';
            encodeValue(j.arr[i], out);
        }
        out += ']';
        break;
      case Json::Kind::Obj:
        out += '{';
        for (size_t i = 0; i < j.obj.size(); ++i) {
            if (i)
                out += ',';
            encodeString(j.obj[i].first, out);
            out += ':';
            encodeValue(j.obj[i].second, out);
        }
        out += '}';
        break;
    }
}

} // namespace

std::string
Json::encode() const
{
    std::string out;
    encodeValue(*this, out);
    return out;
}

} // namespace cmtl
