/**
 * @file
 * Json: the one JSON value type and encoder of the tool layer.
 *
 * Every JSON byte CMTL writes comes from Json::encode(): SimScope
 * snapshots (--profile=json), the linter's --lint=json findings, the
 * BENCH_*.json files and SimServer's wire frames. The type is
 * deliberately tiny: objects keep insertion order, and numbers are
 * doubles (64-bit digests travel as hex strings). The encoder always
 * writes valid JSON: a non-finite number becomes null, an exact
 * integer below 2^53 prints as one, and any other double prints in
 * its shortest round-trip form.
 *
 * The matching decoder, jsonParse(), lives with the wire protocol
 * (server/proto.h): the server is the one reader of outside JSON.
 */

#ifndef CMTL_CORE_JSON_H
#define CMTL_CORE_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cmtl {

/** A JSON value (null / bool / number / string / array / object). */
struct Json
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    static Json boolean(bool v);
    static Json number(double v);
    static Json number(uint64_t v);
    static Json number(int v);
    static Json string(std::string v);
    static Json array();
    static Json object();

    /** Object member set (append; overwrite an existing key). */
    Json &set(const std::string &key, Json v);
    /** Array element append. */
    Json &push(Json v);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    // Typed accessors with defaults (never throw; a missing or
    // differently-typed value yields the default, and asU64 and asInt
    // also yield it for a number that is not an integer in range).
    bool asBool(bool dflt = false) const;
    double asNum(double dflt = 0.0) const;
    uint64_t asU64(uint64_t dflt = 0) const;
    int asInt(int dflt = 0) const;
    std::string asStr(const std::string &dflt = "") const;

    /** Serialize (compact, no whitespace). */
    std::string encode() const;
};

} // namespace cmtl

#endif // CMTL_CORE_JSON_H
