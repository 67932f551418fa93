/**
 * @file
 * JSON serialization for json::Value documents: compact or pretty
 * (2-space indented) forms, with stable object member order.
 */

#ifndef SKIPSIM_JSON_WRITER_HH
#define SKIPSIM_JSON_WRITER_HH

#include <string>

#include "json/value.hh"

namespace skipsim::json
{

/**
 * @name Formatting primitives
 * The writer's own scalar formatters, shared with streaming exporters
 * (obs::SpanLog) so hand-written JSON text stays byte-identical to
 * write() of the equivalent document.
 * @{
 */
/** Append @p s as a quoted, escaped JSON string. */
void appendString(std::string &out, const std::string &s);

/**
 * Append @p d as a JSON number: integral values below 2^53 in
 * integer form, anything else like printf("%.17g"); NaN/Inf as null.
 */
void appendNumber(std::string &out, double d);
/** @} */

/** Serialize a value compactly (no whitespace). */
std::string write(const Value &value);

/** Serialize a value with 2-space indentation. */
std::string writePretty(const Value &value);

/** Serialize to a file. @throws skipsim::FatalError on IO failure. */
void writeFile(const std::string &path, const Value &value,
               bool pretty = true);

/** Write already-serialized @p text to a file (same errors). */
void writeTextFile(const std::string &path, const std::string &text);

} // namespace skipsim::json

#endif // SKIPSIM_JSON_WRITER_HH
