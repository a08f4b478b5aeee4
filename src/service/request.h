// The service layer's line-oriented request/response protocol.
//
// One request per line, `key=value` fields separated by whitespace, keys
// mirroring the uocqa CLI flags; values may be single-quoted (a quote
// toggles quoting, as in the instance format, so spaces and commas survive
// inside `query='...'`). Blank lines and lines starting with '#' are
// skipped by the readers (uocqa_serve, uocqa --batch).
//
//   query='Ans(x) :- Emp(x, y)' answer=e1 mode=fpras epsilon=0.3 seed=7
//
// Besides query lines there are verb lines — `stats`, and the live-instance
// verbs `add_fact rel=R args='a,b'`, `begin_snapshot`, `epoch` (see
// RequestVerb below and docs/FORMATS.md).
//
// One response line per request, in request order:
//
//   <id> ok <hit|miss> [epoch=<E>] <payload>
//   <id> error '<message>'
//
// where <payload> is a sequence of `key=value` result fields (see
// docs/FORMATS.md for the full field reference). Cached responses replay
// the payload byte-identically; only the hit/miss marker differs.

#ifndef UOCQA_SERVICE_REQUEST_H_
#define UOCQA_SERVICE_REQUEST_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/version.h"

namespace uocqa {

/// Which solver(s) a request runs — the CLI's --mode values.
enum class RequestMode : uint8_t { kExact, kFpras, kMc, kAll };

const char* RequestModeName(RequestMode mode);
std::optional<RequestMode> ParseRequestMode(std::string_view text);

/// What a protocol line asks for. Most lines are queries (`query='...'`
/// plus option fields); the rest are verbs, recognized by their first bare
/// token:
///   stats                      — cache counters and per-plan timings
///   metrics                    — one-line metrics registry exposition
///   version                    — build info, SIMD backend, seed schema
///   add_fact rel=R args='a,b'  — queue one fact for the next snapshot
///   begin_snapshot             — merge queued facts into a new epoch
///   epoch                      — report the currently served epoch
///   wal_sync                   — force the write-ahead log to stable storage
/// The write verbs require a live service (uocqa_serve); a static service
/// answers them with an error.
enum class RequestVerb : uint8_t {
  kQuery,
  kStats,
  kMetrics,
  kVersion,
  kAddFact,
  kBeginSnapshot,
  kEpoch,
  kWalSync,
};

/// Hostile-input bounds on one protocol line, enforced by ReadRequestLines
/// (which stops buffering past the limit) and ParseRequestLine (which
/// answers `err oversized`, StatusCode::kResourceExhausted). Generous for
/// any legitimate query; a multi-megabyte line is an attack or a bug.
inline constexpr size_t kMaxRequestLineBytes = 1 << 20;  // 1 MiB
inline constexpr size_t kMaxRequestFields = 64;

/// One OCQA request. Field names and defaults mirror the CLI flags; the
/// database is fixed per service, not per request.
struct Request {
  std::string query_text;
  std::string answer_text;  // comma-separated constants; empty for Boolean
  RequestMode mode = RequestMode::kAll;
  double epsilon = 0.2;
  double delta = 0.1;
  size_t samples = 20000;
  uint64_t seed = 1;
  /// FPRAS RNG-consumption schema (FprasConfig::seed_schema). The parser
  /// accepts only the one implemented schema, 3; nothing reads the field.
  int seed_schema = kDefaultSeedSchema;
  /// `explain=1` extends the payload with the compiled plan's deterministic
  /// `plan_*` fields (join order, cost estimates, decomposition choice).
  /// Part of the result-cache key: explain and plain payloads differ.
  bool explain = false;
  /// `trace=1` asks for a per-request stage breakdown (stage → micros,
  /// trials run, planner nodes, cache hit/miss) in the response's trace
  /// field. Deliberately NOT part of the result-cache key: tracing rides
  /// outside the payload bytes (the epoch-stamp precedent), so traced and
  /// untraced requests share cache entries and replay byte-identically.
  bool trace = false;
  /// `timeout_ms=N` arms a per-request deadline: the service checks it
  /// between pipeline stages and answers `err timeout`
  /// (StatusCode::kDeadlineExceeded) once it expires, discarding any
  /// partial work without entering the result cache. 0 (the default)
  /// disables the deadline. Deliberately NOT part of the result-cache key:
  /// a deadline bounds work, it never changes a completed payload's bytes.
  uint64_t timeout_ms = 0;
  /// What this line asks for. kQuery uses the fields above; kStats answers
  /// with cache counters (never cached, doesn't count as a query request);
  /// kAddFact uses fact_relation/fact_args; kBeginSnapshot and kEpoch take
  /// no fields.
  RequestVerb verb = RequestVerb::kQuery;
  /// add_fact only: the relation name (`rel=R`).
  std::string fact_relation;
  /// add_fact only: comma-separated constants (`args='a,b'`), the same
  /// tuple grammar as a query's `answer=` field.
  std::string fact_args;
};

/// Accuracy/budget validation shared by the CLI front ends and the request
/// parser: epsilon and delta must be finite and in (0, 1), samples must be
/// positive. (The defaults always pass.)
Status ValidateAccuracy(double epsilon, double delta, size_t samples);

/// Strict non-negative integer parse (rejects signs, trailing junk, and
/// empty input), shared by the request parser and the CLI flag parsers so
/// `--threads -1` is a usage error rather than a 2^64-lane pool.
Status ParseSizeField(const std::string& field, const std::string& text,
                      size_t* out);

/// Reads request lines from a stream, trimming whitespace and dropping
/// blanks and '#' comments — the shared reader of `uocqa_serve` and
/// `uocqa --batch`. Buffers at most kMaxRequestLineBytes + 1 bytes per line:
/// a longer line is drained from the stream but kept only up to the limit,
/// so ParseRequestLine rejects it as oversized without the process ever
/// holding the full hostile payload.
std::vector<std::string> ReadRequestLines(std::istream& in);

/// Parses one protocol line (must be non-blank and not a comment).
Result<Request> ParseRequestLine(std::string_view line);

/// Renders a request back into a protocol line (round-trips through
/// ParseRequestLine).
std::string FormatRequestLine(const Request& request);

/// Wraps `value` in single quotes with interior quotes doubled — the
/// protocol's quoting rule, shared with payload fields that embed free text
/// (the stats verb's per-plan query strings).
std::string QuoteProtocolValue(const std::string& value);

/// The outcome of serving one request.
struct ServiceResponse {
  /// Protocol- or query-level failure (parse error, arity mismatch, invalid
  /// accuracy parameters). Solver-level unavailability (e.g. FPRAS on a
  /// query beyond the width bound) is reported inside the payload instead.
  Status status;
  /// Result fields, `key=value` separated by single spaces. This is the
  /// unit of byte-identical replay: a result-cache hit returns exactly the
  /// bytes the miss computed.
  std::string payload;
  /// True if the payload was replayed from the result cache.
  bool cache_hit = false;
  /// Live services stamp every response with the epoch it was served
  /// against. Deliberately *outside* `payload`: a cached entry surviving an
  /// ingest replays its payload bytes unchanged while reporting the epoch
  /// it is served at, and FormatResponseLine renders the field between the
  /// hit/miss marker and the payload. Static services leave it unset and
  /// their response lines are unchanged.
  bool has_epoch = false;
  uint64_t epoch = 0;
  /// `trace=1` responses carry the stage breakdown here — like the epoch
  /// stamp, *outside* `payload`, rendered by FormatResponseLine as a
  /// trailing ` trace='...'` field. Cached payload bytes are untouched by
  /// tracing; timings live only in this field, which is never cached.
  std::string trace;
};

/// "<id> ok <hit|miss> [epoch=<E>] <payload> [trace='...']" on success.
/// Overload-control failures get a structured kind a client can switch on
/// without parsing the message:
///   kDeadlineExceeded   ->  "<id> err timeout '<message>'"
///   kUnavailable        ->  "<id> err busy '<message>'"
///   kResourceExhausted  ->  "<id> err oversized '<message>'"
/// and every other error keeps the legacy "<id> error '<message>'".
std::string FormatResponseLine(size_t id, const ServiceResponse& response);

}  // namespace uocqa

#endif  // UOCQA_SERVICE_REQUEST_H_
