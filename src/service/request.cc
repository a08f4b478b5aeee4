#include "service/request.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <vector>

#include "base/strings.h"

namespace uocqa {

const char* RequestModeName(RequestMode mode) {
  switch (mode) {
    case RequestMode::kExact:
      return "exact";
    case RequestMode::kFpras:
      return "fpras";
    case RequestMode::kMc:
      return "mc";
    case RequestMode::kAll:
      return "all";
  }
  return "unknown";
}

std::optional<RequestMode> ParseRequestMode(std::string_view text) {
  if (text == "exact") return RequestMode::kExact;
  if (text == "fpras") return RequestMode::kFpras;
  if (text == "mc") return RequestMode::kMc;
  if (text == "all") return RequestMode::kAll;
  return std::nullopt;
}

Status ValidateAccuracy(double epsilon, double delta, size_t samples) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument(
        "epsilon must be a finite value in (0, 1)");
  }
  if (!std::isfinite(delta) || delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be a finite value in (0, 1)");
  }
  if (samples == 0) {
    return Status::InvalidArgument("samples must be positive");
  }
  return Status::OK();
}

namespace {

/// Splits a line into whitespace-separated tokens. A single quote toggles
/// quoting (quoted whitespace is kept, the delimiting quotes are dropped);
/// inside a quoted region a doubled quote '' is a literal quote, so query
/// text may itself contain quoted constants:
///   query='Ans(x) :- Emp(x, ''tom'')'  ->  Ans(x) :- Emp(x, 'tom')
Result<std::vector<std::string>> Tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::string current;
  bool in_token = false;
  bool in_quote = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c == '\'') {
      if (in_quote && i + 1 < line.size() && line[i + 1] == '\'') {
        current += '\'';
        ++i;
        continue;
      }
      in_quote = !in_quote;
      in_token = true;  // `query=''` produces an (empty-valued) token
      continue;
    }
    if (!in_quote && std::isspace(static_cast<unsigned char>(c))) {
      if (in_token) out.push_back(std::move(current));
      current.clear();
      in_token = false;
      continue;
    }
    current += c;
    in_token = true;
  }
  if (in_quote) return Status::InvalidArgument("unterminated quote");
  if (in_token) out.push_back(std::move(current));
  return out;
}

Status ParseDouble(const std::string& field, const std::string& text,
                   double* out) {
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    return Status::InvalidArgument(field + " expects a number");
  }
  *out = v;
  return Status::OK();
}

}  // namespace

std::string QuoteProtocolValue(const std::string& value) {
  // The inverse of Tokenize's quoting rule: delimiting quotes, interior
  // quotes doubled.
  std::string out = "'";
  for (char c : value) {
    out += c;
    if (c == '\'') out += '\'';
  }
  out += "'";
  return out;
}

Status ParseSizeField(const std::string& field, const std::string& text,
                      size_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isdigit(static_cast<unsigned char>(text.front())) ||
      errno == ERANGE) {
    return Status::InvalidArgument(field +
                                   " expects a non-negative integer in range");
  }
  *out = static_cast<size_t>(v);
  return Status::OK();
}

std::vector<std::string> ReadRequestLines(std::istream& in) {
  std::vector<std::string> out;
  std::string line;
  // Hand-rolled line reader instead of std::getline: a hostile multi-MB
  // line must not be buffered in full. At most kMaxRequestLineBytes + 1
  // bytes are kept (one past the limit, so ParseRequestLine sees the line
  // as oversized); the rest of the line is drained and dropped.
  std::streambuf* sb = in.rdbuf();
  bool eof = sb == nullptr;
  while (!eof) {
    line.clear();
    bool got_any = false;
    for (;;) {
      int c = sb->sbumpc();
      if (c == std::char_traits<char>::eof()) {
        eof = true;
        break;
      }
      got_any = true;
      if (c == '\n') break;
      if (line.size() <= kMaxRequestLineBytes) {
        line.push_back(static_cast<char>(c));
      }
    }
    if (!got_any) break;
    std::string_view trimmed = StrTrim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    out.emplace_back(trimmed);
  }
  // Match std::getline's stream state for callers that inspect it.
  in.setstate(std::ios::eofbit);
  return out;
}

Result<Request> ParseRequestLine(std::string_view line) {
  if (line.size() > kMaxRequestLineBytes) {
    return Status::ResourceExhausted(
        "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
        " bytes");
  }
  UOCQA_ASSIGN_OR_RETURN(std::vector<std::string> tokens, Tokenize(line));
  if (tokens.empty()) return Status::InvalidArgument("empty request");
  if (tokens.size() > kMaxRequestFields) {
    return Status::ResourceExhausted(
        "request has more than " + std::to_string(kMaxRequestFields) +
        " fields");
  }
  Request out;
  if (tokens[0] == "stats" || tokens[0] == "metrics" ||
      tokens[0] == "version" || tokens[0] == "begin_snapshot" ||
      tokens[0] == "epoch" || tokens[0] == "wal_sync") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("'" + tokens[0] +
                                     "' takes no further fields");
    }
    out.verb = tokens[0] == "stats"            ? RequestVerb::kStats
               : tokens[0] == "metrics"        ? RequestVerb::kMetrics
               : tokens[0] == "version"        ? RequestVerb::kVersion
               : tokens[0] == "begin_snapshot" ? RequestVerb::kBeginSnapshot
               : tokens[0] == "epoch"          ? RequestVerb::kEpoch
                                               : RequestVerb::kWalSync;
    return out;
  }
  if (tokens[0] == "add_fact") {
    out.verb = RequestVerb::kAddFact;
    bool have_rel = false;
    bool have_args = false;
    for (size_t t = 1; t < tokens.size(); ++t) {
      size_t eq = tokens[t].find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("expected key=value, got '" +
                                       tokens[t] + "'");
      }
      std::string key = tokens[t].substr(0, eq);
      std::string value = tokens[t].substr(eq + 1);
      if (key == "rel") {
        out.fact_relation = value;
        have_rel = true;
      } else if (key == "args") {
        out.fact_args = value;
        have_args = true;
      } else {
        return Status::InvalidArgument("unknown add_fact field: " + key);
      }
    }
    if (!have_rel || !have_args) {
      return Status::InvalidArgument(
          "add_fact requires rel=R and args='c1,c2,...'");
    }
    return out;
  }
  for (const std::string& token : tokens) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value, got '" + token +
                                     "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (key == "query") {
      out.query_text = value;
    } else if (key == "answer") {
      out.answer_text = value;
    } else if (key == "mode") {
      std::optional<RequestMode> mode = ParseRequestMode(value);
      if (!mode.has_value()) {
        return Status::InvalidArgument("unknown mode: " + value);
      }
      out.mode = *mode;
    } else if (key == "epsilon") {
      UOCQA_RETURN_IF_ERROR(ParseDouble(key, value, &out.epsilon));
    } else if (key == "delta") {
      UOCQA_RETURN_IF_ERROR(ParseDouble(key, value, &out.delta));
    } else if (key == "samples") {
      UOCQA_RETURN_IF_ERROR(ParseSizeField(key, value, &out.samples));
    } else if (key == "seed") {
      size_t seed = 0;
      UOCQA_RETURN_IF_ERROR(ParseSizeField(key, value, &seed));
      out.seed = static_cast<uint64_t>(seed);
    } else if (key == "seed_schema") {
      // One schema remains; the field is accepted so recorded request
      // files that name it explicitly still parse.
      if (value != "3") {
        return Status::InvalidArgument("seed_schema expects 3");
      }
    } else if (key == "explain") {
      if (value == "0") {
        out.explain = false;
      } else if (value == "1") {
        out.explain = true;
      } else {
        return Status::InvalidArgument("explain expects 0 or 1");
      }
    } else if (key == "trace") {
      if (value == "0") {
        out.trace = false;
      } else if (value == "1") {
        out.trace = true;
      } else {
        return Status::InvalidArgument("trace expects 0 or 1");
      }
    } else if (key == "timeout_ms") {
      size_t timeout = 0;
      UOCQA_RETURN_IF_ERROR(ParseSizeField(key, value, &timeout));
      out.timeout_ms = static_cast<uint64_t>(timeout);
    } else {
      return Status::InvalidArgument("unknown request field: " + key);
    }
  }
  if (out.query_text.empty()) {
    return Status::InvalidArgument("request is missing query=...");
  }
  UOCQA_RETURN_IF_ERROR(
      ValidateAccuracy(out.epsilon, out.delta, out.samples));
  return out;
}

std::string FormatRequestLine(const Request& request) {
  switch (request.verb) {
    case RequestVerb::kStats:
      return "stats";
    case RequestVerb::kMetrics:
      return "metrics";
    case RequestVerb::kVersion:
      return "version";
    case RequestVerb::kBeginSnapshot:
      return "begin_snapshot";
    case RequestVerb::kEpoch:
      return "epoch";
    case RequestVerb::kWalSync:
      return "wal_sync";
    case RequestVerb::kAddFact:
      return "add_fact rel=" + QuoteProtocolValue(request.fact_relation) +
             " args=" + QuoteProtocolValue(request.fact_args);
    case RequestVerb::kQuery:
      break;
  }
  char buf[64];
  std::string out = "query=" + QuoteProtocolValue(request.query_text);
  if (!request.answer_text.empty()) {
    out += " answer=" + QuoteProtocolValue(request.answer_text);
  }
  out += " mode=";
  out += RequestModeName(request.mode);
  std::snprintf(buf, sizeof(buf), " epsilon=%.17g delta=%.17g",
                request.epsilon, request.delta);
  out += buf;
  out += " samples=" + std::to_string(request.samples);
  out += " seed=" + std::to_string(request.seed);
  if (request.explain) out += " explain=1";
  if (request.trace) out += " trace=1";
  if (request.timeout_ms != 0) {
    out += " timeout_ms=" + std::to_string(request.timeout_ms);
  }
  return out;
}

std::string FormatResponseLine(size_t id, const ServiceResponse& response) {
  std::string out = std::to_string(id);
  if (response.status.ok()) {
    out += " ok ";
    out += response.cache_hit ? "hit" : "miss";
    if (response.has_epoch) {
      out += " epoch=" + std::to_string(response.epoch);
    }
    if (!response.payload.empty()) {
      out += " ";
      out += response.payload;
    }
    if (!response.trace.empty()) {
      out += " trace=" + QuoteProtocolValue(response.trace);
    }
  } else {
    // Overload-control outcomes get a structured kind so clients (and the
    // shed/timeout tests) can switch on the response without parsing the
    // message; everything else keeps the legacy rendering.
    switch (response.status.code()) {
      case StatusCode::kDeadlineExceeded:
        out += " err timeout '" + response.status.message() + "'";
        break;
      case StatusCode::kUnavailable:
        out += " err busy '" + response.status.message() + "'";
        break;
      case StatusCode::kResourceExhausted:
        out += " err oversized '" + response.status.message() + "'";
        break;
      default:
        out += " error '" + response.status.ToString() + "'";
        break;
    }
  }
  return out;
}

}  // namespace uocqa
