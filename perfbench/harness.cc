// Whole-request benchmark harness for the uocqa query service.
//
//   perfbench_harness --workload fpras_warm|exact_sweep|live_ingest_mc
//       --instance FILE --requests FILE --seconds S --trace 0|1
//       --scratch DIR
//
// The inputs come from perfbench/run.py, which generates them from the
// workload seed: a text instance and a file of tagged protocol lines
// (`warmup|stream <TAB> class <TAB> line`). The program under test only
// ever sees those inputs: the instance through ParseInstanceText and each
// protocol line through QueryService::ExecuteBatchLines.
//
// One run has four phases:
//
//  1. Set-up: parse the instance, build the service (live workload: a
//     LiveInstance with a write-ahead log under sync policy `none`), and
//     serve the warm-up lines. It runs five times (the last server serves);
//     setup_s is the median.
//  2. The timed loop: one closed-loop client, threads=1, sends the stream
//     lines one at a time for --seconds and times each request from line in
//     to response line out. This is where every end-to-end metric comes
//     from; nothing else runs in it.
//  3. The traced replay: served requests again (all of them on the live
//     workload; elsewhere the first few, and with --trace 1 as many as fit
//     in half of --seconds), this time by calling each layer's public
//     functions directly with a span around every call. It yields the
//     per-layer metrics and recomputes the answers without the service.
//  4. Checks, outside every timed region: replayed payloads must equal the
//     served ones (bit-for-bit for FPRAS and Monte-Carlo), and for every
//     served answer exact numerators must equal the automaton counts,
//     denominators the closed forms, Monte-Carlo payloads a recomputation
//     against the snapshot they were served from, and FPRAS estimates must
//     land within (1±ε) of the brute-force value.
//
// The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. The exit code is 0 only if
// every exact check passed and the percentile-placement guard held.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/bigint.h"
#include "base/io.h"
#include "base/rng.h"
#include "base/strings.h"
#include "db/blocks.h"
#include "db/textio.h"
#include "db/value.h"
#include "ocqa/engine.h"
#include "planner/cost.h"
#include "planner/join_order.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/operations.h"
#include "repairs/sampling.h"
#include "service/live.h"
#include "service/request.h"
#include "service/service.h"
#include "service/wal.h"

namespace {

using uocqa::BigInt;
using uocqa::BlockOutcome;
using uocqa::BlockPartition;
using uocqa::CompiledQuery;
using uocqa::ConjunctiveQuery;
using uocqa::Database;
using uocqa::FactId;
using uocqa::KeySet;
using uocqa::LiveInstance;
using uocqa::OcqaEngine;
using uocqa::OcqaOptions;
using uocqa::QueryService;
using uocqa::Request;
using uocqa::RequestVerb;
using uocqa::ServiceResponse;
using uocqa::Value;

using Clock = std::chrono::steady_clock;

/// Set-ups per run, all before the timed loop; the last one serves.
/// setup_s is their median, which leaves out the process's cold first one.
constexpr int kSetups = 5;
/// Instance loads timed by the replay (db.load).
constexpr int kLoads = 3;
/// The service's default FPRAS width bound (ServiceOptions::max_width).
constexpr size_t kMaxWidth = 6;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(2);
}

/// The service renders doubles with every bit of precision; the replay
/// formats its own estimates the same way so payloads compare as bytes.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The protocol's tuple grammar: comma-separated, whitespace-trimmed.
std::vector<std::string> SplitTuple(const std::string& text) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  for (const std::string& piece : uocqa::StrSplit(text, ',')) {
    out.emplace_back(uocqa::StrTrim(piece));
  }
  return out;
}

std::vector<Value> InternTuple(const std::string& text) {
  std::vector<Value> out;
  for (const std::string& c : SplitTuple(text)) {
    out.push_back(uocqa::ValuePool::Intern(c));
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Inputs

enum class Workload { kFprasWarm, kExactSweep, kLiveIngestMc };

struct TaggedLine {
  std::string cls;
  std::string text;
};

struct Inputs {
  std::string instance_text;
  std::vector<TaggedLine> warmup;
  std::vector<TaggedLine> stream;
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Inputs LoadInputs(const std::string& instance_path,
                  const std::string& requests_path) {
  Inputs out;
  out.instance_text = ReadFileOrDie(instance_path);
  std::istringstream lines(ReadFileOrDie(requests_path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    size_t a = line.find('\t');
    size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) Die("malformed request line: " + line);
    TaggedLine tagged{line.substr(a + 1, b - a - 1), line.substr(b + 1)};
    std::string section = line.substr(0, a);
    if (section == "warmup") {
      out.warmup.push_back(std::move(tagged));
    } else if (section == "stream") {
      out.stream.push_back(std::move(tagged));
    } else {
      Die("unknown section '" + section + "'");
    }
  }
  if (out.stream.empty()) Die("empty request stream");
  return out;
}

// ---------------------------------------------------------------------------
// Tracing: spans around layer calls, aggregated per layer and per request.

enum Layer : int {
  kRequestParse,
  kQueryParse,
  kCacheHit,
  kLoad,
  kBlocks,
  kDenominators,
  kCompile,
  kRepBuild,
  kSeqBuild,
  kFprasUr,
  kFprasUs,
  kOrder,
  kExactUr,
  kExactUs,
  kSubset,
  kEval,
  kSeqCount,
  kRepSamplerBuild,
  kSeqSamplerBuild,
  kRepSample,
  kSeqSample,
  kApplySeq,
  kLiveAdd,
  kLivePublish,
  kContextInstall,
  kLayerCount,
};

const char* const kLayerNames[kLayerCount] = {
    "service.request_parse",  "query.parse",
    "service.cache_hit",      "db.load",
    "db.blocks",              "repairs.denominators",
    "ocqa.compile",           "ocqa.rep_build",
    "ocqa.seq_build",         "automata.fpras_ur",
    "automata.fpras_us",      "planner.order",
    "repairs.exact_ur",       "repairs.exact_us",
    "db.subset",              "query.eval",
    "repairs.seq_count",      "repairs.rep_sampler_build",
    "repairs.seq_sampler_build", "repairs.rep_sample",
    "repairs.seq_sample",     "repairs.apply_seq",
    "live.add",               "live.publish",
    "service.context_install",
};

/// Records nested spans. A span's self time is its duration minus the time
/// its child spans cover; a request's covered time is the summed duration
/// of its top-level spans, so coverage = covered / request wall time.
/// Spans outside a request (replay setup, probes) are aggregated per layer
/// but count toward no request.
class Tracer {
 public:
  struct Totals {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  struct RequestRow {
    size_t id = 0;
    std::string cls;
    int64_t wall_ns = 0;
    std::vector<int64_t> self_ns;  // by Layer
  };

  void BeginRequest(size_t id, const std::string& cls) {
    row_ = RequestRow{id, cls, 0, std::vector<int64_t>(kLayerCount, 0)};
    covered_in_request_ = 0;
    in_request_ = true;
    request_start_ = Clock::now();
  }

  void EndRequest() {
    int64_t wall = Ns(Clock::now() - request_start_);
    in_request_ = false;
    row_.wall_ns = wall;
    request_wall_ns_ += wall;
    request_covered_ns_ += covered_in_request_;
    rows_.push_back(std::move(row_));
  }

  void Push(Layer layer) { stack_.push_back({layer, Clock::now(), 0}); }

  void Pop() {
    Frame frame = stack_.back();
    stack_.pop_back();
    int64_t duration = Ns(Clock::now() - frame.start);
    int64_t self = duration - frame.child_ns;
    Totals& t = totals_[frame.layer];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += self;
    if (in_request_) row_.self_ns[frame.layer] += self;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    } else if (in_request_) {
      covered_in_request_ += duration;
    }
  }

  const Totals& totals(Layer layer) const { return totals_[layer]; }
  const std::vector<RequestRow>& rows() const { return rows_; }
  int64_t request_wall_ns() const { return request_wall_ns_; }
  int64_t request_covered_ns() const { return request_covered_ns_; }

  /// Mean duration per call in the given unit (ns per unit); 0 if unused.
  double Mean(Layer layer, double unit_ns) const {
    const Totals& t = totals_[layer];
    return t.calls == 0 ? 0.0
                        : static_cast<double>(t.total_ns) / t.calls / unit_ns;
  }

  /// The layer's self time as a share of all replayed request wall time.
  double Share(Layer layer) const {
    return request_wall_ns_ == 0 ? 0.0
                                 : static_cast<double>(totals_[layer].self_ns) /
                                       static_cast<double>(request_wall_ns_);
  }

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    int64_t child_ns;
  };
  static int64_t Ns(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }

  std::vector<Frame> stack_;
  Totals totals_[kLayerCount];
  bool in_request_ = false;
  Clock::time_point request_start_;
  int64_t covered_in_request_ = 0;
  int64_t request_wall_ns_ = 0;
  int64_t request_covered_ns_ = 0;
  RequestRow row_;
  std::vector<RequestRow> rows_;
};

/// RAII span; a null tracer makes it free (used by untimed check replays).
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Push(layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Work counters gathered by the replay (per-request means are reported).
struct Counters {
  uint64_t enumerated = 0;   // ForEachRepair visits
  uint64_t eval_calls = 0;   // QueryEvaluator + Entails
  uint64_t eval_nodes = 0;   // QueryEvaluator::nodes_visited()
  uint64_t union_trials = 0;
};

// ---------------------------------------------------------------------------
// Checks

struct Checks {
  uint64_t exact_checked = 0;
  uint64_t exact_failed = 0;
  uint64_t fpras_checked = 0;
  uint64_t fpras_in_bound = 0;
  double fpras_delta = 0;  // the largest δ requested
  std::vector<std::string> failures;

  void Exact(bool ok, const std::string& what) {
    ++exact_checked;
    if (ok) return;
    ++exact_failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void Fpras(bool in_bound, double delta) {
    ++fpras_checked;
    if (in_bound) ++fpras_in_bound;
    fpras_delta = std::max(fpras_delta, delta);
  }
  uint64_t checked() const { return exact_checked + fpras_checked; }
  double ok_frac() const {
    uint64_t n = checked();
    return n == 0 ? 1.0
                  : static_cast<double>(n - exact_failed - fpras_checked +
                                        fpras_in_bound) /
                        static_cast<double>(n);
  }
  /// Exact checks must all pass; the FPRAS guarantee is (ε, δ), so at most
  /// a δ fraction of its estimates may fall outside (1±ε)·exact.
  bool passed() const {
    if (exact_failed > 0) return false;
    if (fpras_checked == 0) return true;
    double outside = static_cast<double>(fpras_checked - fpras_in_bound) /
                     static_cast<double>(fpras_checked);
    return outside <= fpras_delta;
  }
};

// ---------------------------------------------------------------------------
// The service under test and the timed loop

/// One set-up service. Members are destroyed in reverse order: the service
/// goes first, then the instance it serves.
struct Server {
  std::unique_ptr<uocqa::ParsedInstance> parsed;  // static workloads
  std::unique_ptr<LiveInstance> live;             // live workload
  std::unique_ptr<QueryService> service;
};

struct Served {
  size_t line = 0;  // index into Inputs::stream
  double ms = 0;
  bool ok = false;
  bool hit = false;
  uint64_t epoch = 0;
  std::string payload;
};

/// Request line in, response line out, through the service's line API.
ServiceResponse ServeLine(QueryService& service, const std::string& line,
                          size_t id, std::string* response_line) {
  std::vector<ServiceResponse> responses =
      service.ExecuteBatchLines({line}, /*threads=*/1);
  *response_line = uocqa::FormatResponseLine(id, responses[0]);
  return std::move(responses[0]);
}

std::unique_ptr<Server> SetUp(Workload workload, const Inputs& inputs,
                              const std::string& wal_path) {
  auto server = std::make_unique<Server>();
  uocqa::Result<uocqa::ParsedInstance> parsed =
      uocqa::ParseInstanceText(inputs.instance_text);
  if (!parsed.ok()) Die("instance: " + parsed.status().ToString());
  if (workload == Workload::kLiveIngestMc) {
    server->live = std::make_unique<LiveInstance>(std::move(parsed->db),
                                                  std::move(parsed->keys));
    uocqa::RemoveFileIfExists(wal_path);
    auto recovered = uocqa::RecoverAndAttachWal(
        wal_path, uocqa::WalSyncPolicy::kNone, server->live.get(), nullptr);
    if (!recovered.ok()) Die("wal: " + recovered.status().ToString());
    server->service = std::make_unique<QueryService>(*server->live);
  } else {
    server->parsed =
        std::make_unique<uocqa::ParsedInstance>(std::move(parsed).value());
    server->service = std::make_unique<QueryService>(server->parsed->db,
                                                     server->parsed->keys);
  }
  std::string response_line;
  for (size_t i = 0; i < inputs.warmup.size(); ++i) {
    ServiceResponse r =
        ServeLine(*server->service, inputs.warmup[i].text, i, &response_line);
    if (!r.status.ok()) Die("warm-up request failed: " + response_line);
  }
  return server;
}

struct TimedRun {
  std::vector<Served> served;
  double window_s = 0;
  uocqa::ServiceStats before;
  uocqa::ServiceStats after;
  /// The served instance's fingerprint at each epoch (static: epoch 0).
  std::map<uint64_t, uint64_t> fingerprints;
};

TimedRun RunTimed(QueryService& service, const Inputs& inputs,
                  double seconds) {
  TimedRun run;
  run.fingerprints[service.epoch()] = service.instance_fingerprint();
  run.before = service.stats();
  run.served.reserve(4096);
  std::string response_line;
  Clock::time_point start = Clock::now();
  for (size_t i = 0; i < inputs.stream.size(); ++i) {
    if (SecondsSince(start) >= seconds) break;
    Clock::time_point t0 = Clock::now();
    ServiceResponse r =
        ServeLine(service, inputs.stream[i].text, i, &response_line);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    Served s;
    s.line = i;
    s.ms = ms;
    s.ok = r.status.ok();
    s.hit = r.cache_hit;
    s.epoch = r.epoch;
    s.payload = std::move(r.payload);
    if (run.fingerprints.count(s.epoch) == 0) {
      run.fingerprints[s.epoch] = service.instance_fingerprint();
    }
    run.served.push_back(std::move(s));
  }
  run.window_s = SecondsSince(start);
  run.after = service.stats();
  return run;
}

// ---------------------------------------------------------------------------
// The traced replay

struct ParsedLine {
  Request request;
  std::optional<ConjunctiveQuery> query;
  std::vector<Value> answer;
};

/// The common request prologue: the protocol line, then the query text.
ParsedLine ParseTraced(Tracer* tracer, const std::string& line,
                       const Database& db) {
  ParsedLine out;
  {
    Span span(tracer, kRequestParse);
    auto request = uocqa::ParseRequestLine(line);
    if (!request.ok()) Die("replay: " + request.status().ToString());
    out.request = std::move(request).value();
  }
  if (out.request.verb == RequestVerb::kQuery) {
    Span span(tracer, kQueryParse);
    auto query = uocqa::ParseQuery(out.request.query_text, db.schema());
    if (!query.ok()) Die("replay: " + query.status().ToString());
    out.query = std::move(query).value();
  }
  if (out.query) out.answer = InternTuple(out.request.answer_text);
  return out;
}

/// The engine plans one atom order per exact/Monte-Carlo call from the full
/// instance's statistics; entailment does not depend on it, only effort.
std::vector<size_t> PlanOrder(Tracer* tracer, const Database& db,
                              const ConjunctiveQuery& query) {
  Span span(tracer, kOrder);
  uocqa::CostModel model(db, query);
  return uocqa::PlanJoinOrder(db, query, model).order;
}

/// Materializes one repair and evaluates the query on it. The db.subset
/// span also covers the repair's destruction, which is part of the copy's
/// cost; the evaluation is its child span.
bool EntailsOnSubset(Tracer* tracer, Counters* counters, const Database& db,
                     const std::vector<FactId>& kept,
                     const ConjunctiveQuery& query,
                     const std::vector<size_t>& order,
                     const std::vector<Value>& answer) {
  Span subset_span(tracer, kSubset);
  Database repair = db.Subset(kept);
  Span eval_span(tracer, kEval);
  uocqa::QueryEvaluator eval(repair, query, order);
  bool entails = eval.Entails(answer);
  ++counters->eval_calls;
  counters->eval_nodes += eval.nodes_visited();
  return entails;
}

BlockPartition BlocksTraced(Tracer* tracer, const Database& db,
                            const KeySet& keys) {
  Span span(tracer, kBlocks);
  return BlockPartition::Compute(db, keys);
}

/// ExactRepairFrequency and ExactSequenceFrequency, call for call, with a
/// span around every layer call. Returns the exact-mode payload.
std::string ReplayExact(Tracer* tracer, Counters* counters, const Database& db,
                        const KeySet& keys, const ConjunctiveQuery& query,
                        const std::vector<Value>& answer, BigInt* ur_num,
                        BigInt* us_num) {
  auto enumerate = [&](bool sequences, BigInt* numerator,
                       BigInt* denominator) {
    std::vector<size_t> order = PlanOrder(tracer, db, query);
    BlockPartition outer = BlocksTraced(tracer, db, keys);
    BlockPartition blocks = BlocksTraced(tracer, db, keys);
    BigInt count;
    uocqa::ForEachRepair(
        blocks, [&](const std::vector<BlockOutcome>& outcomes,
                    const std::vector<FactId>& kept) {
          ++counters->enumerated;
          if (!EntailsOnSubset(tracer, counters, db, kept, query, order,
                               answer)) {
            return true;
          }
          if (!sequences) {
            count += uint64_t{1};
          } else {
            Span span(tracer, kSeqCount);
            count += uocqa::CountSequencesForOutcome(blocks, outcomes);
          }
          return true;
        });
    *numerator = std::move(count);
    *denominator = sequences ? uocqa::CountCompleteSequencesExact(outer)
                             : uocqa::CountOperationalRepairs(outer);
  };
  BigInt ur_den;
  BigInt us_den;
  {
    Span span(tracer, kExactUr);
    enumerate(false, ur_num, &ur_den);
  }
  {
    Span span(tracer, kExactUs);
    enumerate(true, us_num, &us_den);
  }
  return "exact_ur=" + ur_num->ToString() + "/" + ur_den.ToString() +
         " exact_us=" + us_num->ToString() + "/" + us_den.ToString();
}

/// MonteCarloUr and MonteCarloUs at threads=1, call for call: chunk c of
/// OcqaEngine::kMcChunk samples draws from Rng::Stream(seed, c). Returns
/// the mc-mode payload.
std::string ReplayMc(Tracer* tracer, Counters* counters, const Database& db,
                     const KeySet& keys, const ConjunctiveQuery& query,
                     const std::vector<Value>& answer, size_t samples,
                     uint64_t seed) {
  const size_t chunk = OcqaEngine::kMcChunk;
  const size_t chunks = (samples + chunk - 1) / chunk;
  auto estimate = [&](const std::function<bool(uocqa::Rng&)>& trial) {
    size_t hits = 0;
    for (size_t c = 0; c < chunks; ++c) {
      uocqa::Rng rng = uocqa::Rng::Stream(seed, c);
      size_t end = std::min(samples, (c + 1) * chunk);
      for (size_t i = c * chunk; i < end; ++i) {
        if (trial(rng)) ++hits;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(samples);
  };

  std::optional<uocqa::UniformRepairSampler> repairs;
  {
    Span span(tracer, kRepSamplerBuild);
    repairs.emplace(db, keys);
  }
  std::vector<size_t> order = PlanOrder(tracer, db, query);
  double ur = estimate([&](uocqa::Rng& rng) {
    std::vector<FactId> kept;
    {
      Span span(tracer, kRepSample);
      kept = repairs->Sample(rng);
    }
    return EntailsOnSubset(tracer, counters, db, kept, query, order, answer);
  });

  std::optional<uocqa::UniformSequenceSampler> sequences;
  {
    Span span(tracer, kSeqSamplerBuild);
    sequences.emplace(db, keys);
  }
  order = PlanOrder(tracer, db, query);
  double us = estimate([&](uocqa::Rng& rng) {
    uocqa::RepairingSequence seq;
    {
      Span span(tracer, kSeqSample);
      seq = sequences->Sample(rng);
    }
    std::vector<FactId> kept;
    {
      Span span(tracer, kApplySeq);
      kept = uocqa::ApplySequence(db, seq);
    }
    return EntailsOnSubset(tracer, counters, db, kept, query, order, answer);
  });
  return "mc_ur=" + FormatDouble(ur) + " mc_us=" + FormatDouble(us);
}

/// Loads the instance a few times under the db.load span (setup-side
/// layer) and computes the |ORep| / |CRS| denominators once.
uocqa::ParsedInstance LoadTraced(Tracer* tracer, const Inputs& inputs,
                                 BigInt* orep, BigInt* crs) {
  std::optional<uocqa::ParsedInstance> out;
  for (int i = 0; i < kLoads; ++i) {
    Span span(tracer, kLoad);
    auto parsed = uocqa::ParseInstanceText(inputs.instance_text);
    if (!parsed.ok()) Die("instance: " + parsed.status().ToString());
    out.emplace(std::move(parsed).value());
  }
  BlockPartition blocks = BlocksTraced(tracer, out->db, out->keys);
  Span span(tracer, kDenominators);
  *orep = uocqa::CountOperationalRepairs(blocks);
  *crs = uocqa::CountCompleteSequencesExact(blocks);
  return std::move(*out);
}

/// Re-executes requests the service has already answered, timing the
/// result-cache hit path. Picks stream lines served at the service's final
/// epoch (every static request qualifies) and keeps those that hit.
class HitProbe {
 public:
  HitProbe(QueryService& service, const Inputs& inputs, const TimedRun& run)
      : service_(service) {
    uint64_t final_epoch = service.epoch();
    std::set<std::string> seen;
    for (auto it = run.served.rbegin();
         it != run.served.rend() && lines_.size() < 16; ++it) {
      const std::string& text = inputs.stream[it->line].text;
      if (!it->ok || it->epoch != final_epoch ||
          text.rfind("query=", 0) != 0 || !seen.insert(text).second) {
        continue;
      }
      std::string response_line;
      if (ServeLine(service_, text, 0, &response_line).cache_hit) {
        lines_.push_back(text);
      }
    }
    if (lines_.empty()) {
      // Nothing answered at the final epoch: answer the last served query
      // once, so that re-executing it hits.
      for (auto it = run.served.rbegin(); it != run.served.rend(); ++it) {
        const std::string& text = inputs.stream[it->line].text;
        if (text.rfind("query=", 0) != 0) continue;
        std::string response_line;
        ServeLine(service_, text, 0, &response_line);
        lines_.push_back(text);
        break;
      }
    }
  }

  /// One traced re-execution; returns whether it hit.
  bool Run(Tracer* tracer) {
    if (lines_.empty()) return false;
    std::string response_line;
    Span span(tracer, kCacheHit);
    return ServeLine(service_, lines_[next_++ % lines_.size()], 0,
                     &response_line)
        .cache_hit;
  }

 private:
  QueryService& service_;
  std::vector<std::string> lines_;
  size_t next_ = 0;
};

struct ReplayResult {
  Tracer tracer;
  Counters counters;
  Checks checks;
  size_t requests = 0;     // replayed requests
  // Setup-side layer facts.
  double plan_us = 0;      // mean QueryPlan::planning_micros
  uint64_t seq_states = 0;
  uint64_t seq_transitions = 0;
  double wal_bytes_per_fact = 0;
};

/// The value of `key=` in a payload ("" if absent).
std::string PayloadField(const std::string& payload, const std::string& key) {
  std::string needle = key + "=";
  size_t at = 0;
  while ((at = payload.find(needle, at)) != std::string::npos) {
    if (at == 0 || payload[at - 1] == ' ') {
      size_t begin = at + needle.size();
      return payload.substr(begin, payload.find(' ', begin) - begin);
    }
    at += needle.size();
  }
  return "";
}

/// fpras_warm and exact_sweep replay the first kSpotReplays served requests
/// call for call, then keep going while the replayed requests' summed wall
/// time is under the replay budget (half of --seconds with --trace 1, 0
/// with --trace 0), which bounds a run's length. The cheap semantic checks
/// cover every served request either way.
constexpr size_t kSpotReplays = 6;

bool ReplayNext(const Tracer& tracer, size_t i, double budget_s) {
  return i < kSpotReplays ||
         static_cast<double>(tracer.request_wall_ns()) < budget_s * 1e9;
}

/// fpras_warm: plans and automata are compiled per class during replay
/// setup, then served requests re-run ApproxUr/ApproxUs over the warm
/// CompiledQuery at the request's seed and must reproduce the served
/// payload bit-for-bit. Every served estimate is checked against (1±ε)
/// times the brute-force frequency.
void ReplayFpras(const Inputs& inputs, const TimedRun& run, double budget_s,
                 ReplayResult* out) {
  Tracer* tracer = &out->tracer;
  BigInt orep;
  BigInt crs;
  uocqa::ParsedInstance inst = LoadTraced(tracer, inputs, &orep, &crs);
  OcqaEngine engine(inst.db, inst.keys);
  engine.SeedDenominators(orep, crs);

  struct Plan {
    ConjunctiveQuery query;
    std::unique_ptr<CompiledQuery> compiled;
    std::map<std::vector<Value>, std::pair<double, double>> exact;
  };
  std::map<std::string, Plan> plans;  // by query text
  OcqaOptions compile_options;
  compile_options.max_width = kMaxWidth;
  size_t compiled_plans = 0;
  int64_t planning_micros = 0;
  for (const TaggedLine& line : inputs.warmup) {
    auto request = uocqa::ParseRequestLine(line.text);
    if (!request.ok()) Die("replay: " + request.status().ToString());
    auto [it, fresh] = plans.try_emplace(request->query_text);
    Plan& plan = it->second;
    if (fresh) {
      auto query = uocqa::ParseQuery(request->query_text, inst.db.schema());
      if (!query.ok()) Die("replay: " + query.status().ToString());
      plan.query = std::move(query).value();
      Span span(tracer, kCompile);
      auto compiled = engine.Compile(plan.query, compile_options);
      if (!compiled.ok()) Die("compile: " + compiled.status().ToString());
      plan.compiled =
          std::make_unique<CompiledQuery>(std::move(compiled).value());
      planning_micros += plan.compiled->plan().planning_micros;
      ++compiled_plans;
    }
    std::vector<Value> answer = InternTuple(request->answer_text);
    if (plan.exact.count(answer) != 0) continue;
    {
      Span span(tracer, kRepBuild);
      if (!plan.compiled->Rep(answer).ok()) Die("Rep[k] build failed");
    }
    {
      Span span(tracer, kSeqBuild);
      auto seq = plan.compiled->Seq(answer);
      if (!seq.ok()) Die("Seq[k] build failed");
      out->seq_states += (*seq)->nfta.state_count();
      out->seq_transitions += (*seq)->nfta.transition_count();
    }
    // Brute-force ground truth for the (1±ε) check (untraced).
    double ur =
        uocqa::ExactRepairFrequency(inst.db, inst.keys, plan.query, answer)
            .value();
    double us =
        uocqa::ExactSequenceFrequency(inst.db, inst.keys, plan.query, answer)
            .value();
    plan.exact[answer] = {ur, us};
  }
  out->plan_us = compiled_plans == 0
                     ? 0.0
                     : static_cast<double>(planning_micros) / compiled_plans;

  for (size_t i = 0; i < run.served.size(); ++i) {
    const Served& s = run.served[i];
    const TaggedLine& line = inputs.stream[s.line];
    auto request = uocqa::ParseRequestLine(line.text);
    if (!request.ok()) Die("replay: " + request.status().ToString());
    auto plan = plans.find(request->query_text);
    if (plan == plans.end()) Die("stream query missing from the warm-up");
    auto exact = plan->second.exact.find(InternTuple(request->answer_text));
    if (exact == plan->second.exact.end()) {
      Die("stream answer missing from the warm-up");
    }
    double eps = request->epsilon;
    auto within = [eps](const std::string& estimate, double truth) {
      return !estimate.empty() && estimate != "na" &&
             std::fabs(std::strtod(estimate.c_str(), nullptr) - truth) <=
                 eps * truth + 1e-12;
    };
    out->checks.Fpras(within(PayloadField(s.payload, "fpras_ur"),
                             exact->second.first),
                      request->delta);
    out->checks.Fpras(within(PayloadField(s.payload, "fpras_us"),
                             exact->second.second),
                      request->delta);
    if (!ReplayNext(*tracer, i, budget_s)) continue;

    tracer->BeginRequest(s.line, line.cls);
    ParsedLine p = ParseTraced(tracer, line.text, inst.db);
    const CompiledQuery& compiled = *plan->second.compiled;
    OcqaOptions options;
    options.fpras.epsilon = p.request.epsilon;
    options.fpras.delta = p.request.delta;
    options.fpras.seed = p.request.seed;
    options.fpras.seed_schema = p.request.seed_schema;
    options.max_width = kMaxWidth;
    options.threads = 1;
    uocqa::Result<uocqa::ApproxRF> ur = uocqa::Status::Internal("unset");
    uocqa::Result<uocqa::ApproxRF> us = uocqa::Status::Internal("unset");
    {
      Span span(tracer, kFprasUr);
      ur = engine.ApproxUr(compiled, p.answer, options);
    }
    {
      Span span(tracer, kFprasUs);
      us = engine.ApproxUs(compiled, p.answer, options);
    }
    tracer->EndRequest();
    ++out->requests;
    if (ur.ok()) out->counters.union_trials += ur->union_trials;
    if (us.ok()) out->counters.union_trials += us->union_trials;
    std::string payload =
        std::string(ur.ok() ? "fpras_ur=" + FormatDouble(ur->value)
                            : "fpras_ur=na") +
        (us.ok() ? " fpras_us=" + FormatDouble(us->value) : " fpras_us=na");
    out->checks.Exact(s.payload == payload,
                      "fpras payload differs from the replay: served '" +
                          s.payload + "' replayed '" + payload + "'");
  }
}

/// exact_sweep: served requests re-run both brute-force enumerations with
/// spans around BlockPartition::Compute, each Database::Subset and each
/// evaluation, and must reproduce the served payload. Every served answer
/// is also checked against the independent exact path — the Rep[k]
/// automaton's exact tree count — and the closed-form denominators.
void ReplayExactSweep(const Inputs& inputs, const TimedRun& run,
                      double budget_s, ReplayResult* out) {
  Tracer* tracer = &out->tracer;
  BigInt orep;
  BigInt crs;
  uocqa::ParsedInstance inst = LoadTraced(tracer, inputs, &orep, &crs);
  OcqaEngine engine(inst.db, inst.keys);
  std::map<std::string, std::unique_ptr<CompiledQuery>> plans;
  OcqaOptions compile_options;
  compile_options.max_width = kMaxWidth;
  const std::string orep_text = orep.ToString();
  const std::string crs_text = crs.ToString();

  for (size_t i = 0; i < run.served.size(); ++i) {
    const Served& s = run.served[i];
    const TaggedLine& line = inputs.stream[s.line];
    ParsedLine p = ParseTraced(nullptr, line.text, inst.db);
    auto& compiled = plans[p.request.query_text];
    if (!compiled) {
      auto c = engine.Compile(*p.query, compile_options);
      if (!c.ok()) Die("compile: " + c.status().ToString());
      compiled = std::make_unique<CompiledQuery>(std::move(c).value());
    }
    // The Seq[k] automaton is far too large at this size to count with,
    // so exact_us's numerator is checked by the replays below only.
    auto via_rep = engine.RepairsEntailingViaAutomaton(*compiled, p.answer);
    std::string ur_expected =
        (via_rep.ok() ? via_rep->ToString() : "?") + "/" + orep_text;
    std::string us_numerator = PayloadField(s.payload, "exact_us");
    us_numerator = us_numerator.substr(0, us_numerator.find('/'));
    std::string us_expected = us_numerator + "/" + crs_text;
    out->checks.Exact(PayloadField(s.payload, "exact_ur") == ur_expected,
                      "exact_ur in '" + s.payload +
                          "' differs from RepairsEntailingViaAutomaton / "
                          "CountOperationalRepairs: " + ur_expected);
    out->checks.Exact(PayloadField(s.payload, "exact_us") == us_expected,
                      "exact_us denominator in '" + s.payload +
                          "' differs from CountCompleteSequencesExact: " +
                          crs_text);
    if (!ReplayNext(*tracer, i, budget_s)) continue;

    tracer->BeginRequest(s.line, line.cls);
    p = ParseTraced(tracer, line.text, inst.db);
    BigInt ur;
    BigInt us;
    std::string payload = ReplayExact(tracer, &out->counters, inst.db,
                                      inst.keys, *p.query, p.answer, &ur, &us);
    tracer->EndRequest();
    ++out->requests;
    out->checks.Exact(s.payload == payload,
                      "exact payload differs from the replay: served '" +
                          s.payload + "' replayed '" + payload + "'");
  }
}

/// live_ingest_mc: the write stream is re-applied to a second LiveInstance
/// (with its own WAL), so publish and ingest are timed per call and every
/// epoch's version is rebuilt; each rebuilt version must carry the
/// fingerprint the service served at that epoch. Every Monte-Carlo miss is
/// recomputed against its epoch's version, and hits re-execute an
/// already-answered request on the served service. The first hit of each
/// epoch that crossed from an earlier epoch is recomputed against its own
/// epoch's version too (only the first, to bound the run's length).
void ReplayLive(const Inputs& inputs, const TimedRun& run,
                QueryService& served_by, const std::string& wal_path,
                ReplayResult* out) {
  Tracer* tracer = &out->tracer;
  BigInt orep;
  BigInt crs;
  uocqa::ParsedInstance inst = LoadTraced(tracer, inputs, &orep, &crs);
  LiveInstance live(std::move(inst.db), std::move(inst.keys));
  uocqa::RemoveFileIfExists(wal_path);
  auto recovered = uocqa::RecoverAndAttachWal(
      wal_path, uocqa::WalSyncPolicy::kNone, &live, nullptr);
  if (!recovered.ok()) Die("wal: " + recovered.status().ToString());
  QueryService service(live);
  const KeySet& keys = live.keys();
  auto wal_size = [&]() -> uint64_t {
    auto size = uocqa::FileSize(wal_path);
    return size.ok() ? *size : 0;
  };
  uint64_t wal_start = wal_size();
  uint64_t adds = 0;

  std::shared_ptr<const uocqa::InstanceSnapshot> current = live.Current();
  auto check_version = [&]() {
    auto served = run.fingerprints.find(current->epoch);
    out->checks.Exact(served != run.fingerprints.end() &&
                          served->second == current->fingerprint,
                      "replayed version differs from the served one at epoch " +
                          std::to_string(current->epoch));
  };
  check_version();

  HitProbe hits(served_by, inputs, run);
  // Payloads verified per (epoch, request line).
  std::map<std::pair<uint64_t, std::string>, std::string> verified;
  std::set<uint64_t> rechecked_epochs;

  for (const Served& s : run.served) {
    const TaggedLine& line = inputs.stream[s.line];
    tracer->BeginRequest(s.line, line.cls);
    ParsedLine p = ParseTraced(tracer, line.text, *current->db);
    bool replay_hit = false;
    std::string payload;
    switch (p.request.verb) {
      case RequestVerb::kAddFact: {
        Span span(tracer, kLiveAdd);
        uocqa::Status st =
            live.Add(p.request.fact_relation, SplitTuple(p.request.fact_args));
        if (!st.ok()) Die("replay add_fact: " + st.ToString());
        ++adds;
        break;
      }
      case RequestVerb::kBeginSnapshot: {
        {
          Span span(tracer, kLivePublish);
          current = live.Snapshot();
        }
        Span span(tracer, kContextInstall);
        service.Execute(p.request);
        break;
      }
      case RequestVerb::kQuery:
        if (s.hit) {
          replay_hit = hits.Run(tracer);
        } else {
          payload = ReplayMc(tracer, &out->counters, *current->db, keys,
                             *p.query, p.answer, p.request.samples,
                             p.request.seed);
        }
        break;
      default:
        Die("unexpected verb in the live stream: " + line.text);
    }
    tracer->EndRequest();
    ++out->requests;

    if (p.request.verb == RequestVerb::kBeginSnapshot) {
      check_version();
      // db.blocks: a from-scratch partition of the published version.
      BlocksTraced(tracer, *current->db, keys);
      continue;
    }
    if (p.request.verb != RequestVerb::kQuery) continue;
    out->checks.Exact(current->epoch == s.epoch,
                      "read served at epoch " + std::to_string(s.epoch) +
                          " replayed at epoch " +
                          std::to_string(current->epoch));
    if (s.hit) {
      out->checks.Exact(replay_hit, "re-executed answered request missed");
    }
    auto key = std::make_pair(s.epoch, line.text);
    auto it = verified.find(key);
    if (it == verified.end()) {
      if (s.hit) {
        // A hit replays bytes computed at an earlier epoch; recompute them
        // against this epoch's version (untraced).
        if (!rechecked_epochs.insert(s.epoch).second) continue;
        Counters untraced;
        payload = ReplayMc(nullptr, &untraced, *current->db, keys, *p.query,
                           p.answer, p.request.samples, p.request.seed);
      }
      it = verified.emplace(key, payload).first;
    }
    out->checks.Exact(s.payload == it->second,
                      "mc payload differs from the replay at epoch " +
                          std::to_string(s.epoch) + ": served '" + s.payload +
                          "' replayed '" + it->second + "' for '" + line.text +
                          "'");
  }
  out->wal_bytes_per_fact =
      adds == 0 ? 0.0
                : static_cast<double>(wal_size() - wal_start) /
                      static_cast<double>(adds);
  uocqa::RemoveFileIfExists(wal_path);
}

// ---------------------------------------------------------------------------
// Report

struct Percentiles {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;   // the tail's percentile
  size_t p50_rank = 0;   // 0-based ranks in the sorted sample
  size_t tail_rank = 0;
};

/// p50, and the highest percentile with at least 10 samples beyond it.
Percentiles ComputePercentiles(std::vector<double> v) {
  Percentiles out;
  out.n = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  out.p50 = Median(v);
  out.p50_rank = (v.size() - 1) / 2;
  out.tail_rank = v.size() > 10 ? v.size() - 11 : 0;
  out.tail = v[out.tail_rank];
  out.tail_pct = 100.0 * static_cast<double>(out.tail_rank + 1) /
                 static_cast<double>(v.size());
  return out;
}

/// Percentile-placement guard. Classes are ordered by median latency and
/// occupy consecutive bands of the sorted sample. A band edge is a real
/// boundary when the class medians on its two sides differ by at least
/// kSeparation; a percentile whose rank sits within a margin of a real
/// boundary would swing between classes from run to run.
bool PlacementGuard(const std::vector<std::pair<std::string, double>>& samples,
                    const Percentiles& pct) {
  constexpr double kSeparation = 1.5;
  std::map<std::string, std::vector<double>> by_class;
  for (const auto& [cls, ms] : samples) by_class[cls].push_back(ms);
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [cls, v] : by_class) order.emplace_back(Median(v), cls);
  std::sort(order.begin(), order.end());
  std::vector<double> boundaries;  // rank positions of real boundaries
  size_t cumulative = 0;
  std::printf("percentile placement (classes by median latency):\n");
  for (size_t i = 0; i < order.size(); ++i) {
    const auto& [median, cls] = order[i];
    size_t count = by_class[cls].size();
    std::printf("  band [%zu, %zu)  %-24s median %.4f ms\n", cumulative,
                cumulative + count, cls.c_str(), median);
    cumulative += count;
    if (i + 1 < order.size() && order[i + 1].first >= kSeparation * median) {
      boundaries.push_back(static_cast<double>(cumulative));
    }
  }
  auto distance = [&](size_t rank) {
    double best = 1e300;
    for (double b : boundaries) {
      best = std::min(best, std::fabs(static_cast<double>(rank) + 0.5 - b));
    }
    return best;
  };
  double p50_margin =
      std::max(3.0, 0.05 * static_cast<double>(pct.n));
  double tail_margin = 5.0;
  double d50 = distance(pct.p50_rank);
  double dtail = distance(pct.tail_rank);
  bool ok = d50 >= p50_margin && dtail >= tail_margin;
  auto fmt_distance = [](double d) {
    return d > 1e299 ? std::string("no boundary") : FormatDouble(d);
  };
  std::printf(
      "  p50 rank %zu of %zu: %s samples from a class boundary (need %.1f)\n",
      pct.p50_rank, pct.n, fmt_distance(d50).c_str(), p50_margin);
  std::printf(
      "  tail rank %zu of %zu: %s samples from a class boundary (need %.1f)\n",
      pct.tail_rank, pct.n, fmt_distance(dtail).c_str(), tail_margin);
  std::printf("  guard: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

/// The request class of each served request: the generator's tag, and for
/// reads whether the result cache hit. A hit right after a miss is its own
/// class: the miss has just evicted the processor caches it would use.
std::vector<std::string> ServedClasses(const Inputs& inputs,
                                       const TimedRun& run) {
  std::vector<std::string> out;
  bool after_miss = false;
  for (const Served& s : run.served) {
    std::string cls = inputs.stream[s.line].cls;
    bool read = cls.rfind("read", 0) == 0;
    if (read) cls += s.hit ? (after_miss ? "/hit_after_miss" : "/hit") : "/miss";
    after_miss = read && !s.hit;
    out.push_back(std::move(cls));
  }
  return out;
}

void PrintClassTable(const TimedRun& run,
                     const std::vector<std::string>& classes) {
  std::map<std::string, std::vector<double>> by_class;
  for (size_t i = 0; i < run.served.size(); ++i) {
    by_class[classes[i]].push_back(run.served[i].ms);
  }
  std::printf("request classes:\n");
  for (auto& [cls, v] : by_class) {
    std::sort(v.begin(), v.end());
    std::printf("  %-28s count %6zu  median %10.4f ms  (q1 %.4f, q3 %.4f)\n",
                cls.c_str(), v.size(), Median(v), v[v.size() / 4],
                v[(3 * v.size()) / 4]);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(bool correct, size_t attempted, size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + FormatDouble(v) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void WriteSpans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  out << "request\tclass\twall_us";
  for (int l = 0; l < kLayerCount; ++l) out << '\t' << kLayerNames[l];
  out << '\n';
  for (const Tracer::RequestRow& row : tracer.rows()) {
    out << row.id << '\t' << row.cls << '\t' << row.wall_ns / 1000;
    for (int64_t ns : row.self_ns) out << '\t' << ns / 1000;
    out << '\n';
  }
}

struct Args {
  Workload workload = Workload::kFprasWarm;
  std::string workload_name;
  std::string instance;
  std::string requests;
  std::string scratch;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload_name = value;
    } else if (flag == "--instance") {
      args.instance = value;
    } else if (flag == "--requests") {
      args.requests = value;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload_name == "fpras_warm") {
    args.workload = Workload::kFprasWarm;
  } else if (args.workload_name == "exact_sweep") {
    args.workload = Workload::kExactSweep;
  } else if (args.workload_name == "live_ingest_mc") {
    args.workload = Workload::kLiveIngestMc;
  } else {
    Die("unknown workload '" + args.workload_name + "'");
  }
  if (args.instance.empty() || args.requests.empty() || args.scratch.empty() ||
      !(args.seconds > 0)) {
    Die("usage: perfbench_harness --workload W --instance F --requests F "
        "--seconds S --trace 0|1 --scratch DIR");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  Inputs inputs = LoadInputs(args.instance, args.requests);
  const bool live = args.workload == Workload::kLiveIngestMc;
  const std::string wal_path = args.scratch + "/serve.wal";

  // 1. Set-up; the last server is the one that serves.
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    Clock::time_point t0 = Clock::now();
    server = SetUp(args.workload, inputs, wal_path);
    setup_s.push_back(SecondsSince(t0));
  }

  // 2. The timed closed loop.
  TimedRun run = RunTimed(*server->service, inputs, args.seconds);
  const double peak_rss_mb = PeakRssMb();

  // 3 + 4. Traced replay and checks.
  const double replay_budget_s = args.trace ? args.seconds / 2 : 0.0;
  ReplayResult replay;
  switch (args.workload) {
    case Workload::kFprasWarm:
      ReplayFpras(inputs, run, replay_budget_s, &replay);
      break;
    case Workload::kExactSweep:
      ReplayExactSweep(inputs, run, replay_budget_s, &replay);
      break;
    case Workload::kLiveIngestMc:
      ReplayLive(inputs, run, *server->service, args.scratch + "/replay.wal",
                 &replay);
      break;
  }
  // service.cache_hit on the static workloads: a probe after the replay.
  if (!live) {
    HitProbe probe(*server->service, inputs, run);
    for (int i = 0; i < 64; ++i) {
      replay.checks.Exact(probe.Run(&replay.tracer),
                          "re-executed answered request missed");
    }
  }

  // End-to-end figures from the timed loop.
  size_t failed = 0;
  std::vector<double> latencies;
  std::vector<std::pair<std::string, double>> classed;
  std::vector<double> publish_ms;
  std::map<size_t, double> served_ms;  // by stream line
  const std::vector<std::string> classes = ServedClasses(inputs, run);
  for (size_t i = 0; i < run.served.size(); ++i) {
    const Served& s = run.served[i];
    if (!s.ok) ++failed;
    served_ms[s.line] = s.ms;
    const std::string& tag = inputs.stream[s.line].cls;
    if (tag == "publish") publish_ms.push_back(s.ms);
    if (live && tag.rfind("read", 0) != 0) continue;
    latencies.push_back(s.ms);
    classed.emplace_back(classes[i], s.ms);
  }
  const size_t attempted = run.served.size();
  const double throughput = attempted / run.window_s;
  Percentiles pct = ComputePercentiles(latencies);
  const double error_rate =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;

  auto frac = [](size_t hits, size_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) / (hits + misses);
  };
  const double result_hit_frac =
      frac(run.after.result_hits - run.before.result_hits,
           run.after.result_misses - run.before.result_misses);
  const double plan_hit_frac =
      frac(run.after.plan_hits - run.before.plan_hits,
           run.after.plan_misses - run.before.plan_misses);

  const Tracer& tr = replay.tracer;
  const double coverage =
      tr.request_wall_ns() == 0
          ? 0.0
          : static_cast<double>(tr.request_covered_ns()) /
                static_cast<double>(tr.request_wall_ns());
  // Traced replay vs untraced service over the same requests.
  double untraced_ms = 0;
  for (const Tracer::RequestRow& row : tr.rows()) {
    untraced_ms += served_ms.at(row.id);
  }
  const double traced_ms = static_cast<double>(tr.request_wall_ns()) / 1e6;
  const double overhead_frac = traced_ms / untraced_ms - 1.0;
  const double overhead_share =
      1.0 - static_cast<double>(tr.request_covered_ns()) / 1e6 / untraced_ms;
  const double per_request =
      replay.requests == 0 ? 0.0 : 1.0 / static_cast<double>(replay.requests);
  const uint64_t eval_calls = replay.counters.eval_calls;

  std::printf("== perfbench %s: closed loop, 1 client, threads=1, %.1f s ==\n",
              args.workload_name.c_str(), run.window_s);
  PrintClassTable(run, classes);
  bool guard_ok = PlacementGuard(classed, pct);

  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"throughput_rps", throughput, "1/s"},
      {"latency_p50_ms", pct.p50, "ms"},
      {"latency_tail_ms", pct.tail, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::printf("end-to-end:\n");
  for (const Metric& m : e2e) {
    std::printf("  %-18s %14.6f %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name == "latency_tail_ms") {
      std::printf("   (p%.2f: %zu of %zu samples beyond)", pct.tail_pct,
                  pct.n - pct.tail_rank - 1, pct.n);
    }
    if (m.name == "setup_s") {
      std::printf("   (median of");
      for (double t : setup_s) std::printf(" %.4f", t);
      std::printf(")");
    }
    std::printf("\n");
  }
  std::printf("  %-18s %14.6f      (%zu of %zu requests)\n", "error_rate",
              error_rate, failed, attempted);
  std::printf("  %-18s %14.6f      (%llu checks)\n", "answers_ok_frac",
              replay.checks.ok_frac(),
              static_cast<unsigned long long>(replay.checks.checked()));
  if (live) {
    std::printf("  %-18s %14.6f ms   (%zu begin_snapshot)\n", "publish_p50_ms",
                Median(publish_ms), publish_ms.size());
  }

  std::vector<Metric> layers = {
      {"db.subset_us", tr.Mean(kSubset, 1e3), "us"},
      {"db.subset_calls",
       static_cast<double>(tr.totals(kSubset).calls) * per_request, "count"},
      {"db.subset_share", tr.Share(kSubset), "frac"},
      {"db.load_ms", tr.Mean(kLoad, 1e6), "ms"},
      {"db.blocks_ms", tr.Mean(kBlocks, 1e6), "ms"},
      {"repairs.exact_ur_ms", tr.Mean(kExactUr, 1e6), "ms"},
      {"repairs.exact_us_ms", tr.Mean(kExactUs, 1e6), "ms"},
      {"repairs.enumerated",
       static_cast<double>(replay.counters.enumerated) * per_request, "count"},
      {"repairs.rep_sampler_build_ms", tr.Mean(kRepSamplerBuild, 1e6), "ms"},
      {"repairs.seq_sampler_build_ms", tr.Mean(kSeqSamplerBuild, 1e6), "ms"},
      {"repairs.rep_sample_us", tr.Mean(kRepSample, 1e3), "us"},
      {"repairs.seq_sample_us", tr.Mean(kSeqSample, 1e3), "us"},
      {"repairs.apply_seq_us", tr.Mean(kApplySeq, 1e3), "us"},
      {"repairs.denominators_ms", tr.Mean(kDenominators, 1e6), "ms"},
      {"query.parse_us", tr.Mean(kQueryParse, 1e3), "us"},
      {"query.eval_us", tr.Mean(kEval, 1e3), "us"},
      {"query.eval_nodes",
       eval_calls == 0 ? 0.0
                       : static_cast<double>(replay.counters.eval_nodes) /
                             static_cast<double>(eval_calls),
       "count"},
      {"ocqa.compile_ms", tr.Mean(kCompile, 1e6), "ms"},
      {"planner.plan_us", replay.plan_us, "us"},
      {"ocqa.rep_build_ms", tr.Mean(kRepBuild, 1e6), "ms"},
      {"ocqa.seq_build_ms", tr.Mean(kSeqBuild, 1e6), "ms"},
      {"ocqa.seq_states", static_cast<double>(replay.seq_states), "count"},
      {"ocqa.seq_transitions", static_cast<double>(replay.seq_transitions),
       "count"},
      {"automata.fpras_ur_ms", tr.Mean(kFprasUr, 1e6), "ms"},
      {"automata.fpras_us_ms", tr.Mean(kFprasUs, 1e6), "ms"},
      {"automata.union_trials",
       static_cast<double>(replay.counters.union_trials) * per_request,
       "count"},
      {"automata.share", tr.Share(kFprasUr) + tr.Share(kFprasUs), "frac"},
      {"service.request_parse_us", tr.Mean(kRequestParse, 1e3), "us"},
      {"service.cache_hit_us", tr.Mean(kCacheHit, 1e3), "us"},
      {"service.result_hit_frac", result_hit_frac, "frac"},
      {"service.plan_hit_frac", plan_hit_frac, "frac"},
      {"service.overhead_share", overhead_share, "frac"},
      {"live.add_us", tr.Mean(kLiveAdd, 1e3), "us"},
      {"live.wal_bytes_per_fact", replay.wal_bytes_per_fact, "B"},
      {"live.publish_ms", tr.Mean(kLivePublish, 1e6), "ms"},
      {"live.context_install_ms", tr.Mean(kContextInstall, 1e6), "ms"},
      {"trace.coverage", coverage, "frac"},
      {"trace.overhead_frac", overhead_frac, "frac"},
      {"e2e.error_rate", error_rate, "frac"},
      {"e2e.answers_ok_frac", replay.checks.ok_frac(), "frac"},
      {"e2e.publish_p50_ms", Median(publish_ms), "ms"},
  };

  std::printf("traced replay: %zu requests in %.3f s (untraced %.3f s); "
              "traced/untraced throughput %.4f\n",
              replay.requests, traced_ms / 1e3, untraced_ms / 1e3,
              untraced_ms / traced_ms);
  std::printf("layer shares of replayed request time (self time):\n");
  for (int l = 0; l < kLayerCount; ++l) {
    const Tracer::Totals& t = tr.totals(static_cast<Layer>(l));
    if (t.calls == 0) continue;
    std::printf("  %-28s calls %9llu  self %10.2f ms  share %.4f\n",
                kLayerNames[l], static_cast<unsigned long long>(t.calls),
                static_cast<double>(t.self_ns) / 1e6,
                tr.Share(static_cast<Layer>(l)));
  }
  std::printf("  %-28s %.4f (need >= 0.9)\n", "coverage", coverage);
  std::printf("per-layer:\n");
  for (const Metric& m : layers) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (args.trace) WriteSpans(args.scratch + "/spans.tsv", tr);

  bool coverage_ok = coverage >= 0.9;
  bool correct = replay.checks.passed();
  for (const std::string& f : replay.checks.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  if (!coverage_ok) {
    std::fprintf(stderr, "trace coverage %.4f is below 0.9\n", coverage);
  }
  if (!guard_ok) {
    std::fprintf(stderr, "percentile-placement guard failed\n");
    return 3;
  }
  std::printf("%s\n", MetricsJson(correct && coverage_ok, attempted, failed,
                                  args.trace ? layers : e2e)
                          .c_str());
  std::fflush(stdout);
  return correct && coverage_ok ? 0 : 1;
}
