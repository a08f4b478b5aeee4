// uocqa — command-line front end.
//
// Usage:
//   uocqa --db FILE --query "Ans(x) :- R(x,y), S(y,z)"
//         [--answer v1,v2,...] [--mode exact|fpras|mc|all]
//         [--epsilon E] [--delta D] [--samples N] [--seed S]
//         [--threads N] [--profile]
//   uocqa --db FILE --batch FILE [--threads N]
//   uocqa --version
//
// The database file uses the text format of db/textio.h:
//   key Emp = 1
//   Emp(1, Alice)
//   Emp(1, Tom)
//
// Prints RF_ur and RF_us for the given candidate answer under the chosen
// solver(s). With --explain, first prints the compiled query plan (join
// order, cost estimates, chosen decomposition, planning time). With
// --profile, prints a per-stage timing breakdown (the service layer's trace
// grammar: parse_us, compile_us, exact_dp_us, ...) to stderr after the
// results — stdout bytes are unchanged. With --batch, runs every request
// line of the file through the query service layer (plan & result caches,
// lanes = --threads) and prints one result line each. Formats, flags, and
// the request line protocol are specified in docs/FORMATS.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/strings.h"
#include "base/thread_pool.h"
#include "base/version.h"
#include "db/textio.h"
#include "ocqa/engine.h"
#include "query/parser.h"
#include "service/service.h"
#include "cli_util.h"

using namespace uocqa;

namespace {

struct CliOptions {
  std::string db_path;
  std::string query_text;
  std::string answer_text;
  std::string batch_path;
  std::string mode = "all";
  double epsilon = 0.2;
  double delta = 0.1;
  size_t samples = 20000;
  uint64_t seed = 1;
  size_t threads = 0;  // 0 = hardware concurrency
  bool explain = false;
  bool profile = false;  // per-stage timing breakdown on stderr
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --db FILE --query 'Ans(..) :- ...' [--answer v1,v2]\n"
      "          [--mode exact|fpras|mc|all] [--epsilon E] [--delta D]\n"
      "          [--samples N] [--seed S] [--threads N]\n"
      "          [--explain] [--profile]\n"
      "       %s --db FILE --batch FILE [--threads N]\n"
      "       %s --version\n",
      argv0, argv0, argv0);
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--db") == 0) {
      const char* v = need_value("--db");
      if (!v) return false;
      out->db_path = v;
    } else if (std::strcmp(argv[i], "--query") == 0) {
      const char* v = need_value("--query");
      if (!v) return false;
      out->query_text = v;
    } else if (std::strcmp(argv[i], "--answer") == 0) {
      const char* v = need_value("--answer");
      if (!v) return false;
      out->answer_text = v;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      const char* v = need_value("--batch");
      if (!v) return false;
      out->batch_path = v;
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      const char* v = need_value("--mode");
      if (!v) return false;
      out->mode = v;
    } else if (std::strcmp(argv[i], "--epsilon") == 0) {
      const char* v = need_value("--epsilon");
      if (!v) return false;
      out->epsilon = std::atof(v);
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      const char* v = need_value("--delta");
      if (!v) return false;
      out->delta = std::atof(v);
    } else if (std::strcmp(argv[i], "--samples") == 0) {
      const char* v = need_value("--samples");
      if (!v || !SizeFlag("--samples", v, &out->samples)) return false;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = need_value("--seed");
      size_t seed = 0;
      if (!v || !SizeFlag("--seed", v, &seed)) return false;
      out->seed = static_cast<uint64_t>(seed);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      if (!v || !SizeFlag("--threads", v, &out->threads)) return false;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      out->explain = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      out->profile = true;
    } else if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", VersionBanner().c_str());
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (out->mode != "exact" && out->mode != "fpras" && out->mode != "mc" &&
      out->mode != "all") {
    std::fprintf(stderr, "unknown mode: %s\n", out->mode.c_str());
    return false;
  }
  // Accuracy/budget validation is shared with the service request parser:
  // bad values are usage errors here, per-request errors there.
  Status accuracy =
      ValidateAccuracy(out->epsilon, out->delta, out->samples);
  if (!accuracy.ok()) {
    std::fprintf(stderr, "%s\n", accuracy.ToString().c_str());
    return false;
  }
  if (!out->batch_path.empty()) {
    if (out->profile) {
      std::fprintf(stderr,
                   "--profile applies to single-query mode; with --batch use "
                   "per-request trace=1 fields instead\n");
      return false;
    }
    return !out->db_path.empty();
  }
  return !out->db_path.empty() && !out->query_text.empty();
}

/// The --batch path: every request line of `path` through the service layer.
int RunBatch(const CliOptions& opts, const ParsedInstance& inst) {
  std::ifstream file(opts.batch_path);
  if (!file) {
    std::fprintf(stderr, "error: cannot read batch file '%s'\n",
                 opts.batch_path.c_str());
    return 1;
  }
  std::vector<std::string> lines = ReadRequestLines(file);
  QueryService service(inst.db, inst.keys);
  PrintBatchResponses(service,
                      service.ExecuteBatchLines(lines, opts.threads));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage(argv[0]);
    return 2;
  }
  auto inst = LoadInstanceFile(opts.db_path);
  if (!inst.ok()) {
    std::fprintf(stderr, "error: %s\n", inst.status().ToString().c_str());
    return 1;
  }
  if (!opts.batch_path.empty()) return RunBatch(opts, *inst);
  // --profile collects the service layer's trace spans (same keys, same
  // grammar) without a service: null histograms, trace only.
  metrics::StageTrace trace;
  trace.active = opts.profile;
  auto query = [&]() -> Result<ConjunctiveQuery> {
    metrics::ScopedStage parse_stage(nullptr, &trace, "parse_us");
    return ParseQuery(opts.query_text, inst->db.schema());
  }();
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::vector<Value> answer;
  if (!opts.answer_text.empty()) {
    for (const std::string& piece : StrSplit(opts.answer_text, ',')) {
      answer.push_back(ValuePool::Intern(std::string(StrTrim(piece))));
    }
  }
  if (answer.size() != query->answer_vars().size()) {
    std::fprintf(stderr,
                 "answer arity mismatch: query has %zu answer variables, "
                 "--answer provided %zu constants\n",
                 query->answer_vars().size(), answer.size());
    return 1;
  }

  std::printf("database: %zu facts, consistent: %s\n", inst->db.size(),
              IsConsistent(inst->db, inst->keys) ? "yes" : "no");
  std::printf("query:    %s\n", query->ToString().c_str());
  std::printf("threads:  %zu%s\n\n",
              opts.threads == 0 ? HardwareThreads() : opts.threads,
              opts.threads == 0 ? " (hardware)" : "");

  OcqaEngine engine(inst->db, inst->keys);
  {
    metrics::ScopedStage total_stage(nullptr, &trace, "total_us");
    if (opts.explain) {
      auto compiled = [&]() -> Result<CompiledQuery> {
        metrics::ScopedStage compile_stage(nullptr, &trace, "compile_us");
        return engine.Compile(*query);
      }();
      if (compiled.ok()) {
        std::printf("%s\n", compiled->plan().ToString().c_str());
      } else {
        std::printf("explain unavailable: %s\n\n",
                    compiled.status().ToString().c_str());
      }
    }
    bool all = opts.mode == "all";
    if (all || opts.mode == "exact") {
      metrics::ScopedStage exact_stage(nullptr, &trace, "exact_dp_us");
      ExactRF ur = engine.ExactUr(*query, answer);
      ExactRF us = engine.ExactUs(*query, answer);
      std::printf("exact  RF_ur = %s / %s = %.6f\n",
                  ur.numerator.ToString().c_str(),
                  ur.denominator.ToString().c_str(), ur.value());
      std::printf("exact  RF_us = %s / %s = %.6f\n",
                  us.numerator.ToString().c_str(),
                  us.denominator.ToString().c_str(), us.value());
      AddExactCounts(ur, us, &trace);
    }
    if (all || opts.mode == "fpras") {
      OcqaOptions options;
      options.fpras.epsilon = opts.epsilon;
      options.fpras.delta = opts.delta;
      options.fpras.seed = opts.seed;
      options.threads = opts.threads;
      metrics::ScopedStage fpras_stage(nullptr, &trace, "fpras_trials_us");
      auto ur = engine.ApproxUr(*query, answer, options);
      if (ur.ok()) {
        std::printf("fpras  RF_ur ~= %.6f  (eps=%.2f, %zu states)\n",
                    ur->value, opts.epsilon, ur->automaton_states);
      } else {
        std::printf("fpras  RF_ur unavailable: %s\n",
                    ur.status().ToString().c_str());
      }
      auto us = engine.ApproxUs(*query, answer, options);
      if (us.ok()) {
        std::printf("fpras  RF_us ~= %.6f  (eps=%.2f, %zu states)\n",
                    us->value, opts.epsilon, us->automaton_states);
      } else {
        std::printf("fpras  RF_us unavailable: %s\n",
                    us.status().ToString().c_str());
      }
      AddFprasCounts(ur, us, &trace);
    }
    if (all || opts.mode == "mc") {
      metrics::ScopedStage mc_stage(nullptr, &trace, "mc_trials_us");
      std::printf("mc     RF_ur ~= %.6f  (%zu samples)\n",
                  engine.MonteCarloUr(*query, answer, opts.samples, opts.seed,
                                      opts.threads),
                  opts.samples);
      std::printf("mc     RF_us ~= %.6f  (%zu samples)\n",
                  engine.MonteCarloUs(*query, answer, opts.samples, opts.seed,
                                      opts.threads),
                  opts.samples);
      trace.AddCount("mc_samples", 2 * opts.samples);
    }
  }
  if (opts.profile) {
    std::fprintf(stderr, "profile %s\n", trace.ToString().c_str());
  }
  return 0;
}
