// uocqa_serve — batch/serving front end over the query service layer.
//
// Usage:
//   uocqa_serve --db FILE [--requests FILE] [--threads N]
//               [--plan-cache N] [--result-cache N] [--max-width K]
//               [--wal PATH] [--wal-sync none|batch|every] [--max-queue N]
//               [--metrics-file PATH] [--metrics-every N]
//               [--slow-query-micros N] [--version]
//
// Loads one instance and serves many OCQA requests against it, one request
// per line (from --requests FILE, else stdin), in the line protocol of
// docs/FORMATS.md:
//
//   query='Ans(x) :- Emp(x, y)' answer=e1 mode=fpras epsilon=0.3
//
// Prints one result line per request on stdout, in request order, and a
// cache-statistics summary line on stderr. Repeated queries hit the plan
// cache (compiled decomposition/normal-form/automata state is reused);
// repeated identical requests hit the result cache and replay the answer
// byte-identically. Per-request failures become `N error '...'` lines, not
// process failures.
//
// A request with `explain=1` gets the compiled plan's `plan_*` fields
// appended to its payload; a bare `stats` line reports the cache counters
// and per-plan planning times at the moment it is served (put it last, or
// run with --threads 1, for counters that reflect the whole batch).
//
// The instance is served *live*: the write verbs
//
//   add_fact rel=Emp args='e9,d1'
//   begin_snapshot
//   epoch
//   wal_sync
//
// queue facts, merge them into a new MVCC epoch, report the served epoch,
// and force the log to stable storage. Write verbs are serial barriers
// within a batch — the query runs between them execute in parallel against
// a fixed epoch, so the response lines are byte-identical at any --threads
// value. Every response line carries an `epoch=` stamp (see docs/FORMATS.md).
//
// Durability: --wal PATH logs every accepted mutation ahead of applying it
// and replays the log on startup, so ingested facts survive a crash. A torn
// tail (the crash arrived mid-write) is detected by CRC and discarded;
// startup reports what recovery found on stderr:
//
//   wal recovered=1 records=R truncated=T epoch=E facts=F fingerprint=HEX
//
// --wal-sync picks the durability/throughput point (see docs/FORMATS.md).
// --max-queue N sheds requests beyond N per barrier-delimited span with a
// structured `err busy` line instead of queueing without bound. On SIGTERM
// the server stops between chunks, drains in-flight requests, syncs the
// WAL, writes the final metrics file, and exits 0.
//
// Startup failures use distinct exit codes so a supervisor can tell them
// apart (documented in docs/FORMATS.md):
//
//   2  usage error (bad flags)
//   3  --db missing or unparseable
//   4  --metrics-file not writable
//   5  --wal unreadable, not a WAL, or inconsistent with --db
//   6  --requests missing or unreadable
//
// Observability: --metrics-file PATH writes the Prometheus text exposition
// of the service's metrics registry after the batch (and, with
// --metrics-every N, re-writes it after every N requests while the batch
// runs, with response ids continuing across chunks). --slow-query-micros N
// logs any query at or over N microseconds of service time to stderr with
// its per-stage breakdown. None of this changes a single response byte.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/version.h"
#include "db/textio.h"
#include "service/service.h"
#include "service/wal.h"
#include "cli_util.h"

using namespace uocqa;

namespace {

// Distinct startup exit codes (see the file comment and docs/FORMATS.md).
constexpr int kExitUsage = 2;
constexpr int kExitBadDb = 3;
constexpr int kExitBadMetricsFile = 4;
constexpr int kExitBadWal = 5;
constexpr int kExitBadRequests = 6;

/// Requests served per ExecuteBatchLines call when --metrics-every is off.
/// Chunking bounds how long a SIGTERM waits for in-flight work; response
/// bytes are chunking-invariant (the batch determinism contract).
constexpr size_t kDefaultChunk = 256;

volatile std::sig_atomic_t g_sigterm = 0;

void HandleSigterm(int) { g_sigterm = 1; }

struct ServeOptions {
  std::string db_path;
  std::string requests_path;  // empty = stdin
  size_t threads = 0;         // batch lanes; 0 = hardware concurrency
  std::string wal_path;       // --wal; empty = no durability
  WalSyncPolicy wal_sync = WalSyncPolicy::kBatch;
  std::string metrics_path;   // --metrics-file; empty = no exposition file
  size_t metrics_every = 0;   // re-write the file every N requests; 0 = end only
  bool show_version = false;  // --version: print build info and exit
  ServiceOptions service;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --db FILE [--requests FILE] [--threads N]\n"
      "          [--plan-cache N] [--result-cache N] [--max-width K]\n"
      "          [--wal PATH] [--wal-sync none|batch|every] [--max-queue N]\n"
      "          [--metrics-file PATH] [--metrics-every N]\n"
      "          [--slow-query-micros N] [--version]\n"
      "reads one request per line (see docs/FORMATS.md), writes one result\n"
      "line per request on stdout and a stats summary on stderr\n",
      argv0);
}

bool ParseArgs(int argc, char** argv, ServeOptions* out) {
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
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      const char* v = need_value("--requests");
      if (!v) return false;
      out->requests_path = v;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = need_value("--threads");
      if (!v || !SizeFlag("--threads", v, &out->threads)) return false;
    } else if (std::strcmp(argv[i], "--plan-cache") == 0) {
      const char* v = need_value("--plan-cache");
      if (!v ||
          !SizeFlag("--plan-cache", v, &out->service.plan_cache_capacity)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--result-cache") == 0) {
      const char* v = need_value("--result-cache");
      if (!v || !SizeFlag("--result-cache", v,
                          &out->service.result_cache_capacity)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--max-width") == 0) {
      const char* v = need_value("--max-width");
      if (!v || !SizeFlag("--max-width", v, &out->service.max_width)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--wal") == 0) {
      const char* v = need_value("--wal");
      if (!v) return false;
      out->wal_path = v;
    } else if (std::strcmp(argv[i], "--wal-sync") == 0) {
      const char* v = need_value("--wal-sync");
      if (!v) return false;
      Result<WalSyncPolicy> policy = ParseWalSyncPolicy(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
        return false;
      }
      out->wal_sync = *policy;
    } else if (std::strcmp(argv[i], "--max-queue") == 0) {
      const char* v = need_value("--max-queue");
      if (!v || !SizeFlag("--max-queue", v, &out->service.max_queue)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--metrics-file") == 0) {
      const char* v = need_value("--metrics-file");
      if (!v) return false;
      out->metrics_path = v;
    } else if (std::strcmp(argv[i], "--metrics-every") == 0) {
      const char* v = need_value("--metrics-every");
      if (!v || !SizeFlag("--metrics-every", v, &out->metrics_every)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--slow-query-micros") == 0) {
      const char* v = need_value("--slow-query-micros");
      size_t micros = 0;
      if (!v || !SizeFlag("--slow-query-micros", v, &micros)) return false;
      out->service.slow_query_micros = static_cast<uint64_t>(micros);
    } else if (std::strcmp(argv[i], "--version") == 0) {
      out->show_version = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  if (out->show_version) return true;
  return !out->db_path.empty();
}

/// Rewrites the Prometheus text exposition of the service's registry to
/// `path` (whole-file rewrite, the standard textfile-collector pattern).
bool WriteMetricsFile(const QueryService& service, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                 path.c_str());
    return false;
  }
  file << service.metrics()->PrometheusText();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage(argv[0]);
    return kExitUsage;
  }
  if (opts.show_version) {
    std::printf("%s\n", VersionBanner().c_str());
    return 0;
  }
  auto inst = LoadInstanceFile(opts.db_path);
  if (!inst.ok()) {
    std::fprintf(stderr, "error: %s\n", inst.status().ToString().c_str());
    return kExitBadDb;
  }
  // Probe --metrics-file for writability up front (append mode: the probe
  // must not wipe a previous run's exposition), so a bad path is a distinct
  // startup failure instead of a lost write after the batch.
  if (!opts.metrics_path.empty()) {
    std::ofstream probe(opts.metrics_path, std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                   opts.metrics_path.c_str());
      return kExitBadMetricsFile;
    }
  }

  std::vector<std::string> lines;
  if (opts.requests_path.empty()) {
    lines = ReadRequestLines(std::cin);
  } else {
    std::ifstream file(opts.requests_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot read requests file '%s'\n",
                   opts.requests_path.c_str());
      return kExitBadRequests;
    }
    lines = ReadRequestLines(file);
  }

  // One registry shared by recovery and the service, so uocqa_recovery_us
  // (recorded before the service exists) lands in the same exposition.
  MetricsRegistry registry;
  opts.service.metrics = &registry;

  LiveInstance live(std::move(inst->db), std::move(inst->keys));
  if (!opts.wal_path.empty()) {
    auto recovered = RecoverAndAttachWal(
        opts.wal_path, opts.wal_sync, &live, &registry);
    if (!recovered.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   recovered.status().ToString().c_str());
      return kExitBadWal;
    }
    // The epoch/fingerprint tail of this line is what the crash-recovery
    // smoke compares across restarts — keep it stable.
    std::shared_ptr<const InstanceSnapshot> snap = live.Current();
    std::fprintf(stderr,
                 "wal recovered=%d records=%llu truncated=%llu epoch=%llu "
                 "facts=%llu fingerprint=%016llx\n",
                 recovered->existed ? 1 : 0,
                 static_cast<unsigned long long>(recovered->records),
                 static_cast<unsigned long long>(recovered->truncated_bytes),
                 static_cast<unsigned long long>(snap->epoch),
                 static_cast<unsigned long long>(snap->db->size()),
                 static_cast<unsigned long long>(snap->fingerprint));
  }
  QueryService service(live, opts.service);
  // Log the build and the runtime-selected SIMD backend once on startup, on
  // stderr so response parsing on stdout is unaffected.
  std::fprintf(stderr, "%s\n", VersionBanner().c_str());

  std::signal(SIGTERM, HandleSigterm);

  // Always-chunked serving: a SIGTERM is honored between chunks (in-flight
  // requests drain, later ones are never started), and --metrics-every N
  // re-writes the exposition file at its own chunk boundary so a scrape
  // sees progress mid-batch. Response ids stay continuous and the per-line
  // bytes are identical to a single-batch run (the batch determinism
  // contract holds at any lane count, hence at any chunking).
  const size_t chunk_size =
      opts.metrics_every > 0 ? opts.metrics_every : kDefaultChunk;
  size_t served = 0;
  while (served < lines.size() && g_sigterm == 0) {
    size_t take = std::min(chunk_size, lines.size() - served);
    std::vector<std::string> chunk(lines.begin() + served,
                                   lines.begin() + served + take);
    PrintResponseLines(service.ExecuteBatchLines(chunk, opts.threads),
                       served + 1);
    served += take;
    if (opts.metrics_every > 0 && !opts.metrics_path.empty() &&
        !WriteMetricsFile(service, opts.metrics_path)) {
      return kExitBadMetricsFile;
    }
  }
  if (g_sigterm != 0) {
    std::fprintf(stderr, "sigterm: drained in-flight requests, %llu of %llu "
                 "served\n",
                 static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(lines.size()));
  }
  // Graceful shutdown epilogue (normal end or SIGTERM): make the log
  // durable, then write the final exposition, then the summary.
  Status sync_status = live.SyncWal();
  if (!sync_status.ok()) {
    std::fprintf(stderr, "error: final wal sync: %s\n",
                 sync_status.ToString().c_str());
    return 1;
  }
  if (!opts.metrics_path.empty() &&
      !WriteMetricsFile(service, opts.metrics_path)) {
    return kExitBadMetricsFile;
  }
  PrintServedSummary(service, served);
  return 0;
}
