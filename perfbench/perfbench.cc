// Repository benchmark: one host-DB stack (a DuckX `host::Database` loaded
// with TPC-H and SSB, a `SiriusEngine` attached through SetAccelerator)
// driven by four workloads on two clocks.
//
//   hot    closed loop, one client, loaded SF 0.01 modeled as SF 100: all
//          35 queries per round in a seeded shuffle after one untimed
//          warm-up pass. Buffer-manager hits, gdf kernels and fusion.
//   cold   hot with the caching region emptied (untimed) before every
//          query: the same buffer-manager layer used for fills.
//   scale  hot at loaded SF 0.1: inputs exceed the real processing pool, so
//          the mem pool, OOM evict-and-retry and CPU fallback do the work.
//   serve  open-loop Poisson arrivals (simulated time) from one
//          LoadGenerator into a QueryServer over the same engine, modeled
//          as SF 1; two tenants (TPC-H, SSB at Zipf skew 1), result cache
//          bypassed.
//
// Every Sirius result is checked against DuckX on the same plan. With
// --trace 1 the run alternates untraced rounds with traced rounds that
// decompose each query into the public module calls Database::Query makes
// and time each one from outside the program.
//
// Usage: perfbench --workload hot|cold|scale|serve|all --seed N
//                  --seconds S --trace 0|1 [--out DIR]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/hash.h"
#include "engine/pipeline.h"
#include "engine/sirius.h"
#include "host/database.h"
#include "opt/optimizer.h"
#include "plan/substrait.h"
#include "serve/load_gen.h"
#include "serve/serve.h"
#include "spans.h"
#include "sql/binder.h"
#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "tpch/queries.h"

namespace perfbench {
namespace {

using namespace sirius;
using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  double loaded_sf = 0.01;
  double modeled_sf = 100;
  bool evict_each_query = false;  ///< cold: empty the caching region first
  bool serve = false;
  double ssb_skew = 0;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 3;
  /// Samples a run takes at least, past --seconds if need be: enough for
  /// ten beyond the p90, and more where each sample is slow and noisy.
  size_t min_samples = 105;
  /// Every query's modeled account must repeat exactly, across rounds and
  /// across runs of the same build (any seed).
  bool check_modeled = false;
};

// Serve load, fixed from a calibration sweep (4-core host; see
// perfbench/README.md). p90 modeled latency is about 19 ms at 100 queries
// per simulated second, 37 ms at 150 and 77 ms at 200; admission starts to
// shed near 400. The rate sits below that knee, where run-to-run spread
// stays small, and the latency limit is the p90 measured at the knee.
constexpr double kServeRateQps = 100;
constexpr double kServeWindowS = 0.5;  ///< simulated seconds per round
constexpr double kServeLatencyLimitMs = 40;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"hot", 0.01, 100, false, false, 0, 3, 105, true},
      {"cold", 0.01, 100, true, false, 0, 3, 105},
      {"scale", 0.05, 100, false, false, 0, 3, 175},
      {"serve", 0.01, 1, false, true, 1.0, 3, 105},
  };
  return specs;
}

struct BenchQuery {
  std::string label;
  const std::string* sql;
};

/// All 22 TPC-H and 13 SSB queries.
const std::vector<BenchQuery>& AllQueries() {
  static const std::vector<BenchQuery> queries = [] {
    std::vector<BenchQuery> q;
    for (int i = 1; i <= tpch::NumQueries(); ++i) {
      q.push_back({"tpch.q" + std::to_string(i), &tpch::Query(i)});
    }
    for (int i = 1; i <= ssb::NumQueries(); ++i) {
      q.push_back({"ssb." + ssb::QueryName(i), &ssb::Query(i)});
    }
    return q;
  }();
  return queries;
}

/// The process's thread budget: the CPUs it may run on, as `nproc` counts.
int ThreadBudget() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::max(1, CPU_COUNT(&cpus));
}

// ---------------------------------------------------------------------------
// The stack under test

struct Stack {
  std::unique_ptr<host::Database> db;
  std::unique_ptr<engine::SiriusEngine> engine;
  std::unique_ptr<serve::QueryServer> server;
};

Result<std::unique_ptr<Stack>> BuildStack(const WorkloadSpec& spec,
                                          uint64_t seed) {
  auto stack = std::make_unique<Stack>();
  const double data_scale = spec.modeled_sf / spec.loaded_sf;
  host::Database::Options db_opts;
  db_opts.data_scale = data_scale;
  stack->db = std::make_unique<host::Database>(db_opts);
  SIRIUS_RETURN_NOT_OK(tpch::LoadTpch(stack->db.get(), spec.loaded_sf));
  ssb::SsbOptions ssb_opts;
  ssb_opts.sf = spec.loaded_sf;
  ssb_opts.skew = spec.ssb_skew;
  // The seed varies SSB data only where it is part of the arrival mix; the
  // closed loops keep one data set so their modeled clock is the same for
  // every seed (the determinism check).
  ssb_opts.seed = spec.serve ? seed : 0;
  SIRIUS_RETURN_NOT_OK(ssb::LoadSsb(stack->db.get(), ssb_opts));

  engine::SiriusEngine::Options eng_opts;
  eng_opts.data_scale = data_scale;
  eng_opts.num_task_threads = ThreadBudget();
  stack->engine =
      std::make_unique<engine::SiriusEngine>(stack->db.get(), eng_opts);
  stack->db->SetAccelerator(stack->engine.get());
  if (spec.serve) {
    serve::ServeOptions serve_opts;
    serve_opts.execution_threads = ThreadBudget();
    stack->server = std::make_unique<serve::QueryServer>(
        stack->db.get(), stack->engine.get(), serve_opts);
  }
  // Warm-up pass (hot-run method, paper §4.1), outside the timed phase but
  // inside setup_s: fills the caching region so the timed phase starts
  // from steady state.
  for (const BenchQuery& q : AllQueries()) {
    SIRIUS_RETURN_NOT_OK(stack->db->Query(*q.sql).status());
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Statistics and reporting

/// Nearest-rank percentile, p in [0, 100], of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return serve::Percentile(v, p);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using MetricList = std::vector<Metric>;

void PrintMetrics(const std::string& title, const MetricList& metrics) {
  std::printf("  %s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("    %-38s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Per-run accumulators

/// Everything the end-to-end metrics are computed from.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> wall_ms;        ///< per Sirius-path query
  std::vector<double> duckx_wall_ms;  ///< PlanSql + ExecutePlanCpu
  std::vector<double> sim_ms;         ///< modeled latency per query
  double served_wall_s = 0;  ///< wall time completions are counted over
  double sim_window_s = 0;   ///< simulated time goodput is counted over
  uint64_t completed = 0;
  uint64_t good = 0;  ///< completed within the latency limit
};

MetricList EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", Percentile(e.setup_s, 50), "s"},
      {"wall_ms_p50", Percentile(e.wall_ms, 50), "ms"},
      {"wall_ms_p90", Percentile(e.wall_ms, 90), "ms"},
      {"duckx_wall_ms_p50", Percentile(e.duckx_wall_ms, 50), "ms"},
      {"duckx_wall_ms_p90", Percentile(e.duckx_wall_ms, 90), "ms"},
      {"sim_ms_p50", Percentile(e.sim_ms, 50), "sim_ms"},
      {"sim_ms_p90", Percentile(e.sim_ms, 90), "sim_ms"},
      {"wall_qps", Ratio(static_cast<double>(e.completed), e.served_wall_s),
       "1/s"},
      {"sim_goodput_qps", Ratio(static_cast<double>(e.good), e.sim_window_s),
       "1/sim_s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Counters behind the per-layer metrics.
struct Layers {
  uint64_t attempted = 0;  ///< queries offered to the Sirius path
  uint64_t accelerated = 0;
  uint64_t fell_back = 0;
  uint64_t shed = 0;  ///< serve: abandoned after every retry was shed
  uint64_t wire_bytes = 0;
  uint64_t wire_plans = 0;
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t kernel_launches = 0;
  uint64_t hbm_bytes = 0;
  std::map<sim::OpCategory, double> sim_ms;
  uint64_t modeled_queries = 0;
  std::vector<double> compile_ms;
  std::vector<double> hot_get_ms;
  std::vector<double> hot_get_contended_ms;
  // serve
  std::vector<double> submit_wall_ms;
  std::vector<double> step_wall_ms;
  std::vector<double> queue_wait_sim_ms;
  std::vector<double> exec_solo_sim_ms;
  std::vector<double> slowdown;
  uint64_t retries = 0;
  uint64_t admission_refused = 0;
  // overhead: per-query wall of the same queries, untraced vs traced
  double untraced_ms = 0;
  uint64_t untraced_n = 0;
  double traced_ms = 0;
  uint64_t traced_n = 0;

  void AddModeled(const host::QueryResult& r) {
    kernel_launches += r.kernels.launches;
    hbm_bytes += r.kernels.hbm_bytes();
    for (const auto& [cat, s] : r.timeline.breakdown()) sim_ms[cat] += s * 1e3;
    ++modeled_queries;
    if (r.profile != nullptr) {
      buffer_hits += r.profile->Counter("buffer.hits");
      buffer_misses += r.profile->Counter("buffer.misses");
    }
  }
};

// ---------------------------------------------------------------------------
// Traced decomposition of Database::Query

/// The (table, scan columns) pairs a plan reads.
void CollectScans(const plan::PlanPtr& node,
                  std::vector<std::pair<std::string, std::vector<int>>>* out) {
  if (node->kind == plan::PlanKind::kTableScan) {
    out->emplace_back(node->table_name, node->scan_columns);
  }
  for (const auto& child : node->children) CollectScans(child, out);
}

/// Runs `sql` through the same public calls Database::Query makes
/// (SqlToPlan, Optimize, SerializePlan, DeserializePlan, ExecutePlan, and
/// ExecutePlanCpu when the device declines), one span around each.
/// `optimized` receives the optimized plan.
Result<host::QueryResult> TracedQuery(Stack* stack, const std::string& sql,
                                      uint64_t qid, SpanRecorder* spans,
                                      Layers* layers,
                                      plan::PlanPtr* optimized) {
  host::Database& db = *stack->db;
  ScopedSpan root(spans, "query", qid);
  plan::PlanPtr bound;
  {
    ScopedSpan s(spans, "sql.parse_bind", qid);
    SIRIUS_ASSIGN_OR_RETURN(bound, sql::SqlToPlan(sql, db.catalog()));
  }
  {
    ScopedSpan s(spans, "opt.optimize", qid);
    opt::OptimizerOptions opt_options;
    opt_options.reorder_joins = db.options().engine.reorder_joins;
    SIRIUS_ASSIGN_OR_RETURN(*optimized,
                            opt::Optimize(bound, db.catalog(), opt_options));
  }
  std::string wire;
  {
    ScopedSpan s(spans, "plan.serialize", qid);
    wire = plan::SerializePlan(*optimized);
  }
  layers->wire_bytes += wire.size();
  ++layers->wire_plans;
  Result<plan::PlanPtr> received = Status::Invalid("not deserialized");
  {
    ScopedSpan s(spans, "plan.deserialize", qid);
    received = plan::DeserializePlan(wire, [&db](const std::string& name) {
      return db.catalog().GetTableSchema(name);
    });
  }
  Result<host::QueryResult> device = Status::Invalid("not executed");
  if (received.ok()) {
    ScopedSpan s(spans, "engine.execute", qid);
    device = stack->engine->ExecutePlan(received.ValueOrDie());
  }
  if (received.ok() && device.ok()) {
    host::QueryResult result = std::move(device).ValueOrDie();
    result.optimized_plan = *optimized;
    result.accelerated = true;
    return result;
  }
  // Graceful fallback, as Database::ExecutePlanRouted does it.
  ScopedSpan s(spans, "host.fallback_execute", qid);
  SIRIUS_ASSIGN_OR_RETURN(host::QueryResult result,
                          db.ExecutePlanCpu(*optimized));
  result.fell_back = true;
  return result;
}

/// Layer probes taken after a traced query, outside its span: the pipeline
/// compilers on its plan, and the buffer manager's GetOrCacheColumns over
/// its scan columns on the now-warm cache, from one caller and from
/// ThreadBudget() concurrent callers.
void ProbeLayers(Stack* stack, const plan::PlanPtr& plan, uint64_t qid,
                 SpanRecorder* spans, Layers* layers) {
  const engine::SiriusEngine::Options& eo = stack->engine->options();
  {
    ScopedSpan s(spans, "engine.compile", qid);
    const auto t0 = SteadyClock::now();
    std::vector<engine::Pipeline> pipelines;
    if (engine::PipelineCompiler::Compile(plan, &pipelines).ok()) {
      engine::FusedStageCompiler::Compile(pipelines, eo.device, eo.data_scale,
                                          eo.fusion);
    }
    layers->compile_ms.push_back(MsSince(t0));
  }

  std::vector<std::pair<std::string, std::vector<int>>> scans;
  CollectScans(plan, &scans);
  engine::BufferManager& bm = stack->engine->buffer_manager();
  host::Catalog& catalog = stack->db->catalog();
  auto get_scans = [&]() {
    sim::Timeline timeline;
    sim::SimContext ctx;
    ctx.device = eo.device;
    ctx.engine = eo.profile;
    ctx.data_scale = eo.data_scale;
    ctx.timeline = &timeline;
    const auto t0 = SteadyClock::now();
    for (const auto& [table, columns] : scans) {
      auto host_table = catalog.GetTable(table);
      if (!host_table.ok()) continue;
      (void)bm.GetOrCacheColumns(table, host_table.ValueOrDie(), columns, ctx);
    }
    return MsSince(t0);
  };
  {
    ScopedSpan s(spans, "buffer_manager.hot_get", qid);
    layers->hot_get_ms.push_back(get_scans());
  }
  const int callers = ThreadBudget();
  std::vector<double> ms(static_cast<size_t>(callers), 0.0);
  std::latch start(callers);
  std::vector<std::thread> threads;
  for (int i = 0; i < callers; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      ms[static_cast<size_t>(i)] = get_scans();
    });
  }
  for (auto& t : threads) t.join();
  layers->hot_get_contended_ms.push_back(Mean(ms));
}

/// Errors and result mismatches, counted against the queries attempted;
/// the first few are printed to stderr.
struct Failures {
  uint64_t count = 0;
  void Add(const std::string& label, const std::string& why) {
    ++count;
    if (count <= 10) {
      std::fprintf(stderr, "perfbench: %s: %s\n", label.c_str(), why.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Modeled-clock determinism (hot)

/// One query's modeled account, exact to the bit: it must repeat.
std::string Signature(const host::QueryResult& r) {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", r.timeline.total_seconds());
  os << "total=" << buf;
  for (const auto& [cat, s] : r.timeline.breakdown()) {
    std::snprintf(buf, sizeof(buf), "%a", s);
    os << ' ' << sim::OpCategoryName(cat) << '=' << buf;
  }
  os << " launches=" << r.kernels.launches << " hbm=" << r.kernels.hbm_bytes()
     << " device=" << (r.accelerated ? 1 : 0);
  return os.str();
}

/// Compares this run's per-query modeled signatures with those stored by
/// an earlier run of the same build (any seed), storing them when absent.
/// The store is keyed by a hash of the executable `exe`, so only runs of
/// one build are compared. Returns an empty string when they agree.
std::string CheckAcrossRuns(const std::string& out_dir, const std::string& exe,
                            const std::string& workload,
                            const std::map<std::string, std::string>& sigs) {
  std::ifstream program(exe, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(program)),
                          std::istreambuf_iterator<char>());
  if (bytes.empty()) return "cannot read the executable " + exe;
  std::ostringstream body;
  for (const auto& [label, sig] : sigs) body << label << ' ' << sig << '\n';
  char name[64];
  std::snprintf(name, sizeof(name), "/%s-modeled-%016" PRIx64 ".txt",
                workload.c_str(), HashString(bytes));
  const std::string path = out_dir + name;
  std::ifstream existing(path);
  if (existing) {
    std::stringstream stored;
    stored << existing.rdbuf();
    if (stored.str() != body.str()) {
      return "modeled account differs from the earlier run stored in " + path;
    }
    return "";
  }
  std::ofstream store(path);
  store << body.str();
  return store ? "" : "cannot write " + path;
}

// ---------------------------------------------------------------------------
// Closed loops: hot, cold, scale

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string exe;  ///< this program's path, argv[0]
};

/// Hard stop for a run's timed phase, whatever the sample count.
constexpr double kHardCapS = 120;

struct RunOutput {
  EndToEnd e2e;
  Layers layers;
  Failures failures;
  std::string determinism_error;
};

void RunClosedLoop(const WorkloadSpec& spec, const Args& args, Stack* stack,
                   SpanRecorder* spans, RunOutput* out) {
  host::Database& db = *stack->db;
  engine::BufferManager& bm = stack->engine->buffer_manager();
  const std::vector<BenchQuery>& queries = AllQueries();
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(args.seed);
  std::map<std::string, std::string> signatures;
  EndToEnd& e = out->e2e;
  Layers& l = out->layers;

  const auto t_start = SteadyClock::now();
  uint64_t qid = 0;
  for (int round = 0;; ++round) {
    const double elapsed_s = MsSince(t_start) / 1e3;
    const bool enough =
        args.trace ? round >= 2 : e.wall_ms.size() >= spec.min_samples;
    if ((elapsed_s >= args.seconds && enough) || elapsed_s >= kHardCapS) break;
    // Seeded Fisher-Yates shuffle: the same seed gives the same order.
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng() % (i + 1)]);
    }
    const bool traced = args.trace && round % 2 == 1;
    for (size_t idx : order) {
      const BenchQuery& q = queries[idx];
      ++qid;
      if (spec.evict_each_query) bm.EvictAll();

      plan::PlanPtr optimized;
      const auto t0 = SteadyClock::now();
      auto res = traced ? TracedQuery(stack, *q.sql, qid, spans, &l, &optimized)
                        : db.Query(*q.sql);
      const double wall_ms = MsSince(t0);
      ++l.attempted;
      if (!res.ok()) {
        out->failures.Add(q.label, res.status().ToString());
        continue;
      }
      const host::QueryResult& r = res.ValueOrDie();
      if (r.accelerated) ++l.accelerated;
      if (r.fell_back) ++l.fell_back;
      l.AddModeled(r);
      if (traced) {
        l.traced_ms += wall_ms;
        ++l.traced_n;
      } else {
        l.untraced_ms += wall_ms;
        ++l.untraced_n;
        e.wall_ms.push_back(wall_ms);
        e.sim_ms.push_back(r.timeline.total_seconds() * 1e3);
        e.served_wall_s += wall_ms / 1e3;
        e.sim_window_s += r.timeline.total_seconds();
        ++e.completed;
        ++e.good;  // a closed loop sets no latency limit
      }
      if (spec.check_modeled) {
        const std::string sig = Signature(r);
        auto [it, inserted] = signatures.emplace(q.label, sig);
        if (!inserted && it->second != sig && out->determinism_error.empty()) {
          out->determinism_error = q.label + " modeled account changed " +
                                   "between rounds: " + it->second + " vs " +
                                   sig;
        }
      }

      // DuckX on the same host and the same plan shape: the same-host
      // baseline and the reference result.
      Result<host::QueryResult> cpu = Status::Invalid("not run");
      if (traced) {
        ScopedSpan s(spans, "host.cpu_execute", qid);
        cpu = db.ExecutePlanCpu(optimized);
      } else {
        const auto t1 = SteadyClock::now();
        auto plan = db.PlanSql(*q.sql);
        cpu = plan.ok() ? db.ExecutePlanCpu(plan.ValueOrDie())
                        : Result<host::QueryResult>(plan.status());
        e.duckx_wall_ms.push_back(MsSince(t1));
      }
      if (!cpu.ok()) {
        out->failures.Add(q.label, "DuckX: " + cpu.status().ToString());
        continue;
      }
      std::string why;
      if (!TablesAgree(*r.table, *cpu.ValueOrDie().table, &why)) {
        out->failures.Add(q.label, "result differs from DuckX: " + why);
      }
      if (traced) ProbeLayers(stack, optimized, qid, spans, &l);
    }
  }
  if (spec.check_modeled && out->determinism_error.empty()) {
    out->determinism_error =
        CheckAcrossRuns(args.out_dir, args.exe, spec.name, signatures);
  }
}

// ---------------------------------------------------------------------------
// Serve

/// The QueryServer seen through its public QueryService surface, with
/// every Submit and Step timed on the host clock. It records when each
/// admitted query was submitted and when the call that finalized it
/// returned, and keeps each terminal outcome.
class MeteredService : public serve::QueryService {
 public:
  struct Admitted {
    serve::QueryId id = 0;
    const std::string* sql = nullptr;
    double submit_ms = 0;
    double done_ms = -1;
    serve::QueryOutcome outcome;
  };

  MeteredService(serve::QueryServer* server, SpanRecorder* spans,
                 Layers* layers)
      : server_(server),
        spans_(spans),
        layers_(layers),
        origin_(SteadyClock::now()) {}

  void RegisterTenant(const std::string& tenant, double weight) override {
    server_->RegisterTenant(tenant, weight);
  }
  serve::SessionId OpenSession(const std::string& tenant) override {
    return server_->OpenSession(tenant);
  }

  Result<serve::QueryId> Submit(serve::SessionId session,
                                const std::string& sql,
                                const serve::SubmitOptions& options) override {
    const double t0 = NowMs();
    Result<serve::QueryId> id = Status::Invalid("not submitted");
    {
      ScopedSpan s(spans_, "serve.submit", 0);
      id = server_->Submit(session, sql, options);
    }
    const double t1 = NowMs();
    layers_->submit_wall_ms.push_back(t1 - t0);
    if (id.ok()) {
      index_[id.ValueOrDie()] = admitted_.size();
      Admitted a;
      a.id = id.ValueOrDie();
      a.sql = &sql;  // points into the static TPC-H / SSB query text
      a.submit_ms = t0;
      admitted_.push_back(std::move(a));
      open_.push_back(id.ValueOrDie());
    }
    // Submit dispatches whatever starts before this arrival; note what it
    // finalized.
    for (size_t i = 0; i < open_.size();) {
      auto peek = server_->Peek(open_[i]);
      if (peek.ok() && peek.ValueOrDie().terminal()) {
        MarkDone(open_[i], t1);
        open_[i] = open_.back();
        open_.pop_back();
      } else {
        ++i;
      }
    }
    return id;
  }

  Result<serve::QueryOutcome> Resolve(serve::QueryId id) override {
    SIRIUS_ASSIGN_OR_RETURN(serve::QueryOutcome out, server_->Resolve(id));
    MarkDone(id, NowMs());
    auto it = index_.find(id);
    if (it != index_.end()) admitted_[it->second].outcome = out;
    return out;
  }

  double NextDispatchTime() const override {
    return server_->NextDispatchTime();
  }

  Result<serve::QueryOutcome> Step() override {
    const double t0 = NowMs();
    Result<serve::QueryOutcome> out = Status::Invalid("not stepped");
    {
      ScopedSpan s(spans_, "serve.step", 0);
      out = server_->Step();
    }
    const double t1 = NowMs();
    layers_->step_wall_ms.push_back(t1 - t0);
    if (out.ok()) MarkDone(out.ValueOrDie().id, t1);
    return out;
  }

  Result<serve::QueryOutcome> Peek(serve::QueryId id) const override {
    return server_->Peek(id);
  }

  /// Drains one decision at a time so each is timed like any other Step.
  Status DrainAll() override {
    while (std::isfinite(NextDispatchTime())) {
      SIRIUS_RETURN_NOT_OK(Step().status());
    }
    return Status::OK();
  }

  double now_s() const override { return server_->now_s(); }

  std::vector<Admitted>& admitted() { return admitted_; }

 private:
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                     origin_)
        .count();
  }
  void MarkDone(serve::QueryId id, double at_ms) {
    auto it = index_.find(id);
    if (it == index_.end()) return;
    Admitted& a = admitted_[it->second];
    if (a.done_ms < 0) a.done_ms = at_ms;
  }

  serve::QueryServer* server_;
  SpanRecorder* spans_;
  Layers* layers_;
  SteadyClock::time_point origin_;
  std::vector<Admitted> admitted_;
  std::map<serve::QueryId, size_t> index_;
  std::vector<serve::QueryId> open_;  ///< admitted, not yet seen terminal
};

serve::LoadOptions ServeLoad(uint64_t seed) {
  serve::LoadOptions load;
  load.open_loop = true;
  load.arrival_rate_qps = kServeRateQps;
  load.duration_s = kServeWindowS;
  load.tenants = {"tpch", "ssb"};
  load.num_clients = 2;  // one client slot per tenant; arrivals alternate
  std::vector<serve::QueryRef>& tpch_mix = load.tenant_mix["tpch"];
  for (int q = 1; q <= tpch::NumQueries(); ++q) {
    tpch_mix.push_back({serve::Workload::kTpch, q});
  }
  std::vector<serve::QueryRef>& ssb_mix = load.tenant_mix["ssb"];
  for (int q = 1; q <= ssb::NumQueries(); ++q) {
    ssb_mix.push_back({serve::Workload::kSsb, q});
  }
  load.bypass_cache = true;  // every query executes
  load.seed = seed;
  return load;
}

/// Traced serve rounds replay at most this many of their admitted queries
/// through the traced decomposition.
constexpr size_t kServeReplay = 35;

void RunServe(const WorkloadSpec& spec, const Args& args, Stack* stack,
              SpanRecorder* spans, RunOutput* out) {
  host::Database& db = *stack->db;
  serve::QueryServer& server = *stack->server;
  EndToEnd& e = out->e2e;
  Layers& l = out->layers;
  SpanRecorder untraced(false);
  const uint64_t refused_before = server.total_refused();

  const auto t_start = SteadyClock::now();
  uint64_t qid = 0;
  for (int round = 0;; ++round) {
    const double elapsed_s = MsSince(t_start) / 1e3;
    const bool enough =
        args.trace ? round >= 2 : e.wall_ms.size() >= spec.min_samples;
    if ((elapsed_s >= args.seconds && enough) || elapsed_s >= kHardCapS) break;
    const bool traced = args.trace && round % 2 == 1;

    MeteredService service(&server, traced ? spans : &untraced, &l);
    // A traced round replays the schedule of the untraced round before it,
    // so the overhead compares the same arrivals.
    const uint64_t schedule = static_cast<uint64_t>(traced ? round - 1 : round);
    serve::LoadGenerator generator(
        &service, ServeLoad(HashCombine(args.seed, schedule)));
    const auto t0 = SteadyClock::now();
    auto report = generator.Run();
    const double round_ms = MsSince(t0);
    if (!report.ok()) {
      out->failures.Add("serve round", report.status().ToString());
      continue;
    }
    const serve::LoadReport& rep = report.ValueOrDie();
    const uint64_t offered = rep.submitted - rep.retries;
    l.attempted += offered;
    l.shed += rep.abandoned;
    l.retries += rep.retries;
    if (server.total_reserved_bytes() != 0) {
      out->failures.Add("serve", std::to_string(server.total_reserved_bytes()) +
                                     " reservation bytes left after drain");
    }
    if (traced) {
      l.traced_ms += round_ms;
      l.traced_n += offered;
    } else {
      l.untraced_ms += round_ms;
      l.untraced_n += offered;
      e.served_wall_s += round_ms / 1e3;
      e.sim_window_s += rep.makespan_s;
    }

    size_t replayed = 0;
    for (MeteredService::Admitted& a : service.admitted()) {
      const serve::QueryOutcome& o = a.outcome;
      ++qid;
      if (o.state != serve::QueryState::kCompleted) {
        out->failures.Add("serve query " + std::to_string(o.id),
                          std::string(serve::ToString(o.state)) + ": " +
                              o.status.ToString());
        continue;
      }
      if (o.fell_back) {
        ++l.fell_back;
      } else {
        ++l.accelerated;
      }
      const double sim_ms = o.latency_s() * 1e3;
      l.queue_wait_sim_ms.push_back(o.queue_wait_s() * 1e3);
      l.exec_solo_sim_ms.push_back(o.exec_solo_s * 1e3);
      l.slowdown.push_back(o.slowdown);
      if (!traced) {
        e.wall_ms.push_back(a.done_ms - a.submit_ms);
        e.sim_ms.push_back(sim_ms);
        ++e.completed;
        if (sim_ms <= kServeLatencyLimitMs) ++e.good;
      }

      // DuckX reference (row count) and same-host baseline; traced rounds
      // replay part of the admitted sequence through the traced
      // decomposition instead.
      Result<host::QueryResult> cpu = Status::Invalid("not run");
      if (traced) {
        if (replayed >= kServeReplay) continue;
        ++replayed;
        plan::PlanPtr optimized;
        auto res = TracedQuery(stack, *a.sql, qid, spans, &l, &optimized);
        if (!res.ok()) {
          out->failures.Add("serve replay", res.status().ToString());
          continue;
        }
        l.AddModeled(res.ValueOrDie());
        {
          ScopedSpan s(spans, "host.cpu_execute", qid);
          cpu = db.ExecutePlanCpu(optimized);
        }
        ProbeLayers(stack, optimized, qid, spans, &l);
      } else {
        const auto t1 = SteadyClock::now();
        auto plan = db.PlanSql(*a.sql);
        cpu = plan.ok() ? db.ExecutePlanCpu(plan.ValueOrDie())
                        : Result<host::QueryResult>(plan.status());
        e.duckx_wall_ms.push_back(MsSince(t1));
      }
      if (!cpu.ok()) {
        out->failures.Add("serve DuckX", cpu.status().ToString());
        continue;
      }
      if (cpu.ValueOrDie().table->num_rows() != o.result_rows) {
        out->failures.Add("serve query " + std::to_string(o.id),
                          "rows " + std::to_string(o.result_rows) +
                              " vs DuckX " +
                              std::to_string(
                                  cpu.ValueOrDie().table->num_rows()));
      }
    }
  }
  l.admission_refused = server.total_refused() - refused_before;
}

// ---------------------------------------------------------------------------
// Per-layer report

MetricList LayerMetrics(const RunOutput& run, const SpanRecorder& spans,
                        Stack* stack, const engine::SiriusEngine::Stats& st,
                        uint64_t evictions) {
  const Layers& l = run.layers;
  const std::map<std::string, LayerTime> layers = spans.Layers();
  auto per_call = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0
                              : Ratio(it->second.total_ms,
                                      static_cast<double>(it->second.count));
  };
  const double attempted = static_cast<double>(l.attempted);
  const double modeled = static_cast<double>(l.modeled_queries);
  auto per_query = [&](double v) { return Ratio(v, attempted); };
  auto sim_cat = [&](sim::OpCategory c) {
    auto it = l.sim_ms.find(c);
    return it == l.sim_ms.end() ? 0.0 : Ratio(it->second, modeled);
  };
  engine::BufferManager& bm = stack->engine->buffer_manager();
  const double untraced =
      Ratio(l.untraced_ms, static_cast<double>(l.untraced_n));
  const double traced = Ratio(l.traced_ms, static_cast<double>(l.traced_n));

  MetricList m = {
      {"sql.parse_bind_ms", per_call("sql.parse_bind"), "ms"},
      {"opt.optimize_ms", per_call("opt.optimize"), "ms"},
      {"plan.serialize_ms", per_call("plan.serialize"), "ms"},
      {"plan.deserialize_ms", per_call("plan.deserialize"), "ms"},
      {"plan.wire_bytes",
       Ratio(static_cast<double>(l.wire_bytes),
             static_cast<double>(l.wire_plans)),
       "bytes"},
      {"engine.compile_ms", Mean(l.compile_ms), "ms"},
      {"engine.execute_ms", per_call("engine.execute"), "ms"},
      {"engine.attempt_ok_ratio",
       Ratio(static_cast<double>(l.accelerated), attempted), "ratio"},
      {"engine.pipeline_retries",
       per_query(static_cast<double>(st.pipeline_retries)), "per_query"},
      {"engine.fused_stages", per_query(static_cast<double>(st.fused_stages)),
       "per_query"},
      {"engine.fusion_fallbacks",
       per_query(static_cast<double>(st.fusion_fallbacks)), "per_query"},
      {"buffer_manager.hot_get_ms", Mean(l.hot_get_ms), "ms"},
      {"buffer_manager.hot_get_ms_contended", Mean(l.hot_get_contended_ms),
       "ms"},
      {"buffer_manager.hit_ratio",
       Ratio(static_cast<double>(l.buffer_hits),
             static_cast<double>(l.buffer_hits + l.buffer_misses)),
       "ratio"},
      {"buffer_manager.evictions", per_query(static_cast<double>(evictions)),
       "per_query"},
      {"buffer_manager.cached_modeled_gb",
       static_cast<double>(bm.cached_modeled_bytes()) / 1e9, "GB"},
      {"gdf.kernel_launches",
       Ratio(static_cast<double>(l.kernel_launches), modeled), "per_query"},
      {"gdf.hbm_gb", Ratio(static_cast<double>(l.hbm_bytes), modeled) / 1e9,
       "GB"},
  };
  for (sim::OpCategory c :
       {sim::OpCategory::kScan, sim::OpCategory::kFilter,
        sim::OpCategory::kProject, sim::OpCategory::kJoin,
        sim::OpCategory::kGroupBy, sim::OpCategory::kAggregate,
        sim::OpCategory::kOrderBy, sim::OpCategory::kExchange,
        sim::OpCategory::kOther}) {
    m.push_back({std::string("sim.") + sim::OpCategoryName(c) + "_ms",
                 sim_cat(c), "sim_ms"});
  }
  const MetricList rest = {
      {"host.cpu_execute_ms", per_call("host.cpu_execute"), "ms"},
      {"mem.oom_events", per_query(static_cast<double>(st.oom_events)),
       "per_query"},
      {"mem.evictions_under_pressure",
       per_query(static_cast<double>(st.evictions_under_pressure)),
       "per_query"},
      {"mem.spill_events", per_query(static_cast<double>(st.spill_events)),
       "per_query"},
      {"mem.reservation_high_water_gb",
       static_cast<double>(bm.processing_reservations().high_water()) / 1e9,
       "GB"},
      {"mem.admission_refused",
       per_query(static_cast<double>(l.admission_refused)), "per_query"},
      {"serve.queue_wait_sim_ms_p90", Percentile(l.queue_wait_sim_ms, 90),
       "sim_ms"},
      {"serve.exec_solo_sim_ms_p50", Percentile(l.exec_solo_sim_ms, 50),
       "sim_ms"},
      {"serve.slowdown_mean", Mean(l.slowdown), "x"},
      {"serve.retries", per_query(static_cast<double>(l.retries)),
       "per_query"},
      {"trace.coverage_pct", spans.CoveragePct("query"), "%"},
      {"trace.overhead_pct", untraced > 0 ? 100.0 * (traced / untraced - 1) : 0,
       "%"},
      {"fallback_ratio", per_query(static_cast<double>(l.fell_back)), "ratio"},
      {"shed_ratio", per_query(static_cast<double>(l.shed)), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Layer figures printed for reading only: time metrics that are zero by
/// construction on some workloads (no fallback, no serving layer).
MetricList ExtraLayerMetrics(const RunOutput& run, const SpanRecorder& spans) {
  const std::map<std::string, LayerTime> layers = spans.Layers();
  auto it = layers.find("host.fallback_execute");
  const double fallback_ms =
      it == layers.end()
          ? 0.0
          : Ratio(it->second.total_ms, static_cast<double>(it->second.count));
  return {
      {"host.fallback_execute_ms", fallback_ms, "ms"},
      {"serve.submit_wall_ms", Mean(run.layers.submit_wall_ms), "ms"},
      {"serve.step_wall_ms", Mean(run.layers.step_wall_ms), "ms"},
  };
}

void PrintSelfTimes(const SpanRecorder& spans) {
  std::printf("  span self time (traced rounds)\n");
  std::printf("    %-38s %8s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : spans.Layers()) {
    std::printf("    %-38s %8llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
  }
}

// ---------------------------------------------------------------------------
// Entry point

struct WorkloadResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricList metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::string fatal;   ///< set-up failure or determinism violation
};

WorkloadResult RunWorkload(const WorkloadSpec& spec, const Args& args) {
  WorkloadResult result;
  RunOutput run;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < spec.setup_reps; ++i) {
    stack.reset();  // one stack alive at a time
    const auto t0 = SteadyClock::now();
    auto built = BuildStack(spec, args.seed);
    if (!built.ok()) {
      result.fatal = "set-up failed: " + built.status().ToString();
      return result;
    }
    run.e2e.setup_s.push_back(MsSince(t0) / 1e3);
    stack = std::move(built).ValueOrDie();
  }

  std::printf("workload %s: loaded SF %g, modeled SF %g, %d threads, seed %"
              PRIu64 ", trace %d\n",
              spec.name.c_str(), spec.loaded_sf, spec.modeled_sf,
              ThreadBudget(), args.seed, args.trace ? 1 : 0);
  SpanRecorder spans(args.trace);
  stack->engine->ResetStats();
  const uint64_t evictions_before =
      stack->engine->buffer_manager().eviction_count();
  if (spec.serve) {
    RunServe(spec, args, stack.get(), &spans, &run);
  } else {
    RunClosedLoop(spec, args, stack.get(), &spans, &run);
  }
  const engine::SiriusEngine::Stats st = stack->engine->stats();
  const uint64_t evictions =
      stack->engine->buffer_manager().eviction_count() - evictions_before;

  const MetricList e2e = EndToEndMetrics(run.e2e);
  PrintMetrics(std::string("end-to-end") +
                   (args.trace ? " (untraced rounds of this run)" : ""),
               e2e);
  std::printf("    samples: %zu Sirius-path, %zu DuckX\n",
              run.e2e.wall_ms.size(), run.e2e.duckx_wall_ms.size());
  if (args.trace) {
    MetricList layers = LayerMetrics(run, spans, stack.get(), st, evictions);
    PrintMetrics("per-layer", layers);
    PrintMetrics("per-layer, reading only", ExtraLayerMetrics(run, spans));
    PrintSelfTimes(spans);
    char path[256];
    std::snprintf(path, sizeof(path), "%s/spans-%s-seed%" PRIu64 ".json",
                  args.out_dir.c_str(), spec.name.c_str(), args.seed);
    if (!spans.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path);
    }
    result.metrics = std::move(layers);
  } else {
    const MetricList ratios = {
        {"fallback_ratio",
         Ratio(static_cast<double>(run.layers.fell_back),
               static_cast<double>(run.layers.attempted)),
         "ratio"},
        {"shed_ratio",
         Ratio(static_cast<double>(run.layers.shed),
               static_cast<double>(run.layers.attempted)),
         "ratio"},
    };
    PrintMetrics("outcome ratios", ratios);
    result.metrics = e2e;
  }
  result.attempted = run.layers.attempted;
  result.failed = run.failures.count;
  result.fatal = run.determinism_error;
  result.correct = result.failed == 0 && result.fatal.empty() &&
                   result.attempted > 0;
  std::printf("  result check: %" PRIu64 " attempted, %" PRIu64 " failed%s\n",
              result.attempted, result.failed,
              run.determinism_error.empty()
                  ? ""
                  : ", MODELED CLOCK NOT DETERMINISTIC");
  return result;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot|cold|scale|serve|all --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  args.exe = argv[0];
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& s : Specs()) {
    if (args.workload == s.name || args.workload == "all") {
      selected.push_back(&s);
    }
  }
  if (selected.empty() || argc % 2 == 0) return Usage();

  bool correct = true;
  bool fatal = false;
  uint64_t attempted = 0, failed = 0;
  std::string metrics_json;
  for (const WorkloadSpec* spec : selected) {
    WorkloadResult r = RunWorkload(*spec, args);
    if (!r.fatal.empty() && r.attempted == 0) {
      std::fprintf(stderr, "perfbench: %s\n", r.fatal.c_str());
      return 1;
    }
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = selected.size() > 1 ? spec->name + "/" : "";
    for (const Metric& m : r.metrics) {
      if (!metrics_json.empty()) metrics_json += ", ";
      metrics_json += "\"" + prefix + m.name + "\": {\"value\": " +
                      JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    if (!r.fatal.empty()) {
      std::fprintf(stderr, "perfbench: FAILED: %s\n", r.fatal.c_str());
      fatal = true;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json.c_str());
  std::fflush(stdout);
  // A result mismatch is reported through "correct"; a modeled clock that
  // does not repeat also fails the process.
  return fatal ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
