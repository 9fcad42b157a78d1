#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/check/invariants.h"
#include "src/obs/event_registry.h"

namespace perfbench {

using namespace nomad;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::Close(int id) {
  if (id < 0) {
    return;
  }
  spans_[id].end_ns = NowNs();
  open_.pop_back();
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"micro-small-read", "ycsb-thrash-sharded"};
  return names;
}

bool IsMicro(const std::string& workload) { return workload == "micro-small-read"; }

MicroRunConfig MicroCell(uint64_t seed) {
  MicroRunConfig c = SmallWssConfig(PlatformId::kA, PolicyKind::kNomad);
  c.seed = seed;
  return c;
}

ShardedRunConfig MicroConfig(uint64_t seed) {
  ShardedRunConfig c;
  c.base = MicroCell(seed);
  // Timed on 4 worker threads rather than on the classic engine's one: on
  // a shared 4-vCPU host a single-threaded rep's time often flipped by
  // 1.5x from one rep to the next, and over minutes the 4-thread run
  // spread about half as much (perfbench/README.md, "Noise").
  c.shards = 4;
  c.exec_threads = 4;
  return c;
}

ShardedYcsbConfig YcsbConfig(uint64_t seed) {
  ShardedYcsbConfig c;
  c.base.platform = PlatformId::kC;
  c.base.policy = PolicyKind::kNomad;
  // fig14_redis_large's thrashing cell at 1/16 of the paper's 20M records:
  // one rep then takes about a second on 4 worker threads, where --full
  // spends about 6 s in set-up alone.
  c.base.scale_denom = 16;
  c.base.record_count = 20000000 / c.base.scale_denom;
  c.base.demote_first = true;
  c.base.slow_gb = 64.0;
  c.base.total_ops = 200000;
  c.base.seed = seed;
  c.shards = 8;
  c.exec_threads = 4;
  return c;
}

std::string MetricsDoc(Sim& sim, const PhaseReport& report, const std::string& label) {
  std::ostringstream os;
  JsonWriter jw(os);
  jw.BeginObject();
  jw.Field("schema", std::string_view("nomad-metrics-v1"));
  jw.Field("benchmark", std::string_view("perfbench"));
  jw.Key("runs").BeginArray();
  AppendRunMetrics(jw, sim, report, label);
  jw.EndArray();
  jw.EndObject();
  os << "\n";
  return os.str();
}

namespace {

// Audits a quiesced machine; each violation is an error of the rep.
void Audit(Sim& sim, RepResult& r) {
  InvariantChecker checker(&sim.ms());
  checker.AddSpace(&sim.as());
  if (NomadPolicy* nomad = sim.nomad()) {
    checker.set_shadows(&nomad->shadows());
    checker.set_queues(&nomad->queues());
  }
  for (const InvariantViolation& v : checker.Check()) {
    if (r.violations++ < 5) {
      r.errors.push_back("invariant [" + v.rule + "] " + v.detail);
    }
  }
}

// The checks every classic-engine run gets once it is done.
void CheckClassicRun(Sim& sim, uint64_t ops_done, uint64_t ops_requested, RepResult& r) {
  if (ops_done != ops_requested) {
    r.errors.push_back("classic-engine run completed " + std::to_string(ops_done) + " of " +
                       std::to_string(ops_requested) + " ops");
  }
  const uint64_t oom = sim.ms().pool().oom_count();
  const uint64_t unresolved = sim.ms().counters().Get(cnt::kFaultUnresolved);
  if (oom != 0 || unresolved != 0) {
    r.errors.push_back("classic-engine run: " + std::to_string(oom) + " OOMs, " +
                       std::to_string(unresolved) + " unresolved faults");
  }
  r.fast_used_frames = sim.ms().pool().UsedFrames(Tier::kFast);
}

void AddField(std::string& out, const std::string& key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g;", v);
  out += key + "=" + buf;
}

// Every simulated number a ShardedRunResult carries, at full precision.
std::string Summary(const ShardedRunResult& r) {
  std::string out;
  for (const MicroRunResult& s : r.per_shard) {
    AddField(out, "stable_gbps", s.report.stable_gbps);
    AddField(out, "transient_gbps", s.report.transient_gbps);
    AddField(out, "p99", s.report.p99_latency_cycles);
    AddField(out, "total_cycles", static_cast<double>(s.report.total_cycles));
    for (const auto& [name, value] : s.counters.All()) {
      AddField(out, name, static_cast<double>(value));
    }
  }
  AddField(out, "total_ops", static_cast<double>(r.total_ops));
  AddField(out, "epochs", static_cast<double>(r.epochs));
  AddField(out, "messages", static_cast<double>(r.messages));
  AddField(out, "max_virtual_time", static_cast<double>(r.max_virtual_time));
  return out;
}

// Every simulated number a ShardedAppResult carries, at full precision.
std::string Summary(const ShardedAppResult& r) {
  std::string out;
  auto add = [&](const char* key, double v) { AddField(out, key, v); };
  for (const AppRunResult& s : r.per_shard) {
    add("ops_per_sec", s.ops_per_sec);
    add("runtime_ms", s.runtime_ms);
    add("tpm_commits", static_cast<double>(s.tpm_commits));
    add("tpm_aborts", static_cast<double>(s.tpm_aborts));
    add("promotions", static_cast<double>(s.promotions));
    add("demotions", static_cast<double>(s.demotions));
  }
  add("total_ops", static_cast<double>(r.total_ops));
  add("epochs", static_cast<double>(r.epochs));
  add("messages", static_cast<double>(r.messages));
  add("max_virtual_time", static_cast<double>(r.max_virtual_time));
  add("aggregate_ops_per_sec", r.aggregate_ops_per_sec);
  return out;
}

void FillFromSharded(const ShardedRunConfig& config, const ShardedRunResult& full,
                     RepResult& r) {
  const uint64_t per_app = config.base.total_ops / config.shards / config.base.threads;
  r.ops_requested = per_app * config.base.threads * config.shards;
  r.ops_done = full.total_ops;
  // The shards run side by side in simulated time, so their rates add.
  for (const MicroRunResult& s : full.per_shard) {
    r.sim_ops_per_s += s.report.ops_per_sec;
    r.oom += s.counters.Get(cnt::kOom);
    r.unresolved_faults += s.counters.Get(cnt::kFaultUnresolved);
  }
  r.epochs = full.epochs;
  r.messages = full.messages;
  r.digest = Fnv1a(Summary(full));
}

void FillFromSharded(const ShardedYcsbConfig& config, const ShardedAppResult& full,
                     RepResult& r) {
  r.ops_requested = config.base.total_ops / config.shards * config.shards;
  r.ops_done = full.total_ops;
  r.sim_ops_per_s = full.aggregate_ops_per_sec;
  r.epochs = full.epochs;
  r.messages = full.messages;
  r.digest = Fnv1a(Summary(full));
}

// The timed part of a sharded rep. The full call builds the shards itself,
// so set-up is timed as the same call cut to one op per app thread, and
// the run phase is the full call minus that. A traced rep then makes the
// full call again on one worker thread and compares the results.
template <typename Config, typename RunFn>
auto TimeShardedRep(const Config& config, uint64_t setup_ops, bool traced, SpanRecorder& rec,
                    RepResult& r, RunFn run) {
  Config setup_only = config;
  setup_only.base.total_ops = setup_ops;
  const int root = rec.Open("rep");
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(rec, "harness.shard_setup");
    run(setup_only);
  }
  const int64_t t1 = NowNs();
  decltype(run(config)) full;
  {
    ScopedSpan span(rec, "sim.shard_run");
    full = run(config);
  }
  const int64_t t2 = NowNs();
  if (traced) {
    Config one_thread = config;
    one_thread.exec_threads = 1;
    decltype(full) t1_result;
    {
      ScopedSpan span(rec, "sim.shard_run_t1");
      t1_result = run(one_thread);
    }
    if (Summary(t1_result) != Summary(full)) {
      r.errors.push_back("1-thread results differ from the " +
                         std::to_string(config.exec_threads) + "-thread run");
    }
  }
  rec.Close(root);
  r.setup_ns = t1 - t0;
  r.wall_ns = t2 - t1;
  r.run_ns = r.wall_ns - r.setup_ns;
  return full;
}

// Reads the document a MetricsCollector wrote into the reference rep.
void ReadDoc(const std::string& path, RepResult& r) {
  std::ifstream in(path);
  std::stringstream doc;
  doc << in.rdbuf();
  r.metrics_doc = doc.str();
  if (r.metrics_doc.empty()) {
    r.errors.push_back("could not read the exported metrics at " + path);
  }
}

}  // namespace

std::string RunMicroCell(const MicroRunConfig& config, const std::string& label,
                         SpanRecorder& rec, RepResult& r) {
  const Scale scale{config.scale_denom};
  const PlatformSpec platform =
      MakePlatform(config.platform, scale, config.fast_gb, config.slow_gb);
  std::unique_ptr<Sim> sim;
  {
    ScopedSpan span(rec, "harness.sim_build");
    sim = std::make_unique<Sim>(platform, config.policy, scale.Pages(config.rss_gb) + 16);
  }
  MicroLayout layout;
  layout.rss_pages = scale.Pages(config.rss_gb);
  layout.wss_pages = scale.Pages(config.wss_gb);
  layout.wss_fast_pages = scale.Pages(config.wss_fast_gb);
  layout.kernel_pages = scale.Pages(config.kernel_gb);
  layout.placement = config.placement;
  layout.seed = config.seed;
  std::unique_ptr<ScrambledZipfian> zipf;
  {
    ScopedSpan span(rec, "workload.build");
    zipf = std::make_unique<ScrambledZipfian>(layout.wss_pages, 0.99, config.seed);
  }
  Vpn wss_start = 0;
  {
    ScopedSpan span(rec, "harness.layout");
    wss_start = SetupMicroLayout(*sim, layout, *zipf);
  }
  std::vector<std::unique_ptr<MicroWorkload>> apps;
  uint64_t ops_requested = 0;
  for (int t = 0; t < config.threads; t++) {
    MicroWorkload::Config wcfg;
    wcfg.base.total_ops = config.total_ops / config.threads;
    wcfg.base.seed = config.seed + 1000 + t;
    wcfg.base.batch = config.batch;
    wcfg.wss_start = wss_start;
    wcfg.wss_pages = layout.wss_pages;
    wcfg.write_fraction = config.write_fraction;
    apps.push_back(std::make_unique<MicroWorkload>(&sim->ms(), &sim->as(), zipf.get(), wcfg));
    sim->AddWorkload(apps.back().get());
    ops_requested += wcfg.base.total_ops;
  }
  {
    ScopedSpan span(rec, "sim.run_first_half");
    sim->RunUntilOps(config.total_ops / 2);
  }
  {
    ScopedSpan span(rec, "sim.run_second_half");
    sim->Run();
  }
  PhaseReport report;
  {
    ScopedSpan span(rec, "harness.analyze");
    report = Analyze(*sim);
  }
  std::string doc;
  {
    ScopedSpan span(rec, "obs.export");
    doc = MetricsDoc(*sim, report, label);
  }
  {
    ScopedSpan span(rec, "check.audit");
    Audit(*sim, r);
  }
  CheckClassicRun(*sim, report.total_ops, ops_requested, r);
  return doc;
}

RepResult RunMicroRep(const ShardedRunConfig& config, bool traced) {
  SpanRecorder rec(traced);
  RepResult r;
  const uint64_t setup_ops = static_cast<uint64_t>(config.shards) * config.base.threads;
  const ShardedRunResult full = TimeShardedRep(
      config, setup_ops, traced, rec, r,
      [](const ShardedRunConfig& c) { return RunShardedMicro(c); });
  if (traced) {
    r.aux_digest = Fnv1a(RunMicroCell(config.base, "micro-small-read", rec, r));
  }
  FillFromSharded(config, full, r);
  r.spans = rec.spans();
  return r;
}

namespace {

// Traced sharded YCSB reps also run shard 0's slice on the classic engine,
// making the harness calls RunYcsbBench makes, so that the per-layer spans
// and the audit of the micro reps exist for this workload too.
void RunShardOnClassicEngine(const ShardedYcsbConfig& config, SpanRecorder& rec,
                             RepResult& r) {
  YcsbRunConfig c = config.base;
  c.record_count /= config.shards;
  c.total_ops /= config.shards;
  c.slow_gb /= config.shards;
  c.kernel_gb /= config.shards;
  const Scale scale{c.scale_denom};
  const PlatformSpec platform = MakePlatform(c.platform, scale, 16.0 / config.shards, c.slow_gb);
  std::unique_ptr<KvStore> store;
  Vpn end = 0;
  {
    ScopedSpan span(rec, "workload.build");
    KvStore::Config kcfg;
    kcfg.record_count = c.record_count;
    kcfg.record_size = c.record_size;
    store = std::make_unique<KvStore>(kcfg);
    end = store->Layout(0);
  }
  std::unique_ptr<Sim> sim;
  {
    ScopedSpan span(rec, "harness.sim_build");
    sim = std::make_unique<Sim>(platform, c.policy, end + 16);
  }
  {
    ScopedSpan span(rec, "harness.layout");
    sim->ms().ReserveFastFrames(scale.Pages(c.kernel_gb));
    MapRange(sim->ms(), sim->as(), 0, end, Tier::kFast);
    if (c.demote_first) {
      DemoteAll(sim->ms(), sim->as());
    }
  }
  YcsbWorkload::Config wcfg;
  wcfg.base.total_ops = c.total_ops;
  wcfg.base.seed = c.seed;
  wcfg.base.batch = 1;
  YcsbWorkload app(&sim->ms(), &sim->as(), store.get(), wcfg);
  sim->AddWorkload(&app);
  {
    ScopedSpan span(rec, "sim.run_first_half");
    sim->RunUntilOps(c.total_ops / 2);
  }
  {
    ScopedSpan span(rec, "sim.run_second_half");
    sim->Run();
  }
  PhaseReport report;
  {
    ScopedSpan span(rec, "harness.analyze");
    report = Analyze(*sim);
  }
  std::string doc;
  {
    ScopedSpan span(rec, "obs.export");
    doc = MetricsDoc(*sim, report, "shard0");
  }
  {
    ScopedSpan span(rec, "check.audit");
    Audit(*sim, r);
  }
  CheckClassicRun(*sim, report.total_ops, c.total_ops, r);
  r.aux_digest = Fnv1a(doc);
}

}  // namespace

RepResult RunYcsbRep(const ShardedYcsbConfig& config, bool traced) {
  SpanRecorder rec(traced);
  RepResult r;
  const ShardedAppResult full =
      TimeShardedRep(config, config.shards, traced, rec, r,
                     [](const ShardedYcsbConfig& c) { return RunShardedYcsb(c); });
  if (traced) {
    RunShardOnClassicEngine(config, rec, r);
  }
  FillFromSharded(config, full, r);
  r.spans = rec.spans();
  return r;
}

RepResult RunMicroReference(const ShardedRunConfig& config, const std::string& metrics_path) {
  RepResult r;
  ShardedRunConfig one_thread = config;
  one_thread.exec_threads = 1;
  one_thread.audit = true;
  ShardedRunResult full;
  {
    MetricsCollector collector("perfbench", metrics_path, "");
    full = RunShardedMicro(one_thread, &collector, "micro-small-read");
  }
  FillFromSharded(config, full, r);
  r.violations = full.invariant_violations;
  if (r.violations != 0) {
    r.errors.push_back(std::to_string(r.violations) + " invariant violations (see stderr)");
  }
  ReadDoc(metrics_path, r);
  return r;
}

RepResult RunYcsbReference(const ShardedYcsbConfig& config, const std::string& metrics_path) {
  RepResult r;
  ShardedYcsbConfig one_thread = config;
  one_thread.exec_threads = 1;
  ShardedAppResult full;
  {
    MetricsCollector collector("perfbench", metrics_path, "");
    full = RunShardedYcsb(one_thread, &collector, "ycsb-thrash-sharded");
  }
  FillFromSharded(config, full, r);
  ReadDoc(metrics_path, r);
  return r;
}

}  // namespace perfbench
