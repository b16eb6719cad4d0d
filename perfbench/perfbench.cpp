// perfbench: the end-to-end benchmark of melb, one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--max-states N] [--root DIR] [--out DIR] [--commit ID]
//
// Workloads (closed loop: one client, each op starts when the previous one
// returned; the library gets at most 4 worker threads):
//   ya4-exhaustive  check(yang-anderson, 4, {mutex, progress, rmr-bound}) in
//                   hash mode on 1 worker, then find_worst_schedule
//   ya4-reduced     the same check with symmetry + DDD on 4 workers
//   campaign        the full-registry sweep (--algs all --n 2..8): a cold run
//                   into a fresh state dir, then a cached re-run
//   lb-n64          construct -> linearize -> validate -> verify -> encode ->
//                   decode -> cache-coherent cost for 7 algorithms at n = 64
//
// --trace 0 times the workload's ops for --seconds and prints the end-to-end
// metrics. --trace 1 instead runs the layer profile — the same public calls
// taken apart one layer at a time, with spans recorded around each call —
// and prints the per-layer metrics and a Chrome trace-event file. The
// profile covers every layer whatever the workload, so every traced run
// reports every per-layer metric.
//
// Every output is checked against the pins below; an op that misses one, is
// truncated by max_states, leaves a property unevaluated or reports an I/O
// error counts as failed. The last stdout line is the JSON result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adv/adversary.h"
#include "algo/registry.h"
#include "check/model_checker.h"
#include "check/property.h"
#include "cost/cost_model.h"
#include "exp/campaign.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/service.h"
#include "lb/construct.h"
#include "lb/decode.h"
#include "lb/encode.h"
#include "lb/verify.h"
#include "sim/execution.h"
#include "sim/schedule.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "util/permutation.h"
#include "util/prng.h"

namespace {

using namespace melb;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank percentile of a non-empty sample.
double percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * values.size()));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace-event JSON at exit.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Record {
    std::string name;
    int id = 0;
    int parent = 0;  // 0 = top level
    int op = 0;
    double start_us = 0;
    double dur_us = 0;
  };

  bool enabled = false;

  // Starts a new op: spans opened until the next call share its id.
  void begin_op() { ++op_; }

  int open(const std::string& name) {
    if (!enabled) return 0;
    Record record;
    record.name = name;
    record.id = static_cast<int>(records_.size()) + 1;
    record.parent = stack_.empty() ? 0 : stack_.back();
    record.op = op_;
    record.start_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
    records_.push_back(std::move(record));
    stack_.push_back(records_.back().id);
    return records_.back().id;
  }

  void close(int id, double seconds) {
    if (id == 0) return;
    records_[static_cast<std::size_t>(id - 1)].dur_us = seconds * 1e6;
    stack_.pop_back();
  }

  std::size_t size() const { return records_.size(); }

  // Total and self time (duration minus the time covered by child spans)
  // per span name, in first-seen order.
  void print_summary() const {
    std::map<std::string, std::pair<double, double>> by_name;
    std::vector<std::string> order;
    std::vector<double> child_us(records_.size() + 1, 0.0);
    for (const auto& r : records_) child_us[static_cast<std::size_t>(r.parent)] += r.dur_us;
    for (const auto& r : records_) {
      auto [it, fresh] = by_name.try_emplace(r.name, 0.0, 0.0);
      if (fresh) order.push_back(r.name);
      it->second.first += r.dur_us;
      it->second.second += r.dur_us - child_us[static_cast<std::size_t>(r.id)];
    }
    std::printf("%-34s %12s %12s\n", "span", "total s", "self s");
    for (const auto& name : order) {
      const auto& [total, self] = by_name.at(name);
      std::printf("%-34s %12.4f %12.4f\n", name.c_str(), total / 1e6, self / 1e6);
    }
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      const std::string layer = r.name.substr(0, r.name.find('.'));
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":1,\"tid\":1,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}",
                    i ? "," : "", r.name.c_str(), layer.c_str(), r.start_us, r.dur_us, r.op,
                    r.id, r.parent);
      out << buf;
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
  int op_ = 0;
};

Tracer g_tracer;

// Times one call into a layer and, when tracing is on, records it as a span.
class Span {
 public:
  explicit Span(const std::string& name) : id_(g_tracer.open(name)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop() {
    if (!stopped_) {
      seconds_ = seconds_since(start_);
      g_tracer.close(id_, seconds_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  int id_;
  Clock::time_point start_ = Clock::now();
  double seconds_ = 0;
  bool stopped_ = false;
};

// Runs fn inside a span and returns its wall seconds.
template <class Fn>
double timed(const std::string& name, Fn&& fn) {
  Span span(name);
  fn();
  return span.stop();
}

// ---------------------------------------------------------------------------
// Pins and scales.
// ---------------------------------------------------------------------------

struct Scale {
  int ya_n;
  std::uint64_t ya_states, ya_transitions;
  std::uint64_t reduced_states, reduced_transitions, reduced_group;
  std::uint64_t bound;
  std::size_t adversary_steps;
  std::string sweep_sizes;
  std::size_t sweep_cells;
  std::string sweep_hash_2026;  // report hash of the sweep at seed 2026
  int lb_n;
  int lb_warmup_n;
};

// The pins of the paper's flagship figures (ROADMAP "same bytes" list).
const Scale kFull{4, 5'892'305, 18'261'736, 737'175, 2'285'030, 8, 20, 53,
                  "2..8", 784, "75fd88130fa84699", 64, 16};
// The shrunken scale: the self-test's smoke mode and the ya4 warm-up ops.
const Scale kSmoke{3, 59'217, 145'040, 29'634, 72'595, 2, 20, 53,
                   "2..4", 336, "9676173e72582fe5", 8, 8};

constexpr std::uint64_t kPinnedSweepSeed = 2026;
constexpr int kWorkers = 4;
const char* const kFixture = "tests/fixtures/ya4-adversary-state-change.sched";
const std::vector<std::string> kProperties = {"mutex", "progress", "rmr-bound:state-change"};
// The algorithms of bench/bench_lower_bound.cpp (E1, Theorem 7.5).
const std::vector<std::string> kLbAlgorithms = {"yang-anderson", "bakery",       "peterson-tree",
                                                "burns",         "dekker-tree",  "kessels-tree",
                                                "lamport-fast"};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::uint64_t max_states = 8'000'000;  // above the 5.9M pin; explicit, never the default
  std::string root = ".";
  std::string out = ".bench_build/perfbench-out";
  std::string commit = "unknown";
};

// Checked operations: failed ones are counted, and the first few reasons
// are printed to stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    if (++failed <= 5) std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), error.c_str());
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ---------------------------------------------------------------------------
// The checker and the adversary.
// ---------------------------------------------------------------------------

const sim::Algorithm& algorithm(const std::string& name) {
  return *algo::algorithm_by_name(name).algorithm;
}

// check(yang-anderson, n, specs) timed as one span named `span`.
check::CheckResult run_check(const std::string& span, int n,
                             const std::vector<std::string>& specs,
                             const check::CheckOptions& options, double* seconds) {
  const auto& ya = algorithm("yang-anderson");
  check::PropertyList properties;
  for (const auto& spec : specs) properties.push_back(check::make_property(spec, ya, n));
  Span s(span);
  auto result = check::check(ya, n, std::move(properties), options);
  *seconds = s.stop();
  return result;
}

// "" when got == pin, otherwise a diagnostic.
std::string mismatch(const std::string& what, std::uint64_t got, std::uint64_t pin) {
  return got == pin ? "" : what + " " + std::to_string(got) + " != pin " + std::to_string(pin);
}

// "" when the check ran to completion, every property was evaluated and
// holds, and the counts match the pins; otherwise the first mismatch.
std::string verify_check(const check::CheckResult& r, std::size_t properties,
                         std::uint64_t states, std::uint64_t transitions, std::uint64_t bound) {
  if (r.exhausted_limit) return "truncated at max_states (" + std::to_string(r.states) + " states)";
  if (!r.io_error.empty()) return "io_error: " + r.io_error;
  if (!r.ok) return "verdict not ok: " + r.violation;
  if (r.property_reports.size() != properties) {
    return std::to_string(r.property_reports.size()) + " property reports for " +
           std::to_string(properties) + " properties";
  }
  for (const auto& report : r.property_reports) {
    if (!report.evaluated) return report.property + " not evaluated";
    if (!report.holds) return report.property + " does not hold: " + report.detail;
    if (report.property.rfind("rmr-bound", 0) != 0) continue;
    if (!report.has_bound) return report.property + " has no bound";
    if (report.bound != bound) return mismatch(report.property + " bound", report.bound, bound);
  }
  if (r.states != states) return mismatch("states", r.states, states);
  return mismatch("transitions", r.transitions, transitions);
}

check::CheckOptions exhaustive_options(const Config& config) {
  check::CheckOptions options;
  options.max_states = config.max_states;
  options.workers = 1;
  return options;
}

check::CheckOptions reduced_options(const Config& config, int workers) {
  check::CheckOptions options;
  options.max_states = config.max_states;
  options.symmetry = true;
  options.ddd = true;
  options.workers = workers;
  return options;
}

std::string verify_reduced(const check::CheckResult& r, const Scale& scale) {
  const std::string error = verify_check(r, kProperties.size(), scale.reduced_states,
                                         scale.reduced_transitions, scale.bound);
  return error.empty() ? mismatch("symmetry group", r.symmetry_group, scale.reduced_group) : error;
}

adv::AdversaryResult run_adversary(const Config& config, int n, double* seconds) {
  adv::AdversaryOptions options;
  options.max_states = config.max_states;
  options.workers = 1;
  Span s("adv.find_worst_schedule");
  auto result = adv::find_worst_schedule(algorithm("yang-anderson"), n, "state-change", options);
  *seconds = s.stop();
  return result;
}

// `fixture` empty = no committed witness at this n; the step count is pinned.
std::string verify_adversary(const adv::AdversaryResult& r, const Scale& scale,
                             const std::string& fixture) {
  if (!r.evaluated) return "adversary not evaluated: " + r.detail;
  if (r.unbounded) return "adversary reports unbounded";
  if (r.bound != scale.bound) return mismatch("adversary bound", r.bound, scale.bound);
  if (!r.confirmed) return "witness not confirmed: " + r.detail;
  if (r.states != scale.ya_states) return mismatch("adversary states", r.states, scale.ya_states);
  if (r.schedule.pids.size() != scale.adversary_steps) {
    return mismatch("witness steps", r.schedule.pids.size(), scale.adversary_steps);
  }
  if (!fixture.empty() && sim::schedule_to_text(r.schedule) != fixture) {
    return "witness bytes differ from " + std::string(kFixture);
  }
  return "";
}

// ---------------------------------------------------------------------------
// The campaign service.
// ---------------------------------------------------------------------------

exp::CampaignSpec sweep_spec(const Scale& scale, std::uint64_t seed) {
  exp::CampaignSpec spec;
  spec.algorithms = exp::resolve_algorithms("all");
  spec.schedulers = sim::scheduler_names();
  spec.sizes = exp::parse_sizes(scale.sweep_sizes);
  spec.seed = seed;
  return spec;
}

// One journal commit per sweep. At the CLI's default of 32 cells per commit
// a cold run makes ~50 fsyncs, and on a shared disk their latency swung the
// cold sweep from 55 to 190 ms between runs; one commit keeps the journal
// write path in the op without tying the figure to the disk's neighbours.
exp::ServiceOptions service_options(std::size_t cells) {
  exp::ServiceOptions options;
  options.run.workers = kWorkers;
  options.journal_batch = cells;
  return options;
}

struct SweepRun {
  exp::ServiceReport service;
  std::string json;
  std::string hash;
  double service_s = 0;  // the run_campaign_service call alone
  double to_json_s = 0;
  double hash_s = 0;
  double total_s = 0;  // what a user waits for: the run plus its report
};

SweepRun run_sweep(const std::string& span, const exp::CampaignSpec& spec,
                   const std::string& state_dir) {
  const std::size_t cells = spec.algorithms.size() * spec.schedulers.size() * spec.sizes.size();
  SweepRun run;
  Span whole(span);
  run.service_s = timed("exp.run_campaign_service", [&] {
    run.service = exp::run_campaign_service(spec, state_dir, service_options(cells));
  });
  run.to_json_s = timed("exp.to_json", [&] { run.json = exp::to_json(run.service.report); });
  run.hash_s = timed("exp.report_hash", [&] { run.hash = exp::report_hash(run.service.report); });
  run.total_s = whole.stop();
  return run;
}

std::string verify_sweep(const SweepRun& run, std::size_t cells) {
  const auto& report = run.service.report;
  if (report.cells.size() != cells) {
    return std::to_string(report.cells.size()) + " cells, pin " + std::to_string(cells);
  }
  for (const auto& cell : report.cells) {
    if (cell.status != "ok") {
      return "cell " + std::to_string(cell.cell.index) + " " + cell.cell.algorithm + "/" +
             cell.cell.scheduler + " n=" + std::to_string(cell.cell.n) + ": " + cell.status;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// The lower-bound pipeline.
// ---------------------------------------------------------------------------

struct LbGrid {
  std::vector<double> construct_s;  // per algorithm, kLbAlgorithms order
  std::vector<std::uint64_t> delta_evaluations;
  double linearize_s = 0, validate_s = 0, verify_s = 0, encode_s = 0, decode_s = 0, cc_s = 0;
  std::uint64_t metasteps = 0, insertions = 0, encoding_bits = 0, decode_iterations = 0;
  double total_s = 0;
  std::string error;
};

// One op: every algorithm once at size n, each with its own π drawn from
// (seed, op). The same (seed, op) always draws the same permutations.
LbGrid run_lb_grid(int n, std::uint64_t seed, std::uint64_t op) {
  LbGrid grid;
  util::Xoshiro256StarStar rng(util::derive_seed(seed, op));
  Span whole("lb.grid");
  for (const auto& name : kLbAlgorithms) {
    const auto& alg = algorithm(name);
    const auto pi = util::Permutation::random(n, rng);
    Span per_algorithm("lb.pipeline." + name);
    lb::Construction construction;
    grid.construct_s.push_back(
        timed("lb.construct", [&] { construction = lb::construct(alg, n, pi); }));
    std::vector<sim::Step> steps;
    grid.linearize_s += timed("lb.canonical_linearization",
                              [&] { steps = construction.canonical_linearization(); });
    sim::Execution canonical;
    grid.validate_s +=
        timed("sim.validate_steps", [&] { canonical = sim::validate_steps(alg, n, steps); });
    std::string structural;
    grid.verify_s += timed("lb.verify_linearization",
                           [&] { structural = lb::verify_linearization(construction, steps); });
    lb::Encoding encoding;
    grid.encode_s += timed("lb.encode", [&] { encoding = lb::encode(construction); });
    lb::DecodeResult decoded;
    grid.decode_s += timed("lb.decode", [&] { decoded = lb::decode(alg, encoding.text); });
    std::uint64_t cc = 0;
    grid.cc_s += timed("cost.cc_total", [&] {
      cc = cost::CacheCoherentCost(alg.num_registers(n)).total_cost(canonical, n);
    });

    grid.delta_evaluations.push_back(construction.delta_evaluations);
    grid.metasteps += construction.metasteps.size();
    grid.insertions += construction.insertions;
    grid.encoding_bits += encoding.binary_bits;
    grid.decode_iterations += decoded.iterations;
    if (!grid.error.empty()) continue;
    if (!structural.empty()) {
      grid.error = name + ": not a linearization: " + structural;
    } else if (decoded.execution.sc_cost() != canonical.sc_cost()) {
      grid.error = name + ": decoded SC cost " + std::to_string(decoded.execution.sc_cost()) +
                   " != canonical " + std::to_string(canonical.sc_cost());
    } else if (sim::enter_order(decoded.execution) != pi.order()) {
      grid.error = name + ": decoded CS entry order is not pi";
    } else if (cc == 0) {
      grid.error = name + ": zero cache-coherent cost";
    }
  }
  grid.total_s = whole.stop();
  return grid;
}

// ---------------------------------------------------------------------------
// Workloads: set-up (inputs plus one pinned warm-up op: the check at n = 3,
// the seed-2026 sweep, or the grid at a smaller n) and the timed op.
// ---------------------------------------------------------------------------

struct Stages {
  std::map<std::string, std::vector<double>> seconds;  // per named stage, one per op
  void add(const std::string& name, double s) { seconds[name].push_back(s); }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tally& tally) = 0;
  virtual void op(std::uint64_t index, Tally& tally, Stages& stages) = 0;
  // Checks that need every op done (and are not timed).
  virtual void finish(Tally& tally) { (void)tally; }
};

class YaExhaustive final : public Workload {
 public:
  YaExhaustive(const Config& config, const Scale& scale) : config_(config), scale_(scale) {}

  void setup(Tally& tally) override {
    fixture_ = scale_.ya_n == 4 ? read_file(config_.root + "/" + kFixture) : "";
    run(kSmoke, "", tally, nullptr);
  }

  void op(std::uint64_t, Tally& tally, Stages& stages) override {
    run(scale_, fixture_, tally, &stages);
  }

 private:
  void run(const Scale& scale, const std::string& fixture, Tally& tally, Stages* stages) {
    double verdict_s = 0, adversary_s = 0;
    const auto result = run_check("check.check.exhaustive", scale.ya_n, kProperties,
                                  exhaustive_options(config_), &verdict_s);
    tally.record("check", verify_check(result, kProperties.size(), scale.ya_states,
                                       scale.ya_transitions, scale.bound));
    const auto adversary = run_adversary(config_, scale.ya_n, &adversary_s);
    tally.record("adversary", verify_adversary(adversary, scale, fixture));
    if (stages) {
      stages->add("verdict_s", verdict_s);
      stages->add("adversary_s", adversary_s);
    }
  }

  const Config& config_;
  const Scale& scale_;
  std::string fixture_;
};

class YaReduced final : public Workload {
 public:
  YaReduced(const Config& config, const Scale& scale) : config_(config), scale_(scale) {}

  void setup(Tally& tally) override { run(kSmoke, tally, nullptr); }
  void op(std::uint64_t, Tally& tally, Stages& stages) override { run(scale_, tally, &stages); }

 private:
  void run(const Scale& scale, Tally& tally, Stages* stages) {
    double verdict_s = 0;
    const auto result = run_check("check.check.reduced", scale.ya_n, kProperties,
                                  reduced_options(config_, kWorkers), &verdict_s);
    tally.record("reduced check", verify_reduced(result, scale));
    if (stages) stages->add("verdict_s", verdict_s);
  }

  const Config& config_;
  const Scale& scale_;
};

class Campaign final : public Workload {
 public:
  Campaign(const Config& config, const Scale& scale)
      : config_(config), scale_(scale), state_root_(config.out + "/campaign-state") {}

  void setup(Tally& tally) override {
    spec_ = sweep_spec(scale_, config_.seed);
    fs::remove_all(state_root_);
    fs::create_directories(state_root_);
    // Warm-up: the pinned seed-2026 sweep, journal-less, so every run checks
    // the committed report hash whatever its own seed.
    const auto pinned = run_sweep("exp.sweep.pinned", sweep_spec(scale_, kPinnedSweepSeed), "");
    std::string error = verify_sweep(pinned, scale_.sweep_cells);
    if (error.empty() && pinned.hash != scale_.sweep_hash_2026) {
      error = "report hash " + pinned.hash + " != pin " + scale_.sweep_hash_2026;
    }
    tally.record("pinned sweep", error);
  }

  void op(std::uint64_t index, Tally& tally, Stages& stages) override {
    const std::string dir = state_root_ + "/op" + std::to_string(index);
    const SweepRun cold = run_sweep("exp.sweep.cold", spec_, dir);
    const SweepRun cached = run_sweep("exp.sweep.cached", spec_, dir);
    std::string error = verify_sweep(cold, scale_.sweep_cells);
    if (error.empty() && cold.json != cached.json) error = "cached report differs from cold";
    if (error.empty() && cached.service.executed != 0) {
      error = "cached run executed " + std::to_string(cached.service.executed) + " cells";
    }
    tally.record("sweep", error);
    hashes_.push_back(cold.hash);
    stages.add("sweep_cold_s", cold.total_s);
    stages.add("sweep_cached_s", cached.total_s);
    fs::remove_all(dir);
  }

  void finish(Tally& tally) override {
    // Every cold run must match a journal-less run of the same spec.
    const auto reference = run_sweep("exp.sweep.reference", spec_, "");
    tally.record("journal-less sweep", verify_sweep(reference, scale_.sweep_cells));
    for (const auto& hash : hashes_) {
      tally.record("cold vs journal-less", hash == reference.hash ? "" : "cold hash " + hash +
                                                                   " != " + reference.hash);
    }
    fs::remove_all(state_root_);
  }

 private:
  const Config& config_;
  const Scale& scale_;
  std::string state_root_;
  exp::CampaignSpec spec_;
  std::vector<std::string> hashes_;
};

class LbGridWorkload final : public Workload {
 public:
  LbGridWorkload(const Config& config, const Scale& scale) : config_(config), scale_(scale) {}

  void setup(Tally& tally) override {
    tally.record("lb warm-up", run_lb_grid(scale_.lb_warmup_n, config_.seed, 0).error);
  }

  void op(std::uint64_t index, Tally& tally, Stages& stages) override {
    const LbGrid grid = run_lb_grid(scale_.lb_n, config_.seed, index);
    tally.record("lb grid", grid.error);
    stages.add("lb_grid_s", grid.total_s);
  }

 private:
  const Config& config_;
  const Scale& scale_;
};

std::unique_ptr<Workload> make_workload(const Config& config, const Scale& scale) {
  if (config.workload == "ya4-exhaustive") return std::make_unique<YaExhaustive>(config, scale);
  if (config.workload == "ya4-reduced") return std::make_unique<YaReduced>(config, scale);
  if (config.workload == "campaign") return std::make_unique<Campaign>(config, scale);
  if (config.workload == "lb-n64") return std::make_unique<LbGridWorkload>(config, scale);
  throw std::invalid_argument("unknown workload '" + config.workload +
                              "' (ya4-exhaustive, ya4-reduced, campaign, lb-n64)");
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_value(double value) {
  if (!std::isfinite(value)) value = 0;  // JSON has no NaN; only reachable on a failed op
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics) {
    std::printf("%-34s %18s  %s\n", m.name.c_str(), format_value(m.value).c_str(), m.unit.c_str());
  }
  std::printf("error_rate: %s (%llu failed / %llu attempted)\n",
              format_value(tally.attempted ? double(tally.failed) / double(tally.attempted) : 1)
                  .c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            format_value(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double process_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Starts a fresh RSS high-water mark for the next op: free heap pages go back
// to the kernel and the kernel's peak (VmHWM) is reset to the current RSS.
// Without this, the peak would hold whatever earlier ops left in the
// allocator's arenas, and grow with the number of ops a run happens to fit.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// VmHWM in MiB; the process peak where /proc does not report it.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return process_peak_rss_mib();
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void print_run_record(const Config& config) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf(
      "run record: workload=%s seed=%llu trace=%d smoke=%d commit=%s build=%s%s "
      "compiler=\"%s\" nproc=%u loadavg=%.2f/%.2f/%.2f\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0,
      config.smoke ? 1 : 0, config.commit.c_str(), build_type.c_str(),
      build_type == "Release" ? "" : " (NOT RELEASE: numbers are not comparable)", kCompiler,
      std::thread::hardware_concurrency(), load[0], load[1], load[2]);
}

// Median timing plus the highest percentile with at least ten samples
// beyond it, with the sample count.
void print_stages(const Stages& stages) {
  for (const auto& [name, values] : stages.seconds) {
    std::printf("%-16s median %.6f s over %zu ops", name.c_str(), median(values), values.size());
    if (values.size() >= 20) {
      const double pct = std::floor(100.0 * double(values.size() - 10) / double(values.size()));
      std::printf(", p%.0f %.6f s", pct, percentile(values, pct));
    } else {
      for (const double v : values) std::printf(" %.3f", v);
    }
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// --trace 0: the timed loop.
// ---------------------------------------------------------------------------

constexpr int kSetupRepeats = 9;

int run_timed(const Config& config, const Scale& scale) {
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    workload = make_workload(config, scale);
    workload->setup(tally);
    setup_s.push_back(seconds_since(start));
  }

  Stages stages;
  std::vector<double> op_s, op_rss_mib;
  const auto loop_start = Clock::now();
  for (std::uint64_t index = 0; index == 0 || seconds_since(loop_start) < config.seconds; ++index) {
    reset_peak_rss();
    const auto start = Clock::now();
    try {
      workload->op(index, tally, stages);
    } catch (const std::exception& e) {
      tally.record("op " + std::to_string(index), std::string("threw: ") + e.what());
    }
    op_s.push_back(seconds_since(start));
    op_rss_mib.push_back(peak_rss_mib());
  }
  workload->finish(tally);

  print_stages(stages);
  std::printf("process peak RSS %.1f MiB; per-op peak RSS max %.1f MiB over %zu ops\n",
              process_peak_rss_mib(), *std::max_element(op_rss_mib.begin(), op_rss_mib.end()),
              op_rss_mib.size());
  print_result(tally, {{"op_s", median(op_s), "s"},
                       {"setup_s", median(setup_s), "s"},
                       {"peak_rss_mib", median(op_rss_mib), "MiB"}});
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the layer profile.
// ---------------------------------------------------------------------------

int run_profile(const Config& config, const Scale& scale) {
  Tally tally;
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    m.push_back({name, value, unit});
  };
  auto with_tracing = [&](bool on, auto&& fn) {
    g_tracer.enabled = on;
    g_tracer.begin_op();
    fn();
    g_tracer.enabled = true;
  };
  g_tracer.enabled = true;

  // check: one property at a time on the exhaustive space (hash mode, 1 worker).
  const auto exhaustive = exhaustive_options(config);
  double explore_s = 0, progress_s = 0, full_s = 0;
  g_tracer.begin_op();
  const auto mutex_only =
      run_check("check.check.mutex", scale.ya_n, {"mutex"}, exhaustive, &explore_s);
  tally.record("mutex check",
               verify_check(mutex_only, 1, scale.ya_states, scale.ya_transitions, 0));
  g_tracer.begin_op();
  const auto with_progress = run_check("check.check.mutex+progress", scale.ya_n,
                                       {"mutex", "progress"}, exhaustive, &progress_s);
  tally.record("progress check",
               verify_check(with_progress, 2, scale.ya_states, scale.ya_transitions, 0));
  g_tracer.begin_op();
  const auto full = run_check("check.check.exhaustive", scale.ya_n, kProperties, exhaustive,
                              &full_s);
  tally.record("full check", verify_check(full, kProperties.size(), scale.ya_states,
                                          scale.ya_transitions, scale.bound));
  const double states = static_cast<double>(full.states);
  add("check.explore_s", explore_s, "s");
  add("check.progress_pass_s", progress_s - explore_s, "s");
  add("check.rmr_fixpoint_s", full_s - progress_s, "s");
  add("check.states_per_s", states / explore_s, "1/s");
  add("check.new_state_ratio", states / (states + static_cast<double>(full.dedup_hits)), "ratio");
  add("check.peak_table_mib", static_cast<double>(full.peak_memory_bytes) / kMiB, "MiB");
  add("check.visited_peak_mib", static_cast<double>(full.peak_visited_bytes) / kMiB, "MiB");
  add("check.progress_peak_mib", static_cast<double>(full.progress_peak_bytes) / kMiB, "MiB");
  add("check.bytes_per_state", static_cast<double>(full.peak_memory_bytes) / states, "B");
  add("check.states", states, "count");
  add("check.transitions", static_cast<double>(full.transitions), "count");
  add("check.dedup_hits", static_cast<double>(full.dedup_hits), "count");
  add("check.interned_automata", static_cast<double>(full.interned_automata), "count");
  add("check.interned_regfiles", static_cast<double>(full.interned_regfiles), "count");
  add("check.spilled_mib", static_cast<double>(full.spilled_bytes) / kMiB, "MiB");

  // check, reduced: the 4-worker verdict untraced and traced (the tracing
  // overhead), then the same call on 1 worker.
  double verdict_s = 0, verdict_traced_s = 0, serial_s = 0;
  check::CheckResult reduced;
  with_tracing(false, [&] {
    reduced = run_check("check.check.reduced", scale.ya_n, kProperties,
                        reduced_options(config, kWorkers), &verdict_s);
  });
  tally.record("reduced check", verify_reduced(reduced, scale));
  g_tracer.begin_op();
  const auto reduced_traced = run_check("check.check.reduced", scale.ya_n, kProperties,
                                        reduced_options(config, kWorkers), &verdict_traced_s);
  tally.record("reduced check (traced)", verify_reduced(reduced_traced, scale));
  g_tracer.begin_op();
  const auto reduced_serial = run_check("check.check.reduced.serial", scale.ya_n, kProperties,
                                        reduced_options(config, 1), &serial_s);
  tally.record("reduced serial check", verify_reduced(reduced_serial, scale));
  add("check.ddd_runs", static_cast<double>(reduced.ddd_runs), "count");
  add("check.symmetry_group", static_cast<double>(reduced.symmetry_group), "count");
  add("check.serial_verdict_s", serial_s, "s");
  add("check.parallel_speedup", serial_s / verdict_traced_s, "x");
  add("e2e.verdict_s", verdict_s, "s");

  // adv.
  const std::string fixture = scale.ya_n == 4 ? read_file(config.root + "/" + kFixture) : "";
  double adversary_s = 0;
  g_tracer.begin_op();
  const auto adversary = run_adversary(config, scale.ya_n, &adversary_s);
  tally.record("adversary", verify_adversary(adversary, scale, fixture));
  add("adv.find_worst_schedule_s", adversary_s, "s");
  add("adv.sweeps", static_cast<double>(adversary.sweeps), "count");
  add("adv.schedule_steps", static_cast<double>(adversary.schedule.pids.size()), "count");

  // exp: expansion, serial cells, journal-less vs journalled cold runs,
  // cached re-runs and report serialization.
  const exp::CampaignSpec spec = sweep_spec(scale, config.seed);
  std::vector<exp::Cell> cells;
  g_tracer.begin_op();
  add("exp.expand_s", timed("exp.expand", [&] { cells = exp::expand(spec); }), "s");
  std::vector<double> cell_us;
  g_tracer.begin_op();
  {
    Span serial("exp.run_cell.serial");
    std::string error;
    for (const auto& cell : cells) {
      const auto start = Clock::now();
      const auto result = exp::run_cell(spec, cell);
      cell_us.push_back(seconds_since(start) * 1e6);
      if (result.status != "ok" && error.empty()) error = result.status;
    }
    tally.record("serial run_cell", error);
  }
  add("exp.run_cell_us_p50", percentile(cell_us, 50), "us");
  add("exp.run_cell_us_p98", percentile(cell_us, 98), "us");

  constexpr int kSweepRepeats = 5;
  const std::string state_root = config.out + "/profile-state";
  fs::remove_all(state_root);
  std::vector<double> compute_only, cold_service, cold_untraced, cold_traced, cached_total,
      to_json_s, hash_s;
  std::string expected_hash;
  double busy_share = 0;
  std::size_t segments = 0, report_bytes = 0;
  for (int i = 0; i < kSweepRepeats; ++i) {
    const std::string dir_a = state_root + "/a" + std::to_string(i);
    const std::string dir_b = state_root + "/b" + std::to_string(i);
    g_tracer.begin_op();
    const SweepRun bare = run_sweep("exp.sweep.journal-less", spec, "");
    compute_only.push_back(bare.service_s);
    expected_hash = bare.hash;
    tally.record("journal-less sweep", verify_sweep(bare, scale.sweep_cells));
    SweepRun cold_a;
    with_tracing(false, [&] { cold_a = run_sweep("exp.sweep.cold", spec, dir_a); });
    cold_untraced.push_back(cold_a.total_s);
    g_tracer.begin_op();
    const SweepRun cold = run_sweep("exp.sweep.cold", spec, dir_b);
    cold_traced.push_back(cold.total_s);
    cold_service.push_back(cold.service_s);
    to_json_s.push_back(cold.to_json_s);
    hash_s.push_back(cold.hash_s);
    g_tracer.begin_op();
    const SweepRun cached = run_sweep("exp.sweep.cached", spec, dir_b);
    cached_total.push_back(cached.total_s);
    std::string error = verify_sweep(cold, scale.sweep_cells);
    if (error.empty() && (cold.hash != bare.hash || cold_a.hash != bare.hash)) {
      error = "journalled report differs from journal-less";
    }
    if (error.empty() && (cached.json != cold.json || cached.service.executed != 0)) {
      error = "cached re-run differs or executed cells";
    }
    tally.record("sweep", error);
    std::uint64_t cell_micros = 0;
    for (const auto& cell : cold.service.report.cells) cell_micros += cell.wall_micros;
    busy_share = static_cast<double>(cell_micros) /
                 (kWorkers * static_cast<double>(cold.service.report.wall_micros));
    segments = cached.service.journal.segments;
    report_bytes = cold.json.size();
  }
  fs::remove_all(state_root);
  if (config.seed == kPinnedSweepSeed) {
    tally.record("pinned hash", expected_hash == scale.sweep_hash_2026 ? "" : "report hash " +
                                                                                 expected_hash);
  }
  add("exp.cell_busy_share", busy_share, "ratio");
  add("exp.compute_only_s", median(compute_only), "s");
  add("exp.journal_overhead_s", median(cold_service) - median(compute_only), "s");
  add("exp.journal_segments", static_cast<double>(segments), "count");
  add("exp.to_json_s", median(to_json_s), "s");
  add("exp.report_hash_s", median(hash_s), "s");
  add("exp.report_bytes", static_cast<double>(report_bytes), "bytes");
  add("e2e.sweep_cold_s", median(cold_untraced), "s");
  add("e2e.sweep_cached_s", median(cached_total), "s");

  // lb: one grid untraced, then the same grid (same permutations) traced.
  LbGrid untraced_grid;
  with_tracing(false, [&] { untraced_grid = run_lb_grid(scale.lb_n, config.seed, 0); });
  tally.record("lb grid", untraced_grid.error);
  g_tracer.begin_op();
  const LbGrid grid = run_lb_grid(scale.lb_n, config.seed, 0);
  tally.record("lb grid (traced)", grid.error);
  for (std::size_t i = 0; i < kLbAlgorithms.size(); ++i) {
    add("lb.construct_s." + kLbAlgorithms[i], grid.construct_s[i], "s");
  }
  for (std::size_t i = 0; i < kLbAlgorithms.size(); ++i) {
    add("lb.delta_evaluations." + kLbAlgorithms[i],
        static_cast<double>(grid.delta_evaluations[i]), "count");
  }
  add("lb.linearize_s", grid.linearize_s, "s");
  add("sim.validate_steps_s", grid.validate_s, "s");
  add("lb.verify_s", grid.verify_s, "s");
  add("lb.encode_s", grid.encode_s, "s");
  add("lb.decode_s", grid.decode_s, "s");
  add("cost.cc_total_s", grid.cc_s, "s");
  add("lb.metasteps", static_cast<double>(grid.metasteps), "count");
  add("lb.insertions", static_cast<double>(grid.insertions), "count");
  add("lb.encoding_bits", static_cast<double>(grid.encoding_bits), "count");
  add("lb.decode_iterations", static_cast<double>(grid.decode_iterations), "count");
  add("e2e.lb_grid_s", untraced_grid.total_s, "s");

  add("trace.overhead_verdict_s", verdict_traced_s - verdict_s, "s");
  add("trace.overhead_sweep_cold_s", median(cold_traced) - median(cold_untraced), "s");
  add("trace.overhead_lb_grid_s", grid.total_s - untraced_grid.total_s, "s");
  add("trace.spans", static_cast<double>(g_tracer.size()), "count");

  g_tracer.print_summary();
  fs::create_directories(config.out);
  const std::string path = config.out + "/trace-" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".json";
  g_tracer.write_chrome_json(path);
  std::printf("trace written to %s (%zu spans; open in Perfetto)\n", path.c_str(),
              g_tracer.size());
  print_result(tally, m);
  return 0;
}

Config parse_args(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace expects 0 or 1");
      config.trace = v == "1";
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--max-states") {
      config.max_states = std::stoull(value());
    } else if (arg == "--root") {
      config.root = value();
    } else if (arg == "--out") {
      config.out = value();
    } else if (arg == "--commit") {
      config.commit = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(config.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config config = parse_args(argc, argv);
    const Scale& scale = config.smoke ? kSmoke : kFull;
    (void)make_workload(config, scale);  // rejects an unknown name before any work
    print_run_record(config);
    return config.trace ? run_profile(config, scale) : run_timed(config, scale);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
