// perfbench: the repository benchmark binary (built and driven by
// perfbench/run.py).
//
//   perfbench --workload <chain_paper|sessions_laned|dag_blackout>
//             --seed <n> --seconds <s> --trace <0|1> [--span-dir <dir>]
//
// --trace 0 measures the end-to-end metrics through the simulator's
// top-level entry points with no instrumentation: the full run repeats for
// about --seconds and the median wall time is reported; set-up is timed as
// the median of many zero-length runs of the same spec, interleaved with
// the full runs. The simulated metrics repeat exactly at a fixed seed, and
// every repetition must produce the same output digest.
//
// --trace 1 rebuilds the same runs from the public layer classes with spans
// at the layer boundaries (see assembly.h), checks the rebuilt result
// against the top-level runner's, runs the standalone layer microbenchmarks
// sized from the run (see microbench.h), and reports the per-layer metrics
// and the tracing overhead. Spans are written to --span-dir when given.
//
// Host times are steady-clock wall time; process CPU time is printed beside
// every threaded timing, never in place of it. The last line of stdout is
// the JSON result; the exit code is non-zero when any check fails.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "assembly.h"
#include "microbench.h"
#include "experiments/parallel.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace conscale;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `values` (0 when empty).
double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Process CPU time (all threads), seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Resets the kernel's resident-set high-water mark (Linux clear_refs "5");
/// without it peak_rss_mb() is the whole process's peak.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Checks that fail the run; each failure counts in `failed`.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    std::cout << "  check " << (ok ? "ok  " : "FAIL") << "  " << what << "\n";
    if (!ok) failures.push_back(what);
  }
};

void check_outcome(Checks& checks, const Outcome& o, const std::string& tag) {
  checks.expect(o.hook_underflows == 0,
                tag + ": hook_underflows == 0 (got " +
                    std::to_string(o.hook_underflows) + ")");
  checks.expect(o.completed + o.rejected + o.aborted <= o.issued,
                tag + ": completed + rejected + aborted <= issued (" +
                    std::to_string(o.completed) + " + " +
                    std::to_string(o.rejected) + " + " +
                    std::to_string(o.aborted) + " <= " +
                    std::to_string(o.issued) + ")");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_run_record(Workload workload, std::uint64_t seed, bool traced) {
  std::cout << "perfbench run record\n"
            << "  workload " << workload_name(workload) << ", seed " << seed
            << ", trace " << (traced ? 1 : 0) << "\n"
            << "  run seeds:";
  for (std::uint64_t s : run_seeds(workload, seed)) std::cout << ' ' << s;
  std::cout << "\n  nproc " << std::thread::hardware_concurrency()
            << ", build " << PERFBENCH_BUILD_TYPE << ", compiler "
#if defined(__clang__)
            << "clang " << __clang_version__
#elif defined(__GNUC__)
            << "gcc " << __VERSION__
#else
            << "unknown"
#endif
            << "\n";
}

// ---------------------------------------------------------------------------
// End-to-end mode
// ---------------------------------------------------------------------------

int run_end_to_end(Workload workload, std::uint64_t seed, double seconds) {
  Checks checks;
  const std::int64_t budget_start = now_ns();

  // Full runs until the budget is spent (at least one); the repetitions
  // must agree on every simulated output. Each repetition's peak resident
  // set is read on its own, so the count of repetitions does not move it.
  // Set-up is timed by zero-length runs of the same spec, in a block of
  // about 15 % of a full run (at most 250 runs) after every full run, so
  // the set-up median samples the host's speed over the whole budget, as
  // the full runs do, and always in a process whose heap is warm.
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rss;
  Outcome first;
  while (walls.empty() ||
         seconds_since(budget_start) + median(walls) <= seconds) {
    reset_peak_rss();
    const double cpu_start = process_cpu_s();
    const Execution e = execute(workload, seed, /*zero_length=*/false);
    cpus.push_back(process_cpu_s() - cpu_start);
    rss.push_back(peak_rss_mb());
    walls.push_back(e.wall_s);
    if (walls.size() == 1) {
      first = e.outcome;
    } else {
      checks.expect(e.outcome.digest == first.digest,
                    "repetition " + std::to_string(walls.size()) +
                        " output digest equals the first");
    }
    const std::int64_t block_start = now_ns();
    for (int n = 0; setups.size() < 5 ||
                    (n < 250 && seconds_since(block_start) < 0.15 * e.wall_s);
         ++n) {
      setups.push_back(execute(workload, seed, /*zero_length=*/true).wall_s);
    }
  }
  check_outcome(checks, first, workload_name(workload));

  // dag_blackout's set-up is timed one replicate after another while its
  // full runs build the replicates in parallel, so subtracting it would
  // turn a set-up speed-up into a wall_s regression; its wall_s keeps it.
  const double setup_s = median(setups);
  const double wall_s = workload == Workload::kDagBlackout
                            ? median(walls)
                            : median(walls) - setup_s;
  const std::uint64_t failed =
      first.rejected + first.aborted + checks.failures.size();
  std::cout.precision(6);
  std::vector<double> sorted_setups = setups;
  std::sort(sorted_setups.begin(), sorted_setups.end());
  std::cout << "  set-up  " << setups.size() << " zero-length runs, median "
            << setup_s << " s (quartiles "
            << sorted_setups[sorted_setups.size() / 4] << ", "
            << sorted_setups[3 * sorted_setups.size() / 4] << " s)\n"
            << "  runs    " << walls.size() << " full runs, median wall "
            << median(walls) << " s, median process CPU " << median(cpus)
            << " s (CPU/wall " << median(cpus) / median(walls)
            << "), median peak RSS " << median(rss) << " MB\n"
            << "  walls  ";
  for (double w : walls) std::cout << ' ' << w;
  std::cout << " s\n";
  std::cout.setf(std::ios::fixed);
  std::cout.precision(4);
  std::cout
            << "  digest  " << hex(first.digest) << "\n"
            << "  requests issued " << first.issued << ", completed "
            << first.completed << ", rejected " << first.rejected
            << ", aborted " << first.aborted << "\n"
            << "  simulated (exact at this seed; medians over replicates):\n"
            << "    rt_p50_ms   " << first.rt_p50_ms << " ms\n"
            << "    rt_p99_ms   " << first.rt_p99_ms << " ms\n"
            << "    sla_500ms   " << first.sla_500ms
            << " fraction (answered within 500 ms of issued)\n"
            << "    vm_s        " << first.vm_s << " VM-s\n"
            << "    goodput_rps " << first.goodput_rps << " 1/s\n"
            << std::defaultfloat << "    failed_frac "
            << (first.issued ? static_cast<double>(failed) /
                                   static_cast<double>(first.issued)
                             : 1.0)
            << " fraction (rejected + aborted + failed checks over issued)\n";
  if (workload == Workload::kChainPaper) {
    std::cout << "  paper Fig 10 reference: ConScale p99 465 ms, "
                 "EC2-AutoScaling p99 2345 ms; modelled ConScale p99 "
              << first.rt_p99_ms << " ms (simulator error "
              << 100.0 * (first.rt_p99_ms - 465.0) / 465.0 << " %)\n";
  }
  std::cout.unsetf(std::ios::fixed);

  print_result(checks.failures.empty(),
               std::max<std::uint64_t>(first.issued, 1), failed,
               {{"wall_s", wall_s, "s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mb", median(rss), "MB"},
                {"sla_500ms", first.sla_500ms, "fraction"},
                {"goodput_rps", first.goodput_rps, "1/s"}});
  return checks.failures.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced mode
// ---------------------------------------------------------------------------

/// Every per-layer metric, in print order. Layers idle on a workload (lanes
/// on the serial workloads, the in-run spans and the traced wall time and
/// overhead on sessions_laned) read 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"simcore.events", "count"},
    {"simcore.ns_per_event", "ns"},
    {"simcore.slice_ms.p50", "ms"},
    {"simcore.slice_ms.p99", "ms"},
    {"simcore.pending_peak", "count"},
    {"workload.requests", "count"},
    {"workload.submit_ns", "ns"},
    {"workload.done_ns", "ns"},
    {"cluster.lb_dispatch_ns", "ns"},
    {"cluster.vm_boots", "count"},
    {"tier.visits.Apache", "count"},
    {"tier.visits.Tomcat", "count"},
    {"tier.visits.MySQL", "count"},
    {"tier.visits.Gateway", "count"},
    {"tier.visits.SvcA", "count"},
    {"tier.visits.SvcB", "count"},
    {"tier.visits.SharedDB", "count"},
    {"tier.aborted", "count"},
    {"resources.ps_op_ns", "ns"},
    {"resources.token_op_ns", "ns"},
    {"topology.visits_per_request", "count"},
    {"topology.rejected", "count"},
    {"metrics.hook_ns", "ns"},
    {"metrics.aggregator_ns", "ns"},
    {"metrics.samples", "count"},
    {"metrics.dropped_samples", "count"},
    {"metrics.query_us", "us"},
    {"sct.estimates", "count"},
    {"sct.estimate_ms", "ms"},
    {"sct.range_found_ratio", "fraction"},
    {"conscale.actions", "count"},
    {"conscale.stale_skips", "count"},
    {"conscale.tick_us", "us"},
    {"faults.fired", "count"},
    {"lanes.windows", "count"},
    {"lanes.messages", "count"},
    {"lanes.events_per_window", "count"},
    {"lanes.cpu_per_wall", "ratio"},
    {"lanes.speedup", "ratio"},
    {"experiments.cpu_per_wall", "ratio"},
    {"experiments.straggler", "ratio"},
    {"self_s.simcore", "s"},
    {"self_s.cluster", "s"},
    {"self_s.workload", "s"},
    {"self_s.metrics", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_s", "s"},
};

using Values = std::map<std::string, double>;

double per_span_ns(const Tracer::Totals& t, bool self) {
  return t.spans ? static_cast<double>(self ? t.self_ns : t.total_ns) /
                       static_cast<double>(t.spans)
                 : 0.0;
}

/// Layer counts every result carries, whichever way it was produced.
void add_result_layers(Values& v, const ScalingRunResult& run) {
  std::uint64_t boots = 0;
  for (const ScalingEvent& e : run.events) boots += e.action == "scale-out";
  v["cluster.vm_boots"] += static_cast<double>(boots);
  std::uint64_t samples = run.system.size();
  for (const auto& [tier, series] : run.tiers) samples += series.size();
  for (const std::string& server : run.warehouse->server_names()) {
    samples += run.warehouse->server_series(server).size();
  }
  v["metrics.samples"] += static_cast<double>(samples);
  v["metrics.dropped_samples"] += static_cast<double>(run.dropped_samples);
  v["sct.estimates"] += static_cast<double>(run.sct_history.size());
  const auto counter = [&run](const char* key) {
    const auto it = run.controller_counters.find(key);
    return it == run.controller_counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  v["conscale.actions"] +=
      counter("scale_outs") + counter("scale_ins") + counter("adapts");
  v["conscale.stale_skips"] += counter("stale_skips");
  const FaultInjectorStats& f = run.fault_stats;
  v["faults.fired"] += static_cast<double>(
      f.crashes_injected + f.interference_windows + f.boot_jitter_windows +
      f.dropout_windows);
  v["topology.rejected"] += static_cast<double>(run.requests_rejected);
}

/// Counts and span statistics of traced assemblies (one per replicate).
void add_traced_layers(Values& v, const std::vector<TracedRun*>& runs) {
  std::array<Tracer::Totals, kSpanKinds> totals{};
  std::vector<double> slices;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t visits = 0;
  for (const TracedRun* run : runs) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const auto& t = run->tracer.totals(static_cast<SpanKind>(k));
      totals[k].spans += t.spans;
      totals[k].total_ns += t.total_ns;
      totals[k].self_ns += t.self_ns;
    }
    const auto s = run->tracer.kept_durations(SpanKind::kRunUntil);
    slices.insert(slices.end(), s.begin(), s.end());
    events += run->events;
    requests += run->entry_requests;
    v["simcore.pending_peak"] =
        std::max(v["simcore.pending_peak"],
                 static_cast<double>(run->pending_peak));
    for (std::size_t i = 0; i < run->tier_names.size(); ++i) {
      v["tier.visits." + run->tier_names[i]] +=
          static_cast<double>(run->tier_visits[i]);
      visits += run->tier_visits[i];
    }
    v["tier.aborted"] += static_cast<double>(run->aborted);
  }
  const auto& slice = totals[static_cast<std::size_t>(SpanKind::kRunUntil)];
  const auto& submit = totals[static_cast<std::size_t>(SpanKind::kSubmit)];
  const auto& done = totals[static_cast<std::size_t>(SpanKind::kDone)];
  const auto& hook = totals[static_cast<std::size_t>(SpanKind::kHook)];
  v["simcore.events"] = static_cast<double>(events);
  v["simcore.ns_per_event"] =
      events ? static_cast<double>(slice.total_ns) / static_cast<double>(events)
             : 0.0;
  v["simcore.slice_ms.p50"] = 1e3 * percentile(slices, 50.0);
  v["simcore.slice_ms.p99"] = 1e3 * percentile(slices, 99.0);
  v["workload.requests"] = static_cast<double>(requests);
  v["workload.submit_ns"] = per_span_ns(submit, false);
  v["workload.done_ns"] = per_span_ns(done, true);
  v["metrics.hook_ns"] = per_span_ns(hook, false);
  v["topology.visits_per_request"] =
      requests ? static_cast<double>(visits) / static_cast<double>(requests)
               : 0.0;
  v["self_s.simcore"] = static_cast<double>(slice.self_ns) * 1e-9;
  v["self_s.cluster"] = static_cast<double>(submit.self_ns) * 1e-9;
  v["self_s.workload"] = static_cast<double>(done.self_ns) * 1e-9;
  v["self_s.metrics"] = static_cast<double>(hook.self_ns) * 1e-9;
}

/// Largest pool any soft-resource action set, else the fallback.
std::size_t pool_from_events(const ScalingRunResult& run,
                             std::size_t fallback) {
  std::size_t pool = fallback;
  for (const ScalingEvent& e : run.events) {
    if (e.action == "threads" || e.action == "dbconn") {
      pool = std::max(pool, static_cast<std::size_t>(e.value));
    }
  }
  return pool;
}

void add_microbenchmarks(Values& v, const ScalingRunResult& run,
                         std::size_t pool, const SystemFactory& make_system,
                         const FrameworkConfig& config,
                         SimDuration duration) {
  const MicrobenchSizing sizing = size_from(run, pool);
  std::cout << "  microbenchmarks sized from the run: " << sizing.peak_backends
            << " backends, concurrency " << sizing.peak_concurrency
            << ", pool " << sizing.pool_size << ", " << sizing.operations
            << " visits\n";
  v["cluster.lb_dispatch_ns"] = lb_dispatch_ns(sizing);
  v["resources.token_op_ns"] = token_op_ns(sizing);
  v["resources.ps_op_ns"] = ps_op_ns(sizing);
  v["metrics.aggregator_ns"] = aggregator_hook_ns(sizing);
  const SeriesReplay replay = replay_series(run, config, duration);
  v["metrics.query_us"] = replay.query_us;
  v["sct.estimate_ms"] = replay.estimate_ms;
  v["sct.range_found_ratio"] = replay.range_found_ratio;
  v["conscale.tick_us"] =
      controller_tick_us(run, make_system, config, duration);
}

void write_spans(const std::string& span_dir, Workload workload,
                 std::uint64_t seed, const std::vector<TracedRun*>& runs,
                 std::int64_t origin_ns) {
  if (span_dir.empty() || runs.empty()) return;
  std::filesystem::create_directories(span_dir);
  const std::string path = span_dir + "/" + workload_name(workload) +
                           "-seed" + std::to_string(seed) + ".jsonl";
  std::ofstream out(path);
  std::size_t kept = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    runs[r]->tracer.write_jsonl(out, static_cast<int>(r), origin_ns);
    kept += runs[r]->tracer.kept();
  }
  std::cout << "  spans   " << kept << " kept, written to " << path << "\n";
}

int run_traced(Workload workload, std::uint64_t seed,
               const std::string& span_dir) {
  Checks checks;
  Values v;
  const std::int64_t origin = now_ns();
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  Outcome outcome;

  switch (workload) {
    case Workload::kChainPaper: {
      const ChainInputs in = chain_paper_inputs(seed, false);
      std::int64_t start = now_ns();
      const ScalingRunResult plain =
          run_scaling(in.params, in.trace, kFramework, in.options);
      untraced_wall = seconds_since(start);
      TracedRun traced_run;
      const ScalingRunResult traced = run_chain_traced(in, traced_run);
      traced_wall = traced_run.wall_s;
      std::string diff;
      checks.expect(results_equivalent(plain, traced, &diff),
                    "traced assembly equals run_scaling" +
                        (diff.empty() ? "" : " (" + diff + ")"));
      outcome = summarize(traced);
      add_result_layers(v, traced);
      add_traced_layers(v, {&traced_run});
      const ScenarioParams params = in.params;
      add_microbenchmarks(
          v, traced, traced_run.peak_pool,
          [params](Simulation& sim) -> std::unique_ptr<TierSystem> {
            return std::make_unique<NTierSystem>(sim, params.system_config());
          },
          make_framework_config(params), in.options.duration);
      write_spans(span_dir, workload, seed, {&traced_run}, origin);
      break;
    }
    case Workload::kSessionsLaned: {
      // The laned runner owns its assembly, so this workload has no spans
      // and no traced run: it is observed through LaneRunInfo, the result
      // and process CPU time of the untraced lanes=4 run, and checked
      // against lanes=1.
      const LanedInputs in = sessions_laned_inputs(seed, false, 4);
      const LanedInputs serial_in = sessions_laned_inputs(seed, false, 1);
      LaneRunInfo info;
      const double cpu_start = process_cpu_s();
      std::int64_t start = now_ns();
      const ScalingRunResult laned =
          run_scaling_laned(in.params, in.trace, kFramework, in.options, &info);
      untraced_wall = seconds_since(start);
      const double laned_cpu = process_cpu_s() - cpu_start;
      LaneRunInfo serial_info;
      start = now_ns();
      const ScalingRunResult serial = run_scaling_laned(
          serial_in.params, serial_in.trace, kFramework, serial_in.options,
          &serial_info);
      const double serial_wall = seconds_since(start);
      std::string diff;
      checks.expect(results_equivalent(laned, serial, &diff),
                    "lanes=4 equals lanes=1" +
                        (diff.empty() ? "" : " (" + diff + ")"));
      outcome = summarize(laned);
      add_result_layers(v, laned);
      const auto& stats = info.stats;
      v["simcore.events"] = static_cast<double>(stats.events);
      v["simcore.ns_per_event"] =
          stats.events
              ? untraced_wall * 1e9 / static_cast<double>(stats.events)
              : 0.0;
      v["workload.requests"] = static_cast<double>(laned.requests_issued);
      double visits = 0.0;
      for (const std::string& server : laned.warehouse->server_names()) {
        const std::string tier =
            server.substr(0, server.find_first_of("0123456789"));
        double completions = 0.0;
        for (const IntervalSample& s : laned.warehouse->server_series(server)) {
          completions += static_cast<double>(s.completions);
        }
        v["tier.visits." + tier] += completions;
        visits += completions;
      }
      v["topology.visits_per_request"] =
          laned.requests_issued
              ? visits / static_cast<double>(laned.requests_issued)
              : 0.0;
      v["lanes.windows"] = static_cast<double>(stats.windows);
      v["lanes.messages"] = static_cast<double>(stats.messages);
      v["lanes.events_per_window"] =
          stats.windows ? static_cast<double>(stats.events) /
                              static_cast<double>(stats.windows)
                        : 0.0;
      v["lanes.cpu_per_wall"] = laned_cpu / untraced_wall;
      v["lanes.speedup"] = serial_wall / untraced_wall;
      std::cout.setf(std::ios::fixed);
      std::cout.precision(3);
      std::cout << "  lanes=4 wall " << untraced_wall << " s (process CPU "
                << laned_cpu << " s), lanes=1 wall " << serial_wall
                << " s, " << info.lanes << " lanes, " << info.shards
                << " shards\n";
      std::cout.unsetf(std::ios::fixed);
      const ScenarioParams params = in.params;
      add_microbenchmarks(
          v, laned, pool_from_events(laned, params.app_threads),
          [params](Simulation& sim) -> std::unique_ptr<TierSystem> {
            return std::make_unique<NTierSystem>(sim, params.system_config());
          },
          make_framework_config(params), in.options.base.duration);
      break;
    }
    case Workload::kDagBlackout: {
      const DagInputs in = dag_blackout_inputs(seed, false);
      const std::size_t n = in.replicates.size();
      std::vector<double> replicate_walls;
      const double cpu_start = process_cpu_s();
      std::int64_t start = now_ns();
      const auto plain = run_replicates(in, kDagJobs, &replicate_walls);
      untraced_wall = seconds_since(start);
      const double plain_cpu = process_cpu_s() - cpu_start;
      std::vector<TracedRun> traced_runs(n);
      start = now_ns();
      const auto traced = parallel_map<GraphRunResult>(
          n, kDagJobs, [&](std::size_t r) {
            return run_graph_traced(in.replicates[r], in.trace, in.options,
                                    traced_runs[r]);
          });
      traced_wall = seconds_since(start);
      std::vector<TracedRun*> runs;
      for (std::size_t r = 0; r < n; ++r) {
        std::string diff;
        checks.expect(graph_results_equivalent(plain[r], traced[r], &diff),
                      "replicate " + std::to_string(r) +
                          ": traced assembly equals run_graph_scaling" +
                          (diff.empty() ? "" : " (" + diff + ")"));
        add_result_layers(v, traced[r].run);
        runs.push_back(&traced_runs[r]);
      }
      outcome = summarize(traced);
      add_traced_layers(v, runs);
      v["experiments.cpu_per_wall"] = plain_cpu / untraced_wall;
      v["experiments.straggler"] =
          *std::max_element(replicate_walls.begin(), replicate_walls.end()) /
          median(replicate_walls);
      std::cout.setf(std::ios::fixed);
      std::cout.precision(3);
      std::cout << "  replicates: wall " << untraced_wall << " s at jobs="
                << kDagJobs << ", process CPU " << plain_cpu << " s;"
                << " replicate walls";
      for (double w : replicate_walls) std::cout << ' ' << w;
      std::cout << " s\n";
      std::cout.unsetf(std::ios::fixed);
      const GraphScenario scenario = in.replicates.front();
      add_microbenchmarks(
          v, traced.front().run, traced_runs.front().peak_pool,
          [scenario](Simulation& sim) -> std::unique_ptr<TierSystem> {
            return std::make_unique<topology::ServiceGraph>(sim,
                                                            scenario.graph);
          },
          scenario.framework, in.options.duration);
      write_spans(span_dir, workload, seed, runs, origin);
      break;
    }
  }
  check_outcome(checks, outcome, workload_name(workload));
  v["trace.untraced_wall_s"] = untraced_wall;
  if (workload != Workload::kSessionsLaned) {
    v["trace.traced_wall_s"] = traced_wall;
    v["trace.overhead_s"] = traced_wall - untraced_wall;
  }

  std::vector<Metric> metrics;
  std::cout.precision(6);
  std::cout << "  per-layer metrics (host times are steady-clock wall; counts "
               "are simulated work):\n";
  for (const auto& [name, unit] : kPerLayer) {
    const double value = v.count(name) ? v.at(name) : 0.0;
    metrics.push_back({name, value, unit});
    std::cout << "    " << name << " = " << value << " " << unit << "\n";
  }
  std::cout << "  digest  " << hex(outcome.digest) << "\n";
  const std::uint64_t failed =
      outcome.rejected + outcome.aborted + checks.failures.size();
  print_result(checks.failures.empty(),
               std::max<std::uint64_t>(outcome.issued, 1), failed, metrics);
  return checks.failures.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string span_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--span-dir") {
        args.span_dir = value;
      } else {
        std::cerr << "perfbench: unknown option " << key << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << key << ": " << value << "\n";
      return false;
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--span-dir <dir>]\n";
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) try {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  const auto workload = parse_workload(args.workload);
  if (!workload) {
    std::cerr << "perfbench: unknown workload " << args.workload
              << " (chain_paper, sessions_laned, dag_blackout)\n";
    return 2;
  }
  print_run_record(*workload, args.seed, args.trace == 1);
  return args.trace == 1
             ? run_traced(*workload, args.seed, args.span_dir)
             : run_end_to_end(*workload, args.seed, args.seconds);
} catch (const std::exception& e) {
  std::cerr << "perfbench: error: " << e.what() << "\n";
  return 3;
}
