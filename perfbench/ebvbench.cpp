// ebvbench: the measuring half of the EBV pipeline benchmark. perfbench/run.py
// drives it; each subcommand is one process so that generated inputs and
// reference answers never count toward the program's memory.
//
//   ebvbench gen   --family powerlaw ... --out edges.txt
//   ebvbench job   --text edges.txt --work DIR --app cc|pr --parts P ...
//   ebvbench serve --ebvpart BIN --snapshot g.ebvs --ebvp g.ebvp ...
//
// Every layer is timed from outside, around calls into its public API:
//   graph      io::convert_edge_list_to_snapshot, MappedGraph + validate()
//   partition  make_edge_order, make_partitioner(..)->partition_view,
//              compute_metrics
//   bsp        the DistributedGraph constructor, BspRuntime::run
//   serve      a real `ebvpart serve` daemon over serve/protocol.h frames
// Each subcommand prints one JSON object on its last stdout line.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/reference.h"
#include "bsp/distributed_graph.h"
#include "bsp/runtime.h"
#include "common/parallel.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mapped_graph.h"
#include "graph/snapshot_convert.h"
#include "obs/trace.h"
#include "partition/metrics.h"
#include "partition/partition_io.h"
#include "partition/registry.h"
#include "serve/protocol.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using ebv::EdgeId;
using ebv::PartitionId;
using ebv::VertexId;

// --- Small utilities --------------------------------------------------------

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string arg(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double num(const Args& args, const std::string& key) {
  return std::stod(arg(args, key));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Value of `key` ("VmHWM") in /proc/<pid>/status, in kB.
double proc_status_kb(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  throw std::runtime_error("no " + key + " in /proc/" + pid + "/status");
}

/// {minor, major} page faults of a process from /proc/<pid>/stat.
std::pair<double, double> proc_faults(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state(3) ppid pgrp
  // session tty tpgid flags minflt(10) cminflt majflt(12).
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::vector<std::string> fields;
  std::string field;
  while (rest >> field) fields.push_back(field);
  return {std::stod(fields.at(7)), std::stod(fields.at(9))};
}

/// Flat JSON object writer for the result line.
class JsonOut {
 public:
  void num(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(17);
    os << value;
    add(key, std::isfinite(value) ? os.str() : "null");
  }
  void str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    add(key, quoted + "\"");
  }
  void print() const { std::cout << "{" << body_ << "}" << std::endl; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

/// Operation tally: every attempted operation either passes its check or
/// is counted failed, with the first few reasons kept for the record.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) first_failures += what + "; ";
  }
  void count(std::uint64_t tried, std::uint64_t bad, const std::string& what) {
    attempted += tried;
    if (bad == 0) return;
    failed += bad;
    first_failures += std::to_string(bad) + " " + what + "; ";
  }
  void emit(JsonOut& out) const {
    out.num("attempted", static_cast<double>(attempted));
    out.num("failed", static_cast<double>(failed));
    out.str("failures", first_failures);
  }
};

// --- Adapter: the one place that sets pipeline knobs -----------------------
//
// Every PartitionConfig / RunOptions / ConvertOptions field the benchmark
// touches is set here and nowhere else, so an API change to those structs
// is a one-place edit. The team size defaults to the host's core count;
// the scheduler is left at its default (strict), and no batch-size or
// async knob is touched.

struct Knobs {
  std::uint32_t team = 4;
  PartitionId parts = 2;
};

ebv::io::ConvertOptions convert_options(const Knobs& knobs) {
  ebv::io::ConvertOptions options;
  options.num_threads = knobs.team;
  return options;
}

ebv::PartitionConfig partition_config(const Knobs& knobs) {
  ebv::PartitionConfig config;
  config.num_parts = knobs.parts;
  config.num_threads = knobs.team;
  return config;
}

ebv::bsp::RunOptions run_options(const Knobs& knobs) {
  ebv::bsp::RunOptions options;
  options.policy = ebv::bsp::ExecutionPolicy::kParallel;
  options.num_threads = knobs.team;
  if (options.scheduler != ebv::bsp::SchedulerMode::kStrict) {
    throw std::logic_error("benchmark expects the strict scheduler default");
  }
  return options;
}

// --- gen ----------------------------------------------------------------------

int cmd_gen(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(num(args, "seed"));
  const std::string family = arg(args, "family");
  ebv::Graph graph;
  if (family == "powerlaw") {
    graph = ebv::gen::chung_lu(static_cast<VertexId>(num(args, "vertices")),
                               static_cast<EdgeId>(num(args, "edges")),
                               num(args, "exponent"), /*undirected=*/false,
                               seed);
  } else {
    throw std::invalid_argument("unknown --family " + family);
  }
  ebv::io::write_edge_list_file(arg(args, "out"), graph);
  JsonOut out;
  out.num("vertices", graph.num_vertices());
  out.num("edges", static_cast<double>(graph.num_edges()));
  out.print();
  return 0;
}

// --- job ----------------------------------------------------------------------

enum class App { kCC, kPageRank };

App parse_app(const std::string& name) {
  if (name == "cc") return App::kCC;
  if (name == "pr") return App::kPageRank;
  throw std::invalid_argument("unknown --app " + name);
}

constexpr std::uint32_t kPageRankIterations = 20;

struct JobResult {
  double job_s = 0, partition_s = 0, metrics_s = 0, distribute_s = 0,
         run_s = 0;
  double partition_cpu = 0, distribute_cpu = 0, run_cpu = 0;
  ebv::EdgePartition partition;
  ebv::PartitionMetrics metrics;
  ebv::bsp::RunStats run;
};

/// One job: partition, compute_metrics, distribute, run — each call timed
/// from outside, with rusage CPU around it for busy cores.
JobResult run_job(const ebv::GraphView& view, const Knobs& knobs, App app) {
  JobResult r;
  const auto partitioner = ebv::make_partitioner("ebv");
  const auto t0 = Clock::now();
  double c0 = cpu_seconds();
  r.partition = partitioner->partition_view(view, partition_config(knobs));
  r.partition_s = seconds_since(t0);
  r.partition_cpu = cpu_seconds() - c0;

  const auto t1 = Clock::now();
  r.metrics = ebv::compute_metrics(view, r.partition);
  r.metrics_s = seconds_since(t1);

  const auto t2 = Clock::now();
  c0 = cpu_seconds();
  const ebv::bsp::DistributedGraph dist(view, r.partition);
  r.distribute_s = seconds_since(t2);
  r.distribute_cpu = cpu_seconds() - c0;

  const ebv::bsp::BspRuntime runtime(run_options(knobs));
  const auto t3 = Clock::now();
  c0 = cpu_seconds();
  switch (app) {
    case App::kCC:
      r.run = runtime.run(dist, ebv::apps::ConnectedComponents());
      break;
    case App::kPageRank:
      r.run = runtime.run(
          dist, ebv::apps::PageRank(view.num_vertices(), kPageRankIterations));
      break;
  }
  r.run_s = seconds_since(t3);
  r.run_cpu = cpu_seconds() - c0;
  r.job_s = seconds_since(t0);
  return r;
}

double message_imbalance(const ebv::bsp::RunStats& run) {
  const auto& sent = run.messages_sent_per_worker;
  if (sent.empty()) return 0.0;
  double total = 0.0;
  double most = 0.0;
  for (const std::uint64_t m : sent) {
    total += static_cast<double>(m);
    most = std::max(most, static_cast<double>(m));
  }
  return total > 0.0 ? most / (total / static_cast<double>(sent.size())) : 0.0;
}

std::uint64_t work_units(const ebv::bsp::RunStats& run) {
  std::uint64_t total = 0;
  for (const auto& step : run.steps) {
    for (const auto& worker : step) total += worker.work_units;
  }
  return total;
}

/// The outputs that must repeat exactly across jobs (and between traced
/// and untraced jobs): partition quality, message counts, virtual time,
/// superstep count and every final vertex value.
bool same_exact_outputs(const JobResult& a, const JobResult& b) {
  return a.partition.part_of_edge == b.partition.part_of_edge &&
         a.metrics.replication_factor == b.metrics.replication_factor &&
         a.metrics.edge_imbalance == b.metrics.edge_imbalance &&
         a.metrics.vertex_imbalance == b.metrics.vertex_imbalance &&
         a.run.supersteps == b.run.supersteps &&
         a.run.total_messages == b.run.total_messages &&
         a.run.messages_sent_per_worker == b.run.messages_sent_per_worker &&
         a.run.execution_seconds == b.run.execution_seconds &&
         a.run.comm_seconds == b.run.comm_seconds &&
         a.run.delta_c_seconds == b.run.delta_c_seconds &&
         work_units(a.run) == work_units(b.run) && a.run.values == b.run.values;
}

/// Free a checked job's per-edge and per-vertex outputs, so that the
/// jobs kept for their timings do not add to the memory high-water mark.
void drop_outputs(JobResult& job) {
  job.partition.part_of_edge = {};
  job.run.values = {};
}

bool parts_in_range(const ebv::EdgePartition& partition, PartitionId parts) {
  return partition.num_parts == parts &&
         std::all_of(partition.part_of_edge.begin(),
                     partition.part_of_edge.end(),
                     [parts](PartitionId p) { return p < parts; });
}

/// Compare the first job's values against the sequential references.
bool matches_reference(const ebv::Graph& graph, App app,
                       const std::vector<double>& values, std::string& why) {
  if (values.size() != graph.num_vertices()) {
    why = "value count differs from |V|";
    return false;
  }
  std::vector<double> expected;
  double tolerance = 0.0;
  switch (app) {
    case App::kCC: {
      for (const VertexId label : ebv::apps::cc_reference(graph)) {
        expected.push_back(static_cast<double>(label));
      }
      break;
    }
    case App::kPageRank:
      expected = ebv::apps::pagerank_reference(graph, kPageRankIterations);
      tolerance = 1e-9;  // absolute; summation order differs from the BSP run
      // RunStats::values documents that a vertex covered by no edge keeps
      // its init_value (1/|V|); the reference gives it the teleport share
      // (1-d)/|V|. Isolated vertices are held to the runtime's contract.
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        if (graph.out_degree(v) + graph.in_degree(v) == 0) {
          expected[v] = 1.0 / static_cast<double>(graph.num_vertices());
        }
      }
      break;
  }
  for (std::size_t v = 0; v < values.size(); ++v) {
    const bool ok = tolerance == 0.0
                        ? values[v] == expected[v]
                        : std::fabs(values[v] - expected[v]) <= tolerance;
    if (!ok) {
      why = "vertex " + std::to_string(v) + " got " +
            std::to_string(values[v]) + " want " + std::to_string(expected[v]);
      return false;
    }
  }
  return true;
}

int cmd_job(const Args& args) {
  Knobs knobs;
  knobs.team = static_cast<std::uint32_t>(num(args, "team"));
  knobs.parts = static_cast<PartitionId>(num(args, "parts"));
  ebv::request_global_threads(knobs.team);
  const App app = parse_app(arg(args, "app"));
  const std::string text = arg(args, "text");
  const std::string work = arg(args, "work");
  const std::string snapshot = work + "/graph.ebvs";
  const double budget_s = num(args, "seconds");
  const int setup_reps = static_cast<int>(num(args, "setup-reps"));
  const int min_jobs = static_cast<int>(num(args, "min-jobs"));
  const bool traced = num(args, "trace") != 0;
  Tally tally;
  JsonOut out;

  // graph layer: convert + open/validate, repeated; setup_s is the median.
  std::vector<double> convert_s, open_s, setup_s;
  double input_mb = 0.0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    std::remove(snapshot.c_str());
    const auto t0 = Clock::now();
    const auto stats = ebv::io::convert_edge_list_to_snapshot(
        text, snapshot, convert_options(knobs));
    convert_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    const ebv::MappedGraph mapped(snapshot);
    mapped.validate();
    open_s.push_back(seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
    input_mb = static_cast<double>(stats.input_bytes) / 1e6;
    tally.check(stats.edges_written == mapped.num_edges() &&
                    mapped.num_edges() > 0,
                "convert wrote an empty or inconsistent snapshot");
  }
  out.num("setup_s", median(setup_s));
  out.num("graph.convert_s", median(convert_s));
  out.num("graph.convert_mb_per_s", input_mb / median(convert_s));
  out.num("graph.open_validate_s", median(open_s));

  const ebv::MappedGraph mapped(snapshot);
  const ebv::GraphView view = mapped.view();

  // Untraced jobs until the time budget is spent (at least min_jobs). A
  // traced run alternates untraced and traced jobs so that the overhead
  // and the exact-count comparison come from the same run.
  std::vector<JobResult> plain;
  std::vector<JobResult> with_trace;
  std::vector<double> edge_order_s;
  int trace_index = 0;
  // Peak RSS of set-up plus one job, as one `ebvpart run` would reach it:
  // the high-water mark keeps creeping up with later jobs (allocator
  // fragmentation), which would tie it to how many jobs fit the budget.
  double hwm_mb = 0.0;
  const auto loop_start = Clock::now();
  while (static_cast<int>(plain.size()) < min_jobs ||
         seconds_since(loop_start) < budget_s) {
    plain.push_back(run_job(view, knobs, app));
    if (plain.size() == 1) hwm_mb = proc_status_kb("self", "VmHWM") / 1024.0;
    tally.check(parts_in_range(plain.back().partition, knobs.parts),
                "part id out of range");
    if (plain.size() > 1) {
      tally.check(same_exact_outputs(plain.front(), plain.back()),
                  "untraced jobs disagree on exact outputs");
      drop_outputs(plain.back());
    }
    if (!traced) continue;
    ebv::obs::trace::start();
    with_trace.push_back(run_job(view, knobs, app));
    const std::string path =
        work + "/trace-" + std::to_string(trace_index++) + ".json";
    ebv::obs::trace::stop_and_write(path);
    tally.check(same_exact_outputs(plain.front(), with_trace.back()),
                "traced job differs from untraced job in exact outputs");
    drop_outputs(with_trace.back());
    const auto t0 = Clock::now();
    const auto order = ebv::make_edge_order(
        view, partition_config(knobs).edge_order, partition_config(knobs).seed,
        knobs.team);
    edge_order_s.push_back(seconds_since(t0));
    tally.check(order.size() == view.num_edges(), "edge order size");
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  auto med = [&](double JobResult::*field) {
    std::vector<double> v;
    for (const auto& j : plain) v.push_back(j.*field);
    return median(v);
  };
  const JobResult& first = plain.front();
  out.num("jobs", static_cast<double>(plain.size()));
  out.num("job_s", med(&JobResult::job_s));
  out.num("peak_rss_mb", hwm_mb);
  out.num("replication_factor", first.metrics.replication_factor);
  out.num("edge_imbalance", first.metrics.edge_imbalance);
  out.num("vertex_imbalance", first.metrics.vertex_imbalance);
  out.num("messages", static_cast<double>(first.run.total_messages));
  out.num("message_imbalance", message_imbalance(first.run));
  out.num("virtual_exec_s", first.run.execution_seconds);

  const double partition_s = med(&JobResult::partition_s);
  out.num("partition.partition_s", partition_s);
  out.num("partition.edges_per_s",
          static_cast<double>(view.num_edges()) / partition_s);
  out.num("partition.busy_cores",
          med(&JobResult::partition_cpu) / partition_s);
  out.num("partition.metrics_s", med(&JobResult::metrics_s));
  const double distribute_s = med(&JobResult::distribute_s);
  out.num("bsp.distribute_s", distribute_s);
  out.num("bsp.distribute_busy_cores",
          med(&JobResult::distribute_cpu) / distribute_s);
  const double run_s = med(&JobResult::run_s);
  out.num("bsp.run_s", run_s);
  out.num("bsp.run_busy_cores", med(&JobResult::run_cpu) / run_s);
  out.num("bsp.messages_per_s",
          static_cast<double>(first.run.total_messages) / run_s);
  out.num("bsp.supersteps", first.run.supersteps);
  out.num("apps.work_units", static_cast<double>(work_units(first.run)));
  out.num("bsp.virtual_comm_s", first.run.comm_seconds);
  out.num("bsp.delta_c_s", first.run.delta_c_seconds);
  if (traced) {
    std::vector<double> traced_job_s;
    for (const auto& j : with_trace) traced_job_s.push_back(j.job_s);
    out.num("partition.edge_order_s", median(edge_order_s));
    out.num("partition.score_s", partition_s - median(edge_order_s));
    out.num("trace.overhead_s", median(traced_job_s) - med(&JobResult::job_s));
    out.num("trace_files", trace_index);
  }
  out.num("proc.minor_faults", static_cast<double>(ru.ru_minflt));
  out.num("proc.major_faults", static_cast<double>(ru.ru_majflt));

  // The serve phase serves this snapshot with the job's partition.
  ebv::io::write_partition_binary_file(work + "/graph.ebvp", first.partition);

  // Reference check, after the memory high-water mark was read.
  const ebv::Graph resident = ebv::io::read_snapshot_file(snapshot);
  std::string why;
  const bool matches = matches_reference(resident, app, first.run.values, why);
  tally.check(matches, "reference mismatch: " + why);
  tally.emit(out);
  out.print();
  return 0;
}

// --- serve ----------------------------------------------------------------------

namespace serve = ebv::serve;

/// The `ebvpart serve` daemon as a child process.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log_path) {
    std::vector<char*> cargv;
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = posix_spawn(&pid_, cargv[0], &actions, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("posix_spawn " + argv[0] + " failed");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::string pid() const { return std::to_string(pid_); }

  /// SIGTERM (graceful drain) and reap; returns whether it exited 0 on
  /// this request (false when it had already died on its own).
  /// `ebvpart serve` answers pings a moment before it installs its
  /// SIGTERM handler, and a SIGTERM in that window kills it instead of
  /// draining it; so the signal waits until the handler shows in the
  /// daemon's caught-signal mask.
  bool stop() {
    if (pid_ <= 0) return false;
    int status = 0;
    pid_t reaped = 0;
    const auto t0 = Clock::now();
    while (!catches_sigterm() && seconds_since(t0) < 10.0 &&
           (reaped = waitpid(pid_, &status, WNOHANG)) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (reaped == 0) {
      kill(pid_, SIGTERM);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return reaped == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// Whether the daemon is still running; reaps it if it has exited.
  bool alive() {
    if (pid_ <= 0) return false;
    if (waitpid(pid_, nullptr, WNOHANG) == 0) return true;
    pid_ = -1;
    return false;
  }

 private:
  /// Whether SIGTERM is set in the SigCgt mask of /proc/<pid>/status.
  [[nodiscard]] bool catches_sigterm() const {
    std::ifstream in("/proc/" + pid() + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("SigCgt:", 0) == 0) {
        const unsigned long long mask = std::stoull(line.substr(7), nullptr, 16);
        return ((mask >> (SIGTERM - 1)) & 1ULL) != 0;
      }
    }
    return false;
  }

  pid_t pid_ = -1;
};

/// Ping round trip on `fd`.
bool ping(int fd) {
  if (!serve::write_frame(fd, serve::MsgType::kPing, serve::Status::kOk, 0,
                          {})) {
    return false;
  }
  const auto frame = serve::read_frame(fd, serve::kMaxResponseBody);
  return frame.outcome == serve::ReadOutcome::kFrame &&
         frame.header.status == static_cast<std::uint16_t>(serve::Status::kOk);
}

/// Connect to the daemon's socket, retrying until it answers a ping.
/// Returns the connected fd, or -1 after `timeout_s`.
int connect_when_ready(Daemon& daemon, const std::string& socket,
                       double timeout_s) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) < timeout_s && daemon.alive()) {
    try {
      const int fd = serve::connect_unix(socket);
      if (ping(fd)) return fd;
      close(fd);
    } catch (const std::runtime_error&) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return -1;
}

/// One request of the mix, with what the spot check needs to know.
struct Request {
  serve::MsgType type = serve::MsgType::kPing;
  std::vector<std::uint8_t> body;
  std::vector<std::uint64_t> ids;  // degree vertices, partition edges
  VertexId source = 0;
  std::uint32_t hops = 0;
  std::uint32_t limit = 0;
};

constexpr std::uint32_t kBatch = 8;
constexpr std::uint32_t kNeighborLimit = 256;

/// The request mix: 5% stats, 30% degree, 15% partition, 15% replicas,
/// 20% 1-hop and 15% 2-hop neighbors.
Request make_request(std::mt19937_64& rng, VertexId num_vertices,
                     EdgeId num_edges) {
  Request r;
  const std::uint64_t pick = rng() % 100;
  auto vertex = [&] { return static_cast<VertexId>(rng() % num_vertices); };
  if (pick < 5) {
    r.type = serve::MsgType::kStats;
    r.body = serve::encode_stats_request({});
  } else if (pick < 35 || (pick >= 50 && pick < 65)) {
    serve::DegreeRequest req;
    for (std::uint32_t i = 0; i < kBatch; ++i) req.vertices.push_back(vertex());
    r.ids.assign(req.vertices.begin(), req.vertices.end());
    if (pick < 35) {
      r.type = serve::MsgType::kDegree;
      r.body = serve::encode_degree_request(req);
    } else {
      r.type = serve::MsgType::kReplicas;
      r.body = serve::encode_replicas_request({0, req.vertices});
    }
  } else if (pick < 50) {
    serve::PartitionRequest req;
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      req.edges.push_back(rng() % num_edges);
    }
    r.ids.assign(req.edges.begin(), req.edges.end());
    r.type = serve::MsgType::kPartition;
    r.body = serve::encode_partition_request(req);
  } else {
    serve::NeighborsRequest req;
    req.source = vertex();
    req.hops = pick < 85 ? 1 : 2;
    req.limit = kNeighborLimit;
    r.source = req.source;
    r.hops = req.hops;
    r.limit = req.limit;
    r.type = serve::MsgType::kNeighbors;
    r.body = serve::encode_neighbors_request(req);
  }
  return r;
}

/// The library's own 1-hop answer: the source plus its out-neighbors in
/// CSR order, stopping at `limit` vertices, ascending.
serve::NeighborsResponse expected_one_hop(const ebv::MappedGraph& mapped,
                                          VertexId source,
                                          std::uint32_t limit) {
  const auto offsets = mapped.csr_offsets();
  const auto edges = mapped.edges();
  std::vector<VertexId> seen{source};
  serve::NeighborsResponse out;
  for (std::uint64_t e = offsets[source]; e != offsets[source + 1]; ++e) {
    const VertexId v = edges[e].dst;
    if (std::find(seen.begin(), seen.end(), v) != seen.end()) continue;
    if (seen.size() >= limit) {
      out.truncated = true;
      break;
    }
    seen.push_back(v);
  }
  std::sort(seen.begin(), seen.end());
  out.vertices = std::move(seen);
  return out;
}

/// Spot check one response against the snapshot and partition file.
bool spot_check(const Request& req, const std::vector<std::uint8_t>& body,
                const ebv::MappedGraph& mapped,
                const ebv::EdgePartition& partition) {
  const ebv::GraphView view = mapped.view();
  switch (req.type) {
    case serve::MsgType::kDegree: {
      const auto got = serve::decode_degree_response(body);
      if (got.size() != req.ids.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const auto v = static_cast<VertexId>(req.ids[i]);
        if (got[i].out_degree != view.out_degree(v) ||
            got[i].in_degree != view.in_degree(v)) {
          return false;
        }
      }
      return true;
    }
    case serve::MsgType::kPartition: {
      const auto got = serve::decode_partition_response(body);
      if (got.size() != req.ids.size()) return false;
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != partition.part_of_edge[req.ids[i]]) return false;
      }
      return true;
    }
    case serve::MsgType::kNeighbors: {
      const auto got = serve::decode_neighbors_response(body);
      const auto want = expected_one_hop(mapped, req.source, req.limit);
      return got.truncated == want.truncated && got.vertices == want.vertices;
    }
    default:
      return true;
  }
}

struct RungResult {
  std::vector<double> latency_ms;  // completed requests, from due time
  std::vector<double> lag_ms;      // actual send - due
  std::uint64_t sent = 0, ok = 0, overloaded = 0, errors = 0, missing = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t backlog_at_end = 0;
  double span_s = 0;  // first due time to last response
};

/// One open-loop rung on one pipelined session: a sender thread writes
/// requests at their scheduled times (never waiting for responses) and a
/// receiver thread matches responses by request id.
RungResult run_rung(int fd, const std::vector<Request>& requests,
                    double rate, std::uint64_t first_id,
                    std::vector<std::vector<std::uint8_t>>& kept,
                    std::uint32_t keep_every) {
  const std::size_t n = requests.size();
  RungResult r;
  std::vector<Clock::time_point> due(n), sent_at(n), got_at(n);
  std::vector<std::uint16_t> status(n, 0xFFFF);
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> sent_count{0};
  std::atomic<bool> send_failed{false};
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         1e9 * static_cast<double>(i) / rate));
  }

  std::thread receiver([&] {
    while (received.load(std::memory_order_relaxed) < n) {
      auto frame = serve::read_frame(fd, serve::kMaxResponseBody);
      if (frame.outcome != serve::ReadOutcome::kFrame) break;
      const std::uint64_t id = frame.header.request_id - first_id;
      if (id >= n || status[id] != 0xFFFF) break;
      got_at[id] = Clock::now();
      status[id] = frame.header.status;
      if (keep_every > 0 && id % keep_every == 0) {
        kept[id] = std::move(frame.body);
      }
      received.fetch_add(1, std::memory_order_release);
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    sent_at[i] = Clock::now();
    if (!serve::write_frame(fd, requests[i].type, serve::Status::kOk,
                            first_id + i, requests[i].body)) {
      send_failed = true;
      break;
    }
    sent_count.store(i + 1, std::memory_order_relaxed);
    const std::uint64_t outstanding =
        i + 1 - received.load(std::memory_order_acquire);
    r.backlog_max = std::max(r.backlog_max, outstanding);
  }
  r.backlog_at_end = sent_count.load() - received.load(std::memory_order_acquire);
  if (send_failed) shutdown(fd, SHUT_RD);
  receiver.join();

  r.sent = sent_count.load();
  Clock::time_point last = due[0];
  for (std::size_t i = 0; i < n; ++i) {
    if (i < r.sent) {
      r.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(sent_at[i] - due[i]).count());
    }
    if (status[i] == 0xFFFF) {
      ++r.missing;
    } else if (status[i] == static_cast<std::uint16_t>(serve::Status::kOk)) {
      ++r.ok;
      last = std::max(last, got_at[i]);
      r.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(got_at[i] - due[i]).count());
    } else if (status[i] ==
               static_cast<std::uint16_t>(serve::Status::kOverloaded)) {
      ++r.overloaded;
    } else {
      ++r.errors;
    }
  }
  r.span_s = std::chrono::duration<double>(last - due[0]).count();
  return r;
}

struct WindowResult {
  std::uint64_t ok = 0;
  double span_s = 0;  // first send to last response
};

/// One closed-loop pass on the pipelined session: `window` requests stay
/// in flight, and one thread sends the next request as soon as a response
/// arrives, so the daemon runs saturated with the load generator on a
/// single core.
WindowResult run_window(int fd, const std::vector<Request>& requests,
                        std::size_t window, std::uint64_t first_id,
                        std::vector<std::vector<std::uint8_t>>& kept,
                        std::uint32_t keep_every) {
  const std::size_t n = requests.size();
  WindowResult r;
  std::vector<bool> answered(n, false);
  std::size_t sent = 0;
  bool can_send = true;
  auto send_next = [&] {
    if (!can_send || sent == n) return;
    can_send = serve::write_frame(fd, requests[sent].type, serve::Status::kOk,
                                  first_id + sent, requests[sent].body);
    if (can_send) ++sent;
  };
  const auto t0 = Clock::now();
  while (sent < std::min(window, n) && can_send) send_next();
  for (std::size_t received = 0; received < sent; ++received) {
    auto frame = serve::read_frame(fd, serve::kMaxResponseBody);
    if (frame.outcome != serve::ReadOutcome::kFrame) break;
    const std::uint64_t id = frame.header.request_id - first_id;
    if (id >= n || answered[id]) break;
    answered[id] = true;
    if (frame.header.status == static_cast<std::uint16_t>(serve::Status::kOk)) {
      ++r.ok;
      if (keep_every > 0 && id % keep_every == 0) kept[id] = std::move(frame.body);
    }
    send_next();
  }
  r.span_s = seconds_since(t0);
  return r;
}

/// Latency percentile where a refused or missing request counts as
/// missing every limit (+infinity).
double latency_quantile(const RungResult& r, double q) {
  std::vector<double> v = r.latency_ms;
  const std::uint64_t lost = r.overloaded + r.errors + r.missing;
  v.insert(v.end(), lost, std::numeric_limits<double>::infinity());
  return quantile(std::move(v), q);
}

/// Parse "4.1 us" / "2.0 ms" / "1.25 s" into milliseconds.
double duration_ms(const std::string& text) {
  std::istringstream in(text);
  double value = 0.0;
  std::string unit;
  in >> value >> unit;
  if (unit == "us") return value / 1e3;
  if (unit == "ms") return value;
  if (unit == "s") return value * 1e3;
  throw std::runtime_error("bad duration '" + text + "'");
}

/// The daemon's rendered metrics report, as cells of its table rows.
std::vector<std::vector<std::string>> report_rows(const std::string& report) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    std::istringstream cols(line.substr(1));
    std::string cell;
    while (std::getline(cols, cell, '|')) {
      const auto b = cell.find_first_not_of(' ');
      const auto e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

double count_cell(std::string cell) {
  cell.erase(std::remove(cell.begin(), cell.end(), ','), cell.end());
  return std::stod(cell);
}

/// Per-class numbers from the daemon's `metrics` report.
void emit_report_metrics(const std::string& report, JsonOut& out) {
  double overloaded = 0.0;
  for (const auto& row : report_rows(report)) {
    if (row.size() == 10 && row[0] != "class") {  // the per-class table
      overloaded += count_cell(row[3]);
      if (row[0] != "run") out.num("serve." + row[0] + ".completed",
                                   count_cell(row[2]));
      continue;
    }
    if (row.size() != 2) continue;
    const std::string& name = row[0];
    static const std::vector<std::pair<std::string, std::string>> kHists = {
        {"serve.queue-wait-ms.", "queue_wait"},
        {"serve.handler-ms.", "handler"},
        {"serve.latency-ms.", "latency"}};
    for (const auto& [prefix, label] : kHists) {
      if (name.rfind(prefix, 0) != 0) continue;
      const std::string cls = name.substr(prefix.size());
      if (cls == "run") continue;
      std::map<std::string, double> q;
      std::istringstream fields(row[1]);
      std::string token;
      std::string pending;
      while (fields >> token) {
        if (!pending.empty()) {
          q[pending.substr(0, pending.find('='))] =
              duration_ms(pending.substr(pending.find('=') + 1) + " " + token);
          pending.clear();
        } else if (token.rfind("p", 0) == 0 || token.rfind("max", 0) == 0) {
          pending = token;
        }
      }
      const std::string base = "serve." + cls + "." + label;
      if (label != "latency") out.num(base + "_p50_ms", q["p50"]);
      out.num(base + "_p99_ms", q["p99"]);
    }
  }
  out.num("serve.overloaded", overloaded);
}

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

int cmd_serve(const Args& args) {
  const std::string snapshot = arg(args, "snapshot");
  const std::string ebvp = arg(args, "ebvp");
  const std::string socket = arg(args, "socket");
  const std::vector<double> rates = parse_list(arg(args, "rates"));
  const auto rung_requests = static_cast<std::size_t>(num(args, "rung-requests"));
  const double limit_ms = num(args, "p99-limit-ms");
  const int setup_reps = static_cast<int>(num(args, "setup-reps"));
  const int passes = static_cast<int>(num(args, "passes"));
  const auto capacity_requests =
      static_cast<std::size_t>(num(args, "capacity-requests"));
  const auto window = static_cast<std::size_t>(num(args, "window"));
  const std::vector<std::string> argv = {
      arg(args, "ebvpart"), "serve",      "--mmap",    snapshot,
      "--partition",        ebvp,         "--workers", arg(args, "workers"),
      "--queues",           arg(args, "queues"), "--socket", socket};
  const std::string log = arg(args, "log");
  Tally tally;
  JsonOut out;

  // setup_s: spawn → first successful ping, repeated; median.
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    Daemon daemon(argv, log);
    const int fd = connect_when_ready(daemon, socket, 60.0);
    setup_s.push_back(seconds_since(t0));
    tally.check(fd >= 0, "daemon never answered a ping");
    if (fd >= 0) close(fd);
    tally.check(daemon.stop(), "daemon drain exited non-zero");
  }
  out.num("setup_s", median(setup_s));

  const ebv::MappedGraph mapped(snapshot);
  const ebv::EdgePartition partition = ebv::io::read_partition_binary_file(ebvp);
  std::mt19937_64 rng(static_cast<std::uint64_t>(num(args, "seed")));

  Daemon daemon(argv, log);
  const int fd = connect_when_ready(daemon, socket, 60.0);
  if (fd < 0) throw std::runtime_error("daemon never answered a ping");

  constexpr std::uint32_t kKeepEvery = 8;
  auto make_requests = [&](std::size_t n) {
    std::vector<Request> requests;
    requests.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      requests.push_back(
          make_request(rng, mapped.num_vertices(), mapped.num_edges()));
    }
    return requests;
  };
  auto check_kept = [&](const std::vector<Request>& requests,
                        const std::vector<std::vector<std::uint8_t>>& kept) {
    for (std::size_t i = 0; i < requests.size(); i += kKeepEvery) {
      const Request& req = requests[i];
      if (kept[i].empty() || (req.type == serve::MsgType::kNeighbors &&
                              req.hops != 1)) {
        continue;
      }
      tally.check(spot_check(req, kept[i], mapped, partition),
                  std::string("wrong ") + serve::msg_type_name(req.type) +
                      " answer");
    }
  };

  // Each pass sweeps up the open-loop ladder (ladder[k] holds rate k's
  // passes), then runs one closed-loop capacity pass.
  std::vector<std::vector<RungResult>> ladder(rates.size());
  std::vector<double> capacity_rps;
  std::uint64_t next_id = 1;
  bool healthy = true;
  for (int pass = 0; pass < passes && healthy; ++pass) {
    for (std::size_t k = 0; k < rates.size() && healthy; ++k) {
      const std::vector<Request> requests = make_requests(rung_requests);
      std::vector<std::vector<std::uint8_t>> kept(requests.size());
      const RungResult r =
          run_rung(fd, requests, rates[k], next_id, kept, kKeepEvery);
      ladder[k].push_back(r);
      next_id += requests.size();
      tally.count(requests.size(), requests.size() - r.ok,
                  "requests refused, failed or unanswered");
      check_kept(requests, kept);
      healthy = r.missing == 0 && daemon.alive();
    }
    if (!healthy) break;
    const std::vector<Request> requests = make_requests(capacity_requests);
    std::vector<std::vector<std::uint8_t>> kept(requests.size());
    const WindowResult w =
        run_window(fd, requests, window, next_id, kept, kKeepEvery);
    next_id += requests.size();
    tally.count(requests.size(), requests.size() - w.ok,
                "closed-loop requests refused, failed or unanswered");
    check_kept(requests, kept);
    capacity_rps.push_back(static_cast<double>(w.ok) / w.span_s);
    healthy = w.ok == requests.size() && daemon.alive();
  }

  // The daemon's own per-layer view, then its memory and faults.
  std::string report;
  if (serve::write_frame(fd, serve::MsgType::kMetrics, serve::Status::kOk,
                         next_id, {})) {
    const auto frame = serve::read_frame(fd, serve::kMaxResponseBody);
    if (frame.outcome == serve::ReadOutcome::kFrame) {
      report.assign(frame.body.begin(), frame.body.end());
    }
  }
  tally.check(!report.empty(), "metrics request failed");
  out.num("peak_rss_mb", proc_status_kb(daemon.pid(), "VmHWM") / 1024.0);
  const auto [minor, major] = proc_faults(daemon.pid());
  out.num("proc.minor_faults", minor);
  out.num("proc.major_faults", major);
  close(fd);
  tally.check(daemon.stop(), "daemon drain exited non-zero");
  if (!report.empty()) emit_report_metrics(report, out);

  // Ladder summary: latency at the lowest and highest rate, and the
  // throughput achieved at the highest rate whose p99 meets the limit
  // with a backlog that drains within the limit. Each percentile is the
  // median over passes, so one stall of the shared host moves one pass.
  auto pass_median = [&](std::size_t k, auto&& value) {
    std::vector<double> v;
    for (const RungResult& r : ladder[k]) v.push_back(value(r));
    return median(v);
  };
  auto latency = [&](std::size_t k, double q) {
    return pass_median(k, [q](const RungResult& r) {
      return latency_quantile(r, q);
    });
  };
  const std::size_t top = rates.size() - 1;
  for (const double q : {0.50, 0.90}) {
    const std::string pct = std::to_string(static_cast<int>(q * 100));
    out.num("serve_low_p" + pct + "_ms", latency(0, q));
    out.num("serve_high_p" + pct + "_ms", latency(top, q));
  }
  double max_rps = 0.0;
  std::vector<double> lag_ms;
  std::uint64_t backlog_max = 0;
  for (std::size_t k = 0; k < ladder.size() && !ladder[k].empty(); ++k) {
    const double backlog = pass_median(k, [](const RungResult& r) {
      return static_cast<double>(r.backlog_at_end);
    });
    const double p99 = latency(k, 0.99);
    if (p99 <= limit_ms && backlog <= rates[k] * limit_ms / 1e3 + 1.0) {
      double ok = 0.0;
      double span_s = 0.0;
      for (const RungResult& r : ladder[k]) {
        ok += static_cast<double>(r.ok);
        span_s += r.span_s;
      }
      max_rps = ok / span_s;
    }
    out.num("rung." + std::to_string(static_cast<long>(rates[k])) + ".p99_ms",
            p99);
    for (const RungResult& r : ladder[k]) {
      lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
      backlog_max = std::max(backlog_max, r.backlog_max);
    }
  }
  out.num("serve_max_rps", max_rps);
  out.num("serve_capacity_rps", median(capacity_rps));
  out.num("serve.generator_lag_p99_ms", quantile(lag_ms, 0.99));
  out.num("serve.backlog_max", static_cast<double>(backlog_max));
  tally.emit(out);
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ebvbench gen|job|serve --flag value ...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args = parse_args(argc, argv);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "job") return cmd_job(args);
    if (cmd == "serve") return cmd_serve(args);
    std::cerr << "unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ebvbench: " << e.what() << "\n";
    return 1;
  }
}
