// The `serve-mix` workload: a pmbe_serve daemon on a Unix socket, one
// load process (this one) running closed-loop streaming Clients against
// it. Mostly small sessions on Mti, one in eight on a hub graph.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "gen/generators.h"
#include "gen/registry.h"
#include "util/random.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr unsigned kPoolThreads = 4;
constexpr unsigned kClients = 4;
constexpr int kSetupReps = 9;
constexpr size_t kMixCycle = 8;  // 7 small sessions + 1 hub session
constexpr size_t kMinSessions = 240;
constexpr double kSessionDeadlineSeconds = 30;

struct ServeGraph {
  std::string name;
  mbe::BipartiteGraph graph;
  mbe::VertexOrder order = mbe::VertexOrder::kDegreeAsc;
  bool hub = false;
};

struct SessionKind {
  size_t graph = 0;  // index into the graph list
  uint32_t min_size = 1;
};

// --- Daemon lifetime ------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, const std::string& socket,
             const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const std::string unix_flag = "--unix=" + socket;
    const std::string pool_flag = "--pool-threads=" + std::to_string(kPoolThreads);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>(unix_flag.c_str()),
                               const_cast<char*>(pool_flag.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  pid_t pid() const { return pid_; }

  /// SIGTERM drains the daemon; SIGKILL if it has not exited in 10 s.
  /// Returns true when it exited cleanly with status 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    kill(pid_, SIGTERM);
    int status = 0;
    bool clean = false;
    const double deadline = Now() + 10;
    while (true) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (r < 0) break;
      if (Now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return clean;
  }

 private:
  pid_t pid_ = -1;
};

mbe::client::ClientOptions ClientOptionsFor(const std::string& socket,
                                            uint64_t seed) {
  mbe::client::ClientOptions options;
  options.unix_path = socket;
  // A stuck daemon fails the run instead of hanging it.
  options.connect_timeout_seconds = 5;
  options.io_timeout_seconds = 20;
  options.max_retries = 2;
  options.backoff_seed = seed;
  options.buffer_results = false;  // stream, so the first result is timed
  return options;
}

mbe::serve::LoadGraphMsg UploadOf(const ServeGraph& g) {
  mbe::serve::LoadGraphMsg msg;
  msg.name = g.name;
  msg.num_left = static_cast<uint32_t>(g.graph.num_left());
  msg.num_right = static_cast<uint32_t>(g.graph.num_right());
  for (const mbe::Edge& e : g.graph.ToEdges()) {
    msg.edge_left.push_back(e.u);
    msg.edge_right.push_back(e.v);
  }
  msg.order = static_cast<uint8_t>(g.order);
  return msg;
}

// Waits until the daemon accepts a handshake (at most 10 s).
bool WaitReady(const std::string& socket) {
  mbe::client::ClientOptions options = ClientOptionsFor(socket, 1);
  options.max_retries = 0;
  options.connect_timeout_seconds = 1;
  const double deadline = Now() + 10;
  while (Now() < deadline) {
    mbe::client::Client probe(options);
    if (probe.Connect().ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// Per-session record of the measured window.
struct SessionRecord {
  bool ok = false;
  bool hub = false;
  bool traced = false;
  double latency_ms = 0;
  double ttfr_ms = 0;
  double queue_wait_ms = 0;
  double server_ms = 0;
  uint64_t results = 0;
  uint64_t nodes = 0;
  uint64_t peak_charged = 0;
  uint32_t attempts = 0;
  std::string failure;
};

}  // namespace

Report RunServeMix(const Config& config, References* refs) {
  Tracer tracer(config.trace);
  Report report;
  const std::string socket = config.work_dir + "/serve.sock";
  const std::string log = config.work_dir + "/serve.log";

  // Inputs: Mti at scale 0.3 and the serve-sized hub graph, seeded.
  auto make_graphs = [&] {
    ScopedSpan span(&tracer, "gen::Materialize + gen::HubBlock", "gen");
    mbe::gen::DatasetSpec spec = mbe::gen::FindDataset("Mti");
    spec.seed = config.seed;
    std::vector<ServeGraph> made;
    made.push_back(ServeGraph{"mti", mbe::gen::Materialize(spec, 0.3),
                              mbe::VertexOrder::kDegreeAsc, false});
    made.push_back(ServeGraph{
        "hub80",
        mbe::gen::HubBlock(80, 50, 4000, 1600, 0.4, 0.0005, config.seed),
        mbe::VertexOrder::kNone, true});
    return made;
  };
  const std::vector<ServeGraph> graphs = make_graphs();
  // The mix: min-size thresholds 1..3 cycling on Mti, one hub session per
  // eight, each cycle shuffled by the seed.
  const std::vector<SessionKind> kinds = {{0, 1}, {0, 2}, {0, 3}, {0, 1},
                                          {0, 2}, {0, 3}, {0, 1}, {1, 1}};
  std::map<std::string, Reference> computed;

  // References for every (graph, threshold) the mix uses.
  std::vector<Reference> expected(kinds.size());
  for (size_t k = 0; k < kinds.size(); ++k) {
    const ServeGraph& g = graphs[kinds[k].graph];
    const std::string key = std::to_string(config.seed) + "/" + g.name + "/k" +
                            std::to_string(kinds[k].min_size);
    if (auto done = computed.find(key); done != computed.end()) {
      expected[k] = done->second;
      continue;
    }
    mbe::GraphOptions gopts;
    gopts.order = g.order;
    auto engine = mbe::Engine::Build(g.graph, gopts);
    if (!engine.ok()) {
      report.Fail("reference build " + g.name + ": " + engine.status().ToString());
      return report;
    }
    mbe::RunOptions ropts;
    ropts.threads = 1;
    ropts.mbet.min_left = kinds[k].min_size;
    ropts.mbet.min_right = kinds[k].min_size;
    QueryOutcome ref = RunQuery(std::move(engine).value(), ropts, nullptr);
    if (!ref.ok) {
      report.Fail("reference " + key + ": " + ref.failure);
      return report;
    }
    if (const Reference* recorded = refs->Find(key);
        recorded != nullptr &&
        (recorded->count != ref.count || recorded->digest != ref.digest)) {
      report.Fail(key + ": single-threaded stream differs from the recorded "
                        "reference");
      return report;
    }
    expected[k] = computed[key] = Reference{ref.count, ref.digest};
    refs->Put(key, expected[k]);
  }
  if (config.record_references) return report;

  // 1. Set-up, repeated: generate the graphs, start the daemon, upload them.
  Daemon daemon;
  std::vector<double> setup_seconds, gen_seconds;
  double load_build_s = 0, load_graph_s = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0 && !daemon.Stop()) {
      report.Fail("daemon did not stop cleanly between set-ups");
      return report;
    }
    std::remove(socket.c_str());
    const double start = Now();
    std::vector<mbe::serve::LoadGraphMsg> uploads;
    for (const ServeGraph& g : make_graphs()) uploads.push_back(UploadOf(g));
    gen_seconds.push_back(Now() - start);
    if (!daemon.Start(config.serve_bin, socket, log) || !WaitReady(socket)) {
      std::ifstream text(log);
      report.Fail("daemon did not start (" + config.serve_bin + "): " +
                  std::string(std::istreambuf_iterator<char>(text), {}));
      return report;
    }
    mbe::client::Client control(ClientOptionsFor(socket, config.seed));
    load_build_s = load_graph_s = 0;
    for (const mbe::serve::LoadGraphMsg& msg : uploads) {
      ScopedSpan span(&tracer, "Client::LoadGraph", "client");
      const double t0 = Now();
      auto ok = control.LoadGraph(msg);
      const double t1 = Now();
      if (!ok.ok()) {
        report.Fail("LoadGraph " + msg.name + ": " + ok.status().ToString());
        return report;
      }
      tracer.Add("server Engine::Build", "serve", t1 - ok.value().build_seconds,
                 t1, span.id(), 0);
      load_build_s += ok.value().build_seconds;
      load_graph_s += t1 - t0;
    }
    setup_seconds.push_back(Now() - start);
  }

  // Session order: one seeded shuffle of the mix per cycle of eight.
  auto kind_at = [&](size_t session) {
    mbe::util::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL +
                       session / kMixCycle);
    std::vector<size_t> cycle(kMixCycle);
    for (size_t i = 0; i < kMixCycle; ++i) cycle[i] = i;
    for (size_t i = kMixCycle - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[rng.Below(i + 1)]);
    }
    return cycle[session % kMixCycle];
  };

  auto run_session = [&](mbe::client::Client& client, size_t kind_index,
                         uint8_t algorithm, uint64_t request,
                         bool traced) -> SessionRecord {
    const SessionKind& kind = kinds[kind_index];
    SessionRecord rec;
    rec.hub = graphs[kind.graph].hub;
    rec.traced = traced;
    mbe::serve::StartSessionMsg msg;
    msg.graph = graphs[kind.graph].name;
    msg.algorithm = algorithm;
    msg.min_left = kind.min_size;
    msg.min_right = kind.min_size;
    msg.deadline_seconds = kSessionDeadlineSeconds;
    const int64_t span =
        traced ? tracer.Begin("Client::Enumerate", "client", -1, request) : -1;
    const double t0 = Now();
    TimedFingerprintSink sink(t0);
    auto outcome = client.Enumerate(msg, &sink);
    const double t1 = Now();
    tracer.End(span);
    if (!outcome.ok()) {
      rec.failure = std::string("client error ") +
                    mbe::client::ErrorKindName(client.last_error()) + ": " +
                    outcome.status().ToString();
      return rec;
    }
    const mbe::serve::SessionDoneMsg& done = outcome.value().done;
    rec.attempts = outcome.value().attempts;
    rec.latency_ms = (t1 - t0) * 1e3;
    rec.ttfr_ms = sink.first_result_seconds() * 1e3;
    rec.queue_wait_ms = done.queue_wait_ns * 1e-6;
    rec.server_ms = done.seconds * 1e3;
    rec.results = sink.count();
    rec.nodes = done.nodes_expanded;
    rec.peak_charged = done.peak_charged_bytes;
    if (span >= 0) {
      if (sink.first_result_seconds() >= 0) {
        tracer.Event("first result", "client", t0 + sink.first_result_seconds(),
                     span, request);
      }
      // Server-side time rebuilt from the SessionDone frame.
      const double qw_end = std::min(t1, t0 + done.queue_wait_ns * 1e-9);
      tracer.Add("serve queue wait", "serve", t0, qw_end, span, request);
      tracer.Add("serve session", "serve", qw_end,
                 std::min(t1, qw_end + done.seconds), span, request);
    }
    if (done.termination != static_cast<uint8_t>(mbe::Termination::kComplete)) {
      rec.failure = std::string("session stopped early: ") +
                    mbe::TerminationName(
                        static_cast<mbe::Termination>(done.termination));
    } else if (sink.count() != expected[kind_index].count ||
               sink.digest() != expected[kind_index].digest) {
      rec.failure = "result stream differs from the reference on " + msg.graph;
    } else {
      rec.ok = true;
    }
    return rec;
  };

  // 2. Warm-up: one full cycle, verified, not timed.
  uint64_t server_sessions_expected = 0;
  {
    mbe::client::Client warm(ClientOptionsFor(socket, config.seed + 1));
    for (size_t i = 0; i < kMixCycle; ++i) {
      SessionRecord rec = run_session(warm, kind_at(i), 0, 0, false);
      ++server_sessions_expected;
      if (!rec.ok) {
        report.Fail("warm-up session: " + rec.failure);
        return report;
      }
    }
  }

  // 3. Engine probe: one BBK session over the wire. Not serve-mix traffic.
  double bbk_accepted = 0;
  {
    mbe::client::Client probe(ClientOptionsFor(socket, config.seed + 2));
    SessionRecord rec = run_session(
        probe, 0, static_cast<uint8_t>(mbe::Algorithm::kBbk), 0, false);
    if (rec.ok) {
      bbk_accepted = 1;
      ++server_sessions_expected;
    } else {
      std::printf("probe: BBK session over the wire not accepted: %s\n",
                  rec.failure.c_str());
    }
  }

  // 4. The measured window: kClients closed-loop clients.
  std::vector<std::vector<SessionRecord>> per_client(kClients);
  std::vector<uint64_t> retries(kClients), reconnects(kClients);
  std::atomic<size_t> next{kMixCycle};
  const double window_start = Now();
  const double window_end = window_start + config.seconds;
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        mbe::client::Client client(
            ClientOptionsFor(socket, config.seed * 16 + c + 3));
        while (true) {
          const size_t i = next.fetch_add(1);
          const size_t done = i - kMixCycle;
          if (done >= kMinSessions && Now() >= window_end) break;
          const bool traced = config.trace && (done / kMixCycle) % 2 == 0;
          per_client[c].push_back(run_session(client, kind_at(i), 0, i, traced));
        }
        retries[c] = client.retries();
        reconnects[c] = client.reconnects();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double window = Now() - window_start;

  std::vector<double> latency, small_latency, ttfr, queue_wait, server_ms,
      transport, traced_latency, untraced_latency;
  uint64_t results = 0, nodes = 0, peak_charged = 0, attempts = 0;
  size_t completed = 0;
  for (const auto& records : per_client) {
    for (const SessionRecord& rec : records) {
      ++report.attempted;
      ++server_sessions_expected;
      if (!rec.ok) {
        report.Fail(rec.failure);
        continue;
      }
      ++completed;
      latency.push_back(rec.latency_ms);
      (rec.traced ? traced_latency : untraced_latency).push_back(rec.latency_ms);
      if (!rec.hub) small_latency.push_back(rec.latency_ms);
      ttfr.push_back(rec.ttfr_ms);
      queue_wait.push_back(rec.queue_wait_ms);
      server_ms.push_back(rec.server_ms);
      transport.push_back(rec.latency_ms - rec.server_ms - rec.queue_wait_ms);
      results += rec.results;
      nodes += rec.nodes;
      peak_charged = std::max(peak_charged, rec.peak_charged);
      attempts += rec.attempts;
    }
  }

  // 5. Server-side check, daemon peak memory, then drain and stop.
  double sessions_completed = 0;
  {
    mbe::client::Client control(ClientOptionsFor(socket, config.seed + 4));
    auto info = control.GetServerInfo();
    if (!info.ok()) {
      report.Fail("GetServerInfo: " + info.status().ToString());
    } else {
      sessions_completed = static_cast<double>(info.value().sessions_completed);
      if (info.value().sessions_completed != server_sessions_expected) {
        report.Fail("server completed " +
                    std::to_string(info.value().sessions_completed) +
                    " sessions, the client ran " +
                    std::to_string(server_sessions_expected));
      }
    }
  }
  const double peak_rss = PeakRssMb(daemon.pid());
  if (!daemon.Stop()) report.Fail("daemon did not drain and exit cleanly");

  report.Add("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  report.Add("us_per_result", results > 0 ? window * 1e6 / results : 0, "us",
             completed);
  report.Add("ttfr_p50_ms", Median(ttfr), "ms", ttfr.size());
  report.Add("peak_rss_mb", peak_rss, "MB", 1);
  report.Add("sessions_per_s", completed / window, "1/s", completed);
  report.Add("latency_p50_ms", Median(latency), "ms", latency.size());
  report.Add("latency_p95_ms", Percentile(latency, 95), "ms", latency.size());
  report.Add("small_latency_p95_ms", Percentile(small_latency, 95), "ms",
             small_latency.size());
  report.Add("ttfr_p95_ms", Percentile(ttfr, 95), "ms", ttfr.size());
  AddCompletion(&report, completed);
  report.Add("serve.bbk_accepted", bbk_accepted, "count", 1);
  if (!config.trace) return report;

  uint64_t total_retries = 0, total_reconnects = 0;
  for (unsigned c = 0; c < kClients; ++c) {
    total_retries += retries[c];
    total_reconnects += reconnects[c];
  }
  report.Add("serve.queue_wait_p50_ms", Median(queue_wait), "ms",
             queue_wait.size());
  report.Add("serve.queue_wait_p95_ms", Percentile(queue_wait, 95), "ms",
             queue_wait.size());
  report.Add("serve.session_p50_ms", Median(server_ms), "ms", server_ms.size());
  report.Add("serve.session_p95_ms", Percentile(server_ms, 95), "ms",
             server_ms.size());
  report.Add("serve.transport_p50_ms", Median(transport), "ms",
             transport.size());
  report.Add("gen.materialize_s", Median(gen_seconds), "s", gen_seconds.size());
  report.Add("serve.load_build_s", load_build_s, "s", 1);
  report.Add("client.load_graph_s", load_graph_s, "s", 1);
  report.Add("client.attempts", attempts, "count", completed);
  report.Add("client.retries", total_retries, "count", 1);
  report.Add("client.reconnects", total_reconnects, "count", 1);
  report.Add("serve.sessions_completed", sessions_completed, "count", 1);
  report.Add("serve.peak_charged_bytes", peak_charged, "bytes", 1);
  report.Add("core.nodes_expanded", nodes, "count", completed);
  report.Add("trace.overhead_latency_p50_ms",
             Median(traced_latency) - Median(untraced_latency), "ms",
             latency.size());
  FinishTrace(tracer, config.trace_path, &report);
  return report;
}

}  // namespace perfbench
