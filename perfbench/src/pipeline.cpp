#include "pipeline.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "check.hpp"
#include "graph/io.hpp"
#include "hopset/dynamic.hpp"
#include "hopset/hopset.hpp"
#include "hopset/serialize.hpp"
#include "pram/thread_pool.hpp"
#include "query/query_engine.hpp"
#include "serve/server.hpp"
#include "sssp/dijkstra.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using parhop::graph::kInfWeight;
using parhop::hopset::UpdateOp;
using Pair = std::pair<Vertex, Vertex>;

// Why each workload exists is recorded in BENCHMARK.json and METRICS.md
// (road-update is runnable but not bounded there). gnm-build runs
// at 10k, not 50k: 50k builds (~16 s each at 4 threads) and 650 ms RELOADs
// do not fit a run, and at 20k its latencies already spread ~20% between
// runs on a 4-core VM (the CSR outgrows a core's L2).
struct Shape {
  const char* name;
  const char* family;
  Vertex n;
  bool concurrent_writer;
  int setups;  ///< set-ups per run; setup_s is their median
};
constexpr Shape kShapes[] = {
    {"road-serve", "road", 20000, false, 6},
    {"gnm-build", "gnm", 10000, false, 3},  // 2.4-3.3 s a set-up
    {"road-update", "road", 20000, true, 4},
};
constexpr Vertex kTinyN = 2000;

// Every run is this many rounds; see "the timed rounds" below.
constexpr int kRounds = 8;
// Client threads of the readers and of the baselines. Two, not nproc: with
// every vCPU of a shared 4-vCPU host busy, the host takes more of them away
// (steal ~5% of the time against ~0.3% with one busy thread), and the wall
// time of a fixed memory-bound loop spread 0.17 (quartile distance over
// median) against 0.12.
constexpr std::size_t kClients = 2;
// Open-loop writer schedule, seconds. With 4-op deltas a RELOAD beside
// three readers took ~85 ms at road-20k; at one delta per 100 ms the writer
// ran at ~85% utilization and one host stall pushed update_p90 from ~90 to
// ~560 ms.
constexpr double kDeltaInterval = 0.15;
// Deltas of the closed-loop writer of road-serve and gnm-build, 8 a round.
// Each costs a RELOAD plus the mirror's patch (~0.1 s at gnm-10k).
constexpr std::size_t kUnloadedDeltas = 64;
// Query sources are drawn from a pool so that checking every served answer
// costs one Dijkstra per (epoch, source), not one per answer (gnm-build
// serves ~6000 queries a run).
constexpr std::size_t kSourcePool = 256;
constexpr std::size_t kProbeSources = 4;
// P2P queries sent, untimed, to the daemon at its final epoch, so that the
// answers of the fully patched index are checked with their targets at the
// deltas' endpoints (~1.5 s at road-20k).
constexpr std::size_t kFinalPairs = 64;
constexpr std::size_t kStreamLen = 1 << 14;  // pairs per reader, cycled

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Tail quantile that one host stall cannot move: the samples, in
/// completion order, are cut into blocks of at least 10 / (1 − q) (so each
/// block's q-quantile has 10 samples beyond it) and the median of the block
/// quantiles is reported. Below two blocks' worth this is the plain quantile.
double block_quantile(std::vector<std::pair<double, double>> done_and_ms,
                      double q) {
  std::sort(done_and_ms.begin(), done_and_ms.end());
  const auto per_block = static_cast<std::size_t>(std::ceil(10 / (1 - q) - 1e-9));
  const std::size_t blocks = std::max<std::size_t>(done_and_ms.size() / per_block, 1);
  std::vector<double> tails;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * done_and_ms.size() / blocks;
    const std::size_t hi = (b + 1) * done_and_ms.size() / blocks;
    std::vector<double> ms;
    for (std::size_t i = lo; i < hi; ++i) ms.push_back(done_and_ms[i].second);
    tails.push_back(quantile(std::move(ms), q));
  }
  return median(std::move(tails));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return parhop::util::splitmix64(s);
}

std::string p2p_line(Vertex s, Vertex t) {
  std::string line = "P2P ";
  line += std::to_string(s);
  line += ' ';
  line += std::to_string(t);
  return line;
}

/// `key=` value of a one-line protocol response, or NaN when absent.
double field(const std::string& resp, const char* key) {
  std::string k = " ";
  k += key;
  k += '=';
  const std::size_t pos = resp.find(k);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(resp.c_str() + pos + k.size(), nullptr);
}

/// The daemon, booted the way a deployment boots it. Server is neither
/// copyable nor movable, so it is initialized in place from the factory.
struct Daemon {
  parhop::serve::Server server;
  Daemon(const std::string& gr, const std::string& phs,
         parhop::serve::ServerOptions opt)
      : server(parhop::serve::Server::from_files(gr, phs, std::move(opt))) {}
};

/// One delta's ops: two edges, alternating between deltas, so the chain
/// covers every kind. Odd deltas raise a weight (congestion) and insert a
/// local shortcut between 2-hop neighbours; even deltas lower a weight (back
/// toward free flow, never below the base minimum) and delete an edge. The
/// two ops touch distinct edges, so each is valid against the graph before
/// the batch. Two ops, not four: the patch dominates a RELOAD, and at four
/// ops the open-loop writer ran near saturation beside three readers.
std::vector<UpdateOp> make_batch(const Graph& g, Weight wmin, bool odd,
                                 parhop::util::Xoshiro256& rng) {
  const Vertex n = g.num_vertices();
  std::vector<UpdateOp> ops;
  const auto key = [](Vertex u, Vertex v) {
    return Pair{std::min(u, v), std::max(u, v)};
  };
  const auto touched = [&](Vertex u, Vertex v) {
    for (const UpdateOp& op : ops)
      if (key(op.u, op.v) == key(u, v)) return true;
    return false;
  };
  // An existing edge (u, a.to) whose endpoints have degree >= min_deg.
  const auto pick_arc = [&](std::size_t min_deg, Vertex& u,
                            parhop::graph::Arc& a) {
    for (int tries = 0; tries < 10000; ++tries) {
      u = static_cast<Vertex>(rng.next_below(n));
      if (g.degree(u) < std::max<std::size_t>(min_deg, 1)) continue;
      a = g.arcs(u)[rng.next_below(g.degree(u))];
      if (g.degree(a.to) >= min_deg && !touched(u, a.to)) return;
    }
    throw std::runtime_error("make_batch: no eligible edge");
  };
  Vertex u = 0;
  parhop::graph::Arc a;
  pick_arc(1, u, a);
  const double f = odd ? 1.2 + 0.8 * rng.next_double()
                       : 0.6 + 0.3 * rng.next_double();
  ops.push_back({UpdateOp::Kind::kWeight, u, a.to, std::max(wmin, a.w * f)});
  if (!odd) {
    pick_arc(3, u, a);
    ops.push_back({UpdateOp::Kind::kDelete, u, a.to, 0});
    return ops;
  }
  for (int tries = 0; tries < 10000; ++tries) {
    const auto x = static_cast<Vertex>(rng.next_below(n));
    if (g.degree(x) < 2) continue;
    const parhop::graph::Arc a1 = g.arcs(x)[rng.next_below(g.degree(x))];
    const parhop::graph::Arc a2 = g.arcs(x)[rng.next_below(g.degree(x))];
    if (a1.to == a2.to || g.edge_weight(a1.to, a2.to) < kInfWeight ||
        touched(a1.to, a2.to))
      continue;
    ops.push_back({UpdateOp::Kind::kInsert, a1.to, a2.to,
                   std::max(wmin, (a1.w + a2.w) * (0.8 + 0.4 * rng.next_double()))});
    return ops;
  }
  throw std::runtime_error("make_batch: no insert");
}

/// CPU time the hypervisor took from this VM's vCPUs so far (the steal
/// column of /proc/stat), in seconds; 0 where it cannot be read.
double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / 100.0 : 0;
}

/// Runs `per_client[c]` on client thread c concurrently; returns each
/// call's latency (ms) and answer in pair order per client.
struct Timed {
  std::vector<double> lat_ms;
  std::vector<Answer> answers;
};
Timed run_clients(const std::vector<std::vector<Pair>>& per_client,
                  const std::function<Answer(std::size_t, Vertex, Vertex)>& fn) {
  std::vector<Timed> part(per_client.size());
  std::vector<std::thread> th;
  for (std::size_t c = 0; c < per_client.size(); ++c)
    th.emplace_back([&, c] {
      for (const auto& [s, t] : per_client[c]) {
        const auto t0 = Clock::now();
        const Answer a = fn(c, s, t);
        part[c].lat_ms.push_back(since(t0) * 1e3);
        part[c].answers.push_back(a);
      }
    });
  for (std::thread& t : th) t.join();
  Timed all;
  for (Timed& p : part) {
    all.lat_ms.insert(all.lat_ms.end(), p.lat_ms.begin(), p.lat_ms.end());
    all.answers.insert(all.answers.end(), p.answers.begin(), p.answers.end());
  }
  return all;
}

/// Share of H edges that can shorten something: distinct endpoint pairs
/// whose lightest H weight is below the G edge between them (or no G edge).
double useful_edge_frac(const Graph& g, const parhop::hopset::Hopset& h) {
  if (h.edges.empty()) return 0;
  std::map<Pair, Weight> lightest;
  for (const parhop::graph::Edge& e : h.edges) {
    const Pair k{std::min(e.u, e.v), std::max(e.u, e.v)};
    const auto it = lightest.find(k);
    if (it == lightest.end()) lightest.emplace(k, e.w);
    else it->second = std::min(it->second, e.w);
  }
  std::size_t useful = 0;
  for (const auto& [k, w] : lightest)
    if (w < g.edge_weight(k.first, k.second)) ++useful;
  return static_cast<double>(useful) / static_cast<double>(h.edges.size());
}

const Shape& shape_of(const std::string& workload) {
  for (const Shape& s : kShapes)
    if (workload == s.name) return s;
  std::string why = "unknown workload '";
  why += workload;
  why += '\'';
  throw std::invalid_argument(why);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Shape& s : kShapes) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

std::size_t reader_count(const RunConfig& cfg) {
  return std::min(kClients, std::max<std::size_t>(cfg.nproc, 1));
}

RunResult run_workload(const RunConfig& cfg, Tracer& tr) {
  const Shape* shape = &shape_of(cfg.workload);
  const bool traced = tr.enabled();
  const std::size_t readers = reader_count(cfg);
  const std::size_t baseline_pairs = cfg.tiny ? 32 : 1024;
  const std::size_t deltas =
      shape->concurrent_writer
          ? static_cast<std::size_t>(
                std::max(1.0, std::round(cfg.seconds / kDeltaInterval)))
          : (cfg.tiny ? 10 : kUnloadedDeltas);
  const parhop::hopset::Params params;  // κ=4, ρ=0.25, ε=0.25
  const double eps = params.epsilon;

  RunResult res;
  std::vector<std::string> problems;  // checks that failed; any → incorrect
  std::vector<Metric> layer;
  const auto put = [&](const char* name, double v, const char* unit) {
    layer.push_back({name, v, unit});
  };

  // ---- input: the graph on disk (generation is not part of set-up) -------
  std::string tag = cfg.workload;
  tag += "-s";
  tag += std::to_string(cfg.seed);
  const fs::path dir = fs::path(cfg.workdir) / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string gr_path = (dir / "graph.gr").string();
  const std::string phs_path = (dir / "index.phs").string();
  const Vertex n_target = cfg.tiny ? kTinyN : shape->n;
  {
    const Graph g0 =
        std::string(shape->family) == "road"
            ? parhop::workloads::road_like_grid(n_target, cfg.seed)
            : parhop::workloads::uniform_gnm(n_target, cfg.seed);
    parhop::graph::write_dimacs_file(gr_path, g0);
  }

  // ---- set-up: .gr read → build → .phs write → daemon boot ---------------
  parhop::serve::ServerOptions sopt;  // hops=0 (β̂), kernel=auto
  sopt.workers = cfg.nproc;
  std::unique_ptr<Daemon> daemon;
  Graph g;
  parhop::hopset::Hopset h;
  std::vector<double> setup_s;
  std::set<std::uint64_t> checksums;
  // Every set-up reads and builds the same graph, so they all give the same
  // hopset (the checksums confirm it). The first boots the daemon that
  // serves the run; each later one boots a daemon that is timed and dropped.
  const auto set_up = [&] {
    const Span setup(tr, "setup");
    const auto t0 = Clock::now();
    Graph gs;
    parhop::hopset::Hopset hs;
    std::unique_ptr<Daemon> booted;
    {
      const Span s(tr, "graph.read", setup.id());
      gs = parhop::graph::read_dimacs_file(gr_path);
    }
    {
      const Span s(tr, "hopset.build", setup.id());
      parhop::pram::ThreadPool pool(cfg.nproc);
      parhop::pram::UnmeteredCtx cx(&pool);
      hs = parhop::hopset::build_hopset(cx, gs, params);
    }
    {
      const Span s(tr, "serialize.save", setup.id());
      parhop::hopset::write_hopset_file(phs_path, hs);
    }
    {
      const Span s(tr, "serve.boot", setup.id());
      booted = std::make_unique<Daemon>(gr_path, phs_path, sopt);
    }
    setup_s.push_back(since(t0));
    checksums.insert(parhop::hopset::hopset_checksum(hs));
    if (!daemon) {
      daemon = std::move(booted);
      g = std::move(gs);
      h = std::move(hs);
    }
  };
  set_up();
  parhop::serve::Server& server = daemon->server;
  const Vertex n = g.num_vertices();

  // ---- inputs derived from the seed: query pairs and update deltas -------
  parhop::util::Xoshiro256 prng(mix(cfg.seed, 1));
  std::vector<Vertex> sources(kSourcePool);
  for (Vertex& s : sources) s = static_cast<Vertex>(prng.next_below(n));
  const std::vector<Vertex> probes(sources.begin(),  // hops_needed sources
                                   sources.begin() + kProbeSources);
  std::vector<std::vector<Pair>> streams(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    parhop::util::Xoshiro256 rr(mix(cfg.seed, 100 + r));
    streams[r].resize(kStreamLen);
    for (Pair& p : streams[r])
      p = {sources[rr.next_below(kSourcePool)],
           static_cast<Vertex>(rr.next_below(n))};
  }

  // Deltas are cut against a mirror (graph, hopset) that apply_updates
  // advances, on a 1-thread pool like the daemon's patch.
  std::vector<std::string> delta_paths;
  std::vector<std::vector<UpdateOp>> delta_ops;
  std::vector<parhop::hopset::PatchStats> patches;
  {
    Graph gm = g;
    parhop::hopset::Hopset hm = h;
    const Weight wmin = g.weight_range().first;
    parhop::util::Xoshiro256 orng(mix(cfg.seed, 2));
    parhop::pram::ThreadPool one(1);
    parhop::pram::UnmeteredCtx c1(&one);
    for (std::size_t i = 0; i < deltas; ++i) {
      std::vector<UpdateOp> ops = make_batch(gm, wmin, i % 2 == 0, orng);
      std::string name = "d";
      name += std::to_string(i + 1);
      name += ".phsd";
      const std::string path = (dir / name).string();
      {
        const Span s(tr, "serialize.delta_write");
        parhop::hopset::write_delta_file(
            path, parhop::hopset::make_delta(gm, hm, ops));
      }
      try {
        const Span s(tr, "dynamic.patch");
        patches.push_back(parhop::hopset::apply_updates(
            c1, gm, hm, ops, parhop::hopset::DynamicOptions{}));
      } catch (const std::exception& e) {
        // The daemon will reject this delta too (and count it failed); the
        // mirror stays on the same base, as the daemon's does.
        std::printf("# mirror patch rejected delta %zu: %s\n", i + 1, e.what());
        ops.clear();
      }
      delta_paths.push_back(path);
      delta_ops.push_back(std::move(ops));
    }
  }

  // The no-index baselines run on a subset of the same pairs, at the same
  // client concurrency, a slice of it in every round.
  std::vector<std::vector<Pair>> subset(readers);
  for (std::size_t r = 0; r < readers; ++r)
    subset[r].assign(streams[r].begin(),
                     streams[r].begin() +
                         static_cast<std::ptrdiff_t>(baseline_pairs / readers));
  const auto slice = [&](std::size_t from, std::size_t to, std::size_t of) {
    std::vector<std::vector<Pair>> part(readers);
    for (std::size_t r = 0; r < readers; ++r) {
      const std::size_t len = subset[r].size();
      part[r].assign(subset[r].begin() + static_cast<std::ptrdiff_t>(from * len / of),
                     subset[r].begin() + static_cast<std::ptrdiff_t>(to * len / of));
    }
    return part;
  };
  struct Client {
    parhop::pram::ThreadPool seq{1};
    parhop::pram::UnmeteredCtx cx{&seq};
    parhop::query::QueryWorkspace ws;
  };
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t r = 0; r < readers; ++r)
    clients.push_back(std::make_unique<Client>());
  // Bellman–Ford over G alone: no hop cap short of n, same kernel, same
  // fixpoint exit as the daemon's engine.
  std::unique_ptr<parhop::query::QueryEngine> engine_g;
  {
    const Span sp(tr, "query.prep_g");
    engine_g = std::make_unique<parhop::query::QueryEngine>(
        g, std::span<const parhop::graph::Edge>(), static_cast<int>(n));
  }
  const auto dijkstra = [&](std::size_t, Vertex s, Vertex t) {
    const Span sp(tr, "sssp.dijkstra");
    return Answer{s, t, parhop::sssp::dijkstra_distances(g, s)[t], 0};
  };
  const auto bf_g = [&](std::size_t c, Vertex s, Vertex t) {
    const Span sp(tr, "query.p2p_g");
    return Answer{s, t,
                  engine_g->point_to_point(clients[c]->cx, clients[c]->ws, s, t),
                  0};
  };
  const auto p2p = [&](std::int64_t parent, Vertex s, Vertex t,
                       std::atomic<std::uint64_t>& failed,
                       std::atomic<std::uint64_t>& request_ids) {
    std::string resp;
    {
      const Span sp(tr, "serve.P2P", parent,
                    static_cast<std::int64_t>(request_ids++));
      resp = server.submit(p2p_line(s, t)).get();
    }
    if (resp.rfind("OK P2P ", 0) != 0) {
      ++failed;
      std::printf("# P2P %u %u failed: %s\n", s, t, resp.c_str());
      return Answer{s, t, std::nan(""), 0};
    }
    return Answer{s, t, field(resp, "dist"),
                  static_cast<std::uint64_t>(field(resp, "epoch"))};
  };

  // ---- warm-up, untimed (the answers are checked) -------------------------
  std::atomic<std::uint64_t> request_ids{0};
  std::atomic<std::uint64_t> untimed_failed{0};
  std::vector<Answer> untimed_served;  // warm-up answers
  Timed dij, bfg;                      // every baseline call of the run
  std::size_t untimed_sent = 0;
  {
    const Span phase(tr, "phase.warmup");
    // Four queries a client, so every daemon worker has answered one.
    const std::vector<std::vector<Pair>> warm = slice(0, 4, subset[0].size());
    const Timed w = run_clients(warm, [&](std::size_t, Vertex s, Vertex t) {
      return p2p(phase.id(), s, t, untimed_failed, request_ids);
    });
    untimed_served = w.answers;
    untimed_sent += w.answers.size();
    dij.answers = run_clients(warm, dijkstra).answers;
    bfg.answers = run_clients(warm, bf_g).answers;
  }

  // ---- the timed rounds --------------------------------------------------
  // A shared host runs in fast and slow stretches of 10-20 s (the same
  // road-20k build takes 0.7 s in one and 1.6 s in another), so no timed
  // quantity is taken in one stretch of the run. The run is kRounds rounds;
  // each takes its share of every kind of sample: a set-up (in shape->setups
  // − 1 of them), a block of the serving phase, the deltas of the round, and
  // a slice of the baseline pairs. Each metric is the median over the run.
  struct ReaderLog {
    std::vector<Answer> answers;
    std::vector<std::pair<double, double>> done_and_ms;  ///< run s, ms
    std::size_t next = 0;  ///< position in the reader's stream
    std::uint64_t sent = 0, busy = 0, errors = 0;
  };
  struct WriterLog {
    std::vector<double> lat_ms, late_ms, build_s;
    std::vector<std::uint64_t> epoch;  ///< epoch per delta, 0 when rejected
    std::uint64_t failed = 0;
  };
  std::vector<ReaderLog> rlog(readers);
  WriterLog wlog;
  wlog.epoch.assign(deltas, 0);
  // Open loop when `interval` > 0 (each delta timed from its scheduled
  // send, so a stall also counts against later deltas); closed loop else.
  const auto writer = [&](double interval, std::int64_t parent,
                          std::size_t from, std::size_t to) {
    const auto t0 = Clock::now();
    std::string line;
    for (std::size_t i = from; i < to; ++i) {
      auto due = Clock::now();
      if (interval > 0) {
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(interval * (i - from)));
        std::this_thread::sleep_until(due);
      }
      const double late = std::chrono::duration<double>(Clock::now() - due).count();
      std::string resp;
      {
        const Span s(tr, "serve.RELOAD", parent,
                     static_cast<std::int64_t>(request_ids++));
        line = "RELOAD ";
        line += delta_paths[i];
        resp = server.handle_line(line);
      }
      const double ms = since(due) * 1e3;
      wlog.late_ms.push_back(late * 1e3);
      if (resp.rfind("OK RELOAD ", 0) == 0) {
        wlog.lat_ms.push_back(ms);
        wlog.epoch[i] = static_cast<std::uint64_t>(field(resp, "epoch"));
        wlog.build_s.push_back(field(resp, "build_s"));
      } else {
        ++wlog.failed;
        std::printf("# RELOAD %zu failed: %s\n", i + 1, resp.c_str());
      }
    }
  };
  // One block of the serving phase: the readers run closed loops for
  // `seconds`, beside the open-loop writer when the workload has one.
  const auto t_run = Clock::now();
  double phase_s = 0;
  const auto serve_block = [&](double seconds, std::int64_t parent,
                               std::size_t from, std::size_t to) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> th;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < readers; ++r)
      th.emplace_back([&, r] {
        ReaderLog& L = rlog[r];
        while (!stop.load()) {
          const auto [s, t] = streams[r][L.next++ % kStreamLen];
          const std::string line = p2p_line(s, t);
          std::string resp;
          const auto q0 = Clock::now();
          {
            const Span sp(tr, "serve.P2P", parent,
                          static_cast<std::int64_t>(request_ids++));
            resp = server.submit(line).get();
          }
          const double ms = since(q0) * 1e3;
          ++L.sent;
          if (resp.rfind("OK P2P ", 0) == 0) {
            L.answers.push_back({s, t, field(resp, "dist"),
                                 static_cast<std::uint64_t>(field(resp, "epoch"))});
            L.done_and_ms.emplace_back(since(t_run), ms);
          } else if (resp.rfind("BUSY", 0) == 0) {
            ++L.busy;
          } else {
            ++L.errors;
          }
        }
      });
    std::thread wth;
    if (shape->concurrent_writer)
      wth = std::thread(writer, kDeltaInterval, parent, from, to);
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds)));
    if (wth.joinable()) wth.join();
    stop = true;
    for (std::thread& t : th) t.join();
    phase_s += since(t0);
  };
  std::vector<double> dij_ms, bfg_ms;
  const double steal0 = steal_s();
  for (int round = 0; round < kRounds; ++round) {
    const Span rs(tr, "round");
    // Set-ups go to the rounds where round·setups/kRounds steps up; the
    // first one booted the serving daemon before round 0.
    if (round > 0 && round * shape->setups / kRounds !=
                         (round - 1) * shape->setups / kRounds)
      set_up();
    const std::size_t from = round * deltas / kRounds;
    const std::size_t to = (round + 1) * deltas / kRounds;
    {
      const Span phase(tr, "phase.serve", rs.id());
      serve_block(cfg.seconds / kRounds, phase.id(), from, to);
    }
    if (!shape->concurrent_writer) {
      const Span phase(tr, "phase.update", rs.id());
      writer(0, phase.id(), from, to);
    }
    const std::vector<std::vector<Pair>> part =
        slice(static_cast<std::size_t>(round),
              static_cast<std::size_t>(round) + 1, kRounds);
    Timed d = run_clients(part, dijkstra);
    Timed b = run_clients(part, bf_g);
    dij_ms.insert(dij_ms.end(), d.lat_ms.begin(), d.lat_ms.end());
    bfg_ms.insert(bfg_ms.end(), b.lat_ms.begin(), b.lat_ms.end());
    dij.answers.insert(dij.answers.end(), d.answers.begin(), d.answers.end());
    bfg.answers.insert(bfg.answers.end(), b.answers.begin(), b.answers.end());
  }
  const std::string stats = server.handle_line("STATS");
  const double steal_run = steal_s() - steal0;

  // ---- untimed queries at the final epoch --------------------------------
  // The targets are endpoints of the deltas' ops: an op is most likely to
  // change the distance to its own endpoints. Half the block targets the
  // last accepted delta, so an index that is one epoch stale shows; the
  // other half cycles over all deltas.
  std::vector<Vertex> last, all;
  for (std::size_t i = 0; i < deltas; ++i)
    if (wlog.epoch[i] != 0) {
      last.clear();
      for (const UpdateOp& op : delta_ops[i])
        for (const Vertex v : {op.u, op.v}) {
          last.push_back(v);
          all.push_back(v);
        }
    }
  if (last.empty()) last = all = {0};
  const std::size_t final_n = cfg.tiny ? 16 : kFinalPairs;
  std::vector<std::vector<Pair>> final_pairs(readers);
  for (std::size_t i = 0; i < final_n; ++i) {
    const std::vector<Vertex>& targets = i < final_n / 2 ? last : all;
    final_pairs[i % readers].emplace_back(sources[i % kSourcePool],
                                          targets[i % targets.size()]);
  }
  std::atomic<std::uint64_t> final_failed{0};
  std::vector<Answer> final_answers;
  {
    const Span phase(tr, "phase.final");
    final_answers = run_clients(final_pairs, [&](std::size_t, Vertex s, Vertex t) {
                      return p2p(phase.id(), s, t, final_failed, request_ids);
                    }).answers;
  }
  daemon.reset();
  const auto accepted = static_cast<std::uint64_t>(
      std::count_if(wlog.epoch.begin(), wlog.epoch.end(),
                    [](std::uint64_t e) { return e != 0; }));
  std::vector<Answer> served;
  std::vector<std::pair<double, double>> done_and_ms;
  std::vector<double> lat_ms;
  std::uint64_t busy = 0, errors = 0, sent = 0;
  for (const ReaderLog& L : rlog) {
    served.insert(served.end(), L.answers.begin(), L.answers.end());
    done_and_ms.insert(done_and_ms.end(), L.done_and_ms.begin(),
                       L.done_and_ms.end());
    for (const auto& [done, ms] : L.done_and_ms) lat_ms.push_back(ms);
    busy += L.busy;
    errors += L.errors;
    sent += L.sent;
  }
  for (const Answer& a : untimed_served)
    if (!std::isnan(a.got)) served.push_back(a);
  bool stale = false;
  for (const Answer& a : final_answers)
    if (!std::isnan(a.got)) {
      served.push_back(a);
      stale |= a.epoch != accepted;
    }
  if (stale)
    problems.emplace_back("a final-epoch answer does not name the last epoch");

  // ---- answer checks -----------------------------------------------------
  // Epoch e is the graph after the first e accepted deltas; the checker
  // replays them with its own edge-list reference, one epoch at a time.
  std::map<std::uint64_t, std::vector<Answer>> by_epoch;
  for (const Answer& a : served) by_epoch[a.epoch].push_back(a);
  CheckReport served_rep;
  const auto fold = [&](const CheckReport& r) {
    served_rep.checked += r.checked;
    served_rep.violations += r.violations;
    served_rep.max_stretch = std::max(served_rep.max_stretch, r.max_stretch);
    for (const std::string& e : r.examples)
      if (served_rep.examples.size() < 5) served_rep.examples.push_back(e);
  };
  {
    const Span sp(tr, "check.served");
    Graph ge = g;
    std::uint64_t epoch = 0;
    std::size_t next_delta = 0;
    for (auto& [e, answers] : by_epoch) {
      while (epoch < e && next_delta < deltas) {
        if (wlog.epoch[next_delta] != 0) {
          if (wlog.epoch[next_delta] != epoch + 1)
            problems.emplace_back("RELOAD epochs are not consecutive");
          ge = apply_ops(ge, delta_ops[next_delta]);
          ++epoch;
        }
        ++next_delta;
      }
      for (Answer& a : answers) a.epoch = a.epoch == epoch ? 0 : 1;
      fold(check_answers(answers, std::span(&ge, 1), eps, cfg.nproc));
    }
  }
  const CheckReport dij_rep = check_answers(dij.answers, std::span(&g, 1), eps, cfg.nproc);
  const CheckReport bfg_rep = check_answers(bfg.answers, std::span(&g, 1), eps, cfg.nproc);
  if (dij_rep.violations + bfg_rep.violations > 0)
    problems.emplace_back("a baseline answer failed the check");

  // Discrimination: would G alone meet 1+eps at the served budget β̂?
  std::vector<std::vector<Weight>> probe_exact;
  for (const Vertex s : probes)
    probe_exact.push_back(parhop::sssp::dijkstra_distances(g, s));
  const int hops_g = hops_needed(g, probes, probe_exact, eps);
  const int served_budget = h.schedule.beta;
  const bool vacuous = hops_g <= served_budget;
  std::printf(
      "# answer check: %zu served answers, %zu violations, max stretch %.6f; "
      "G alone needs %d hops vs served budget %d -> \"vacuous\": %s\n",
      served_rep.checked, served_rep.violations, served_rep.max_stretch,
      hops_g, served_budget, vacuous ? "true" : "false");
  for (const std::string& e : served_rep.examples)
    std::printf("#   violation: %s\n", e.c_str());

  std::printf("# set-up times (s):");
  for (const double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  if (checksums.size() != 1)
    problems.emplace_back("repeated builds produced different hopsets");

  // ---- end-to-end metrics ------------------------------------------------
  const std::uint64_t untimed_failures = untimed_failed + final_failed;
  res.attempted = sent + deltas + untimed_sent + final_answers.size();
  res.failed = busy + errors + wlog.failed + untimed_failures +
               served_rep.violations;
  if (served_rep.violations > 0)
    problems.emplace_back("served answers failed the check");
  if (busy + errors + wlog.failed + untimed_failures > 0)
    problems.emplace_back("operations answered BUSY or ERR, or a RELOAD failed");
  if (wlog.lat_ms.empty()) problems.emplace_back("no delta was accepted");
  const double p50 = quantile(lat_ms, 0.50);
  res.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"query_p50_ms", p50, "ms"},
      {"query_p90_ms", block_quantile(done_and_ms, 0.90), "ms"},
      {"query_qps", static_cast<double>(lat_ms.size()) / phase_s, "1/s"},
      {"update_p50_ms", quantile(wlog.lat_ms, 0.50), "ms"},
      {"update_p90_ms", quantile(wlog.lat_ms, 0.90), "ms"},
      {"baseline_dijkstra_p50_ms", median(dij_ms), "ms"},
      {"baseline_bf_g_p50_ms", median(bfg_ms), "ms"},
      {"index_bytes", static_cast<double>(fs::file_size(phs_path)), "bytes"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  res.info.set("failed_frac", res.attempted
                                  ? static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted)
                                  : 0.0);
  res.info.set("query_samples", lat_ms.size());
  res.info.set("update_samples", wlog.lat_ms.size());
  res.info.set("baseline_samples", dij_ms.size());
  res.info.set("setup_samples", setup_s.size());
  res.info.set("serve_phase_s", phase_s);
  res.info.set("host_steal_s", steal_run);
  // Printed, not bounded: on a shared VM the p99 of a 7 ms gnm-10k query
  // is set by the hypervisor's wake-up latency (see METRICS.md).
  res.info.set("query_p99_ms", block_quantile(done_and_ms, 0.99));
  res.info.set("writer", shape->concurrent_writer
                             ? "open loop beside the readers, one delta per 150 ms"
                             : "closed loop after each block of the readers, no read load");
  res.info.set("readers", readers);
  res.info.set("n", static_cast<std::uint64_t>(n));
  res.info.set("m", g.num_edges());
  res.info.set("busy", busy);
  res.info.set("errors", errors);
  res.info.set("reload_failures", wlog.failed);
  res.info.set("final_epoch_failures", final_failed.load());
  res.info.set("wrong_answers", served_rep.violations);
  res.info.set("vacuous", vacuous);
  res.info.set("hops_needed_g_only", hops_g);
  res.info.set("served_budget", served_budget);

  // ---- per-layer metrics (traced run only) -------------------------------
  if (traced) {
    put("graph.read_s", median(tr.durations("graph.read")), "s");
    put("graph.gr_bytes", static_cast<double>(fs::file_size(gr_path)), "bytes");
    put("hopset.build_s", median(tr.durations("hopset.build")), "s");
    {
      // Metered build of the same graph: work/depth, and bit-identity with
      // the Unmetered build the daemon serves.
      const Span s(tr, "hopset.build_metered");
      parhop::pram::ThreadPool pool(cfg.nproc);
      parhop::pram::Ctx cx(&pool);
      const parhop::hopset::Hopset hm = parhop::hopset::build_hopset(cx, g, params);
      if (parhop::hopset::hopset_checksum(hm) != *checksums.begin())
        problems.emplace_back("Metered and Unmetered builds differ");
      put("hopset.work", static_cast<double>(hm.build_cost.work), "ops");
      put("hopset.depth", static_cast<double>(hm.build_cost.depth), "steps");
    }
    std::size_t popular = 0, ruling = 0, superc = 0, inter = 0;
    long long detect = 0, pulses = 0;
    for (const auto& sc : h.scales)
      for (const auto& ph : sc.phases) {
        popular += ph.popular;
        ruling += ph.ruling;
        superc += ph.superclustered;
        inter += ph.interconnect_edges;
        detect += ph.detect_steps;
        pulses += ph.bfs_pulses;
      }
    put("hopset.popular", static_cast<double>(popular), "count");
    put("hopset.ruling", static_cast<double>(ruling), "count");
    put("hopset.superclustered", static_cast<double>(superc), "count");
    put("hopset.interconnect_edges", static_cast<double>(inter), "count");
    put("hopset.detect_steps", static_cast<double>(detect), "count");
    put("hopset.bfs_pulses", static_cast<double>(pulses), "count");
    put("hopset.edges", static_cast<double>(h.edges.size()), "count");
    put("hopset.scales", static_cast<double>(h.scales.size()), "count");
    put("hopset.useful_edge_frac", useful_edge_frac(g, h), "fraction");
    put("serialize.save_s", median(tr.durations("serialize.save")), "s");
    for (std::size_t r = 0; r < setup_s.size(); ++r) {
      const Span s(tr, "serialize.load");
      (void)parhop::hopset::read_hopset_file(phs_path);
    }
    put("serialize.load_s", median(tr.durations("serialize.load")), "s");

    std::unique_ptr<parhop::query::QueryEngine> engine;
    {
      const Span s(tr, "query.prep");
      engine = std::make_unique<parhop::query::QueryEngine>(
          g, h.edges, h.schedule.beta);
    }
    put("query.prep_s", engine->stats().prep_s, "s");
    put("query.union_edges", static_cast<double>(engine->num_union_edges()),
        "count");
    // The first eighth of the baseline subset (~3 s at road-20k).
    const Timed comp =
        run_clients(slice(0, 1, 8), [&](std::size_t c, Vertex s, Vertex t) {
          const Span sp(tr, "query.p2p");
          return Answer{s, t,
                        engine->point_to_point(clients[c]->cx, clients[c]->ws, s, t),
                        0};
        });
    if (check_answers(comp.answers, std::span(&g, 1), eps, cfg.nproc).violations)
      problems.emplace_back("QueryEngine answers failed the check");
    const double compute_p50 = quantile(comp.lat_ms, 0.5);
    put("query.compute_p50_ms", compute_p50, "ms");
    {
      const Span s(tr, "query.metered");
      parhop::pram::ThreadPool one(1);
      std::vector<parhop::query::QueryWorkspace> slots;
      int rmax = 0;
      double rsum = 0, fsum = 0, wsum = 0, dmax = 0;
      std::size_t cnt = 0;
      // Every 16th pair of the subset: metered queries run one at a time
      // on one thread, and the counts they give are deterministic.
      for (const auto& part : subset)
        for (std::size_t i = 0; i < part.size(); i += 16) {
          const auto [src, dst] = part[i];
          const parhop::query::PointQuery q{src, dst};
          const parhop::query::BatchResult br =
              engine->run_batch<parhop::pram::Metered>(&one, std::span(&q, 1),
                                                       slots);
          rmax = std::max(rmax, br.max_rounds_run);
          rsum += br.max_rounds_run;
          fsum += std::max(0.0, br.mean_frontier_fraction);
          wsum += static_cast<double>(br.cost.work);
          dmax = std::max(dmax, static_cast<double>(br.cost.depth));
          ++cnt;
        }
      put("query.rounds_max", rmax, "rounds");
      put("query.rounds_mean", rsum / std::max<std::size_t>(cnt, 1), "rounds");
      put("query.frontier_frac", fsum / std::max<std::size_t>(cnt, 1),
          "fraction");
      put("query.work", wsum / std::max<std::size_t>(cnt, 1), "ops");
      put("query.depth", dmax, "steps");
    }
    put("query.hops_needed",
        hops_needed(engine->merged(), probes, probe_exact, eps), "rounds");
    put("query.hops_needed_g_only", hops_g, "rounds");
    put("query.max_stretch", served_rep.max_stretch, "ratio");
    engine.reset();

    put("serve.boot_s", median(tr.durations("serve.boot")), "s");
    put("serve.overhead_p50_ms", p50 - compute_p50, "ms");
    put("serve.stats_p99_ms", field(stats, "p99_ms"), "ms");
    put("serve.busy", field(stats, "busy"), "count");
    put("serve.errors", field(stats, "errors"), "count");
    put("serve.reload_build_s", median(wlog.build_s), "s");

    double suspects = 0, dirty = 0, added = 0, rebuilt = 0;
    for (const auto& p : patches) {
      suspects += static_cast<double>(p.suspects_removed);
      dirty += p.dirty_fraction;
      added += static_cast<double>(p.edges_added);
      rebuilt += p.rebuilt ? 1 : 0;
    }
    const double np = static_cast<double>(std::max<std::size_t>(patches.size(), 1));
    put("dynamic.patch_s", median(tr.durations("dynamic.patch")), "s");
    put("dynamic.suspects_removed", suspects / np, "count");
    put("dynamic.dirty_frac", dirty / np, "fraction");
    put("dynamic.edges_added", added / np, "count");
    put("dynamic.rebuilt", rebuilt, "count");
    if (shape->concurrent_writer) {  // closed loops are never late
      put("writer.late_p50_ms", quantile(wlog.late_ms, 0.5), "ms");
      put("writer.late_max_ms", quantile(wlog.late_ms, 1.0), "ms");
    }
    res.per_layer = std::move(layer);
  }

  for (const std::string& p : problems) std::printf("# CHECK FAILED: %s\n", p.c_str());
  res.correct = problems.empty();
  fs::remove_all(dir);
  return res;
}

}  // namespace perfbench
