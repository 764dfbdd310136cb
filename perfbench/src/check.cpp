#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "pram/thread_pool.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/dijkstra.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using parhop::graph::kInfWeight;
using parhop::hopset::UpdateOp;

constexpr double kRelSlack = 1e-9;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string verdict(Weight exact, Weight got, double eps) {
  std::string why;
  if (std::isinf(exact)) {
    if (!std::isinf(got)) {
      why = "target unreachable but answer ";
      why += fmt(got);
    }
    return why;
  }
  if (!(got < kInfWeight)) {
    why = "target reachable (exact ";
    why += fmt(exact);
    why += ") but answer is inf";
  } else if (got < exact * (1 - kRelSlack)) {
    why = "answer ";
    why += fmt(got);
    why += " below exact ";
    why += fmt(exact);
  } else if (got > (1 + eps) * exact * (1 + kRelSlack)) {
    why = "answer ";
    why += fmt(got);
    why += " above (1+eps)*exact, exact ";
    why += fmt(exact);
  }
  return why;
}

CheckReport check_answers(std::span<const Answer> answers,
                          std::span<const Graph> graphs, double eps,
                          std::size_t threads) {
  CheckReport rep;
  std::mutex mu;  // guards rep
  const auto record = [&](const Answer& a, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ++rep.violations;
    if (rep.examples.size() < 5) {
      std::string line = "P2P ";
      line += std::to_string(a.s);
      line += ' ';
      line += std::to_string(a.t);
      line += " epoch ";
      line += std::to_string(a.epoch);
      line += ": ";
      line += why;
      rep.examples.push_back(std::move(line));
    }
  };
  // One Dijkstra per distinct (epoch, source).
  std::map<std::pair<std::uint64_t, Vertex>, std::vector<std::size_t>> tasks;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    if (a.epoch >= graphs.size()) {
      record(a, "no graph for this epoch");
      continue;
    }
    tasks[{a.epoch, a.s}].push_back(i);
  }
  rep.checked = answers.size();
  std::vector<const std::pair<const std::pair<std::uint64_t, Vertex>,
                              std::vector<std::size_t>>*>
      order;
  order.reserve(tasks.size());
  for (const auto& t : tasks) order.push_back(&t);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t k = next++; k < order.size(); k = next++) {
      const auto& [key, idx] = *order[k];
      const std::vector<Weight> exact =
          parhop::sssp::dijkstra_distances(graphs[key.first], key.second);
      double worst = 1.0;
      for (const std::size_t i : idx) {
        const Answer& a = answers[i];
        const Weight ex = a.t < exact.size() ? exact[a.t] : kInfWeight;
        const std::string why = verdict(ex, a.got, eps);
        if (!why.empty()) record(a, why);
        else if (ex > 0 && ex < kInfWeight) worst = std::max(worst, a.got / ex);
      }
      std::lock_guard<std::mutex> lock(mu);
      rep.max_stretch = std::max(rep.max_stretch, worst);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < std::max<std::size_t>(threads, 1); ++i)
    pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return rep;
}

Graph apply_ops(const Graph& g, std::span<const UpdateOp> ops) {
  std::map<std::pair<Vertex, Vertex>, Weight> edges;
  for (const parhop::graph::Edge& e : g.edge_list()) edges[{e.u, e.v}] = e.w;
  for (const UpdateOp& op : ops) {
    if (op.u >= g.num_vertices() || op.v >= g.num_vertices() || op.u == op.v)
      throw std::runtime_error("apply_ops: bad endpoints");
    const std::pair<Vertex, Vertex> key{std::min(op.u, op.v),
                                        std::max(op.u, op.v)};
    const auto it = edges.find(key);
    switch (op.kind) {
      case UpdateOp::Kind::kWeight:
        if (it == edges.end() || !(op.w > 0) || !std::isfinite(op.w))
          throw std::runtime_error("apply_ops: bad weight update");
        it->second = op.w;
        break;
      case UpdateOp::Kind::kInsert:
        if (it != edges.end() || !(op.w > 0) || !std::isfinite(op.w))
          throw std::runtime_error("apply_ops: bad insert");
        edges.emplace(key, op.w);
        break;
      case UpdateOp::Kind::kDelete:
        if (it == edges.end())
          throw std::runtime_error("apply_ops: delete of a missing edge");
        edges.erase(it);
        break;
    }
  }
  std::vector<parhop::graph::Edge> list;
  list.reserve(edges.size());
  for (const auto& [key, w] : edges) list.push_back({key.first, key.second, w});
  return Graph::from_edges(g.num_vertices(), list);
}

int hops_needed(const Graph& g, std::span<const Vertex> sources,
                const std::vector<std::vector<Weight>>& exact, double eps) {
  parhop::pram::ThreadPool pool(0);
  parhop::pram::UnmeteredCtx cx(&pool);
  int worst = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::vector<Weight>& ex = exact[i];
    int met = -1;
    const parhop::sssp::RoundHook hook =
        [&](int h, std::span<const Weight> dist) {
          if (met >= 0) return;
          for (std::size_t v = 0; v < dist.size(); ++v)
            if (ex[v] < kInfWeight &&
                dist[v] > (1 + eps) * ex[v] * (1 + kRelSlack))
              return;
          met = h;
        };
    const Vertex src[1] = {sources[i]};
    const auto res = parhop::sssp::bellman_ford(
        cx, g, std::span<const Vertex>(src),
        static_cast<int>(std::max<Vertex>(g.num_vertices(), 1)), hook);
    // A source whose first round changes nothing is met at round 0.
    worst = std::max(worst, met >= 0 ? met : res.rounds_run);
  }
  return worst;
}

int checker_selftest() {
  constexpr double kEps = 0.25;
  int missed = 0;
  const auto expect = [&](bool caught, const char* what) {
    std::printf("# selftest: %-48s %s\n", what, caught ? "rejected" : "MISSED");
    if (!caught) ++missed;
  };
  // A grid plus one isolated vertex, so unreachable targets exist.
  const Graph grid = parhop::workloads::road_like_grid(400, 1);
  const Vertex iso = grid.num_vertices();
  const Graph g0 = Graph::from_edges(iso + 1, grid.edge_list());
  const std::vector<Weight> d0 = parhop::sssp::dijkstra_distances(g0, 0);

  std::vector<Answer> valid;
  for (Vertex t = 1; t < iso; t += 37) valid.push_back({0, t, d0[t] * 1.1, 0});
  valid.push_back({0, iso, kInfWeight, 0});
  const std::vector<Graph> epoch0{g0};
  const CheckReport clean = check_answers(valid, epoch0, kEps, 2);
  if (clean.violations != 0) {
    std::printf("# selftest: valid answers rejected: %s\n",
                clean.examples.empty() ? "?" : clean.examples[0].c_str());
    ++missed;
  }

  const Vertex t = valid[3].t;
  const auto caught = [&](Answer bad, std::span<const Graph> graphs) {
    std::vector<Answer> all = valid;
    all.push_back(bad);
    return check_answers(all, graphs, kEps, 2).violations == 1;
  };
  expect(caught({0, t, d0[t] * (1 + kEps) * 1.01, 0}, epoch0),
         "answer above (1+eps)*exact");
  expect(caught({0, t, d0[t] * 0.99, 0}, epoch0), "answer below exact");
  expect(caught({0, t, kInfWeight, 0}, epoch0), "inf for a reachable target");
  expect(caught({0, iso, 5.0, 0}, epoch0), "finite for an unreachable target");
  expect(caught({0, t, d0[t], 1}, epoch0), "epoch with no graph");

  // An answer that is right for epoch 1 (after an update shortens 0–v) but
  // names epoch 0 must be rejected; named correctly, it must pass.
  const parhop::graph::Arc a = g0.arcs(0)[0];
  const UpdateOp op{UpdateOp::Kind::kWeight, 0, a.to, a.w / 10};
  const std::vector<Graph> epochs{g0, apply_ops(g0, std::span(&op, 1))};
  const Weight d1 = parhop::sssp::dijkstra_distances(epochs[1], 0)[a.to];
  expect(caught({0, a.to, d1, 0}, epochs), "epoch-1 answer named epoch 0");
  if (check_answers(std::vector<Answer>{{0, a.to, d1, 1}}, epochs, kEps, 1)
          .violations != 0) {
    std::printf("# selftest: correct epoch-1 answer rejected\n");
    ++missed;
  }

  // hops_needed must see a path's full hop length: 49 rounds on a 50-path.
  std::vector<parhop::graph::Edge> path;
  for (Vertex v = 0; v + 1 < 50; ++v) path.push_back({v, v + 1, 1.0});
  const Graph p = Graph::from_edges(50, path);
  const Vertex src[1] = {0};
  const int h = hops_needed(p, src, {parhop::sssp::dijkstra_distances(p, 0)},
                            kEps);
  std::printf("# selftest: hops_needed on a 50-vertex path = %d\n", h);
  if (h != 49) ++missed;
  return missed;
}

}  // namespace perfbench
