// Answer checks that can fail. Every distance the benchmark is served is
// compared with exact Dijkstra on the graph of the epoch the answer names:
//   exact ≤ answer ≤ (1+ε)·exact, and answer = inf exactly when unreachable.
// hops_needed() is the discrimination test beside it: the smallest
// Bellman–Ford round count that meets 1+ε, on G ∪ H and on G alone. When G
// alone meets the stretch at the served budget the check is stamped
// vacuous — it would pass without any hopset.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "hopset/dynamic.hpp"

namespace perfbench {

using parhop::graph::Graph;
using parhop::graph::Vertex;
using parhop::graph::Weight;

/// One distance answer to verify: the pair, the value, and the epoch (graph
/// version) the answer was computed on.
struct Answer {
  Vertex s = 0;
  Vertex t = 0;
  Weight got = 0;
  std::uint64_t epoch = 0;
};

/// Empty when `got` is a valid (1+eps)-approximation of `exact`, else why
/// not. The lower bound allows 1e-9 relative slack for summation order.
std::string verdict(Weight exact, Weight got, double eps);

struct CheckReport {
  std::size_t checked = 0;
  std::size_t violations = 0;
  double max_stretch = 1.0;  ///< max got/exact over reachable pairs
  std::vector<std::string> examples;  ///< first few violations, for the log
};

/// Checks every answer. graphs[e] is the graph of epoch e; answers whose
/// epoch has no graph count as violations. One Dijkstra per distinct
/// (epoch, source), spread over `threads` threads.
CheckReport check_answers(std::span<const Answer> answers,
                          std::span<const Graph> graphs, double eps,
                          std::size_t threads);

/// The graph after `ops`, built from the edge list without the dynamic
/// layer (the checker's independent reference). Throws std::runtime_error
/// on an op the graph does not admit.
Graph apply_ops(const Graph& g, std::span<const parhop::hopset::UpdateOp> ops);

/// Smallest round count h such that h-hop Bellman–Ford on `g` from every
/// source meets dist ≤ (1+eps)·exact at every reachable vertex; `exact[i]`
/// is Dijkstra from sources[i] on the original graph.
int hops_needed(const Graph& g, std::span<const Vertex> sources,
                const std::vector<std::vector<Weight>>& exact, double eps);

/// Feeds the checker perturbed answers and expects each to be rejected;
/// returns the number of perturbations it failed to catch (0 = pass).
int checker_selftest();

}  // namespace perfbench
