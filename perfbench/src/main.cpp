// perfbench — the parhop index end to end (BENCHMARK.json at the repo root).
//
//   perfbench --workload <road-serve|gnm-build|road-update> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--workdir DIR]
//             [--commit SHA]
//   perfbench --selftest
//
// Lines starting with '#' are for people: the environment stamp, the answer
// check, every metric with its unit, and (traced) per-span self time and
// the tracing overhead. The last line is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exit 0 only when every check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "check.hpp"
#include "pipeline.hpp"
#include "trace.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZER
#define PERFBENCH_SANITIZER "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using parhop::util::Json;
using perfbench::Metric;

/// Sanitizer the binary was built with: the CMake setting, or what the
/// compiler itself reports, so a hand-added -fsanitize is caught too.
std::string sanitizer() {
  std::string s = PERFBENCH_SANITIZER;
  if (s.empty()) s = "off";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (s == "off") s = "compiler-reported";
#endif
  return s;
}

void escape(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One-line JSON (util::Json::dump indents and rounds to 10 digits).
std::string compact(const Json& j) {
  std::string out;
  switch (j.type()) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return j.as_bool() ? "true" : "false";
    case Json::Type::kInt: return std::to_string(j.as_int());
    case Json::Type::kDouble: return number(j.as_double());
    case Json::Type::kString: escape(out, j.as_string()); return out;
    case Json::Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < j.items().size(); ++i) {
        if (i) out += ',';
        out += compact(j.items()[i]);
      }
      out += ']';
      return out;
    case Json::Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < j.members().size(); ++i) {
        if (i) out += ',';
        escape(out, j.members()[i].first);
        out += ':';
        out += compact(j.members()[i].second);
      }
      out += '}';
      return out;
  }
  return out;
}

Json metrics_json(const std::vector<Metric>& ms) {
  Json o = Json::object();
  for (const Metric& m : ms) {
    Json v = Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    o.set(m.name, std::move(v));
  }
  return o;
}

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream out(p);
  out << text << '\n';
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <road-serve|gnm-build|road-update>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny]"
               " [--workdir DIR] [--commit SHA]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.workdir = ".bench_build/perfbench/work";
  std::string commit = "unknown";
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (a == "--selftest") {
        const int missed = perfbench::checker_selftest();
        std::printf("# selftest: %s\n", missed == 0 ? "PASS" : "FAIL");
        return missed == 0 ? 0 : 1;
      } else if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = cfg.seconds > 0;
      } else if (a == "--trace") {
        trace = std::stoi(value());
      } else if (a == "--tiny") {
        cfg.tiny = true;
      } else if (a == "--workdir") {
        cfg.workdir = value();
      } else if (a == "--commit") {
        commit = value();
      } else {
        std::string why = "unknown argument ";
        why += a;
        return usage(why.c_str());
      }
    } catch (const std::exception&) {
      std::string why = "bad value for ";
      why += a;
      return usage(why.c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == cfg.workload;
  if (!known) return usage("--workload must name a workload");
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");

  // Same policy as parhop_bench: numbers from an instrumented or
  // unoptimized build are never reported.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (sanitizer() != "off" || build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build "
                 "with sanitizer '%s'; configure with "
                 "-DCMAKE_BUILD_TYPE=Release and PARHOP_SANITIZE=off\n",
                 build_type.c_str(), sanitizer().c_str());
    return 3;
  }
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());

  Json env = Json::object();
  env.set("workload", cfg.workload);
  env.set("seed", cfg.seed);
  env.set("seconds", cfg.seconds);
  env.set("trace", trace);
  env.set("tiny", cfg.tiny);
  env.set("nproc", cfg.nproc);
  env.set("pool_threads", cfg.nproc);
  env.set("daemon_workers", cfg.nproc);
  env.set("client_threads", perfbench::reader_count(cfg));
  env.set("build_type", build_type);
  env.set("sanitizer", sanitizer());
  env.set("compiler", PERFBENCH_COMPILER);
  env.set("git_commit", commit);
  std::printf("# env %s\n", compact(env).c_str());
  std::fflush(stdout);

  std::filesystem::create_directories(cfg.workdir);
  perfbench::Tracer tracer(trace == 1);
  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(cfg, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<Metric>& shown = trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : r.end_to_end)
    std::printf("# %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : r.per_layer)
    std::printf("# %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : shown)
    if (!std::isfinite(m.value)) {
      std::printf("# CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      r.correct = false;
    }
  std::printf("# %-28s %18.6f (%llu of %llu operations)\n", "failed_frac",
              r.info.at("failed_frac").as_double(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("# info %s\n", compact(r.info).c_str());

  std::string stem = cfg.workload;
  stem += "-seed";
  stem += std::to_string(cfg.seed);
  const auto named = [&](const char* prefix, const std::string& suffix) {
    std::string f = prefix;
    f += stem;
    f += suffix;
    return std::filesystem::path(cfg.workdir) / f;
  };
  Json doc = Json::object();
  doc.set("env", env);
  doc.set("info", r.info);
  doc.set("end_to_end", metrics_json(r.end_to_end));
  if (trace) {
    doc.set("per_layer", metrics_json(r.per_layer));
    for (const perfbench::SpanSummary& s : tracer.summarize())
      std::printf("# span %-24s count %7zu  total %10.4f s  self %10.4f s\n",
                  s.name.c_str(), s.count, s.total_s, s.self_s);
    // Overhead: this traced run's end-to-end numbers minus those of the
    // untraced run of the same workload and seed, when one is on disk.
    const auto untraced = named("result-", "-trace0.json");
    Json overhead = Json::object();
    Json base_doc;
    if (std::filesystem::exists(untraced)) {
      std::ifstream in(untraced);
      std::stringstream ss;
      ss << in.rdbuf();
      base_doc = Json::parse(ss.str());
    }
    // Only a run of the same configuration is a baseline for the overhead.
    const bool same =
        base_doc.is_object() &&
        compact(base_doc.at("env").at("seconds")) == compact(env.at("seconds")) &&
        base_doc.at("env").at("tiny").as_bool() == cfg.tiny &&
        base_doc.at("info").at("n").as_int() == r.info.at("n").as_int();
    if (same) {
      const Json& base = base_doc.at("end_to_end");
      for (const Metric& m : r.end_to_end)
        if (base.contains(m.name)) {
          const double d = m.value - base.at(m.name).at("value").as_double();
          overhead.set(m.name, d);
          std::printf("# tracing overhead %-24s %+14.6f %s\n", m.name.c_str(),
                      d, m.unit.c_str());
        }
    } else {
      std::printf("# tracing overhead: no untraced run of %s with the same "
                  "configuration on disk; run --trace 0 with the same seed "
                  "first\n", stem.c_str());
    }
    doc.set("tracing_overhead", overhead);
    Json tdoc = tracer.to_json();
    tdoc.set("env", env);
    write_file(named("trace-", ".json"), compact(tdoc));
  }
  write_file(named("result-", trace ? "-trace1.json" : "-trace0.json"),
             compact(doc));

  std::string line = "{\"correct\":";
  line += r.correct ? "true" : "false";
  line += ",\"attempted\":";
  line += std::to_string(r.attempted);
  line += ",\"failed\":";
  line += std::to_string(r.failed);
  line += ",\"metrics\":";
  line += compact(metrics_json(shown));
  line += '}';
  std::printf("%s\n", line.c_str());
  return r.correct ? 0 : 1;
}
