// Compile-side layer timing: each public entry point of hpf and compiler,
// called and timed from the benchmark (no spans inside the program).
#include <span>

#include "common.hpp"
#include "oocc/compiler/cost.hpp"
#include "oocc/compiler/search.hpp"
#include "oocc/compiler/verify.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/sema.hpp"

namespace perfbench {

using namespace oocc;

void CompileLayers::add(const CompileLayers& o) {
  parse_s += o.parse_s;
  analyze_s += o.analyze_s;
  lower_s += o.lower_s;
  annotate_s += o.annotate_s;
  verify_s += o.verify_s;
  verify_events += o.verify_events;
  price_s += o.price_s;
  priced_requests += o.priced_requests;
  search_s += o.search_s;
  search_priced += o.search_priced;
  ok = ok && o.ok;
}

CompileLayers time_compile_layers(const std::string& source,
                                  const compiler::CompileOptions& options,
                                  std::int64_t pool_budget, bool search) {
  CompileLayers out;
  auto t0 = SteadyClock::now();
  hpf::Program program = hpf::parse(source);
  out.parse_s = seconds_since(t0);

  t0 = SteadyClock::now();
  const hpf::BoundProgram bound = hpf::analyze(std::move(program));
  out.analyze_s = seconds_since(t0);

  compiler::CompileOptions lower_options = options;
  lower_options.opt = compiler::OptMode::kHeuristic;
  lower_options.verify = false;
  t0 = SteadyClock::now();
  std::vector<compiler::NodeProgram> plans =
      compiler::compile_sequence(bound, lower_options);
  out.lower_s = seconds_since(t0);

  // Lowering already annotated these plans; annotation resets and recomputes
  // the distances, so timing it again measures the pass on its own.
  t0 = SteadyClock::now();
  compiler::annotate_reuse_distances(std::span<compiler::NodeProgram>(plans));
  out.annotate_s = seconds_since(t0);

  const std::span<const compiler::NodeProgram> view(plans);
  t0 = SteadyClock::now();
  const compiler::VerifyReport verified = compiler::verify_sequence(view);
  out.verify_s = seconds_since(t0);
  out.verify_events = static_cast<double>(verified.stats.events);
  out.ok = verified.ok();

  compiler::PriceOptions price_options;
  price_options.model_cache = true;
  price_options.cache_budget_elements = pool_budget;
  t0 = SteadyClock::now();
  const std::vector<compiler::PlanPrice> prices =
      compiler::price_sequence(view, 0, price_options);
  out.price_s = seconds_since(t0);
  for (const compiler::PlanPrice& price : prices) {
    for (const auto& [name, cost] : price.arrays) {
      out.priced_requests += cost.read_requests + cost.write_requests;
    }
  }

  if (search) {
    compiler::CompileOptions search_options = options;
    search_options.opt = compiler::OptMode::kSearch;
    t0 = SteadyClock::now();
    const compiler::SearchResult result =
        compiler::search_sequence(bound, search_options);
    out.search_s = seconds_since(t0);
    out.search_priced = result.report.priced;
  }
  return out;
}

CompileLayers median_layers(const std::vector<CompileLayers>& samples) {
  auto med = [&](double CompileLayers::*field) {
    std::vector<double> v;
    for (const CompileLayers& s : samples) {
      v.push_back(s.*field);
    }
    return median(std::move(v));
  };
  CompileLayers out;
  for (double CompileLayers::*field :
       {&CompileLayers::parse_s, &CompileLayers::analyze_s,
        &CompileLayers::lower_s, &CompileLayers::annotate_s,
        &CompileLayers::verify_s, &CompileLayers::verify_events,
        &CompileLayers::price_s, &CompileLayers::priced_requests,
        &CompileLayers::search_s, &CompileLayers::search_priced}) {
    out.*field = med(field);
  }
  for (const CompileLayers& s : samples) {
    out.ok = out.ok && s.ok;
  }
  return out;
}

void report_compile_layers(Report& report, const CompileLayers& layers) {
  report.set("hpf.parse_s", layers.parse_s, "s");
  report.set("hpf.analyze_s", layers.analyze_s, "s");
  report.set("compiler.lower_s", layers.lower_s, "s");
  report.set("compiler.annotate_s", layers.annotate_s, "s");
  report.set("compiler.verify_s", layers.verify_s, "s");
  report.set("compiler.verify_events", layers.verify_events, "count");
  report.set("compiler.price_s", layers.price_s, "s");
  report.set("compiler.priced_requests", layers.priced_requests, "count");
  report.set("compiler.search_s", layers.search_s, "s");
  report.set("compiler.search_priced", layers.search_priced, "count");
}

}  // namespace perfbench
