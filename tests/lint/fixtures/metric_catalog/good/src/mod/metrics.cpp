// metric-catalog fixture: every registration has a catalog row in the
// sibling docs/observability.md and every row names one of them, so
// the rule reports nothing. A call in a comment does not count:
// reg.counter("fix.in_comment").
#include <string>

void register_metrics(Registry& reg, const std::string& tenant,
                      const std::string& name) {
  reg.counter("fix.a");
  reg.counter("fix.b");
  reg.histogram(
      "fix.latency_ns", params);
  const std::string base = "fix.tenant." + tenant;
  reg.gauge(base + ".depth");
  // fastjoin-lint: allow(metric-catalog) fixture: the caller's name
  reg.counter(name);
}
