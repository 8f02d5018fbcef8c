/// \file tools/dhtlint_lib.h
/// \brief Repo-specific determinism lint rules (the `dhtlint` gate).
///
/// The engine's central guarantee — bit-identical DHT scores across
/// lane widths, thread counts, physical layouts, and resume schedules
/// (DESIGN.md §3, §7, §8) — depends on invariants the compiler cannot
/// check: floating-point accumulation order must be canonical, seeds
/// must flow through the deterministic Rng, node-id spaces must not be
/// mixed. The runtime byte-identity suites catch violations only when
/// a test happens to exercise the divergent order; dhtlint catches the
/// *pattern* at review time. Rules (DESIGN.md §10):
///
///  * unordered-iter    — no iteration over std::unordered_map/set in
///                        engine code (src/): hash order feeding an FP
///                        accumulation or ordered output is the classic
///                        nondeterminism bug; go through SortCanonical
///                        or the sorted support lists instead.
///  * raw-rng           — no rand()/srand()/std::random_device/time()/
///                        wall-clock seeding outside util/rng.h,
///                        util/timer.*, and bench/: all randomness
///                        flows through the seeded, deterministic Rng.
///  * float-accum       — no `float` in engine code: scores and
///                        accumulators are double (Sec. III of the
///                        paper fixes the measure in doubles; float
///                        intermediates change results per layout).
///  * raw-id-param      — no bare NodeId/int32_t node parameters in
///                        public engine headers: boundaries take
///                        ExtNodeId/IntNodeId so external-vs-internal
///                        mixing is a compile error (graph/node_id.h).
///  * mutable-static    — no mutable static or thread_local state in
///                        src/dht/ + src/join2/ hot paths: hidden
///                        cross-query state breaks resume parity and
///                        the sanitizer jobs' independence assumptions.
///
/// Suppressions: a finding is waived by a comment on the same line or
/// the line above:
///     // dhtlint: allow(<rule>): <reason>
/// The reason is REQUIRED — a bare allow() is itself a finding
/// (bad-suppression). Whole-file waivers (for documented raw-interior
/// headers like dht/batch_core.h) use:
///     // dhtlint: allow-file(<rule>): <reason>
///
/// The scanner is line-based and intentionally conservative: it may
/// need a justified suppression on exotic-but-legal code, but it
/// cannot be silently bypassed by formatting. Comments and string
/// literals are stripped before pattern matching, so prose mentioning
/// `rand()` does not trip the gate.

#ifndef DHTJOIN_TOOLS_DHTLINT_LIB_H_
#define DHTJOIN_TOOLS_DHTLINT_LIB_H_

#include <string>
#include <vector>

namespace dhtjoin::lint {

/// One lint hit, suppressed or not.
struct Finding {
  std::string file;     ///< path label as given to LintSource
  int line = 0;         ///< 1-based
  std::string rule;     ///< e.g. "raw-rng"
  std::string message;  ///< human-readable explanation
  bool suppressed = false;
  std::string reason;   ///< suppression reason when suppressed
};

/// Result of linting one or more sources.
struct LintResult {
  std::vector<Finding> findings;

  /// Findings that are NOT suppressed (the gate count).
  int NumUnsuppressed() const;
};

/// All rule names, in report order.
const std::vector<std::string>& RuleNames();

/// Lints one translation unit. `path` scopes the path-dependent rules
/// (e.g. raw-rng's util/rng allowlist) and labels findings; `content`
/// is the full source text. Pure function — no filesystem access, so
/// tests can feed snippets under pseudo-paths.
LintResult LintSource(const std::string& path, const std::string& content);

/// Merges `b` into `a`.
void Merge(LintResult* a, const LintResult& b);

/// Machine-readable report: one JSON document with per-rule counts and
/// the full findings list (suppressed included, marked).
std::string ReportJson(const LintResult& result);

/// True when dhtlint wants to scan this repo-relative path at all
/// (C++ sources under src/ and tools/, excluding dhtlint's own
/// fixtures and tests).
bool DefaultScanPath(const std::string& path);

}  // namespace dhtjoin::lint

#endif  // DHTJOIN_TOOLS_DHTLINT_LIB_H_
