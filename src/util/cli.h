// cli.h — minimal `--key=value` argument parsing for examples and benches.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace axiomcc {

/// Parses `--key=value` / `--flag` style arguments. Positional arguments are
/// collected in order. Unknown keys are kept (callers decide what is valid).
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Returns the value for `--key=value`, or nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Returns the string value or `fallback` when absent.
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;

  /// Returns the value parsed as double, or `fallback` when absent.
  /// Throws std::invalid_argument on a malformed number.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;

  /// Returns the value parsed as a non-negative integer, or `fallback`.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;

  /// True when `--key` was given (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Resolved worker count for the standard `--jobs=N` flag: an explicit
  /// N > 0 wins; otherwise the AXIOMCC_JOBS environment override (which is
  /// what makes `ctest -j` safe — the suite pins it low so concurrently
  /// running benches don't oversubscribe the machine), else hardware
  /// concurrency. Always >= 1; 1 selects the serial path everywhere.
  [[nodiscard]] long get_jobs() const;

  /// Telemetry output directory for the standard `--telemetry[=path]` flag:
  /// `--telemetry` alone enables recording into the current directory,
  /// `--telemetry=path` into `path`. Without the flag, the AXIOMCC_TELEMETRY
  /// environment variable is consulted ("" and "0" mean off, "1" means the
  /// current directory, anything else is a directory path). nullopt means
  /// telemetry stays off.
  [[nodiscard]] std::optional<std::string> telemetry_dir() const;

  /// Artifact output directory for the standard `--out=dir` flag: an
  /// explicit flag wins; otherwise the AXIOMCC_ARTIFACTS environment
  /// variable (when non-empty), else "artifacts". This is where benches
  /// drop BENCH_<name>.json and where a bare `--ledger` puts the run
  /// ledger. The directory is created on first write, not here.
  [[nodiscard]] std::string artifacts_dir() const;

  /// Run-ledger path for the standard `--ledger[=path]` flag: `--ledger`
  /// alone appends to `<artifacts_dir()>/ledger.jsonl`, `--ledger=path` to
  /// `path`. Without the flag, the AXIOMCC_LEDGER environment variable is
  /// consulted ("" and "0" mean off, "1" means the default path, anything
  /// else is a file path). nullopt means no ledger record is appended.
  [[nodiscard]] std::optional<std::string> ledger_path() const;

  /// Parsed form of the standard `--record[=<dir>[,classes=<list>]]` flag.
  struct RecordSpec {
    std::string dir;
    /// Raw event-class list ("window+loss" or "window,loss") following a
    /// `,classes=` suffix; empty means "record every class". util cannot
    /// depend on the recorder layer, so the names stay strings here —
    /// callers convert with recorder::parse_class_mask.
    std::string classes;
  };

  /// Flight-recorder capture spec for the standard
  /// `--record[=<dir>[,classes=<list>]]` flag: `--record` alone records all
  /// event classes into `artifacts_dir()`, `--record=dir` into `dir`, and a
  /// `,classes=<list>` suffix restricts capture to the named event classes
  /// (everything after `,classes=` is the list, so both `+` and `,`
  /// separated lists work). Without the flag, the AXIOMCC_RECORD
  /// environment variable is consulted ("" and "0" mean off, "1" means
  /// `artifacts_dir()`, anything else is parsed the same way). nullopt
  /// means recording stays off.
  [[nodiscard]] std::optional<RecordSpec> record_spec() const;

  /// The directory of record_spec(), for callers that ignore class filters.
  [[nodiscard]] std::optional<std::string> record_dir() const;

  /// Simulation backend for the standard `--backend=NAME` flag: an explicit
  /// flag wins; otherwise the AXIOMCC_BACKEND environment variable, else
  /// "fluid". The value is validated here ("fluid" or "packet"; anything
  /// else throws std::invalid_argument) but returned as a string — util
  /// cannot depend on the engine layer, so callers convert with
  /// engine::parse_backend.
  [[nodiscard]] std::string get_backend() const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace axiomcc
