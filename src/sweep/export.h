/**
 * @file
 * Deterministic exporters for sweep reports: machine-readable CSV
 * and JSON plus the human summary table the CLI prints. All numeric
 * formatting is locale-independent and fixed-precision so that two
 * sweeps over the same grid produce byte-identical files regardless
 * of worker count or host.
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/driver.h"

namespace pinpoint {
namespace sweep {

/** Writes the per-scenario CSV (with header row) to @p os. */
void write_sweep_csv(const SweepReport &report, std::ostream &os);

/** Writes the CSV to @p path. @throws Error on I/O failure. */
void write_sweep_csv_file(const SweepReport &report,
                          const std::string &path);

/**
 * Writes the report as a JSON document to @p os: a "scenarios"
 * array plus a "summary" object. Host-dependent fields (wall clock,
 * job count) are deliberately excluded so output is reproducible.
 */
void write_sweep_json(const SweepReport &report, std::ostream &os);

/** Writes the JSON to @p path. @throws Error on I/O failure. */
void write_sweep_json_file(const SweepReport &report,
                           const std::string &path);

/** @return the CSV as a string (determinism tests compare these). */
std::string sweep_csv_string(const SweepReport &report);

/** @return the JSON as a string. */
std::string sweep_json_string(const SweepReport &report);

/** Writes the human-readable summary table to @p os. */
void write_sweep_table(const SweepReport &report, std::ostream &os);

// --- ScenarioResult record codec ---------------------------------
//
// The one serialization of a ScenarioResult, shared by the result
// cache and the shard spill files. export.cc holds a single column
// table (name, group, kind, accessor); the CSV and JSON writers and
// this codec are each one loop over it. A record is
// result_record_lines() text lines: "scenario=" + the whole
// WorkloadSpec, then "name=value" for every column not derived from
// the spec, in table order. Values use the exporters' own formatting
// (format_fixed6 for doubles), so a result that round-trips through
// the codec exports byte-identically to one that never left memory.
// Every on-disk consumer stamps result_schema_salt() next to its
// records: the salt hashes every exported column's name and group
// and whether the record carries it, so adding, removing, renaming,
// regrouping or reordering a column retires every stale record at
// once instead of silently mis-decoding it.

/** @return lines per encoded record (scenario= plus one per field). */
std::size_t result_record_lines();

/**
 * @return hex-16 hash of the column table (names, groups, and
 * which columns the record carries).
 * Changes whenever an exported column or the record layout changes;
 * on-disk stores compare it before trusting a record.
 */
std::string result_schema_salt();

/** @return @p result as result_record_lines() "field=value\n" lines. */
std::string encode_result_record(const ScenarioResult &result);

/**
 * Decodes a record from @p lines starting at @p first. Strict: every
 * field must be present, in order, with a parseable value.
 * @throws Error on any mismatch (callers degrade to a cache miss or
 * a torn spill tail).
 */
ScenarioResult
decode_result_record(const std::vector<std::string> &lines,
                     std::size_t first);

}  // namespace sweep
}  // namespace pinpoint

