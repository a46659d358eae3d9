/**
 * @file
 * The options layer of the command-line verbs. Each verb declares its
 * flags as a table — one name, one arity and one validation rule per
 * Flag — and parse_flags walks argv against it, so an unknown flag, a
 * flag the verb does not take, a missing value and a value outside its
 * rule are usage errors, never blob paths. The flags that `search`,
 * `trace`, `shard-scan` and the hidden shard `--worker` verb share are
 * one group, ScanFlags, and scan_flag_args is its inverse: the shard
 * coordinator builds worker argv with it (eval/shard.h: worker_args),
 * so a worker receives exactly what the coordinator parsed.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "eval/driver.h"
#include "support/str.h"

namespace firmup::eval {

/** One command-line flag of a verb. */
struct Flag
{
    enum class Arity
    {
        Switch,    ///< bare: `--resume`
        Value,     ///< the next argument: `--journal FILE`
        Optional,  ///< bare or `--name=VALUE`: `--fail-on-quarantine[=N]`
    };
    std::string name;
    Arity arity = Arity::Value;
    /** Validate and store @p value ("" when bare); false rejects it. */
    std::function<bool(const std::string &value)> set;
};

/**
 * Parse @p args against @p flags, in any order, appending every
 * argument that does not start with "--" to @p positionals. False on an
 * unknown flag, a Value flag followed by nothing or by another "--"
 * argument, and a value the flag rejects.
 */
bool parse_flags(const std::vector<std::string> &args,
                 const std::vector<Flag> &flags,
                 std::vector<std::string> &positionals);

Flag string_flag(std::string name, std::string &out);
Flag switch_flag(std::string name, bool &out, bool value = true);
/** A positive, finite number of seconds. */
Flag seconds_flag(std::string name, double &out);

/** A whole number in [lo, hi] (support/str.h: parse_number). */
template <typename T>
Flag
number_flag(std::string name, T &out, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    return {std::move(name), Flag::Arity::Value,
            [&out, lo, hi](const std::string &value) {
                return parse_number(value, out, lo, hi);
            }};
}

/** The flags search, trace, shard-scan and the shard worker share. */
struct ScanFlags
{
    /** `--cve-list A,B,C`, or else the first positional CVE id. */
    std::vector<std::string> cve_ids;
    /** `--index-cache DIR`: the shared FWIX store ("" = none). */
    std::string index_cache_dir;
    /** Cleared by `--no-mmap`: read store entries instead of mapping. */
    bool mmap_index = true;
};

/** `--index-cache DIR` alone, the one group member `index` takes. */
Flag index_cache_flag(std::string &dir);

/**
 * Parse a scan verb's argv: the ScanFlags group plus @p verb_flags.
 * Without --cve-list the first positional is the CVE id; the remaining
 * positionals are the blob manifest, which must not be empty.
 */
bool parse_scan_args(const std::vector<std::string> &args,
                     std::vector<Flag> verb_flags, ScanFlags &scan,
                     std::vector<std::string> &blobs);

/** Argv parse_scan_args reads back as @p scan, each flag at most once. */
std::vector<std::string> scan_flag_args(const ScanFlags &scan);

/** Look @p ids up in the CVE database; an unknown id is an error. */
Result<std::vector<firmware::CveRecord>>
resolve_cves(const std::vector<std::string> &ids);

/**
 * The hunt preamble of `search` and a shard worker: resolve the CVEs
 * and point @p options at the store the flags name.
 */
Result<std::vector<firmware::CveRecord>>
prepare_hunt(const ScanFlags &scan, SearchOptions &options);

}  // namespace firmup::eval
