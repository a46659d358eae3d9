#include "eval/flags.h"

#include <algorithm>

namespace firmup::eval {

namespace {

constexpr const char *kCveList = "--cve-list";
constexpr const char *kIndexCache = "--index-cache";
constexpr const char *kNoMmap = "--no-mmap";

}  // namespace

bool
parse_flags(const std::vector<std::string> &args,
            const std::vector<Flag> &flags,
            std::vector<std::string> &positionals)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (!starts_with(args[i], "--")) {
            positionals.push_back(args[i]);
            continue;
        }
        const std::size_t eq = args[i].find('=');
        const auto flag = std::ranges::find(flags, args[i].substr(0, eq),
                                            &Flag::name);
        if (flag == flags.end()) {
            return false;
        }
        std::string value;
        if (flag->arity == Flag::Arity::Value) {
            if (eq != std::string::npos || i + 1 == args.size() ||
                starts_with(args[i + 1], "--")) {
                return false;
            }
            value = args[++i];
        } else if (eq != std::string::npos) {
            value = args[i].substr(eq + 1);
            if (flag->arity == Flag::Arity::Switch || value.empty()) {
                return false;
            }
        }
        if (!flag->set(value)) {
            return false;
        }
    }
    return true;
}

Flag
string_flag(std::string name, std::string &out)
{
    return {std::move(name), Flag::Arity::Value,
            [&out](const std::string &value) {
                out = value;
                return true;
            }};
}

Flag
switch_flag(std::string name, bool &out, bool value)
{
    return {std::move(name), Flag::Arity::Switch,
            [&out, value](const std::string &) {
                out = value;
                return true;
            }};
}

Flag
seconds_flag(std::string name, double &out)
{
    return number_flag(std::move(name), out,
                       std::numeric_limits<double>::min());
}

Flag
index_cache_flag(std::string &dir)
{
    return string_flag(kIndexCache, dir);
}

bool
parse_scan_args(const std::vector<std::string> &args,
                std::vector<Flag> verb_flags, ScanFlags &scan,
                std::vector<std::string> &blobs)
{
    verb_flags.push_back({kCveList, Flag::Arity::Value,
                          [&scan](const std::string &value) {
                              scan.cve_ids = split(value, ',');
                              std::erase(scan.cve_ids, "");
                              return !scan.cve_ids.empty();
                          }});
    verb_flags.push_back(index_cache_flag(scan.index_cache_dir));
    verb_flags.push_back(switch_flag(kNoMmap, scan.mmap_index, false));
    blobs.clear();
    if (!parse_flags(args, verb_flags, blobs)) {
        return false;
    }
    if (scan.cve_ids.empty() && !blobs.empty()) {
        scan.cve_ids.push_back(blobs.front());
        blobs.erase(blobs.begin());
    }
    return !scan.cve_ids.empty() && !blobs.empty();
}

std::vector<std::string>
scan_flag_args(const ScanFlags &scan)
{
    std::vector<std::string> args = {kCveList, join(scan.cve_ids, ",")};
    if (!scan.index_cache_dir.empty()) {
        args.insert(args.end(), {kIndexCache, scan.index_cache_dir});
    }
    if (!scan.mmap_index) {
        args.push_back(kNoMmap);
    }
    return args;
}

Result<std::vector<firmware::CveRecord>>
resolve_cves(const std::vector<std::string> &ids)
{
    const std::vector<firmware::CveRecord> &db = firmware::cve_database();
    std::vector<firmware::CveRecord> cves;
    for (const std::string &id : ids) {
        const auto found =
            std::ranges::find(db, id, &firmware::CveRecord::cve_id);
        if (found == db.end()) {
            return Result<std::vector<firmware::CveRecord>>::error(
                ErrorCode::MissingProcedure, "unknown CVE " + id);
        }
        cves.push_back(*found);
    }
    return cves;
}

Result<std::vector<firmware::CveRecord>>
prepare_hunt(const ScanFlags &scan, SearchOptions &options)
{
    options.index_cache_dir = scan.index_cache_dir;
    options.mmap_index = scan.mmap_index;
    return resolve_cves(scan.cve_ids);
}

}  // namespace firmup::eval
