/**
 * @file
 * Section 5.2 "Noteworthy findings" — two case studies the paper calls
 * out from its wild hunt:
 *
 *  1. **Deprecated procedures**: searching for curl_easy_unescape in a
 *     firmware shipping an ancient libcurl finds curl_unescape, the
 *     long-deprecated ancestor with a (mutated copy of) the same body.
 *  2. **Version-skew false positives**: the only FPs in the paper's
 *     Table 2 came from matching a wget 1.15 query against wget 1.12
 *     targets. This bench quantifies how similarity decays with version
 *     distance for the vulnerable query procedure.
 */
#include <cstdio>

#include "codegen/build.h"
#include "eval/driver.h"
#include "eval/report.h"
#include "firmware/catalog.h"

using namespace firmup;

namespace {

loader::Executable
vendor_build(const std::string &package, const std::string &version)
{
    const auto &pkg = firmware::package_by_name(package);
    const auto source = firmware::generate_package_source(pkg, version);
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::vendor_toolchains()[3];  // sdk-gcc-O2
    request.strip = true;
    request.keep_exported = pkg.is_library;
    request.exe_name = package;
    return codegen::build_executable(source, request);
}

}  // namespace

int
main()
{
    std::printf("== Section 5.2: noteworthy findings ==\n\n");
    eval::Driver driver;

    // ---- 1. deprecated procedure ----
    std::printf("-- deprecated procedures --\n");
    const eval::Query curl_query = driver.build_query(
        "libcurl", "curl_easy_unescape", "7.24.0", isa::Arch::Mips32);
    // A 2014-style firmware shipping a 2006-era libcurl: curl_unescape
    // still exists, curl_easy_unescape does not exist yet... in our
    // catalog both exist at 7.15.4 (ancestor + successor), matching the
    // paper's setup where the deprecated twin is the interesting match.
    const auto ancient = vendor_build("libcurl", "7.15.4");
    const auto *ancient_ptr = driver.index_target(ancient);
    FIRMUP_ASSERT(ancient_ptr != nullptr,
                  "trusted in-process build must lift");
    const auto &ancient_index = *ancient_ptr;
    const eval::SearchOutcome hit =
        driver.match(curl_query, ancient_index);
    std::printf("query curl_easy_unescape vs libcurl 7.15.4: ");
    if (hit.detected) {
        const int idx = ancient_index.find_by_entry(hit.matched_entry);
        const std::string &name =
            ancient_index.procs[static_cast<std::size_t>(idx)].name;
        std::printf("matched '%s' at 0x%llx (Sim=%d)\n",
                    name.empty() ? "<stripped>" : name.c_str(),
                    static_cast<unsigned long long>(hit.matched_entry),
                    hit.sim);
        // The exported symbol survives stripping on libraries — the
        // paper's "supposedly non-stripped sample" observation.
        if (name == "curl_unescape") {
            std::printf("  -> the deprecated ancestor, exactly the "
                        "paper's curl_unescape() finding\n");
        }
    } else {
        std::printf("no match\n");
    }
    // And the modern build no longer has the deprecated twin at all.
    const auto modern = vendor_build("libcurl", "7.50.3");
    std::printf("libcurl 7.15.4 exports curl_unescape: %s; "
                "7.50.3 exports it: %s\n\n",
                ancient.symbol_at(0) != "curl_unescape" &&
                        [&] {
                            for (const auto &s : ancient.symbols) {
                                if (s.name == "curl_unescape") {
                                    return true;
                                }
                            }
                            return false;
                        }()
                    ? "yes"
                    : "no",
                [&] {
                    for (const auto &s : modern.symbols) {
                        if (s.name == "curl_unescape") {
                            return true;
                        }
                    }
                    return false;
                }()
                    ? "yes"
                    : "no");

    // ---- 2. version skew ----
    std::printf("-- version skew (the paper's only FP source) --\n");
    const auto &wget = firmware::package_by_name("wget");
    const eval::Query wget_query = driver.build_query(
        "wget", "ftp_retrieve_glob", "1.15", isa::Arch::Mips32);
    const auto q_set =
        wget_query.index.procs[static_cast<std::size_t>(wget_query.qv)]
            .strands;
    eval::Table table({"target version", "Sim with 1.15 query",
                       "share of query strands"});
    for (const std::string &version : wget.versions) {
        const auto target_exe = vendor_build("wget", version);
        const auto *version_ptr = driver.index_target(target_exe);
        FIRMUP_ASSERT(version_ptr != nullptr,
                      "trusted in-process build must lift");
        const auto &target = *version_ptr;
        // Locate the true procedure via an unstripped twin build.
        const eval::Query truth = driver.build_query(
            "wget", "ftp_retrieve_glob", version, isa::Arch::Mips32);
        (void)truth;
        const eval::SearchOutcome outcome =
            driver.match(wget_query, target);
        table.add_row(
            {version, std::to_string(outcome.sim),
             eval::percent(static_cast<double>(outcome.sim) /
                           static_cast<double>(q_set.size()))});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper reference: 14 FPs, all from 1.15-vs-1.12 version "
                "discrepancies; shape to check:\nsimilarity decays "
                "monotonically-ish with version distance from 1.15.\n");
    return 0;
}
