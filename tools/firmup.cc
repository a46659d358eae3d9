/**
 * @file
 * `firmup` — command-line front end for the whole stack.
 *
 *   firmup cves                          list the CVE database
 *   firmup corpus --out DIR [--devices N] [--seed S] [--scale N]
 *                                        build the corpus, write blobs
 *   firmup unpack BLOB                   carve a firmware blob
 *   firmup index BLOB                    lift + index every executable
 *   firmup disasm BLOB EXE [N]           disassemble an executable
 *   firmup search CVE-ID BLOB...         hunt a CVE across blobs
 *   firmup trace CVE-ID BLOB...          the same hunt with full tracing
 *                                        (Chrome trace JSON: --trace-out)
 *   firmup shard-scan CVE-ID BLOB...     the same hunt sharded across
 *                                        worker processes (eval/shard.h)
 *   firmup exec BLOB EXE PROC [ARGS..]   run a procedure in the µIR
 *                                        interpreter (PROC is a symbol
 *                                        name or @hex entry address)
 *   firmup fuzz-unpack BLOB [--iters N]  drive unpack→lift→index→match
 *                                        over deterministic mutants
 *
 * usage() lists every flag. Each verb parses them through the options
 * layer in eval/flags.h — one table per verb, one name, arity and
 * validation rule per flag — so an unknown flag, a flag the verb does
 * not take, a missing value and a value out of range exit 2 instead of
 * becoming blob paths. search, trace and shard-scan share one group
 * (ScanFlags: --cve-list, --index-cache, --no-mmap) and one hunt
 * path: the same CVE resolution and store wiring
 * (eval::prepare_hunt), streamed hunt (eval::hunt_manifest) and
 * finding printer; shard-scan hands the group to its workers unchanged.
 * The benchmark that times these verbs end to end is perfbench/.
 *
 * Blobs are the FWIMG containers produced by `firmup corpus` (or any
 * firmware::pack_firmware caller).
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "eval/driver.h"
#include "eval/flags.h"
#include "eval/report.h"
#include "eval/shard.h"
#include "firmware/corpus.h"
#include "firmware/image.h"
#include "lifter/interp.h"
#include "support/cancel.h"
#include "support/faultinject.h"
#include "support/fsio.h"
#include "support/str.h"
#include "support/trace.h"

using namespace firmup;

namespace {

/** argv[0], for re-executing ourselves as a shard worker. */
std::string g_argv0;

/**
 * Absolute path of the running binary (/proc/self/exe when available,
 * argv[0] otherwise) — what the shard-scan coordinator execs so the
 * workers are exactly this build.
 */
std::string
self_binary_path()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return std::string(buf);
    }
    return g_argv0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: firmup <command> [args]\n"
        "  cves                                list known CVEs\n"
        "  corpus --out DIR [--devices N] [--seed S] [--scale N]\n"
        "                                      build + write firmware blobs\n"
        "                                      (--scale N clones the\n"
        "                                      catalog N-fold with\n"
        "                                      perturbed builds)\n"
        "  unpack BLOB                         carve a firmware blob\n"
        "  index BLOB                          lift & index every executable\n"
        "  disasm BLOB EXE [N]                 disassemble first N insts\n"
        "  search CVE-ID BLOB...               hunt a CVE across blobs\n"
        "  search --cve-list A,B,C BLOB...     hunt a whole CVE list in\n"
        "                                      one batched pass (each\n"
        "                                      target indexed once)\n"
        "  trace CVE-ID BLOB... [--trace-out FILE]\n"
        "                                      hunt with full tracing and\n"
        "                                      write Chrome trace JSON\n"
        "  shard-scan CVE-ID BLOB... [--workers N] [--state DIR]\n"
        "                                      fleet scan: shard the blob\n"
        "                                      manifest across N worker\n"
        "                                      processes, supervise them\n"
        "                                      (heartbeat + respawn) and\n"
        "                                      merge one deterministic\n"
        "                                      report; --state DIR makes\n"
        "                                      rescans incremental (an\n"
        "                                      unchanged corpus replays,\n"
        "                                      searching 0 targets)\n"
        "  exec BLOB EXE PROC [ARGS...]        interpret a procedure\n"
        "  fuzz-unpack BLOB [--iters N] [--seed S]\n"
        "                                      fault-inject the pipeline\n"
        "search/trace/shard-scan share --cve-list A,B,C and:\n"
        "  --index-cache DIR      persistent content-addressed index\n"
        "                         store, so repeat scans of the same\n"
        "                         executables skip lifting entirely\n"
        "                         (warm start; index takes it too)\n"
        "  --no-mmap              read store entries into memory\n"
        "                         instead of mapping them (findings\n"
        "                         identical)\n"
        "search/trace/shard-scan/index/fuzz-unpack also take\n"
        "--stats-json FILE to collect and dump the metrics snapshot\n"
        "search/trace also take:\n"
        "  --shard-index I --shard-count N\n"
        "                         scan only the blobs shard_of_path\n"
        "                         assigns to shard I of N — the same\n"
        "                         deterministic shard function\n"
        "                         shard-scan uses, for external\n"
        "                         orchestrators slicing a manifest\n"
        "  --journal FILE         durable per-target scan journal\n"
        "  --resume               replay FILE, scan only the remainder\n"
        "  --target-budget SEC    wall-clock watchdog per game\n"
        "  --fail-on-quarantine[=N]  exit 4 when more than N\n"
        "                         executables were quarantined\n"
        "  --cancel-after N       (testing) cancel, as SIGTERM would,\n"
        "                         after the journal commit that\n"
        "                         reaches N records\n"
        "SIGINT/SIGTERM drain in-flight targets, commit what finished to\n"
        "the journal and exit 130 with a partial report; rerun with\n"
        "--resume to finish\n"
        "shard-scan also takes: --worker-threads N (threads per worker),\n"
        "--heartbeat SEC (stall deadline, default 30), --max-respawns N\n"
        "(default 2) and --quiet\n"
        "an unknown flag, a missing value or an out-of-range number is a\n"
        "usage error (exit 2)\n");
    return 2;
}

/**
 * Dump the requested trace artifacts at command exit. Either path may
 * be empty (that artifact was not requested). Returns false (and turns
 * the command's exit status into failure) when a write fails.
 */
bool
dump_trace_artifacts(const std::string &trace_out,
                     const std::string &stats_out)
{
    bool ok = true;
    for (const auto &[path, chrome] :
         {std::pair{&trace_out, true}, std::pair{&stats_out, false}}) {
        if (path->empty()) {
            continue;
        }
        std::ofstream out(*path, std::ios::binary);
        out << (chrome ? trace::chrome_trace_json() : trace::stats_json());
        if (out) {
            std::printf("wrote %s%s\n", path->c_str(),
                        chrome ? " (load in chrome://tracing)" : "");
        } else {
            std::fprintf(stderr, "firmup: cannot write %s\n",
                         path->c_str());
            ok = false;
        }
    }
    return ok;
}

int
cmd_cves()
{
    eval::Table table({"CVE", "Package", "Procedure", "Kind", "Fixed in"});
    for (const firmware::CveRecord &cve : firmware::cve_database()) {
        table.add_row({cve.cve_id, cve.package, cve.procedure, cve.kind,
                       cve.fixed_version});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmd_corpus(const std::vector<std::string> &args)
{
    firmware::CorpusOptions options;
    std::string out_dir;
    std::vector<std::string> positionals;
    if (!eval::parse_flags(
            args,
            {eval::string_flag("--out", out_dir),
             eval::number_flag("--devices", options.num_devices, 1),
             eval::number_flag("--seed", options.seed, 0),
             eval::number_flag("--scale", options.scale, 1)},
            positionals) ||
        !positionals.empty() || out_dir.empty()) {
        return usage();
    }
    // Before generating, so a bad --out fails fast and names the dir.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "firmup: cannot create %s: %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return 1;
    }
    const firmware::Corpus corpus = firmware::build_corpus(options);
    const auto written =
        firmware::write_corpus_blobs(corpus, options.seed, out_dir);
    if (!written.ok()) {
        std::fprintf(stderr, "firmup: %s\n",
                     written.error_message().c_str());
        return 1;
    }
    std::printf("wrote %zu firmware blobs (%zu executables, %zu "
                "procedures) to %s\n",
                written.value().size(), corpus.executable_count(),
                corpus.procedure_count(), out_dir.c_str());
    return 0;
}

int
cmd_unpack(const std::string &path)
{
    const eval::Manifest manifest = eval::load_manifest({path});
    if (manifest.blobs.empty()) {
        return 1;  // load_manifest said why
    }
    const firmware::FirmwareImage &image = manifest.blobs.front().image;
    std::printf("vendor=%s device=%s version=%s latest=%s\n",
                image.vendor.c_str(), image.device.c_str(),
                image.version.c_str(), image.is_latest ? "yes" : "no");
    eval::Table table({"member", "declared arch", "text", "data",
                       "symbols", "stripped"});
    for (const loader::Executable &exe : image.executables) {
        table.add_row({exe.name, isa::arch_name(exe.declared_arch),
                       std::to_string(exe.text.size()),
                       std::to_string(exe.data.size()),
                       std::to_string(exe.symbols.size()),
                       exe.stripped ? "yes" : "no"});
    }
    std::printf("%s", table.render().c_str());
    for (const std::string &content : image.content_files) {
        std::printf("content: %s\n", content.c_str());
    }
    if (manifest.blobs.front().damaged_members > 0) {
        std::printf("%d damaged member(s) skipped\n",
                    manifest.blobs.front().damaged_members);
    }
    return 0;
}

int
cmd_index(const std::vector<std::string> &args)
{
    std::string stats_out;
    eval::SearchOptions options;
    std::vector<std::string> positionals;
    if (!eval::parse_flags(args,
                           {eval::string_flag("--stats-json", stats_out),
                            eval::index_cache_flag(options.index_cache_dir)},
                           positionals) ||
        positionals.size() != 1) {
        return usage();
    }
    if (!stats_out.empty()) {
        trace::set_level(trace::Level::Metrics);
    }
    const eval::Manifest manifest = eval::load_manifest(positionals);
    if (manifest.blobs.empty()) {
        return 1;  // load_manifest said why
    }
    eval::Driver driver(options);
    driver.health().merge(manifest.health);
    eval::Table table({"member", "arch", "procedures", "blocks",
                       "strands"});
    for (const eval::CorpusTarget &target : manifest.targets) {
        const loader::Executable &exe = *target.exe;
        const sim::ExecutableIndex *index = driver.index_target(exe);
        if (index == nullptr) {
            continue;  // quarantined; shown in the health report
        }
        std::size_t blocks = 0, strands = 0;
        for (const sim::ProcEntry &proc : index->procs) {
            blocks += proc.block_count;
            strands += proc.strands.size();
        }
        table.add_row({exe.name, isa::arch_name(index->arch),
                       std::to_string(index->procs.size()),
                       std::to_string(blocks), std::to_string(strands)});
    }
    std::printf("%s", table.render().c_str());
    if (driver.health().quarantined > 0) {
        std::printf("%s", eval::render_health(driver.health()).c_str());
    }
    if (!dump_trace_artifacts("", stats_out)) {
        return 1;
    }
    return 0;
}

int
cmd_disasm(const std::string &path, const std::string &member, int count)
{
    const eval::Manifest manifest = eval::load_manifest({path});
    if (manifest.blobs.empty()) {
        return 1;  // load_manifest said why
    }
    for (const eval::CorpusTarget &t : manifest.targets) {
        const loader::Executable &exe = *t.exe;
        if (exe.name != member) {
            continue;
        }
        const isa::Arch arch = lifter::detect_arch(exe);
        const isa::Target &target = isa::target_for(arch);
        std::printf("%s (%s%s):\n", exe.name.c_str(),
                    isa::arch_name(arch),
                    arch != exe.declared_arch ? ", header lies" : "");
        std::uint64_t addr = exe.entry;
        for (int i = 0; i < count; ++i) {
            const std::size_t offset =
                static_cast<std::size_t>(addr - exe.text_addr);
            if (offset >= exe.text.size()) {
                break;
            }
            auto decoded =
                target.decode(exe.text.data() + offset,
                              exe.text.size() - offset, addr);
            if (!decoded.ok()) {
                // The decoder's message is fixed; name the bytes here.
                std::string bytes;
                for (std::size_t b = offset;
                     b < exe.text.size() && b < offset + 4; ++b) {
                    bytes += strprintf(" %02x", exe.text[b]);
                }
                std::printf("  %06llx: <%s at%s>\n",
                            static_cast<unsigned long long>(addr),
                            decoded.error_message().c_str(),
                            bytes.c_str());
                break;
            }
            std::printf("  %06llx: %s\n",
                        static_cast<unsigned long long>(addr),
                        target.disasm(decoded.value().inst).c_str());
            addr += static_cast<std::uint64_t>(decoded.value().size);
        }
        return 0;
    }
    std::fprintf(stderr, "firmup: no member named %s\n", member.c_str());
    return 1;
}

/** The "hunting ..." header of search and shard-scan. */
void
print_hunt_header(const std::vector<firmware::CveRecord> &cves)
{
    for (const firmware::CveRecord &cve : cves) {
        std::printf("hunting %s: %s in %s (vulnerable <= %s)\n",
                    cve.cve_id.c_str(), cve.procedure.c_str(),
                    cve.package.c_str(),
                    eval::latest_vulnerable_version(cve).c_str());
    }
}

/**
 * One VULNERABLE line per finding, in the given order; a line names
 * its CVE only when more than one is hunted.
 */
void
print_findings(const std::vector<eval::FleetFinding> &findings,
               const std::vector<firmware::CveRecord> &cves,
               const std::vector<std::string> &blobs)
{
    for (const eval::FleetFinding &finding : findings) {
        const firmware::CveRecord &cve = cves[finding.cve];
        const std::string tag = cves.size() == 1 ? "" : " to " + cve.cve_id;
        std::printf("%s: %s: VULNERABLE%s — %s at 0x%llx "
                    "(Sim=%d, %d game steps)\n",
                    blobs[finding.blob].c_str(), finding.exe_name.c_str(),
                    tag.c_str(), cve.procedure.c_str(),
                    static_cast<unsigned long long>(finding.matched_entry),
                    finding.sim, finding.steps);
    }
}

/** The health report, plus the work counters when metrics are on. */
void
print_health(const eval::ScanHealth &health)
{
    std::printf("%s", trace::level() == trace::Level::Off
                          ? eval::render_health(health).c_str()
                          : eval::render_health(
                                health,
                                trace::MetricsRegistry::global().snapshot())
                                .c_str());
}

/** Report a CVE id the database lacks, as every hunt verb does. */
int
unknown_cve(const std::string &message)
{
    std::fprintf(stderr, "firmup: %s (try `firmup cves`)\n",
                 message.c_str());
    return 1;
}

/**
 * The CVE hunt behind both `search` (tracing off unless --stats-json
 * asks for metrics) and `trace` (@p full_trace: Level::Full, Chrome
 * trace JSON written to --trace-out, default trace.json). The whole
 * hunt list is driven through one streamed pass (eval::hunt_manifest),
 * so every target is unpacked and indexed exactly once no matter how
 * many CVEs are hunted, and its bytes are freed once its index exists.
 */
int
cmd_search(const std::vector<std::string> &args, bool full_trace)
{
    eval::ScanFlags scan;
    eval::SearchOptions options;
    std::vector<std::string> paths;
    std::string trace_out, stats_out;
    std::optional<int> quarantine_limit;  ///< set by --fail-on-quarantine
    int shard_index = -1;  ///< -1 = no sharding requested
    int shard_count = -1;
    std::vector<eval::Flag> flags = {
        eval::string_flag("--stats-json", stats_out),
        eval::string_flag("--journal", options.journal_path),
        eval::switch_flag("--resume", options.resume),
        eval::number_flag("--shard-index", shard_index, 0),
        eval::number_flag("--shard-count", shard_count, 1),
        eval::seconds_flag("--target-budget", options.target_budget_seconds),
        eval::number_flag("--cancel-after", options.cancel_after_appends, 1),
        {"--fail-on-quarantine", eval::Flag::Arity::Optional,
         [&quarantine_limit](const std::string &limit) {
             quarantine_limit = 0;
             return limit.empty() ||
                    parse_number(limit, *quarantine_limit, 0);
         }}};
    if (full_trace) {
        flags.push_back(eval::string_flag("--trace-out", trace_out));
    }
    if (!eval::parse_scan_args(args, std::move(flags), scan, paths)) {
        return usage();
    }
    // --shard-index/--shard-count: keep only this shard's slice of the
    // manifest, by the same pure path hash the shard-scan coordinator
    // uses — the escape hatch for external orchestrators.
    const bool sharded = shard_index >= 0 || shard_count >= 1;
    if (sharded && (shard_index < 0 || shard_index >= shard_count)) {
        std::fprintf(stderr,
                     "firmup: --shard-index I and --shard-count N "
                     "go together, with 0 <= I < N\n");
        return usage();
    }
    if (options.resume && options.journal_path.empty()) {
        std::fprintf(stderr,
                     "firmup: --resume requires --journal FILE\n");
        return usage();
    }
    if (full_trace) {
        if (trace_out.empty()) {
            trace_out = "trace.json";
        }
        trace::set_level(trace::Level::Full);
    } else if (!stats_out.empty()) {
        trace::set_level(trace::Level::Metrics);
    }

    const auto cves = eval::prepare_hunt(scan, options);
    if (!cves.ok()) {
        return unknown_cve(cves.error_message());
    }
    const std::size_t slice_index =
        sharded ? static_cast<std::size_t>(shard_index) : 0;
    const std::size_t slice_count =
        sharded ? static_cast<std::size_t>(shard_count) : 1;
    if (sharded) {
        std::size_t slice_size = 0;
        for (const std::string &path : paths) {
            slice_size +=
                eval::shard_of_path(path, slice_count) == slice_index;
        }
        std::printf("shard %d/%d: %zu of %zu blob(s)\n", shard_index,
                    shard_count, slice_size, paths.size());
    }
    print_hunt_header(cves.value());
    std::printf("\n");

    // Cooperative shutdown: the first SIGINT/SIGTERM requests the
    // process-wide token (drained below: in-flight targets finish, the
    // finished pairs are committed to the journal, a partial report
    // prints, exit 130); a second signal exits immediately.
    CancelToken &cancel = CancelToken::process();
    cancel.reset();
    install_cancel_signal_handlers();
    options.cancel = &cancel;

    // The whole hunt — the streamed front end, parallel index, per-ISA
    // queries, the chunked (query, target) fan-out — in one batched
    // pass; findings print per CVE in target order afterwards.
    eval::Driver driver(options);
    const eval::ManifestHunt hunt = eval::hunt_manifest(
        driver, cves.value(), paths, slice_index, slice_count, 0);
    const eval::ScanHealth &health = driver.health();
    if (health.resume_rejected) {
        // The journal on disk belongs to a different scan configuration
        // (e.g. it was written for another --cve-list): the
        // driver refused to scan rather than silently mix findings.
        std::fprintf(stderr,
                     "firmup: cannot resume %s: %s\n"
                     "firmup: rerun with the original options, or "
                     "delete the journal to start over\n",
                     options.journal_path.c_str(),
                     health.resume_reject_reason.c_str());
        return 5;
    }
    const std::vector<eval::FleetFinding> findings =
        eval::manifest_findings(hunt.grid, hunt.manifest);
    print_findings(findings, cves.value(), paths);
    const bool cancelled = health.cancelled;
    std::printf("\n%zu finding(s)%s\n", findings.size(),
                cancelled ? " (scan cancelled — partial result)" : "");
    if (cancelled) {
        if (!options.journal_path.empty()) {
            const std::string spec =
                scan.cve_ids.size() == 1
                    ? scan.cve_ids.front()
                    : "--cve-list " + join(scan.cve_ids, ",");
            std::printf("resume with: firmup search %s --journal %s "
                        "--resume <blobs...>\n",
                        spec.c_str(), options.journal_path.c_str());
        } else {
            std::printf("rerun with --journal FILE to make scans "
                        "resumable\n");
        }
    }
    // With metrics on, always print the full health + work report.
    if (trace::level() != trace::Level::Off || health.quarantined > 0 ||
        health.games_unresolved > 0 || cancelled) {
        print_health(health);
    }
    if (!dump_trace_artifacts(trace_out, stats_out)) {
        return 1;
    }
    if (cancelled) {
        return 130;  // the conventional 128+SIGINT status
    }
    if (quarantine_limit &&
        health.quarantined > static_cast<std::size_t>(*quarantine_limit)) {
        std::fprintf(stderr,
                     "firmup: %zu executable(s) quarantined "
                     "(limit %d) — failing as requested\n",
                     health.quarantined, *quarantine_limit);
        return 4;
    }
    return findings.empty() ? 3 : 0;
}

/**
 * `firmup shard-scan` — the fleet front end: shard the blob manifest
 * across worker processes, supervise them and print one merged report
 * in the exact order a 1-worker scan (or plain `firmup search`) would.
 */
int
cmd_shard_scan(const std::vector<std::string> &args)
{
    eval::ShardScanOptions sopt;
    std::string stats_out;
    if (!eval::parse_scan_args(
            args,
            {eval::number_flag("--workers", sopt.workers, 1, 256),
             eval::number_flag("--worker-threads", sopt.worker_threads, 0),
             eval::string_flag("--state", sopt.state_dir),
             eval::seconds_flag("--heartbeat", sopt.heartbeat_seconds),
             eval::number_flag("--max-respawns", sopt.max_respawns, 0),
             eval::switch_flag("--quiet", sopt.quiet),
             eval::string_flag("--stats-json", stats_out),
             // Test seams: shard 0's first worker dies (or stalls, with
             // --stall-first) after the journal commit that reaches N
             // records; the respawn must finish the shard with a
             // bit-identical merged report.
             eval::number_flag("--kill-first-after",
                               sopt.kill_first_worker_after, 1),
             eval::switch_flag("--stall-first", sopt.stall_first_worker)},
            sopt, sopt.blob_paths)) {
        return usage();
    }
    if (!stats_out.empty()) {
        trace::set_level(trace::Level::Metrics);
    }
    const auto cves = eval::resolve_cves(sopt.cve_ids);
    if (!cves.ok()) {
        return unknown_cve(cves.error_message());
    }
    if (!sopt.quiet) {
        print_hunt_header(cves.value());
        std::printf("fleet: %zu worker(s) x %u thread(s), %zu blob(s)\n\n",
                    sopt.workers, sopt.worker_threads,
                    sopt.blob_paths.size());
    }

    const eval::FleetReport report =
        eval::run_shard_scan(self_binary_path(), sopt);
    if (!report.ok) {
        std::fprintf(stderr, "firmup: shard-scan failed: %s\n",
                     report.error.c_str());
        return 1;
    }
    print_findings(report.findings, cves.value(), sopt.blob_paths);
    std::printf("\n%zu finding(s)\n", report.findings.size());
    std::printf(
        "fleet: %zu worker(s) spawned, %zu reassignment(s), %zu "
        "frame(s); %zu target(s) searched, %zu replayed%s; %.3fs\n",
        report.workers_spawned, report.reassignments,
        report.frames_received, report.targets_searched,
        report.incremental_skips,
        report.state_reused ? " (incremental state reused)" : "",
        report.wall_seconds);
    print_health(report.health);
    std::printf("%s",
                eval::render_shard_breakdown(report.shards).c_str());
    if (!dump_trace_artifacts("", stats_out)) {
        return 1;
    }
    return report.findings.empty() ? 3 : 0;
}

/**
 * Fault-injection harness: feed deterministic mutants of a known-good
 * blob through the whole unpack → lift → index → match pipeline and
 * prove the pipeline degrades instead of aborting.
 */
int
cmd_fuzz_unpack(const std::vector<std::string> &args)
{
    std::string stats_out;
    int iters = 1000;
    std::uint64_t seed = 0x5eed;
    std::vector<std::string> positionals;
    if (!eval::parse_flags(args,
                           {eval::number_flag("--iters", iters, 1),
                            eval::number_flag("--seed", seed, 0),
                            eval::string_flag("--stats-json", stats_out)},
                           positionals) ||
        positionals.size() != 1) {
        return usage();
    }
    const std::string &path = positionals.front();
    if (!stats_out.empty()) {
        trace::set_level(trace::Level::Metrics);
    }
    auto bytes = read_file_bytes(path);
    if (!bytes.ok()) {
        std::fprintf(stderr, "firmup: %s\n",
                     bytes.error_message().c_str());
        return 1;
    }

    eval::Driver driver;
    const firmware::CveRecord &cve = firmware::cve_database().front();
    std::map<isa::Arch, eval::Query> queries;
    int unpack_failed = 0;
    int members_survived = 0;
    for (int i = 0; i < iters; ++i) {
        Rng rng(seed + static_cast<std::uint64_t>(i));
        const ByteBuffer mutant = fault::mutate(bytes.value(), rng);
        auto unpacked = firmware::unpack_firmware(mutant);
        if (!unpacked.ok()) {
            ++unpack_failed;
            driver.health().note_unpack_failure(unpacked.error_code());
            continue;
        }
        driver.health().note_unpack(unpacked.value());
        for (const loader::Executable &exe :
             unpacked.value().image.executables) {
            const sim::ExecutableIndex *target =
                driver.index_target(exe);
            if (target == nullptr) {
                continue;
            }
            ++members_survived;
            auto qit = queries.find(target->arch);
            if (qit == queries.end()) {
                qit = queries
                          .emplace(target->arch,
                                   driver.build_query(cve, target->arch))
                          .first;
            }
            driver.search(qit->second, *target);
        }
    }
    std::printf("%d mutant(s): %d rejected at unpack, %d member "
                "lift+index+match survivals\n",
                iters, unpack_failed, members_survived);
    std::printf("%s", eval::render_health(driver.health()).c_str());
    if (!driver.health().sane()) {
        std::fprintf(stderr, "firmup: ScanHealth invariant violated\n");
        return 1;
    }
    if (!dump_trace_artifacts("", stats_out)) {
        return 1;
    }
    return 0;
}

int
cmd_exec(const std::vector<std::string> &args)
{
    // PROC is a symbol name or @hex entry address; call arguments are
    // 32-bit values, signed or not, with C prefixes (0x.., 0..).
    std::uint64_t entry = 0;
    if (starts_with(args[2], "@") &&
        !parse_number(args[2].substr(1), entry, 0,
                      std::numeric_limits<std::uint64_t>::max(), 16)) {
        return usage();
    }
    std::vector<std::uint32_t> call_args;
    for (std::size_t i = 3; i < args.size(); ++i) {
        long long value = 0;
        if (!parse_number(args[i], value,
                          std::numeric_limits<std::int32_t>::min(),
                          std::numeric_limits<std::uint32_t>::max(), 0)) {
            return usage();
        }
        call_args.push_back(static_cast<std::uint32_t>(value));
    }
    const eval::Manifest manifest = eval::load_manifest({args[0]});
    if (manifest.blobs.empty()) {
        return 1;  // load_manifest said why
    }
    for (const eval::CorpusTarget &target : manifest.targets) {
        const loader::Executable &exe = *target.exe;
        if (exe.name != args[1]) {
            continue;
        }
        auto lifted = lifter::lift_executable(exe);
        if (!lifted.ok()) {
            std::fprintf(stderr, "firmup: lift failed: %s\n",
                         lifted.error_message().c_str());
            return 1;
        }
        if (!starts_with(args[2], "@")) {
            for (const loader::Symbol &sym : exe.symbols) {
                if (sym.name == args[2]) {
                    entry = sym.addr;
                }
            }
            if (entry == 0) {
                std::fprintf(stderr,
                             "firmup: no symbol '%s' (stripped? use "
                             "@hex-address)\n",
                             args[2].c_str());
                return 1;
            }
        }
        const lifter::ExecResult result = lifter::execute_procedure(
            lifted.value(), entry, call_args);
        if (!result.ok) {
            std::fprintf(stderr, "firmup: execution failed: %s\n",
                         result.error.c_str());
            return 1;
        }
        std::printf("returned 0x%x (%d)\n", result.value,
                    static_cast<std::int32_t>(result.value));
        for (const auto &[offset, value] : result.memory) {
            std::printf("  data+0x%x = 0x%x\n", offset, value);
        }
        return 0;
    }
    std::fprintf(stderr, "firmup: no member named %s\n",
                 args[1].c_str());
    return 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    g_argv0 = argv[0];
    if (args.empty()) {
        return usage();
    }
    const std::string &command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (command == "--worker") {
        // Hidden verb: a shard worker spawned by `firmup shard-scan`.
        eval::ShardWorkerOptions worker;
        if (!eval::parse_worker_args(rest, worker)) {
            return usage();
        }
        return eval::run_shard_worker(worker);
    }
    if (command == "shard-scan") {
        return cmd_shard_scan(rest);
    }
    if (command == "cves") {
        return cmd_cves();
    }
    if (command == "corpus") {
        return cmd_corpus(rest);
    }
    if (command == "unpack" && args.size() == 2) {
        return cmd_unpack(args[1]);
    }
    if (command == "index") {
        return cmd_index(rest);
    }
    if (command == "disasm" && args.size() >= 3) {
        int count = 16;
        if (args.size() > 3 && !parse_number(args[3], count, 0)) {
            return usage();
        }
        return cmd_disasm(args[1], args[2], count);
    }
    if (command == "search" || command == "trace") {
        return cmd_search(rest, /*full_trace=*/command == "trace");
    }
    if (command == "exec" && args.size() >= 4) {
        return cmd_exec(rest);
    }
    if (command == "fuzz-unpack") {
        return cmd_fuzz_unpack(rest);
    }
    return usage();
}
