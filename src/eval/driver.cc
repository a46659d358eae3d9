#include "eval/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "baseline/gitz_like.h"
#include "codegen/build.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/str.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup::eval {

Driver::Driver(SearchOptions options) : options_(std::move(options)) {}

std::string
latest_vulnerable_version(const firmware::CveRecord &cve)
{
    const firmware::PackageSpec &pkg =
        firmware::package_by_name(cve.package);
    std::string newest;
    for (const std::string &version : pkg.versions) {
        if (cve.affects(pkg, version)) {
            newest = version;  // versions are ordered oldest first
        }
    }
    FIRMUP_ASSERT(!newest.empty(),
                  cve.cve_id + ": no vulnerable version in catalog");
    return newest;
}

namespace {

/**
 * The source half of a query's recipe key (see query_recipe_key): a
 * digest of the rendered package source — name, version, globals and
 * every procedure body. It does not depend on the ISA, so the probe
 * computes it once per source, not once per (source, ISA) spec.
 */
std::uint64_t
query_source_digest(const lang::PackageSource &source)
{
    std::uint64_t key =
        fnv1a64("fwq1:" + source.name + ":" + source.version);
    for (const lang::GlobalVar &global : source.globals) {
        key = hash_combine(key, fnv1a64(global.name));
        key = hash_combine(key, static_cast<std::uint64_t>(global.words));
    }
    for (const lang::ProcedureAst &proc : source.procedures) {
        key = hash_combine(key, fnv1a64(lang::to_string(proc)));
    }
    return key;
}

/**
 * Store key for a query's finalized index: a digest of everything the
 * index is a function of — the source (@p source_digest, from
 * query_source_digest), the whole build request (arch, toolchain
 * profile knobs, feature/strip/link settings) and the canon knobs,
 * folded onto the source digest in that order. Queries are compiled
 * from source, so they have no content bytes to address until codegen
 * has run — which is exactly the cost a warm hunt wants to skip;
 * hashing the build recipe instead lets the store serve the index
 * before any compilation happens. The "fwq1:" domain prefix keeps
 * recipe keys disjoint from content keys in the shared store
 * namespace; bump it whenever codegen, the lifter or canonicalization
 * change the index a given recipe produces (source and knob changes
 * re-key automatically).
 */
std::uint64_t
query_recipe_key(std::uint64_t source_digest,
                 const codegen::BuildRequest &request,
                 const strand::CanonOptions &canon)
{
    std::uint64_t key =
        hash_combine(source_digest, fnv1a64(isa::arch_name(request.arch)));
    const compiler::ToolchainProfile &profile = request.profile;
    key = hash_combine(key, fnv1a64(profile.name));
    key = hash_combine(key, static_cast<std::uint64_t>(profile.opt_level));
    key = hash_combine(
        key, static_cast<std::uint64_t>(profile.inline_threshold));
    key = hash_combine(
        key, static_cast<std::uint64_t>(profile.extra_frame_pad));
    std::uint64_t bits = 0;
    for (const bool flag :
         {profile.use_cse, profile.strength_reduce,
          profile.swap_commutative, profile.rotate_loops,
          profile.locals_descending, profile.callee_saved_first,
          profile.mips_fill_delay_slot, profile.mips_pic_calls,
          profile.materialize_full_const, profile.reverse_block_layout,
          request.all_features, request.strip, request.keep_exported,
          canon.eliminate_offsets, canon.optimize,
          // The last bit was a hashing-path knob that is now always on;
          // it stays set so every recipe key, hence every warm store
          // entry, is unchanged.
          canon.normalize_names, true}) {
        bits = (bits << 1) | (flag ? 1 : 0);
    }
    key = hash_combine(key, bits);
    for (const std::string &feature : request.enabled_features) {
        key = hash_combine(key, fnv1a64(feature));
    }
    key = hash_combine(key, fnv1a64(request.exe_name));
    key = hash_combine(
        key, static_cast<std::uint64_t>(request.link.text_base));
    key = hash_combine(
        key, static_cast<std::uint64_t>(request.link.data_base));
    return key;
}

}  // namespace

namespace {

// Persistent index-cache accounting; mirrored into ScanHealth so scans
// without --stats-json still surface the hit rate.
const trace::Counter c_cache_hits("cache.hits");
const trace::Counter c_cache_misses("cache.misses");
const trace::Counter c_cache_write_bytes("cache.write_bytes");
const trace::Counter c_cache_load_micros("cache.load_micros");
const trace::Counter c_cache_mmap_loads("cache.mmap_loads");

// Query-recipe lane (build_query with a store): kept apart from the
// target-index counters so cache.hits still equals executables served
// from disk.
const trace::Counter c_query_cache_hits("cache.query_hits");
const trace::Counter c_query_cache_misses("cache.query_misses");

// Crash-safety accounting. scan.outcomes fires for replayed targets
// too, so a resumed scan and a clean one-shot report the same value —
// the CI interrupt/resume smoke compares exactly that.
const trace::Counter c_scan_outcomes("scan.outcomes");
const trace::Counter c_resumed_targets("journal.resumed_targets");
const trace::Counter c_cancelled_targets("scan.cancelled_targets");
const trace::Counter c_retries("scan.retries");
const trace::Counter c_watchdog_expired("scan.watchdog_expired");

// The game grid's ranges.
const trace::Counter c_chunks("scan.chunks");

// Hunt journal records are committed in groups of up to this many.
constexpr std::size_t kJournalGroup = 64;

// Memory at the start of the game phase: executable bytes the targets
// still hold, and the FWIX bytes of the driver's index map.
const trace::Gauge g_text_bytes_held("scan.text_bytes_held");
const trace::Gauge g_index_bytes("scan.index_bytes");

// Watchdog retries: a game whose wall-clock budget expired is played
// again at most kMaxTargetRetries times, after a backoff that starts at
// kRetryBackoffSeconds and doubles per retry.
constexpr int kMaxTargetRetries = 2;
constexpr double kRetryBackoffSeconds = 0.05;
constexpr double kRetryBackoffFactor = 2.0;

// Every content_key call: a scan keys each target once.
const trace::Counter c_content_keys("scan.content_keys");

std::uint64_t
knob_bits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/**
 * Lift an untrusted executable, downgrading degenerate successes: a
 * non-empty text section from which not a single procedure could be
 * recovered is a lift bail-out, not a usable (empty) index.
 */
Result<lifter::LiftedExecutable>
lift_untrusted(const loader::Executable &exe)
{
    auto lifted = lifter::lift_executable(exe);
    if (lifted.ok() && lifted.value().procs.empty() &&
        !exe.text.empty()) {
        return Result<lifter::LiftedExecutable>::error(
            ErrorCode::LiftBailout,
            "no liftable procedure in " +
                std::to_string(exe.text.size()) + " text bytes");
    }
    return lifted;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Thread-CPU delta in seconds since @p start_ns. */
double
cpu_seconds_since(std::uint64_t start_ns)
{
    return static_cast<double>(trace::thread_cpu_ns() - start_ns) * 1e-9;
}

/** Fold one store load (wall @p seconds, stage split) into health. */
void
fold_load(ScanHealth &health, double seconds,
          const sim::IndexCacheStore::LoadStats &stats)
{
    health.cache_load_seconds += seconds;
    c_cache_load_micros.add(static_cast<std::uint64_t>(seconds * 1e6));
    health.cache_open_seconds += stats.open_seconds;
    health.cache_checksum_seconds += stats.checksum_seconds;
    health.cache_parse_seconds += stats.parse_seconds;
    if (stats.mapped) {
        ++health.cache_mmap_loads;
        c_cache_mmap_loads.add();
    }
}

}  // namespace

std::uint64_t
content_key(const loader::Executable &exe)
{
    FIRMUP_ASSERT(!exe.released, "keying released executable " + exe.name);
    c_content_keys.add();
    // content_hash64 over the text bytes: every scan keys every target,
    // and a different hash would orphan every store entry, journal and
    // --state dir, so the key stays bit-identical (DESIGN §11).
    return hash_combine(
        fnv1a64(exe.name),
        content_hash64(std::string_view(
            reinterpret_cast<const char *>(exe.text.data()),
            exe.text.size())));
}

namespace {

/** The source a query of @p package at @p version is compiled from. */
lang::PackageSource
query_source(const std::string &package, const std::string &version)
{
    const trace::TraceSpan span("generate", package);
    return firmware::generate_package_source(
        firmware::package_by_name(package), version);
}

/**
 * Section 5.1: queries are compiled from source with the reference
 * toolchain at its default optimization level, all features on (the
 * researcher's build is a default build).
 */
codegen::BuildRequest
query_request(const std::string &package, isa::Arch arch)
{
    codegen::BuildRequest request;
    request.arch = arch;
    request.profile = compiler::gcc_like_toolchain();
    request.exe_name = package + "-query";
    return request;
}

}  // namespace

QueryRecipe
query_recipe(const std::string &package, const std::string &version,
             isa::Arch arch)
{
    return {query_source(package, version), query_request(package, arch)};
}

struct Driver::QuerySpec
{
    std::string label;
    std::string package;
    std::string procedure;
    std::string version;
    isa::Arch arch = isa::Arch::Mips32;
};

struct Driver::QuerySlot
{
    std::uint64_t key = 0;  ///< recipe key; set when a store is open
    bool hit = false;       ///< index served by the store
    bool built = false;     ///< index compiled, lifted and indexed
    sim::IndexCacheStore::LoadStats load_stats;
    double load_seconds = 0.0;
    std::uint64_t write_bytes = 0;
    sim::ExecutableIndex index;
};

Driver::QuerySpec
Driver::cve_query_spec(const firmware::CveRecord &cve, isa::Arch arch)
{
    return {cve.cve_id, cve.package, cve.procedure,
            latest_vulnerable_version(cve), arch};
}

Query
Driver::build_query(const firmware::CveRecord &cve, isa::Arch arch)
{
    return std::move(
        build_query_set({cve_query_spec(cve, arch)}, 1, nullptr).front());
}

Query
Driver::build_query(const std::string &package,
                    const std::string &procedure,
                    const std::string &version, isa::Arch arch)
{
    return std::move(
        build_query_set({{package + "/" + procedure, package, procedure,
                          version, arch}},
                        1, nullptr)
            .front());
}

void
Driver::probe_query(sim::IndexCacheStore &store, QuerySlot &slot) const
{
    const trace::TraceSpan span("store_load");
    const auto load_start = std::chrono::steady_clock::now();
    auto loaded = store.load(slot.key, options_.mmap_index, &slot.load_stats);
    slot.load_seconds = seconds_since(load_start);
    slot.hit = loaded.ok();
    if (slot.hit) {
        slot.index = std::move(loaded).take();
    }
}

std::vector<Query>
Driver::build_query_set(const std::vector<QuerySpec> &specs,
                        unsigned threads, const CancelToken *cancel)
{
    std::vector<Query> queries(specs.size());
    if (specs.empty()) {
        return queries;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t cpu_start = trace::process_cpu_ns();
    sim::IndexCacheStore *const store = cache_store();
    std::vector<QuerySlot> slots(specs.size());

    // Group the specs by source: (package, version) decides the rendered
    // source, hence the MIR, which does not depend on the ISA. A spec
    // whose source and ISA repeat an earlier spec's has that spec's
    // recipe; first[i] names the earliest such spec.
    std::vector<std::vector<std::size_t>> sources;
    std::vector<std::size_t> first(specs.size());
    {
        std::map<std::pair<std::string, std::string>, std::size_t> source_of;
        std::map<std::pair<std::size_t, isa::Arch>, std::size_t> recipe_of;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto [src, fresh] = source_of.try_emplace(
                {specs[i].package, specs[i].version}, sources.size());
            if (fresh) {
                sources.emplace_back();
            }
            first[i] =
                recipe_of.try_emplace({src->second, specs[i].arch}, i)
                    .first->second;
            if (first[i] == i) {
                sources[src->second].push_back(i);
            }
        }
    }

    // One job per source. A warm store serves a query index under its
    // recipe key, skipping compile + lift + canonicalize (the FWIX
    // round-trip is bit-faithful, so outcomes are identical to a fresh
    // build): the job renders and digests its source once for all its
    // ISAs' keys and loads them. The misses then share one
    // compile_to_mir, and each costs backend+link, lift and index. The
    // AST dies once the MIR exists, each executable once it is lifted
    // and each lifted IR once it is indexed; the slots keep only
    // indexes. Workers write distinct recipe-keyed entries.
    parallel_for(
        resolve_worker_threads(threads), sources.size(), [&](std::size_t j) {
            const QuerySpec &lead = specs[sources[j].front()];
            const trace::TraceSpan span("query_build", lead.package);
            std::optional<lang::PackageSource> source(
                query_source(lead.package, lead.version));
            std::vector<std::size_t> missing;
            if (store == nullptr) {
                missing = sources[j];
            } else {
                const std::uint64_t digest = query_source_digest(*source);
                for (const std::size_t i : sources[j]) {
                    slots[i].key = query_recipe_key(
                        digest,
                        query_request(specs[i].package, specs[i].arch),
                        options_.canon);
                    probe_query(*store, slots[i]);
                    if (!slots[i].hit) {
                        missing.push_back(i);
                    }
                }
            }
            // Cancellation point, as in index_many: an unbuilt slot
            // leaves no trace in health.
            if (missing.empty() ||
                (cancel != nullptr && cancel->requested())) {
                return;
            }
            codegen::BuildRequest request = query_request(
                specs[missing.front()].package, specs[missing.front()].arch);
            compiler::MModule module;
            {
                const trace::TraceSpan compile("compile_to_mir");
                module = codegen::compile_to_mir(*source, request);
            }
            source.reset();
            for (const std::size_t i : missing) {
                request.arch = specs[i].arch;
                auto lifted = [&] {
                    loader::Executable exe;
                    {
                        const trace::TraceSpan link("backend_link");
                        exe = codegen::build_executable(module, request);
                    }
                    return lifter::lift_executable(exe);
                }();
                FIRMUP_ASSERT(lifted.ok(), "query lift failed: " +
                                               lifted.error_message());
                QuerySlot &slot = slots[i];
                slot.index = sim::index_executable(lifted.value(),
                                                   options_.canon, 1);
                slot.built = true;
                if (store != nullptr) {
                    if (auto written = store->store(slot.key, slot.index);
                        written.ok()) {
                        slot.write_bytes = written.value();
                    }
                }
            }
        });

    // Merge in spec order, as serial one-at-a-time builds would have: a
    // repeated recipe loads the entry its first spec wrote (or copies
    // that index when there is no store entry to load).
    for (std::size_t i = 0; i < specs.size(); ++i) {
        QuerySlot &slot = slots[i];
        if (first[i] != i) {
            if (queries[first[i]].qv < 0) {
                continue;  // its recipe was never built
            }
            if (store != nullptr) {
                slot.key = slots[first[i]].key;
                probe_query(*store, slot);
            }
            if (!slot.hit) {
                slot.index = queries[first[i]].index;
            }
        } else if (!slot.hit && !slot.built) {
            continue;  // cancelled before its job ran
        }
        if (store != nullptr) {
            fold_load(health_, slot.load_seconds, slot.load_stats);
            if (slot.hit) {
                ++health_.query_cache_hits;
                c_query_cache_hits.add();
            } else {
                ++health_.query_cache_misses;
                c_query_cache_misses.add();
            }
        }
        if (slot.write_bytes != 0) {
            health_.cache_write_bytes += slot.write_bytes;
            c_cache_write_bytes.add(slot.write_bytes);
        }
        const QuerySpec &spec = specs[i];
        Query &query = queries[i];
        query.label = spec.label;
        query.package = spec.package;
        query.procedure = spec.procedure;
        query.version = spec.version;
        query.index = std::move(slot.index);
        query.qv = query.index.find_by_name(spec.procedure);
        FIRMUP_ASSERT(query.qv >= 0,
                      "query procedure missing: " + spec.procedure);
    }
    health_.query_seconds += seconds_since(start);
    health_.query_cpu_seconds +=
        static_cast<double>(trace::process_cpu_ns() - cpu_start) * 1e-9;
    return queries;
}

sim::IndexCacheStore *
Driver::cache_store()
{
    if (!store_opened_) {
        store_opened_ = true;
        if (!options_.index_cache_dir.empty()) {
            store_ = std::make_unique<sim::IndexCacheStore>(
                options_.index_cache_dir);
        }
    }
    return store_.get();
}

void
Driver::note_healthy(std::uint64_t key)
{
    if (health_counted_.insert(key).second) {
        ++health_.executables_seen;
        ++health_.lifted_ok;
    }
}

void
Driver::quarantine(const loader::Executable &exe, std::uint64_t key,
                   ErrorCode code, const std::string &message)
{
    if (health_counted_.insert(key).second) {
        ++health_.executables_seen;
    }
    quarantined_.insert(key);
    health_.note_quarantine(exe.name, code, message);
    // Journal the quarantine so a resume re-skips this executable —
    // reproducing the same ErrorCode histogram entry — without
    // re-lifting the poisoned bytes.
    JournalEntry entry;
    entry.content_key = key;
    entry.quarantined = true;
    entry.code = code;
    entry.exe_name = exe.name;
    entry.message = message;
    journal_append({&entry, 1});
}

struct Driver::IndexSlot
{
    bool attempted = false;   ///< false = skipped by cancellation
    bool from_cache = false;  ///< index loaded, lift skipped
    bool cache_miss = false;  ///< store consulted and missed
    ErrorCode code = ErrorCode::Unknown;
    std::string message;
    /** The index; empty when the lift failed (code, message). */
    std::optional<sim::ExecutableIndex> index;
    sim::IndexCacheStore::LoadStats load_stats;
    std::uint64_t write_bytes = 0;
    double load_seconds = 0.0;
};

/**
 * The front end's claims for one hunt (open_hunt): the hunt's query
 * fingerprints and, per content key, the store load of the first
 * prefetch() that claimed it. `hit` is set once that load found the
 * index; a miss keeps its load for index_many.
 */
struct Driver::Claims
{
    struct Claim
    {
        std::atomic<bool> hit{false};
        IndexSlot slot;
    };

    bool confirm = true;
    std::vector<std::uint64_t> fps;
    std::mutex mutex;
    std::unordered_map<std::uint64_t, Claim> map;
};

Driver::~Driver() = default;

Driver::IndexSlot
Driver::load_slot(std::uint64_t key, sim::IndexCacheStore &store) const
{
    // Any load failure (absent, corrupt, stale) is a miss.
    IndexSlot slot;
    const trace::TraceSpan span("store_load");
    const auto load_start = std::chrono::steady_clock::now();
    auto loaded = store.load(key, options_.mmap_index, &slot.load_stats);
    slot.load_seconds = seconds_since(load_start);
    slot.from_cache = loaded.ok();
    slot.cache_miss = !slot.from_cache;
    if (slot.from_cache) {
        slot.index = std::move(loaded).take();
    }
    return slot;
}

Driver::IndexSlot
Driver::load_or_lift(const loader::Executable &exe, std::uint64_t key,
                     sim::IndexCacheStore *store, unsigned threads,
                     IndexSlot slot)
{
    // Warm path: a persisted index skips the whole lift + canonicalize
    // + pack phase; a miss re-lifts.
    if (store != nullptr && !slot.cache_miss) {
        slot = load_slot(key, *store);
    }
    slot.attempted = true;
    if (slot.from_cache) {
        return slot;
    }
    auto lifted = lift_untrusted(exe);
    if (!lifted.ok()) {
        slot.code = lifted.error_code();
        slot.message = lifted.error_message();
        return slot;
    }
    slot.index =
        sim::index_executable(lifted.value(), options_.canon, threads);
    if (store != nullptr) {
        if (auto written = store->store(key, *slot.index); written.ok()) {
            slot.write_bytes = written.value();
        }
    }
    return slot;
}

const sim::ExecutableIndex *
Driver::merge_slot(const loader::Executable &exe, std::uint64_t key,
                   IndexSlot &slot)
{
    if (slot.from_cache || slot.cache_miss) {
        fold_load(health_, slot.load_seconds, slot.load_stats);
    }
    if (slot.from_cache) {
        ++health_.cache_hits;
        c_cache_hits.add();
    } else if (slot.cache_miss) {
        ++health_.cache_misses;
        c_cache_misses.add();
    }
    if (slot.write_bytes != 0) {
        health_.cache_write_bytes += slot.write_bytes;
        c_cache_write_bytes.add(slot.write_bytes);
    }
    if (!slot.index) {
        quarantine(exe, key, slot.code, slot.message);
        return nullptr;
    }
    note_healthy(key);
    return &index_cache_.emplace(key, std::move(*slot.index))
                .first->second;
}

const sim::ExecutableIndex *
Driver::cached_index(std::uint64_t key) const
{
    const auto it = index_cache_.find(key);
    return it != index_cache_.end() ? &it->second : nullptr;
}

const sim::ExecutableIndex *
Driver::index_target(const loader::Executable &exe)
{
    const std::uint64_t key = content_key(exe);
    if (const sim::ExecutableIndex *index = cached_index(key)) {
        return index;
    }
    if (quarantined_.contains(key)) {
        return nullptr;
    }
    IndexSlot slot = load_or_lift(exe, key, cache_store(),
                                  resolve_worker_threads(0), {});
    return merge_slot(exe, key, slot);
}

const baseline::GraphIndex *
Driver::graph_target(const loader::Executable &exe)
{
    const std::uint64_t key = content_key(exe);
    auto it = graph_cache_.find(key);
    if (it != graph_cache_.end()) {
        return &it->second;
    }
    if (quarantined_.contains(key)) {
        return nullptr;
    }
    auto lifted = lift_untrusted(exe);
    if (!lifted.ok()) {
        quarantine(exe, key, lifted.error_code(), lifted.error_message());
        return nullptr;
    }
    note_healthy(key);
    return &graph_cache_.emplace(key, baseline::graph_index(lifted.value()))
                .first->second;
}

std::vector<CorpusTarget>
corpus_targets(const firmware::Corpus &corpus)
{
    std::vector<CorpusTarget> targets;
    for (std::size_t i = 0; i < corpus.images.size(); ++i) {
        for (const loader::Executable &exe :
             corpus.images[i].executables) {
            targets.push_back({&exe, static_cast<int>(i)});
        }
    }
    return targets;
}

std::size_t
Driver::preindex(const firmware::Corpus &corpus, unsigned threads)
{
    const std::vector<CorpusTarget> targets = corpus_targets(corpus);
    std::vector<std::size_t> all(targets.size());
    std::iota(all.begin(), all.end(), 0);
    return index_many(targets, target_keys(targets, threads), all, threads,
                      {});
}

std::size_t
Driver::index_many(const std::vector<CorpusTarget> &targets,
                   const std::vector<std::uint64_t> &keys,
                   const std::vector<std::size_t> &pending,
                   unsigned threads, const Release &release)
{
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t cpu_start = trace::process_cpu_ns();
    // Distinct executables neither cached nor quarantined, each at its
    // first occurrence.
    std::vector<std::size_t> work;
    std::unordered_set<std::uint64_t> seen;
    for (const std::size_t t : pending) {
        if (seen.insert(keys[t]).second && !index_cache_.contains(keys[t]) &&
            !quarantined_.contains(keys[t])) {
            work.push_back(t);
        }
    }
    // load_or_lift in parallel, merge at the end: only the merge loop
    // (single-threaded) touches caches, quarantine and health. Workers
    // may touch the persistent store: loads read distinct files, write-
    // backs publish distinct content-keyed entries via atomic rename.
    // Each worker indexes its own executable serially (the parallelism
    // is across executables here), starts from the store miss the front
    // end claimed for its key, if any, and releases the executable's
    // bytes once it is lifted.
    sim::IndexCacheStore *const store = cache_store();
    const CancelToken *const cancel = options_.cancel;
    std::vector<IndexSlot> slots(work.size());
    parallel_for(
        resolve_worker_threads(threads), work.size(), [&](std::size_t i) {
            // Cancellation point: an unattempted slot leaves no trace —
            // no health accounting, no quarantine — so a resume retries
            // it from scratch exactly like a never-seen target.
            if (cancel != nullptr && cancel->requested()) {
                return;
            }
            const std::size_t t = work[i];
            IndexSlot claimed;
            if (claims_ != nullptr) {
                const auto it = claims_->map.find(keys[t]);
                if (it != claims_->map.end()) {
                    claimed = std::move(it->second.slot);
                }
            }
            slots[i] = load_or_lift(*targets[t].exe, keys[t], store, 1,
                                    std::move(claimed));
            if (release) {
                release(t);
            }
        });
    std::size_t indexed = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
        if (slots[i].attempted &&
            merge_slot(*targets[work[i]].exe, keys[work[i]], slots[i]) !=
                nullptr) {
            ++indexed;
        }
    }
    health_.index_seconds += seconds_since(start);
    health_.index_cpu_seconds +=
        static_cast<double>(trace::process_cpu_ns() - cpu_start) * 1e-9;
    return indexed;
}

SearchOutcome
Driver::match_outcome(const Query &query,
                      const sim::ExecutableIndex &target) const
{
    int runner_up = 0;
    return play(query, target, runner_up);
}

SearchOutcome
Driver::play(const Query &query, const sim::ExecutableIndex &target,
             int &runner_up) const
{
    SearchOutcome outcome;
    if (target.procs.empty()) {
        return outcome;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t cpu_start = trace::thread_cpu_ns();
    if (options_.use_game) {
        const game::GameResult result =
            game::match_query(query.index, query.qv, target,
                              options_.game);
        outcome.steps = result.steps;
        if (result.ending == game::GameEnding::Unresolved) {
            outcome.unresolved = true;
        }
        outcome.cancelled = result.cancelled;
        outcome.deadline_expired = result.deadline_expired;
        if (result.matched) {
            outcome.detected = true;
            outcome.matched_entry = result.target_entry;
            outcome.sim = result.sim;
            runner_up = result.runner_up_sim;
        }
        outcome.game_seconds = seconds_since(start);
        outcome.game_cpu_seconds = cpu_seconds_since(cpu_start);
        return outcome;
    }
    // Ablation: procedure-centric top-1 (no executable context).
    const int top = baseline::gitz_top1(query.index, query.qv, target,
                                        nullptr);
    if (top >= 0) {
        const auto &proc = target.procs[static_cast<std::size_t>(top)];
        outcome.steps = 1;
        outcome.detected = true;
        outcome.matched_entry = proc.entry;
        outcome.sim = sim::sim_score(
            query.index.procs[static_cast<std::size_t>(query.qv)].strands,
            proc.strands);
    }
    outcome.game_seconds = seconds_since(start);
    outcome.game_cpu_seconds = cpu_seconds_since(cpu_start);
    return outcome;
}

void
Driver::note_outcome(const SearchOutcome &outcome)
{
    ++health_.games_played;
    c_scan_outcomes.add();
    if (outcome.unresolved) {
        ++health_.games_unresolved;
        health_.note_error(ErrorCode::BudgetExhausted);
    }
    if (outcome.deadline_expired) {
        ++health_.watchdog_expired;
        c_watchdog_expired.add();
    }
    if (outcome.retries > 0) {
        health_.retries += static_cast<std::size_t>(outcome.retries);
        c_retries.add(static_cast<std::uint64_t>(outcome.retries));
    }
    health_.game_seconds += outcome.game_seconds;
    health_.game_cpu_seconds += outcome.game_cpu_seconds;
    health_.confirm_seconds += outcome.confirm_seconds;
    health_.confirm_cpu_seconds += outcome.confirm_cpu_seconds;
}

SearchOutcome
Driver::match(const Query &query, const sim::ExecutableIndex &target)
{
    const SearchOutcome outcome = match_outcome(query, target);
    note_outcome(outcome);
    return outcome;
}

SearchOutcome
Driver::search_outcome(const Query &query,
                       const sim::ExecutableIndex &target) const
{
    int runner_up = 0;
    SearchOutcome outcome = play(query, target, runner_up);
    if (!outcome.detected) {
        return outcome;
    }
    const auto confirm_start = std::chrono::steady_clock::now();
    const std::uint64_t confirm_cpu_start = trace::thread_cpu_ns();
    const trace::TraceSpan span("confirm");
    const auto q_set =
        query.index.procs[static_cast<std::size_t>(query.qv)].strands;
    const auto q_strands = static_cast<double>(q_set.size());
    const int ratio_threshold = std::max(
        options_.min_confirm_sim,
        static_cast<int>(options_.min_confirm_ratio * q_strands));
    bool accept = outcome.sim >= ratio_threshold;
    if (!accept &&
        outcome.sim >= std::max(options_.min_confirm_sim,
                                static_cast<int>(
                                    options_.min_margin_ratio *
                                    q_strands))) {
        // Dominance fallback: compare against the runner-up, the best
        // Sim any other procedure of the target shares with the query.
        // The game read it off its Sim table; the top-1 ablation counts
        // it over the posting lists (procedures sharing nothing score 0
        // either way).
        if (!options_.use_game) {
            for (const sim::Candidate &c :
                 sim::shared_candidates(target, q_set)) {
                if (target.procs[static_cast<std::size_t>(c.index)]
                        .entry != outcome.matched_entry) {
                    runner_up = std::max(runner_up, c.sim);
                }
            }
        }
        accept = static_cast<double>(outcome.sim) >=
                 options_.margin_factor * static_cast<double>(runner_up);
    }
    if (!accept) {
        outcome.detected = false;
        outcome.matched_entry = 0;
        outcome.sim = 0;
    }
    outcome.confirm_seconds = seconds_since(confirm_start);
    outcome.confirm_cpu_seconds = cpu_seconds_since(confirm_cpu_start);
    return outcome;
}

SearchOutcome
Driver::search(const Query &query, const sim::ExecutableIndex &target)
{
    const SearchOutcome outcome = search_outcome(query, target);
    note_outcome(outcome);
    return outcome;
}

std::vector<isa::Arch>
Driver::query_isas(const std::vector<CorpusTarget> &targets,
                   const std::vector<std::uint64_t> &keys,
                   const std::vector<std::size_t> &pending,
                   unsigned threads, const Release &release)
{
    index_many(targets, keys, pending, threads, release);
    // After indexing, the index map holds every pending target that
    // index_many did not quarantine or skip on cancellation, so this
    // finds exactly the ISAs a serial scan loop would query.
    std::vector<isa::Arch> isas;
    for (const std::size_t t : pending) {
        const sim::ExecutableIndex *index = cached_index(keys[t]);
        if (index != nullptr &&
            std::ranges::find(isas, index->arch) == isas.end()) {
            isas.push_back(index->arch);
        }
    }
    return isas;
}

std::map<isa::Arch, Query>
Driver::build_queries(const firmware::CveRecord &cve,
                      const std::vector<CorpusTarget> &targets,
                      unsigned threads)
{
    std::vector<std::size_t> all(targets.size());
    std::iota(all.begin(), all.end(), 0);
    std::vector<QuerySpec> specs;
    for (const isa::Arch arch :
         query_isas(targets, target_keys(targets, threads), all, threads,
                    {})) {
        specs.push_back(cve_query_spec(cve, arch));
    }
    std::vector<Query> built =
        build_query_set(specs, threads, options_.cancel);
    std::map<isa::Arch, Query> queries;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (built[i].qv >= 0) {
            queries.emplace(specs[i].arch, std::move(built[i]));
        }
    }
    return queries;
}

std::uint64_t
scan_fingerprint(const SearchOptions &options, const std::string &label,
                 bool confirm)
{
    std::uint64_t fp = fnv1a64("fwsj-scan:" + label);
    fp = hash_combine(fp, confirm ? 1 : 2);
    fp = hash_combine(
        fp, static_cast<std::uint64_t>(options.min_confirm_sim));
    fp = hash_combine(fp, knob_bits(options.min_confirm_ratio));
    fp = hash_combine(fp, knob_bits(options.min_margin_ratio));
    fp = hash_combine(fp, knob_bits(options.margin_factor));
    fp = hash_combine(fp, options.use_game ? 1 : 2);
    fp = hash_combine(
        fp, static_cast<std::uint64_t>(options.game.max_steps));
    fp = hash_combine(
        fp, static_cast<std::uint64_t>(options.game.max_matches));
    fp = hash_combine(
        fp, static_cast<std::uint64_t>(options.game.min_sim));
    // Wall-clock knobs (game.max_seconds, the watchdog budget) are
    // deliberately excluded: they bound how long a scan may take, not
    // which answer a target deterministically produces.
    return fp != 0 ? fp : 1;  // 0 means "skip the check" in parse()
}

void
Driver::open_journal(const std::string &label, bool confirm)
{
    if (journal_opened_ || options_.journal_path.empty()) {
        return;
    }
    journal_opened_ = true;
    const std::uint64_t fp = scan_fingerprint(options_, label, confirm);
    if (options_.resume) {
        JournalLoad load;
        auto opened =
            ScanJournal::open_resume(options_.journal_path, fp, &load);
        if (!opened.ok()) {
            if (opened.error_code() == ErrorCode::StaleFormat &&
                opened.error_message() == kJournalFingerprintMismatch) {
                // A structurally sound journal for a *different* scan
                // configuration (e.g. another CVE list): silently
                // rescanning under the new knobs while the old journal
                // sits on disk would mix findings from two
                // configurations on the next resume. Refuse the scan;
                // run_batch returns empty and callers surface the error.
                health_.resume_rejected = true;
                health_.resume_reject_reason = opened.error_message();
                health_.note_error(opened.error_code());
                return;
            }
            // Degrade to a journal-less scan: a corrupt, stale-layout
            // or unreadable journal costs resume coverage, never the
            // scan. The error class lands in the histogram so it is
            // visible.
            health_.note_error(opened.error_code());
            return;
        }
        journal_ = std::move(opened).take();
        health_.journal_truncated_bytes += load.truncated_bytes;
        for (JournalEntry &entry : load.entries) {
            // Append order: the last record for a (content key, query
            // fingerprint) pair wins; quarantines live under qfp 0.
            const auto key =
                std::make_pair(entry.content_key, entry.query_fp);
            journal_replay_.insert_or_assign(key, std::move(entry));
        }
        return;
    }
    auto created = ScanJournal::create(options_.journal_path, fp);
    if (!created.ok()) {
        health_.note_error(created.error_code());
        return;
    }
    journal_ = std::move(created).take();
}

void
Driver::journal_append(std::span<const JournalEntry> entries)
{
    if (!journal_.is_open() || entries.empty()) {
        return;
    }
    journal_.append(entries);
    if (options_.cancel_after_appends > 0 &&
        options_.cancel != nullptr &&
        journal_.appended() >= options_.cancel_after_appends) {
        options_.cancel->request();
    }
}

std::string
cve_scan_label(const firmware::CveRecord &cve)
{
    return strprintf("cve:%s:%s:%s:%s", cve.cve_id.c_str(),
                     cve.package.c_str(), cve.procedure.c_str(),
                     latest_vulnerable_version(cve).c_str());
}

std::string
batch_scan_label(const std::vector<firmware::CveRecord> &cves)
{
    if (cves.size() == 1) {
        return cve_scan_label(cves.front());
    }
    std::string label = "batch";
    for (const firmware::CveRecord &cve : cves) {
        label += ":" + cve_scan_label(cve);
    }
    return label;
}

namespace {

/** Scan label of a prebuilt per-ISA query set. */
std::string
query_set_label(const std::map<isa::Arch, Query> &queries)
{
    std::string label = "queries";
    for (const auto &[arch, query] : queries) {
        label += strprintf(":%d/%s/%s/%s/%s", static_cast<int>(arch),
                           query.label.c_str(), query.package.c_str(),
                           query.procedure.c_str(),
                           query.version.c_str());
    }
    return label;
}

}  // namespace

std::uint64_t
Driver::query_fingerprint(const std::string &label)
{
    const std::uint64_t fp = fnv1a64("fwsj-query:" + label);
    return fp != 0 ? fp : 1;  // 0 is the quarantine sentinel
}

std::vector<CorpusOutcome>
Driver::search_corpus(const firmware::CveRecord &cve,
                      const std::vector<CorpusTarget> &targets,
                      unsigned threads, bool confirm)
{
    std::vector<std::vector<CorpusOutcome>> rows =
        search_corpus_batch({cve}, targets, threads, confirm);
    return std::move(rows.front());
}

std::vector<CorpusOutcome>
Driver::search_corpus(const std::map<isa::Arch, Query> &queries,
                      const std::vector<CorpusTarget> &targets,
                      unsigned threads, bool confirm)
{
    // Direct callers (no CVE) get a journal identity from the query
    // set; when a CVE overload already opened the journal, this is a
    // no-op.
    const std::string label = query_set_label(queries);
    open_journal(label, confirm);
    std::vector<std::vector<CorpusOutcome>> rows =
        run_batch({&queries}, {query_fingerprint(label)}, targets,
                  target_keys(targets, threads), threads, confirm, {});
    return std::move(rows.front());
}

std::vector<std::vector<CorpusOutcome>>
Driver::search_corpus_batch(const std::vector<firmware::CveRecord> &cves,
                            const std::vector<CorpusTarget> &targets,
                            unsigned threads, bool confirm)
{
    open_hunt(cves, confirm);
    const std::vector<std::uint64_t> keys = target_keys(targets, threads);
    return hunt(cves, targets, keys, threads, confirm, {});
}

std::vector<std::vector<CorpusOutcome>>
Driver::search_corpus_batch(const std::vector<firmware::CveRecord> &cves,
                            const std::vector<CorpusTarget> &targets,
                            const std::vector<std::uint64_t> &keys,
                            unsigned threads, const Release &release)
{
    FIRMUP_ASSERT(claims_ != nullptr,
                  "a hunt over keyed targets starts with open_hunt");
    return hunt(cves, targets, keys, threads, claims_->confirm, release);
}

void
Driver::open_hunt(const std::vector<firmware::CveRecord> &cves,
                  bool confirm)
{
    // The journal identity must exist before any work happens, so that
    // the front end can skip every key the journal already answers.
    open_journal(batch_scan_label(cves), confirm);
    cache_store();  // opened here: the front end's jobs share it
    claims_ = std::make_unique<Claims>();
    claims_->confirm = confirm;
    for (const firmware::CveRecord &cve : cves) {
        claims_->fps.push_back(query_fingerprint(cve_scan_label(cve)));
    }
}

bool
Driver::hunt_needs(std::uint64_t key) const
{
    if (health_.resume_rejected || journal_replay_.contains({key, 0})) {
        return false;
    }
    return std::ranges::any_of(claims_->fps, [&](std::uint64_t fp) {
        return !journal_replay_.contains({key, fp});
    });
}

bool
Driver::prefetch(std::uint64_t key)
{
    FIRMUP_ASSERT(claims_ != nullptr, "prefetch outside a hunt");
    // The index map, quarantine set and journal replay do not change
    // while the front end runs, so reading them here is safe.
    if (!hunt_needs(key) || index_cache_.contains(key) ||
        quarantined_.contains(key)) {
        return true;
    }
    Claims::Claim *claim = nullptr;
    {
        const std::lock_guard<std::mutex> lock(claims_->mutex);
        const auto [it, fresh] = claims_->map.try_emplace(key);
        if (!fresh) {
            return it->second.hit.load(std::memory_order_acquire);
        }
        claim = &it->second;
    }
    if (store_ == nullptr) {
        return false;
    }
    claim->slot = load_slot(key, *store_);
    claim->hit.store(claim->slot.from_cache, std::memory_order_release);
    return claim->slot.from_cache;
}

std::vector<std::uint64_t>
Driver::target_keys(const std::vector<CorpusTarget> &targets,
                    unsigned threads)
{
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t cpu_start = trace::process_cpu_ns();
    std::vector<std::uint64_t> keys(targets.size());
    const unsigned workers = resolve_worker_threads(threads);
    parallel_for(workers, targets.size(),
                 chunk_for(targets.size(), workers),
                 [&](std::size_t begin, std::size_t end) {
                     {
                         const trace::TraceSpan span("key");
                         for (std::size_t t = begin; t < end; ++t) {
                             keys[t] = content_key(*targets[t].exe);
                         }
                     }
                     for (std::size_t t = begin;
                          t < end && claims_ != nullptr; ++t) {
                         prefetch(keys[t]);
                     }
                 });
    health_.load_seconds += seconds_since(start);
    health_.load_cpu_seconds +=
        static_cast<double>(trace::process_cpu_ns() - cpu_start) * 1e-9;
    return keys;
}

std::vector<std::vector<CorpusOutcome>>
Driver::hunt(const std::vector<firmware::CveRecord> &cves,
             const std::vector<CorpusTarget> &targets,
             const std::vector<std::uint64_t> &keys, unsigned threads,
             bool confirm, const Release &release)
{
    // Merge the front end's claims in target order: a store hit joins
    // the index map at its key's first occurrence, a miss stays claimed
    // for index_many. Only a first occurrence that is still to be
    // lifted keeps its bytes.
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t t = 0; t < targets.size(); ++t) {
        bool lift = false;
        if (seen.insert(keys[t]).second) {
            const auto it = claims_->map.find(keys[t]);
            if (it != claims_->map.end() && it->second.slot.from_cache) {
                merge_slot(*targets[t].exe, keys[t], it->second.slot);
            }
            lift = hunt_needs(keys[t]) && !index_cache_.contains(keys[t]) &&
                   !quarantined_.contains(keys[t]);
        }
        if (!lift && release) {
            release(t);
        }
    }

    // Per-CVE query ISAs over that CVE's pending targets — the same
    // carve-out a single-CVE scan performs, so replayed pairs and
    // quarantined keys are never lifted again. The first CVE's
    // query_isas indexes the union of pending targets; the rest are
    // pure cache lookups. Every (CVE, ISA) query is then built in one
    // query phase. A refused resume (journal fingerprint mismatch)
    // builds no query: run_batch returns the empty grid, and lifting
    // for a scan that is not going to run would be wasted.
    const std::vector<std::uint64_t> query_fps = claims_->fps;
    std::vector<QuerySpec> specs;
    std::vector<std::size_t> spec_cve;
    for (std::size_t q = 0; q < cves.size() && !health_.resume_rejected;
         ++q) {
        std::vector<std::size_t> pending;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            if (!journal_replay_.contains({keys[t], 0}) &&
                !journal_replay_.contains({keys[t], query_fps[q]})) {
                pending.push_back(t);
            }
        }
        for (const isa::Arch arch :
             query_isas(targets, keys, pending, threads, release)) {
            specs.push_back(cve_query_spec(cves[q], arch));
            spec_cve.push_back(q);
        }
    }
    std::vector<Query> built =
        build_query_set(specs, threads, options_.cancel);
    std::vector<std::map<isa::Arch, Query>> query_sets(cves.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (built[i].qv >= 0) {
            query_sets[spec_cve[i]].emplace(specs[i].arch,
                                            std::move(built[i]));
        }
    }
    std::vector<const std::map<isa::Arch, Query> *> set_ptrs;
    set_ptrs.reserve(cves.size());
    for (const std::map<isa::Arch, Query> &set : query_sets) {
        set_ptrs.push_back(&set);
    }
    std::vector<std::vector<CorpusOutcome>> out = run_batch(
        set_ptrs, query_fps, targets, keys, threads, confirm, release);
    claims_.reset();
    return out;
}

std::vector<std::vector<CorpusOutcome>>
Driver::run_batch(
    const std::vector<const std::map<isa::Arch, Query> *> &query_sets,
    const std::vector<std::uint64_t> &query_fps,
    const std::vector<CorpusTarget> &targets,
    const std::vector<std::uint64_t> &keys, unsigned threads,
    bool confirm, const Release &release)
{
    const std::size_t nq = query_sets.size();
    const std::size_t nt = targets.size();
    const CancelToken *const cancel = options_.cancel;

    std::vector<std::vector<CorpusOutcome>> out(nq);
    std::vector<std::vector<char>> replayed(nq);
    for (std::size_t q = 0; q < nq; ++q) {
        out[q].resize(nt);
        replayed[q].assign(nt, 0);
        for (std::size_t t = 0; t < nt; ++t) {
            out[q][t].target = targets[t];
        }
    }

    if (health_.resume_rejected) {
        // open_journal refused the resume (fingerprint mismatch): no
        // lifting, no games — return the empty grid so callers surface
        // the configuration error without half a scan behind it.
        return out;
    }

    // Replay pass: serve journaled (query, target) pairs before any
    // stage runs, in (query, target) order, with the discrete health
    // accounting a fresh scan of them would have produced — the
    // determinism bar is that a resumed hunt's findings and discrete
    // health match the uninterrupted one. Quarantines (qfp 0) serve
    // every query of the batch.
    for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t t = 0; t < nt; ++t) {
            const auto quarantine = journal_replay_.find({keys[t], 0});
            if (quarantine != journal_replay_.end()) {
                const JournalEntry &entry = quarantine->second;
                replayed[q][t] = 1;
                if (quarantined_.insert(keys[t]).second) {
                    if (health_counted_.insert(keys[t]).second) {
                        ++health_.executables_seen;
                    }
                    health_.note_quarantine(entry.exe_name, entry.code,
                                            entry.message);
                }
                continue;
            }
            const auto it =
                journal_replay_.find({keys[t], query_fps[q]});
            if (it == journal_replay_.end()) {
                continue;
            }
            replayed[q][t] = 1;
            note_healthy(keys[t]);
            out[q][t].indexed = it->second.indexed;
            out[q][t].outcome = it->second.outcome;
        }
    }

    // A target is still needed when any query's pair was not replayed;
    // fully-served targets must not be lifted (or even store-loaded).
    std::vector<char> needed(nt, 0);
    std::vector<std::size_t> pending;
    for (std::size_t t = 0; t < nt; ++t) {
        for (std::size_t q = 0; q < nq; ++q) {
            if (!replayed[q][t]) {
                needed[t] = 1;
                pending.push_back(t);
                break;
            }
        }
    }
    // index_many dedupes by content key and drops cached and
    // quarantined keys (replayed quarantines entered quarantined_
    // above), so each distinct pending executable indexes exactly once.
    index_many(targets, keys, pending, threads, release);

    // Resolve targets against the now-complete index map.
    std::vector<const sim::ExecutableIndex *> resolved(nt, nullptr);
    std::vector<char> resolve_cancelled(nt, 0);
    for (std::size_t t = 0; t < nt; ++t) {
        if (!needed[t]) {
            continue;
        }
        // Cancellation point: a target index_many skipped after
        // cancellation has no index, so mark the remainder cancelled.
        if (cancel != nullptr && cancel->requested()) {
            resolve_cancelled[t] = 1;
            for (std::size_t q = 0; q < nq; ++q) {
                if (!replayed[q][t]) {
                    out[q][t].outcome.cancelled = true;
                }
            }
            continue;
        }
        resolved[t] = cached_index(keys[t]);
        for (std::size_t q = 0; q < nq; ++q) {
            if (!replayed[q][t]) {
                out[q][t].indexed = resolved[t] != nullptr;
            }
        }
    }

    // Per-target watchdog + shutdown polling for the games; options_
    // stays frozen during the fan-out (workers read it concurrently)
    // and is restored afterwards.
    const game::GameOptions saved_game = options_.game;
    options_.game.cancel = cancel;
    if (options_.target_budget_seconds > 0.0 &&
        (options_.game.max_seconds <= 0.0 ||
         options_.target_budget_seconds < options_.game.max_seconds)) {
        options_.game.max_seconds = options_.target_budget_seconds;
    }

    // Fan the outstanding games out over the (query, target) grid in
    // contiguous chunks, target-major (k = t * nq + q): a chunk plays
    // every query against one target back-to-back while its index is
    // hot, and free workers take the chunks in grid order, so targets
    // are touched roughly in order. Workers read the frozen caches and
    // write disjoint slots; the first worker exception propagates out
    // of parallel_for. play(k) plays pair k and returns its journal
    // record when the pair decided an answer.
    const auto play = [&](std::size_t k) -> std::optional<JournalEntry> {
        const std::size_t t = k / nq;
        const std::size_t q = k % nq;
        if (replayed[q][t] || resolve_cancelled[t]) {
            return std::nullopt;  // served from the journal / cancelled
        }
        const sim::ExecutableIndex *target = resolved[t];
        if (target == nullptr) {
            return std::nullopt;  // quarantined
        }
        // Cancellation point: drain, don't start, once shutdown is
        // requested; in-flight games poll the token at their deadline
        // sample points.
        if (cancel != nullptr && cancel->requested()) {
            out[q][t].outcome.cancelled = true;
            return std::nullopt;
        }
        JournalEntry entry;
        entry.content_key = keys[t];
        entry.query_fp = query_fps[q];
        const std::map<isa::Arch, Query> &queries = *query_sets[q];
        const auto qit = queries.find(target->arch);
        if (qit == queries.end()) {
            out[q][t].indexed = false;  // no query for this ISA
            return entry;
        }
        const trace::TraceSpan span("search_target", targets[t].exe->name);
        SearchOutcome outcome = confirm
                                    ? search_outcome(qit->second, *target)
                                    : match_outcome(qit->second, *target);
        // Watchdog retry: deadline expiry is the one transient game
        // failure (wall-clock BudgetExhausted depends on machine load,
        // not on the input); redo with backoff while the retry budget
        // lasts. Everything else is deterministic and would fail
        // identically.
        int retries = 0;
        double backoff = kRetryBackoffSeconds;
        while (outcome.deadline_expired && !outcome.cancelled &&
               retries < kMaxTargetRetries &&
               !(cancel != nullptr && cancel->requested())) {
            if (backoff > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
            }
            backoff *= kRetryBackoffFactor;
            ++retries;
            outcome = confirm ? search_outcome(qit->second, *target)
                              : match_outcome(qit->second, *target);
        }
        outcome.retries = retries;
        out[q][t].outcome = outcome;
        if (outcome.cancelled) {
            // Cancelled pairs are never journaled (no answer to replay
            // — the resume redoes them).
            return std::nullopt;
        }
        entry.indexed = true;
        entry.outcome = outcome;
        return entry;
    };
    // Decided pairs gather in one shared group: the worker whose record
    // fills it to kJournalGroup commits it with one write and one
    // fsync, and the remainder is committed once the grid is done —
    // also when it drains on cancel or a game throws, so a SIGTERM
    // keeps every finished pair. Groups do not shrink with the chunks,
    // so a small hunt commits about once. The cancel_after_appends
    // seam also closes the group at its record, so that cut lands
    // mid-grid however small the hunt.
    const bool journaled = journal_.is_open();
    std::mutex group_mutex;
    std::vector<JournalEntry> group;
    std::size_t recorded = journal_.appended();
    const auto journal_record = [&](JournalEntry entry) {
        std::vector<JournalEntry> full;
        {
            const std::lock_guard<std::mutex> lock(group_mutex);
            group.push_back(std::move(entry));
            ++recorded;
            if (group.size() == kJournalGroup ||
                recorded == options_.cancel_after_appends) {
                full.swap(group);
            }
        }
        journal_append(full);
    };
    if (trace::level() != trace::Level::Off) {
        std::uint64_t held = 0;
        for (const CorpusTarget &target : targets) {
            held += target.exe->text.size() + target.exe->data.size();
        }
        std::uint64_t index_bytes = 0;
        for (const auto &[key, index] : index_cache_) {
            index_bytes += index.blob.size();
        }
        g_text_bytes_held.set(static_cast<std::int64_t>(held));
        g_index_bytes.set(static_cast<std::int64_t>(index_bytes));
    }
    const auto match_start = std::chrono::steady_clock::now();
    const unsigned workers = resolve_worker_threads(threads);
    const std::size_t pairs = nq * nt;
    const std::size_t chunk = chunk_for(pairs, workers);
    c_chunks.add((pairs + chunk - 1) / chunk);
    try {
        parallel_for(workers, pairs, chunk,
                     [&](std::size_t begin, std::size_t end) {
                         for (std::size_t k = begin; k < end; ++k) {
                             std::optional<JournalEntry> record = play(k);
                             if (record && journaled) {
                                 journal_record(std::move(*record));
                             }
                         }
                     });
    } catch (...) {
        journal_append(group);
        throw;
    }
    journal_append(group);
    options_.game = saved_game;
    health_.match_wall_seconds += seconds_since(match_start);

    // Merge the accounting single-threaded, in (query, target) order —
    // the same order N sequential single-query scans would have
    // produced.
    for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t t = 0; t < nt; ++t) {
            const CorpusOutcome &co = out[q][t];
            if (replayed[q][t]) {
                ++health_.resumed_targets;
                c_resumed_targets.add();
                if (co.indexed) {
                    // A replayed pair counts as the game it records, but
                    // its journaled timings are the earlier scan's work.
                    SearchOutcome replay = co.outcome;
                    replay.game_seconds = replay.game_cpu_seconds = 0.0;
                    replay.confirm_seconds = 0.0;
                    replay.confirm_cpu_seconds = 0.0;
                    note_outcome(replay);
                }
                continue;
            }
            if (co.outcome.cancelled) {
                ++health_.targets_cancelled;
                c_cancelled_targets.add();
                continue;
            }
            if (co.indexed) {
                note_outcome(co.outcome);
            }
        }
    }
    if (cancel != nullptr && cancel->requested()) {
        health_.cancelled = true;
    }
    const ScanJournal::CommitTime commits = journal_.take_commit_time();
    health_.journal_seconds += commits.seconds;
    health_.journal_cpu_seconds += commits.cpu_seconds;
    return out;
}

}  // namespace firmup::eval
