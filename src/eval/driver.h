/**
 * @file
 * The FirmUp search driver — the tool facade tying the stack together.
 *
 * A vulnerability search (the paper's problem definition) takes a CVE
 * record, builds the query executable (the latest vulnerable version of
 * the package, compiled with the reference gcc-like toolchain for the
 * target's ISA, exactly like section 5.1), lifts and indexes the target,
 * and runs the back-and-forth game. A detection is accepted when the
 * game produces a consistent match sharing at least `min_confirm_sim`
 * strands.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bindiff_like.h"
#include "baseline/gitz_like.h"
#include "codegen/build.h"
#include "eval/health.h"
#include "eval/journal.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "game/game.h"
#include "sim/index_cache.h"
#include "sim/similarity.h"
#include "support/cancel.h"
#include "support/threadpool.h"

namespace firmup::eval {

/** Search configuration (ablation knobs included). */
struct SearchOptions
{
    int min_confirm_sim = 4;   ///< absolute floor of shared strands
    /**
     * Relative floor: a detection must share at least this fraction of
     * the query procedure's strands. Procedure sizes vary wildly, so an
     * absolute count alone cannot separate true matches from generic-
     * idiom collisions.
     */
    double min_confirm_ratio = 0.5;
    /**
     * Dominance fallback: a lower-overlap match is still accepted when
     * it shares at least `min_margin_ratio` of the query's strands AND
     * dominates the runner-up procedure of the same executable by
     * `margin_factor`. True matches in heavily re-optimized builds have
     * modest absolute overlap but no serious competitor; cross-package
     * noise has many near-equal competitors.
     */
    double min_margin_ratio = 0.18;
    double margin_factor = 2.5;
    bool use_game = true;      ///< false = procedure-centric top-1
    game::GameOptions game;
    strand::CanonOptions canon;  ///< section ranges filled per target
    /**
     * When non-empty, a persistent content-addressed index cache
     * directory (sim::IndexCacheStore): FWIX indexes are loaded from it
     * before lifting and written back after indexing, so the second
     * scan of an immutable corpus skips lift+canon+pack entirely.
     * Corrupt or stale entries degrade to misses.
     */
    std::string index_cache_dir;
    /**
     * Map persistent-store entries (zero-copy open: checksum pass +
     * O(procs) materialization). False is --no-mmap: each entry is read
     * into a heap buffer and opened the same way. Findings are
     * bit-identical either way.
     */
    bool mmap_index = true;
    /**
     * When non-empty, search_corpus keeps an append-only scan journal
     * (eval/journal.h) at this path: each target's outcome is durably
     * recorded in a group commit of up to 64 records, so a crashed or
     * cancelled scan can be resumed without redoing finished targets.
     */
    std::string journal_path;
    /**
     * Resume from an existing journal at journal_path: already-scanned
     * content keys are replayed (outcomes and health deltas merged
     * bit-identically with a fresh scan) and only the remainder is
     * scanned. Without a journal file this degrades to a fresh scan.
     */
    bool resume = false;
    /**
     * Cooperative cancellation token, polled between pipeline stages
     * and at game-deadline sample points. When it fires, in-flight
     * targets drain, every finished pair is committed to the journal,
     * and the scan returns a partial result with health().cancelled
     * set. Not owned.
     */
    CancelToken *cancel = nullptr;
    /**
     * Per-target watchdog: wall-clock budget in seconds for one
     * target's game (tightens game.max_seconds when smaller; 0 keeps
     * the game's own budget). A watchdog-expired game is played again
     * up to twice, after a backoff of 50 ms that doubles per retry (the
     * one retry a scan makes; every other failure is deterministic),
     * and counted in health().watchdog_expired when it still expires.
     */
    double target_budget_seconds = 0.0;
    /**
     * Test seam for deterministic interruption: request cancellation on
     * `cancel` after the journal commit that brings the appended record
     * count to this value or past it (0 = never); the hunt commits its
     * open journal group at that record. The CI interrupt/resume smoke
     * and the kill-mid-scan property test use it to cut a scan at a
     * reproducible point without racing a signal.
     */
    std::size_t cancel_after_appends = 0;
};

/** A prepared query: indexed executable + the vulnerable procedure. */
struct Query
{
    std::string label;          ///< e.g. "CVE-2014-4877"
    std::string package;
    std::string procedure;
    std::string version;
    sim::ExecutableIndex index;
    int qv = -1;                ///< index of the query procedure
};

/**
 * How a query executable is built (section 5.1): the package source at
 * the query version, compiled with the reference toolchain at its
 * default optimization level, all features on, for one ISA.
 */
struct QueryRecipe
{
    lang::PackageSource source;
    codegen::BuildRequest request;
};

/**
 * The recipe of @p package at @p version for @p arch. The query phase
 * compiles it on a recipe-store miss (one MIR per source, shared by
 * every ISA); the BinDiff experiment compiles and lifts it for the
 * query's structural graph.
 */
QueryRecipe query_recipe(const std::string &package,
                         const std::string &version, isa::Arch arch);

// SearchOutcome lives in eval/journal.h: it is the journal's record
// payload, and the journal must not depend on the driver.

/** One corpus executable addressed for a scan. */
struct CorpusTarget
{
    const loader::Executable *exe = nullptr;
    int image_index = -1;  ///< into Corpus::images; -1 = standalone
};

/** Per-target result of a corpus-wide search. */
struct CorpusOutcome
{
    CorpusTarget target;
    /** False when the executable is quarantined (outcome is empty). */
    bool indexed = false;
    SearchOutcome outcome;
};

/** Flatten every executable of @p corpus into scan targets. */
std::vector<CorpusTarget> corpus_targets(const firmware::Corpus &corpus);

/**
 * Content identity of an executable: name + text bytes. Byte-identical
 * executables re-shipped across firmware versions collapse to one key
 * (paper section 5.2 observation) — this is the cache and quarantine key
 * used throughout the driver. A scan keys each target once, in its
 * front end; the `scan.content_keys` counter records every call. Keying
 * a released executable (loader::Executable::release) asserts.
 */
std::uint64_t content_key(const loader::Executable &exe);

/**
 * Journal scan label of one CVE hunt: (cve id, package, procedure,
 * latest vulnerable version) pins the query identity without building
 * it, so a journal can be opened before any lifting happens.
 */
std::string cve_scan_label(const firmware::CveRecord &cve);

/**
 * Journal scan label of a batched hunt — a batch of one keeps exactly
 * the single-CVE label, so a lone hunt journals identically whichever
 * overload started it. This is the label search_corpus_batch binds its
 * journal to.
 */
std::string batch_scan_label(const std::vector<firmware::CveRecord> &cves);

/**
 * Journal identity: binds a journal to one scan label (CVE id or the
 * joined query identities), the confirm/match mode, and every
 * deterministic matching knob of @p options — so a journal can only be
 * resumed into a scan that would have produced the same per-key
 * outcomes. Wall-clock knobs (the watchdog budget) are deliberately
 * excluded. Exposed at namespace scope so the shard-scan coordinator
 * (eval/shard.h) can seed per-shard journals and the persistent
 * scan-state manifest with exactly the fingerprint the workers'
 * drivers will demand on resume.
 */
std::uint64_t scan_fingerprint(const SearchOptions &options,
                               const std::string &label, bool confirm);

/** Drives lifting, indexing and matching with an index cache. */
class Driver
{
  public:
    explicit Driver(SearchOptions options = {});
    ~Driver();

    /**
     * Called with a target's index once a scan no longer needs that
     * target's bytes; see search_corpus_batch over keyed targets.
     */
    using Release = std::function<void(std::size_t target)>;

    const SearchOptions &options() const { return options_; }
    SearchOptions &options() { return options_; }

    /**
     * Build the query for @p cve, targeting @p arch. The query version
     * is the newest version the CVE still affects (section 5.1).
     */
    Query build_query(const firmware::CveRecord &cve, isa::Arch arch);

    /**
     * Build a query for an arbitrary (package, procedure, version): the
     * one-query case of the query phase (build_query_set). With a
     * persistent store configured, the query index is served from (or
     * written back to) the store under its recipe key, so a warm build
     * skips compile + lift + canonicalize; the FWIX round-trip is
     * bit-faithful, so either way yields the same query.
     */
    Query build_query(const std::string &package,
                      const std::string &procedure,
                      const std::string &version, isa::Arch arch);

    /**
     * Lift + index a target executable. Results are cached by content,
     * so byte-identical executables re-shipped across firmware versions
     * are only processed once (paper section 5.2 observation).
     *
     * Untrusted input: returns nullptr when the executable cannot be
     * lifted — the executable is quarantined (recorded in health() with
     * its ErrorCode) and every later call returns nullptr without
     * re-attempting the lift. The scan continues.
     */
    const sim::ExecutableIndex *index_target(
        const loader::Executable &exe);

    /**
     * Structural (BinDiff) index of a target, lifted on demand and
     * cached by content key (only the graph is kept, never the lifted
     * IR); nullptr when the executable is quarantined.
     */
    const baseline::GraphIndex *graph_target(
        const loader::Executable &exe);

    /**
     * Lift + index every executable of @p corpus across @p threads
     * worker threads, seeding the caches (the paper's one-time corpus
     * indexing phase, section 5.1). Subsequent searches are pure
     * lookups. Unliftable executables are quarantined, not fatal.
     * @return number of distinct executables successfully indexed.
     */
    std::size_t preindex(const firmware::Corpus &corpus,
                         unsigned threads);

    /** Run the FirmUp search (game, or top-1 when use_game is off). */
    SearchOutcome search(const Query &query,
                         const sim::ExecutableIndex &target);

    /**
     * Like search(), but without the detection threshold: the outcome is
     * whatever the matcher produced. This is the controlled-experiment
     * protocol (section 5.3), where targets are known to contain the
     * procedure and the question is only *where* it is; the threshold
     * belongs to the wild hunt, where "is the package even in this
     * executable?" must be answered first.
     */
    SearchOutcome match(const Query &query,
                        const sim::ExecutableIndex &target);

    /**
     * Pure variants of search()/match(): no health mutation, safe to
     * call concurrently from worker threads against the (frozen) caches.
     * Feed the result to note_outcome() on the owning thread to keep the
     * health record identical to the serial path.
     */
    SearchOutcome search_outcome(const Query &query,
                                 const sim::ExecutableIndex &target) const;
    SearchOutcome match_outcome(const Query &query,
                                const sim::ExecutableIndex &target) const;

    /** Fold one outcome's budget/timing accounting into health(). */
    void note_outcome(const SearchOutcome &outcome);

    /**
     * Corpus-scale fan-out for one CVE: a batched hunt of size one (see
     * search_corpus_batch — this is exactly search_corpus_batch({cve})
     * with the single result row unwrapped, so health, journal and
     * findings semantics are the batch core's). @p threads 0 means
     * hardware concurrency (FIRMUP_THREADS honored). @p confirm false
     * runs match() semantics instead of search().
     */
    std::vector<CorpusOutcome> search_corpus(
        const firmware::CveRecord &cve,
        const std::vector<CorpusTarget> &targets, unsigned threads = 0,
        bool confirm = true);

    /** As above with prebuilt per-ISA queries (see build_queries). */
    std::vector<CorpusOutcome> search_corpus(
        const std::map<isa::Arch, Query> &queries,
        const std::vector<CorpusTarget> &targets, unsigned threads = 0,
        bool confirm = true);

    /**
     * Batched multi-CVE hunt — the production shape: hunt a whole CVE
     * list across one corpus in a single pass. Each target executable
     * is indexed exactly once (warm FWIX load or cold lift), per-ISA
     * queries are built once per CVE, and the games fan out over the
     * (query, target) grid ordered target-major, in contiguous chunks
     * of chunk_for(pairs, threads) pairs (support/threadpool.h): every
     * query's game against a target runs back-to-back while that
     * target's index is hot, and a chunk is big enough that warm-cache
     * games are not drowned in per-item scheduling overhead.
     *
     * Returns one outcome row per CVE, in CVE order; row q is
     * bit-identical to what search_corpus(cves[q], targets) would have
     * produced with its own fresh caches, at any thread count and any
     * batch split (the batched-hunt determinism test is the bar).
     * Journal records are keyed (content key, query fingerprint), so a
     * killed hunt resumes mid-batch, skipping exactly the completed
     * (query, target) pairs.
     */
    std::vector<std::vector<CorpusOutcome>> search_corpus_batch(
        const std::vector<firmware::CveRecord> &cves,
        const std::vector<CorpusTarget> &targets, unsigned threads = 0,
        bool confirm = true);

    /**
     * The first step of a hunt of @p cves whose targets a streamed front
     * end keys (eval/shard.h hunt_manifest, DESIGN §14.1): open the
     * journal and the store, so that prefetch() knows which keys the
     * hunt still needs. search_corpus_batch over in-memory targets
     * calls it itself.
     */
    void open_hunt(const std::vector<firmware::CveRecord> &cves,
                   bool confirm = true);

    /**
     * The front end's store stage, called by its jobs between open_hunt
     * and the hunt; thread-safe. The first call for a key the hunt still
     * needs claims it and loads its index from the store; later calls
     * only read that claim.
     * @return true when @p key's index exists or the hunt never needs
     *         it: no later stage keys or lifts such an executable, so
     *         its bytes may be released.
     */
    bool prefetch(std::uint64_t key);

    /**
     * search_corpus_batch over targets the front end keyed after
     * open_hunt(@p cves): @p keys[t] is targets[t]'s content key. The
     * claims merge in target order; each store miss is lifted from its
     * first occurrence. @p release(t) runs once target t's bytes are no
     * longer needed — its key's index exists or was quarantined, it
     * repeats an earlier target's key, or the hunt never needs it — on
     * the calling thread or, right after a lift, on the worker that
     * lifted it (never twice at once for one target).
     */
    std::vector<std::vector<CorpusOutcome>> search_corpus_batch(
        const std::vector<firmware::CveRecord> &cves,
        const std::vector<CorpusTarget> &targets,
        const std::vector<std::uint64_t> &keys, unsigned threads,
        const Release &release);

    /**
     * Index @p targets (parallel) and build one query per ISA that
     * actually occurs among the indexable ones (first occurrence in
     * target order) in one query phase — one MIR for the CVE's source,
     * shared by its ISAs.
     */
    std::map<isa::Arch, Query> build_queries(
        const firmware::CveRecord &cve,
        const std::vector<CorpusTarget> &targets, unsigned threads = 0);

    /** Degradation record for everything this driver has scanned. */
    const ScanHealth &health() const { return health_; }
    ScanHealth &health() { return health_; }

    /** The scan journal (closed/empty unless journal_path was set). */
    const ScanJournal &journal() const { return journal_; }

  private:
    SearchOptions options_;
    ScanHealth health_;
    /**
     * Per-driver target-index cache, by content key. std::map keeps
     * every index at a stable address for the driver's lifetime, and
     * each index's `backing` pins the blob or mapping its spans view.
     */
    std::map<std::uint64_t, sim::ExecutableIndex> index_cache_;
    std::map<std::uint64_t, baseline::GraphIndex> graph_cache_;
    /** Content keys of executables that failed to lift. */
    std::set<std::uint64_t> quarantined_;
    /**
     * Content keys already counted in executables_seen/lifted_ok, so an
     * executable met again — lifted a second time by graph_target after
     * its index was built or loaded, or replayed from the journal — is
     * counted once.
     */
    std::set<std::uint64_t> health_counted_;
    /** Lazily-opened persistent store (options_.index_cache_dir). */
    std::unique_ptr<sim::IndexCacheStore> store_;
    bool store_opened_ = false;
    /** Scan journal (empty/closed when options_.journal_path is unset). */
    ScanJournal journal_;
    bool journal_opened_ = false;
    /** The open hunt's front-end claims (open_hunt; driver.cc). */
    struct Claims;
    std::unique_ptr<Claims> claims_;
    /**
     * Journal replay: (content key, query fingerprint) → last journaled
     * record for that pair. Quarantine records live under query
     * fingerprint 0 and apply to every query. (query, target) pairs
     * that appear here are served from the journal and skipped by every
     * pipeline stage of a resumed scan.
     */
    std::map<std::pair<std::uint64_t, std::uint64_t>, JournalEntry>
        journal_replay_;

    /**
     * match_outcome, also setting @p runner_up to the game's runner-up
     * Sim (GameResult::runner_up_sim) when it matched. Left untouched
     * on the use_game = false ablation path.
     */
    SearchOutcome play(const Query &query,
                       const sim::ExecutableIndex &target,
                       int &runner_up) const;

    /** The persistent store, or nullptr when not configured. */
    sim::IndexCacheStore *cache_store();

    /** Count @p key as a seen + healthy executable, once. */
    void note_healthy(std::uint64_t key);

    /**
     * Quarantine @p exe (content key @p key, not yet quarantined) after
     * a failed lift: count it as seen once, log it in health, and
     * journal it so a resume re-skips it without re-lifting it.
     */
    void quarantine(const loader::Executable &exe, std::uint64_t key,
                    ErrorCode code, const std::string &message);

    /**
     * Per-query record fingerprint: hashes one query's identity label
     * (never 0 — that value is reserved for quarantine records). The
     * journal keys outcome records by (content key, this).
     */
    static std::uint64_t query_fingerprint(const std::string &label);

    /** One query the query phase builds (driver.cc). */
    struct QuerySpec;
    /** What the query phase produced for one QuerySpec (driver.cc). */
    struct QuerySlot;

    /** The spec of @p cve's query for @p arch. */
    static QuerySpec cve_query_spec(const firmware::CveRecord &cve,
                                    isa::Arch arch);

    /**
     * ISAs of the indexable targets @p pending (indexes into @p targets,
     * content keys @p keys), in first-occurrence order, after index_many
     * over them.
     */
    std::vector<isa::Arch> query_isas(
        const std::vector<CorpusTarget> &targets,
        const std::vector<std::uint64_t> &keys,
        const std::vector<std::size_t> &pending, unsigned threads,
        const Release &release);

    /**
     * The one query builder: one job per distinct (package, version)
     * source, on resolve_worker_threads(@p threads) workers. A job
     * renders the source once, loads each of its ISAs' recipe keys from
     * the store and, for the misses, runs one compile_to_mir, then
     * backend+link, lift and index per missing ISA, with store
     * write-back. Merge: fold hits, misses, loads and writes into health
     * in spec order. A job that finds @p cancel requested after its
     * loads builds nothing; its missing queries come back with qv == -1.
     * @return one query per spec, in spec order.
     */
    std::vector<Query> build_query_set(const std::vector<QuerySpec> &specs,
                                       unsigned threads,
                                       const CancelToken *cancel);

    /** Load @p slot's recipe key from @p store into @p slot. */
    void probe_query(sim::IndexCacheStore &store, QuerySlot &slot) const;

    /**
     * Content keys of @p targets, one parallel_for range of them per
     * job; in a hunt open_hunt opened, each job also prefetches its
     * keys. This is the front end of in-memory scans.
     */
    std::vector<std::uint64_t> target_keys(
        const std::vector<CorpusTarget> &targets, unsigned threads);

    /** True when the open hunt has a pair of @p key left to play. */
    bool hunt_needs(std::uint64_t key) const;

    /** The indexed target of @p key, or nullptr (quarantined/unindexed). */
    const sim::ExecutableIndex *cached_index(std::uint64_t key) const;

    /** Both search_corpus_batch overloads, after open_hunt. */
    std::vector<std::vector<CorpusOutcome>> hunt(
        const std::vector<firmware::CveRecord> &cves,
        const std::vector<CorpusTarget> &targets,
        const std::vector<std::uint64_t> &keys, unsigned threads,
        bool confirm, const Release &release);

    /**
     * The batched fan-out core every search_corpus overload lands on:
     * replay the journaled (query, target) pairs, index the remaining
     * distinct targets once, then run the outstanding games target-major
     * in chunked parallel_for ranges and merge accounting
     * single-threaded in (query, target) order — the same order N
     * sequential single-query scans would have produced. Decided pairs
     * are journaled in shared groups of up to 64 records. The journal
     * must already be open (or absent) when this runs.
     */
    std::vector<std::vector<CorpusOutcome>> run_batch(
        const std::vector<const std::map<isa::Arch, Query> *> &query_sets,
        const std::vector<std::uint64_t> &query_fps,
        const std::vector<CorpusTarget> &targets,
        const std::vector<std::uint64_t> &keys, unsigned threads,
        bool confirm, const Release &release);

    /**
     * Open (or resume) the journal per options_, once per driver;
     * populates journal_replay_ on resume. A journal failure degrades
     * to a journal-less scan (recorded in the health error histogram) —
     * a journal problem must never cost the scan itself. One exception:
     * resuming a structurally sound journal whose fingerprint binds it
     * to a different scan configuration (e.g. another CVE list or
     * confirm threshold) sets health_.resume_rejected, and run_batch
     * then refuses to scan — mixing two configurations' findings would
     * be silently wrong.
     */
    void open_journal(const std::string &label, bool confirm);

    /**
     * Commit @p entries as one journal group (no-op when the journal is
     * closed or the group is empty), then fire the cancel_after_appends
     * test seam once the commit brings appended() to its value.
     * Thread-safe.
     */
    void journal_append(std::span<const JournalEntry> entries);

    /** What one executable's load_or_lift produced (driver.cc). */
    struct IndexSlot;

    /** @p key's store load, as one IndexSlot (a hit or a miss). */
    IndexSlot load_slot(std::uint64_t key,
                        sim::IndexCacheStore &store) const;

    /**
     * One executable's load-or-lift ladder: the persistent @p store
     * (unless @p slot already holds its load), then lift + index +
     * store write-back. The lifted IR is dropped as soon as the index
     * exists. Reads only thread-safe driver state, so index_many runs
     * it on worker threads; @p threads fans index_executable's
     * procedures out.
     */
    IndexSlot load_or_lift(const loader::Executable &exe,
                           std::uint64_t key, sim::IndexCacheStore *store,
                           unsigned threads, IndexSlot slot);

    /**
     * Fold one load_or_lift result into the cache and health: store
     * counters, quarantine on failure, index_cache_ entry on success.
     * Single-threaded.
     * @return the cached index, or nullptr when quarantined.
     */
    const sim::ExecutableIndex *merge_slot(const loader::Executable &exe,
                                           std::uint64_t key,
                                           IndexSlot &slot);

    /**
     * Parallel load_or_lift of the distinct targets @p pending (indexes
     * into @p targets, content keys @p keys) that are neither cached nor
     * quarantined, each from its first occurrence, which @p release
     * frees right after; a store miss the front end already loaded is
     * not loaded again. merge_slot runs single-threaded in target
     * order. Records the phase wall-clock in health().index_seconds.
     * @return number successfully indexed.
     */
    std::size_t index_many(const std::vector<CorpusTarget> &targets,
                           const std::vector<std::uint64_t> &keys,
                           const std::vector<std::size_t> &pending,
                           unsigned threads, const Release &release);
};

/** The newest version of @p package that @p cve still affects. */
std::string latest_vulnerable_version(const firmware::CveRecord &cve);

}  // namespace firmup::eval
