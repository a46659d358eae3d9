/**
 * @file
 * CanonMemo — a cross-executable canonicalization memo.
 *
 * Canonicalizing a block is pure — its strand hashes are fully
 * determined by the block's statements and the CanonOptions — so a
 * thread-safe memo shared across executables can represent a basic
 * block seen before by replaying its memoized strand-hash span instead
 * of re-slicing and re-hashing.
 *
 * No product path sets it. Keying a block folds five words of every
 * statement through two serial hash chains, which costs about half of
 * canonicalizing the block outright, and only 37-38% of a corpus's
 * blocks repeat; a cold scan ran faster and leaner with every block
 * canonicalized directly (DESIGN §12). The memo stays as a library
 * option (CanonOptions::memo) only because perfbench/harness.cc's serial
 * replay still sets it; it is deleted along with that replay (ROADMAP
 * item 8).
 *
 * The key is a 128-bit digest over (canon options, memo context, block
 * statement content). The options — section geometry and the three
 * ablation knobs — MUST be part of the key: offset elimination depends
 * on the per-executable section ranges, so the same statements
 * canonicalize differently under different geometry. Instruction
 * addresses are deliberately excluded; canonicalization never reads
 * them, which is exactly what makes relocated copies of a block share
 * one entry. Collisions at 128 bits are negligible, preserving the hard
 * invariant that memo-on and memo-off scans are bit-identical.
 *
 * Accounting is schedule-independent: a lookup that finds a completed
 * entry is a hit; a computation that wins the insert race is a miss; a
 * computation that loses the race counts as a hit (the winner's span is
 * used). For any interleaving, a key with n occurrences contributes
 * exactly 1 miss and n-1 hits, so the canon.memo_* counters are
 * invariant across worker-thread counts.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ir/uir.h"
#include "strand/canon.h"

namespace firmup::strand {

/** Thread-safe sharded memo: block content key -> strand-hash span. */
class CanonMemo
{
  public:
    /** 128-bit content key (two independently-seeded digests). */
    struct Key
    {
        std::uint64_t hi = 0;
        std::uint64_t lo = 0;

        bool operator==(const Key &) const = default;
    };

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /**
     * The memoized strand hashes for @p key, or nullptr. A non-null
     * return counts one hit; a null return counts nothing — the caller
     * computes and publish()es, and the accounting happens there.
     * The returned span is immutable and stable for the memo's lifetime
     * (or until clear()).
     */
    const std::vector<std::uint64_t> *find(const Key &key);

    /**
     * Publish the hashes computed for @p key and return the canonical
     * stored span. Counts one miss when this call inserted the entry;
     * one hit when a concurrent computation won the race (the winner's
     * identical span is returned and @p hashes is discarded).
     */
    const std::vector<std::uint64_t> *publish(
        const Key &key, std::vector<std::uint64_t> hashes);

    /** Schedule-independent hit/miss totals (see file comment). */
    Stats stats() const;

    /** Number of memoized blocks. */
    std::size_t size() const;

    /**
     * Drop every entry and zero the stats. Not safe concurrently with
     * find()/publish() callers holding returned spans.
     */
    void clear();

  private:
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            return static_cast<std::size_t>(k.lo);
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Key, std::vector<std::uint64_t>, KeyHash>
            entries;
    };

    static constexpr std::size_t kShards = 64;

    Shard &shard_of(const Key &key) { return shards_[key.hi % kShards]; }

    std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/**
 * Derive the memo key of @p block under @p options: both 64-bit halves
 * chain over the options digest (section ranges, ablation knobs,
 * memo_context) and every statement's content fields — kind, dst, reg,
 * operators, operand kinds and values — excluding insn_addr.
 */
CanonMemo::Key block_memo_key(const ir::Block &block,
                              const CanonOptions &options);

}  // namespace firmup::strand
