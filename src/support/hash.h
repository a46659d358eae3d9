/**
 * @file
 * Hashing primitives used throughout FirmUp.
 *
 * Canonical strands are compared as 64-bit hashes of their printed form
 * (paper section 3.3: "we keep the procedure representation as a set of
 * hashed strands"). All hashing is deterministic across runs and platforms
 * so corpus indexes can be persisted and experiments are reproducible.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace firmup {

/** FNV-1a 64-bit offset basis: the hash state of the empty string. */
inline constexpr std::uint64_t kFnv1a64Seed = 0xcbf29ce484222325ull;
/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ull;

/**
 * Fold @p bytes into a running FNV-1a state — the streaming form of
 * fnv1a64(). Start from kFnv1a64Seed; feeding the same bytes in any
 * chunking yields the same digest as one fnv1a64() call.
 */
inline std::uint64_t
fnv1a64_update(std::uint64_t state, std::string_view bytes)
{
    for (unsigned char c : bytes) {
        state ^= c;
        state *= kFnv1a64Prime;
    }
    return state;
}

/** Fold a single byte into a running FNV-1a state. */
inline std::uint64_t
fnv1a64_update(std::uint64_t state, char byte)
{
    return (state ^ static_cast<unsigned char>(byte)) * kFnv1a64Prime;
}

/** FNV-1a 64-bit hash of a byte string. Deterministic and seedless. */
std::uint64_t fnv1a64(std::string_view bytes);

/**
 * Fast 64-bit digest for large buffers (content keys): four
 * independent FNV-style lanes consuming 8 bytes per step, folded
 * through the splitmix64 mixer. Byte-serial fnv1a64 caps near one
 * byte per cycle, and every scan keys every target's whole text; the
 * lanes trade fnv1a64's chunkable streaming form for
 * instruction-level parallelism. Deterministic
 * across runs on a given host; lane words are read in native byte
 * order, so digests are only stable across hosts of one endianness —
 * fine for content keys, which name entries in host-local caches.
 */
std::uint64_t content_hash64(std::string_view bytes);

/** Strong 64-bit finalizer (splitmix64 mixer) for integer keys. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Combine two 64-bit hashes order-dependently.
 * Used to fold structured values (op, operands...) into one digest.
 */
inline std::uint64_t
hash_combine(std::uint64_t seed, std::uint64_t value)
{
    return mix64(seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) +
                         (seed >> 2)));
}

}  // namespace firmup
