/**
 * @file
 * FWELF — the executable container used throughout the corpus.
 *
 * Plays the role ELF plays in the paper: it carries the text and data
 * sections, the entry point, and an optional symbol table that stripping
 * removes (exported symbols may survive stripping, exactly like dynamic
 * symbols of shared libraries — the paper's section 5.3 "exported
 * procedures" group relies on this).
 *
 * The container also reproduces the paper's header-corruption caveat
 * (section 3.1: corrupt ELF headers / wrong ELFCLASS): the header carries
 * a *declared* architecture which vendors sometimes get wrong; consumers
 * must treat it as a hint and sniff the real ISA from the bytes (the
 * lifter implements this probing).
 *
 * Layout (all little-endian, independent of target endianness):
 *   magic "FWEX" | version u16 | declared_arch u8 | flags u8
 *   entry u32 | text_addr u32 | text_size u32 | data_addr u32
 *   data_size u32 | sym_count u32
 *   symbols: { addr u32, exported u8, name_len u16, name bytes }*
 *   text bytes | data bytes
 */
#pragma once

#include <string>
#include <vector>

#include "isa/isa.h"
#include "support/bytes.h"
#include "support/error.h"

namespace firmup::loader {

/** A symbol-table entry (procedure name and entry address). */
struct Symbol
{
    std::uint32_t addr = 0;
    bool exported = false;
    std::string name;
};

/** A parsed (or to-be-written) executable. */
struct Executable
{
    std::string name;              ///< file name within the firmware image
    isa::Arch arch = isa::Arch::Mips32;      ///< actual ISA of the bytes
    isa::Arch declared_arch = isa::Arch::Mips32;  ///< header claim
    bool stripped = false;
    std::uint32_t entry = 0;
    std::uint32_t text_addr = 0;
    std::uint32_t data_addr = 0;
    ByteBuffer text;
    ByteBuffer data;
    std::vector<Symbol> symbols;
    /**
     * Set by release(): the sections and symbols are gone and only the
     * header fields and the name remain. Keying or lifting a released
     * executable is a bug (eval::content_key and the lifter assert).
     */
    bool released = false;

    /**
     * Free the text, data and symbol table once nothing needs them any
     * more — a scan does it as soon as the executable's index exists.
     */
    void release();

    /** True when @p addr falls inside the text section. */
    bool in_text(std::uint64_t addr) const
    {
        return addr >= text_addr && addr < text_addr + text.size();
    }
    /** True when @p addr falls inside the data section. */
    bool in_data(std::uint64_t addr) const
    {
        return addr >= data_addr && addr < data_addr + data.size();
    }

    /** Symbol name at @p addr, or "" when absent. */
    std::string symbol_at(std::uint32_t addr) const;
};

/** FWELF magic bytes. */
inline constexpr std::uint8_t kMagic[4] = {'F', 'W', 'E', 'X'};

/** Serialize @p exe. The written header declares `declared_arch`. */
ByteBuffer write_fwelf(const Executable &exe);

/**
 * Parse an FWELF image. `arch` is initialized from the header's declared
 * arch — callers that care about correctness must sniff (see
 * lifter::detect_arch) because vendor headers lie.
 */
Result<Executable> parse_fwelf(const std::uint8_t *bytes, std::size_t size);

/** Convenience overload. */
Result<Executable> parse_fwelf(const ByteBuffer &bytes);

/**
 * Remove symbols. When @p keep_exported is true, exported symbols survive
 * (shared-library style); otherwise the table is emptied.
 */
void strip_executable(Executable &exe, bool keep_exported);

}  // namespace firmup::loader
