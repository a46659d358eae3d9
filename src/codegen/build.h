/**
 * @file
 * End-to-end build driver: source package → optimized MIR → machine code
 * → linked FWELF executable. This is the "vendor toolchain" a corpus
 * builder invokes; the query side uses it too, with the reference
 * gcc-like profile.
 */
#pragma once

#include <set>
#include <string>

#include "codegen/link.h"
#include "compiler/lower.h"
#include "compiler/passes.h"
#include "compiler/toolchain.h"
#include "lang/ast.h"
#include "loader/fwelf.h"

namespace firmup::codegen {

/** Everything that determines the bits of a built executable. */
struct BuildRequest
{
    isa::Arch arch = isa::Arch::Mips32;
    compiler::ToolchainProfile profile;
    std::set<std::string> enabled_features;  ///< feature-gated procedures
    bool all_features = true;   ///< ignore enabled_features, include all
    bool strip = false;         ///< drop symbols after linking
    bool keep_exported = true;  ///< exported symbols survive stripping
    std::string exe_name;
    LinkOptions link;
};

/**
 * Compile a package to MIR under @p request (features + optimization).
 * MIR does not depend on request.arch, so one module serves every ISA
 * of the same source, profile and feature set. Each call counts in the
 * `codegen.compile_to_mir` counter.
 */
compiler::MModule compile_to_mir(const lang::PackageSource &source,
                                 const BuildRequest &request);

/**
 * Code-generate, link and optionally strip an already compiled
 * @p module for request.arch; the executable is named request.exe_name,
 * or the module's name when that is empty.
 */
loader::Executable build_executable(const compiler::MModule &module,
                                    const BuildRequest &request);

/** Full pipeline: compile, code-generate, link, optionally strip. */
loader::Executable build_executable(const lang::PackageSource &source,
                                    const BuildRequest &request);

}  // namespace firmup::codegen
