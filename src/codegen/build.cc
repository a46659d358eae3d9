#include "codegen/build.h"

#include "codegen/backend.h"
#include "support/trace.h"

namespace firmup::codegen {

namespace {

const trace::Counter c_compile_to_mir("codegen.compile_to_mir");

}  // namespace

compiler::MModule
compile_to_mir(const lang::PackageSource &source,
               const BuildRequest &request)
{
    c_compile_to_mir.add();
    compiler::MModule module =
        request.all_features
            ? compiler::lower_package(source)
            : compiler::lower_package(source, request.enabled_features);
    compiler::optimize_module(module, request.profile);
    return module;
}

loader::Executable
build_executable(const compiler::MModule &module,
                 const BuildRequest &request)
{
    auto backend = Backend::create(request.arch, request.profile);
    std::vector<ProcCode> procs;
    procs.reserve(module.procs.size());
    for (const compiler::MProc &proc : module.procs) {
        procs.push_back(backend->generate(proc));
    }
    loader::Executable exe =
        link_module(procs, module.global_words, request.arch, request.link,
                    request.exe_name.empty() ? module.name
                                             : request.exe_name);
    if (request.strip) {
        loader::strip_executable(exe, request.keep_exported);
    }
    return exe;
}

loader::Executable
build_executable(const lang::PackageSource &source,
                 const BuildRequest &request)
{
    return build_executable(compile_to_mir(source, request), request);
}

}  // namespace firmup::codegen
