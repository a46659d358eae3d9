#include "firmware/corpus.h"

#include <algorithm>
#include <fstream>

#include "codegen/build.h"
#include "support/error.h"
#include "support/threadpool.h"

namespace firmup::firmware {

namespace {

struct VendorProfile
{
    const char *name;
    std::vector<isa::Arch> arch_pool;  ///< weighted by repetition
};

const std::vector<VendorProfile> &
vendors()
{
    static const std::vector<VendorProfile> v = {
        {"NETGEAR",
         {isa::Arch::Mips32, isa::Arch::Mips32, isa::Arch::Arm32}},
        {"D-Link",
         {isa::Arch::Mips32, isa::Arch::Arm32, isa::Arch::Ppc32}},
        {"ASUS", {isa::Arch::Arm32, isa::Arch::Mips32, isa::Arch::X86}},
    };
    return v;
}

/** One device's fixed manufacturing choices. */
struct Device
{
    std::string vendor;
    std::string model;
    isa::Arch arch;
    compiler::ToolchainProfile toolchain;
    std::uint32_t text_base = 0;  ///< vendor-specific load addresses
    std::uint32_t data_base = 0;
    std::vector<std::string> packages;
    std::map<std::string, std::set<std::string>> features;  ///< per pkg
};

Device
make_device(Rng &rng, int index)
{
    Device device;
    const VendorProfile &vendor = rng.pick(vendors());
    device.vendor = vendor.name;
    device.model = std::string(vendor.name).substr(0, 2) + "-R" +
                   std::to_string(1000 + index * 37 +
                                  static_cast<int>(rng.index(900)));
    device.arch = rng.pick(vendor.arch_pool);
    device.toolchain = rng.pick(compiler::vendor_toolchains());
    // Vendors link at their own load addresses; offset elimination is
    // what makes strands comparable across such builds.
    static constexpr std::uint32_t kTextBases[] = {0x400000, 0x10000,
                                                   0x800000, 0x8000};
    static constexpr std::uint32_t kDataBases[] = {0x10000000, 0x20000000,
                                                   0x00c00000, 0x30000000};
    device.text_base = kTextBases[rng.index(std::size(kTextBases))];
    device.data_base = kDataBases[rng.index(std::size(kDataBases))];

    // Pick the package set: routers always carry a web/net stack.
    std::vector<std::string> pool;
    for (const PackageSpec &pkg : package_catalog()) {
        pool.push_back(pkg.name);
    }
    rng.shuffle(pool);
    const std::size_t count = 3 + rng.index(3);
    device.packages.assign(pool.begin(),
                           pool.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(count,
                                                       pool.size())));
    // Build configuration: each optional feature is enabled per-device.
    for (const std::string &name : device.packages) {
        const PackageSpec &pkg = package_by_name(name);
        std::set<std::string> enabled;
        for (const std::string &feature : pkg.features) {
            if (rng.chance(1, 2)) {
                enabled.insert(feature);
            }
        }
        device.features[name] = enabled;
    }
    return device;
}

std::string
exe_name_for(const PackageSpec &pkg)
{
    return pkg.is_library ? pkg.name + ".so" : pkg.name;
}

}  // namespace

std::uint32_t
TruthExe::entry_of(const std::string &proc_name) const
{
    for (const TruthProc &p : procs) {
        if (p.source_name == proc_name) {
            return p.entry;
        }
    }
    return 0;
}

const TruthExe *
Corpus::find_truth(int image_index, const std::string &exe_name) const
{
    for (const TruthExe &t : truth) {
        if (t.image_index == image_index && t.exe_name == exe_name) {
            return &t;
        }
    }
    return nullptr;
}

std::size_t
Corpus::executable_count() const
{
    std::size_t n = 0;
    for (const FirmwareImage &image : images) {
        n += image.executables.size();
    }
    return n;
}

std::size_t
Corpus::procedure_count() const
{
    std::size_t n = 0;
    for (const TruthExe &t : truth) {
        n += t.procs.size();
    }
    return n;
}

namespace {

/** One device's two releases and their ground truth. */
struct DeviceBuild
{
    std::vector<FirmwareImage> images;
    std::vector<TruthExe> truth;
};

/**
 * Build device @p d from its own generator @p device_rng. Its releases
 * become corpus images 2d and 2d + 1.
 */
DeviceBuild
build_device(Rng device_rng, int d, const CorpusOptions &options)
{
    DeviceBuild built;
    Device device = make_device(device_rng, d);

    // Two firmware releases per device: an initial one on older
    // package versions and a "latest" that upgrades some packages.
    std::map<std::string, int> version_pick;  // package -> version idx
    for (const std::string &name : device.packages) {
        const PackageSpec &pkg = package_by_name(name);
        // Vendors lag behind upstream: bias towards older versions.
        version_pick[name] = static_cast<int>(
            device_rng.index((pkg.versions.size() + 1) / 2 + 1));
        version_pick[name] = std::min(
            version_pick[name],
            static_cast<int>(pkg.versions.size()) - 1);
    }

    std::map<std::string, loader::Executable> previous_build;
    for (int release = 0; release < 2; ++release) {
        const bool is_latest = release == 1;
        FirmwareImage image;
        image.vendor = device.vendor;
        image.device = device.model;
        image.version = "V1." + std::to_string(release) + "." +
                        std::to_string(device_rng.index(10));
        image.is_latest = is_latest;
        image.content_files = {"etc/" + device.model + ".cfg",
                               "www/index.html"};

        const int image_index = 2 * d + release;
        for (const std::string &name : device.packages) {
            const PackageSpec &pkg = package_by_name(name);
            bool upgraded = false;
            if (is_latest && device_rng.chance(1, 2) &&
                version_pick[name] + 1 <
                    static_cast<int>(pkg.versions.size())) {
                ++version_pick[name];
                upgraded = true;
            }
            const std::string &version =
                pkg.versions[static_cast<std::size_t>(
                    version_pick[name])];

            loader::Executable exe;
            if (is_latest && !upgraded &&
                previous_build.contains(name)) {
                // Not part of this update: ship the identical bytes
                // (the paper's re-used-executable observation).
                exe = previous_build[name];
            } else {
                const lang::PackageSource source =
                    generate_package_source(pkg, version);
                codegen::BuildRequest request;
                request.arch = device.arch;
                request.profile = device.toolchain;
                request.all_features = false;
                request.enabled_features = device.features[name];
                request.exe_name = exe_name_for(pkg);
                request.link.text_base = device.text_base;
                request.link.data_base = device.data_base;
                exe = codegen::build_executable(source, request);

                // Ground truth snapshot before stripping.
                TruthExe truth;
                truth.image_index = image_index;
                truth.exe_name = exe.name;
                truth.package = pkg.name;
                truth.pkg_version = version;
                truth.enabled_features = device.features[name];
                for (const loader::Symbol &sym : exe.symbols) {
                    truth.procs.push_back(
                        TruthProc{sym.addr, sym.name});
                }
                built.truth.push_back(std::move(truth));

                // Stripping policy: libraries keep exported symbols;
                // a few early releases ship with full symbols.
                const bool keep_all =
                    !is_latest &&
                    device_rng.chance(
                        static_cast<std::uint32_t>(
                            options.unstripped_percent),
                        100);
                if (!keep_all) {
                    loader::strip_executable(exe, pkg.is_library);
                }
                // Corrupt declared arch on a few executables.
                if (device_rng.chance(
                        static_cast<std::uint32_t>(
                            options.corrupt_header_percent),
                        100)) {
                    exe.declared_arch =
                        device.arch == isa::Arch::Mips32
                            ? isa::Arch::Arm32
                            : isa::Arch::Mips32;
                }
                previous_build[name] = exe;
            }
            // Re-shipped executables share the original's truth.
            if (is_latest && !upgraded) {
                for (const TruthExe &t : built.truth) {
                    if (t.image_index == image_index - 1 &&
                        t.exe_name == exe.name) {
                        TruthExe copy = t;
                        copy.image_index = image_index;
                        built.truth.push_back(std::move(copy));
                        break;
                    }
                }
            }
            image.executables.push_back(std::move(exe));
        }
        built.images.push_back(std::move(image));
    }
    return built;
}

}  // namespace

Corpus
build_corpus(const CorpusOptions &options)
{
    Rng rng(options.seed);
    const int devices = options.num_devices * std::max(options.scale, 1);
    // Rng::fork advances the corpus generator, so every device's
    // generator is forked here, serially and in device order; the
    // devices then build independently on worker threads (FIRMUP_THREADS
    // honoured) and are appended in device order, so the corpus is the
    // same at any thread count.
    std::vector<Rng> device_rngs;
    device_rngs.reserve(static_cast<std::size_t>(devices));
    for (int d = 0; d < devices; ++d) {
        device_rngs.push_back(rng.fork("device" + std::to_string(d)));
    }
    std::vector<DeviceBuild> built(device_rngs.size());
    ThreadPool::parallel_for(
        resolve_worker_threads(0), built.size(), [&](std::size_t d) {
            built[d] = build_device(device_rngs[d], static_cast<int>(d),
                                    options);
        });
    Corpus corpus;
    for (DeviceBuild &device : built) {
        for (FirmwareImage &image : device.images) {
            corpus.images.push_back(std::move(image));
        }
        for (TruthExe &truth : device.truth) {
            corpus.truth.push_back(std::move(truth));
        }
    }
    return corpus;
}

Result<std::vector<std::string>>
write_corpus_blobs(const Corpus &corpus, std::uint64_t seed,
                   const std::string &dir)
{
    Rng rng(seed ^ 0xb10b);
    std::vector<std::string> paths;
    for (const FirmwareImage &image : corpus.images) {
        const std::string path = dir + "/" + image.vendor + "-" +
                                 image.device + "-" + image.version + ".fw";
        const ByteBuffer bytes = pack_firmware(image, rng);
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            return Result<std::vector<std::string>>::error(
                ErrorCode::IoError, "cannot write " + path);
        }
        paths.push_back(path);
    }
    return paths;
}

}  // namespace firmup::firmware
