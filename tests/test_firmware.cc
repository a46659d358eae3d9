/**
 * @file
 * Firmware substrate tests: catalog determinism and version drift, image
 * packing/carving robustness, corpus invariants (ground truth alignment,
 * stripping policy, re-shipped executables).
 */
#include <gtest/gtest.h>

#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "firmware/image.h"
#include "lang/generate.h"
#include "support/fsio.h"
#include "support/hash.h"
#include "support/str.h"

namespace firmup::firmware {
namespace {

TEST(Catalog, PackagesAreWellFormed)
{
    for (const PackageSpec &pkg : package_catalog()) {
        EXPECT_FALSE(pkg.versions.empty()) << pkg.name;
        EXPECT_GE(pkg.procedures.size(), 10u) << pkg.name;
        EXPECT_GT(pkg.num_globals, 0) << pkg.name;
        // Feature gates must be declared.
        for (const ProcSpec &proc : pkg.procedures) {
            if (!proc.feature.empty()) {
                EXPECT_NE(std::find(pkg.features.begin(),
                                    pkg.features.end(), proc.feature),
                          pkg.features.end())
                    << pkg.name << "/" << proc.name;
            }
        }
    }
}

TEST(Catalog, EveryCveResolvable)
{
    for (const CveRecord &cve : cve_database()) {
        const PackageSpec &pkg = package_by_name(cve.package);
        bool found = false;
        for (const ProcSpec &proc : pkg.procedures) {
            found |= proc.name == cve.procedure;
        }
        EXPECT_TRUE(found) << cve.cve_id;
        // At least one catalog version is vulnerable.
        bool any_vulnerable = false;
        for (const std::string &version : pkg.versions) {
            any_vulnerable |= cve.affects(pkg, version);
        }
        EXPECT_TRUE(any_vulnerable) << cve.cve_id;
        // The fixed version, when cataloged, is not affected.
        if (pkg.version_index(cve.fixed_version) >= 0) {
            EXPECT_FALSE(cve.affects(pkg, cve.fixed_version))
                << cve.cve_id;
        }
    }
}

TEST(Catalog, GenerationIsDeterministic)
{
    const PackageSpec &pkg = package_by_name("wget");
    const auto a = generate_package_source(pkg, "1.15");
    const auto b = generate_package_source(pkg, "1.15");
    ASSERT_EQ(a.procedures.size(), b.procedures.size());
    for (std::size_t i = 0; i < a.procedures.size(); ++i) {
        EXPECT_EQ(lang::to_string(a.procedures[i]),
                  lang::to_string(b.procedures[i]));
    }
}

TEST(Catalog, VersionsDriftCumulatively)
{
    const PackageSpec &pkg = package_by_name("wget");
    const auto v12 = generate_package_source(pkg, "1.12");
    const auto v15 = generate_package_source(pkg, "1.15");
    const auto v18 = generate_package_source(pkg, "1.18");
    int diff_12_15 = 0, diff_12_18 = 0, diff_15_18 = 0;
    for (std::size_t i = 0; i < v12.procedures.size(); ++i) {
        const std::string a = lang::to_string(v12.procedures[i]);
        const std::string b = lang::to_string(v15.procedures[i]);
        const std::string c = lang::to_string(v18.procedures[i]);
        diff_12_15 += a != b;
        diff_12_18 += a != c;
        diff_15_18 += b != c;
    }
    EXPECT_GT(diff_12_15, 0);
    EXPECT_GT(diff_15_18, 0);
    // Distant versions differ at least as much as close ones.
    EXPECT_GE(diff_12_18, diff_12_15);
}

TEST(Catalog, SecurityPatchTouchesVulnerableProcedure)
{
    // CVE-2014-4877 is fixed in wget 1.16: ftp_retrieve_glob must change
    // between 1.15 and 1.16.
    const PackageSpec &pkg = package_by_name("wget");
    const auto before = generate_package_source(pkg, "1.15");
    const auto after = generate_package_source(pkg, "1.16");
    EXPECT_NE(lang::to_string(*before.find("ftp_retrieve_glob")),
              lang::to_string(*after.find("ftp_retrieve_glob")));
}

TEST(Image, PackUnpackRoundTrip)
{
    FirmwareImage image;
    image.vendor = "NETGEAR";
    image.device = "X-1";
    image.version = "V9";
    image.is_latest = true;
    loader::Executable exe;
    exe.name = "app";
    exe.text = {0xde, 0xad, 0xbe, 0xef};
    exe.data = {1, 2};
    exe.text_addr = 0x400000;
    exe.data_addr = 0x10000000;
    image.executables.push_back(exe);
    image.content_files = {"etc/config"};

    Rng rng(1);
    const ByteBuffer blob = pack_firmware(image, rng);
    auto unpacked = unpack_firmware(blob);
    ASSERT_TRUE(unpacked.ok()) << unpacked.error_message();
    EXPECT_EQ(unpacked.value().image.vendor, "NETGEAR");
    EXPECT_EQ(unpacked.value().image.device, "X-1");
    EXPECT_TRUE(unpacked.value().image.is_latest);
    ASSERT_EQ(unpacked.value().image.executables.size(), 1u);
    EXPECT_EQ(unpacked.value().image.executables[0].name, "app");
    EXPECT_EQ(unpacked.value().image.executables[0].text, exe.text);
    ASSERT_EQ(unpacked.value().image.content_files.size(), 1u);
    EXPECT_EQ(unpacked.value().damaged_members, 0);
}

TEST(Image, RoundTripUnderManyPaddingSeeds)
{
    FirmwareImage image;
    image.vendor = "D-Link";
    image.device = "D";
    image.version = "1";
    for (int e = 0; e < 3; ++e) {
        loader::Executable exe;
        exe.name = "exe" + std::to_string(e);
        exe.text.assign(static_cast<std::size_t>(16 + e * 8),
                        static_cast<std::uint8_t>(e));
        image.executables.push_back(std::move(exe));
    }
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        Rng rng(seed);
        auto unpacked = unpack_firmware(pack_firmware(image, rng));
        ASSERT_TRUE(unpacked.ok()) << "seed " << seed;
        ASSERT_EQ(unpacked.value().image.executables.size(), 3u)
            << "seed " << seed;
        for (int e = 0; e < 3; ++e) {
            EXPECT_EQ(unpacked.value()
                          .image.executables[static_cast<std::size_t>(e)]
                          .name,
                      "exe" + std::to_string(e));
        }
    }
}

TEST(Image, TruncatedMemberIsSkippedNotFatal)
{
    FirmwareImage image;
    image.vendor = "V";
    image.device = "D";
    image.version = "1";
    loader::Executable exe;
    exe.name = "app";
    exe.text.assign(64, 0xaa);
    image.executables.push_back(exe);
    Rng rng(2);
    ByteBuffer blob = pack_firmware(image, rng);
    // Truncate ten bytes past the FWELF magic, mid-payload.
    std::size_t magic_pos = 0;
    for (std::size_t i = 0; i + 4 <= blob.size(); ++i) {
        if (std::equal(std::begin(loader::kMagic),
                       std::end(loader::kMagic), blob.begin() + i)) {
            magic_pos = i;
            break;
        }
    }
    ASSERT_GT(magic_pos, 0u);
    blob.resize(magic_pos + 10);
    auto unpacked = unpack_firmware(blob);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(unpacked.value().image.executables.size(), 0u);
    EXPECT_EQ(unpacked.value().damaged_members, 1);
}

TEST(Image, RejectsForeignBlob)
{
    ByteBuffer junk = {'n', 'o', 't', 'f', 'w'};
    auto unpacked = unpack_firmware(junk);
    EXPECT_FALSE(unpacked.ok());
    EXPECT_EQ(unpacked.error_code(), ErrorCode::MalformedContainer);
}

namespace {

/** A one-executable image packed with @p seed, for hostile mutation. */
ByteBuffer
packed_test_blob(std::uint64_t seed = 3)
{
    FirmwareImage image;
    image.vendor = "V";
    image.device = "D";
    image.version = "1";
    loader::Executable exe;
    exe.name = "app";
    exe.text.assign(64, 0xaa);
    image.executables.push_back(std::move(exe));
    Rng rng(seed);
    return pack_firmware(image, rng);
}

/** Offset of the first FWEX member magic in @p blob (0 if absent). */
std::size_t
find_member_magic(const ByteBuffer &blob)
{
    for (std::size_t i = 0; i + 4 <= blob.size(); ++i) {
        if (std::equal(std::begin(loader::kMagic),
                       std::end(loader::kMagic), blob.begin() + i)) {
            return i;
        }
    }
    return 0;
}

}  // namespace

TEST(Image, TruncatedImageHeaderIsRejected)
{
    const ByteBuffer blob = packed_test_blob();
    // Every cut inside the image header must yield a structured error,
    // never a crash: the header is magic + three strings + a flag.
    for (std::size_t cut = 0; cut < 14; ++cut) {
        ByteBuffer hostile(blob.begin(),
                           blob.begin() + static_cast<long>(cut));
        auto unpacked = unpack_firmware(hostile);
        ASSERT_FALSE(unpacked.ok()) << "cut at " << cut;
        EXPECT_EQ(unpacked.error_code(), ErrorCode::MalformedContainer)
            << "cut at " << cut;
    }
}

TEST(Image, MemberSizeOverrunningBlobIsDamage)
{
    ByteBuffer blob = packed_test_blob();
    const std::size_t magic_pos = find_member_magic(blob);
    ASSERT_GT(magic_pos, 4u);
    // Declare a member size far past the end of the blob.
    blob[magic_pos - 4] = 0xff;
    blob[magic_pos - 3] = 0xff;
    blob[magic_pos - 2] = 0xff;
    blob[magic_pos - 1] = 0x00;
    auto unpacked = unpack_firmware(blob);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(unpacked.value().image.executables.size(), 0u);
    EXPECT_EQ(unpacked.value().damaged_members, 1);
    EXPECT_EQ(unpacked.value().damage[static_cast<std::size_t>(
                  ErrorCode::TruncatedMember)],
              1);
}

TEST(Image, MismatchedNameBracketDropsNameNotMember)
{
    ByteBuffer blob = packed_test_blob();
    const std::size_t magic_pos = find_member_magic(blob);
    ASSERT_GT(magic_pos, 0u);
    const std::uint16_t name_len = read_u16_le(blob.data() + magic_pos - 6);
    ASSERT_EQ(name_len, 3u);  // "app"
    // Corrupt the FIRST copy of the bracketed name length; the carver
    // must notice the bracket mismatch and carve an anonymous member.
    const std::size_t first_copy = magic_pos - 6 - name_len - 2;
    blob[first_copy] = 0x77;
    auto unpacked = unpack_firmware(blob);
    ASSERT_TRUE(unpacked.ok());
    ASSERT_EQ(unpacked.value().image.executables.size(), 1u);
    EXPECT_EQ(unpacked.value().image.executables[0].name, "");
    EXPECT_EQ(unpacked.value().damaged_members, 0);
}

TEST(Image, GarbageOnlyBlobYieldsEmptyImage)
{
    // A well-formed header followed by pure garbage: no members, no
    // content files, no damage — just an empty image.
    FirmwareImage empty;
    empty.vendor = "V";
    empty.device = "D";
    empty.version = "1";
    Rng rng(11);
    ByteBuffer blob = pack_firmware(empty, rng);
    Rng garbage_rng(12);
    for (int i = 0; i < 4096; ++i) {
        blob.push_back(
            static_cast<std::uint8_t>(garbage_rng.index(256)));
    }
    auto unpacked = unpack_firmware(blob);
    ASSERT_TRUE(unpacked.ok());
    EXPECT_EQ(unpacked.value().image.executables.size(), 0u);
    EXPECT_EQ(unpacked.value().damaged_members, 0);
}

TEST(Corpus, InvariantsHold)
{
    CorpusOptions options;
    options.num_devices = 4;
    const Corpus corpus = build_corpus(options);
    EXPECT_EQ(corpus.images.size(), 8u);  // 2 releases per device
    EXPECT_GT(corpus.executable_count(), 0u);
    EXPECT_GT(corpus.procedure_count(), 0u);

    for (std::size_t i = 0; i < corpus.images.size(); ++i) {
        const FirmwareImage &image = corpus.images[i];
        for (const loader::Executable &exe : image.executables) {
            const TruthExe *truth =
                corpus.find_truth(static_cast<int>(i), exe.name);
            ASSERT_NE(truth, nullptr)
                << image.device << "/" << exe.name;
            EXPECT_FALSE(truth->procs.empty());
            // Truth entries must lie inside the text section.
            for (const TruthProc &proc : truth->procs) {
                EXPECT_TRUE(exe.in_text(proc.entry));
            }
            // Surviving symbols must agree with the ground truth.
            for (const loader::Symbol &sym : exe.symbols) {
                EXPECT_EQ(truth->entry_of(sym.name), sym.addr);
            }
        }
    }
}

TEST(Corpus, Deterministic)
{
    CorpusOptions options;
    options.num_devices = 3;
    const Corpus a = build_corpus(options);
    const Corpus b = build_corpus(options);
    ASSERT_EQ(a.images.size(), b.images.size());
    for (std::size_t i = 0; i < a.images.size(); ++i) {
        ASSERT_EQ(a.images[i].executables.size(),
                  b.images[i].executables.size());
        for (std::size_t e = 0; e < a.images[i].executables.size();
             ++e) {
            EXPECT_EQ(a.images[i].executables[e].text,
                      b.images[i].executables[e].text);
        }
    }
}

TEST(Corpus, SeedCorpusBlobsAndTruthArePinned)
{
    // Devices build on worker threads, yet the default corpus (scale 1,
    // seed 2018) must pack to the same bytes with the same ground truth
    // as a device-by-device serial build: these digests never move.
    const CorpusOptions options;
    const Corpus corpus = build_corpus(options);
    const ScopedTempDir dir("firmup-corpus-pin");
    auto written = write_corpus_blobs(corpus, options.seed, dir.path());
    ASSERT_TRUE(written.ok()) << written.error_message();
    ASSERT_EQ(written.value().size(), 36u);
    std::uint64_t blobs = kFnv1a64Seed;
    for (const std::string &path : written.value()) {
        const ByteBuffer bytes = read_file_bytes(path).take();
        blobs = fnv1a64_update(
            blobs, std::string_view(
                       reinterpret_cast<const char *>(bytes.data()),
                       bytes.size()));
    }
    std::uint64_t truth = kFnv1a64Seed;
    for (const TruthExe &exe : corpus.truth) {
        std::string row =
            strprintf("%d %s %s %s", exe.image_index, exe.exe_name.c_str(),
                      exe.package.c_str(), exe.pkg_version.c_str());
        for (const std::string &feature : exe.enabled_features) {
            row += " +" + feature;
        }
        for (const TruthProc &proc : exe.procs) {
            row += strprintf(" %s@%x", proc.source_name.c_str(),
                             proc.entry);
        }
        truth = fnv1a64_update(truth, row + "\n");
    }
    EXPECT_EQ(blobs, 0x2de6edb7338a98edull);
    EXPECT_EQ(truth, 0x63f10f00a697979eull);
}

TEST(Corpus, LatestReleaseMarkedOncePerDevice)
{
    CorpusOptions options;
    options.num_devices = 5;
    const Corpus corpus = build_corpus(options);
    std::map<std::string, int> latest_count;
    for (const FirmwareImage &image : corpus.images) {
        if (image.is_latest) {
            ++latest_count[image.device];
        }
    }
    for (const auto &[device, count] : latest_count) {
        EXPECT_EQ(count, 1) << device;
    }
}

TEST(Corpus, SomeExecutablesRecycledAcrossReleases)
{
    CorpusOptions options;
    options.num_devices = 8;
    const Corpus corpus = build_corpus(options);
    // The paper observed byte-identical executables shipped across
    // firmware versions; the builder must reproduce that.
    int recycled = 0;
    for (std::size_t i = 0; i + 1 < corpus.images.size(); i += 2) {
        for (const loader::Executable &old_exe :
             corpus.images[i].executables) {
            for (const loader::Executable &new_exe :
                 corpus.images[i + 1].executables) {
                recycled += old_exe.name == new_exe.name &&
                                    old_exe.text == new_exe.text
                                ? 1
                                : 0;
            }
        }
    }
    EXPECT_GT(recycled, 0);
}

TEST(CorpusScale, ScaledCatalogPreservesGroundTruthManifest)
{
    CorpusOptions base_options;
    base_options.num_devices = 4;
    const Corpus base = build_corpus(base_options);
    CorpusOptions scaled_options = base_options;
    scaled_options.scale = 3;
    const Corpus scaled = build_corpus(scaled_options);

    // Scale 3 triples the device count; every image keeps a consistent
    // ground-truth sidecar (each truth row points at a real image and
    // a real executable with at least one procedure).
    EXPECT_EQ(scaled.images.size(), 3 * base.images.size());
    EXPECT_GT(scaled.executable_count(), base.executable_count());
    for (const TruthExe &truth : scaled.truth) {
        ASSERT_GE(truth.image_index, 0);
        ASSERT_LT(static_cast<std::size_t>(truth.image_index),
                  scaled.images.size());
        const FirmwareImage &image =
            scaled.images[static_cast<std::size_t>(truth.image_index)];
        bool found = false;
        for (const loader::Executable &exe : image.executables) {
            found = found || exe.name == truth.exe_name;
        }
        EXPECT_TRUE(found) << truth.exe_name << " missing from image "
                           << truth.image_index;
        EXPECT_FALSE(truth.procs.empty());
    }
    // The scale-1 prefix is bit-identical: same device RNG forks, so
    // the first |base| images carry the same names and executables.
    for (std::size_t i = 0; i < base.images.size(); ++i) {
        EXPECT_EQ(scaled.images[i].vendor, base.images[i].vendor);
        EXPECT_EQ(scaled.images[i].device, base.images[i].device);
        EXPECT_EQ(scaled.images[i].version, base.images[i].version);
        ASSERT_EQ(scaled.images[i].executables.size(),
                  base.images[i].executables.size());
        for (std::size_t e = 0;
             e < base.images[i].executables.size(); ++e) {
            EXPECT_EQ(scaled.images[i].executables[e].name,
                      base.images[i].executables[e].name);
            EXPECT_EQ(scaled.images[i].executables[e].text,
                      base.images[i].executables[e].text);
        }
    }
}

}  // namespace
}  // namespace firmup::firmware
