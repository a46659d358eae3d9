/**
 * @file
 * Corpus builder: simulates the paper's firmware crawl (section 5.1).
 *
 * Devices belong to vendors (NETGEAR, D-Link, ASUS — the vendors whose
 * public repositories the paper crawled); each device has an ISA, a
 * vendor toolchain, a package set with per-device build configuration
 * (feature gates), and a firmware version history. Executables are
 * stripped (libraries keep exported symbols; a few early-release images
 * keep full symbols, reproducing the paper's "non-stripped" labeled
 * group); some headers declare the wrong architecture; later firmware
 * versions re-use byte-identical executables for packages that were not
 * part of the update, exactly as the paper observed.
 *
 * Ground truth (which source procedure lives at which address) is
 * recorded in a sidecar *before* stripping and is used only for scoring —
 * never by the matchers.
 */
#pragma once

#include <set>
#include <string>
#include <vector>

#include "firmware/catalog.h"
#include "firmware/image.h"

namespace firmup::firmware {

/** Ground truth for one procedure of one shipped executable. */
struct TruthProc
{
    std::uint32_t entry = 0;
    std::string source_name;
};

/** Ground truth for one shipped executable. */
struct TruthExe
{
    int image_index = -1;
    std::string exe_name;
    std::string package;
    std::string pkg_version;
    std::set<std::string> enabled_features;
    std::vector<TruthProc> procs;

    /** Entry address of @p proc_name; 0 when absent from this build. */
    std::uint32_t entry_of(const std::string &proc_name) const;
};

/** The whole crawled corpus plus its scoring sidecar. */
struct Corpus
{
    std::vector<FirmwareImage> images;
    std::vector<TruthExe> truth;

    const TruthExe *find_truth(int image_index,
                               const std::string &exe_name) const;
    std::size_t executable_count() const;
    std::size_t procedure_count() const;
};

/** Corpus size/shape knobs. */
struct CorpusOptions
{
    std::uint64_t seed = 2018;
    int num_devices = 18;
    int min_packages = 3;
    int max_packages = 5;
    /** Percent of executables whose header declares the wrong ISA. */
    int corrupt_header_percent = 8;
    /** Percent of non-latest images shipped with full symbols. */
    int unstripped_percent = 12;
    /**
     * Corpus multiplier for scaling experiments: the device
     * loop runs num_devices * scale iterations, so scale N clones the
     * catalog into N times the devices, each clone with its own
     * perturbed build decisions (every device forks the corpus RNG
     * under its own index — "device42" — so extra devices draw fresh
     * toolchains, feature gates and version histories). Ground truth is
     * recorded per device exactly as at scale 1, and the first
     * num_devices devices are bit-identical to the scale-1 corpus (the
     * RNG fork names do not change), so findings on the shared prefix
     * are directly comparable.
     */
    int scale = 1;
};

/** Build the corpus deterministically from @p options. */
Corpus build_corpus(const CorpusOptions &options = {});

/**
 * Pack every image of @p corpus, in order, into
 * `DIR/<vendor>-<device>-<version>.fw`, drawing the padding from one
 * Rng seeded `seed ^ 0xb10b` — so the same CorpusOptions always write
 * byte-identical blobs. Returns the written paths, or an IoError naming
 * the first file that could not be written.
 */
Result<std::vector<std::string>> write_corpus_blobs(const Corpus &corpus,
                                                    std::uint64_t seed,
                                                    const std::string &dir);

}  // namespace firmup::firmware
