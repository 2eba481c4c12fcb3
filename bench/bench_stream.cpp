/**
 * @file
 * Standalone STREAM bandwidth calibration driver (see stream_util.h).
 * Prints the copy/scale/add/triad rates and the best-of ceiling, and
 * with --json writes BENCH_stream-style records ("stream/copy", ...)
 * whose mem_bw_bytes_per_s fields scripts/check_bench_json.py
 * validates — CI runs `bench_stream --smoke --json BENCH_stream.json`
 * and uploads the artifact next to BENCH_kernels.json so roofline
 * fractions in the perf trajectory stay anchored to a measured
 * ceiling, not a datasheet number.
 *
 * Flags:
 *   --elements N   doubles per array (default 1 << 24 = 128 MiB each)
 *   --reps R       repetitions per kernel, best-of (default 5)
 *   --smoke        CI sizing: 1 << 21 elements, 3 reps
 *   --json PATH    machine-readable records
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "stream_util.h"

int
main(int argc, char **argv)
{
    std::size_t elements = std::size_t{1} << 24;
    int reps = 5;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--elements") == 0 && i + 1 < argc) {
            elements = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            elements = std::size_t{1} << 21;
            reps = 3;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--elements N] [--reps R] [--smoke] "
                         "[--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (elements == 0 || reps <= 0) {
        std::fprintf(stderr, "elements and reps must be positive\n");
        return 2;
    }

    figlut::bench::banner("STREAM",
                          "memory-bandwidth roofline calibration");
    std::printf("arrays: 3 x %zu doubles (%.1f MiB each), best of %d\n",
                elements,
                static_cast<double>(elements) * 8.0 / (1024.0 * 1024.0),
                reps);

    const auto bw = figlut::bench::measureStreamBandwidth(elements, reps);
    const auto gb = [](double v) { return v / 1e9; };
    std::printf("copy : %8.2f GB/s\n", gb(bw.copy));
    std::printf("scale: %8.2f GB/s\n", gb(bw.scale));
    std::printf("add  : %8.2f GB/s\n", gb(bw.add));
    std::printf("triad: %8.2f GB/s\n", gb(bw.triad));
    std::printf("best : %8.2f GB/s (roofline ceiling)\n", gb(bw.best()));
    if (bw.best() <= 0.0) {
        std::fprintf(stderr, "no kernel produced a positive rate\n");
        return 1;
    }

    if (!json_path.empty()) {
        std::vector<figlut::bench::JsonBenchRecord> records;
        const std::pair<const char *, double> rows[] = {
            {"stream/copy", bw.copy},
            {"stream/scale", bw.scale},
            {"stream/add", bw.add},
            {"stream/triad", bw.triad},
            {"stream/best", bw.best()},
        };
        for (const auto &[name, rate] : rows) {
            figlut::bench::JsonBenchRecord rec;
            rec.name = name;
            rec.extra.emplace_back("mem_bw_bytes_per_s", rate);
            records.push_back(std::move(rec));
        }
        figlut::bench::writeBenchJson(json_path, records);
        std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}
