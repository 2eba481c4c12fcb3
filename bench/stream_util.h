/**
 * @file
 * Minimal STREAM-style memory-bandwidth microbenchmark (McCalpin's
 * copy/scale/add/triad kernels over double arrays) used to calibrate
 * the roofline ceiling the LUT-GEMM records are scored against: a RAC
 * read moves ~12 bytes (4-byte packed key + 8-byte table entry), so
 * `roofline_frac = lut_reads_per_s * 12 / mem_bw_bytes_per_s` says how
 * close the software kernel runs to the machine's measured memory
 * bandwidth. bench_stream.cpp is the standalone driver; bench_kernels
 * --json measures the ceiling once per run to stamp its records.
 */

#ifndef FIGLUT_BENCH_STREAM_UTIL_H
#define FIGLUT_BENCH_STREAM_UTIL_H

#include <chrono>
#include <cstddef>
#include <vector>

namespace figlut::bench {

/** Bytes a RAC table read moves: packed key (4) + LUT entry (8). */
inline constexpr double kLutReadBytes = 12.0;

/** Best observed rate of each STREAM kernel, in bytes per second. */
struct StreamBandwidth
{
    double copy = 0.0;  ///< c[i] = a[i]            (2 x 8 bytes/elem)
    double scale = 0.0; ///< b[i] = s * c[i]        (2 x 8 bytes/elem)
    double add = 0.0;   ///< c[i] = a[i] + b[i]     (3 x 8 bytes/elem)
    double triad = 0.0; ///< a[i] = b[i] + s * c[i] (3 x 8 bytes/elem)

    /** The roofline ceiling: the best rate any kernel achieved. */
    double
    best() const
    {
        double b = copy;
        if (scale > b)
            b = scale;
        if (add > b)
            b = add;
        if (triad > b)
            b = triad;
        return b;
    }
};

namespace stream_detail {

inline double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps wrapper: returns bytes/s of the fastest repetition. */
template <typename Kernel>
double
bestRate(Kernel &&kernel, double bytes, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = seconds();
        kernel();
        const double dt = seconds() - t0;
        if (dt > 0.0 && bytes / dt > best)
            best = bytes / dt;
    }
    return best;
}

} // namespace stream_detail

/**
 * Run the four STREAM kernels best-of-`reps` over three
 * `elements`-double arrays (per STREAM convention each array should
 * comfortably exceed the last-level cache; 1 << 24 elements = 128 MiB
 * per array is the standalone default, CI smoke uses less). The
 * arrays are touched once before timing so page faults are excluded.
 */
inline StreamBandwidth
measureStreamBandwidth(std::size_t elements, int reps)
{
    std::vector<double> a(elements, 1.0), b(elements, 2.0),
        c(elements, 0.0);
    const double scalar = 3.0;
    const double two = 2.0 * 8.0 * static_cast<double>(elements);
    const double three = 3.0 * 8.0 * static_cast<double>(elements);

    StreamBandwidth bw;
    bw.copy = stream_detail::bestRate(
        [&] {
            for (std::size_t i = 0; i < elements; ++i)
                c[i] = a[i];
        },
        two, reps);
    bw.scale = stream_detail::bestRate(
        [&] {
            for (std::size_t i = 0; i < elements; ++i)
                b[i] = scalar * c[i];
        },
        two, reps);
    bw.add = stream_detail::bestRate(
        [&] {
            for (std::size_t i = 0; i < elements; ++i)
                c[i] = a[i] + b[i];
        },
        three, reps);
    bw.triad = stream_detail::bestRate(
        [&] {
            for (std::size_t i = 0; i < elements; ++i)
                a[i] = b[i] + scalar * c[i];
        },
        three, reps);

    // Consume the final array states so no kernel's stores are dead.
    double sink = 0.0;
    for (std::size_t i = 0; i < elements; i += 4096)
        sink += a[i] + b[i] + c[i];
    volatile double keep = sink;
    (void)keep;
    return bw;
}

} // namespace figlut::bench

#endif // FIGLUT_BENCH_STREAM_UTIL_H
