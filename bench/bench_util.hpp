/**
 * @file
 * Shared helpers for the benchmark/reproduction harness: formatting of
 * paper-vs-measured rows, a standard banner, and where a JSON record
 * goes.
 */
#ifndef QA_BENCH_BENCH_UTIL_HPP
#define QA_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/format.hpp"

namespace qa
{
namespace bench
{

/** Print a section banner. */
inline void
banner(const std::string& title)
{
    std::cout << "\n=== " << title << " ===\n";
}

/** Render "measured (paper: X)" cells. */
inline std::string
vsPaper(int measured, const std::string& paper)
{
    return std::to_string(measured) + " (paper: " + paper + ")";
}

inline std::string
vsPaper(const std::string& measured, const std::string& paper)
{
    return measured + " (paper: " + paper + ")";
}

/**
 * Emit a bench's JSON record: to the path in argv[1] when one is given
 * (an argument that is not an option), else to stdout, so a run never
 * overwrites a tracked record by default.
 */
inline void
emitRecord(int argc, char** argv, const std::string& json)
{
    if (argc > 1 && argv[1][0] != '-') {
        std::ofstream(argv[1]) << json;
        std::printf("wrote %s\n", argv[1]);
        return;
    }
    std::cout << json << std::flush;
}

} // namespace bench
} // namespace qa

#endif // QA_BENCH_BENCH_UTIL_HPP
