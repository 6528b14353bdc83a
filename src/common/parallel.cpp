#include "common/parallel.hpp"

namespace qa
{

namespace
{

thread_local int t_serial_depth = 0;

} // namespace

int
kernelThreads()
{
    // hardware_concurrency() is a syscall on glibc (~2 us); calling it
    // per gate kernel dominated small-state sweeps (the BENCH_PR1
    // BM_StatevectorLayers 1-CPU regression). The topology never
    // changes mid-process, so resolve it once.
    static const int hw = [] {
        const unsigned n = std::thread::hardware_concurrency();
        return n == 0 ? 1 : int(n);
    }();
    return hw;
}

bool
inSerialKernelScope()
{
    return t_serial_depth > 0;
}

SerialKernelScope::SerialKernelScope() { ++t_serial_depth; }

SerialKernelScope::~SerialKernelScope() { --t_serial_depth; }

void
FirstException::capture() noexcept
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!first_) {
        first_ = std::current_exception();
        armed_.store(true, std::memory_order_release);
    }
}

void
FirstException::rethrow() const
{
    if (first_) std::rethrow_exception(first_);
}

} // namespace qa
