/**
 * @file
 * Seeded generator of random, well-formed tasklet traces, shared by
 * the scheduler's fuzz and differential tests.
 */

#ifndef ALPHA_PIM_TESTS_UPMEM_RANDOM_TRACES_HH
#define ALPHA_PIM_TESTS_UPMEM_RANDOM_TRACES_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "upmem/trace.hh"

namespace alphapim::upmem::testing_support
{

/**
 * Build a random, well-formed trace set: every mutex lock is paired
 * with an unlock; barriers appear at common sync points so every
 * live tasklet participates.
 *
 * @param long_runs also draw Ops runs of 8 to 263 instructions, long
 *                  enough for the scheduler's closed-form fast path
 *                  to fire; false reproduces the original short-run
 *                  mix draw for draw
 */
inline std::vector<TaskletTrace>
randomTraces(std::uint64_t seed, unsigned tasklets,
             bool long_runs = false)
{
    Rng rng(seed);
    std::vector<TaskletTrace> traces(tasklets);
    const unsigned phases = 1 + static_cast<unsigned>(
                                    rng.nextBounded(4));
    for (unsigned phase = 0; phase < phases; ++phase) {
        for (unsigned t = 0; t < tasklets; ++t) {
            auto &trace = traces[t];
            const unsigned pieces = static_cast<unsigned>(
                rng.nextBounded(6));
            for (unsigned p = 0; p < pieces; ++p) {
                switch (rng.nextBounded(long_runs ? 7 : 5)) {
                  case 0:
                    trace.ops(OpClass::IntAdd,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(64)));
                    break;
                  case 1:
                    trace.ops(OpClass::LoadWram,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(16)));
                    break;
                  case 2:
                    trace.dmaRead(8 + static_cast<std::uint32_t>(
                                          rng.nextBounded(2048)));
                    break;
                  case 3:
                    trace.dmaWrite(8 + static_cast<std::uint32_t>(
                                           rng.nextBounded(512)));
                    break;
                  case 4: {
                    const auto id = static_cast<std::uint32_t>(
                        rng.nextBounded(4));
                    trace.mutexLock(id);
                    trace.ops(OpClass::Compare,
                              1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(8)));
                    trace.mutexUnlock(id);
                    break;
                  }
                  case 5:
                    trace.ops(OpClass::FloatAdd,
                              8 + static_cast<std::uint32_t>(
                                      rng.nextBounded(256)));
                    break;
                  default:
                    trace.ops(OpClass::Move,
                              8 + static_cast<std::uint32_t>(
                                      rng.nextBounded(256)));
                    break;
                }
            }
        }
        // Common sync point.
        for (unsigned t = 0; t < tasklets; ++t)
            traces[t].barrier(0);
    }
    return traces;
}

} // namespace alphapim::upmem::testing_support

#endif // ALPHA_PIM_TESTS_UPMEM_RANDOM_TRACES_HH
