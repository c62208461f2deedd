/**
 * @file
 * Exact field-by-field comparison of DPU profiles, shared by the
 * replay and launch differential tests.
 */

#ifndef ALPHA_PIM_TESTS_UPMEM_PROFILE_MATCH_HH
#define ALPHA_PIM_TESTS_UPMEM_PROFILE_MATCH_HH

#include <gtest/gtest.h>

#include <sstream>

#include "upmem/profile.hh"

namespace alphapim::upmem::testing_support
{

/** Field-by-field exact comparison of two profiles. */
inline testing::AssertionResult
sameProfile(const DpuProfile &want, const DpuProfile &got)
{
    std::ostringstream diff;
    auto check = [&](const char *field, auto a, auto b) {
        if (a != b)
            diff << " " << field << " " << a << " != " << b << ";";
    };
    check("totalCycles", want.totalCycles, got.totalCycles);
    check("issuedCycles", want.issuedCycles, got.issuedCycles);
    for (unsigned r = 0;
         r < static_cast<unsigned>(StallReason::NumReasons); ++r) {
        check(stallReasonName(static_cast<StallReason>(r)),
              want.stallCycles[r], got.stallCycles[r]);
    }
    for (unsigned c = 0; c < numOpClasses; ++c) {
        check(opClassName(static_cast<OpClass>(c)),
              want.instrByClass[c], got.instrByClass[c]);
    }
    check("activeThreadCycles", want.activeThreadCycles,
          got.activeThreadCycles);
    check("mramReadBytes", want.mramReadBytes, got.mramReadBytes);
    check("mramWriteBytes", want.mramWriteBytes, got.mramWriteBytes);
    if (diff.str().empty())
        return testing::AssertionSuccess();
    return testing::AssertionFailure() << "(reference != replay):"
                                       << diff.str();
}

} // namespace alphapim::upmem::testing_support

#endif // ALPHA_PIM_TESTS_UPMEM_PROFILE_MATCH_HH
