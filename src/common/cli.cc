#include "cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace alphapim
{

bool
CliArgs::next()
{
    ++i_;
    if (i_ >= argc_)
        return false;
    arg_ = argv_[i_];
    inline_value_.clear();
    has_inline_ = false;
    if (const std::size_t eq = arg_.find('=');
        eq != std::string::npos && arg_.rfind("--", 0) == 0) {
        inline_value_ = arg_.substr(eq + 1);
        arg_.resize(eq);
        has_inline_ = true;
    }
    return true;
}

const char *
CliArgs::value()
{
    if (has_inline_)
        return inline_value_.c_str();
    if (i_ + 1 >= argc_) {
        if (on_error_)
            on_error_(arg_);
        return "";
    }
    return argv_[++i_];
}

std::uint64_t
CliArgs::unsignedValue(std::uint64_t lo, std::uint64_t hi)
{
    const char *text = value();
    std::uint64_t v = lo;
    if (!parseUnsigned(text, lo, hi, v)) {
        std::fprintf(stderr,
                     "%s: expected an integer in [%llu, %llu], got "
                     "'%s'\n",
                     arg_.c_str(), static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text);
        if (on_error_)
            on_error_(arg_);
    }
    return v;
}

double
CliArgs::doubleValue(double lo, double hi)
{
    const char *text = value();
    double v = lo;
    if (!parseDouble(text, lo, hi, v)) {
        char range[64];
        if (std::isinf(lo) && std::isinf(hi))
            std::snprintf(range, sizeof range, "a finite number");
        else if (std::isinf(hi))
            std::snprintf(range, sizeof range, "a number >= %g", lo);
        else if (std::isinf(lo))
            std::snprintf(range, sizeof range, "a number <= %g", hi);
        else
            std::snprintf(range, sizeof range, "a number in [%g, %g]",
                          lo, hi);
        std::fprintf(stderr, "%s: expected %s, got '%s'\n",
                     arg_.c_str(), range, text);
        if (on_error_)
            on_error_(arg_);
    }
    return v;
}

bool
parseUnsigned(const char *text, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out)
{
    // strtoull accepts leading blanks and a sign; demand digits.
    if (!text || !std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

bool
parseDouble(const char *text, double lo, double hi, double &out)
{
    if (!text || *text == '\0' ||
        std::isspace(static_cast<unsigned char>(*text)))
        return false;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(v) || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace alphapim
