#pragma once

/**
 * @file
 * Shared command-line scanning for the alphapim_* tools and the
 * bench harness.
 *
 * Every binary accepts the same two spellings for a flag that takes
 * a value -- `--flag value` and `--flag=value` -- and the scanning
 * loop implementing that convention used to be duplicated across the
 * tools. CliArgs is that loop: it walks argv, splits an inline
 * `=value` off the flag token, and hands the value back from either
 * spelling. Flags that treat a bare spelling differently from an
 * inline list (e.g. `--check` vs `--check=race,dma`) branch on
 * hasInlineValue(). Numeric flags read their value through
 * unsignedValue() / doubleValue(), which turn a malformed or
 * out-of-range value into the tool's usage error.
 */

#include <cstdint>
#include <functional>
#include <string>

namespace alphapim
{

/** Cursor over argv implementing the `--flag value` /
 * `--flag=value` convention. Typical use:
 *
 *   CliArgs args(argc, argv, [](const std::string &) { usage(); });
 *   while (args.next()) {
 *       if (args.arg() == "--seed")
 *           seed = args.unsignedValue(0, UINT64_MAX);
 *       else if (args.isFlag())
 *           usage();
 *       else
 *           positional.push_back(args.arg());
 *   }
 */
class CliArgs
{
  public:
    /** Called when a flag's value is missing (neither an inline
     * `=value` nor a following argv token) or, for the numeric
     * readers, malformed. Receives the flag name; expected not to
     * return (the tools call their [[noreturn]] usage()), but if it
     * does, value() yields "" and the numeric readers their `lo`. */
    using UsageErrorHandler =
        std::function<void(const std::string &flag)>;

    CliArgs(int argc, char **argv, UsageErrorHandler onError)
        : argc_(argc), argv_(argv), on_error_(std::move(onError))
    {
    }

    /** Advance to the next argv token. False when exhausted. */
    bool next();

    /** The current token, with any inline `=value` stripped. */
    const std::string &arg() const { return arg_; }

    /** True when the current token starts with `--`. */
    bool isFlag() const { return arg_.rfind("--", 0) == 0; }

    /** True when the current token carried an inline `=value`. */
    bool hasInlineValue() const { return has_inline_; }

    /** The inline `=value` ("" when there was none). Does not
     * consume the next argv token. */
    const std::string &inlineValue() const { return inline_value_; }

    /** The flag's value: the inline `=value` when present, else the
     * next argv token (consumed). Invokes the missing-value handler
     * when neither exists. */
    const char *value();

    /** The flag's value as a decimal integer in [lo, hi]. Anything
     * else -- a sign, other characters, overflow, a value outside
     * the range -- is reported on stderr and handed to the usage
     * error handler. */
    std::uint64_t unsignedValue(std::uint64_t lo, std::uint64_t hi);

    /** The flag's value as a finite number in [lo, hi] (an
     * infinite bound leaves that side open), reported like
     * unsignedValue() otherwise. */
    double doubleValue(double lo, double hi);

  private:
    int argc_;
    char **argv_;
    int i_ = 0;
    std::string arg_;
    std::string inline_value_;
    bool has_inline_ = false;
    UsageErrorHandler on_error_;
};

/** Parse `text` as a plain decimal integer (digits only) in
 * [lo, hi]; false leaves `out` unchanged. */
bool parseUnsigned(const char *text, std::uint64_t lo, std::uint64_t hi,
                   std::uint64_t &out);

/** Parse `text` as a finite number in [lo, hi] with nothing after
 * it; false leaves `out` unchanged. */
bool parseDouble(const char *text, double lo, double hi, double &out);

} // namespace alphapim
