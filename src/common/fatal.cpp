#include "common/fatal.hpp"

#include <cstdio>
#include <cstdlib>

namespace dvsnet
{

std::string
joinProblems(const std::string &what,
             const std::vector<std::string> &problems)
{
    std::string msg = what + ":";
    for (std::size_t i = 0; i < problems.size(); ++i) {
        msg += (i == 0 ? " " : "; ") + problems[i];
    }
    return msg;
}

int
reportFatal(const ConfigError &error)
{
    std::fprintf(stderr, "fatal: %s\n", error.what());
    return 1;
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

} // namespace dvsnet
