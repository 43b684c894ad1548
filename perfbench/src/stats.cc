#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

int
TailPercentile(std::size_t n, int cap)
{
    if (n == 0) return 0;
    // Nearest rank of percentile p is ceil(p*n/100); it leaves
    // n - rank samples beyond it, so p qualifies when p*n <= 100*(n-10).
    for (int p = cap; p > 50; --p) {
        const std::size_t rank =
            (static_cast<std::size_t>(p) * n + 99) / 100;
        if (rank + kTailBeyond <= n) return p;
    }
    return 50;
}

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0
                   : std::min(values.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
    return values[index];
}

double
Median(const std::vector<double>& values)
{
    return Percentile(values, 50.0);
}

Summary
Summarize(const std::vector<double>& values, int cap)
{
    Summary s;
    s.count = values.size();
    if (values.empty()) return s;
    s.p50 = Median(values);
    s.tail_percentile = TailPercentile(values.size(), cap);
    s.tail = Percentile(values, s.tail_percentile);
    return s;
}

}  // namespace perfbench
