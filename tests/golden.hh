/**
 * @file
 * Byte-identity golden files for the test suites: compare a produced
 * text against tests/data/<name>, or rewrite the file when
 * SKIPSIM_REGOLD is set (only legitimate when a change intentionally
 * alters simulation semantics). A test that uses it compiles with
 * SKIPSIM_TESTS_DATA_DIR pointing at tests/data.
 */

#ifndef SKIPSIM_TESTS_GOLDEN_HH
#define SKIPSIM_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef SKIPSIM_TESTS_DATA_DIR
#define SKIPSIM_TESTS_DATA_DIR "tests/data"
#endif

namespace skipsim::golden
{

inline std::string
goldenPath(const std::string &name)
{
    return std::string(SKIPSIM_TESTS_DATA_DIR) + "/" + name;
}

inline bool
regoldRequested()
{
    const char *env = std::getenv("SKIPSIM_REGOLD");
    return env != nullptr && *env != '\0';
}

inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Compare @p produced against the golden file (or rewrite it). */
inline void
checkGolden(const std::string &name, const std::string &produced)
{
    const std::string path = goldenPath(name);
    if (regoldRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << produced;
        SUCCEED() << "regolded " << path;
        return;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing golden " << path
        << " (record with SKIPSIM_REGOLD=1)";
    // Byte-identical, not approximately equal: the refactored engines
    // must reproduce the pre-port generative process exactly.
    EXPECT_EQ(expected, produced) << "golden mismatch: " << name;
}

} // namespace skipsim::golden

#endif // SKIPSIM_TESTS_GOLDEN_HH
