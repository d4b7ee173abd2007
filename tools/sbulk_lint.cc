/**
 * @file
 * sbulk-lint: static auditor for the protocols' declared dispatch tables
 * (see ANALYSIS.md).
 *
 * Runs the three analyses in src/lint/ — exhaustiveness, Appendix-A
 * ordering conformance, group-formation liveness — over every registered
 * controller table. No simulation happens; the audits read only the
 * tables' declarations.
 *
 *   sbulk-lint                       # audit everything, exit 1 on findings
 *   sbulk-lint --protocols tcc,seq   # audit a subset
 *   sbulk-lint --dump                # print the declared tables
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lint/lint.hh"

namespace
{

using namespace sbulk;

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: sbulk-lint [options]\n"
        "  --protocols P,Q   audit only these protocols\n"
        "                    (scalablebulk | tcc | seq | bulksc)\n"
        "  --dump            print every declared table and exit\n"
        "  --quiet           findings only, no per-table summary\n");
    std::exit(code);
}

bool
selected(const std::vector<std::string>& protocols, const char* name)
{
    if (protocols.empty())
        return true;
    for (const std::string& p : protocols)
        if (p == name)
            return true;
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> protocols;
    bool dump = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--protocols" && i + 1 < argc) {
            std::string list = argv[++i];
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = list.find(',', pos);
                protocols.push_back(list.substr(
                    pos, comma == std::string::npos ? comma : comma - pos));
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (arg == "--dump") {
            dump = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(2);
        }
    }

    std::size_t audited = 0;
    std::vector<lint::Finding> findings;
    for (const DispatchSpec* spec : allDispatchSpecs()) {
        if (!selected(protocols, spec->protocol))
            continue;
        ++audited;
        if (dump) {
            std::fputs(lint::renderSpec(*spec).c_str(), stdout);
            std::fputc('\n', stdout);
            continue;
        }
        std::size_t lifecycles = 0;
        std::vector<lint::Finding> mine = lint::auditExhaustiveness(*spec);
        // Semantic audits only run over structurally sound tables.
        if (mine.empty()) {
            for (lint::Finding& f : lint::auditOrdering(*spec, &lifecycles))
                mine.push_back(std::move(f));
            for (lint::Finding& f : lint::auditGroupFormation(*spec))
                mine.push_back(std::move(f));
            for (lint::Finding& f : lint::auditRecovery(*spec))
                mine.push_back(std::move(f));
        }
        for (lint::Finding& f : mine)
            findings.push_back(std::move(f));
        if (!quiet) {
            std::printf("%s.%s: %zu rows", spec->protocol, spec->controller,
                        spec->numRows);
            if (lifecycles)
                std::printf(", %zu declared lifecycles checked", lifecycles);
            if (spec->conflict != ConflictPolicy::None)
                std::printf(", conflict policy %s",
                            conflictPolicyName(spec->conflict));
            std::printf("\n");
        }
    }

    if (dump)
        return 0;
    if (audited == 0) {
        std::fprintf(stderr, "no tables matched the protocol filter\n");
        return 2;
    }

    for (const lint::Finding& f : findings)
        std::printf("FINDING [%s] %s: %s\n", f.analysis.c_str(),
                    f.where.c_str(), f.message.c_str());
    std::printf("%zu table(s) audited, %zu finding(s)\n", audited,
                findings.size());
    return findings.empty() ? 0 : 1;
}
