/**
 * @file
 * Field-class diff of two journals of "the same" run.
 *
 * Where BisectDivergence answers "where did these runs first go
 * wrong", DiffJournals answers "which kinds of record changed at all".
 * It compares the two journals one field class at a time — window
 * close times, kernel event-stream hashes, RPC stream hashes, decision
 * spans, fault records, reconfiguration records and checkpoint state
 * bytes — and reports, per class, how many records differ and the
 * first window that does. Checkpoint differences are narrowed to the
 * byte ranges that changed, so a change that only moves kernel
 * counters (a different event schedule for the same decisions) is told
 * apart from one that moves controller state.
 */
#ifndef DYNAMO_REPLAY_JOURNAL_DIFF_H_
#define DYNAMO_REPLAY_JOURNAL_DIFF_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "replay/journal.h"

namespace dynamo::replay {

/** One field class compared across two journals. */
struct FieldDiff
{
    /** "windows", "kernel_hash", "rpc_hash", "spans", "faults", … */
    std::string field;

    /** Records compared (the longer journal's count). */
    std::size_t compared = 0;

    /** Records that differ, counting records only one side has. */
    std::size_t differing = 0;

    /** First window with a differing record (-1 when identical). */
    std::int64_t first_window = -1;

    /** What differed first (span field diff, byte ranges, …). */
    std::string detail;

    bool identical() const { return differing == 0; }
};

/** The per-field-class comparison of two journals. */
struct JournalDiff
{
    /** Header fields (spec, scenario, cadence) that differ; empty if none. */
    std::vector<std::string> header;

    /**
     * windows, kernel_hash, rpc_hash, spans, faults, reconfigs,
     * checkpoints — in that order.
     */
    std::vector<FieldDiff> fields;

    /**
     * Union of the checkpoint byte ranges [begin, end) that differ,
     * over every checkpoint pair; bytes past the shorter state count.
     */
    std::vector<std::pair<std::size_t, std::size_t>> checkpoint_ranges;

    bool identical() const;
};

/** Compare `a` against `b` field class by field class. */
JournalDiff DiffJournals(const Journal& a, const Journal& b);

/** One line per field class, plus the header and byte-range summary. */
std::string FormatJournalDiff(const JournalDiff& diff);

}  // namespace dynamo::replay

#endif  // DYNAMO_REPLAY_JOURNAL_DIFF_H_
