#ifndef RICD_OBS_METRIC_NAMES_H_
#define RICD_OBS_METRIC_NAMES_H_

/// Central registry of every dotted instrument name used by library code.
/// Naming convention stays `module.stage.metric` (see MetricsRegistry); the
/// point of routing all library call sites through these constants is that
/// a typo'd name no longer silently creates a dead series — the
/// `metric-name-literal` ricd_lint rule rejects ad-hoc string literals in
/// GetCounter/GetGauge/GetHistogram calls anywhere under src/. Tests,
/// benches and tools may still use throwaway literal names.
///
/// Keep the list grouped by module and alphabetical within a group, so a
/// reviewer can diff the exported series of a release at a glance.

namespace ricd::obs::metric_names {

// --- check: invariant validators ---
inline constexpr char kCheckValidationsRun[] = "check.validations_run";
inline constexpr char kCheckViolations[] = "check.violations";

// --- engine: worker pool ---
inline constexpr char kEnginePoolQueueWaitSeconds[] =
    "engine.pool.queue_wait_seconds";
inline constexpr char kEnginePoolTaskRunSeconds[] =
    "engine.pool.task_run_seconds";
inline constexpr char kEnginePoolTasksTotal[] = "engine.pool.tasks_total";
inline constexpr char kEnginePoolUtilization[] = "engine.pool.utilization";
inline constexpr char kEnginePoolWorkers[] = "engine.pool.workers";

// --- gen: scenario generator ---
inline constexpr char kGenScenarioInjectedGroups[] =
    "gen.scenario.injected_groups";
inline constexpr char kGenScenarioRows[] = "gen.scenario.rows";

// --- ricd: detection pipeline ---
inline constexpr char kRicdExtractionCandidateGroups[] =
    "ricd.extraction.candidate_groups";
inline constexpr char kRicdExtractionCoreLevels[] =
    "ricd.extraction.core_levels";
inline constexpr char kRicdExtractionItemsPrunedCore[] =
    "ricd.extraction.items_pruned_core";
inline constexpr char kRicdExtractionItemsPrunedSquare[] =
    "ricd.extraction.items_pruned_square";
inline constexpr char kRicdExtractionRoundRechecks[] =
    "ricd.extraction.round_rechecks";
inline constexpr char kRicdExtractionRounds[] = "ricd.extraction.rounds";
inline constexpr char kRicdExtractionScratchReuses[] =
    "ricd.extraction.scratch_reuses";
inline constexpr char kRicdExtractionSquareInputEdges[] =
    "ricd.extraction.square_input_edges";
inline constexpr char kRicdExtractionSweeps[] = "ricd.extraction.sweeps";
inline constexpr char kRicdExtractionUsersPrunedCore[] =
    "ricd.extraction.users_pruned_core";
inline constexpr char kRicdExtractionUsersPrunedSquare[] =
    "ricd.extraction.users_pruned_square";
inline constexpr char kRicdFeedbackLastGroupsSurvived[] =
    "ricd.feedback.last_groups_survived";
inline constexpr char kRicdFeedbackLastNodesFlagged[] =
    "ricd.feedback.last_nodes_flagged";
inline constexpr char kRicdFeedbackRoundsTotal[] = "ricd.feedback.rounds_total";
inline constexpr char kRicdGenerationSeedKeptItems[] =
    "ricd.generation.seed_kept_items";
inline constexpr char kRicdGenerationSeedKeptUsers[] =
    "ricd.generation.seed_kept_users";
inline constexpr char kRicdIdentificationFlaggedItems[] =
    "ricd.identification.flagged_items";
inline constexpr char kRicdIdentificationFlaggedUsers[] =
    "ricd.identification.flagged_users";
inline constexpr char kRicdScreeningGroupsIn[] = "ricd.screening.groups_in";
inline constexpr char kRicdScreeningGroupsSurvived[] =
    "ricd.screening.groups_survived";
inline constexpr char kRicdScreeningItemsRemoved[] =
    "ricd.screening.items_removed";
inline constexpr char kRicdScreeningUsersRemoved[] =
    "ricd.screening.users_removed";

// --- shard: partitioned graph engine ---
inline constexpr char kShardBalanceRatio[] = "ricd.shard.balance_ratio";
inline constexpr char kShardBuildSeconds[] = "ricd.shard.build_seconds";
inline constexpr char kShardCandidatesTotal[] = "ricd.shard.candidates_total";
inline constexpr char kShardCount[] = "ricd.shard.count";
inline constexpr char kShardEdgesMax[] = "ricd.shard.edges_max";
inline constexpr char kShardEdgesTotal[] = "ricd.shard.edges_total";
inline constexpr char kShardMergeSeconds[] = "ricd.shard.merge_seconds";
inline constexpr char kShardPruneSeconds[] = "ricd.shard.prune_seconds";
inline constexpr char kShardReloads[] = "ricd.shard.reloads";
inline constexpr char kShardSpills[] = "ricd.shard.spills";
/// Per-shard series are minted dynamically from these printf formats
/// (ricd.shard.3.edges, ...); the formats live here so the dynamic names
/// stay greppable next to the static ones.
inline constexpr char kShardEdgesFormat[] = "ricd.shard.%u.edges";
inline constexpr char kShardCandidatesFormat[] = "ricd.shard.%u.candidates";

// --- serve: online detection service + TCP front end ---
inline constexpr char kServeDrainBatchSeconds[] = "serve.drain_batch.seconds";
inline constexpr char kServeEpoch[] = "serve.epoch";
inline constexpr char kServeIngestAccepted[] = "serve.ingest.accepted";
inline constexpr char kServeIngestBatches[] = "serve.ingest.batches";
inline constexpr char kServeIngestRejected[] = "serve.ingest.rejected";
inline constexpr char kServePublishSeconds[] = "serve.publish.seconds";
inline constexpr char kServeQueries[] = "serve.queries";
inline constexpr char kServeQueueDepth[] = "serve.queue.depth";
inline constexpr char kServeQueueWaitSeconds[] = "serve.queue.wait_seconds";
inline constexpr char kServeRebuildInProgress[] = "serve.rebuild.in_progress";
inline constexpr char kServeRebuildOverlapSeconds[] =
    "serve.rebuild.overlap_seconds";
inline constexpr char kServeRebuilds[] = "serve.rebuilds";
inline constexpr char kServeRefreshSeconds[] = "serve.refresh.seconds";
inline constexpr char kServeRequestIngestSeconds[] =
    "serve.request.ingest_seconds";
inline constexpr char kServeRequestQuerySeconds[] =
    "serve.request.query_seconds";
inline constexpr char kServeServerProtocolErrors[] =
    "serve.server.protocol_errors";
inline constexpr char kServeServerRequestSeconds[] =
    "serve.server.request_seconds";
inline constexpr char kServeServerRequests[] = "serve.server.requests";
inline constexpr char kServeTraceSampled[] = "serve.trace.sampled";

// --- window: bounded click retention ---
inline constexpr char kWindowEvictRowsTotal[] = "window.evict.rows_total";
inline constexpr char kWindowEvictSegmentsTotal[] =
    "window.evict.segments_total";
inline constexpr char kWindowRetainedDecayedMass[] =
    "window.retained.decayed_mass";
inline constexpr char kWindowRetainedRows[] = "window.retained.rows";
inline constexpr char kWindowRetainedSegments[] = "window.retained.segments";
inline constexpr char kWindowSealSegmentsTotal[] = "window.seal.segments_total";

// --- snapshot: binary graph container ---
inline constexpr char kSnapshotBytesMapped[] = "snapshot.bytes_mapped";
inline constexpr char kSnapshotBytesRead[] = "snapshot.bytes_read";
inline constexpr char kSnapshotBytesWritten[] = "snapshot.bytes_written";
inline constexpr char kSnapshotLoads[] = "snapshot.loads";
inline constexpr char kSnapshotSaves[] = "snapshot.saves";

}  // namespace ricd::obs::metric_names

#endif  // RICD_OBS_METRIC_NAMES_H_
