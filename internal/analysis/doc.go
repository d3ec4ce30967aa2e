// Package analysis computes the paper's published results from collected
// failure data: the error–failure relationship matrix (Table 2), the SIRA
// effectiveness matrix (Table 3), the dependability improvement report
// (Table 4), the failure-distribution figures (Figures 3a–c and 4), and the
// §6 scalar findings (workload split, idle-time comparison, distance split).
//
// The package offers the same results on two collection planes:
//
//   - Retained: the Build* functions (BuildTable2, BuildTable3,
//     BuildDependability, BuildScalars, the Fig* builders) operate on plain
//     record slices / workload counters, so they analyse live campaign
//     results or log files read back from disk (btcampaign -out).
//   - Streaming: a Streamer (NewStreamer with a StreamSpec naming every
//     testbed/node stream) folds records into running Aggregates as they
//     arrive — per-node shards with their own locks, per-shard watermarks,
//     and a fold in the retained pipeline's exact (time, testbed rank,
//     node) order — so the memory cost is bounded by the flush cadence,
//     not the campaign length, and every table is bit-identical to the
//     retained build of the same seed. The streaming-friendly accumulators
//     behind the tables (Table3Counts, DependAccum, ScalarCounts, the
//     figure count maps) are shared by both planes.
//
// Multi-seed sweeps summarize per-seed tables into confidence-interval
// views (Table2CI, Table3CI, DependabilityCI, ScalarsCI): every
// cell becomes a mean ± 95 % CI estimate over the seeds.
//
// Scatternet campaigns add two aggregate families on top of the
// per-piconet tables: BridgeAccum/BridgeTable attribute inter-piconet
// traffic and correlated outages to the bridge nodes, and PiconetOverview
// lines the per-piconet dependability columns up side by side.
package analysis
