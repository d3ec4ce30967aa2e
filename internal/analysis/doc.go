// Package analysis computes the paper's published results from collected
// failure data: the error–failure relationship matrix (Table 2), the SIRA
// effectiveness matrix (Table 3), the dependability improvement report
// (Table 4), the failure-distribution figures (Figures 3a–c and 4), and the
// §6 scalar findings (workload split, idle-time comparison, distance split).
//
// Every campaign's tables come from one fold: a Streamer (NewStreamer with
// a StreamSpec naming every testbed/node stream) folds records into running
// Aggregates as they arrive — per-node shards with their own locks,
// per-shard watermarks, and a fold in a fixed (time, testbed rank, node)
// order — so the memory cost is bounded by the flush cadence, not the
// campaign length. The accumulators behind the tables (Table3Counts,
// DependAccum, ScalarCounts, TaxonomyAccum, SurvivalAccum, the figure
// count maps) are what the Aggregates render from.
//
// Beside the fold, three batch builders serve production:
// BuildEvidenceWithRadius, the batch relator a campaign that kept its
// records uses at any (window, radius) other than the fold's (the only
// path for a radius wider than the window); Fig3aPacketType over the
// workload counters; and Fig3bConnectionAge over the fixed experiment's
// reports. The other batch builders (BuildTable3, BuildDependability,
// Fig3cApplications, Fig4PerHost, BuildScalars) are test oracles:
// TestStreamerMatchesRetainedExactly holds the fold to them digit for
// digit.
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
