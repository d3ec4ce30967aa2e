// Command btmerge folds the partials exported by horizontally sharded
// btsink processes (-partial-dir) into the one campaign report a single
// sink hosting every testbed would have printed — byte-identical to
// `btcampaign -stream` at the same seeds, which is the property the
// multi-tenant chaos script asserts.
//
// Each partial carries one shard's finalized aggregates plus the
// fold-ordered dependability event trace; the merge combines the
// order-insensitive state algebraically and replays the merged trace
// through a fresh accumulator, so the order-sensitive Table 4 statistics
// come out exactly as an unsharded run computes them (the merge laws are
// pinned by the analysis and collector test suites). The partials must
// disjointly cover the campaign's testbeds and agree on the campaign
// identity, or the merge fails loudly. Data loss (sequence gaps, dropped
// records) fails the merge BEFORE any report is printed — a report implying
// completeness must never precede the verdict that the data is incomplete.
//
// With -scatternet the inputs are instead the district partials exported by
// btsink -district keyspaces (DIR/<key>.district.json): the merge validates
// campaign and scatternet agreement and exact disjoint coverage of the
// piconet space, re-interleaves the deployment trace by total (time,
// piconet, seq) order, and prints the hierarchical metro report
// byte-identical to `btcampaign -scatternet -rollup -stream` at the same
// seed (modulo the campaign banner line).
//
// Usage:
//
//	btmerge [flags] PARTIAL.json...
//
// Flags:
//
//	-seed N          campaign seed (default 1); must match the partials'
//	-days D          virtual campaign days 1..540 (default 4); must match
//	-scenario 1..4   recovery regime (default 3); must match the partials'
//	-scatternet      merge scatternet district partials into the metro report
//	-taxonomy        append the failure-taxonomy / survival report, matching
//	                 `btcampaign -taxonomy` (or -scatternet -rollup -taxonomy)
//	                 byte for byte at the same seeds
//
// Every flag applies to both the flat and the -scatternet merge. A district
// partial carries its scatternet shape (-hold, -redundancy and the rest as
// its btsink -district SPEC gave them), so btmerge takes no shape flags; it
// checks that the partials agree on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	btpan "repro"
	"repro/cmd/internal/cli"
	"repro/internal/collector"
	"repro/internal/testbed"
)

// cliConfig is the parsed, cross-validated command line.
type cliConfig struct {
	id       cli.Campaign
	scat     bool
	taxonomy bool
	paths    []string
}

// parseCLI parses and validates the command line. Every validation returns
// an error instead of exiting so the table-driven CLI tests can exercise it
// directly.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btmerge", flag.ContinueOnError)
	c := &cliConfig{}
	c.id.Register(fs)
	fs.BoolVar(&c.scat, "scatternet", false, "merge scatternet district partials into the metro report")
	fs.BoolVar(&c.taxonomy, "taxonomy", false,
		"append the failure-taxonomy / survival report to the merged output")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := c.id.Check(); err != nil {
		return nil, err
	}
	if fs.NArg() == 0 {
		return nil, fmt.Errorf("no partial files given (usage: btmerge [flags] PARTIAL.json...)")
	}
	c.paths = fs.Args()
	return c, nil
}

func main() {
	c, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	campaign := c.id.Config().ID()

	if c.scat {
		mergeDistricts(campaign, c.paths, c.taxonomy)
		return
	}

	parts, err := readPartials(c.paths, campaign,
		func(p *collector.Partial) collector.CampaignID { return p.Campaign })
	if err != nil {
		fatal(err)
	}
	rep, err := collector.MergePartials(testbed.CampaignStreamSpec(), parts)
	if err != nil {
		fatal(err)
	}
	// Loss is checked BEFORE the report is written: a merge that detected
	// sequence gaps or dropped records must not emit a report that looks
	// complete to anything consuming stdout.
	if rep.Agg.SeqGaps > 0 || rep.Agg.DroppedRecords > 0 {
		fatal(fmt.Errorf("data loss: %d sequence gaps, %d dropped records",
			rep.Agg.SeqGaps, rep.Agg.DroppedRecords))
	}
	cfg := c.id.Config()
	cfg.Streaming = true
	res, err := btpan.ResultFromAggregates(cfg, rep.Agg, rep.Counters, rep.Durations)
	if err != nil {
		fatal(err)
	}
	btpan.WriteReport(os.Stdout, res)
	if c.taxonomy {
		btpan.WriteTaxonomyReport(os.Stdout, res)
	}
}

// mergeDistricts folds scatternet district partials into the metro rollup
// and prints it exactly as `btcampaign -scatternet -rollup -stream` does
// (sans the banner line).
func mergeDistricts(campaign collector.CampaignID, paths []string, taxonomy bool) {
	parts, err := readPartials(paths, campaign,
		func(p *collector.DistrictPartial) collector.CampaignID { return p.Campaign })
	if err != nil {
		fatal(err)
	}
	roll, redundancy, err := collector.MergeDistricts(parts)
	if err != nil {
		fatal(err)
	}
	// Loss-before-report, metro edition: the fold carries the piconets'
	// summed transport counters through the exact aggregate merge.
	if roll.Agg.SeqGaps > 0 || roll.Agg.DroppedRecords > 0 {
		fatal(fmt.Errorf("data loss: %d sequence gaps, %d dropped records",
			roll.Agg.SeqGaps, roll.Agg.DroppedRecords))
	}
	btpan.WriteMetroReport(os.Stdout, roll, redundancy, campaign.Duration, taxonomy)
}

// readPartials reads one partial of type T per path — flat shard partials
// or district partials. Partials are trailer-guarded durable writes, so one
// torn by a sink crash mid-export is rejected here rather than half-merged;
// each must also come from the campaign the flags name.
func readPartials[T any](paths []string, campaign collector.CampaignID,
	campaignOf func(*T) collector.CampaignID) ([]*T, error) {
	parts := make([]*T, 0, len(paths))
	for _, path := range paths {
		blob, err := collector.ReadFileDurable(path)
		if err != nil {
			return nil, err
		}
		p := new(T)
		if err := json.Unmarshal(blob, p); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if c := campaignOf(p); c != campaign {
			return nil, fmt.Errorf("%s: partial is from campaign seed %d, %v, scenario %d "+
				"(flags say seed %d, %v, scenario %d)", path, c.Seed, c.Duration, c.Scenario,
				campaign.Seed, campaign.Duration, campaign.Scenario)
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btmerge:", err)
	os.Exit(1)
}
