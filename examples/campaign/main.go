// Campaign: one streaming campaign end to end — two 7-node testbeds under
// their workloads, every node's records folded into the running aggregates
// behind the paper's tables as they are collected — followed by a
// multi-seed sweep that puts 95 % confidence intervals on Table 2. The
// collection wire (per-testbed agents shipping to a central sink with
// acknowledgements, resume and crash recovery) runs in examples/distributed
// and as the btagent/btsink daemons.
//
// Usage: campaign [-days D] [-seeds N]
package main

import (
	"flag"
	"fmt"

	btpan "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	days := flag.Int("days", 2, "virtual days per campaign")
	seeds := flag.Int("seeds", 3, "sweep seeds for the confidence intervals")
	flag.Parse()
	duration := sim.Time(*days) * btpan.Day

	fmt.Printf("1. running both testbeds for %d virtual day(s), folding records as they stream off the nodes...\n", *days)
	res, err := btpan.RunCampaign(btpan.CampaignConfig{
		Seed:      11,
		Duration:  duration,
		Scenario:  btpan.ScenarioSIRAs,
		Streaming: true,
	})
	if err != nil {
		panic(err)
	}
	u, s, _ := res.DataItems()
	fmt.Printf("   %d user reports, %d system entries folded\n", u, s)

	fmt.Println("2. the paper tables come straight from the folded aggregates...")
	fmt.Printf("   HCI share of user failures: %.1f%% (paper: 49.9%%)\n",
		res.Table2().SourceShare(core.SrcHCI))
	d := res.Dependability()
	fmt.Printf("   MTTF %.2f s, MTTR %.2f s, availability %.3f\n",
		d.MTTF, d.MTTR, d.Availability)

	fmt.Printf("3. sweeping %d seeds for confidence intervals on Table 2...\n", *seeds)
	sweep, err := btpan.Sweep(btpan.SweepConfig{
		BaseSeed: 100, Seeds: *seeds, Duration: duration,
		Scenario: btpan.ScenarioSIRAs,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Print(sweep.Table2CI().Render())
	fmt.Println("\ndone — see cmd/btcampaign for month-scale runs (-days 30..540), and")
	fmt.Println("examples/distributed or btagent/btsink for the collection wire.")
}
