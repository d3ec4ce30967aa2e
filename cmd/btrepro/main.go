// Command btrepro regenerates every table and figure of the paper's
// evaluation section and prints paper-vs-measured values.
//
// Usage:
//
//	btrepro [-seed N] [-days D] [-quick] [-only ID]
//
// IDs: table2, table3, table4, fig2, fig3a, fig3b, fig3c, fig4, scalars,
// redundant (the closing recommendation: two overlapped piconets with a
// 2 s failover).
// Without -only, everything runs. -quick shrinks the observation windows for
// a fast smoke run, so it takes no -days. Bad flags fail with a one-line
// error and a non-zero exit before anything is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	btpan "repro"
	"repro/cmd/internal/cli"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// experiments lists the -only IDs in run order.
var experiments = []string{"table2", "table3", "table4", "fig2", "fig3a", "fig3b",
	"fig3c", "fig4", "scalars", "redundant"}

// cliConfig is the parsed, validated command line.
type cliConfig struct {
	seed          uint64
	dur, fixedDur sim.Time
	only          string
}

// parseCLI parses and validates the command line. Every validation returns
// an error instead of exiting so the table-driven CLI tests can exercise it
// directly.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btrepro", flag.ContinueOnError)
	c := &cliConfig{}
	fs.Uint64Var(&c.seed, "seed", 1, "campaign seed")
	days := fs.Int("days", 8, "virtual campaign days per scenario, 1..540")
	quick := fs.Bool("quick", false, "fast smoke run (shorter windows; takes no -days)")
	fs.StringVar(&c.only, "only", "", "run a single experiment ("+strings.Join(experiments, ", ")+")")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q (usage: btrepro [-seed N] [-days D] [-quick] [-only ID])", fs.Arg(0))
	}
	if c.only != "" && !slices.Contains(experiments, c.only) {
		return nil, fmt.Errorf("-only %q is not an experiment (want one of %s)", c.only, strings.Join(experiments, ", "))
	}
	modes := cli.Modes{}
	modes.Need("days", cli.Req{OK: !*quick, Why: "is fixed by -quick (2 days)"})
	if err := modes.Check(fs); err != nil {
		return nil, err
	}
	// The campaigns run the SIRAs scenario; the identity check holds the
	// one copy of the -days range.
	if err := (cli.Campaign{Days: *days, Scenario: int(btpan.ScenarioSIRAs)}).Check(); err != nil {
		return nil, err
	}
	c.dur, c.fixedDur = sim.Time(*days)*sim.Day, 16*sim.Day
	if *quick {
		c.dur, c.fixedDur = 2*sim.Day, 4*sim.Day
	}
	return c, nil
}

func main() {
	c, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	want := func(id string) bool { return c.only == "" || c.only == id }

	needCampaign := want("table2") || want("table3") || want("fig2") ||
		want("fig3a") || want("fig3c") || want("fig4") || want("scalars")

	var res *btpan.CampaignResult
	if needCampaign {
		fmt.Printf("== campaign: %v per testbed, seed %d, scenario SIRAs ==\n", c.dur, c.seed)
		var err error
		// Only Figure 2's sweep needs the raw records.
		res, err = btpan.RunCampaign(btpan.CampaignConfig{
			Seed: c.seed, Duration: c.dur, Scenario: btpan.ScenarioSIRAs,
			Streaming: !want("fig2"),
		})
		if err != nil {
			fatal(err)
		}
		u, s, tot := res.DataItems()
		fmt.Printf("collected %d user reports + %d system entries = %d items\n\n", u, s, tot)
	}

	if want("fig2") {
		curve, knee := res.SensitivityCurve()
		fmt.Println("== Figure 2: coalescence-window sensitivity ==")
		fmt.Printf("paper: knee at 330 s; measured knee: %.0f s (%d-point curve)\n", knee, curve.Len())
		fmt.Println(sampleCurve(curve))
	}

	if want("table2") {
		t2 := res.Table2()
		fmt.Println("== Table 2: error-failure relationship (row % local/NAP) ==")
		fmt.Print(t2.Render())
		fmt.Printf("\npaper anchors: HCI explains 49.9%% of failures -> measured %.1f%%\n",
			t2.SourceShare(core.SrcHCI))
		fmt.Printf("  PAN connect <- SDP 96.5%% -> measured %.1f%%\n",
			t2.RowShare(core.UFPANConnectFailed, core.SrcSDP))
		fmt.Printf("  Sw role request <- HCI 91.1%% -> measured %.1f%%\n\n",
			t2.RowShare(core.UFSwitchRoleRequestFailed, core.SrcHCI))
	}

	if want("table3") {
		t3 := res.Table3()
		fmt.Println("== Table 3: SIRA effectiveness (row %) ==")
		fmt.Print(t3.Render())
		fmt.Printf("\npaper anchors: NAP-not-found -> stack reset 61.4%% -> measured %.1f%%\n",
			t3.Share(core.UFNAPNotFound, core.RABTStackReset))
		fmt.Printf("  packet loss -> socket reset 5.9%% -> measured %.1f%%\n",
			t3.Share(core.UFPacketLoss, core.RAIPSocketReset))
		fmt.Printf("  connect failed expensive (>=app restart) 84.6%% -> measured %.1f%%\n\n",
			t3.ExpensiveShare(core.UFConnectFailed))
	}

	if want("table4") {
		fmt.Println("== Table 4: dependability improvement (4 scenario campaigns) ==")
		t4, err := btpan.Table4(c.seed, c.dur)
		if err != nil {
			fatal(err)
		}
		fmt.Print(t4.Render())
		a, b, m := t4.Improvement()
		fmt.Printf("\npaper: avail +36.6%% vs reboot-only -> measured %+.1f%%\n", a)
		fmt.Printf("paper: avail +3.64%% vs app+reboot -> measured %+.2f%%\n", b)
		fmt.Printf("paper: MTTF +202%% with masking -> measured %+.0f%%\n\n", m)
	}

	if want("fig3a") {
		fmt.Println("== Figure 3a: packet loss by baseband packet type (random WL) ==")
		fmt.Print(analysis.RenderBars("per-byte loss share (paper: DM1 worst ... DH5 best; prefer multi-slot, prefer DHx)",
			res.Fig3a(), 40))
		fmt.Println()
	}

	if want("fig3b") {
		fmt.Println("== Figure 3b: packet loss vs connection age (fixed WL, Verde+Win) ==")
		fres, err := btpan.RunFixedExperiment(btpan.FixedExperimentConfig{Seed: c.seed, Duration: c.fixedDur})
		if err != nil {
			fatal(err)
		}
		bars := btpan.Fig3b(fres, 1000, 10)
		fmt.Print(analysis.RenderBars("share of losses by packets sent before the loss (paper: young connections fail more)",
			bars, 40))
		fmt.Println()
	}

	if want("fig3c") {
		fmt.Println("== Figure 3c: packet loss by application (realistic WL) ==")
		fmt.Print(analysis.RenderBars("share of losses by emulated application (paper: P2P > Streaming > Web/Mail/FTP)",
			res.Fig3c(), 40))
		fmt.Println()
	}

	if want("fig4") {
		fmt.Println("== Figure 4: user failures per host (realistic WL) ==")
		fmt.Print(analysis.RenderFig4(res.Fig4()))
		fmt.Println("paper: bind failures only on Azzurro and Win; switch-role-command failures concentrate on the PDAs")
		fmt.Println()
	}

	if want("scalars") {
		s := res.Scalars()
		fmt.Println("== Section 6 scalars ==")
		fmt.Printf("random workload share of failures: paper 84%% -> measured %.1f%%\n", s.RandomSharePct)
		fmt.Printf("idle time before failed cycles:    paper 27.3 s -> measured %.1f s\n", s.IdleBeforeFailedMean)
		fmt.Printf("idle time before clean cycles:     paper 26.9 s -> measured %.1f s\n", s.IdleBeforeCleanMean)
		fmt.Printf("failure share by distance (paper 33.33/37.14/29.63 %% at 0.5/5/7 m):\n")
		for _, d := range []float64{0.5, 5, 7} {
			fmt.Printf("  %.1f m: %.2f%%\n", d, s.DistanceShares[d])
		}
		fmt.Printf("window: %v of paper-scale operation (paper: 18 months, 356,551 items)\n", c.dur)
	}

	if want("redundant") {
		fmt.Println("== Redundant piconets: two overlapped SIRAs+masking piconets, 2 s failover ==")
		dep, err := btpan.RedundantPiconets(c.seed, c.dur, 2*sim.Second)
		if err != nil {
			fatal(err)
		}
		fmt.Print(dep.Render())
		fmt.Println("paper: redundant, overlapped piconets for critical deployments, beyond SIRAs and masking")
	}
}

// sampleCurve prints every 12th point of the sensitivity curve so the knee
// region is visible in text form.
func sampleCurve(c *stats.Curve) string {
	var b strings.Builder
	for i := 0; i < c.Len(); i += 12 {
		fmt.Fprintf(&b, "  W=%5.0fs  tuples=%6.2f%% of events\n", c.X[i], c.Y[i])
	}
	return b.String()
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btrepro:", err)
	os.Exit(1)
}
