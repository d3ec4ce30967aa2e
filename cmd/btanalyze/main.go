// Command btanalyze re-runs the analysis over stored campaign logs (the
// user.jsonl and system.jsonl files btcampaign -out writes): the
// coalescence sensitivity sweep with knee detection (Figure 2), the
// error-failure relationship table (Table 2) at the chosen coalescence
// window, and the SIRA effectiveness table (Table 3). The records are
// folded as a live campaign folds them (btpan.ResultFromRecords), so at
// the paper's 330 s window Tables 2 and 3 equal the campaign's own on the
// same records; any other window reruns the merge-and-coalesce pipeline
// over the stored records.
//
// Usage:
//
//	btanalyze [-dir DIR] [-window SECONDS]
//
// -dir defaults to campaign-data; -window takes 1..86400 seconds and
// defaults to the paper's 330. A bad flag fails with a one-line error and
// a non-zero exit before anything is printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
)

// maxWindowS bounds -window: a coalescence window of a day already merges
// a whole campaign day into one tuple.
const maxWindowS = 86400

// cliConfig is the parsed, validated command line.
type cliConfig struct {
	dir    string
	window sim.Time
}

// parseCLI parses and validates the command line. Every validation returns
// an error instead of exiting so the table-driven CLI tests can exercise it
// directly.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btanalyze", flag.ContinueOnError)
	c := &cliConfig{}
	fs.StringVar(&c.dir, "dir", "campaign-data", "directory holding user.jsonl and system.jsonl")
	windowS := fs.Int("window", 330, "coalescence window in seconds, 1..86400 (paper: 330)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected argument %q (usage: btanalyze [-dir DIR] [-window SECONDS])", fs.Arg(0))
	case c.dir == "":
		return nil, fmt.Errorf("-dir is empty")
	case *windowS < 1 || *windowS > maxWindowS:
		return nil, fmt.Errorf("-window %d out of range 1..%d seconds", *windowS, maxWindowS)
	}
	c.window = sim.Time(*windowS) * sim.Second
	return c, nil
}

func main() {
	c, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if err := run(c, os.Stdout); err != nil {
		fatal(err)
	}
}

// run loads the records in c.dir and prints the analysis to w.
func run(c *cliConfig, w io.Writer) error {
	reports, err := readReports(filepath.Join(c.dir, "user.jsonl"))
	if err != nil {
		return err
	}
	entries, err := readEntries(filepath.Join(c.dir, "system.jsonl"))
	if err != nil {
		return err
	}
	res, err := btpan.ResultFromRecords(reports, entries)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %d user reports, %d system entries\n\n", len(reports), len(entries))

	_, knee := res.SensitivityCurve()
	fmt.Fprintf(w, "coalescence sensitivity: knee at %.0f s (paper picks 330 s)\n\n", knee)

	fmt.Fprintln(w, "== Table 2: error-failure relationship ==")
	fmt.Fprint(w, analysis.BuildTable2(res.Evidence(c.window)).Render())

	fmt.Fprintln(w, "\n== Table 3: SIRA effectiveness ==")
	fmt.Fprint(w, res.Table3().Render())
	return nil
}

// readReports reads a user.jsonl file.
func readReports(path string) ([]core.UserReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logging.ReadUserReports(f)
}

// readEntries reads a system.jsonl file.
func readEntries(path string) ([]core.SystemEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logging.ReadSystemEntries(f)
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btanalyze:", err)
	os.Exit(1)
}
