package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	btpan "repro"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The CLI validation table: every rejected command line names the offending
// flag and every accepted one parses cleanly — these pin the bugfix sweep
// (probe-sample domain checks at the flag boundary, scatternet-only flags
// rejected on flat campaigns, rollup/sweep cross-checks).
func TestParseCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"defaults", nil, ""},
		{"flat stream", []string{"-stream", "-days", "2"}, ""},
		{"days low", []string{"-days", "0"}, "-days 0 out of range"},
		{"days high", []string{"-days", "541"}, "-days 541 out of range"},
		{"scenario low", []string{"-scenario", "0"}, "-scenario 0 out of range 1..4"},
		{"scenario high", []string{"-scenario", "5"}, "-scenario 5 out of range 1..4"},
		{"codec refused", []string{"-codec", "json"}, "flag provided but not defined: -codec"},
		{"seeds zero", []string{"-seeds", "0"}, "-seeds 0 must be at least 1"},
		{"seeds negative", []string{"-seeds", "-3", "-days", "1", "-stream"}, "-seeds -3 must be at least 1"},
		{"shards negative", []string{"-scatternet", "-shards", "-1"}, "-shards -1 must be at least 0"},
		{"shards zero", []string{"-scatternet", "-shards", "0"}, ""},

		// Bugfix 1: -probe-sample domain validation at the flag boundary.
		{"probe-sample zero", []string{"-scatternet", "-probe-sample", "0"},
			"-probe-sample 0 outside (0, 1]"},
		{"probe-sample negative", []string{"-scatternet", "-probe-sample", "-1"},
			"-probe-sample -1 outside (0, 1]"},
		{"probe-sample above one", []string{"-scatternet", "-probe-sample", "1.5"},
			"-probe-sample 1.5 outside (0, 1]"},
		{"probe-sample NaN", []string{"-scatternet", "-probe-sample", "NaN"},
			"-probe-sample is NaN"},
		{"probe-sample valid", []string{"-scatternet", "-probe-sample", "0.25"}, ""},
		{"probe-sample exhaustive", []string{"-scatternet", "-probe-sample", "1"}, ""},

		// Bugfix 3: scatternet-only flags on a flat campaign are errors, not
		// silently ignored knobs.
		{"stray probe-sample", []string{"-probe-sample", "0.5"},
			"-probe-sample needs -scatternet"},
		{"stray rollup", []string{"-rollup", "-stream"},
			"-rollup needs -scatternet"},
		{"stray hold", []string{"-hold", "20"}, "-hold needs -scatternet"},
		{"stray piconets", []string{"-piconets", "8"}, "-piconets needs -scatternet"},
		{"stray bridges", []string{"-bridges", "4"}, "-bridges needs -scatternet"},
		{"stray topology", []string{"-topology", "ring"}, "-topology needs -scatternet"},
		{"stray redundancy", []string{"-redundancy", "2"}, "-redundancy needs -scatternet"},

		// Rollup cross-checks at the flag boundary.
		{"rollup sweep", []string{"-scatternet", "-rollup", "-stream", "-seeds", "3"},
			"-rollup needs a single-seed campaign"},
		{"rollup without stream", []string{"-scatternet", "-rollup"},
			"-rollup requires -stream"},
		{"rollup ok", []string{"-scatternet", "-rollup", "-stream"}, ""},

		{"scatternet sweep json", []string{"-scatternet", "-seeds", "3", "-json", "x.json"},
			"-json does not apply with -scatternet"},
		{"json without sweep", []string{"-json", "x.json"},
			"-json needs sweep mode"},
		{"scatternet topology ok",
			[]string{"-scatternet", "-topology", "ring", "-piconets", "6", "-stream"}, ""},

		// Each flag is read only by the modes of the mode table.
		{"stray shards", []string{"-shards", "3", "-stream"}, "-shards needs -scatternet"},
		{"sweep probe-sample", []string{"-scatternet", "-seeds", "2", "-probe-sample", "0.5"},
			"-probe-sample needs a single-seed campaign"},
		{"sweep shards", []string{"-scatternet", "-seeds", "2", "-shards", "2"},
			"-shards needs a single-seed campaign"},
		{"stream out", []string{"-stream", "-out", "d"}, "-out does not apply with -stream"},
		{"sweep out", []string{"-seeds", "2", "-out", "d"}, "-out needs a single-seed campaign"},
		{"scatternet out", []string{"-scatternet", "-out", "d"}, "-out does not apply with -scatternet"},
		{"workers without sweep", []string{"-workers", "2"}, "-workers needs sweep mode"},
		{"scatternet sweep checkpoint-dir", []string{"-scatternet", "-seeds", "3", "-checkpoint-dir", "c"},
			"-checkpoint-dir does not apply with -scatternet"},
		{"checkpoint-dir without sweep", []string{"-checkpoint-dir", "c"},
			"-checkpoint-dir needs sweep mode"},
		{"scatternet taxonomy", []string{"-scatternet", "-taxonomy"},
			"-taxonomy with -scatternet needs -rollup"},
		{"scatternet rollup taxonomy", []string{"-scatternet", "-rollup", "-stream", "-taxonomy"}, ""},
		{"scatternet sweep taxonomy", []string{"-scatternet", "-seeds", "2", "-taxonomy"}, ""},
		{"scatternet sweep stream", []string{"-scatternet", "-seeds", "2", "-stream", "-workers", "2"}, ""},

		// Values the engine would read as unset and replace with a default.
		{"hold zero", []string{"-scatternet", "-hold", "0"}, "-hold 0 must be at least 1"},
		{"redundancy zero", []string{"-scatternet", "-redundancy", "0"}, "-redundancy 0 must be at least 1"},
		{"redundancy negative", []string{"-scatternet", "-redundancy", "-3"}, "-redundancy -3 must be at least 1"},
		{"piconets zero", []string{"-scatternet", "-piconets", "0"}, "-piconets 0 must be at least 1"},

		// Every btcampaign command line of README.md, OPERATIONS.md,
		// docs/CONVERGENCE.md and scripts/*.sh, script variables at their
		// defaults.
		{"readme retained", []string{"-days", "4"}, ""},
		{"readme month", []string{"-days", "90", "-stream"}, ""},
		{"readme sweep", []string{"-days", "30", "-seeds", "10", "-stream"}, ""},
		{"readme checkpointed sweep", []string{"-days", "540", "-seeds", "8", "-checkpoint-dir", "ckpt",
			"-json", "out.json"}, ""},
		{"readme bridges", []string{"-scatternet", "-piconets", "4", "-bridges", "3", "-days", "30", "-stream"}, ""},
		{"readme mesh", []string{"-scatternet", "-piconets", "5", "-topology", "mesh", "-days", "7", "-stream"}, ""},
		{"readme redundant star", []string{"-scatternet", "-piconets", "4", "-topology", "star",
			"-redundancy", "2", "-days", "7", "-stream"}, ""},
		{"readme random sweep", []string{"-scatternet", "-piconets", "4", "-topology", "random",
			"-bridges", "6", "-seeds", "8", "-days", "7"}, ""},
		{"operations reference", []string{"-seed", "1", "-days", "4", "-stream"}, ""},
		{"operations metro", []string{"-seed", "5", "-days", "7", "-scatternet", "-topology", "ring",
			"-piconets", "4", "-stream", "-rollup"}, ""},
		{"convergence sweep", []string{"-days", "15", "-seeds", "5", "-workers", "1", "-seed", "1",
			"-json", "docs/convergence/sweep-15d.json", "-checkpoint-dir", "/tmp/ckpt-15"}, ""},
		{"chaos_metro reference", []string{"-seed", "5", "-days", "7", "-scatternet", "-topology", "ring",
			"-piconets", "4", "-probe-sample", "0.5", "-stream", "-rollup"}, ""},
		{"smoke reference", []string{"-seed", "1", "-days", "1", "-stream"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseCLI(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseCLI(%q) = %v, want success", tc.args, err)
				}
				if cfg == nil {
					t.Fatalf("parseCLI(%q) returned nil config", tc.args)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseCLI(%q) accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseCLI(%q) = %q, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// fileSHA256 hashes one output file.
func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

// TestWriteRetainedBytes pins the -out files of a seed-1, 1-day, scenario-3
// campaign: the record counts after the filter and the sha256 of both
// JSON-line files.
func TestWriteRetainedBytes(t *testing.T) {
	res, err := btpan.RunCampaign(btpan.CampaignConfig{Seed: 1, Duration: sim.Day,
		Scenario: btpan.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reports, entries, err := writeRetained(res, dir)
	if err != nil {
		t.Fatal(err)
	}
	if reports != 174 || entries != 235 {
		t.Errorf("kept %d reports / %d entries, want 174 / 235", reports, entries)
	}
	for name, want := range map[string]string{
		"user.jsonl":   "c441c3b200dedc2bd0b988befb01a7a71250c442edc38df1420c5a38a6ff06e2",
		"system.jsonl": "7bf151e148af8c85897938a930bd08727bfd46c7f3449c0d79df35378355667f",
	} {
		if got := fileSHA256(t, filepath.Join(dir, name)); got != want {
			t.Errorf("%s sha256 %s, want %s", name, got, want)
		}
	}
}

// TestWriteRetainedFiltersPerTestbed: node names repeat across the two
// testbeds and the filter's dedup key is only (node, code), so the filter
// must run on each testbed's log of a node on its own. Verde logs the same
// code 1 s apart in each testbed; both entries are kept.
func TestWriteRetainedFiltersPerTestbed(t *testing.T) {
	verde := func(name string, at sim.Time) *testbed.Results {
		return &testbed.Results{Name: name, PerNodeEntries: map[string][]core.SystemEntry{
			"Verde": {{At: at, Testbed: name, Node: "Verde", Source: core.SrcHCI,
				Code: core.CodeHCICommandTimeout}},
		}}
	}
	res := &btpan.CampaignResult{Random: verde("random", sim.Second),
		Realistic: verde("realistic", 2*sim.Second)}
	dir := t.TempDir()
	_, entries, err := writeRetained(res, dir)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 2 {
		t.Fatalf("kept %d entries, want 2 (one per testbed)", entries)
	}
	f, err := os.Open(filepath.Join(dir, "system.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := logging.ReadSystemEntries(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Testbed != "random" || got[1].Testbed != "realistic" {
		t.Errorf("system.jsonl holds %+v, want the random then the realistic entry", got)
	}
}
