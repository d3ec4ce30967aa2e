package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
)

// The analyze CLI validation table: every bad flag is rejected before any
// file is read or anything is printed.
func TestParseCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"defaults", nil, ""},
		{"paper window", []string{"-dir", "d", "-window", "330"}, ""},
		{"narrow window", []string{"-window", "10"}, ""},
		{"widest window", []string{"-window", "86400"}, ""},
		{"window zero", []string{"-window", "0"}, "-window 0 out of range 1..86400"},
		{"window negative", []string{"-window", "-5"}, "-window -5 out of range 1..86400"},
		{"window too wide", []string{"-window", "86401"}, "-window 86401 out of range 1..86400"},
		{"window not a number", []string{"-window", "5m"}, "invalid value"},
		{"empty dir", []string{"-dir", ""}, "-dir is empty"},
		{"stray argument", []string{"-dir", "d", "extra"}, `unexpected argument "extra"`},
		{"unknown flag", []string{"-days", "2"}, "flag provided but not defined"},

		// Every btanalyze command line of README.md, OPERATIONS.md, the
		// verify notes and the CI workflow.
		{"readme", []string{"-dir", "/tmp/c1"}, ""},
		{"ci", []string{"-dir", "/runner/temp/cd"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseCLI(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseCLI(%q) = %v, want success", tc.args, err)
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

// TestAnalyzeMatchesCampaign writes a retained campaign's unfiltered records
// to disk and holds btanalyze's tables to the campaign's own: at the paper's
// window, Tables 2 and 3 from the stored records equal res.Table2() and
// res.Table3() byte for byte; at a 10 s window, narrower than the evidence
// radius, Table 2 comes from the batch relator on both sides.
func TestAnalyzeMatchesCampaign(t *testing.T) {
	res, err := btpan.RunCampaign(btpan.CampaignConfig{Seed: 3, Duration: sim.Day,
		Scenario: btpan.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	reports := res.AllReports()
	entries := append(append([]core.SystemEntry(nil), res.Random.Entries()...), res.Realistic.Entries()...)
	logging.SortUserReports(reports)
	logging.SortSystemEntries(entries)
	dir := t.TempDir()
	write := func(name string, put func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := put(f); err != nil {
			t.Fatal(err)
		}
	}
	write("user.jsonl", func(f *os.File) error { return logging.WriteUserReports(f, reports) })
	write("system.jsonl", func(f *os.File) error { return logging.WriteSystemEntries(f, entries) })

	table3 := "\n== Table 3: SIRA effectiveness ==\n" + res.Table3().Render()
	for _, tc := range []struct {
		window string
		table2 *analysis.Table2
	}{
		{"330", res.Table2()},
		{"10", analysis.BuildTable2(res.Evidence(10 * sim.Second))},
	} {
		c, err := parseCLI([]string{"-dir", dir, "-window", tc.window})
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(c, &out); err != nil {
			t.Fatal(err)
		}
		table2 := "== Table 2: error-failure relationship ==\n" + tc.table2.Render()
		if !strings.Contains(out.String(), table2+table3) {
			t.Errorf("-window %s: btanalyze's tables differ from the campaign's:\n%s\nwant:\n%s%s",
				tc.window, out.String(), table2, table3)
		}
	}
}
