package main

import (
	"strings"
	"testing"
)

// The repro CLI validation table: every bad flag is rejected before the
// campaign banner or any table is printed.
func TestParseCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"defaults", nil, ""},
		{"one experiment", []string{"-only", "fig3b"}, ""},
		{"every id", []string{"-only", "redundant", "-seed", "9", "-days", "540"}, ""},
		{"days low", []string{"-days", "0"}, "-days 0 out of range 1..540"},
		{"days negative", []string{"-days", "-2"}, "-days -2 out of range 1..540"},
		{"days high", []string{"-days", "541"}, "-days 541 out of range 1..540"},
		{"unknown id", []string{"-only", "nosuch"}, `-only "nosuch" is not an experiment`},
		{"days with quick", []string{"-quick", "-days", "3"}, "-days is fixed by -quick"},
		{"stray argument", []string{"table2"}, `unexpected argument "table2"`},
		{"unknown flag", []string{"-scenario", "2"}, "flag provided but not defined"},

		// Every btrepro command line of README.md and the verify notes.
		{"readme quick", []string{"-quick"}, ""},
		{"redundant", []string{"-only", "redundant"}, ""},
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
