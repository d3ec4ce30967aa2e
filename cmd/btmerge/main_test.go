package main

import (
	"strings"
	"testing"
)

// The merge CLI validation table: flag-range checks reject before any
// partial file is touched (part of the loss-before-report sweep — btmerge
// must never get far enough to print a report from a misdescribed campaign).
func TestParseCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"flat", []string{"a.json", "b.json"}, ""},
		{"scatternet", []string{"-scatternet", "d0.json", "d1.json"}, ""},
		{"days low", []string{"-days", "0", "a.json"}, "-days 0 out of range 1..540"},
		{"days high", []string{"-days", "541", "a.json"}, "-days 541 out of range 1..540"},
		{"scenario low", []string{"-scenario", "0", "a.json"}, "-scenario 0 out of range 1..4"},
		{"scenario high", []string{"-scenario", "5", "a.json"}, "-scenario 5 out of range 1..4"},
		{"no files", nil, "no partial files given"},
		{"no files scatternet", []string{"-scatternet"}, "no partial files given"},

		// Every btmerge command line of OPERATIONS.md and scripts/*.sh,
		// script variables at their defaults.
		{"operations flat", []string{"-seed", "7", "-days", "30",
			"/tmp/bt/part0/prod.partial.json", "/tmp/bt/part1/prod.partial.json"}, ""},
		{"operations scatternet", []string{"-seed", "5", "-days", "7", "-scatternet",
			"/tmp/bt/part0/metro0.district.json", "/tmp/bt/part1/metro1.district.json"}, ""},
		{"chaos_multitenant", []string{"-seed", "7", "-days", "2", "part0/alpha.partial.json",
			"part1/alpha.partial.json"}, ""},
		{"taxonomy", []string{"-taxonomy", "-scatternet", "d0.json"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := parseCLI(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseCLI(%q) = %v, want success", tc.args, err)
				}
				if len(cli.paths) == 0 {
					t.Fatalf("parseCLI(%q) dropped the partial paths", tc.args)
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
