package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
)

// TestParseCLIValidation pins the mode checks of the command line: a flag
// the chosen mode would ignore is rejected with a message naming it, the
// retired -codec flag is unknown, and the command lines the scripts run
// still parse.
func TestParseCLIValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = must parse
	}{
		{"codec refused", []string{"-testbed", "random", "-codec", "json"},
			"flag provided but not defined: -codec"},

		// Testbed-shard flags with -scatternet.
		{"scatternet testbed", []string{"-scatternet", "-piconet-range", "0:2", "-testbed", "random"},
			"-testbed does not apply with -scatternet"},
		{"scatternet flush", []string{"-scatternet", "-piconet-range", "0:2", "-flush", "60"},
			"-flush does not apply with -scatternet"},
		{"scatternet timeout", []string{"-scatternet", "-piconet-range", "0:2", "-timeout", "1m"},
			"-timeout does not apply with -scatternet"},
		{"scatternet spill-dir", []string{"-scatternet", "-piconet-range", "0:2", "-spill-dir", "spill"},
			"-spill-dir does not apply with -scatternet"},
		{"scatternet spill-budget", []string{"-scatternet", "-piconet-range", "0:2", "-spill-budget", "4096"},
			"-spill-budget does not apply with -scatternet"},

		// Scatternet flags on a testbed shard.
		{"stray piconet-range", []string{"-testbed", "random", "-piconet-range", "0:2"},
			"-piconet-range needs -scatternet"},
		{"stray piconets", []string{"-testbed", "random", "-piconets", "4"}, "-piconets needs -scatternet"},
		{"stray bridges", []string{"-testbed", "random", "-bridges", "2"}, "-bridges needs -scatternet"},
		{"stray topology", []string{"-testbed", "random", "-topology", "ring"}, "-topology needs -scatternet"},
		{"stray redundancy", []string{"-testbed", "random", "-redundancy", "2"}, "-redundancy needs -scatternet"},
		{"stray hold", []string{"-testbed", "random", "-hold", "20"}, "-hold needs -scatternet"},
		{"stray probe-sample", []string{"-testbed", "random", "-probe-sample", "0.5"},
			"-probe-sample needs -scatternet"},

		// Values the engine would read as unset, and the range grammar.
		{"hold zero", []string{"-scatternet", "-piconet-range", "0:2", "-hold", "0"},
			"-hold 0 must be at least 1"},
		{"redundancy zero", []string{"-scatternet", "-piconet-range", "0:2", "-redundancy", "0"},
			"-redundancy 0 must be at least 1"},
		{"probe-sample zero", []string{"-scatternet", "-piconet-range", "0:4", "-probe-sample", "0"},
			"-probe-sample 0 outside (0, 1]"},
		{"range missing", []string{"-scatternet"}, "-piconet-range is required"},
		{"range empty", []string{"-scatternet", "-piconet-range", ""}, "want A:B"},
		{"range reversed", []string{"-scatternet", "-piconet-range", "4:2"},
			`invalid value "4:2" for flag -piconet-range: "4:2" is empty or negative`},

		// The command lines of scripts/chaos_distributed.sh and
		// scripts/chaos_metro.sh.
		{"testbed shard", []string{"-sink", "127.0.0.1:1", "-testbed", "random", "-seed", "7", "-days", "2",
			"-spill-dir", "spill", "-drop", "0.05", "-dup", "0.05", "-reorder", "0.1", "-fault-seed", "5"}, ""},
		{"district shard", []string{"-sink", "127.0.0.1:1", "-keyspace", "metro0", "-scatternet",
			"-piconet-range", "0:2", "-piconets", "4", "-topology", "ring", "-probe-sample", "0.5",
			"-seed", "5", "-days", "1", "-drop", "0.05", "-dup", "0.05", "-reorder", "0.1", "-fault-seed", "70"}, ""},

		// Every other btagent command line of README.md, OPERATIONS.md and
		// scripts/*.sh, script variables at their defaults.
		{"readme realistic", []string{"-sink", "127.0.0.1:9310", "-testbed", "realistic", "-seed", "1", "-days", "4"}, ""},
		{"operations spill", []string{"-sink", "127.0.0.1:9310", "-testbed", "random", "-seed", "1", "-days", "4",
			"-spill-dir", "/tmp/bt/spill-random"}, ""},
		{"operations faults", []string{"-sink", "127.0.0.1:9310", "-testbed", "random", "-seed", "1", "-days", "4",
			"-drop", "0.1", "-dup", "0.1", "-reorder", "0.15", "-fault-seed", "5"}, ""},
		{"operations keyspace", []string{"-sink", "127.0.0.1:9311", "-keyspace", "prod", "-testbed", "realistic",
			"-seed", "7", "-days", "30"}, ""},
		{"operations district", []string{"-sink", "127.0.0.1:9322", "-keyspace", "metro1", "-scatternet",
			"-piconet-range", "2:4", "-piconets", "4", "-topology", "ring", "-seed", "5", "-days", "7"}, ""},
		{"chaos_metro district 1", []string{"-sink", "127.0.0.1:1", "-keyspace", "metro1", "-scatternet",
			"-piconet-range", "2:4", "-piconets", "4", "-topology", "ring", "-probe-sample", "0.5",
			"-seed", "5", "-days", "7", "-drop", "0.05", "-dup", "0.05", "-reorder", "0.1", "-fault-seed", "71"}, ""},
		{"chaos_distributed realistic", []string{"-sink", "127.0.0.1:1", "-testbed", "realistic", "-seed", "1",
			"-days", "2", "-spill-dir", "spill", "-drop", "0.05", "-dup", "0.05", "-reorder", "0.1", "-fault-seed", "6"}, ""},
		{"chaos_multitenant faults", []string{"-sink", "127.0.0.1:1", "-keyspace", "alpha", "-testbed", "random",
			"-seed", "7", "-days", "2", "-drop", "0.05", "-dup", "0.05", "-reorder", "0.1", "-fault-seed", "50"}, ""},
		{"chaos_multitenant hog", []string{"-sink", "127.0.0.1:1", "-keyspace", "hog", "-testbed", "random",
			"-seed", "13", "-days", "2", "-timeout", "15s"}, ""},
		{"smoke clean", []string{"-sink", "127.0.0.1:1", "-testbed", "realistic", "-seed", "1", "-days", "1"}, ""},
		{"smoke faults", []string{"-sink", "127.0.0.1:1", "-testbed", "realistic", "-seed", "1", "-days", "1",
			"-drop", "0.1", "-dup", "0.1", "-reorder", "0.15", "-fault-seed", "6"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseCLI(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseCLI(%q) = %v, want success", tc.args, err)
				}
				if cfg.scat != slices.Contains(tc.args, "-scatternet") {
					t.Fatalf("parseCLI(%q) chose the wrong mode", tc.args)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseCLI(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCheckLimits pins the range checks of the flags both modes share: a
// fault probability outside [0, 1] or NaN, a negative -delay or -timeout
// is rejected with a message naming the flag, where it used to read as off
// or forever. (collector's TestAgentConfigLimits covers -spill-budget.)
func TestCheckLimits(t *testing.T) {
	cases := []struct {
		fault   collector.FaultConfig
		timeout time.Duration
		wantErr string // "" = must pass
	}{
		{},
		{fault: collector.FaultConfig{Drop: 1, Duplicate: 0.5, Reorder: 0.1, DelayRate: 1, Delay: time.Second},
			timeout: time.Minute},
		{fault: collector.FaultConfig{Drop: math.NaN()}, wantErr: "-drop NaN outside [0, 1]"},
		{fault: collector.FaultConfig{Drop: 1.5}, wantErr: "-drop 1.5 outside [0, 1]"},
		{fault: collector.FaultConfig{Duplicate: -0.1}, wantErr: "-dup -0.1 outside [0, 1]"},
		{fault: collector.FaultConfig{Reorder: 2}, wantErr: "-reorder 2 outside [0, 1]"},
		{fault: collector.FaultConfig{DelayRate: math.NaN()}, wantErr: "-delay-rate NaN outside [0, 1]"},
		{fault: collector.FaultConfig{Delay: -time.Second}, wantErr: "-delay -1s is negative"},
		{timeout: -time.Second, wantErr: "-timeout -1s is negative"},
	}
	for _, tc := range cases {
		err := checkLimits(tc.fault, tc.timeout)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v timeout %v: %v", tc.fault, tc.timeout, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%+v timeout %v = %v, want an error containing %q", tc.fault, tc.timeout, err, tc.wantErr)
		}
	}
}
