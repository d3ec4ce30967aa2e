package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	btpan "repro"
)

// The benchmark's smoke test: every workload at toy size, untraced and
// traced, against BENCHMARK.json and the public API; plus the profile
// attribution rule on a canned `go tool pprof -traces` listing.

// toySize runs each workload in well under a second per unit.
var toySize = sizes{campaignDays: 2, collectDays: 2, collectSetups: 1, metroPiconets: 4}

// benchmarkFile is the part of BENCHMARK.json the driver must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bf
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the driver: the
// same workloads and the same metrics with the same units, in order.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the driver has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], driver %s [%s]",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], driver %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func toyEnv(t *testing.T, workload string, traced bool) *env {
	return &env{workload: workload, seed: 3, traced: traced, size: toySize,
		scratch: t.TempDir(), tr: newTracer(), prof: &profiler{dir: t.TempDir()}}
}

// timeUnits are the units of time-valued metrics: a traced run must never
// read zero on them, except on readerMetrics where no reader runs.
var timeUnits = map[string]bool{"s": true, "ms": true}

// readerMetrics are measured by collect's live-table reader alone.
var readerMetrics = map[string]bool{"tables.p50_ms": true, "tables.p95_ms": true}

// TestWorkloads runs every workload at toy size untraced and traced: each
// run passes its own checks and prints exactly the metrics BENCHMARK.json
// lists for it, with their units, as lines and in the final JSON object.
// The untraced report must equal the public API's for the same config.
func TestWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range []string{"campaign", "collect", "metro"} {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				e := toyEnv(t, name, traced)
				res, err := workloads[name](e)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.correct() {
					t.Fatalf("traced=%v: checks failed: %v", traced, res.problems)
				}
				var out bytes.Buffer
				if err := res.print(&out, traced); err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced {
					want = map[string]string{}
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				checkOutput(t, out.String(), want, traced, name == "collect")
				if !traced {
					checkReport(t, e, res.report)
				}
			}
		})
	}
}

// checkOutput verifies the printed lines and the JSON summary; reader says
// whether the workload runs the live-table reader.
func checkOutput(t *testing.T, out string, want map[string]string, traced, reader bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
		t.Errorf("summary: correct %v, attempted %d, failed %d", s.Correct, s.Attempted, s.Failed)
	}
	if len(s.Metrics) != len(want) {
		t.Errorf("summary holds %d metrics, want %d", len(s.Metrics), len(want))
	}
	printed := map[string]string{}
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 {
			printed[f[0]] = f[2]
		}
	}
	cpu := 0.0
	for name, unit := range want {
		m, ok := s.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the summary", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		case printed[name] != unit:
			t.Errorf("metric %s printed with unit %q, want %q", name, printed[name], unit)
		case timeUnits[unit] && (reader || !readerMetrics[name]) && !(m.Value > 0):
			t.Errorf("time metric %s reads %v", name, m.Value)
		case !traced && !(m.Value > 0):
			t.Errorf("end-to-end metric %s reads %v", name, m.Value)
		}
		if strings.HasPrefix(name, "cpu.") && unit == "%" {
			cpu += m.Value
		}
	}
	if traced && math.Abs(cpu-100) > 1e-6 {
		t.Errorf("cpu shares sum to %v%%", cpu)
	}
}

// checkReport compares a workload's report with the public API's for the
// same configuration.
func checkReport(t *testing.T, e *env, report []byte) {
	t.Helper()
	var want []byte
	switch e.workload {
	case "campaign", "collect":
		cfg := campaignConfig(e)
		if e.workload == "collect" {
			cfg = collectConfig(e)
		}
		res, err := btpan.RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		btpan.WriteReport(&buf, res)
		want = buf.Bytes()
	case "metro":
		cfg := metroConfig(e)
		res, err := btpan.RunScatternet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = renderMetro(res.Rollup, cfg.Duration)
	}
	if !bytes.Equal(report, want) {
		t.Errorf("%s report differs from the public API's:\n%s\nvs\n%s", e.workload, report, want)
	}
}

// TestAttribution runs the profile-to-layer rule over a canned listing that
// exercises every rule: plain packages, standard-library and helper-package
// callees, each refinement, collector receivers and unattributed stacks.
func TestAttribution(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	shares, total, err := attribute(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-2.53) > 1e-9 {
		t.Errorf("total %v s, want 2.53", total)
	}
	wantMs := map[string]float64{
		"sim": 10, "baseband": 20, "workload": 40, "checkpoint": 240, "fold": 640,
		"codec": 10, "wal": 20, "agent": 40, "sink": 240, "probe": 320, "overlay": 640,
		"gc": 30, "rollup": 40, "other": 80, "logging": 160,
	}
	for _, layer := range layers {
		if got := shares[layer] * total * 1e3; math.Abs(got-wantMs[layer]) > 1e-6 {
			t.Errorf("layer %s: %v ms, want %v", layer, got, wantMs[layer])
		}
	}
	for layer := range shares {
		if _, ok := wantMs[layer]; !ok {
			t.Errorf("unexpected layer %q", layer)
		}
	}
}
