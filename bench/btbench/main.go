// Command btbench is the repository's benchmark driver. It runs one workload
// for a wall-clock budget, checks every report the workload produces, and
// prints the run's metrics as `name value unit` lines followed by one JSON
// summary object on the last line:
//
//	go run ./btbench -workload campaign -seed 1 -seconds 20 -trace 0
//
// run from bench/ (bench/bench.sh builds it and runs it from the repository
// root, which is where the default -out directory lives). -trace 1
// alternates untraced and traced units and prints the per-layer metrics
// instead of the end-to-end ones; the spans and every measured number are
// written to <out>/<workload>.trace.json. bench/README.md documents the
// workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// sizes scales the workloads; the smoke test runs them at toy size.
type sizes struct {
	campaignDays  int // virtual days per campaign unit
	collectDays   int // virtual days of the collect corpus
	collectSetups int // corpus builds per collect run (setup_s is their median)
	metroPiconets int // ring size of a metro unit (one virtual day)
}

// fullSize is the benchmark's scale; the pinned digests are for it.
var fullSize = sizes{campaignDays: 10, collectDays: 10, collectSetups: 3, metroPiconets: 64}

// env is one run's configuration and shared instrumentation.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	size     sizes
	scratch  string // per-run directory for profiles, checkpoints and spill logs
	tr       *tracer
	prof     *profiler
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*env) (*result, error){
	"campaign": runCampaign,
	"collect":  runCollect,
	"metro":    runMetro,
}

// pinned holds the sha256 of each workload's full-size report for the two
// gate seeds: seed 1, and seed 2, held out for checking later claims. The
// campaign unit and the collect corpus are the same 10-day campaign, so
// they share their digests.
var pinned = map[string]map[uint64]string{
	"campaign": {
		1: "d4b3ce97d2fe51ff864cc783d57690525375b90c6594e1d230354343e5d108c8",
		2: "b654f351fe9225850c0507aff381c3e81d70da8143ec9d740586e8b78829777d",
	},
	"collect": {
		1: "d4b3ce97d2fe51ff864cc783d57690525375b90c6594e1d230354343e5d108c8",
		2: "b654f351fe9225850c0507aff381c3e81d70da8143ec9d740586e8b78829777d",
	},
	"metro": {
		1: "4b77ad8fbe362213ea5bbe93007860a35d7c85cb33687eedad3a32d76832d4d3",
		2: "867f342298559bb840aa55a85779251e667258d00ada987993c8bed620e3c409",
	},
}

func main() { os.Exit(realMain()) }

func realMain() int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "wall-clock budget of the timed phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for trace files and scratch data")
	flag.Parse()
	run, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "btbench: unknown -workload %q (want %s)\n", *workload, strings.Join(names, ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "btbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case !(*seconds >= 0):
		fmt.Fprintf(os.Stderr, "btbench: -seconds must be non-negative, got %v\n", *seconds)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "btbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*out, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "btbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		size:     fullSize,
		scratch:  scratch,
		tr:       newTracer(),
		prof:     &profiler{dir: scratch},
	}
	res, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.traced {
		if err := writeTrace(filepath.Join(*out, *workload+".trace.json"), *workload, *seed, res, e.tr); err != nil {
			fmt.Fprintln(os.Stderr, "btbench: write trace:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "btbench: %s seed %d report sha256 %s\n", *workload, *seed, digest(res.report))
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "btbench: check failed:", p)
	}
	if err := res.print(os.Stdout, e.traced); err != nil {
		fmt.Fprintln(os.Stderr, "btbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// digest is the hex sha256 of a rendered report.
func digest(report []byte) string {
	sum := sha256.Sum256(report)
	return hex.EncodeToString(sum[:])
}

// checkPinned fails the run when a full-size report of a gate seed differs
// from its pinned digest.
func (e *env) checkPinned(r *result, report []byte) {
	want, ok := pinned[e.workload][e.seed]
	if !ok || e.size != fullSize {
		return
	}
	if got := digest(report); got != want {
		r.fail("%s seed %d report digest %s, pinned %s", e.workload, e.seed, got, want)
	}
}
