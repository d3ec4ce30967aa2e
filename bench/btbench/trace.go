package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// All per-layer numbers come from outside the program: spans around the
// driver's calls into each layer, exact counts read from public accessors,
// and a CPU profile of this process attributed to layers. A traced run
// alternates untraced and traced units of the same driver code; only the
// traced units record anything, and the wall-time ratio between the two
// kinds is the tracing overhead.

// span is one timed call into a layer. Times are nanoseconds since the run
// started; parent is the index of the enclosing span (-1 for none) and round
// the unit the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory while on; begin/end are no-ops while off.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 while tracing is off).
func (t *tracer) begin(name string, parent, round int) int {
	if !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Round: round})
	return len(t.spans) - 1
}

// end closes span id and returns its bounds (no-op for -1).
func (t *tracer) end(id int) (start, end int64) {
	if id < 0 {
		return 0, 0
	}
	end = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return t.spans[id].Start, end
}

// add records an already-measured span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the lengths in seconds of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// unitLoop drives a workload's timed phase: it runs unit(i, traced) while
// the next unit, taking as long as the last one, would still end within the
// budget (at least once; a traced run needs one unit of each kind, and
// traces the odd-numbered ones). Each unit returns the wall seconds it timed
// itself; traced units run under the tracer, the CPU profiler and a
// runtime.MemStats delta.
type unitLoop struct {
	e                     *env
	walls, tracedWalls    []float64
	allocBytes, gcPauseNs uint64
	gcCycles              uint32
}

func (l *unitLoop) run(unit func(i int, traced bool) (float64, error)) error {
	start := time.Now()
	need := 1
	if l.e.traced {
		need = 2
	}
	var last time.Duration
	for i := 0; i < need || time.Since(start)+last <= l.e.budget; i++ {
		began := time.Now()
		traced := l.e.traced && i%2 == 1
		var before runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
			if err := l.e.prof.start(); err != nil {
				return err
			}
			l.e.tr.on.Store(true)
		}
		wall, err := unit(i, traced)
		if traced {
			l.e.tr.on.Store(false)
			if perr := l.e.prof.stop(); err == nil {
				err = perr
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			l.allocBytes += after.TotalAlloc - before.TotalAlloc
			l.gcCycles += after.NumGC - before.NumGC
			l.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		}
		if err != nil {
			return err
		}
		if traced {
			l.tracedWalls = append(l.tracedWalls, wall)
		} else {
			l.walls = append(l.walls, wall)
		}
		last = time.Since(began)
	}
	return nil
}

// mean is the average of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// endToEnd stores the end-to-end metrics: the median set-up time, the
// virtual piconet-days each unit simulates or replays over the mean unit
// wall, and the peak RSS so far, which the caller reads at the end of the
// timed phase. The records each unit carries over the same wall go to a
// detail line: a unit's cost follows its simulated or replayed time more
// closely than its record count, which varies with the seed.
func (l *unitLoop) endToEnd(r *result, setups []float64, records, piconetDays float64) error {
	r.metrics["setup_s"] = median(setups)
	r.metrics["piconet_days_per_s"] = piconetDays / mean(l.walls)
	r.addDetail("records_per_s", records/mean(l.walls), "records/s")
	rss, err := peakRSSMB()
	r.metrics["peak_rss_mb"] = rss
	return err
}

// layerMetrics fills the per-layer metrics every workload shares: CPU shares
// and total from the profile, the report render span, runtime allocation
// and GC deltas and the tracing overhead, all per traced unit. records is
// the number of records folded per traced unit.
func (l *unitLoop) layerMetrics(r *result, records float64) error {
	shares, cpuSeconds, err := l.e.prof.attribute()
	if err != nil {
		return err
	}
	n := float64(len(l.tracedWalls))
	for _, layer := range layers {
		r.metrics["cpu."+layer] = 100 * shares[layer]
	}
	r.metrics["cpu.total_s"] = cpuSeconds / n
	r.metrics["fold.records"] = records
	r.metrics["report.render_ms"] = median(l.e.tr.durations("report.render")) * 1e3
	r.metrics["alloc_mb"] = float64(l.allocBytes) / n / (1 << 20)
	r.metrics["gc.cycles"] = float64(l.gcCycles) / n
	r.metrics["gc.pause_ms"] = float64(l.gcPauseNs) / n / 1e6
	r.metrics["trace_overhead_frac"] = ratio(mean(l.tracedWalls), mean(l.walls)) - 1
	return nil
}

// profiler writes one CPU profile per traced unit and attributes the merged
// samples to layers with `go tool pprof -traces`.
type profiler struct {
	dir   string
	files []string
	cur   *os.File
}

func (p *profiler) start() error {
	f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("unit%d.pprof", len(p.files))))
	if err != nil {
		return fmt.Errorf("create profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("start profile: %w", err)
	}
	p.cur = f
	p.files = append(p.files, f.Name())
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	err := p.cur.Close()
	p.cur = nil
	return err
}

// attribute returns each layer's share of the sampled CPU time and the
// sampled CPU seconds.
func (p *profiler) attribute() (map[string]float64, float64, error) {
	if len(p.files) == 0 {
		return nil, 0, fmt.Errorf("no traced unit was profiled")
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, p.files...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, 0, err
	}
	return attribute(samples)
}

// sample is one distinct stack of a -traces listing (leaf first) and the CPU
// time spent in it.
type sample struct {
	seconds float64
	stack   []string
}

// parseTraces reads `go tool pprof -traces` text: a header, then blocks
// separated by `-----------+----` rules, each opening with the sample value
// and the leaf function and continuing with one caller per line.
func parseTraces(text string) ([]sample, error) {
	var out []sample
	var cur *sample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if cur == nil {
			if !strings.HasPrefix(line, " ") {
				continue // header line
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("unexpected -traces line %q", line)
			}
			out = append(out, sample{seconds: d.Seconds(), stack: []string{fields[1]}})
			cur = &out[len(out)-1]
			continue
		}
		if strings.Contains(fields[0], ":") && !strings.Contains(fields[0], ".") {
			continue // a pprof label line
		}
		cur.stack = append(cur.stack, fields[0])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in the -traces listing")
	}
	return out, nil
}

// attribute sums samples by layer and returns shares of the total.
func attribute(samples []sample) (map[string]float64, float64, error) {
	byLayer := make(map[string]float64)
	total := 0.0
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.seconds
		total += s.seconds
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile holds no CPU time")
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, total, nil
}

const internalPrefix = "repro/internal/"

// pkgLayer maps each internal package to its layer.
var pkgLayer = map[string]string{
	"sim": "sim", "testbed": "sim",
	"radio":    "radio",
	"baseband": "baseband",
	"l2cap":    "stack", "hci": "stack", "bnep": "stack", "pan": "stack", "sdp": "stack",
	"stack": "stack", "transport": "stack", "device": "stack", "recovery": "stack",
	"workload": "workload", "traffic": "workload",
	"logging": "logging", "core": "logging",
	"analysis": "fold", "coalesce": "fold", "stats": "fold",
	"scatternet": "overlay",
}

// refinements are function rules that override the package rule. A sample
// whose stack holds any of them goes to the innermost one, so work a layer
// delegates (JSON under the checkpoint, kernel steps under the overlay, the
// analysis accumulators a probe feeds) stays with that layer.
var refinements = []struct {
	prefix, layer string
}{
	{"runtime.gc", "gc"},
	{"runtime.bgsweep", "gc"},
	{"runtime.bgscavenge", "gc"},
	{internalPrefix + "collector.(*Sink).checkpointLocked", "checkpoint"},
	{internalPrefix + "collector.(*Sink).LiveTables", "sink"},
	{internalPrefix + "collector.(*wal).", "wal"},
	{internalPrefix + "collector.(*Agent).flushWALLocked", "wal"},
	{internalPrefix + "collector.encodeBatchFrame", "codec"},
	{internalPrefix + "collector.WriteBatch", "codec"},
	{internalPrefix + "collector.ReadBatch", "codec"},
	{internalPrefix + "collector.appendBinaryBatch", "codec"},
	{internalPrefix + "collector.decodeBinaryBatch", "codec"},
	{internalPrefix + "collector.decodeFrame", "codec"},
	{internalPrefix + "collector.(*binReader).", "codec"},
	{internalPrefix + "collector.(*stringTable).", "codec"},
	{internalPrefix + "scatternet.(*prober).", "probe"},
	{internalPrefix + "scatternet.nextResidency", "probe"},
	{internalPrefix + "scatternet.(*Router).", "probe"},
	{internalPrefix + "scatternet.NewRouter", "probe"},
	{internalPrefix + "scatternet.(*overlay).Run", "overlay"},
	{internalPrefix + "analysis.(*ScatternetFold).", "rollup"},
	{internalPrefix + "analysis.(*ScatternetRollup).", "rollup"},
	{internalPrefix + "scatternet.(*Campaign).rollup", "rollup"},
}

// helperPkgs hold the model's value types and samplers, called from every
// layer: like the standard library they count toward their caller, and
// toward their own package's layer only when no other internal frame calls
// them.
var helperPkgs = map[string]bool{"core": true, "stats": true}

// layerOf attributes one stack (leaf first): the innermost refinement if
// any, else the innermost repro/internal frame's package, so standard
// library callees count toward their caller. Collector frames resolve to
// agent or sink by the nearest receiver outward. Anything else is other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, r := range refinements {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	helper := ""
	for i, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		switch {
		case helperPkgs[pkg]:
			if helper == "" {
				helper = pkgLayer[pkg]
			}
		case pkg == "collector":
			return collectorLayer(stack[i:])
		case pkgLayer[pkg] != "":
			return pkgLayer[pkg]
		default:
			return "other"
		}
	}
	if helper != "" {
		return helper
	}
	return "other"
}

// collectorLayer resolves a collector frame by the nearest Agent or Sink
// receiver at or outside it; shared transport helpers called from neither
// count as sink.
func collectorLayer(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, internalPrefix+"collector.(*Agent)."):
			return "agent"
		case strings.HasPrefix(fn, internalPrefix+"collector.(*Sink)."),
			strings.HasPrefix(fn, internalPrefix+"collector.(*sinkSession)."):
			return "sink"
		}
	}
	return "sink"
}

// traceFile is what a traced run leaves in <out>/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Detail   map[string]float64 `json:"detail"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes the spans and every measured number of a traced run.
func writeTrace(path, workload string, seed uint64, r *result, tr *tracer) error {
	tf := traceFile{Workload: workload, Seed: seed, Metrics: r.metrics,
		Detail: make(map[string]float64), Spans: tr.spans}
	for _, d := range r.detail {
		tf.Detail[d.name] = d.value
	}
	blob, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
