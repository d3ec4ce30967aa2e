package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit. The two catalogs below are the
// benchmark's contract with BENCHMARK.json: every workload prints every
// end-to-end metric untraced and every per-layer metric traced (the smoke
// test pins the catalogs against the file).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports all of them, so each is defined on every
// workload (README.md gives the per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"piconet_days_per_s", "piconet-days/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's single-layer metrics. A layer a workload
// never enters shows as zero: a zero count or CPU share, and zero read
// latencies (tables.*) on the workloads without a live-table reader. Every
// other time-valued metric is measured on every workload.
var perLayer = []metricDef{
	{"cpu.sim", "%"},
	{"cpu.radio", "%"},
	{"cpu.baseband", "%"},
	{"cpu.stack", "%"},
	{"cpu.workload", "%"},
	{"cpu.logging", "%"},
	{"cpu.fold", "%"},
	{"cpu.codec", "%"},
	{"cpu.agent", "%"},
	{"cpu.wal", "%"},
	{"cpu.checkpoint", "%"},
	{"cpu.sink", "%"},
	{"cpu.probe", "%"},
	{"cpu.overlay", "%"},
	{"cpu.rollup", "%"},
	{"cpu.gc", "%"},
	{"cpu.other", "%"},
	{"cpu.total_s", "s"},
	{"sim.events", "count"},
	{"sim.imbalance", "ratio"},
	{"radio.bursts", "count"},
	{"workload.packets", "count"},
	{"workload.cycles", "count"},
	{"fold.records", "count"},
	{"fold.taxonomy_overhead_frac", "frac"},
	{"codec.bytes_per_record", "B/record"},
	{"agent.retransmits", "count"},
	{"sink.frames", "count"},
	{"sink.duplicates", "count"},
	{"sink.rejected", "count"},
	{"sink.pending_max", "count"},
	{"tables.reads", "count"},
	{"tables.p50_ms", "ms"},
	{"tables.p95_ms", "ms"},
	{"probe.walks", "count"},
	{"report.render_ms", "ms"},
	{"alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"trace_overhead_frac", "frac"},
}

// layers are the CPU attribution buckets, in catalog order; each becomes the
// cpu.<layer> metric.
var layers = []string{"sim", "radio", "baseband", "stack", "workload", "logging",
	"fold", "codec", "agent", "wal", "checkpoint", "sink", "probe", "overlay",
	"rollup", "gc", "other"}

// result is one run's outcome: the correctness tally, the catalog metrics,
// and workload-specific detail lines that only some workloads can measure
// (printed before the JSON object, never inside it).
type result struct {
	attempted, failed int
	wrong             bool // an output check failed
	problems          []string
	metrics           map[string]float64
	detail            []metricLine
	// report is the first unit's rendered report (the smoke test compares
	// it with the public API's output for the same config).
	report []byte
}

// metricLine is one printed `name value unit` line.
type metricLine struct {
	name  string
	value float64
	unit  string
}

// newResult starts a run's result. A traced run starts every per-layer
// metric at zero, which is what a layer the workload never enters reads.
func newResult(e *env) *result {
	r := &result{metrics: make(map[string]float64)}
	if e.traced {
		for _, m := range perLayer {
			r.metrics[m.name] = 0
		}
	}
	return r
}

// fail records a failed output check, which makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.wrong = true
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// failOps records n operations that failed or were retried while the
// outputs stayed correct.
func (r *result) failOps(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// addDetail appends a workload-specific detail line.
func (r *result) addDetail(name string, value float64, unit string) {
	r.detail = append(r.detail, metricLine{name, value, unit})
}

// correct reports whether every output check of the run passed.
func (r *result) correct() bool { return !r.wrong && r.attempted > 0 }

// jsonMetric is one entry of the summary object's metrics map.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes every catalog metric of the run (end-to-end untraced,
// per-layer traced) as `name value unit` lines, then the detail lines, then
// the JSON summary as the final line.
func (r *result) print(w io.Writer, traced bool) error {
	catalog := endToEnd
	if traced {
		catalog = perLayer
	}
	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(catalog))}
	bw := bufio.NewWriter(w)
	for _, m := range catalog {
		v, ok := r.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		s.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(bw, "%s %s %s\n", m.name, formatValue(v), m.unit)
	}
	for _, d := range r.detail {
		fmt.Fprintf(bw, "%s %s %s\n", d.name, formatValue(d.value), d.unit)
	}
	blob, err := json.Marshal(&s)
	if err != nil {
		return err
	}
	bw.Write(blob)
	bw.WriteByte('\n')
	return bw.Flush()
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, reading 0/0 as 0 so a layer a workload never enters
// prints as zero rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
