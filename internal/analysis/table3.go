package analysis

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Table3 is the user-failure → SIRA effectiveness table: the percentage of
// occurrences of each failure cleared by each recovery action.
type Table3 struct {
	// Rows maps failure → per-action success share (%), indexed by
	// RecoveryAction ordinal - 1.
	Rows map[core.UserFailure][core.NumRecoveryActions]float64
	// Counts is the per-failure denominator (recovered occurrences).
	Counts map[core.UserFailure]int
	// TotalRow aggregates all failures.
	TotalRow [core.NumRecoveryActions]float64
}

// Table3Counts is the streaming-friendly accumulator behind Table 3: raw
// recovery-success counts that fold one report at a time and finalize into
// the percentage table. Integer counts make shard merges and the
// streaming/retained equivalence exact.
type Table3Counts struct {
	Rows   map[core.UserFailure][core.NumRecoveryActions]int
	Totals [core.NumRecoveryActions]int
	Grand  int
}

// NewTable3Counts allocates the accumulator.
func NewTable3Counts() *Table3Counts {
	return &Table3Counts{Rows: make(map[core.UserFailure][core.NumRecoveryActions]int)}
}

// Add folds one report (no-op unless it is an unmasked, recovered failure
// cleared by a defined SIRA).
func (c *Table3Counts) Add(r *core.UserReport) {
	if r.Masked || !r.Recovered || !r.Recovery.Valid() {
		return
	}
	row := c.Rows[r.Failure]
	row[int(r.Recovery)-1]++
	c.Rows[r.Failure] = row
	c.Totals[int(r.Recovery)-1]++
	c.Grand++
}

// Table computes the percentage table from the accumulated counts.
func (c *Table3Counts) Table() *Table3 {
	t := &Table3{
		Rows:   make(map[core.UserFailure][core.NumRecoveryActions]float64),
		Counts: make(map[core.UserFailure]int),
	}
	for f, row := range c.Rows {
		n := 0
		for _, v := range row {
			n += v
		}
		t.Counts[f] = n
		var pct [core.NumRecoveryActions]float64
		if n > 0 {
			for i, v := range row {
				pct[i] = float64(v) / float64(n) * 100
			}
		}
		t.Rows[f] = pct
	}
	if c.Grand > 0 {
		for i, v := range c.Totals {
			t.TotalRow[i] = float64(v) / float64(c.Grand) * 100
		}
	}
	return t
}

// BuildTable3 computes the effectiveness matrix from (unmasked, recovered)
// failure reports produced under the SIRA cascade.
//
// Test oracle: TestStreamerMatchesRetainedExactly.
func BuildTable3(reports []core.UserReport) *Table3 {
	counts := NewTable3Counts()
	for i := range reports {
		counts.Add(&reports[i])
	}
	return counts.Table()
}

// Share reports the success share of one action for one failure.
func (t *Table3) Share(f core.UserFailure, a core.RecoveryAction) float64 {
	if !a.Valid() {
		return 0
	}
	return t.Rows[f][int(a)-1]
}

// ExpensiveShare reports the share of a failure's recoveries that needed
// application restart or worse (the paper's severity argument for
// "Connect failed": 84.6 %).
func (t *Table3) ExpensiveShare(f core.UserFailure) float64 {
	row := t.Rows[f]
	sum := 0.0
	for a := core.RAAppRestart; a <= core.RAMultiSystemReboot; a++ {
		sum += row[int(a)-1]
	}
	return sum
}

// Render formats the table in the paper's layout.
func (t *Table3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s", "User Level Failure")
	for _, a := range core.RecoveryActions() {
		fmt.Fprintf(&b, "%22s", a)
	}
	b.WriteString("\n")
	for _, f := range core.UserFailures() {
		if f == core.UFDataMismatch {
			fmt.Fprintf(&b, "%-26s%s\n", f, "  (no recovery defined)")
			continue
		}
		fmt.Fprintf(&b, "%-26s", f)
		row := t.Rows[f]
		for i := range core.RecoveryActions() {
			fmt.Fprintf(&b, "%22.1f", row[i])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-26s", "Total")
	for i := range core.RecoveryActions() {
		fmt.Fprintf(&b, "%22.1f", t.TotalRow[i])
	}
	b.WriteString("\n")
	return b.String()
}
