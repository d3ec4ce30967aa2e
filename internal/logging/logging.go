// Package logging implements the two failure-data sources of the paper's
// collection methodology: the Test Log, holding user-level failure reports
// written by the instrumented BlueTest workload, and the System Log, holding
// system-level error entries registered by stack components and daemons.
//
// Both logs support in-memory accumulation (for analysis pipelines), line-
// oriented serialisation (JSON-lines, for the LogAnalyzer daemon to ship to
// the central repository), and parsing back.
package logging

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// Log is one node's append-only record log.
type Log[T any] struct {
	mu      sync.Mutex
	records []T
	// drained counts the records Drain has handed out while keeping them.
	drained int
}

// TestLog is a node's user-level failure log.
type TestLog = Log[core.UserReport]

// NewTestLog creates the Test Log for a node.
func NewTestLog() *TestLog { return &TestLog{} }

// SystemLog is a node's system-level error log.
type SystemLog struct {
	Log[core.SystemEntry]
	node string
}

// NewSystemLog creates the System Log for a node.
func NewSystemLog(node string) *SystemLog { return &SystemLog{node: node} }

// Append records one record.
func (l *Log[T]) Append(r T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, r)
}

// Len reports the number of records.
//
// Test seam: workload's TestClientRunsCleanCycles and
// TestDefaultFaultsProduceFailures.
func (l *Log[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Snapshot returns a copy of all records.
func (l *Log[T]) Snapshot() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]T, len(l.records))
	copy(out, l.records)
	return out
}

// Drain returns the records appended since the previous Drain (the
// LogAnalyzer's periodic extraction). With keep the log still holds them
// for Snapshot; without it the log forgets them. The result's capacity
// ends at its length, so a caller that appends to it cannot write into the
// log's buffer.
func (l *Log[T]) Drain(keep bool) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.records)
	out := l.records[l.drained:n:n]
	if keep {
		l.drained = n
	} else {
		l.records, l.drained = nil, 0
	}
	return out
}

// Sink returns a stack.Sink-compatible closure that stamps (code, op) pairs
// with the node identity and the current virtual time and appends them to
// the system log. testbed and clock identify the campaign context.
func (l *SystemLog) Sink(testbed string, clock func() sim.Time, connID func() uint64) func(core.ErrorCode, string) {
	return func(code core.ErrorCode, op string) {
		e := core.SystemEntry{
			At:      clock(),
			Testbed: testbed,
			Node:    l.node,
			Source:  code.Source(),
			Code:    code,
			Detail:  code.Message() + " (" + op + ")",
		}
		if connID != nil {
			e.ConnID = connID()
		}
		l.Append(e)
	}
}

// WriteUserReports serialises reports as JSON lines.
func WriteUserReports(w io.Writer, reports []core.UserReport) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range reports {
		if err := enc.Encode(&reports[i]); err != nil {
			return fmt.Errorf("logging: encode report %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadUserReports parses JSON-line reports.
func ReadUserReports(r io.Reader) ([]core.UserReport, error) {
	var out []core.UserReport
	dec := json.NewDecoder(r)
	for {
		var rec core.UserReport
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("logging: decode report %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// WriteSystemEntries serialises entries as JSON lines.
func WriteSystemEntries(w io.Writer, entries []core.SystemEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return fmt.Errorf("logging: encode entry %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadSystemEntries parses JSON-line entries.
func ReadSystemEntries(r io.Reader) ([]core.SystemEntry, error) {
	var out []core.SystemEntry
	dec := json.NewDecoder(r)
	for {
		var rec core.SystemEntry
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("logging: decode entry %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// SortUserReports orders reports by (time, node) in place — the time-based
// merge criterion of the coalescence scheme.
func SortUserReports(reports []core.UserReport) {
	sort.SliceStable(reports, func(i, j int) bool {
		if reports[i].At != reports[j].At {
			return reports[i].At < reports[j].At
		}
		return reports[i].Node < reports[j].Node
	})
}

// SortSystemEntries orders entries by (time, node) in place.
func SortSystemEntries(entries []core.SystemEntry) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].At != entries[j].At {
			return entries[i].At < entries[j].At
		}
		return entries[i].Node < entries[j].Node
	})
}
