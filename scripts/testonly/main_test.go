package main

import (
	"slices"
	"testing"
)

// TestFixture runs the tool over a small module that covers each rule: a
// direct call and the helper it reaches, methods called only through
// flag.Value, an iota group with one live member, a function and a method
// only a test calls, and an annotated oracle with the helper it calls.
// Its fields cover the field rule: written but never read, read only by
// an export_test.go accessor, read but never written, and a read that only
// feeds the field itself are reported; a field read by an annotated seam,
// an embedded field used by promotion, an array field written only through
// f.counts[k]++, a map used only as f.marks[k] = v, a field passed only as
// &f.hits, a field set only as f.last.a = k, a mutex used only through its
// methods, fields written by a positional literal, fields read by hashing
// a map key and a field with its own "Test seam:" line are kept.
func TestFixture(t *testing.T) {
	got, err := dead([]string{"testdata/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:23 TestOnly",
		"lib/lib.go:26 Counter",
		"lib/lib.go:26 Counter.n (never written)",
		"lib/lib.go:29 Counter.Peek",
		"lib/lib.go:45 Fields.unread (never read)",
		"lib/lib.go:46 Fields.peeked (never read)",
		"lib/lib.go:48 Fields.unwritten (never written)",
		"lib/lib.go:51 Fields.total (never read)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("dead = %q, want %q", got, want)
	}
}
