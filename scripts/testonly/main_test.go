package main

import (
	"slices"
	"testing"
)

// TestFixture runs the tool over a small module that covers each rule: a
// direct call and the helper it reaches, methods called only through
// flag.Value, an iota group with one live member, a function and a method
// only a test calls, and an annotated oracle with the helper it calls.
func TestFixture(t *testing.T) {
	got, err := unreachable([]string{"testdata/fixture"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:21 TestOnly",
		"lib/lib.go:24 Counter",
		"lib/lib.go:27 Counter.Peek",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unreachable = %q, want %q", got, want)
	}
}
