package lib

import "testing"

func TestFastMatchesSlow(t *testing.T) {
	var c Counter
	f := NewFields()
	if Slow() != 1 || TestOnly() != 2 || c.Peek() != 0 || f.Peeked() != 2 || f.Seamed() != 3 || f.kept != 6 {
		t.Fatal("fixture")
	}
}
