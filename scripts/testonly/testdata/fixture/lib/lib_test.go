package lib

import "testing"

func TestFastMatchesSlow(t *testing.T) {
	var c Counter
	if Slow() != 1 || TestOnly() != 2 || c.Peek() != 0 {
		t.Fatal("fixture")
	}
}
