// Package lib holds one declaration of each kind the tool classifies.
package lib

// Mode is an enumeration; one live member keeps the group.
type Mode int

// Modes.
const (
	First Mode = iota
	Second
	Third
)

// Direct is called from main.
func Direct() int { return helper() }

// helper is reached through Direct.
func helper() int { return 1 }

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 2 }

// Counter counts.
type Counter struct{ n int }

// Peek is called only from lib_test.go.
func (c *Counter) Peek() int { return c.n }

// Slow is the reference a fast path must match.
//
// Test oracle: TestFastMatchesSlow.
func Slow() int { return slowStep() + 1 }

// slowStep is reached only through the annotated oracle.
func slowStep() int { return 0 }
