// Package lib holds one declaration of each kind the tool classifies.
package lib

import "sync"

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

// base is embedded in Fields; its field is used through promotion.
type base struct{ depth int }

// Fields holds one field of each kind the field rule classifies.
type Fields struct {
	base
	unread    int
	peeked    int
	seamed    int
	unwritten bool
	counts    [4]int
	pair      pair
	total     int
	seen      map[key]bool
	marks     map[int]bool
	hits      int
	last      pair
	mu        sync.Mutex
	// Test seam: TestFastMatchesSlow reads it.
	kept int
}

// pair is written only by a positional literal.
type pair struct{ a, b int }

// key is read only by hashing it as a map key.
type key struct{ a, b string }

// NewFields is called from main.
func NewFields() *Fields {
	f := &Fields{unread: 1, peeked: 2, seamed: 3, pair: pair{4, 5}, seen: map[key]bool{},
		marks: map[int]bool{}, kept: 6}
	f.depth = 7
	return f
}

// Use reads what production reads.
func (f *Fields) Use(k int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[k]++
	f.marks[k] = true
	inc(&f.hits)
	f.last.a = k
	f.total += f.total + k
	f.seen[key{"a", "b"}] = true
	if f.unwritten {
		return 0
	}
	return f.depth + f.counts[0] + f.pair.a + f.pair.b + len(f.seen) + f.hits
}

// inc counts through a pointer.
func inc(n *int) { *n++ }

// Seamed reads a field only a test needs.
//
// Test seam: TestFastMatchesSlow.
func (f *Fields) Seamed() int { return f.seamed }
