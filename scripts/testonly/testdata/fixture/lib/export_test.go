package lib

// Peeked reads a field production never reads.
func (f *Fields) Peeked() int { return f.peeked }
