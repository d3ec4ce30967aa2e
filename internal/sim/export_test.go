package sim

import "sort"

// StreamNames reports the names of the streams created so far, sorted.
func (r *Rig) StreamNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.streams))
	for n := range r.streams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
