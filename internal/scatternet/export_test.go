package scatternet

// Route computes a minimum-hop relay path from piconet src to piconet dst
// over the bridge graph, deterministically (BFS visiting piconets in
// ascending order, lowest bridge index per edge). It returns nil when dst is
// unreachable and an empty non-nil slice when src == dst. One-shot
// convenience over NewRouter — a caller routing many pairs of the same
// topology should hold a Router, which amortizes the adjacency build and
// the per-source BFS across queries.
func (t Topology) Route(src, dst int) []Hop {
	return NewRouter(t).Route(src, dst)
}
