package scatternet

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// Topology is the explicit bridge→piconet membership map of a scatternet:
// Members[b] lists the piconets bridge b time-shares across, in the order of
// its residency rotation. The type generalizes PR 3's implicit ring — any
// membership map is expressible, bridges may span more than two piconets,
// and several bridges may span the same piconet set (a redundancy group, see
// RedundancyGroups). Generators for the common shapes are Ring, Star, Mesh
// and RandomConnected; WithRedundancy replicates every bridge K times.
type Topology struct {
	// Piconets is the number of piconets in the scatternet (>= 1).
	Piconets int
	// Members maps each bridge to the piconets it serves: Members[b] must
	// name at least two distinct in-range piconets. An empty Members means
	// no bridge overlay at all.
	Members [][]int
}

// Bridges reports the number of bridge nodes the topology deploys.
func (t Topology) Bridges() int { return len(t.Members) }

// Validate reports membership-map errors: every bridge must serve at least
// two distinct piconets and every index must be in range. (Connectivity is
// deliberately not required — a partially bridged scatternet is a legal,
// measurable deployment — use Connected to check it.)
func (t Topology) Validate() error {
	if t.Piconets < 1 {
		return fmt.Errorf("scatternet: topology needs at least one piconet, got %d", t.Piconets)
	}
	for b, members := range t.Members {
		if len(members) < 2 {
			return fmt.Errorf("scatternet: bridge %d serves %d piconet(s), need at least 2", b, len(members))
		}
		seen := make(map[int]bool, len(members))
		for _, p := range members {
			if p < 0 || p >= t.Piconets {
				return fmt.Errorf("scatternet: bridge %d serves piconet %d, out of range 0..%d", b, p, t.Piconets-1)
			}
			if seen[p] {
				return fmt.Errorf("scatternet: bridge %d serves piconet %d twice", b, p)
			}
			seen[p] = true
		}
	}
	return nil
}

// edgeMap builds the piconet adjacency of the bridge graph: edge[u][v] is
// the lowest-index bridge serving both u and v. Out-of-range members are
// skipped, so the traversals stay safe on unvalidated maps.
func (t Topology) edgeMap() []map[int]int {
	edge := make([]map[int]int, t.Piconets)
	for b, members := range t.Members {
		for _, u := range members {
			if u < 0 || u >= t.Piconets {
				continue
			}
			if edge[u] == nil {
				edge[u] = make(map[int]int, len(members))
			}
			for _, v := range members {
				if v == u || v < 0 || v >= t.Piconets {
					continue
				}
				if old, ok := edge[u][v]; !ok || b < old {
					edge[u][v] = b
				}
			}
		}
	}
	return edge
}

// Connected reports whether every piconet can reach every other over the
// bridge graph (a bridge links all the piconets it serves pairwise). A
// single-piconet topology is trivially connected.
//
// Test seam: the root TestScatternetSweepSharedRandomTopology.
func (t Topology) Connected() bool {
	if t.Piconets <= 1 {
		return true
	}
	edge := t.edgeMap()
	seen := make([]bool, t.Piconets)
	seen[0] = true
	frontier := []int{0}
	reached := 1
	for len(frontier) > 0 {
		p := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for q := range edge[p] {
			if !seen[q] {
				seen[q] = true
				reached++
				frontier = append(frontier, q)
			}
		}
	}
	return reached == t.Piconets
}

// RingBridges is PR 3's implicit ring made explicit: bridges bridge nodes,
// bridge b serving the piconet pair (b mod piconets, (b+1) mod piconets).
// It is the membership map behind btpan's default (empty-Topology)
// Piconets/Bridges configuration, kept bit-identical by the golden
// equivalence suite.
func RingBridges(piconets, bridges int) Topology {
	t := Topology{Piconets: piconets}
	if piconets < 1 {
		return t // nothing to pair; Validate rejects the piconet count
	}
	for b := 0; b < bridges; b++ {
		t.Members = append(t.Members, []int{b % piconets, (b + 1) % piconets})
	}
	return t
}

// Ring builds the canonical ring of p piconets: one bridge per ring edge,
// bridge b serving (b, (b+1) mod p). A 2-piconet ring collapses to a single
// bridge (its two edges would be parallel bridges — use WithRedundancy for
// that) and a 1-piconet ring has no bridges at all, like Star(1)/Mesh(1).
// Ring(p) equals RingBridges(p, p) for p >= 3.
func Ring(p int) Topology {
	if p <= 1 {
		return Topology{Piconets: p}
	}
	if p == 2 {
		return RingBridges(2, 1)
	}
	return RingBridges(p, p)
}

// Star builds a hub-and-spoke scatternet: piconet 0 is the hub and each of
// the p-1 other piconets hangs off its own bridge (bridge i serves
// (0, i+1)). Every inter-spoke route relays through two bridges, which is
// what makes the star the minimal multi-hop (depth 2) topology.
func Star(p int) Topology {
	t := Topology{Piconets: p}
	for i := 0; i+1 < p; i++ {
		t.Members = append(t.Members, []int{0, i + 1})
	}
	return t
}

// Mesh builds the full mesh: one bridge per unordered piconet pair (i, j),
// i < j, in lexicographic order — every route is a single hop, at the cost
// of p(p-1)/2 bridge nodes.
func Mesh(p int) Topology {
	t := Topology{Piconets: p}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			t.Members = append(t.Members, []int{i, j})
		}
	}
	return t
}

// randomTopologySalt decorrelates topology generation from every simulation
// world derived from the same root seed.
const randomTopologySalt = 0x5EED70B0106B

// RandomConnected builds a random connected scatternet of p piconets and
// exactly bridges bridge nodes, deterministically from the seed: the first
// p-1 bridges form a uniform random spanning tree (so the graph is always
// connected), and every further bridge spans a random set of two or three
// distinct piconets. bridges < p-1 cannot be connected and is an error.
func RandomConnected(p, bridges int, seed uint64) (Topology, error) {
	if p < 1 {
		return Topology{}, fmt.Errorf("scatternet: random topology needs at least one piconet, got %d", p)
	}
	if bridges < p-1 {
		return Topology{}, fmt.Errorf("scatternet: %d bridge(s) cannot connect %d piconets (need >= %d)", bridges, p, p-1)
	}
	if p < 2 && bridges > 0 {
		return Topology{}, fmt.Errorf("scatternet: bridges need at least two piconets to connect")
	}
	rng := rand.New(rand.NewPCG(seed, randomTopologySalt))
	t := Topology{Piconets: p}
	// Random spanning tree: attach each piconet (in a shuffled order) to a
	// uniformly chosen already-attached one.
	order := rng.Perm(p)
	for i := 1; i < p; i++ {
		t.Members = append(t.Members, []int{order[rng.IntN(i)], order[i]})
	}
	for b := p - 1; b < bridges; b++ {
		span := 2
		if p >= 3 && rng.IntN(4) == 0 {
			span = 3 // an occasional three-piconet bridge exercises wide membership
		}
		t.Members = append(t.Members, rng.Perm(p)[:span])
	}
	return t, nil
}

// WithRedundancy replicates every bridge k times in place, so each original
// span becomes a redundancy group of k bridges serving the same piconets —
// the deployment whose correlated-outage rate the K-out-of-K analysis
// (analysis.RedundancyTable) measures against the independent-failure model.
// k <= 1 returns the topology unchanged.
func (t Topology) WithRedundancy(k int) Topology {
	if k <= 1 {
		return t
	}
	out := Topology{Piconets: t.Piconets}
	for _, members := range t.Members {
		for i := 0; i < k; i++ {
			out.Members = append(out.Members, append([]int(nil), members...))
		}
	}
	return out
}

// spanKey canonicalizes a bridge's membership set (order-insensitive).
func spanKey(members []int) string {
	s := append([]int(nil), members...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// RedundancyGroups partitions the bridges by the piconet set they span:
// every returned group lists the bridge indices that serve exactly the same
// piconets, in order of first appearance. Groups of size K >= 2 are the
// redundant deployments whose correlated outage is charged only when all K
// members are down at once.
func (t Topology) RedundancyGroups() [][]int {
	index := map[string]int{}
	var groups [][]int
	for b, members := range t.Members {
		k := spanKey(members)
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], b)
	}
	return groups
}

// Hop is one step of a relay route: bridge Bridge picks the SDU up in
// piconet From and delivers it into piconet To on its residency rotation.
type Hop struct {
	// Bridge is the relaying bridge's index.
	Bridge int
	// From and To are the hop's source and destination piconets.
	From, To int
}

// Router answers minimum-hop route queries over one topology. It builds the
// bridge-graph adjacency (sorted neighbor lists, lowest bridge per edge)
// once and caches one BFS tree per queried source piconet, so routing k
// pairs costs O(E + distinct-sources·(P+E)) instead of the O(k·(P+E))
// rebuild-per-query of Topology.Route — the difference between O(P³) and
// O(P²) for an exhaustive probe plane. Paths are identical to
// Topology.Route's (the BFS visits piconets in the same ascending order and
// prev entries are set exactly once, so an early-terminated and a full
// traversal derive the same path — pinned by TestRouterMatchesRoute).
// Not safe for concurrent use (the tree cache mutates lazily).
type Router struct {
	piconets int
	neigh    [][]int // sorted neighbor piconets per piconet
	via      [][]int // via[u][i] is the lowest bridge serving (u, neigh[u][i])
	trees    []*routeTree
}

// routeTree is one source piconet's BFS tree: prev[v] is the hop that
// reaches v and depth[v] its hop count from the source.
type routeTree struct {
	prev     []Hop
	seen     []bool
	depth    []int32
	frontier []int
}

// NewRouter precomputes the topology's routing adjacency.
func NewRouter(t Topology) *Router {
	edge := t.edgeMap()
	r := &Router{
		piconets: t.Piconets,
		neigh:    make([][]int, t.Piconets),
		via:      make([][]int, t.Piconets),
		trees:    make([]*routeTree, t.Piconets),
	}
	for u := range edge {
		ns := make([]int, 0, len(edge[u]))
		for v := range edge[u] {
			ns = append(ns, v)
		}
		sort.Ints(ns)
		r.neigh[u] = ns
		r.via[u] = make([]int, len(ns))
		for i, v := range ns {
			r.via[u][i] = edge[u][v]
		}
	}
	return r
}

// newTree returns an empty tree sized for the router's topology.
func (r *Router) newTree() *routeTree {
	return &routeTree{
		prev:  make([]Hop, r.piconets),
		seen:  make([]bool, r.piconets),
		depth: make([]int32, r.piconets),
	}
}

// search fills t with src's BFS tree, reusing its storage.
func (r *Router) search(src int, t *routeTree) {
	clear(t.seen)
	t.seen[src] = true
	t.depth[src] = 0
	// One queue holds every level in order; head walks it.
	t.frontier = append(t.frontier[:0], src)
	for head := 0; head < len(t.frontier); head++ {
		u := t.frontier[head]
		for i, v := range r.neigh[u] {
			if t.seen[v] {
				continue
			}
			t.seen[v] = true
			t.prev[v] = Hop{Bridge: r.via[u][i], From: u, To: v}
			t.depth[v] = t.depth[u] + 1
			t.frontier = append(t.frontier, v)
		}
	}
}

// tree returns src's BFS tree, building it on first use.
func (r *Router) tree(src int) *routeTree {
	if t := r.trees[src]; t != nil {
		return t
	}
	t := r.newTree()
	r.search(src, t)
	t.frontier = nil
	r.trees[src] = t
	return t
}

// Route reports the minimum-hop path from src to dst with Topology.Route's
// exact semantics: nil when unreachable, empty non-nil when src == dst.
//
// Test seam: TestRouterMatchesRoute and the event-per-probe plane of
// relayprobe_test.go.
func (r *Router) Route(src, dst int) []Hop {
	if src < 0 || src >= r.piconets || dst < 0 || dst >= r.piconets {
		return nil
	}
	if src == dst {
		return []Hop{}
	}
	t := r.tree(src)
	if !t.seen[dst] {
		return nil
	}
	path := make([]Hop, t.depth[dst])
	for v, i := dst, len(path)-1; v != src; v, i = t.prev[v].From, i-1 {
		path[i] = t.prev[v]
	}
	return path
}
