package scatternet

import (
	"fmt"
	"reflect"
	"testing"
)

// TestTopologyValidate exercises the membership-map invariants.
func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		ok   bool
	}{
		{"no piconets", Topology{}, false},
		{"one piconet no bridges", Topology{Piconets: 1}, true},
		{"bridge needs two piconets", Topology{Piconets: 1, Members: [][]int{{0}}}, false},
		{"ring", Ring(4), true},
		{"star", Star(4), true},
		{"mesh", Mesh(4), true},
		{"bridge serving one piconet", Topology{Piconets: 2, Members: [][]int{{0}}}, false},
		{"bridge serving none", Topology{Piconets: 2, Members: [][]int{{}}}, false},
		{"out of range", Topology{Piconets: 2, Members: [][]int{{0, 2}}}, false},
		{"negative piconet", Topology{Piconets: 2, Members: [][]int{{-1, 0}}}, false},
		{"duplicate membership", Topology{Piconets: 3, Members: [][]int{{1, 1}}}, false},
		{"wide bridge", Topology{Piconets: 3, Members: [][]int{{0, 1, 2}}}, true},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestGeneratorsValidateAndConnect is the property pass over the built-in
// generators: for every size in range, the generated topology validates,
// is connected, and has the documented bridge count.
func TestGeneratorsValidateAndConnect(t *testing.T) {
	for p := 2; p <= 8; p++ {
		for name, topo := range map[string]Topology{
			"ring": Ring(p), "star": Star(p), "mesh": Mesh(p),
		} {
			if err := topo.Validate(); err != nil {
				t.Errorf("%s(%d): %v", name, p, err)
			}
			if !topo.Connected() {
				t.Errorf("%s(%d) is not connected", name, p)
			}
			if topo.Piconets != p {
				t.Errorf("%s(%d) has %d piconets", name, p, topo.Piconets)
			}
		}
		if got, want := Star(p).Bridges(), p-1; got != want {
			t.Errorf("Star(%d) deploys %d bridges, want %d", p, got, want)
		}
		if got, want := Mesh(p).Bridges(), p*(p-1)/2; got != want {
			t.Errorf("Mesh(%d) deploys %d bridges, want %d", p, got, want)
		}
	}
	if got, want := Ring(2).Bridges(), 1; got != want {
		t.Errorf("Ring(2) deploys %d bridges, want %d (parallel edges collapse)", got, want)
	}
	for p := 3; p <= 8; p++ {
		if !reflect.DeepEqual(Ring(p), RingBridges(p, p)) {
			t.Errorf("Ring(%d) != RingBridges(%d, %d)", p, p, p)
		}
	}
}

// TestRandomConnectedProperties is the fuzz-style property pass over the
// random generator: across many (size, bridge budget, seed) points, every
// generated topology validates, is connected, and lands exactly the
// requested bridge count; generation is deterministic per seed and varies
// across seeds.
func TestRandomConnectedProperties(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := 2 + int(seed%7)
		bridges := p - 1 + int(seed%5)
		topo, err := RandomConnected(p, bridges, seed)
		if err != nil {
			t.Fatalf("RandomConnected(%d, %d, %d): %v", p, bridges, seed, err)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("seed %d: generated topology invalid: %v (%+v)", seed, err, topo)
		}
		if !topo.Connected() {
			t.Errorf("seed %d: generated topology disconnected: %+v", seed, topo)
		}
		if topo.Bridges() != bridges {
			t.Errorf("seed %d: %d bridges, want %d", seed, topo.Bridges(), bridges)
		}
		again, err := RandomConnected(p, bridges, seed)
		if err != nil || !reflect.DeepEqual(topo, again) {
			t.Errorf("seed %d: generation not deterministic: %+v vs %+v (%v)", seed, topo, again, err)
		}
	}
	// Different seeds at a fixed size must explore different graphs.
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 10; seed++ {
		topo, err := RandomConnected(5, 7, seed)
		if err != nil {
			t.Fatal(err)
		}
		distinct[fmt.Sprint(topo.Members)] = true
	}
	if len(distinct) < 2 {
		t.Error("10 seeds of RandomConnected(5, 7) never produced two distinct topologies")
	}
	if _, err := RandomConnected(4, 2, 1); err == nil {
		t.Error("RandomConnected(4, 2) must fail: 2 bridges cannot connect 4 piconets")
	}
	if _, err := RandomConnected(0, 0, 1); err == nil {
		t.Error("RandomConnected(0, 0) must fail")
	}
}

// TestRoute pins the BFS router: shortest hop counts, deterministic bridge
// choice, unreachable pairs, and the src == dst degenerate case.
func TestRoute(t *testing.T) {
	star := Star(4) // bridges: 0:(0,1) 1:(0,2) 2:(0,3)
	if r := star.Route(1, 1); r == nil || len(r) != 0 {
		t.Errorf("Route(1,1) = %v, want empty non-nil", r)
	}
	if r := star.Route(0, 2); !reflect.DeepEqual(r, []Hop{{Bridge: 1, From: 0, To: 2}}) {
		t.Errorf("hub route = %v", r)
	}
	want := []Hop{{Bridge: 0, From: 1, To: 0}, {Bridge: 2, From: 0, To: 3}}
	if r := star.Route(1, 3); !reflect.DeepEqual(r, want) {
		t.Errorf("spoke-to-spoke route = %v, want %v", r, want)
	}
	// Parallel bridges: the lowest index must win, deterministically.
	red := Topology{Piconets: 2, Members: [][]int{{0, 1}, {0, 1}, {1, 0}}}
	if r := red.Route(0, 1); !reflect.DeepEqual(r, []Hop{{Bridge: 0, From: 0, To: 1}}) {
		t.Errorf("redundant-pair route = %v, want bridge 0", r)
	}
	// Disconnected: piconet 3 is an island.
	island := Topology{Piconets: 4, Members: [][]int{{0, 1}, {1, 2}}}
	if r := island.Route(0, 3); r != nil {
		t.Errorf("route to island = %v, want nil", r)
	}
	if island.Connected() {
		t.Error("island topology reports connected")
	}
	// A ring of 6 must route the short way around (3 hops max).
	ring := Ring(6)
	if r := ring.Route(0, 3); len(r) != 3 {
		t.Errorf("Ring(6) 0→3 depth %d, want 3", len(r))
	}
	if r := ring.Route(0, 5); len(r) != 1 {
		t.Errorf("Ring(6) 0→5 depth %d, want 1 (bridge 5 spans 5,0)", len(r))
	}
}

// TestRedundancyGroupsAndReplication pins the span grouping and the
// WithRedundancy replication it consumes.
func TestRedundancyGroupsAndReplication(t *testing.T) {
	base := Star(3) // two bridges, spans (0,1) and (0,2)
	topo := base.WithRedundancy(3)
	if topo.Bridges() != 6 {
		t.Fatalf("3-redundant star deploys %d bridges, want 6", topo.Bridges())
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	groups := topo.RedundancyGroups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 spans", groups)
	}
	for _, g := range groups {
		if len(g) != 3 {
			t.Errorf("group %v has %d members, want 3", g, len(g))
		}
	}
	// Order-insensitive span matching: (0,1) and (1,0) are the same span.
	mixed := Topology{Piconets: 2, Members: [][]int{{0, 1}, {1, 0}}}
	if g := mixed.RedundancyGroups(); len(g) != 1 || len(g[0]) != 2 {
		t.Errorf("mixed-order spans grouped as %v, want one group of 2", g)
	}
	if got := base.WithRedundancy(1); !reflect.DeepEqual(got, base) {
		t.Errorf("WithRedundancy(1) changed the topology: %+v", got)
	}
}

// TestTraversalsSafeOnUnvalidatedMaps pins that Route and Connected survive
// membership maps Validate would reject (out-of-range members) instead of
// panicking, and that Ring(1) is the bridge-less degenerate ring.
func TestTraversalsSafeOnUnvalidatedMaps(t *testing.T) {
	bad := Topology{Piconets: 2, Members: [][]int{{0, 5}, {-1, 1}}}
	if r := bad.Route(0, 1); r != nil {
		t.Errorf("Route over out-of-range members = %v, want nil (no usable edge)", r)
	}
	if bad.Connected() {
		t.Error("out-of-range members must not connect the graph")
	}
	ring1 := Ring(1)
	if ring1.Bridges() != 0 || ring1.Validate() != nil || !ring1.Connected() {
		t.Errorf("Ring(1) = %+v, want a valid bridge-less single piconet", ring1)
	}
}
