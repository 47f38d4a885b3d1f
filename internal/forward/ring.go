// Package forward implements the FlowDNS distributed correlation tier: a
// router stage that consistent-hashes NetFlow records and DNS answers by
// the correlator's shared IP-key hash (core.IPHash — the same hash that
// picks lanes and labels store splits inside one process) and fans them
// out to N downstream correlator processes over the existing wire
// encodings, plus the shard-handoff machinery that moves per-key-range
// store state between nodes when the ring changes.
//
// The invariant the whole tier rests on: a flow record and the DNS fills
// that answer it hash identically (flows by their lookup address, A/AAAA
// answers by the answer address — the correlator joins exactly those two),
// so partitioning both by ring ownership of that one hash keeps every join
// local to one worker. CNAME records carry no address; they are broadcast
// to every node so each worker's NAME-CNAME chain walk stays complete.
package forward

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cmap"
)

// DefaultVNodes is the virtual-node count per physical node. 64 points per
// node keeps the largest/smallest ownership arc within a few percent of
// each other for small clusters while a ring rebuild stays trivially cheap.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over the 32-bit IP-key hash space. Each
// node contributes vnodes points placed by hashing "name#i" labels; a key
// is owned by the first point clockwise from its hash. Point positions
// depend only on the node's name and the vnode index — never on the other
// nodes — which is what makes membership changes minimal: adding a node
// moves to it exactly the arcs its new points capture, and removing one
// reassigns only the arcs it owned. Ties (two nodes hashing a point to the
// same position) break by name, so two rings built from the same
// (names, vnodes) spec agree on every owner regardless of the order the
// names were listed in — the router and a worker's handoff restore can
// each build the ring independently and reach identical placement.
type Ring struct {
	names  []string // sorted, unique
	vnodes int
	points []ringPoint // sorted by (hash, node name)
}

type ringPoint struct {
	hash uint32
	node uint16 // index into names
}

// NewRing builds a ring from node names. vnodes <= 0 takes DefaultVNodes.
func NewRing(names []string, vnodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("forward: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("forward: empty node name")
		}
		if strings.ContainsAny(n, ",=/") {
			return nil, fmt.Errorf("forward: node name %q contains a reserved separator", n)
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("forward: duplicate node name %q", n)
		}
	}
	r := &Ring{names: sorted, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(sorted)*vnodes)
	for ni, name := range sorted {
		for v := 0; v < vnodes; v++ {
			label := fmt.Sprintf("%s#%d", name, v)
			r.points = append(r.points, ringPoint{hash: cmap.Hash(label), node: uint16(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.names[r.points[i].node] < r.names[r.points[j].node]
	})
	return r, nil
}

// Owner returns the index (into Nodes) of the node owning hash h.
func (r *Ring) Owner(h uint32) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise from the top of the space
	}
	return int(r.points[i].node)
}

// Nodes returns the ring's node names in canonical (sorted) order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.names...) }

// VNodes returns the virtual-node count per node.
func (r *Ring) VNodes() int { return r.vnodes }

// Index returns the position of name in Nodes, or -1.
func (r *Ring) Index(name string) int {
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Owns returns the ownership predicate for one node — the owns function
// WriteSnapshotOwned and DropOwned take during a handoff. It returns an
// error when name is not a ring member, so a typo in a handoff request
// fails loudly instead of exporting an empty range.
func (r *Ring) Owns(name string) (func(h uint32) bool, error) {
	idx := r.Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("forward: node %q not in ring %v", name, r.names)
	}
	return func(h uint32) bool { return r.Owner(h) == idx }, nil
}
