package forward

import (
	"fmt"
	"math/rand"
	"testing"
)

// hashSample returns a deterministic spread of key hashes covering the
// whole 32-bit space, dense enough to exercise every ownership arc of a
// small ring.
func hashSample(n int) []uint32 {
	rng := rand.New(rand.NewSource(1))
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// TestRingOrderIndependence: rings built from the same node set in any
// listing order agree on every owner — the property that lets the router
// and a worker's handoff restore each build the ring independently.
func TestRingOrderIndependence(t *testing.T) {
	names := []string{"w1", "w2", "w3", "w4", "w5"}
	a, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), names...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b, err := NewRing(shuffled, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hashSample(20000) {
			if a.Nodes()[a.Owner(h)] != b.Nodes()[b.Owner(h)] {
				t.Fatalf("order %v: owner(%#x) = %s, want %s", shuffled, h, b.Nodes()[b.Owner(h)], a.Nodes()[a.Owner(h)])
			}
		}
	}
}

// TestRingStabilityUnderAddRemove: the consistent-hashing contract. Adding
// a node may move keys only TO the new node (keys not claimed by it keep
// their owner), and removing a node may move only the keys it owned.
func TestRingStabilityUnderAddRemove(t *testing.T) {
	base := []string{"w1", "w2", "w3"}
	before, err := NewRing(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(append(base, "w4"), 0)
	if err != nil {
		t.Fatal(err)
	}
	sample := hashSample(50000)

	movedToNew := 0
	for _, h := range sample {
		ob, oa := before.Nodes()[before.Owner(h)], after.Nodes()[after.Owner(h)]
		if oa == "w4" {
			movedToNew++
			continue
		}
		if ob != oa {
			t.Fatalf("add w4 moved %#x from %s to %s (not the new node)", h, ob, oa)
		}
	}
	// w4 must actually capture a meaningful share — roughly 1/4 of keys,
	// loosely bounded so vnode variance cannot flake the test.
	if movedToNew < len(sample)/10 || movedToNew > len(sample)/2 {
		t.Fatalf("add w4 captured %d of %d keys; want a roughly-1/4 share", movedToNew, len(sample))
	}

	// Remove is the inverse view: keys w4 owned scatter across survivors,
	// everything else stays put.
	for _, h := range sample {
		if after.Nodes()[after.Owner(h)] == "w4" {
			continue
		}
		if before.Nodes()[before.Owner(h)] != after.Nodes()[after.Owner(h)] {
			t.Fatalf("remove w4 would move %#x", h)
		}
	}
}

// TestRingOwnsPartition: the Owns predicates of all nodes partition the
// hash space — every key has exactly one owner, and the predicate agrees
// with Owner. This is the router/worker agreement property: the router
// routes by Owner, a handoff exports by Owns, and they must never
// disagree on a key.
func TestRingOwnsPartition(t *testing.T) {
	names := []string{"a", "b", "c"}
	r, err := NewRing(names, 32)
	if err != nil {
		t.Fatal(err)
	}
	preds := make(map[string]func(uint32) bool, len(names))
	for _, n := range names {
		p, err := r.Owns(n)
		if err != nil {
			t.Fatal(err)
		}
		preds[n] = p
	}
	for _, h := range hashSample(20000) {
		owner := r.Nodes()[r.Owner(h)]
		for n, p := range preds {
			if got, want := p(h), n == owner; got != want {
				t.Fatalf("Owns(%s)(%#x) = %v, Owner = %s", n, h, got, owner)
			}
		}
	}
	if _, err := r.Owns("nope"); err == nil {
		t.Fatal("Owns on a non-member must error")
	}
}

// TestRingBalance: with DefaultVNodes the per-node key share of a small
// cluster stays within a loose band of fair — the property that makes the
// tier's throughput scale linearly instead of bottlenecking on one hot
// node.
func TestRingBalance(t *testing.T) {
	names := []string{"w1", "w2", "w3", "w4"}
	r, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sample := hashSample(100000)
	for _, h := range sample {
		counts[r.Nodes()[r.Owner(h)]]++
	}
	fair := len(sample) / len(names)
	for _, n := range names {
		if c := counts[n]; c < fair/2 || c > fair*2 {
			t.Fatalf("node %s owns %d of %d keys (fair %d): %v", n, c, len(sample), fair, counts)
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{""},
		{"a", "a"},
		{"a,b"},
		{"a=b"},
		{"a/b"},
	} {
		if _, err := NewRing(bad, 0); err == nil {
			t.Fatalf("NewRing(%q) accepted", bad)
		}
	}
	r, err := NewRing([]string{"b", "a"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := r.Nodes(); nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("Nodes() = %v, want canonical order", nodes)
	}
	if r.VNodes() != 4 {
		t.Fatalf("VNodes() = %d", r.VNodes())
	}
	if r.Index("b") != 1 || r.Index("zz") != -1 {
		t.Fatalf("Index lookup wrong")
	}
}

func TestParseNodes(t *testing.T) {
	nodes, err := ParseNodes("w1=127.0.0.1:9001/127.0.0.1:9101, w2=127.0.0.1:9002/127.0.0.1:9102")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Name: "w1", FlowAddr: "127.0.0.1:9001", DNSAddr: "127.0.0.1:9101"},
		{Name: "w2", FlowAddr: "127.0.0.1:9002", DNSAddr: "127.0.0.1:9102"},
	}
	if fmt.Sprint(nodes) != fmt.Sprint(want) {
		t.Fatalf("ParseNodes = %+v, want %+v", nodes, want)
	}
	for _, bad := range []string{"", "w1", "w1=addr", "w1=/x", "w1=x/"} {
		if _, err := ParseNodes(bad); err == nil {
			t.Fatalf("ParseNodes(%q) accepted", bad)
		}
	}
}
