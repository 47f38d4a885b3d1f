package cmap

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func oaKey(i uint64) [16]byte {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], i)
	binary.BigEndian.PutUint64(k[8:], ^i)
	return k
}

// A long random interleaving of set/overwrite/remove/get must leave the
// table exactly agreeing with a reference map — this exercises growth,
// collision chains, and backward-shift deletion in every relative order.
func TestTableMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab table
	ref := map[[16]byte]entry{}
	const keySpace = 512 // small key space forces overwrites and re-inserts
	for op := 0; op < 50_000; op++ {
		k := oaKey(uint64(rng.Intn(keySpace)))
		switch rng.Intn(4) {
		case 0, 1: // set
			v := fmt.Sprintf("v%d", op)
			exp := int64(op)
			inserted := tab.set(&k, v, exp)
			_, existed := ref[k]
			if inserted == existed {
				t.Fatalf("op %d: set inserted=%v but key existed=%v", op, inserted, existed)
			}
			ref[k] = entry{v: v, exp: exp}
		case 2: // remove
			removed := tab.removeIf(func(s *oaSlot) bool { return s.key == k }) == 1
			_, existed := ref[k]
			if removed != existed {
				t.Fatalf("op %d: remove=%v but key existed=%v", op, removed, existed)
			}
			delete(ref, k)
		case 3: // get
			v, exp, ok := tab.get(&k)
			e, existed := ref[k]
			if ok != existed || v != e.v || exp != e.exp {
				t.Fatalf("op %d: get=(%q,%d,%v) want (%q,%d,%v)", op, v, exp, ok, e.v, e.exp, existed)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("op %d: len=%d want %d", op, tab.len(), len(ref))
		}
	}
	// Every surviving reference entry must still probe correctly, and the
	// iteration must visit each exactly once.
	seen := map[[16]byte]bool{}
	tab.iterate(func(s *oaSlot) bool {
		if seen[s.key] {
			t.Fatalf("iterate visited %x twice", s.key)
		}
		seen[s.key] = true
		e, ok := ref[s.key]
		if !ok || e.v != s.v || e.exp != s.exp {
			t.Fatalf("iterate: %x=(%q,%d) not in reference (%+v,%v)", s.key, s.v, s.exp, e, ok)
		}
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("iterate visited %d entries, want %d", len(seen), len(ref))
	}
}

// removeIf with a predicate that deletes a random half of the entries must
// keep every survivor reachable by get — the backward-shift fold into the
// sweep must never break a probe chain, including chains that wrap the end
// of the slot array.
func TestTableRemoveIfKeepsSurvivorsReachable(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var tab table
		n := 64 + rng.Intn(2048)
		doomed := map[[16]byte]bool{}
		keys := make([][16]byte, n)
		for i := range keys {
			keys[i] = oaKey(uint64(i) * 0x9E3779B9) // strided keys → clustered chains
			tab.set(&keys[i], fmt.Sprintf("v%d", i), int64(i))
			if rng.Intn(2) == 0 {
				doomed[keys[i]] = true
			}
		}
		removed := tab.removeIf(func(s *oaSlot) bool { return doomed[s.key] })
		if removed != len(doomed) {
			t.Fatalf("trial %d: removed %d, want %d", trial, removed, len(doomed))
		}
		if tab.len() != n-len(doomed) {
			t.Fatalf("trial %d: len=%d want %d", trial, tab.len(), n-len(doomed))
		}
		for i, k := range keys {
			v, _, ok := tab.get(&k)
			if doomed[k] {
				if ok {
					t.Fatalf("trial %d: doomed key %d still present", trial, i)
				}
			} else if !ok || v != fmt.Sprintf("v%d", i) {
				t.Fatalf("trial %d: survivor %d unreachable after sweep (ok=%v v=%q)", trial, i, ok, v)
			}
		}
	}
}

// An overwrite of an existing binary key must not allocate, and neither may
// an insert once the slot array has capacity — the discipline the fill path
// benchmarks rest on, pinned here at the table level.
func TestTableSetAllocFree(t *testing.T) {
	var tab table
	k := oaKey(7)
	tab.set(&k, "warm", 1)
	for i := 0; i < 100; i++ { // pre-grow
		kk := oaKey(uint64(i))
		tab.set(&kk, "fill", 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		tab.set(&k, "warm", 2)
	}); n != 0 {
		t.Fatalf("overwrite allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		v, _, ok := tab.get(&k)
		if !ok || v != "warm" {
			t.Fatal("lost entry")
		}
	}); n != 0 {
		t.Fatalf("get allocs/op = %v, want 0", n)
	}
}

// A cleared table owns no memory and accepts fresh inserts.
func TestTableReset(t *testing.T) {
	var tab table
	for i := 0; i < 100; i++ {
		k := oaKey(uint64(i))
		tab.set(&k, "x", 0)
	}
	tab.reset()
	if tab.len() != 0 || tab.slots != nil || tab.ctrl != nil {
		t.Fatalf("reset left state: len=%d slots=%v", tab.len(), tab.slots != nil)
	}
	k := oaKey(1)
	if _, _, ok := tab.get(&k); ok {
		t.Fatal("get hit after reset")
	}
	if !tab.set(&k, "y", 0) {
		t.Fatal("insert after reset not reported as new")
	}
}
