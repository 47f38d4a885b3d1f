package core

import (
	"io"
	"net/netip"
	"time"

	"repro/internal/cmap"
	"repro/internal/snapshot"
)

// IPHashAddr exposes the correlator's shared IP-key hash, over an
// address's canonical 16-byte form, for cluster placement. Every consumer
// of binary IP keys — lane selection, store splits, shard probing, and
// consistent-hash ring ownership — must use this one hash, which is what
// makes "the router's node choice" and "the worker's store placement" the
// same function of the same bytes.
func IPHashAddr(addr netip.Addr) uint32 {
	a16 := addr.As16()
	return ipHash(&a16)
}

// WriteSnapshotOwned streams a range-filtered checkpoint to w: exactly the
// IP-NAME entries whose key hash satisfies owns (all of them when owns is
// nil — the full checkpoint Checkpoint writes), plus the complete
// NAME-CNAME family. The output is a normal snapshot file — Restore (and
// therefore a live handoff import) applies it with placement recomputed,
// so the exporting and importing nodes may run different lane/split
// layouts. CNAME chains are shipped whole because the forwarder broadcasts
// CNAME records to every node: each worker walks chains locally, so chain
// state must be complete everywhere, while IP-NAME entries are owned by
// exactly one node. It is safe to call while the pipeline is running: the
// iteration read-locks one cmap shard at a time, so a checkpoint never
// freezes a map, only one stripe of one generation at a time. The result
// is a fuzzy snapshot: entries written or overwritten mid-iteration may or
// may not be included, which is exactly the guarantee a warm-restart cache
// needs (restore tolerates both staleness and duplication; the DNS stream
// re-asserts current truth within one TTL). It returns the number of
// entries written.
func (c *Correlator) WriteSnapshotOwned(w io.Writer, created int64, owns func(h uint32) bool) (int, error) {
	sw, err := snapshot.NewWriter(w, created)
	if err != nil {
		return 0, err
	}
	n, err := c.ipName.writeSections(sw, familyIPName, owns)
	if err != nil {
		return n, err
	}
	m, err := c.nameCname.writeSections(sw, familyNameCname, nil)
	n += m
	if err != nil {
		return n, err
	}
	return n, sw.Close()
}

// writeSections emits one section run per (generation, split, key space)
// cell of the store, iterating shard by shard through cmap.AppendShard so
// only one shard stripe is read-locked at a time. The entry buffer is
// reused across shards; keys AppendShard returns are fresh copies, so
// handing them straight to the writer (which copies again into its payload)
// never aliases map-internal storage. Binary 16-byte keys are kept only
// when owns(ipHash(key)) is true; a nil owns keeps everything. String-keyed
// entries are always kept — they are not addressable by the IP-key hash
// the ring partitions on, and (like the NAME-CNAME family) they are
// replicated rather than sharded across nodes. AppendShard returns items
// with a zero Hash, so the filter recomputes the shared hash from the key
// bytes.
func (s *store) writeSections(w *snapshot.Writer, family uint8, owns func(h uint32) bool) (int, error) {
	gens := [...]struct {
		code uint8
		maps []*cmap.Map
	}{
		{genActive, s.active},
		{genInactive, s.inactive},
		{genLong, s.long},
	}
	written := 0
	var items []cmap.Item
	for _, gen := range gens {
		for split, m := range gen.maps {
			if m.Empty() {
				continue
			}
			for _, space := range [...]cmap.KeySpace{cmap.Binary, cmap.Strings} {
				var flags uint8
				if space == cmap.Binary {
					flags = snapshot.SectionFlagBinaryKeys
				}
				if err := w.Begin(family, gen.code, flags, uint32(split)); err != nil {
					return written, err
				}
				for sh := 0; sh < m.ShardCount(); sh++ {
					items = m.AppendShard(sh, space, items[:0])
					for i := range items {
						if owns != nil && space == cmap.Binary && len(items[i].Key) == 16 {
							k := [16]byte(items[i].Key)
							if !owns(ipHash(&k)) {
								continue
							}
						}
						if err := w.Entry(items[i].Key, items[i].Value, items[i].Exp); err != nil {
							return written, err
						}
						written++
					}
				}
			}
		}
	}
	return written, nil
}

// DropOwned removes every IP-NAME entry whose key hash satisfies owns,
// across all generations and splits, returning the number removed. It is
// the drain half of a shard handoff: after the new owner confirms the
// imported range, the old owner drops it so a later lookup misses locally
// instead of answering from a stale replica. The NAME-CNAME family is
// never dropped (it is replicated, not sharded). Safe on a running
// correlator — removal write-locks one shard at a time, and a fill racing
// the drain simply re-asserts the entry, which the next ring change
// drains again.
func (c *Correlator) DropOwned(owns func(h uint32) bool) int {
	dropped := 0
	for _, gen := range [...][]*cmap.Map{c.ipName.active, c.ipName.inactive, c.ipName.long} {
		for _, m := range gen {
			if m.Empty() {
				continue
			}
			dropped += m.RemoveIf(func(key, _ string, _ int64) bool {
				if len(key) != 16 {
					return false
				}
				var k [16]byte
				copy(k[:], key)
				return owns(ipHash(&k))
			})
		}
	}
	return dropped
}

// ImportSnapshot applies a snapshot stream to a running correlator — the
// receive half of a shard handoff. It is Restore with live semantics made
// explicit: every underlying operation (cmap inserts, interning, split
// placement) is concurrency-safe, so importing while the fill and lookup
// workers run only ever adds warmth. Entries already expired at now are
// dropped at the door, exactly as in a boot-time restore.
func (c *Correlator) ImportSnapshot(r io.Reader, now time.Time) (RestoreStats, error) {
	return c.Restore(r, now)
}
