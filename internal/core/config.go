// Package core implements the FlowDNS correlator — the paper's primary
// contribution (§3): a real-time join between DNS response streams and
// NetFlow streams that attributes each flow's source IP to the service
// (domain name) it belongs to.
//
// The pipeline is the paper's Figure 1: FillUp workers drain the DNS queue
// into sharded answer→query hashmaps; LookUp workers drain the NetFlow
// queue, resolve each source IP through the IP-NAME maps and then walk the
// NAME-CNAME maps backwards (up to 6 hops) toward the original service
// name; Write workers emit correlated flows to a sink. All state lives in
// active/inactive/long map generations rotated on the clear-up intervals
// (Algorithms 1 and 2, Table 1).
package core

import "time"

// Defaults from the paper (Table 1, §3.1, §3.3, Appendix A.6).
const (
	DefaultNumSplit         = 10
	DefaultAClearUpInterval = 3600 * time.Second
	DefaultCClearUpInterval = 7200 * time.Second
	DefaultCNAMEChainLimit  = 6
	DefaultQueueCapacity    = 65536
	// DefaultWriteBatchSize is how many correlated flows a Write worker
	// accumulates per sink WriteBatch call: one lock acquisition and one
	// buffered write amortized over the batch.
	DefaultWriteBatchSize = 256
	// DefaultWriteFlushInterval bounds how long a Write worker lingers for
	// a batch to fill before handing a partial batch to the sink — the
	// latency ceiling batching adds under light load.
	DefaultWriteFlushInterval = 50 * time.Millisecond
	// DefaultSnapshotInterval is the checkpoint cadence when SnapshotPath
	// is set without SnapshotEvery. Five minutes keeps the restart warmth
	// gap well under the shortest common answer TTLs' refresh horizon while
	// the checkpoint cost (one lock-striped store scan plus a sequential
	// file write) stays negligible at that rate.
	DefaultSnapshotInterval = 5 * time.Minute

	// DefaultRestartBackoffMin/Max bound the supervised-restart backoff: a
	// first restart after 100 ms keeps a transient fault's outage short,
	// doubling to a 5 s ceiling so a hard-crashing component cannot spin.
	DefaultRestartBackoffMin = 100 * time.Millisecond
	DefaultRestartBackoffMax = 5 * time.Second
	// DefaultSampleLowWater / DefaultSampleHighWater are the watermark
	// defaults applied when sampling is enabled (SampleMaxShed > 0) without
	// explicit watermarks: shedding starts at half-full buffers and reaches
	// the configured ceiling at 90 % fill, leaving the last tenth of the
	// buffer to absorb bursts while the sampler is already braking.
	DefaultSampleLowWater  = 0.5
	DefaultSampleHighWater = 0.9
)

// LookupKey selects which flow address the LookUp workers resolve. The
// paper's deployment analyzes traffic sources, "nonetheless, destination
// address or both source and destination addresses can be used with minor
// modifications" (§3.1).
type LookupKey int

// Lookup key modes.
const (
	// LookupSource resolves the flow's source IP (the paper's deployment).
	LookupSource LookupKey = iota
	// LookupDestination resolves the destination IP (e.g. for egress
	// attribution: which service are subscribers sending traffic to).
	LookupDestination
	// LookupBoth tries the source first and falls back to the destination.
	LookupBoth
)

// String names the mode.
func (k LookupKey) String() string {
	switch k {
	case LookupDestination:
		return "destination"
	case LookupBoth:
		return "both"
	default:
		return "source"
	}
}

// Config controls a Correlator. The zero value is not valid; start from
// DefaultConfig (the paper's "Main" benchmark) or one of the variant
// constructors and adjust.
type Config struct {
	// NumSplit is the number of splits for the IP-NAME hashmaps (Table 1:
	// NUM_SPLIT, empirically 10 in the paper's deployment). The lane-major
	// store layout requires a whole number of splits per lane, so
	// normalization rounds NumSplit up to the next multiple of Lanes;
	// Config() reports the effective value.
	NumSplit int
	// AClearUpInterval clears IP-NAME maps (paper: 3600 s, the 99th
	// percentile of A/AAAA TTLs).
	AClearUpInterval time.Duration
	// CClearUpInterval clears NAME-CNAME maps (paper: 7200 s).
	CClearUpInterval time.Duration
	// CNAMEChainLimit bounds the CNAME walk (paper: 6 covers >99 %).
	CNAMEChainLimit int

	// Lanes is the number of independent correlation lanes the LookUp
	// stage is sharded into. Flows are partitioned onto lanes by a hash of
	// the destination IP at offer time (same dst IP → same lane, always);
	// each lane owns its own lookup queue, its own workers, and — via the
	// lane-major split layout — its own slice of the IP-NAME store splits.
	// 0 falls back to the paper default: one lane per split (NumSplit,
	// Table 1), mirroring the per-split design. The NoSplit ablation
	// collapses to a single lane.
	Lanes int

	// FillLanes is the number of independent fill lanes the FillUp stage is
	// sharded into. DNS records are partitioned onto fill lanes by a hash
	// of the A/AAAA answer address at offer time — the same hash that
	// labels the record's store split — so with FillLanes == Lanes (the
	// default when 0) each fill lane writes only its own lane's slice of
	// the IP-NAME splits and FillUp workers never contend on the same
	// generation shards. The NoSplit ablation collapses to a single fill
	// lane.
	FillLanes int

	// Key selects which flow address is resolved (default: source, as in
	// the paper's deployment).
	Key LookupKey

	// Worker counts per stage. The paper allocates "multiple FillUp workers
	// ... to each DNS stream" and likewise for LookUp; these are the
	// totals. LookUp workers are distributed across lanes; since a lane
	// without a worker would never drain, the effective LookUp total is
	// raised to Lanes when LookUpWorkers < Lanes.
	FillUpWorkers int
	LookUpWorkers int
	WriteWorkers  int

	// Queue capacities; overflowing queues drop records (stream loss).
	// LookQueueCap is the total across all lanes, divided evenly (each
	// lane gets LookQueueCap/Lanes, minimum 1). A single hot destination
	// can buffer up to one lane's share before that lane drops — less
	// absorption than the pre-lane shared queue gave a single bursty
	// destination — so operators with skewed traffic should raise this
	// and watch LaneDepths.
	FillQueueCap  int
	LookQueueCap  int
	WriteQueueCap int

	// Adaptive overload shedding (the production inverse of the paper's
	// "keep the buffer usage stable to avoid any loss" goal: when loss is
	// unavoidable, make it deliberate, smooth, and accounted). When
	// SampleMaxShed > 0 every stage queue gets a sampler that starts
	// shedding offered records once its buffer passes SampleLowWater fill,
	// ramping linearly to the SampleMaxShed fraction at SampleHighWater.
	// Shed records are counted in the queues' Stats.Sampled — never
	// silently lost — and surface in Stats.LossRate, /metrics, and
	// /query/health. SampleMaxShed == 0 (the default) disables sampling and
	// keeps the historical drop-on-overflow behaviour.
	SampleLowWater  float64
	SampleHighWater float64
	SampleMaxShed   float64

	// WriteBatchSize bounds how many correlated flows a Write worker hands
	// to the sink per WriteBatch call.
	WriteBatchSize int
	// WriteFlushInterval bounds how long a Write worker waits for a batch
	// to fill before flushing a partial one.
	WriteFlushInterval time.Duration

	// Ablation switches (§4 benchmarks).
	DisableSplit    bool // "No Split": one IP-NAME map instead of NumSplit
	DisableClearUp  bool // "No Clear-Up": maps are never cleared
	DisableRotation bool // "No Rotation": clear without keeping an inactive copy
	DisableLong     bool // "No Long Hashmaps": long-TTL records go to Active

	// ExactTTL enables the Appendix A.8 anti-benchmark: records carry their
	// exact expiry, lookups check it, and a scan-based sweeper removes
	// expired entries every ExactTTLSweepInterval, write-locking every
	// shard. The paper measured >90 % stream loss and ~2x memory this way.
	ExactTTL              bool
	ExactTTLSweepInterval time.Duration

	// SnapshotPath enables warm-restart checkpointing: New restores the
	// correlation store from this file on boot (expired entries dropped,
	// names re-interned), and Run writes it back every SnapshotEvery plus
	// once at the end of the graceful drain. Writes are atomic (temp file +
	// rename), so a crash mid-checkpoint never damages the previous one.
	// Empty disables checkpointing.
	SnapshotPath string
	// SnapshotEvery is the checkpoint cadence; 0 means
	// DefaultSnapshotInterval. Shorter intervals narrow the answer-state
	// window a crash loses at the cost of re-scanning the store more often.
	SnapshotEvery time.Duration

	// RestartBackoffMin/Max bound the supervised-restart backoff: when a
	// stage worker or attached Service dies abnormally (panic, early
	// return), it is restarted after RestartBackoffMin, doubling per
	// consecutive failure up to RestartBackoffMax. Zero values take the
	// defaults (100 ms / 5 s).
	RestartBackoffMin time.Duration
	RestartBackoffMax time.Duration
}

// DefaultConfig returns the paper's Main configuration.
func DefaultConfig() Config {
	return Config{
		NumSplit:              DefaultNumSplit,
		AClearUpInterval:      DefaultAClearUpInterval,
		CClearUpInterval:      DefaultCClearUpInterval,
		CNAMEChainLimit:       DefaultCNAMEChainLimit,
		FillUpWorkers:         4,
		LookUpWorkers:         DefaultNumSplit, // one per default lane; every lane needs a worker
		WriteWorkers:          2,
		FillQueueCap:          DefaultQueueCapacity,
		LookQueueCap:          DefaultQueueCapacity,
		WriteQueueCap:         DefaultQueueCapacity,
		WriteBatchSize:        DefaultWriteBatchSize,
		WriteFlushInterval:    DefaultWriteFlushInterval,
		ExactTTLSweepInterval: 60 * time.Second,
	}
}

// Variant names the ablation benchmarks of §4 plus the Appendix A.8 mode.
type Variant string

// The benchmark variants evaluated in the paper.
const (
	VariantMain       Variant = "Main"
	VariantNoSplit    Variant = "NoSplit"
	VariantNoClearUp  Variant = "NoClearUp"
	VariantNoRotation Variant = "NoRotation"
	VariantNoLong     Variant = "NoLong"
	VariantExactTTL   Variant = "ExactTTL"
)

// AllVariants lists the figure-3 benchmark variants in the paper's order.
func AllVariants() []Variant {
	return []Variant{VariantMain, VariantNoClearUp, VariantNoLong, VariantNoRotation, VariantNoSplit}
}

// ConfigForVariant returns DefaultConfig with the variant's ablation applied.
func ConfigForVariant(v Variant) Config {
	cfg := DefaultConfig()
	switch v {
	case VariantNoSplit:
		cfg.DisableSplit = true
	case VariantNoClearUp:
		cfg.DisableClearUp = true
	case VariantNoRotation:
		cfg.DisableRotation = true
	case VariantNoLong:
		cfg.DisableLong = true
	case VariantExactTTL:
		cfg.ExactTTL = true
	}
	return cfg
}

// normalized fills unset fields with defaults so New never builds a broken
// pipeline from a partially specified config.
func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.NumSplit <= 0 {
		c.NumSplit = d.NumSplit
	}
	if c.AClearUpInterval <= 0 {
		c.AClearUpInterval = d.AClearUpInterval
	}
	if c.CClearUpInterval <= 0 {
		c.CClearUpInterval = d.CClearUpInterval
	}
	if c.CNAMEChainLimit <= 0 {
		c.CNAMEChainLimit = d.CNAMEChainLimit
	}
	if c.FillUpWorkers <= 0 {
		c.FillUpWorkers = d.FillUpWorkers
	}
	if c.LookUpWorkers <= 0 {
		c.LookUpWorkers = d.LookUpWorkers
	}
	if c.WriteWorkers <= 0 {
		c.WriteWorkers = d.WriteWorkers
	}
	if c.FillQueueCap <= 0 {
		c.FillQueueCap = d.FillQueueCap
	}
	if c.LookQueueCap <= 0 {
		c.LookQueueCap = d.LookQueueCap
	}
	if c.WriteQueueCap <= 0 {
		c.WriteQueueCap = d.WriteQueueCap
	}
	if c.WriteBatchSize <= 0 {
		c.WriteBatchSize = d.WriteBatchSize
	}
	if c.WriteFlushInterval <= 0 {
		c.WriteFlushInterval = d.WriteFlushInterval
	}
	if c.ExactTTLSweepInterval <= 0 {
		c.ExactTTLSweepInterval = d.ExactTTLSweepInterval
	}
	if c.SampleMaxShed > 0 {
		if c.SampleMaxShed > 1 {
			c.SampleMaxShed = 1
		}
		if c.SampleLowWater <= 0 {
			c.SampleLowWater = DefaultSampleLowWater
		}
		if c.SampleHighWater <= 0 {
			c.SampleHighWater = DefaultSampleHighWater
		}
		if c.SampleHighWater > 1 {
			c.SampleHighWater = 1
		}
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = DefaultSnapshotInterval
	}
	if c.RestartBackoffMin <= 0 {
		c.RestartBackoffMin = DefaultRestartBackoffMin
	}
	if c.RestartBackoffMax < c.RestartBackoffMin {
		c.RestartBackoffMax = DefaultRestartBackoffMax
		if c.RestartBackoffMax < c.RestartBackoffMin {
			c.RestartBackoffMax = c.RestartBackoffMin
		}
	}
	if c.DisableSplit {
		c.NumSplit = 1
	}
	if c.Lanes <= 0 {
		// Paper-default fallback: one correlation lane per split.
		c.Lanes = c.NumSplit
	}
	if c.DisableSplit {
		c.Lanes = 1
	}
	// The lane-major store layout needs an equal number of splits per
	// lane; round NumSplit up to the next multiple of Lanes so Config()
	// reports the split count actually allocated.
	if rem := c.NumSplit % c.Lanes; rem != 0 {
		c.NumSplit += c.Lanes - rem
	}
	if c.FillLanes <= 0 {
		// Default: mirror the correlation lanes, aligning the fill
		// partition with the lane-major split layout.
		c.FillLanes = c.Lanes
	}
	if c.DisableSplit {
		c.FillLanes = 1
	}
	return c
}
