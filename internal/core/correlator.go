package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmap"
	"repro/internal/dnsname"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/queue"
	"repro/internal/stream"
)

// CorrelatedFlow is the output record: the original flow annotated with the
// service name FlowDNS resolved for its source IP. It is what the Write
// workers hand to the sink and what the ISP joins with BGP data downstream.
type CorrelatedFlow struct {
	Flow netflow.FlowRecord
	// Name is the resolved service/domain name, "" when the lookup missed
	// (result = NULL in Algorithm 2).
	Name string
	// ChainLen counts NAME-CNAME hops taken (0 = the IP-NAME hit was final).
	ChainLen int
	// Tier records which generation satisfied the IP-NAME lookup.
	Tier Tier
	// EnqueuedAt is the wall-clock instant the flow entered the LookUp
	// queue (stamped by OfferFlowBatch; zero for synchronous CorrelateBatch
	// calls). The write-delay metric — time from flow arrival
	// to the sink write, spanning the LookUp wait, the correlation, and the
	// write queue — derives from it.
	EnqueuedAt time.Time
}

// Correlated reports whether a name was resolved.
func (c *CorrelatedFlow) Correlated() bool { return c.Name != "" }

// ErrAlreadyRunning is returned by Run when the correlator has already been
// run; a Correlator's lifecycle is single-use.
var ErrAlreadyRunning = errors.New("core: correlator already running")

// flowEntry is one LookUp queue item: the flow plus its arrival instant.
type flowEntry struct {
	fr netflow.FlowRecord
	at time.Time
}

// ingestBatchSize bounds how many records a FillUp/LookUp worker drains per
// queue round trip; batching here cuts per-record channel overhead without
// adding latency (workers never wait for a batch to fill).
const ingestBatchSize = 128

// Option configures optional Correlator behaviour at construction.
type Option func(*Correlator)

// WithSink routes correlated flows to s. Without this option output is
// discarded (pure measurement runs). The correlator owns the sink's
// lifecycle from Run's perspective: Flush then Close at the end of the
// drain.
func WithSink(s Sink) Option {
	return func(c *Correlator) {
		if s != nil {
			c.sink = s
		}
	}
}

// WithSources attaches input streams. Run launches every source with the
// run context and the correlator as the ingest façade; when all sources
// complete, the pipeline drains and Run returns.
func WithSources(srcs ...stream.Source) Option {
	return func(c *Correlator) {
		for _, s := range srcs {
			if s != nil {
				c.sources = append(c.sources, s)
			}
		}
	}
}

// Service is an auxiliary long-running component the correlator hosts for
// the duration of a run — the query-plane HTTP server, the window store's
// maintenance loop. Run launches every attached service alongside the
// pipeline workers and stops it (by cancelling its context) only after the
// drain completes and the sink has closed, so services observe the final
// flushed state before shutting down. Services run supervised: a Serve
// that panics or returns while the run is live is restarted with
// exponential backoff (Config.RestartBackoffMin/Max), counted in the
// per-component Panics/Restarts stats. A service's last abnormal error
// never stops the pipeline; it is joined into Run's result.
type Service interface {
	// Name labels the service in errors.
	Name() string
	// Serve runs until ctx is done; its return is joined into Run's error.
	Serve(ctx context.Context) error
}

// WithServices attaches auxiliary services to the run lifecycle.
func WithServices(svcs ...Service) Option {
	return func(c *Correlator) {
		for _, s := range svcs {
			if s != nil {
				c.services = append(c.services, s)
			}
		}
	}
}

// WithMetrics invokes observe with a stats snapshot every interval while
// Run is active, plus once at the end of the drain — the hook the daemon
// uses for periodic logging and exporters use for scraping.
func WithMetrics(interval time.Duration, observe func(Stats)) Option {
	return func(c *Correlator) {
		if interval > 0 && observe != nil {
			c.metricsInterval = interval
			c.observe = observe
		}
	}
}

// Correlator is the FlowDNS pipeline of Figure 1. Construct with New, feed
// it via the stream.Ingest façade (OfferDNSBatch/OfferFlowBatch) or attach
// Sources, run the workers with Run(ctx) — cancellation stops intake and
// drains every stage through the sink — and read Stats at any time. The
// deterministic IngestDNSBatch/CorrelateBatch methods bypass the queues for
// offline replays; a single record is a one-element batch. The FillUp and
// LookUp stages run one lane per IP-NAME split (Config.NumSplit), each lane
// with its own queues and workers; one write queue feeds the sink.
type Correlator struct {
	cfg      Config
	sink     Sink
	sources  []stream.Source
	services []Service

	// draining closes the moment Run begins its graceful drain; Draining()
	// is the flag HTTP handlers consult to stop racing the sealing path.
	draining chan struct{}

	metricsInterval time.Duration
	observe         func(Stats)

	ipName    *store // A/AAAA answer(IP) -> query name
	nameCname *store // CNAME answer(canonical) -> query (alias)

	// lanes are the FillUp and LookUp stages, one lane per IP-NAME split
	// (see Config.NumSplit): DNS records are partitioned onto lanes by the
	// ipHash of the answer address, flows by the ipHash of the destination
	// address.
	lanes  []*lane
	writeQ *queue.Queue[CorrelatedFlow]

	// stagePool recycles the per-lane staging buffers OfferFlowBatch uses
	// to partition a batch in one pass.
	stagePool sync.Pool
	// dnsStagePool does the same for OfferDNSBatch's partition.
	dnsStagePool sync.Pool
	// fillBufPool recycles the item-assembly scratch the synchronous
	// IngestDNSBatch uses for batches of more than one record; lane
	// workers hold a private buffer instead.
	fillBufPool sync.Pool

	started atomic.Bool

	// restoreStats / restoreErr record the outcome of New's restore-on-boot
	// (see RestoreResult); written once during construction, read-only after.
	restoreStats RestoreStats
	restoreErr   error

	// sinkErr holds the first WriteBatch error; once set, write workers
	// drain without writing and Run begins shutdown.
	sinkErr     atomic.Pointer[error]
	sinkFailed  chan struct{}
	sinkErrOnce sync.Once

	// sup tracks panic containment and supervised restarts per component
	// (stage workers, checkpointer, services).
	sup supervisor

	stats statsCounters
}

// New builds a Correlator with the given config. With no options the
// correlator discards output and has no sources.
func New(cfg Config, opts ...Option) *Correlator {
	cfg = cfg.normalized()
	c := &Correlator{
		cfg:  cfg,
		sink: DiscardSink{},
		ipName: newStore(storeConfig{
			splits:        cfg.NumSplit,
			interval:      cfg.AClearUpInterval,
			rotation:      !cfg.DisableRotation,
			clearUp:       !cfg.DisableClearUp,
			longEnabled:   !cfg.DisableLong && !cfg.DisableClearUp,
			exactTTL:      cfg.ExactTTL,
			sweepInterval: cfg.ExactTTLSweepInterval,
		}),
		// Table 1 lists NAME-CNAME without a split subscript: CNAME volume
		// is far below A/AAAA volume, so one split suffices.
		nameCname: newStore(storeConfig{
			splits:        1,
			interval:      cfg.CClearUpInterval,
			rotation:      !cfg.DisableRotation,
			clearUp:       !cfg.DisableClearUp,
			longEnabled:   !cfg.DisableLong && !cfg.DisableClearUp,
			exactTTL:      cfg.ExactTTL,
			sweepInterval: cfg.ExactTTLSweepInterval,
		}),
		lanes:      make([]*lane, cfg.NumSplit),
		writeQ:     queue.New[CorrelatedFlow](cfg.QueueCap),
		sinkFailed: make(chan struct{}),
		draining:   make(chan struct{}),
	}
	// sampler is shared by every stage queue: each lane queue measures its
	// own fill against the same watermarks, so a single hot lane starts
	// shedding without waiting for the whole stage to drown.
	sampler := queue.SamplerConfig{
		LowWater:  cfg.SampleLowWater,
		HighWater: cfg.SampleHighWater,
		MaxShed:   cfg.SampleMaxShed,
	}
	c.writeQ.SetSampler(sampler)
	// QueueCap is each stage's total buffer: the lane queues split it, so
	// the memory footprint and the loss bound do not scale with NumSplit.
	perLane := max(cfg.QueueCap/len(c.lanes), 1)
	for i := range c.lanes {
		l := &lane{
			fill: queue.New[stream.DNSRecord](perLane),
			in:   newInterner(defaultInternCap),
			look: queue.New[flowEntry](perLane),
		}
		l.fill.SetSampler(sampler)
		l.look.SetSampler(sampler)
		c.lanes[i] = l
	}
	n := len(c.lanes)
	c.stagePool.New = func() any { return &laneStage{perLane: make([][]flowEntry, n)} }
	c.dnsStagePool.New = func() any { return &dnsStage{perLane: make([][]stream.DNSRecord, n)} }
	c.fillBufPool.New = func() any { return new(fillBuf) }
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	// Restore-on-boot: repopulate the stores from the last checkpoint, if
	// one exists. This runs after the lanes are built (restored names
	// re-intern through the lane interners) and before any worker starts,
	// so the restore itself is the only writer.
	if cfg.SnapshotPath != "" {
		c.restoreFromFile(cfg.SnapshotPath)
	}
	return c
}

// lane is one split's slice of the FillUp and LookUp stages: the fill
// queue its FillUp workers drain, the interner they share, and the lookup
// queue its LookUp workers drain. Run launches the workers.
type lane struct {
	fill *queue.Queue[stream.DNSRecord]
	in   *interner
	look *queue.Queue[flowEntry]
}

// dnsStage is the reusable per-lane staging buffer OfferDNSBatch partitions
// a DNS batch into.
type dnsStage struct {
	perLane [][]stream.DNSRecord
}

// fillBuf is the reusable scratch one IngestDNSBatch call assembles its
// store items in: the 16-byte binary keys (backing storage the items alias)
// and the Active/Long item groups handed to store.putItems.
type fillBuf struct {
	keys   [][16]byte
	active []cmap.Item
	long   []cmap.Item
	sc     dispatchScratch
}

// laneStage is the reusable per-lane staging buffer OfferFlowBatch
// partitions a flow batch into.
type laneStage struct {
	perLane [][]flowEntry
}

// ipHash hashes the 16-byte canonical address form in two 64-bit loads
// plus a SplitMix64-style finalizer — a fraction of the cost of hashing 16
// bytes through byte-at-a-time FNV on the per-flow path. Every operation
// on binary IP keys (lane selection, store split labeling, shard
// selection, fills) must use this same hash; that shared value is what
// puts an answer address's lane and store split at the same index.
func ipHash(key *[16]byte) uint32 {
	lo := binary.LittleEndian.Uint64(key[:8])
	hi := binary.LittleEndian.Uint64(key[8:])
	x := lo ^ bits.RotateLeft64(hi, 32)
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint32(x)
}

// laneFor returns the lane index for addr's ipHash.
func (c *Correlator) laneFor(addr netip.Addr) int {
	if len(c.lanes) == 1 {
		return 0
	}
	a16 := addr.As16()
	return c.laneForHash(ipHash(&a16))
}

// laneForHash is laneFor when the caller already has the key hash; for an
// IP key it is also the key's store split.
func (c *Correlator) laneForHash(h uint32) int {
	return int(h % uint32(len(c.lanes)))
}

// dnsLaneFor returns the lane rec fills through. A/AAAA records route by
// the answer address, so each lane writes only its own split; the offer
// path types the address first (DNSRecord.TypeAddr), so a string-only
// producer's records route identically to a wire source's for the same IP.
// Records without a parsable address (CNAMEs, garbage answers) route by
// the answer-string hash: any lane ingests them correctly.
func (c *Correlator) dnsLaneFor(rec *stream.DNSRecord) int {
	if len(c.lanes) == 1 {
		return 0
	}
	if rec.Addr.IsValid() {
		return c.laneFor(rec.Addr)
	}
	return c.laneForHash(cmap.Hash(rec.Answer))
}

// Lanes returns the number of lanes in effect: NumSplit, 1 under NoSplit.
func (c *Correlator) Lanes() int { return len(c.lanes) }

// Config returns the normalized configuration in effect.
func (c *Correlator) Config() Config { return c.cfg }

// --- stream.Ingest façade (live pipeline) ---

// OfferDNSBatch partitions a batch of DNS records onto their lanes' fill
// queues — one pass through reusable staging buffers, as OfferFlowBatch
// does for flows — and returns how many were accepted; the rest were
// dropped (stream loss). The lane is chosen by the answer-address hash, so
// records for the same address always land on the same lane.
func (c *Correlator) OfferDNSBatch(recs []stream.DNSRecord) int {
	if len(recs) == 0 {
		return 0
	}
	if len(c.lanes) == 1 {
		return c.lanes[0].fill.OfferBatch(recs)
	}
	st := c.dnsStagePool.Get().(*dnsStage)
	for i := range recs {
		r := recs[i]
		r.TypeAddr()
		l := c.dnsLaneFor(&r)
		st.perLane[l] = append(st.perLane[l], r)
	}
	accepted := 0
	for l := range st.perLane {
		if len(st.perLane[l]) == 0 {
			continue
		}
		accepted += c.lanes[l].fill.OfferBatch(st.perLane[l])
		st.perLane[l] = st.perLane[l][:0]
	}
	c.dnsStagePool.Put(st)
	return accepted
}

// OfferFlowBatch partitions a batch of flows onto their lanes' lookup queues —
// one arrival stamp for the whole batch — and returns how many were
// accepted; the rest were dropped (stream loss). The lane is chosen by a
// hash of the destination IP, so flows to the same destination always land
// on the same lane. Partitioning is one pass through reusable staging
// buffers, so the offer cost stays amortized per batch, not per record.
func (c *Correlator) OfferFlowBatch(frs []netflow.FlowRecord) int {
	if len(frs) == 0 {
		return 0
	}
	now := time.Now()
	st := c.stagePool.Get().(*laneStage)
	for i := range frs {
		l := c.laneFor(frs[i].DstIP)
		st.perLane[l] = append(st.perLane[l], flowEntry{fr: frs[i], at: now})
	}
	accepted := 0
	for l := range st.perLane {
		if len(st.perLane[l]) == 0 {
			continue
		}
		accepted += c.lanes[l].look.OfferBatch(st.perLane[l])
		st.perLane[l] = st.perLane[l][:0]
	}
	c.stagePool.Put(st)
	return accepted
}

var _ stream.Ingest = (*Correlator)(nil)

// QueueDepths reports the current occupancy of the three stage queues —
// the "buffer usage" the paper's operators watch to keep loss at zero. The
// fill and look depths aggregate every lane; FillLaneDepths and LaneDepths
// have the per-lane breakdown.
func (c *Correlator) QueueDepths() (fill, look, write int) {
	for _, l := range c.lanes {
		fill += l.fill.Len()
		look += l.look.Len()
	}
	return fill, look, c.writeQ.Len()
}

// LaneDepths reports each lane's lookup-queue occupancy — the skew monitor
// for the dst-IP partition (a hot destination shows up as one deep lane).
func (c *Correlator) LaneDepths() []int {
	out := make([]int, len(c.lanes))
	for i, l := range c.lanes {
		out[i] = l.look.Len()
	}
	return out
}

// FillLaneFor reports which lane rec fills through — the partition
// inspector behind FillLaneDepths skew debugging (and the repo benchmarks'
// lane-local batch construction).
func (c *Correlator) FillLaneFor(rec *stream.DNSRecord) int { return c.dnsLaneFor(rec) }

// FillLaneDepths reports each lane's fill-queue occupancy — the skew
// monitor for the answer-address partition.
func (c *Correlator) FillLaneDepths() []int {
	out := make([]int, len(c.lanes))
	for i, l := range c.lanes {
		out[i] = l.fill.Len()
	}
	return out
}

// Run executes the pipeline: it launches the FillUp, LookUp, and Write
// workers plus every attached source, then blocks until one of
//
//   - ctx is cancelled (graceful shutdown request),
//   - all attached sources complete (end of finite input),
//   - a source fails (abnormal stream death must not leave the pipeline
//     running blind), or
//   - the sink fails (first WriteBatch error)
//
// and performs a graceful drain: sources stop, every stage queue is closed
// and drained in order, in-flight records reach the sink, and the sink is
// flushed and closed. Run returns source and sink errors joined;
// cancellation itself is a clean shutdown, not an error. A Correlator runs
// at most once.
func (c *Correlator) Run(ctx context.Context) error {
	if !c.started.CompareAndSwap(false, true) {
		return ErrAlreadyRunning
	}

	var wgFill, wgLook, wgWrite sync.WaitGroup
	// FillUp and LookUp workers are spread evenly over the lanes, the
	// remainder one each to the first lanes; normalized guarantees every
	// lane at least one of each. A worker drains only its own lane's queue
	// in whole batches, so the clear-up check, the stats updates and the
	// shard-lock traffic amortize per batch instead of per record.
	spread := func(total, li int) int {
		n := total / len(c.lanes)
		if li < total%len(c.lanes) {
			n++
		}
		return n
	}
	for li, l := range c.lanes {
		for range spread(c.cfg.FillUpWorkers, li) {
			wgFill.Add(1)
			go func() {
				defer wgFill.Done()
				c.fillWorker(l)
			}()
		}
		for range spread(c.cfg.LookUpWorkers, li) {
			wgLook.Add(1)
			go func() {
				defer wgLook.Done()
				c.lookWorker(l)
			}()
		}
	}
	// The drain must finish even after ctx is cancelled: in-flight records
	// belong to the sink, so sink writes run under an uncancellable child.
	writeCtx := context.WithoutCancel(ctx)
	for i := 0; i < c.cfg.WriteWorkers; i++ {
		wgWrite.Add(1)
		go func() {
			defer wgWrite.Done()
			h := c.sup.comp(compWrite)
			batch := make([]CorrelatedFlow, 0, c.cfg.WriteBatchSize)
			c.superviseLoop(h, func() {
				for {
					var ok bool
					batch, ok = c.writeQ.TakeBatch(batch[:0], c.cfg.WriteBatchSize, c.cfg.WriteFlushInterval)
					if !ok {
						return
					}
					now := time.Now()
					for i := range batch {
						if !batch[i].EnqueuedAt.IsZero() {
							c.observeWriteDelay(now.Sub(batch[i].EnqueuedAt))
						}
					}
					if c.sinkErr.Load() != nil {
						continue // sink already failed: drain without writing
					}
					// A panicking sink is contained and handled like a sink
					// error: the run shuts down cleanly instead of crashing.
					if err := guardErr(h, func() error { return c.sink.WriteBatch(writeCtx, batch) }); err != nil {
						c.failSink(err)
						continue
					}
					c.stats.written.Add(uint64(len(batch)))
					// Push buffered sink output down to the writer whenever the
					// flush-interval timer fired (partial batch) or no more
					// records are imminent (queue drained) — so
					// WriteFlushInterval bounds end-to-end latency even when a
					// burst ends on an exactly-full batch or WriteBatchSize is
					// 1. Under sustained load batches are full and the queue
					// non-empty, so the buffer amortizes naturally.
					if len(batch) < c.cfg.WriteBatchSize || c.writeQ.Len() == 0 {
						if err := guardErr(h, c.sink.Flush); err != nil {
							c.failSink(err)
						}
					}
				}
			})
		}()
	}

	// Sources run under their own cancellable context so that sink
	// failure, source failure, and source completion can stop intake
	// before ctx itself is done.
	srcCtx, stopSources := context.WithCancel(ctx)
	defer stopSources()
	var wgSrc sync.WaitGroup
	var srcFailedOnce sync.Once
	srcFailed := make(chan struct{})
	srcErrs := make([]error, len(c.sources))
	for i, src := range c.sources {
		wgSrc.Add(1)
		go func(i int, src stream.Source) {
			defer wgSrc.Done()
			if err := src.Run(srcCtx, c); err != nil {
				srcErrs[i] = err
				// Fail fast: a source that dies abnormally must not leave
				// the pipeline running blind until process exit.
				srcFailedOnce.Do(func() { close(srcFailed) })
			}
		}(i, src)
	}
	var sourcesDone chan struct{}
	if len(c.sources) > 0 {
		sourcesDone = make(chan struct{})
		go func() {
			wgSrc.Wait()
			close(sourcesDone)
		}()
	}

	// The background checkpointer owns the periodic snapshot writes for the
	// whole run; the final checkpoint after the drain happens on this
	// goroutine's exit path below, so two Checkpoint calls never overlap.
	var wgCkpt sync.WaitGroup
	ckptStop := make(chan struct{})
	if c.cfg.SnapshotPath != "" {
		wgCkpt.Add(1)
		go func() {
			defer wgCkpt.Done()
			h := c.sup.comp(compCheckpoint)
			ticker := time.NewTicker(c.cfg.SnapshotEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					// A panic inside the checkpoint write path (injected or
					// real) is contained and counted as a failed checkpoint;
					// the previous on-disk generation stays good either way.
					if err := guardErr(h, func() error { return c.Checkpoint(c.cfg.SnapshotPath) }); err != nil {
						c.stats.checkpointErrors.Add(1)
					} else {
						c.stats.checkpoints.Add(1)
					}
				case <-ckptStop:
					return
				}
			}
		}()
	}

	// Services outlive the drain: the query plane keeps answering (and the
	// store keeps maintaining) while the pipeline flushes, and stops only
	// after the sink has closed — so a service shutdown snapshot sees the
	// final persisted state. WithoutCancel detaches them from the caller's
	// cancellation; svcStop is the lifecycle's own switch.
	svcCtx, svcStop := context.WithCancel(context.WithoutCancel(ctx))
	defer svcStop()
	var wgSvc sync.WaitGroup
	svcErrs := make([]error, len(c.services))
	for i, svc := range c.services {
		wgSvc.Add(1)
		go func(i int, svc Service) {
			defer wgSvc.Done()
			// Supervised serve loop: a service that panics or returns while
			// the run is still live is restarted with exponential backoff
			// instead of leaving the pipeline without its query plane or
			// store maintenance. The last abnormal error is still joined
			// into Run's result so a flapping service is never silent.
			h := c.sup.comp("service:" + svc.Name())
			backoff := c.cfg.RestartBackoffMin
			var lastErr error
			for {
				if err := guardErr(h, func() error { return svc.Serve(svcCtx) }); err != nil {
					lastErr = err
				}
				if svcCtx.Err() != nil {
					break
				}
				h.restarts.Add(1)
				select {
				case <-svcCtx.Done():
				case <-time.After(backoff):
				}
				if svcCtx.Err() != nil {
					break
				}
				backoff *= 2
				if backoff > c.cfg.RestartBackoffMax {
					backoff = c.cfg.RestartBackoffMax
				}
			}
			if lastErr != nil {
				svcErrs[i] = fmt.Errorf("core: service %s: %w", svc.Name(), lastErr)
			}
		}(i, svc)
	}

	var wgMetrics sync.WaitGroup
	metricsStop := make(chan struct{})
	if c.observe != nil {
		wgMetrics.Add(1)
		go func() {
			defer wgMetrics.Done()
			ticker := time.NewTicker(c.metricsInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					c.observe(c.Stats())
				case <-metricsStop:
					return
				}
			}
		}()
	}

	select {
	case <-ctx.Done():
	case <-c.sinkFailed:
	case <-srcFailed:
	case <-sourcesDone:
	}
	close(c.draining)

	// Graceful drain: stop intake, then close and drain stage by stage.
	// Every lane queue closes before the write queue does, and the
	// LookUp→Write handoff blocks rather than drops, so every flow
	// accepted into any lane reaches the sink exactly once.
	stopSources()
	wgSrc.Wait()
	for _, l := range c.lanes {
		l.fill.Close()
		l.look.Close()
	}
	wgFill.Wait()
	wgLook.Wait()
	c.writeQ.Close()
	wgWrite.Wait()
	close(metricsStop)
	wgMetrics.Wait()
	close(ckptStop)
	wgCkpt.Wait()

	errs := make([]error, 0, len(srcErrs)+4)
	errs = append(errs, srcErrs...)
	// Final checkpoint: the drain is complete and every worker has stopped,
	// so this snapshot captures the exact state the next boot should resume
	// from. Its failure is a real operational error, reported to the caller
	// rather than just counted.
	if c.cfg.SnapshotPath != "" {
		if err := c.Checkpoint(c.cfg.SnapshotPath); err != nil {
			c.stats.checkpointErrors.Add(1)
			errs = append(errs, fmt.Errorf("core: final checkpoint: %w", err))
		} else {
			c.stats.checkpoints.Add(1)
		}
	}
	if perr := c.sinkErr.Load(); perr != nil {
		errs = append(errs, *perr)
	}
	errs = append(errs, c.sink.Flush(), c.sink.Close())
	// The sink is closed: every sealed window has reached its OnSeal targets.
	// Now stop the services and wait them out.
	svcStop()
	wgSvc.Wait()
	errs = append(errs, svcErrs...)
	if c.observe != nil {
		c.observe(c.Stats())
	}
	return errors.Join(errs...)
}

// fillWorker is one FillUp worker: it drains l's fill queue in batches
// into the stores through l's interner.
func (c *Correlator) fillWorker(l *lane) {
	h := c.sup.comp(compFill)
	batch := make([]stream.DNSRecord, 0, ingestBatchSize)
	var buf fillBuf // worker-private assembly scratch
	c.superviseLoop(h, func() {
		for {
			var ok bool
			batch, ok = l.fill.TakeBatch(batch[:0], ingestBatchSize, 0)
			if !ok {
				return
			}
			c.ingestGuarded(h, batch, l.in, &buf)
		}
	})
}

// lookWorker is one LookUp worker: it drains l's lookup queue in batches
// and hands the correlated flows to the Write stage. The handoff uses
// blocking PutBatch, not the dropping OfferBatch: a flow accepted into a
// lane is already part of the pipeline and must reach the sink — loss is
// accounted only at intake. This also makes the drain lossless: a full
// lane queue at cancellation backpressures into the Write workers instead
// of overflowing the write queue.
func (c *Correlator) lookWorker(l *lane) {
	h := c.sup.comp(compLook)
	batch := make([]flowEntry, 0, ingestBatchSize)
	out := make([]CorrelatedFlow, 0, ingestBatchSize)
	var tally lookTally
	c.superviseLoop(h, func() {
		for {
			var ok bool
			batch, ok = l.look.TakeBatch(batch[:0], ingestBatchSize, 0)
			if !ok {
				return
			}
			out = out[:0]
			var poisoned uint64
			for i := range batch {
				out = append(out, CorrelatedFlow{})
				cf := &out[len(out)-1]
				// A record whose correlation panics drops that one
				// output slot — not the batch, not the worker.
				if !c.correlateGuarded(h, cf, &batch[i].fr, &tally) {
					out = out[:len(out)-1]
					poisoned++
					continue
				}
				cf.EnqueuedAt = batch[i].at
			}
			tally.flush(&c.stats)
			if poisoned != 0 {
				c.stats.poisoned.Add(poisoned)
			}
			c.writeQ.PutBatch(out)
		}
	})
}

// Draining reports whether Run has begun its graceful drain — the flag the
// HTTP snapshot handlers consult to answer 503 instead of racing the
// sealing path. It stays true after Run returns.
func (c *Correlator) Draining() bool {
	select {
	case <-c.draining:
		return true
	default:
		return false
	}
}

// failSink records the first sink error and triggers shutdown.
func (c *Correlator) failSink(err error) {
	c.sinkErrOnce.Do(func() {
		c.sinkErr.Store(&err)
		close(c.sinkFailed)
	})
}

// --- synchronous API (deterministic replays, tests, examples) ---

// IngestDNSBatch validates a batch of DNS records and fills them into the
// hashmaps (Algorithm 1). It is the deterministic entry point for offline
// replays — one record is a one-element batch — and the FillUp worker
// body. A/AAAA answers are keyed by the 16-byte binary address form (the
// same key LookUp builds from a flow's address), taken straight from the
// typed Addr field when the producer supplied it; only string-only records
// pay a parse here, and one that fails to parse is rejected by the §3.2
// filter. Per-record counter updates accumulate in a batch-local tally,
// the store's clear-up clock advances once per batch (at the batch's last
// accepted record timestamp — streams are delivered in near-arrival order,
// so the last record is the freshest within jitter, and the clear-up
// intervals are hours; records the filter or the address parse rejects
// never touch the clock), and the A/AAAA items are grouped by store split
// and shard so each touched shard lock is taken once per batch. Record
// order within one batch is not significant — a rotation boundary inside a
// batch rotates before the whole batch lands in the fresh Active
// generation — so callers whose consecutive records carry different
// timestamps pass one-element batches to keep the record clock exact.
// Synchronous callers share lane 0's name interner.
func (c *Correlator) IngestDNSBatch(recs []stream.DNSRecord) {
	if len(recs) == 0 {
		return
	}
	var buf *fillBuf
	if len(recs) > 1 {
		buf = c.fillBufPool.Get().(*fillBuf)
		defer c.fillBufPool.Put(buf)
	}
	c.ingestBatch(recs, c.lanes[0].in, buf)
}

// ingestBatch is the shared IngestDNSBatch body; FillUp workers pass their
// lane's interner and a worker-private scratch buffer. A one-record batch
// has nothing to group: its A/AAAA record goes straight to its shard with
// the same clock step, and buf may be nil — which keeps the
// record-at-a-time replay free of the scratch round trip.
func (c *Correlator) ingestBatch(recs []stream.DNSRecord, in *interner, buf *fillBuf) {
	var records, invalid uint64
	var batchTS time.Time
	direct := len(recs) == 1
	var keys [][16]byte
	var active, long []cmap.Item
	if !direct {
		if cap(buf.keys) < len(recs) {
			buf.keys = make([][16]byte, len(recs))
		}
		keys = buf.keys[:len(recs)]
		active, long = buf.active[:0], buf.long[:0]
	}
	exact := c.ipName.exactTTL
	longEnabled := c.ipName.longEnabled
	for i := range recs {
		rec := &recs[i]
		// Poison failpoint: one atomic load when disabled. Firing here —
		// before the record touches the stores or the tally — keeps the
		// per-record containment retry in ingestGuarded exactly-once.
		if err := fpFillRecord.Inject(); err != nil {
			panic(err)
		}
		if !rec.IsValid() {
			invalid++
			continue
		}
		value := in.intern(dnsname.Normalize(rec.Query))
		switch rec.RType {
		case dnswire.TypeA, dnswire.TypeAAAA:
			addr := rec.Addr
			if !addr.IsValid() {
				var err error
				addr, err = netip.ParseAddr(rec.Answer)
				if err != nil {
					invalid++
					continue
				}
			}
			key := addr.As16()
			h := ipHash(&key)
			var exp int64
			toLong := false
			switch {
			case exact:
				exp = expiryOf(rec.Timestamp, rec.TTL)
			case longEnabled && time.Duration(rec.TTL)*time.Second >= c.ipName.ttlThreshold:
				toLong = true
			}
			batchTS = rec.Timestamp
			if direct {
				c.ipName.putOne(batchTS, h, &key, value, exp, toLong)
				break
			}
			keys[i] = key
			item := cmap.Item{Hash: h, Key: keys[i][:], Value: value, Exp: exp}
			if toLong {
				long = append(long, item)
			} else {
				active = append(active, item)
			}
		case dnswire.TypeCNAME:
			// CNAME volume is a fraction of A/AAAA volume and the NAME-CNAME
			// store is single-split; record-at-a-time puts are fine here.
			c.nameCname.put(rec.Timestamp, rec.TTL, in.intern(dnsname.Normalize(rec.Answer)), value)
			batchTS = rec.Timestamp
		}
		records++
	}
	if len(active)+len(long) > 0 {
		c.ipName.putItems(batchTS, active, long, &buf.sc)
	}
	if !direct {
		buf.active, buf.long = active[:0], long[:0]
	}
	if records != 0 {
		c.stats.dnsRecords.Add(records)
	}
	if invalid != 0 {
		c.stats.dnsInvalid.Add(invalid)
	}
}

// lookupIP resolves one address against the IP-NAME store with a stack
// key: As16 never allocates and the byte-keyed probe never retains the
// slice, so the whole lookup is allocation-free.
func (c *Correlator) lookupIP(ts time.Time, addr netip.Addr) (string, Tier) {
	key := addr.As16()
	return c.ipName.getBytesHash(ts, ipHash(&key), key[:])
}

// CorrelateBatch resolves every flow in frs, appending the correlated
// records to dst and returning the extended slice. It is the LookUp lane
// worker body: per-flow counter updates accumulate in a local tally that
// is flushed to the shared stats block once per batch, keeping the hit
// path free of both allocations and shared-cache-line traffic.
func (c *Correlator) CorrelateBatch(dst []CorrelatedFlow, frs []netflow.FlowRecord) []CorrelatedFlow {
	var tally lookTally
	for i := range frs {
		dst = append(dst, CorrelatedFlow{})
		c.correlateInto(&dst[len(dst)-1], &frs[i], &tally)
	}
	tally.flush(&c.stats)
	return dst
}

// correlateInto is Algorithm 2 for a single flow, writing the result into
// cf. The pointer shape avoids copying the (large) flow and result structs
// through every call; all counters go to tally, not the shared atomics —
// callers flush.
func (c *Correlator) correlateInto(cf *CorrelatedFlow, fr *netflow.FlowRecord, tally *lookTally) {
	cf.Flow = *fr
	tally.flows++
	tally.flowBytes += fr.Bytes
	if !fr.IsValid() {
		tally.flowInvalid++
		return
	}
	var name string
	tier := TierNone
	switch c.cfg.Key {
	case LookupDestination:
		name, tier = c.lookupIP(fr.Timestamp, fr.DstIP)
	case LookupBoth:
		name, tier = c.lookupIP(fr.Timestamp, fr.SrcIP)
		if tier == TierNone {
			name, tier = c.lookupIP(fr.Timestamp, fr.DstIP)
		}
	default:
		name, tier = c.lookupIP(fr.Timestamp, fr.SrcIP)
	}
	if tier == TierNone {
		tally.misses++
		return
	}
	cf.Tier = tier
	tally.hits[tier]++

	// Walk the CNAME chain backwards: answer(canonical) -> query(alias),
	// ending at the name nothing else aliases — the original service name —
	// or after CNAMEChainLimit hops.
	first := name
	result := name
	hops := 0
	truncated := false
	for {
		next, t := c.nameCname.get(fr.Timestamp, result)
		if t == TierNone || next == result {
			break
		}
		if hops == c.cfg.CNAMEChainLimit {
			truncated = true
			break
		}
		result = next
		hops++
	}
	if hops > 1 && !truncated {
		// §3.3 step 7: memoize multi-hop resolutions for later use. A walk
		// the limit cut short is not a resolution: memoizing it would
		// overwrite first's alias edge, and the next flow would walk on
		// from the truncated name to a different answer.
		c.nameCname.memoize(first, result)
		tally.memoized++
	}
	cf.Name = result
	cf.ChainLen = hops
	tally.correlated++
	tally.correlatedBytes += fr.Bytes
	b := hops
	if b >= maxChainBucket {
		b = maxChainBucket - 1
	}
	tally.chain[b]++
}

// StoreSizes returns current entry counts of the two map families; the
// experiments use this as the state-size series behind the memory figures.
func (c *Correlator) StoreSizes() (ipName, nameCname int) {
	return c.ipName.size(), c.nameCname.size()
}

func (c *Correlator) observeWriteDelay(d time.Duration) {
	for {
		cur := c.stats.maxWriteDelay.Load()
		if int64(d) <= cur {
			return
		}
		if c.stats.maxWriteDelay.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
