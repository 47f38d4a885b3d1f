package core

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"sync"
)

// Sink consumes correlated flows in batches. The Write workers accumulate
// size/time-bounded batches off the write queue, so one WriteBatch call
// amortizes one lock acquisition and one buffered write over the whole
// batch instead of paying both per record. Implementations must be safe
// for concurrent WriteBatch calls (Config.WriteWorkers > 1).
//
// The batch slice is only valid for the duration of the WriteBatch call —
// the worker reuses its backing array for the next batch. A sink that
// retains records past the call (an async exporter queue, for example)
// must copy them first.
//
// Flush forces buffered output down to the underlying writer; Close
// flushes and releases resources. Write workers call Flush after writing
// a partial (timer-bounded) batch so Config.WriteFlushInterval bounds
// end-to-end output latency; the correlator then calls Flush and Close
// once more at the end of Run's drain, in that order. After Close no
// further WriteBatch or Flush calls are made.
type Sink interface {
	WriteBatch(ctx context.Context, batch []CorrelatedFlow) error
	Flush() error
	Close() error
}

// SinkFunc adapts a per-record function to the Sink interface; Flush and
// Close are no-ops. Useful for tests and inline measurement taps.
type SinkFunc func(cf CorrelatedFlow)

// WriteBatch calls f for every record.
func (f SinkFunc) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	for i := range batch {
		f(batch[i])
	}
	return nil
}

// Flush implements Sink.
func (f SinkFunc) Flush() error { return nil }

// Close implements Sink.
func (f SinkFunc) Close() error { return nil }

// DiscardSink drops every record — pure measurement runs where only the
// correlator's own counters matter.
type DiscardSink struct{}

// WriteBatch implements Sink.
func (DiscardSink) WriteBatch(context.Context, []CorrelatedFlow) error { return nil }

// Flush implements Sink.
func (DiscardSink) Flush() error { return nil }

// Close implements Sink.
func (DiscardSink) Close() error { return nil }

// TSVSink writes correlated flows as tab-separated lines:
//
//	timestamp \t srcIP \t dstIP \t bytes \t packets \t name \t tier \t chainLen
//
// This is the on-disk output format of the paper's Write workers. A batch
// takes the mutex once and appends rows to the buffered writer with
// allocation-free strconv formatting.
type TSVSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	row []byte
	// SkipMisses drops flows without a resolved name instead of writing a
	// NULL row; the paper writes all results, so the default keeps them.
	SkipMisses bool
}

// NewTSVSink wraps w with buffering.
func NewTSVSink(w io.Writer) *TSVSink {
	return &TSVSink{w: bufio.NewWriterSize(w, 1<<16), row: make([]byte, 0, 128)}
}

// appendRow formats one output row into b.
func appendRow(b []byte, cf *CorrelatedFlow, name string) []byte {
	b = strconv.AppendInt(b, cf.Flow.Timestamp.Unix(), 10)
	b = append(b, '\t')
	b = cf.Flow.SrcIP.AppendTo(b)
	b = append(b, '\t')
	b = cf.Flow.DstIP.AppendTo(b)
	b = append(b, '\t')
	b = strconv.AppendUint(b, cf.Flow.Bytes, 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, cf.Flow.Packets, 10)
	b = append(b, '\t')
	b = append(b, name...)
	b = append(b, '\t')
	b = append(b, cf.Tier.String()...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(cf.ChainLen), 10)
	b = append(b, '\n')
	return b
}

// WriteBatch emits one row per record under a single lock acquisition.
func (s *TSVSink) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range batch {
		cf := &batch[i]
		name := cf.Name
		if name == "" {
			if s.SkipMisses {
				continue
			}
			name = "NULL"
		}
		s.row = appendRow(s.row[:0], cf, name)
		if _, err := s.w.Write(s.row); err != nil {
			return fmt.Errorf("core: tsv sink: %w", err)
		}
	}
	return nil
}

// Flush drains the buffer.
func (s *TSVSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close flushes; the underlying writer's lifecycle belongs to the caller.
func (s *TSVSink) Close() error { return s.Flush() }

// jsonRow is the wire shape of one JSONSink line.
type jsonRow struct {
	Timestamp int64  `json:"ts"`
	SrcIP     string `json:"src"`
	DstIP     string `json:"dst"`
	Bytes     uint64 `json:"bytes"`
	Packets   uint64 `json:"packets"`
	Name      string `json:"name,omitempty"`
	Tier      string `json:"tier,omitempty"`
	ChainLen  int    `json:"chain,omitempty"`
}

// JSONSink writes one JSON object per line (JSONL), the format downstream
// joiners (BGP attribution, blocklist scoring) consume without a TSV
// schema contract.
type JSONSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	// SkipMisses drops flows without a resolved name.
	SkipMisses bool
}

// NewJSONSink wraps w with buffering.
func NewJSONSink(w io.Writer) *JSONSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONSink{w: bw, enc: json.NewEncoder(bw)}
}

// WriteBatch emits one JSON line per record under a single lock.
func (s *JSONSink) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range batch {
		cf := &batch[i]
		if cf.Name == "" && s.SkipMisses {
			continue
		}
		row := jsonRow{
			Timestamp: cf.Flow.Timestamp.Unix(),
			SrcIP:     cf.Flow.SrcIP.String(),
			DstIP:     cf.Flow.DstIP.String(),
			Bytes:     cf.Flow.Bytes,
			Packets:   cf.Flow.Packets,
			Name:      cf.Name,
			ChainLen:  cf.ChainLen,
		}
		if cf.Tier != TierNone {
			row.Tier = cf.Tier.String()
		}
		if err := s.enc.Encode(&row); err != nil {
			return fmt.Errorf("core: json sink: %w", err)
		}
	}
	return nil
}

// Flush drains the buffer.
func (s *JSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Close flushes; the underlying writer's lifecycle belongs to the caller.
func (s *JSONSink) Close() error { return s.Flush() }

// CountingSink tallies per-name byte counters; experiments use it to build
// per-service traffic series (Fig 4, Fig 5) without touching disk.
type CountingSink struct {
	mu    sync.Mutex
	bytes map[string]uint64
}

// NewCountingSink returns an empty sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{bytes: make(map[string]uint64)}
}

// WriteBatch accumulates every flow's bytes under its resolved name (""
// for misses) with one lock acquisition.
func (s *CountingSink) WriteBatch(_ context.Context, batch []CorrelatedFlow) error {
	s.mu.Lock()
	for i := range batch {
		s.bytes[batch[i].Name] += batch[i].Flow.Bytes
	}
	s.mu.Unlock()
	return nil
}

// Flush implements Sink.
func (s *CountingSink) Flush() error { return nil }

// Close implements Sink.
func (s *CountingSink) Close() error { return nil }

// Bytes returns a copy of the per-name byte counters.
func (s *CountingSink) Bytes() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.bytes)
}

// MultiSink fans each batch out to several sinks.
type MultiSink []Sink

// WriteBatch forwards the batch to every sink; all sinks see the batch
// even when an earlier one fails, and the errors are joined.
func (m MultiSink) WriteBatch(ctx context.Context, batch []CorrelatedFlow) error {
	var errs []error
	for _, s := range m {
		if err := s.WriteBatch(ctx, batch); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Flush flushes every sink.
func (m MultiSink) Flush() error {
	var errs []error
	for _, s := range m {
		if err := s.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close closes every sink.
func (m MultiSink) Close() error {
	var errs []error
	for _, s := range m {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// --- sink registry ---

// SinkOptions carries the construction inputs registered factories use.
type SinkOptions struct {
	// W is the destination for record-writing sinks (tsv, json).
	W io.Writer
	// SkipMisses drops rows without a resolved name.
	SkipMisses bool
	// Children are the fan-out targets of the "multi" sink.
	Children []Sink
	// URL is the remote endpoint of network-backed sinks (the "influx"
	// sink POSTs line-protocol batches there); sinks that write to W
	// ignore it.
	URL string
	// Measurement names the time-series measurement for sinks that need
	// one ("" = the sink's default).
	Measurement string
}

// SinkFactory builds a sink from options.
type SinkFactory func(opts SinkOptions) (Sink, error)

// sinkEntry is one registry record: the factory plus the metadata callers
// need to wire the sink correctly.
type sinkEntry struct {
	factory SinkFactory
	// needsWriter reports whether the sink writes records to
	// SinkOptions.W (and therefore wants a file or stdout).
	needsWriter bool
}

var (
	sinkMu       sync.RWMutex
	sinkRegistry = map[string]sinkEntry{
		"tsv": {needsWriter: true, factory: func(o SinkOptions) (Sink, error) {
			if o.W == nil {
				return nil, errors.New("core: tsv sink requires a writer")
			}
			s := NewTSVSink(o.W)
			s.SkipMisses = o.SkipMisses
			return s, nil
		}},
		"json": {needsWriter: true, factory: func(o SinkOptions) (Sink, error) {
			if o.W == nil {
				return nil, errors.New("core: json sink requires a writer")
			}
			s := NewJSONSink(o.W)
			s.SkipMisses = o.SkipMisses
			return s, nil
		}},
		"counting": {factory: func(SinkOptions) (Sink, error) { return NewCountingSink(), nil }},
		"discard":  {factory: func(SinkOptions) (Sink, error) { return DiscardSink{}, nil }},
		"multi": {factory: func(o SinkOptions) (Sink, error) {
			if len(o.Children) == 0 {
				return nil, errors.New("core: multi sink requires children")
			}
			return MultiSink(o.Children), nil
		}},
	}
)

// RegisterSink adds (or replaces) a named sink factory. New backends
// (Kafka, ClickHouse, …) register here and become selectable from the
// daemon configuration without touching the pipeline. needsWriter declares
// whether the sink consumes SinkOptions.W, so config validation and output
// wiring treat it correctly.
func RegisterSink(name string, needsWriter bool, f SinkFactory) {
	sinkMu.Lock()
	defer sinkMu.Unlock()
	sinkRegistry[name] = sinkEntry{factory: f, needsWriter: needsWriter}
}

// SinkNeedsWriter reports whether the named sink writes records through
// SinkOptions.W. The empty name means "tsv"; unknown names report false.
func SinkNeedsWriter(name string) bool {
	if name == "" {
		name = "tsv"
	}
	sinkMu.RLock()
	defer sinkMu.RUnlock()
	return sinkRegistry[name].needsWriter
}

// NewSinkByName builds a registered sink. The empty name means "tsv".
func NewSinkByName(name string, opts SinkOptions) (Sink, error) {
	if name == "" {
		name = "tsv"
	}
	sinkMu.RLock()
	e, ok := sinkRegistry[name]
	sinkMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown sink %q (have %v)", name, SinkNames())
	}
	return e.factory(opts)
}

// SinkNames lists the registered sink names, sorted.
func SinkNames() []string {
	sinkMu.RLock()
	defer sinkMu.RUnlock()
	names := make([]string, 0, len(sinkRegistry))
	for name := range sinkRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
