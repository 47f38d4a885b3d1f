package stream

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
)

// Offline capture formats. The paper notes that correlation can also be
// done offline, in which case "the timestamps need to be taken into
// account and the two sources of data ... need to be correlated in the
// window where the DNS record is still valid". These readers/writers
// persist both record types as TSV so captures can be replayed through the
// correlator with their original record clock (clear-up rotation follows
// record timestamps, so an offline replay behaves exactly like the live
// run did).
//
// DNS line:  unixNano \t query \t rtype \t ttl \t answer
// Flow line: unixNano \t srcIP \t dstIP \t srcPort \t dstPort \t proto \t packets \t bytes

// DNSFileWriter persists DNS records.
type DNSFileWriter struct {
	w *bufio.Writer
}

// NewDNSFileWriter wraps w.
func NewDNSFileWriter(w io.Writer) *DNSFileWriter {
	return &DNSFileWriter{w: bufio.NewWriter(w)}
}

// Write persists one record. Typed A/AAAA answers are formatted here, the
// one place the string form is actually needed.
func (d *DNSFileWriter) Write(rec DNSRecord) error {
	_, err := fmt.Fprintf(d.w, "%d\t%s\t%d\t%d\t%s\n",
		rec.Timestamp.UnixNano(), rec.Query, uint16(rec.RType), rec.TTL, rec.AnswerString())
	return err
}

// Flush drains the buffer.
func (d *DNSFileWriter) Flush() error { return d.w.Flush() }

// ReadDNSFile parses a full DNS capture. Malformed lines abort with a
// line-numbered error: a capture must not silently lose records.
func ReadDNSFile(r io.Reader) ([]DNSRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []DNSRecord
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("stream: dns capture line %d: %d fields, want 5", lineNo, len(f))
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: dns capture line %d: timestamp: %w", lineNo, err)
		}
		rt, err := strconv.ParseUint(f[2], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("stream: dns capture line %d: rtype: %w", lineNo, err)
		}
		ttl, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("stream: dns capture line %d: ttl: %w", lineNo, err)
		}
		rec := DNSRecord{
			Timestamp: time.Unix(0, ns),
			Query:     f[1],
			RType:     dnswire.Type(rt),
			TTL:       uint32(ttl),
			Answer:    f[4],
		}
		// Parse A/AAAA answers once here, not per ingest: a replayed capture
		// feeds the same allocation-free typed fill path as the live wire.
		// An unparsable address stays string-only and is rejected by the
		// correlator's §3.2 filter, exactly as before.
		if rec.RType == dnswire.TypeA || rec.RType == dnswire.TypeAAAA {
			if addr, err := netip.ParseAddr(f[4]); err == nil {
				rec.Addr = addr
			}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: dns capture: %w", err)
	}
	return out, nil
}

// FlowFileWriter persists flow records.
type FlowFileWriter struct {
	w *bufio.Writer
}

// NewFlowFileWriter wraps w.
func NewFlowFileWriter(w io.Writer) *FlowFileWriter {
	return &FlowFileWriter{w: bufio.NewWriter(w)}
}

// Write persists one record.
func (d *FlowFileWriter) Write(fr netflow.FlowRecord) error {
	_, err := fmt.Fprintf(d.w, "%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
		fr.Timestamp.UnixNano(), fr.SrcIP, fr.DstIP, fr.SrcPort, fr.DstPort,
		fr.Proto, fr.Packets, fr.Bytes)
	return err
}

// Flush drains the buffer.
func (d *FlowFileWriter) Flush() error { return d.w.Flush() }

// ReadFlowFile parses a full flow capture.
func ReadFlowFile(r io.Reader) ([]netflow.FlowRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []netflow.FlowRecord
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 8 {
			return nil, fmt.Errorf("stream: flow capture line %d: %d fields, want 8", lineNo, len(f))
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: flow capture line %d: timestamp: %w", lineNo, err)
		}
		src, err := netip.ParseAddr(f[1])
		if err != nil {
			return nil, fmt.Errorf("stream: flow capture line %d: srcIP: %w", lineNo, err)
		}
		dst, err := netip.ParseAddr(f[2])
		if err != nil {
			return nil, fmt.Errorf("stream: flow capture line %d: dstIP: %w", lineNo, err)
		}
		ints := make([]uint64, 5)
		for i, field := range f[3:8] {
			v, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: flow capture line %d: field %d: %w", lineNo, i+3, err)
			}
			ints[i] = v
		}
		out = append(out, netflow.FlowRecord{
			Timestamp: time.Unix(0, ns),
			SrcIP:     src, DstIP: dst,
			SrcPort: uint16(ints[0]), DstPort: uint16(ints[1]),
			Proto: uint8(ints[2]), Packets: ints[3], Bytes: ints[4],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: flow capture: %w", err)
	}
	return out, nil
}

// MergeByTime interleaves a DNS capture and a flow capture into a single
// timestamp-ordered replay: it invokes the ingest/correlate callbacks in
// record-clock order, one record at a time as a one-element batch (a
// subslice of the input, so no record is copied). Both inputs must be
// individually time-sorted (captures written live always are).
func MergeByTime(dns []DNSRecord, flows []netflow.FlowRecord,
	onDNS func([]DNSRecord), onFlow func([]netflow.FlowRecord)) {
	i, j := 0, 0
	for i < len(dns) || j < len(flows) {
		takeDNS := j >= len(flows) ||
			(i < len(dns) && !dns[i].Timestamp.After(flows[j].Timestamp))
		if takeDNS {
			onDNS(dns[i : i+1])
			i++
		} else {
			onFlow(flows[j : j+1])
			j++
		}
	}
}
