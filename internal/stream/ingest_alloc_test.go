package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"testing"

	"repro/internal/netflow"
)

// repeatReader serves the same byte sequence forever without allocating.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// The framed read loop must not allocate per frame once the per-connection
// buffer has grown to the stream's frame size: neither the two-byte length
// header (which must not escape into the reader) nor the payload read may
// touch the heap. This is the allocation the TCP source pays per DNS
// response, millions of times per hour per resolver stream.
func TestReadFrameAllocsPerFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 12000) // larger than the 4 KiB seed buffer
	var framed bytes.Buffer
	if err := WriteFrame(&framed, payload); err != nil {
		t.Fatal(err)
	}
	r := &repeatReader{data: framed.Bytes()}
	buf := make([]byte, 0, 4096)

	// Warm-up: first frame may grow the buffer past 4 KiB once.
	frame, err := ReadFrame(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != len(payload) {
		t.Fatalf("frame len = %d, want %d", len(frame), len(payload))
	}
	buf = frame[:0]

	allocs := testing.AllocsPerRun(100, func() {
		frame, err := ReadFrame(r, buf)
		if err != nil || len(frame) != len(payload) {
			t.Fatalf("ReadFrame: %v (len %d)", err, len(frame))
		}
		buf = frame[:0]
	})
	if allocs != 0 {
		t.Fatalf("allocs per frame = %v, want 0", allocs)
	}
}

// ReadFrame with an undersized buffer must still work (it provisions its
// own), covering callers that pass nil.
func TestReadFrameNilBuf(t *testing.T) {
	var framed bytes.Buffer
	if err := WriteFrame(&framed, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(&framed, nil)
	if err != nil || string(frame) != "hello" {
		t.Fatalf("ReadFrame = %q, %v", frame, err)
	}
	if _, err := ReadFrame(&framed, nil); err != io.EOF {
		t.Fatalf("EOF read = %v", err)
	}
}

// countIngest accepts everything and counts records without allocating —
// the harness for allocation tests of the UDP decode path.
type countIngest struct {
	records int
}

func (c *countIngest) OfferDNSBatch(r []DNSRecord) int { c.records += len(r); return len(r) }
func (c *countIngest) OfferFlowBatch(frs []netflow.FlowRecord) int {
	c.records += len(frs)
	return len(frs)
}

// v5Packet builds a NetFlow v5 export datagram carrying frs (IPv4, at
// most 30) stamped with the export second unixSecs; it sets only the
// fields the collector reads.
func v5Packet(unixSecs uint32, frs []netflow.FlowRecord) []byte {
	pkt := make([]byte, 24+48*len(frs))
	binary.BigEndian.PutUint16(pkt[0:], 5)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(frs)))
	binary.BigEndian.PutUint32(pkt[8:], unixSecs)
	for i := range frs {
		fr, r := &frs[i], pkt[24+48*i:]
		src, dst := fr.SrcIP.As4(), fr.DstIP.As4()
		copy(r[0:4], src[:])
		copy(r[4:8], dst[:])
		binary.BigEndian.PutUint32(r[16:], uint32(fr.Packets))
		binary.BigEndian.PutUint32(r[20:], uint32(fr.Bytes))
		binary.BigEndian.PutUint16(r[32:], fr.SrcPort)
		binary.BigEndian.PutUint16(r[34:], fr.DstPort)
		r[38] = fr.Proto
	}
	return pkt
}

func v5Datagram(t testing.TB, n int) []byte {
	t.Helper()
	frs := make([]netflow.FlowRecord, n)
	for i := range frs {
		frs[i] = netflow.FlowRecord{
			SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
			DstIP:   netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}),
			Packets: 1, Bytes: uint64(100 + i), Proto: 6,
		}
	}
	return v5Packet(uint32(testTime().Unix()), frs)
}

// The v5 ingest path must reuse the per-source scratch slices: after the
// first datagram has sized them, decoding and offering a full 30-record v5
// export allocates nothing, matching the v9/IPFIX discipline of never
// allocating in the source on top of what the decoder itself does.
func TestFlowUDPSourceV5IngestAllocFree(t *testing.T) {
	pkt := v5Datagram(t, 30)
	src := NewFlowUDPSource(nil)
	in := &countIngest{}
	src.ingest(pkt, in) // warm-up sizes the scratch
	if in.records != 30 {
		t.Fatalf("warm-up records = %d, want 30", in.records)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.ingest(pkt, in)
	})
	if allocs != 0 {
		t.Fatalf("v5 ingest allocs per datagram = %v, want 0", allocs)
	}
	if st := src.Stats(); st.DecodeError != 0 {
		t.Fatalf("decode errors = %d", st.DecodeError)
	}
}
