// Package snapshot implements the FlowDNS warm-restart checkpoint format:
// a versioned, length-prefixed binary codec for the correlation store's
// contents. A cold-started correlator silently degrades correlation rates
// for hours while its DNS cache re-warms; a checkpoint written on the
// clear-up cadence (and once more on graceful drain) lets the next boot
// resume from the accumulated answer state instead.
//
// # Format
//
// A snapshot is a file header, any number of sections, and an end marker:
//
//	header : "FDSN" | version u16 | flags u16 | created i64 | crc u32
//	section: 'S' | family u8 | gen u8 | flags u8 | split u32 | count u32 |
//	         payloadLen u32 | crc u32 | payload
//	end    : 'E' | sections u32 | crc u32
//
// All integers are little-endian. Every region carries a CRC32 (IEEE) over
// its preceding bytes — the file header over its first 16 bytes, a section
// over its header-sans-marker plus payload, the end marker over its first
// 5 bytes — so any single corrupted byte is detected, and a missing end
// marker distinguishes a truncated file from a complete one.
//
// A section holds entries of one (family, generation, split, key space)
// cell of the store. Large cells are split across several sections (the
// writer rotates at sectionMaxBytes), which both bounds the reader's
// allocation per section and gives a restoring correlator natural units to
// fan out across its lanes. A section payload is count entries:
//
//	entry: keyLen uvarint | key | valueLen uvarint | value | exp i64
//
// exp is the entry's absolute expiry in UnixNano (0 = never expires),
// exactly as the store's typed cmap entries carry it, so restore can drop
// already-expired entries without re-deriving TTLs.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// Version is the format version this package writes. Readers reject files
// with a greater version; older versions remain readable as the format
// evolves.
const Version = 1

// Magic identifies a snapshot file.
const Magic = "FDSN"

const (
	headerLen     = 20 // magic(4) version(2) flags(2) created(8) crc(4)
	sectionHdrLen = 20 // 'S'(1) family(1) gen(1) flags(1) split(4) count(4) payloadLen(4) crc(4)
	endLen        = 9  // 'E'(1) sections(4) crc(4)

	sectionMarker = 'S'
	endMarker     = 'E'

	// sectionMaxBytes bounds one section's payload: the writer rotates to a
	// fresh section when the current one exceeds it, and the reader rejects
	// claimed lengths above it before allocating — a fuzzed or corrupted
	// length field can never force a huge allocation.
	sectionMaxBytes = 1 << 22

	// entryMinBytes is the smallest possible encoded entry (empty key,
	// empty value, fixed expiry); the reader cross-checks a section's count
	// against its payload length with it before decoding.
	entryMinBytes = 1 + 1 + 8
)

// SectionFlagBinaryKeys marks a section whose keys belong to the store's
// 16-byte binary key space rather than the string key space. The two are
// separate namespaces in the map (a 16-byte string key is not a binary
// key), so restore must re-insert into the space the entries came from.
const SectionFlagBinaryKeys = 1 << 0

// ErrCorrupt reports a structurally invalid or checksum-failing snapshot.
// Errors from Reader and Section wrap it; restore callers match with
// errors.Is and fall back to a cold start.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion reports a snapshot written by a newer format version.
var ErrVersion = errors.New("snapshot: unsupported version")

// Section identifies one run of entries: which map family (the producer's
// own numbering — core uses 0 for IP-NAME, 1 for NAME-CNAME), which
// generation (0 active, 1 inactive, 2 long), which split it was written
// from, and whether the keys are binary (SectionFlagBinaryKeys). One store
// cell may span several Sections.
type Section struct {
	Family uint8
	Gen    uint8
	Flags  uint8
	Split  uint32
	Count  uint32

	payload []byte
}

// BinaryKeys reports whether the section's keys belong to the binary key
// space.
func (s *Section) BinaryKeys() bool { return s.Flags&SectionFlagBinaryKeys != 0 }

// ForEach decodes the section's entries in order. key and value alias the
// section's payload buffer and must not be retained past fn's return
// without a copy. fn's error aborts the walk and is returned verbatim.
func (s *Section) ForEach(fn func(key, value []byte, exp int64) error) error {
	p := s.payload
	for i := uint32(0); i < s.Count; i++ {
		key, rest, err := readBlob(p)
		if err != nil {
			return fmt.Errorf("%w: section entry %d key: %v", ErrCorrupt, i, err)
		}
		value, rest, err := readBlob(rest)
		if err != nil {
			return fmt.Errorf("%w: section entry %d value: %v", ErrCorrupt, i, err)
		}
		if len(rest) < 8 {
			return fmt.Errorf("%w: section entry %d: short expiry", ErrCorrupt, i)
		}
		exp := int64(binary.LittleEndian.Uint64(rest))
		p = rest[8:]
		if err := fn(key, value, exp); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes after %d entries", ErrCorrupt, len(p), s.Count)
	}
	return nil
}

// readBlob decodes one uvarint-length-prefixed byte string.
func readBlob(p []byte) (blob, rest []byte, err error) {
	n, used := binary.Uvarint(p)
	if used <= 0 || n > uint64(len(p)-used) {
		return nil, nil, errors.New("bad length prefix")
	}
	return p[used : used+int(n)], p[used+int(n):], nil
}

// Writer streams a snapshot: a file header up front, then sections opened
// with Begin and filled with Entry, then an end marker from Close. Entries
// accumulate in a reused payload buffer; a section that outgrows
// sectionMaxBytes is flushed and transparently reopened with the same
// identity, so callers never worry about section sizing.
type Writer struct {
	w        *bufio.Writer
	cur      Section
	open     bool
	payload  []byte
	sections uint32
	scratch  [sectionHdrLen]byte
}

// NewWriter writes the file header to w and returns a Writer. created
// stamps the header (UnixNano; the caller supplies it so deterministic
// writers stay deterministic).
func NewWriter(w io.Writer, created int64) (*Writer, error) {
	sw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	var hdr [headerLen]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(created))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[:16]))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// Begin opens a section. Any open section is flushed first.
func (w *Writer) Begin(family, gen, flags uint8, split uint32) error {
	if err := w.flushSection(); err != nil {
		return err
	}
	w.cur = Section{Family: family, Gen: gen, Flags: flags, Split: split}
	w.open = true
	return nil
}

// Entry appends one entry to the open section, rotating to a fresh section
// of the same identity when the payload is full. The key and value bytes
// are copied immediately.
func (w *Writer) Entry(key []byte, value string, exp int64) error {
	if !w.open {
		return errors.New("snapshot: Entry without Begin")
	}
	var pfx [binary.MaxVarintLen64]byte
	w.payload = append(w.payload, pfx[:binary.PutUvarint(pfx[:], uint64(len(key)))]...)
	w.payload = append(w.payload, key...)
	w.payload = append(w.payload, pfx[:binary.PutUvarint(pfx[:], uint64(len(value)))]...)
	w.payload = append(w.payload, value...)
	w.payload = binary.LittleEndian.AppendUint64(w.payload, uint64(exp))
	w.cur.Count++
	if len(w.payload) >= sectionMaxBytes {
		id := w.cur
		if err := w.flushSection(); err != nil {
			return err
		}
		w.cur = Section{Family: id.Family, Gen: id.Gen, Flags: id.Flags, Split: id.Split}
		w.open = true
	}
	return nil
}

// flushSection writes the open section, if any. Empty sections are elided.
func (w *Writer) flushSection() error {
	if !w.open {
		return nil
	}
	w.open = false
	if w.cur.Count == 0 {
		return nil
	}
	hdr := w.scratch[:]
	hdr[0] = sectionMarker
	hdr[1] = w.cur.Family
	hdr[2] = w.cur.Gen
	hdr[3] = w.cur.Flags
	binary.LittleEndian.PutUint32(hdr[4:8], w.cur.Split)
	binary.LittleEndian.PutUint32(hdr[8:12], w.cur.Count)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(w.payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[1:16])
	crc.Write(w.payload)
	binary.LittleEndian.PutUint32(hdr[16:20], crc.Sum32())
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(w.payload); err != nil {
		return err
	}
	w.payload = w.payload[:0]
	w.sections++
	return nil
}

// Close flushes the open section, writes the end marker, and flushes the
// underlying buffered writer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if err := w.flushSection(); err != nil {
		return err
	}
	var end [endLen]byte
	end[0] = endMarker
	binary.LittleEndian.PutUint32(end[1:5], w.sections)
	binary.LittleEndian.PutUint32(end[5:9], crc32.ChecksumIEEE(end[:5]))
	if _, err := w.w.Write(end[:]); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader validates and iterates a snapshot stream.
type Reader struct {
	r        *bufio.Reader
	created  int64
	version  uint16
	sections uint32
	done     bool
}

// NewReader validates the file header of r.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[16:20]), crc32.ChecksumIEEE(hdr[:16]); got != want {
		return nil, fmt.Errorf("%w: header crc %08x != %08x", ErrCorrupt, got, want)
	}
	sr.version = binary.LittleEndian.Uint16(hdr[4:6])
	if sr.version > Version {
		return nil, fmt.Errorf("%w: file version %d > %d", ErrVersion, sr.version, Version)
	}
	sr.created = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	return sr, nil
}

// Created returns the header's creation stamp (UnixNano).
func (r *Reader) Created() int64 { return r.created }

// Next returns the next section, or io.EOF after a valid end marker. Any
// other error means the file is corrupt or truncated; sections already
// returned were CRC-validated and are safe to have applied.
func (r *Reader) Next() (*Section, error) {
	if r.done {
		return nil, io.EOF
	}
	marker, err := r.r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: missing end marker: %v", ErrCorrupt, err)
	}
	switch marker {
	case endMarker:
		var end [endLen]byte
		end[0] = endMarker
		if _, err := io.ReadFull(r.r, end[1:]); err != nil {
			return nil, fmt.Errorf("%w: short end marker: %v", ErrCorrupt, err)
		}
		if got, want := binary.LittleEndian.Uint32(end[5:9]), crc32.ChecksumIEEE(end[:5]); got != want {
			return nil, fmt.Errorf("%w: end crc %08x != %08x", ErrCorrupt, got, want)
		}
		if got := binary.LittleEndian.Uint32(end[1:5]); got != r.sections {
			return nil, fmt.Errorf("%w: end marker counts %d sections, read %d", ErrCorrupt, got, r.sections)
		}
		r.done = true
		return nil, io.EOF
	case sectionMarker:
	default:
		return nil, fmt.Errorf("%w: unknown marker %#02x", ErrCorrupt, marker)
	}
	var hdr [sectionHdrLen]byte
	hdr[0] = sectionMarker
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("%w: short section header: %v", ErrCorrupt, err)
	}
	s := &Section{
		Family: hdr[1],
		Gen:    hdr[2],
		Flags:  hdr[3],
		Split:  binary.LittleEndian.Uint32(hdr[4:8]),
		Count:  binary.LittleEndian.Uint32(hdr[8:12]),
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[12:16])
	// Sanity before allocating: the writer never produces an oversized or
	// under-filled section, so claimed lengths beyond these bounds are
	// corruption (or a fuzzer), not data.
	if payloadLen > 2*sectionMaxBytes {
		return nil, fmt.Errorf("%w: section payload %d exceeds limit", ErrCorrupt, payloadLen)
	}
	if uint64(s.Count)*entryMinBytes > uint64(payloadLen) {
		return nil, fmt.Errorf("%w: %d entries cannot fit %d payload bytes", ErrCorrupt, s.Count, payloadLen)
	}
	s.payload = make([]byte, payloadLen)
	if _, err := io.ReadFull(r.r, s.payload); err != nil {
		return nil, fmt.Errorf("%w: short section payload: %v", ErrCorrupt, err)
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[1:16])
	crc.Write(s.payload)
	if got, want := binary.LittleEndian.Uint32(hdr[16:20]), crc.Sum32(); got != want {
		return nil, fmt.Errorf("%w: section crc %08x != %08x", ErrCorrupt, got, want)
	}
	r.sections++
	return s, nil
}

// Failpoints on the checkpoint write path, mirroring the winstore segment
// points: "write" covers the encode (and supports shortwrite for torn
// files), "sync" the fsync, "rename" the final publish. Every injected
// fault lands on the temp file before the rename, so the crash-safety
// sweeps can prove the previous snapshot generation is never lost.
var (
	fpSnapWrite  = fault.New("snapshot.write")
	fpSnapSync   = fault.New("snapshot.sync")
	fpSnapRename = fault.New("snapshot.rename")
)

// syncDir fsyncs a directory so the renamed snapshot's directory entry is
// durable, not just its data blocks.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile writes a snapshot atomically: fill writes sections into a
// temporary file in path's directory, which is fsynced and renamed over
// path only after Close succeeds, then the directory is fsynced so the
// rename itself survives a power cut. A crash mid-checkpoint leaves the
// previous snapshot intact; readers never observe a partial file.
func WriteFile(path string, created int64, fill func(*Writer) error) (err error) {
	if err = fpSnapWrite.Inject(); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w, err := NewWriter(fpSnapWrite.Writer(f), created)
	if err != nil {
		return err
	}
	if err = fill(w); err != nil {
		return err
	}
	if err = w.Close(); err != nil {
		return err
	}
	if err = fpSnapSync.Inject(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fpSnapRename.Inject(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}
