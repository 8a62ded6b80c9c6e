package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"colock/internal/lock"
)

// Segment wire format. A segment file is:
//
//	magic "CLKJRNL1" (8 bytes)
//	record*
//
// where every record is framed as
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// and the payload's first byte selects the record type:
//
//	recString: uvarint id, then the string's bytes (length implied by the
//	           payload length). Ids are assigned densely from 1 and scoped
//	           to ONE segment — the interning table resets on rotation, so
//	           each segment decodes standalone.
//	recEvent:  uvarint kind-id, uvarint txn, uvarint resource-id,
//	           byte mode, uvarint shard, byte flags (1 waited, 2 wait-die),
//	           varint at (unix nanos; 0 = no timestamp), uvarint dur (ns),
//	           uvarint #blockers + uvarint*, uvarint #resources + uvarint*
//	           (interned resource ids, release-all sweeps), and on a
//	           coalesced "fastpath" record uvarint hits (Record.Hits; absent
//	           when zero, the payload length tells).
//
// Id 0 always decodes to the empty string. Kinds and resource names share
// one interning namespace.

const (
	segMagic = "CLKJRNL1"

	recString byte = 0
	recEvent  byte = 1

	// maxRecordBytes bounds a single record's payload; a length prefix
	// beyond it means the frame is garbage (torn or corrupt), not a record.
	maxRecordBytes = 16 << 20
)

// ErrTorn marks a segment tail that ends mid-record: a short frame, a short
// payload, or a payload failing its CRC. The Reader tolerates it on the
// final record of the final segment (a crash mid-write) and fails the
// journal anywhere else.
var ErrTorn = errors.New("journal: torn record")

// segmentEncoder writes framed records to w, interning strings per segment.
type segmentEncoder struct {
	w     io.Writer
	ids   map[string]uint32
	next  uint32
	buf   []byte   // payload scratch
	sweep []uint32 // interned release-all resource ids, scratch
	frame [8]byte
	n     int64 // bytes written, header included
}

// newSegmentEncoder writes the segment header and returns an encoder.
func newSegmentEncoder(w io.Writer) (*segmentEncoder, error) {
	if _, err := io.WriteString(w, segMagic); err != nil {
		return nil, err
	}
	return &segmentEncoder{w: w, ids: make(map[string]uint32), next: 1, n: int64(len(segMagic))}, nil
}

// writeFrame emits one length+CRC framed payload.
func (e *segmentEncoder) writeFrame(payload []byte) error {
	binary.LittleEndian.PutUint32(e.frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := e.w.Write(e.frame[:]); err != nil {
		return err
	}
	if _, err := e.w.Write(payload); err != nil {
		return err
	}
	e.n += int64(len(e.frame) + len(payload))
	return nil
}

// intern returns the id for s, emitting the defining string record on first
// use within this segment.
func (e *segmentEncoder) intern(s string) (uint32, error) {
	if s == "" {
		return 0, nil
	}
	if id, ok := e.ids[s]; ok {
		return id, nil
	}
	id := e.next
	e.next++
	e.ids[s] = id
	e.buf = e.buf[:0]
	e.buf = append(e.buf, recString)
	e.buf = binary.AppendUvarint(e.buf, uint64(id))
	e.buf = append(e.buf, s...)
	return id, e.writeFrame(e.buf)
}

// writeRecord interns the record's strings and emits its event frame.
func (e *segmentEncoder) writeRecord(rec Record) error {
	kindID, err := e.intern(rec.Kind)
	if err != nil {
		return err
	}
	resID, err := e.intern(string(rec.Resource))
	if err != nil {
		return err
	}
	// Intern the release-all sweep list before building the event payload
	// (interning writes frames of its own and shares the scratch buffer).
	resIDs := e.sweep[:0]
	for _, r := range rec.Resources {
		id, err := e.intern(string(r))
		if err != nil {
			return err
		}
		resIDs = append(resIDs, id)
	}
	e.sweep = resIDs
	var flags byte
	if rec.Waited {
		flags |= 1
	}
	if rec.WaitDie {
		flags |= 2
	}
	var at int64
	if !rec.At.IsZero() {
		at = rec.At.UnixNano()
	}
	dur := rec.Dur
	if dur < 0 {
		dur = 0
	}
	e.buf = e.buf[:0]
	e.buf = append(e.buf, recEvent)
	e.buf = binary.AppendUvarint(e.buf, uint64(kindID))
	e.buf = binary.AppendUvarint(e.buf, uint64(rec.Txn))
	e.buf = binary.AppendUvarint(e.buf, uint64(resID))
	e.buf = append(e.buf, byte(rec.Mode))
	e.buf = binary.AppendUvarint(e.buf, uint64(rec.Shard))
	e.buf = append(e.buf, flags)
	e.buf = binary.AppendVarint(e.buf, at)
	e.buf = binary.AppendUvarint(e.buf, uint64(dur))
	e.buf = binary.AppendUvarint(e.buf, uint64(len(rec.Blockers)))
	for _, b := range rec.Blockers {
		e.buf = binary.AppendUvarint(e.buf, uint64(b))
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(len(resIDs)))
	for _, id := range resIDs {
		e.buf = binary.AppendUvarint(e.buf, uint64(id))
	}
	if rec.Hits > 0 {
		e.buf = binary.AppendUvarint(e.buf, rec.Hits)
	}
	return e.writeFrame(e.buf)
}

// segmentDecoder reads framed records back, resolving interned strings.
type segmentDecoder struct {
	r    *bufio.Reader
	strs []string // id → string; index 0 is ""
	buf  []byte
}

// newSegmentDecoder checks the header and returns a decoder. An empty or
// header-truncated file decodes as torn.
func newSegmentDecoder(r io.Reader) (*segmentDecoder, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated segment header", ErrTorn)
		}
		return nil, err
	}
	if string(hdr) != segMagic {
		return nil, fmt.Errorf("journal: bad segment magic %q", hdr)
	}
	return &segmentDecoder{r: br, strs: []string{""}}, nil
}

// lookup resolves an interned id.
func (d *segmentDecoder) lookup(id uint64) (string, error) {
	if id >= uint64(len(d.strs)) {
		return "", fmt.Errorf("journal: undefined intern id %d", id)
	}
	return d.strs[id], nil
}

// next returns the next event record (string records are consumed
// internally). io.EOF signals a clean end; ErrTorn-wrapped errors a tail
// that stops mid-record.
func (d *segmentDecoder) next() (Record, error) {
	for {
		var frame [8]byte
		if _, err := io.ReadFull(d.r, frame[:]); err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			if err == io.ErrUnexpectedEOF {
				return Record{}, fmt.Errorf("%w: truncated frame", ErrTorn)
			}
			return Record{}, err
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length > maxRecordBytes {
			return Record{}, fmt.Errorf("%w: implausible record length %d", ErrTorn, length)
		}
		if cap(d.buf) < int(length) {
			d.buf = make([]byte, length)
		}
		payload := d.buf[:length]
		if _, err := io.ReadFull(d.r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return Record{}, fmt.Errorf("%w: truncated payload", ErrTorn)
			}
			return Record{}, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return Record{}, fmt.Errorf("%w: CRC mismatch", ErrTorn)
		}
		if len(payload) == 0 {
			return Record{}, fmt.Errorf("journal: empty record payload")
		}
		switch payload[0] {
		case recString:
			body := payload[1:]
			id, n := binary.Uvarint(body)
			if n <= 0 {
				return Record{}, fmt.Errorf("journal: bad string record id")
			}
			if id != uint64(len(d.strs)) {
				return Record{}, fmt.Errorf("journal: out-of-order intern id %d (want %d)", id, len(d.strs))
			}
			d.strs = append(d.strs, string(body[n:]))
		case recEvent:
			return d.decodeEvent(payload[1:])
		default:
			return Record{}, fmt.Errorf("journal: unknown record type %d", payload[0])
		}
	}
}

// decodeEvent parses one event payload (type byte stripped).
func (d *segmentDecoder) decodeEvent(b []byte) (Record, error) {
	var rec Record
	u := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("journal: short event payload")
		}
		b = b[n:]
		return v, nil
	}
	kindID, err := u()
	if err != nil {
		return rec, err
	}
	if rec.Kind, err = d.lookup(kindID); err != nil {
		return rec, err
	}
	txn, err := u()
	if err != nil {
		return rec, err
	}
	rec.Txn = lock.TxnID(txn)
	resID, err := u()
	if err != nil {
		return rec, err
	}
	res, err := d.lookup(resID)
	if err != nil {
		return rec, err
	}
	rec.Resource = lock.Resource(res)
	if len(b) < 1 {
		return rec, fmt.Errorf("journal: short event payload")
	}
	rec.Mode = lock.Mode(b[0])
	b = b[1:]
	shard, err := u()
	if err != nil {
		return rec, err
	}
	if shard > math.MaxInt32 {
		return rec, fmt.Errorf("journal: implausible shard %d", shard)
	}
	rec.Shard = int(shard)
	if len(b) < 1 {
		return rec, fmt.Errorf("journal: short event payload")
	}
	flags := b[0]
	b = b[1:]
	rec.Waited = flags&1 != 0
	rec.WaitDie = flags&2 != 0
	at, n := binary.Varint(b)
	if n <= 0 {
		return rec, fmt.Errorf("journal: short event payload")
	}
	b = b[n:]
	if at != 0 {
		rec.At = time.Unix(0, at)
	}
	dur, err := u()
	if err != nil {
		return rec, err
	}
	if dur > math.MaxInt64 {
		return rec, fmt.Errorf("journal: implausible duration %d", dur)
	}
	rec.Dur = time.Duration(dur)
	nb, err := u()
	if err != nil {
		return rec, err
	}
	if nb > uint64(len(b)) { // each blocker costs ≥1 byte
		return rec, fmt.Errorf("journal: implausible blocker count %d", nb)
	}
	if nb > 0 {
		rec.Blockers = make([]lock.TxnID, nb)
		for i := range rec.Blockers {
			v, err := u()
			if err != nil {
				return rec, err
			}
			rec.Blockers[i] = lock.TxnID(v)
		}
	}
	nr, err := u()
	if err != nil {
		return rec, err
	}
	if nr > uint64(len(b)) {
		return rec, fmt.Errorf("journal: implausible resource count %d", nr)
	}
	if nr > 0 {
		rec.Resources = make([]lock.Resource, nr)
		for i := range rec.Resources {
			v, err := u()
			if err != nil {
				return rec, err
			}
			s, err := d.lookup(v)
			if err != nil {
				return rec, err
			}
			rec.Resources[i] = lock.Resource(s)
		}
	}
	if len(b) > 0 {
		if rec.Hits, err = u(); err != nil || rec.Hits == 0 {
			return rec, fmt.Errorf("journal: bad fast-path hit count")
		}
	}
	return rec, nil
}
