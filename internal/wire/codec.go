package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec primitives. Payload fields use unsigned varints (the
// encoding/binary Uvarint format) for integers, uvarint-length-prefixed
// UTF-8 bytes for strings, and uvarint-counted sequences for lists — the
// grammar DESIGN.md §16 specifies. The encoder appends to a byte slice
// (every message's AppendTo, so a frame can be built in place in the
// connection's write buffer); the decoder is a cursor over one with a
// sticky error, so message decoders read field after field and check once
// at the end.

// ErrTruncated reports a payload that ended before its grammar did.
var ErrTruncated = errors.New("wire: truncated payload")

// enc builds a payload.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) byte(v byte)      { e.b = append(e.b, v) }

func (e *enc) bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.b = append(e.b, b)
}

func (e *enc) string(s string) { e.uvarint(uint64(len(s))); e.b = append(e.b, s...) }
func (e *enc) strings(s []string) {
	e.uvarint(uint64(len(s)))
	for _, x := range s {
		e.string(x)
	}
}

// dec is a cursor over one payload with a sticky error. With in set,
// strings come out of the intern table and the first string sequence is
// appended to path — the allocation-free Lock decode (Interner.DecodeLockReq);
// otherwise every string and slice is freshly allocated.
type dec struct {
	b    []byte
	err  error
	in   *Interner
	path []string
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	if d.in != nil {
		return d.in.intern(raw)
	}
	return string(raw)
}

// maxSeq bounds decoded sequence lengths: a corrupt count must not turn
// into a multi-gigabyte allocation. MaxFrame already bounds the encoded
// bytes, and every sequence element is at least one byte, so the payload
// length is a safe cap.
func (d *dec) count() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) strings() []string {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	out := d.path
	if d.in == nil {
		out = make([]string, 0, n)
	}
	for i := 0; i < n; i++ {
		out = append(out, d.string())
	}
	return out
}

// finish returns the sticky error, also failing when trailing bytes
// remain — every message must consume its payload exactly.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing payload bytes", len(d.b))
	}
	return nil
}

// Interner resolves the strings of decoded requests to real, immutable Go
// strings without allocating for one it has seen before: the segments of
// lock paths repeat endlessly within a session (relation and attribute
// names, the keys of the objects being edited), and the engine retains
// them — the name cache keeps the segments of every first-touch path — so
// they must never alias a read buffer. The table is bounded: strings
// longer than maxInternLen bypass it and it is emptied when it reaches
// maxInternEntries. Not safe for concurrent use; a session's successive
// readers hand it on with the read loop.
type Interner struct {
	m map[string]string
}

const (
	maxInternEntries = 4096
	maxInternLen     = 64
)

func (in *Interner) intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	s := string(b)
	if len(b) > maxInternLen {
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	} else if len(in.m) >= maxInternEntries {
		clear(in.m)
	}
	in.m[s] = s
	return s
}
