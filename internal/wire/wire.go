// Package wire defines the colockd network protocol: a length-prefixed
// binary framing over TCP with a fixed-size magic/version handshake,
// request-id multiplexing for pipelining, and a small message catalog
// (Begin, Lock, LockPath, Downgrade, Release, Commit, Abort, Ping plus
// their replies) that carries the lock protocol's acquire options and its
// structured *lock.LockError failures — cause sentinel and blocker set —
// faithfully across the connection.
//
// The protocol is specified, byte by byte, in DESIGN.md §16; a third-party
// client can be written from that spec alone. This package is the Go
// reference implementation of the spec: internal/server speaks it on the
// accept side, the public client package on the dial side. Everything here
// is pure encoding — no sockets, no sessions — so both sides (and the
// tests) share one codec.
//
// Layout summary (all integers big-endian where fixed-width, unsigned
// varints otherwise; see DESIGN.md §16 for the normative grammar):
//
//	ClientHello  = magic(4) version(2) flags(2)
//	ServerWelcome = magic(4) version(2) code(2) session(8) lease-ns(8)
//	Frame        = length(4) type(1) reqid(8) payload(length-9)
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Magic opens both handshake messages: "CLKW" (colock wire).
var Magic = [4]byte{'C', 'L', 'K', 'W'}

// Version is the protocol version this implementation speaks. The
// handshake rejects any other major version (there are no minor versions:
// the payload grammar is frozen per version number).
const Version uint16 = 1

// MaxFrame bounds the on-wire size of one frame body (type + reqid +
// payload). A peer announcing a larger frame is protocol-broken and the
// connection is torn down — the cap keeps a corrupt or hostile length
// prefix from ballooning a single read into gigabytes.
const MaxFrame = 1 << 20

// Handshake result codes carried in ServerWelcome.Code.
const (
	// WelcomeOK: session established; Session and Lease are valid.
	WelcomeOK uint16 = 0
	// WelcomeVersionUnsupported: the server does not speak the client's
	// version. The server closes after writing the welcome.
	WelcomeVersionUnsupported uint16 = 1
	// WelcomeDraining: the server is draining toward shutdown and refuses
	// new sessions. Retryable against another endpoint (or later).
	WelcomeDraining uint16 = 2
	// WelcomeSessionLimit: the server is at its max-session admission cap.
	// Retryable after backoff.
	WelcomeSessionLimit uint16 = 3
)

// Frame types. Requests have the high bit clear, replies have it set; a
// reply's reqid echoes the request it answers. Reqid 0 is reserved for
// unsolicited server notices (session expiry, drain) — see DESIGN.md §16.
const (
	// TBegin starts a transaction bound to this session.
	TBegin byte = 0x01
	// TLock acquires a protocol lock on a node (full rule 1-5 chain).
	TLock byte = 0x02
	// TLockPath is TLock on a data path (the common case).
	TLockPath byte = 0x03
	// TDowngrade trades a coarse S/X lock for finer locks on kept
	// descendant paths (de-escalation, §5 of the paper).
	TDowngrade byte = 0x04
	// TRelease releases a single lock early, leaf-to-root (rule 5).
	TRelease byte = 0x05
	// TCommit commits the transaction and releases its locks.
	TCommit byte = 0x06
	// TAbort aborts the transaction and releases its locks.
	TAbort byte = 0x07
	// TPing refreshes the session lease; the reply is TPong.
	TPing byte = 0x08

	// TOK acknowledges success for requests with no result payload.
	TOK byte = 0x81
	// TTxn answers TBegin with the new transaction id.
	TTxn byte = 0x82
	// TErr reports a failure: cause code, retryability, request context
	// (txn, resource, mode) and the blocker set.
	TErr byte = 0x83
	// TPong answers TPing, restating the session lease interval.
	TPong byte = 0x84
)

// TypeName returns the spec name of a frame type, for diagnostics.
func TypeName(t byte) string {
	switch t {
	case TBegin:
		return "Begin"
	case TLock:
		return "Lock"
	case TLockPath:
		return "LockPath"
	case TDowngrade:
		return "Downgrade"
	case TRelease:
		return "Release"
	case TCommit:
		return "Commit"
	case TAbort:
		return "Abort"
	case TPing:
		return "Ping"
	case TOK:
		return "OK"
	case TTxn:
		return "Txn"
	case TErr:
		return "Err"
	case TPong:
		return "Pong"
	}
	return fmt.Sprintf("0x%02x", t)
}

// ErrFrameTooLarge reports a frame body exceeding MaxFrame in either
// direction; the connection must be closed.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrBadMagic reports a handshake that does not open with Magic.
var ErrBadMagic = errors.New("wire: bad handshake magic")

// Frame is one decoded frame: a type, the request id it belongs to, and
// the raw payload (decoded further by the message layer).
type Frame struct {
	Type    byte
	ReqID   uint64
	Payload []byte
}

// WriteFrame writes one frame. It performs a single Write call so frames
// from concurrent writers guarded by a mutex never interleave.
func WriteFrame(w io.Writer, typ byte, reqID uint64, payload []byte) error {
	body := 1 + 8 + len(payload)
	if body > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+body)
	binary.BigEndian.PutUint32(buf[0:4], uint32(body))
	buf[4] = typ
	binary.BigEndian.PutUint64(buf[5:13], reqID)
	copy(buf[13:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame. The returned payload aliases a fresh buffer
// (safe to retain). io.EOF is returned untouched on a clean close between
// frames; a close mid-frame surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n, err := bodyLen(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return frameOf(body), nil
}

// bodyLen validates a frame's length prefix.
func bodyLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n < 9 {
		return 0, fmt.Errorf("wire: frame body %d bytes, need >= 9", n)
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// frameOf splits a frame body; the payload aliases it.
func frameOf(body []byte) Frame {
	return Frame{Type: body[0], ReqID: binary.BigEndian.Uint64(body[1:9]), Payload: body[9:]}
}

// frameBufSize is the read and write buffer per connection direction: one
// read syscall drains every frame a pipelining peer has queued.
const frameBufSize = 32 << 10

// FrameReader reads frames through one reusable buffer. The payload of the
// frame Next returns is borrowed: it aliases the buffer and is valid until
// the next call to Next, so a caller decodes (or copies) before reading on.
// A reader is used by one goroutine at a time; a failed Next loses no
// buffered byte, so after a deadline error the next call resumes mid-frame.
type FrameReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int // unread bytes are buf[lo:hi]
}

// NewFrameReader wraps r (normally a net.Conn).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, frameBufSize)}
}

// Buffered reports whether the next frame is already in the buffer, whole:
// Next will then return it without touching the connection.
func (fr *FrameReader) Buffered() bool {
	n := fr.hi - fr.lo
	return n >= 4 && n-4 >= int(binary.BigEndian.Uint32(fr.buf[fr.lo:]))
}

// fill reads until need unread bytes are buffered, moving them to the
// front — and growing the buffer, for a frame larger than it — as needed.
func (fr *FrameReader) fill(need int) error {
	if fr.hi-fr.lo >= need {
		return nil
	}
	if need > len(fr.buf)-fr.lo {
		buf := fr.buf
		if need > len(buf) {
			buf = make([]byte, need)
		}
		fr.hi = copy(buf, fr.buf[fr.lo:fr.hi])
		fr.lo, fr.buf = 0, buf
	}
	for empty := 0; fr.hi-fr.lo < need; {
		n, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += n
		if err != nil && fr.hi-fr.lo < need {
			return err
		}
		if n > 0 {
			empty = 0
		} else if empty++; empty >= 100 {
			return io.ErrNoProgress
		}
	}
	return nil
}

// Next reads one frame, with ReadFrame's errors: io.EOF untouched on a
// clean close between frames, io.ErrUnexpectedEOF for a close mid-frame.
func (fr *FrameReader) Next() (Frame, error) {
	if fr.lo == fr.hi {
		fr.lo, fr.hi = 0, 0
		if len(fr.buf) > frameBufSize {
			fr.buf = make([]byte, frameBufSize) // an oversized frame came and went
		}
	}
	if err := fr.fill(4); err != nil {
		if err == io.EOF && fr.hi > fr.lo {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	n, err := bodyLen(fr.buf[fr.lo:])
	if err != nil {
		return Frame{}, err
	}
	if err := fr.fill(4 + n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	body := fr.buf[fr.lo+4 : fr.lo+4+n]
	fr.lo += 4 + n
	return frameOf(body), nil
}

// Payload is anything that can append its wire encoding to a buffer — every
// message of the catalog, and NoPayload.
type Payload interface{ AppendTo(b []byte) []byte }

// NoPayload is the empty payload of TOK and TPing.
type NoPayload struct{}

// AppendTo appends nothing.
func (NoPayload) AppendTo(b []byte) []byte { return b }

// FrameWriter serializes concurrent frame writes onto one connection
// through a buffer with last-writer-out flush coalescing: a writer that
// sees other writers queued behind it skips the flush and leaves it to the
// last of them, so frames produced concurrently (pipelined requests, a
// burst of replies) share write syscalls instead of paying one each. The
// first write error is sticky — every later write reports it.
type FrameWriter struct {
	queued atomic.Int32
	mu     sync.Mutex
	bw     *bufio.Writer
	err    error
}

// NewFrameWriter wraps w (normally a net.Conn).
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriterSize(w, frameBufSize)}
}

// Send encodes one frame straight into fw's buffer — no intermediate
// payload or frame slice. With flush set the buffer is flushed unless
// another writer is already waiting to append to it; without, the frame
// stays buffered until a later Send or Flush pushes it out, which is how a
// read loop answers a pipelined burst with one write.
func Send[P Payload](fw *FrameWriter, typ byte, reqID uint64, p P, flush bool) error {
	fw.queued.Add(1)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	err := fw.err
	if err == nil {
		b := append(fw.bw.AvailableBuffer(), 0, 0, 0, 0, typ)
		b = p.AppendTo(binary.BigEndian.AppendUint64(b, reqID))
		if len(b)-4 > MaxFrame {
			err = ErrFrameTooLarge
		} else {
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			_, err = fw.bw.Write(b)
		}
	}
	if fw.queued.Add(-1) == 0 && flush && err == nil {
		err = fw.bw.Flush()
	}
	fw.err = err
	return err
}

// Flush pushes buffered frames out; a no-op when there are none.
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err == nil && fw.bw.Buffered() > 0 {
		fw.err = fw.bw.Flush()
	}
	return fw.err
}

// Hello is the client's opening handshake message.
type Hello struct {
	Version uint16
	Flags   uint16 // reserved, must be 0
}

// WriteHello writes the 8-byte ClientHello.
func WriteHello(w io.Writer, h Hello) error {
	var buf [8]byte
	copy(buf[0:4], Magic[:])
	binary.BigEndian.PutUint16(buf[4:6], h.Version)
	binary.BigEndian.PutUint16(buf[6:8], h.Flags)
	_, err := w.Write(buf[:])
	return err
}

// ReadHello reads and validates the ClientHello (magic only — version
// acceptance is the server's policy decision).
func ReadHello(r io.Reader) (Hello, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Hello{}, err
	}
	if [4]byte(buf[0:4]) != Magic {
		return Hello{}, ErrBadMagic
	}
	return Hello{
		Version: binary.BigEndian.Uint16(buf[4:6]),
		Flags:   binary.BigEndian.Uint16(buf[6:8]),
	}, nil
}

// Welcome is the server's handshake response.
type Welcome struct {
	Version uint16
	Code    uint16 // WelcomeOK, WelcomeVersionUnsupported, ...
	Session uint64 // server-assigned session id (valid when Code == WelcomeOK)
	Lease   int64  // lease interval in nanoseconds the client must beat
}

// WriteWelcome writes the 24-byte ServerWelcome.
func WriteWelcome(w io.Writer, wl Welcome) error {
	var buf [24]byte
	copy(buf[0:4], Magic[:])
	binary.BigEndian.PutUint16(buf[4:6], wl.Version)
	binary.BigEndian.PutUint16(buf[6:8], wl.Code)
	binary.BigEndian.PutUint64(buf[8:16], wl.Session)
	binary.BigEndian.PutUint64(buf[16:24], uint64(wl.Lease))
	_, err := w.Write(buf[:])
	return err
}

// ReadWelcome reads and validates the ServerWelcome.
func ReadWelcome(r io.Reader) (Welcome, error) {
	var buf [24]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Welcome{}, err
	}
	if [4]byte(buf[0:4]) != Magic {
		return Welcome{}, ErrBadMagic
	}
	return Welcome{
		Version: binary.BigEndian.Uint16(buf[4:6]),
		Code:    binary.BigEndian.Uint16(buf[6:8]),
		Session: binary.BigEndian.Uint64(buf[8:16]),
		Lease:   int64(binary.BigEndian.Uint64(buf[16:24])),
	}, nil
}
