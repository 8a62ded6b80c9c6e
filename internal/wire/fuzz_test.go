package wire

// Fuzz targets for everything that parses bytes from the socket: the frame
// readers, every message decoder, the handshake. As plain tests they run
// their seed corpus; `go test -fuzz FuzzX ./internal/wire` explores.

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"colock/internal/lock"
)

// seedFrames is a byte stream of well-formed frames of every request type.
func seedFrames() []byte {
	var buf bytes.Buffer
	lr := LockReq{Txn: 7, Node: NodeRef{Level: NodePath, Path: []string{"cells", "c1", "robots", "r1"}}, Mode: lock.X}
	for i, m := range []struct {
		typ byte
		p   []byte
	}{
		{TBegin, BeginReq{}.Encode()},
		{TLockPath, lr.Encode()},
		{TDowngrade, DowngradeReq{Txn: 7, Node: lr.Node, Keep: [][]string{{"cells", "c1"}}}.Encode()},
		{TRelease, ReleaseReq{Txn: 7, Node: NodeRef{Level: NodeSegment, Segment: "common"}}.Encode()},
		{TCommit, TxnReq{Txn: 7}.Encode()},
		{TPing, nil},
		{TErr, ErrPayload{Cause: CauseDeadlock, Retryable: true, Txn: 7, Resource: "d/s/cells/c1", Message: "victim", Blockers: []uint64{2, 3}}.Encode()},
	} {
		if err := WriteFrame(&buf, m.typ, uint64(i+1), m.p); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// FuzzFrameReader: on any byte stream, however it is chunked, FrameReader
// yields exactly the frames ReadFrame yields and stops where it stops — no
// panic, no frame that reaches into its neighbour, nothing read past the
// failure — and its errors are ReadFrame's.
func FuzzFrameReader(f *testing.F) {
	seed := seedFrames()
	f.Add(seed, uint8(0))
	f.Add(seed[:len(seed)-3], uint8(1))
	f.Add(seed, uint8(5))
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3}, uint8(0))                                       // body shorter than a header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, uint8(0))                                 // oversized
	f.Add(append([]byte{0, 1, 0, 0}, seed...), uint8(0))                               // 64 KiB announced: larger than the buffer, truncated
	f.Add(bytes.Repeat([]byte{0, 0, 0, 9, 8, 0, 0, 0, 0, 0, 0, 0, 1}, 4000), uint8(0)) // more than one buffer of pings
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		var r io.Reader = bytes.NewReader(stream)
		if chunk == 1 {
			r = iotest.OneByteReader(r)
		} else if chunk > 1 {
			r = iotest.HalfReader(r)
		}
		fr, ref := NewFrameReader(r), bytes.NewReader(stream)
		for {
			want, wantErr := ReadFrame(ref)
			got, err := fr.Next()
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("FrameReader err = %v, ReadFrame err = %v", err, wantErr)
			}
			if err != nil {
				if err != wantErr && err.Error() != wantErr.Error() {
					t.Fatalf("FrameReader err = %v, ReadFrame err = %v", err, wantErr)
				}
				return
			}
			if got.Type != want.Type || got.ReqID != want.ReqID || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("FrameReader frame = %+v, ReadFrame frame = %+v", got, want)
			}
		}
	})
}

// roundTrip checks one decoder on one payload: no panic; and what decodes
// re-encodes to something that decodes to the same message.
func roundTrip[M Payload](t *testing.T, name string, p []byte, decode func([]byte) (M, error)) {
	t.Helper()
	m, err := decode(p)
	if err != nil {
		return
	}
	again, err := decode(m.AppendTo(nil))
	if err != nil || !reflect.DeepEqual(again, m) {
		t.Fatalf("%s: %+v re-encoded decodes to %+v, %v", name, m, again, err)
	}
}

// FuzzDecode throws one payload at every message decoder, the allocating
// and the borrowed-buffer LockReq decode alike.
func FuzzDecode(f *testing.F) {
	fr := NewFrameReader(bytes.NewReader(seedFrames()))
	for {
		fm, err := fr.Next()
		if err != nil {
			break
		}
		f.Add(bytes.Clone(fm.Payload))
	}
	f.Add(TxnReply{Txn: 1 << 40}.Encode())
	f.Add(Pong{Lease: 5 * time.Second}.Encode())
	f.Add([]byte{5, NodePath, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // path count far beyond the payload
	f.Fuzz(func(t *testing.T, p []byte) {
		roundTrip(t, "BeginReq", p, DecodeBeginReq)
		roundTrip(t, "LockReq", p, DecodeLockReq)
		roundTrip(t, "DowngradeReq", p, DecodeDowngradeReq)
		roundTrip(t, "ReleaseReq", p, DecodeReleaseReq)
		roundTrip(t, "TxnReq", p, DecodeTxnReq)
		roundTrip(t, "TxnReply", p, DecodeTxnReply)
		roundTrip(t, "Pong", p, DecodePong)
		roundTrip(t, "ErrPayload", p, DecodeErrPayload)

		// The interning decode agrees with the free function, and owns its
		// strings: scribbling over the payload afterwards changes nothing.
		var in Interner
		want, wantErr := DecodeLockReq(p)
		got, err := in.DecodeLockReq(bytes.Clone(p), make([]string, 0, 2))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("interning decode err = %v, free function err = %v", err, wantErr)
		}
		if err == nil {
			q := bytes.Clone(p)
			got, _ = in.DecodeLockReq(q, nil)
			for i := range q {
				q[i] = 'x'
			}
			if len(got.Node.Path) == 0 {
				got.Node.Path = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("interning decode = %+v, free function = %+v", got, want)
			}
		}
	})
}

// FuzzLockReqRoundTrip: Decode(Encode(m)) == m for the hot message, built
// from fuzzed fields, through the free function and through FrameReader +
// the interning decode — twice, so the second pass is served by the table.
func FuzzLockReqRoundTrip(f *testing.F) {
	f.Add(uint64(7), byte(NodePath), "", "cells", "c1", byte(lock.X), true, int64(time.Second))
	f.Add(uint64(1<<63), byte(NodeSegment), "common", "", "", byte(lock.IS), false, int64(0))
	f.Add(uint64(0), byte(NodeDatabase), "", "", string(bytes.Repeat([]byte("k"), 100)), byte(lock.SIX), false, int64(-1))
	f.Fuzz(func(t *testing.T, txn uint64, level byte, seg, p0, p1 string, mode byte, noFollow bool, timeout int64) {
		m := LockReq{Txn: txn, Node: NodeRef{Level: level, Segment: seg}, Mode: lock.Mode(mode),
			NoFollow: noFollow, Timeout: time.Duration(timeout)}
		if p0 != "" || p1 != "" {
			m.Node.Path = []string{p0, p1, p0}
		}
		if got, err := DecodeLockReq(m.Encode()); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("free function: %+v, %v; want %+v", got, err, m)
		}
		var stream bytes.Buffer
		fw := NewFrameWriter(&stream)
		for i := 0; i < 2; i++ {
			if err := Send(fw, TLock, 9, m, i == 1); err != nil {
				t.Fatal(err)
			}
		}
		var in Interner
		var scratch []string
		fr := NewFrameReader(&stream)
		for i := 0; i < 2; i++ {
			fm, err := fr.Next()
			if err != nil || fm.Type != TLock || fm.ReqID != 9 {
				t.Fatalf("frame %d = %+v, %v", i, fm, err)
			}
			got, err := in.DecodeLockReq(fm.Payload, scratch)
			scratch = got.Node.Path
			if len(got.Node.Path) == 0 {
				got.Node.Path = nil
			}
			if err != nil || !reflect.DeepEqual(got, m) {
				t.Fatalf("borrowed-buffer path, pass %d: %+v, %v; want %+v", i, got, err, m)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want EOF", err)
		}
	})
}

// FuzzHandshake: the fixed-size handshake readers never panic, consume
// exactly their own bytes, and round-trip what they accept.
func FuzzHandshake(f *testing.F) {
	var hello, welcome bytes.Buffer
	_ = WriteHello(&hello, Hello{Version: Version})
	_ = WriteWelcome(&welcome, Welcome{Version: Version, Code: WelcomeOK, Session: 9, Lease: int64(time.Second)})
	f.Add(hello.Bytes())
	f.Add(welcome.Bytes())
	f.Add([]byte("CLKW\x00"))
	f.Add([]byte("XXXX\x00\x01\x00\x00"))
	f.Fuzz(func(t *testing.T, p []byte) {
		r := bytes.NewReader(p)
		if h, err := ReadHello(r); err == nil {
			var out bytes.Buffer
			if r.Len() != len(p)-8 || WriteHello(&out, h) != nil || !bytes.Equal(out.Bytes(), p[:8]) {
				t.Fatalf("hello %+v: %d bytes left of %d, re-encodes to %x", h, r.Len(), len(p), out.Bytes())
			}
		}
		r = bytes.NewReader(p)
		if w, err := ReadWelcome(r); err == nil {
			var out bytes.Buffer
			if r.Len() != len(p)-24 || WriteWelcome(&out, w) != nil || !bytes.Equal(out.Bytes(), p[:24]) {
				t.Fatalf("welcome %+v: %d bytes left of %d, re-encodes to %x", w, r.Len(), len(p), out.Bytes())
			}
		}
	})
}
