package wire

import (
	"time"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
)

// NodeRef addresses one lockable unit on the wire. Level uses the spec's
// three codes — the receiver derives relation vs. data nodes from the path
// length, exactly as core.DataNode does, so both sides always agree on the
// resource naming.
type NodeRef struct {
	// Level: 0 = database, 1 = segment, 2 = path (relation when the path
	// has one segment, data below that).
	Level byte
	// Segment names the segment for Level 1; empty otherwise.
	Segment string
	// Path addresses relation and data nodes for Level 2; nil otherwise.
	Path []string
}

// Node levels on the wire.
const (
	// NodeDatabase addresses the hierarchy root.
	NodeDatabase byte = 0
	// NodeSegment addresses a storage segment by name.
	NodeSegment byte = 1
	// NodePath addresses a relation (one segment) or a data node (two or
	// more) by store path.
	NodePath byte = 2
)

// RefOf converts a core node to its wire address.
func RefOf(n core.Node) NodeRef {
	switch n.Level {
	case core.LevelDatabase:
		return NodeRef{Level: NodeDatabase}
	case core.LevelSegment:
		return NodeRef{Level: NodeSegment, Segment: n.Segment}
	default:
		return NodeRef{Level: NodePath, Path: n.Path}
	}
}

// Node converts a wire address back to a core node.
func (r NodeRef) Node() core.Node {
	switch r.Level {
	case NodeDatabase:
		return core.DatabaseNode()
	case NodeSegment:
		return core.SegmentNode(r.Segment)
	default:
		return core.DataNode(store.Path(r.Path))
	}
}

func (e *enc) node(r NodeRef) {
	e.byte(r.Level)
	e.string(r.Segment)
	e.strings(r.Path)
}

func (d *dec) node() NodeRef {
	return NodeRef{Level: d.byte(), Segment: d.string(), Path: d.strings()}
}

// BeginReq asks the server to start a transaction bound to this session.
type BeginReq struct {
	// Long requests a long (durable-lock) transaction: its locks survive a
	// simulated crash, per the paper's check-out model.
	Long bool
}

// AppendTo appends the payload to b.
func (m BeginReq) AppendTo(b []byte) []byte {
	e := enc{b}
	e.bool(m.Long)
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m BeginReq) Encode() []byte { return m.AppendTo(nil) }

// DecodeBeginReq parses a TBegin payload.
func DecodeBeginReq(p []byte) (BeginReq, error) {
	d := dec{b: p}
	m := BeginReq{Long: d.bool()}
	return m, d.finish()
}

// LockReq asks for a protocol lock. It carries every acquire option the
// in-process Txn.Lock accepts: NoFollow (skip downward propagation into
// referenced common data) and Timeout (per-acquisition deadline; zero
// means wait indefinitely, bounded only by the session).
type LockReq struct {
	Txn      uint64
	Node     NodeRef
	Mode     lock.Mode
	NoFollow bool
	Timeout  time.Duration
}

// lockFlagNoFollow marks the NOFOLLOW acquire option on the wire.
const lockFlagNoFollow byte = 1 << 0

// AppendTo appends the payload to b (shared by TLock and TLockPath; LockPath
// simply pins Node.Level to NodePath).
func (m LockReq) AppendTo(b []byte) []byte {
	e := enc{b}
	e.uvarint(m.Txn)
	e.node(m.Node)
	e.byte(byte(m.Mode))
	var flags byte
	if m.NoFollow {
		flags |= lockFlagNoFollow
	}
	e.byte(flags)
	e.uvarint(uint64(m.Timeout))
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m LockReq) Encode() []byte { return m.AppendTo(nil) }

// DecodeLockReq parses a TLock or TLockPath payload.
func DecodeLockReq(p []byte) (LockReq, error) { return decodeLockReq(dec{b: p}) }

// DecodeLockReq is the free function without its allocations, for a
// session's read loop: strings resolve through the intern table and the
// path is appended to path[:0], scratch the calling goroutine owns. The
// result's Node.Path aliases that scratch (keep it as the next call's
// scratch; it is valid until then) and nothing in it aliases p.
func (in *Interner) DecodeLockReq(p []byte, path []string) (LockReq, error) {
	return decodeLockReq(dec{b: p, in: in, path: path[:0]})
}

func decodeLockReq(d dec) (LockReq, error) {
	m := LockReq{Txn: d.uvarint(), Node: d.node(), Mode: lock.Mode(d.byte())}
	flags := d.byte()
	m.NoFollow = flags&lockFlagNoFollow != 0
	m.Timeout = time.Duration(d.uvarint())
	return m, d.finish()
}

// DowngradeReq de-escalates a coarse S/X lock on Node into locks of the
// same mode on the Keep paths (the paper's §5 de-escalation; the
// in-process equivalent is Txn.DeEscalate).
type DowngradeReq struct {
	Txn  uint64
	Node NodeRef
	Keep [][]string
}

// AppendTo appends the payload to b.
func (m DowngradeReq) AppendTo(b []byte) []byte {
	e := enc{b}
	e.uvarint(m.Txn)
	e.node(m.Node)
	e.uvarint(uint64(len(m.Keep)))
	for _, p := range m.Keep {
		e.strings(p)
	}
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m DowngradeReq) Encode() []byte { return m.AppendTo(nil) }

// DecodeDowngradeReq parses a TDowngrade payload.
func DecodeDowngradeReq(p []byte) (DowngradeReq, error) {
	d := dec{b: p}
	m := DowngradeReq{Txn: d.uvarint(), Node: d.node()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.Keep = append(m.Keep, d.strings())
	}
	return m, d.finish()
}

// ReleaseReq releases a single lock early, leaf-to-root (rule 5; the
// in-process equivalent is Txn.Unlock). TCommit and TAbort also use this
// shape with Node ignored — their payload is just the txn id.
type ReleaseReq struct {
	Txn  uint64
	Node NodeRef
}

// AppendTo appends the payload to b.
func (m ReleaseReq) AppendTo(b []byte) []byte {
	e := enc{b}
	e.uvarint(m.Txn)
	e.node(m.Node)
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m ReleaseReq) Encode() []byte { return m.AppendTo(nil) }

// DecodeReleaseReq parses a TRelease payload.
func DecodeReleaseReq(p []byte) (ReleaseReq, error) {
	d := dec{b: p}
	m := ReleaseReq{Txn: d.uvarint(), Node: d.node()}
	return m, d.finish()
}

// TxnReq is the payload of TCommit and TAbort: just the transaction.
type TxnReq struct {
	Txn uint64
}

// AppendTo appends the payload to b.
func (m TxnReq) AppendTo(b []byte) []byte {
	e := enc{b}
	e.uvarint(m.Txn)
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m TxnReq) Encode() []byte { return m.AppendTo(nil) }

// DecodeTxnReq parses a TCommit/TAbort payload.
func DecodeTxnReq(p []byte) (TxnReq, error) {
	d := dec{b: p}
	m := TxnReq{Txn: d.uvarint()}
	return m, d.finish()
}

// TxnReply answers TBegin with the server-assigned transaction id (the
// lock manager's TxnID, so wait-die age ordering is server-global across
// every connected client).
type TxnReply struct {
	Txn uint64
}

// AppendTo appends the payload to b.
func (m TxnReply) AppendTo(b []byte) []byte {
	e := enc{b}
	e.uvarint(m.Txn)
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m TxnReply) Encode() []byte { return m.AppendTo(nil) }

// DecodeTxnReply parses a TTxn payload.
func DecodeTxnReply(p []byte) (TxnReply, error) {
	d := dec{b: p}
	m := TxnReply{Txn: d.uvarint()}
	return m, d.finish()
}

// Pong answers TPing, restating the lease interval the session must beat
// (clients size their keepalive cadence from it).
type Pong struct {
	Lease time.Duration
}

// AppendTo appends the payload to b.
func (m Pong) AppendTo(b []byte) []byte {
	e := enc{b}
	e.uvarint(uint64(m.Lease))
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m Pong) Encode() []byte { return m.AppendTo(nil) }

// DecodePong parses a TPong payload.
func DecodePong(p []byte) (Pong, error) {
	d := dec{b: p}
	m := Pong{Lease: time.Duration(d.uvarint())}
	return m, d.finish()
}
