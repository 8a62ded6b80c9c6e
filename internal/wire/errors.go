package wire

import (
	"context"
	"errors"
	"fmt"

	"colock/internal/lock"
	"colock/internal/resilience"
)

// Cause codes carried in TErr. The table is part of the wire spec
// (DESIGN.md §16): a third-party client maps codes to its own error
// vocabulary; the Go client maps them back onto the exact lock sentinels,
// so errors.Is and resilience.Classify behave identically on both sides of
// the connection.
const (
	// CauseOther: an application-level failure; Message carries the text.
	// Not retryable.
	CauseOther byte = 0
	// CauseDeadlock: chosen as a deadlock-detection victim. Retryable.
	CauseDeadlock byte = 1
	// CauseWaitDie: killed by the wait-die prevention rule. Retryable.
	CauseWaitDie byte = 2
	// CauseTimeout: the acquire deadline expired. Retryable.
	CauseTimeout byte = 3
	// CauseWouldBlock: a no-wait request found a conflict. Retryable.
	CauseWouldBlock byte = 4
	// CauseShed: refused by the lock manager's admission control.
	// Retryable after backoff.
	CauseShed byte = 5
	// CauseCanceled: the server-side acquisition was canceled. Not
	// retryable (the canceler gave up).
	CauseCanceled byte = 6
	// CauseNotActive: the transaction already finished (committed,
	// aborted, or lease-expired and aborted by the server). Not retryable
	// on the same transaction.
	CauseNotActive byte = 7
	// CauseExpired: the session missed its lease deadline; the server
	// aborted its transactions and is closing the connection. Sent with
	// reqid 0 as an unsolicited notice. A fresh Dial starts over.
	CauseExpired byte = 8
	// CauseDraining: the server is draining toward shutdown and refuses
	// new transactions. Retryable (classified as shed).
	CauseDraining byte = 9
	// CauseBusy: the session exceeded its max-inflight request admission
	// cap. Retryable (classified as shed).
	CauseBusy byte = 10
	// CauseProtocol: the peer violated the framing or message grammar; the
	// connection is torn down. Not retryable.
	CauseProtocol byte = 11
)

// ErrSessionExpired is the client-side error for CauseExpired: every
// transaction of the session was aborted server-side and the connection is
// gone. Not retryable on this session — re-Dial to start over.
var ErrSessionExpired = errors.New("wire: session lease expired; transactions aborted by server")

// ErrDraining is the client-side error for CauseDraining. It wraps
// lock.ErrShed so resilience.Classify reports it retryable: a retrying
// client rides out a rolling restart.
var ErrDraining = fmt.Errorf("wire: server draining (%w)", lock.ErrShed)

// ErrBusy is the client-side error for CauseBusy (max-inflight admission).
// Like ErrDraining it wraps lock.ErrShed: back off and retry.
var ErrBusy = fmt.Errorf("wire: session at max-inflight admission cap (%w)", lock.ErrShed)

// ErrProtocol is the client-side error for CauseProtocol.
var ErrProtocol = errors.New("wire: protocol violation")

// ErrNotActive mirrors txn.ErrNotActive across the wire (wire cannot
// import internal/txn — the server maps the two onto each other).
var ErrNotActive = errors.New("wire: transaction not active")

// ErrPayload is the decoded TErr payload.
type ErrPayload struct {
	Cause     byte
	Retryable bool
	Txn       uint64
	Mode      lock.Mode
	Resource  string
	Message   string
	Blockers  []uint64
}

// errFlagRetryable marks the server's retryability verdict on the wire.
const errFlagRetryable byte = 1 << 0

// AppendTo appends the payload to b.
func (m ErrPayload) AppendTo(b []byte) []byte {
	e := enc{b}
	e.byte(m.Cause)
	var flags byte
	if m.Retryable {
		flags |= errFlagRetryable
	}
	e.byte(flags)
	e.uvarint(m.Txn)
	e.byte(byte(m.Mode))
	e.string(m.Resource)
	e.string(m.Message)
	e.uvarint(uint64(len(m.Blockers)))
	for _, b := range m.Blockers {
		e.uvarint(b)
	}
	return e.b
}

// Encode renders the payload into a fresh slice.
func (m ErrPayload) Encode() []byte { return m.AppendTo(nil) }

// DecodeErrPayload parses a TErr payload.
func DecodeErrPayload(p []byte) (ErrPayload, error) {
	d := dec{b: p}
	m := ErrPayload{Cause: d.byte()}
	m.Retryable = d.byte()&errFlagRetryable != 0
	m.Txn = d.uvarint()
	m.Mode = lock.Mode(d.byte())
	m.Resource = d.string()
	m.Message = d.string()
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		m.Blockers = append(m.Blockers, d.uvarint())
	}
	return m, d.finish()
}

// PayloadOf maps a server-side error to its wire representation. The
// structured *lock.LockError fields (txn, resource, mode, blockers) ride
// along when present; the cause code comes from the sentinel chain; the
// retryable flag is resilience.Classify's verdict, which the client quotes
// but a spec-only client can also use directly.
func PayloadOf(err error) ErrPayload {
	p := ErrPayload{Message: err.Error()}
	var le *lock.LockError
	if errors.As(err, &le) {
		p.Txn = uint64(le.Txn)
		p.Mode = le.Mode
		p.Resource = string(le.Resource)
		for _, b := range le.Blockers {
			p.Blockers = append(p.Blockers, uint64(b))
		}
	}
	cause, retry := resilience.Classify(err)
	p.Retryable = retry
	switch cause {
	case resilience.CauseWaitDie:
		p.Cause = CauseWaitDie
	case resilience.CauseDeadlock:
		p.Cause = CauseDeadlock
	case resilience.CauseTimeout:
		p.Cause = CauseTimeout
	case resilience.CauseShed:
		p.Cause = CauseShed
	case resilience.CauseWouldBlock:
		p.Cause = CauseWouldBlock
	case resilience.CauseCanceled:
		p.Cause = CauseCanceled
	default:
		p.Cause = CauseOther
	}
	if errors.Is(err, ErrNotActive) {
		p.Cause, p.Retryable = CauseNotActive, false
	}
	return p
}

// causeSentinel maps a wire cause code back to the sentinel the in-process
// lock manager would have produced.
func causeSentinel(c byte) error {
	switch c {
	case CauseDeadlock:
		return lock.ErrDeadlockVictim
	case CauseWaitDie:
		return lock.ErrWaitDie
	case CauseTimeout:
		return lock.ErrTimeout
	case CauseWouldBlock:
		return lock.ErrWouldBlock
	case CauseShed:
		return lock.ErrShed
	case CauseCanceled:
		return context.Canceled
	case CauseNotActive:
		return ErrNotActive
	case CauseExpired:
		return ErrSessionExpired
	case CauseDraining:
		return ErrDraining
	case CauseBusy:
		return ErrBusy
	case CauseProtocol:
		return ErrProtocol
	}
	return nil
}

// Err reconstructs the client-side error for a TErr payload. Lock-protocol
// causes come back as a *lock.LockError wrapping the exact sentinel with
// the blocker set intact, so errors.Is, resilience.Classify and
// resilience.Blockers see what an in-process caller would have seen.
// Application errors (CauseOther) come back as a plain error carrying the
// server's message.
func (m ErrPayload) Err() error {
	sentinel := causeSentinel(m.Cause)
	if sentinel == nil {
		return errors.New(m.Message)
	}
	if m.Txn == 0 && m.Resource == "" && len(m.Blockers) == 0 {
		return sentinel
	}
	le := &lock.LockError{
		Txn:      lock.TxnID(m.Txn),
		Resource: lock.Resource(m.Resource),
		Mode:     m.Mode,
		Cause:    sentinel,
	}
	for _, b := range m.Blockers {
		le.Blockers = append(le.Blockers, lock.TxnID(b))
	}
	return le
}
