// Package lock implements a multi-granularity lock manager in the style of
// System R (Gray, Lorie, Putzolu, Traiger: "Granularity of Locks and Degrees
// of Consistency in a Shared Data Base", 1976).
//
// It provides the five classic lock modes (IS, IX, S, SIX, X) with their
// compatibility matrix and supremum lattice, a sharded lock table (striped
// by dense resource id, one latch per shard — see shard.go for the ordering
// discipline) with FIFO wait queues and in-place lock conversion, cross-
// shard waits-for deadlock detection with youngest-victim abort, a
// context-aware AcquireCtx entry point with cancellation, and durable
// ("long") locks that survive a simulated system shutdown — the substrate
// required by the complex-object lock protocol of Herrmann et al.
// (EDBT 1990) implemented in package core.
package lock

import "fmt"

// Mode is a transaction-oriented lock mode.
//
// The numeric order of the constants is NOT the restrictiveness order; use
// Covers and Sup for lattice queries. The lattice is
//
//	None < IS < IX < SIX < X
//	       IS < S  < SIX
//
// with IX and S incomparable (their supremum is SIX).
type Mode uint8

const (
	// None is the absence of a lock. It is compatible with everything and
	// covered by every mode.
	None Mode = iota
	// IS (intention share) announces the intent to request S locks on
	// descendant nodes.
	IS
	// IX (intention exclusive) announces the intent to request X or S locks
	// on descendant nodes.
	IX
	// S (share) gives shared read access to the node and, implicitly, to its
	// descendants.
	S
	// SIX (share + intention exclusive) gives shared access to the whole
	// subtree plus the right to X-lock descendants. The EDBT-1990 protocol
	// itself only issues IS/IX/S/X; SIX is provided for lattice completeness
	// and for the System R baseline.
	SIX
	// X (exclusive) gives exclusive access to the node and its descendants.
	X

	numModes = 6
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case None:
		return "-"
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case X:
		return "X"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m < numModes }

// compat[a][b] == true iff a lock in mode a held by one transaction is
// compatible with a lock in mode b held by another transaction.
var compat = [numModes][numModes]bool{
	None: {None: true, IS: true, IX: true, S: true, SIX: true, X: true},
	IS:   {None: true, IS: true, IX: true, S: true, SIX: true, X: false},
	IX:   {None: true, IS: true, IX: true, S: false, SIX: false, X: false},
	S:    {None: true, IS: true, IX: false, S: true, SIX: false, X: false},
	SIX:  {None: true, IS: true, IX: false, S: false, SIX: false, X: false},
	X:    {None: true, IS: false, IX: false, S: false, SIX: false, X: false},
}

// Compatible reports whether a lock in mode m held by one transaction can
// coexist with a lock in mode o held by a different transaction on the same
// resource.
func (m Mode) Compatible(o Mode) bool { return compat[m][o] }

// covers[a][b] == true iff mode a is at least as restrictive as mode b,
// i.e. a is above b (or equal) in the lattice. A transaction holding a needs
// no further action to obtain b.
var covers = [numModes][numModes]bool{
	None: {None: true},
	IS:   {None: true, IS: true},
	IX:   {None: true, IS: true, IX: true},
	S:    {None: true, IS: true, S: true},
	SIX:  {None: true, IS: true, IX: true, S: true, SIX: true},
	X:    {None: true, IS: true, IX: true, S: true, SIX: true, X: true},
}

// Covers reports whether m is at least as restrictive as o: a transaction
// holding m implicitly holds o.
func (m Mode) Covers(o Mode) bool { return covers[m][o] }

// Sup returns the least upper bound (supremum) of a and b in the lock-mode
// lattice: the weakest single mode that covers both. It is the mode a lock
// is converted to when a holder of a requests b.
func Sup(a, b Mode) Mode {
	switch {
	case a.Covers(b):
		return a
	case b.Covers(a):
		return b
	default:
		// The only incomparable pairs are {IX,S} (and the pairs involving
		// them transitively, which Covers already resolved). Their join is
		// SIX.
		return SIX
	}
}

// IsIntention reports whether m is a pure intention mode (IS or IX).
func (m Mode) IsIntention() bool { return m == IS || m == IX }

// IntentionFor returns the intention mode a parent node must carry before a
// child may be locked in mode m, per the System R protocol: IS for IS/S,
// IX for IX/SIX/X, None for None.
func (m Mode) IntentionFor() Mode {
	switch m {
	case None:
		return None
	case IS, S:
		return IS
	default:
		return IX
	}
}

// Stronger reports whether m is strictly more restrictive than o.
func (m Mode) Stronger(o Mode) bool { return m != o && m.Covers(o) }
