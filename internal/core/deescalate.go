package core

import (
	"context"
	"fmt"

	"colock/internal/lock"
	"colock/internal/store"
)

// Lock de-escalation — "the efficient release of locks ('de-escalation')" is
// named in the paper's §5 as future work; this file implements it. A
// transaction holding a coarse S/X lock (typically from an anticipated
// escalation that turned out too pessimistic) trades it for fine locks on
// the parts it still needs, releasing the rest of the subtree for other
// transactions.
//
// The exchange is safe because the fine locks are acquired while the coarse
// lock is still held (no window), and it never blocks: every fine lock is
// already implicitly covered by the coarse one, so the requests are granted
// immediately.

// DeEscalate replaces txn's coarse lock on node n with locks of the same
// mode on the given descendant data paths (plus the necessary intention
// locks), then releases the coarse lock. Requirements:
//
//   - txn must hold S or X explicitly on n;
//   - every keep path must lie strictly below n in the hierarchy.
//
// The kept locks inherit the coarse lock's durability. After the call,
// siblings of the kept paths are available to other transactions. Early
// release of a coarse lock weakens two-phase locking — like rule 5's
// leaf-to-root early release, it is only safe if the transaction no longer
// depends on the released data.
func (p *Protocol) DeEscalate(txn lock.TxnID, n Node, keep []store.Path) error {
	e, err := p.nm.resolve(n)
	if err != nil {
		return err
	}
	held := p.mgr.HeldModeID(txn, e.id)
	if held != lock.S && held != lock.X {
		return fmt.Errorf("core: de-escalation needs an explicit S or X on %v, held %v", n, held)
	}

	// Validate the keep paths strictly descend from n.
	var prefix store.Path
	switch n.Level {
	case LevelRelation, LevelData:
		prefix = n.Path
	default:
		return fmt.Errorf("core: de-escalation of %v not supported (lock a relation or data node)", n)
	}
	for _, k := range keep {
		if len(k) <= len(prefix) || !k.HasPrefix(prefix) {
			return fmt.Errorf("core: keep path %q is not below %v", k, n)
		}
	}

	// Acquire the fine locks, as durable as the coarse lock, while it still
	// covers them (intention chains and downward propagation included).
	durable := p.mgr.HeldCoversID(txn, e.id, held, true)
	for _, k := range keep {
		if err := p.LockWith(context.TODO(), txn, DataNode(k), held, durable, false, 0); err != nil {
			return err
		}
	}

	// Trade: atomically downgrade the coarse lock to the intention mode the
	// kept descendants require. The ancestors already hold at least that
	// intention strength, so the hierarchy invariant is preserved with no
	// unprotected window.
	return p.mgr.DowngradeID(txn, e.id, held.IntentionFor())
}

// Unlock releases txn's explicit lock on a single node before end of
// transaction — rule 5's early "leaf-to-root order" release. It refuses to
// release a node while the transaction still holds explicit locks on
// descendants (that would break the intention-chain invariant).
func (p *Protocol) Unlock(txn lock.TxnID, n Node) error {
	e, err := p.nm.resolve(n)
	if err != nil {
		return err
	}
	if p.mgr.HeldModeID(txn, e.id) == lock.None {
		return nil
	}
	prefix := string(e.res) + "/"
	for _, h := range p.mgr.HeldLocks(txn) {
		if len(h.Resource) > len(prefix) && string(h.Resource[:len(prefix)]) == prefix {
			return fmt.Errorf("core: cannot release %v before descendant %s (leaf-to-root order)", n, h.Resource)
		}
	}
	p.mgr.ReleaseID(txn, e.id)
	return nil
}
