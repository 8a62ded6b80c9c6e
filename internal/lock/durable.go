package lock

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Durable ("long") locks. The paper (§3.1): "Complex objects which are
// checked-out by a user on a workstation get a long lock. In contrast to
// traditional short locks, long locks must survive system shutdowns and
// system crashes."
//
// A Snapshot captures every durable lock; Restore reinstalls them into a
// fresh manager after a simulated crash. Non-durable locks belong to short
// transactions and die with the system, exactly as a conventional lock
// table would.

// DurableLock is one persisted long lock.
type DurableLock struct {
	Txn      TxnID
	Resource Resource
	Mode     Mode
}

// Snapshot returns all durable locks, sorted by (Txn, Resource) for
// deterministic encoding. The shards are visited one at a time (latch
// ordering rule 3), so the snapshot is per-shard consistent; durable locks
// belong to long check-out transactions whose grants are stable, which is
// what makes the stitched view coherent in practice.
func (m *Manager) Snapshot() []DurableLock {
	var out []DurableLock
	for _, s := range m.shards {
		s.mu.Lock()
		for i, e := range s.res {
			if e == nil {
				continue
			}
			r := m.Name(s.id(i))
			e.forEachHolder(func(t TxnID, h *heldLock) bool {
				if h.durable {
					out = append(out, DurableLock{Txn: t, Resource: r, Mode: h.mode})
				}
				return true
			})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Txn != out[j].Txn {
			return out[i].Txn < out[j].Txn
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

// EncodeSnapshot serializes a snapshot (e.g. to survive a simulated crash in
// package sim).
func EncodeSnapshot(locks []DurableLock) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(locks); err != nil {
		return nil, fmt.Errorf("lock: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot is the inverse of EncodeSnapshot.
func DecodeSnapshot(data []byte) ([]DurableLock, error) {
	var locks []DurableLock
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&locks); err != nil {
		return nil, fmt.Errorf("lock: decode snapshot: %w", err)
	}
	return locks, nil
}

// Restore reinstalls durable locks into the manager. It must be called on a
// quiescent (typically fresh) manager; an incompatibility among the restored
// locks — which cannot occur for a snapshot taken from a consistent table —
// is reported as an error.
func (m *Manager) Restore(locks []DurableLock) error {
	for _, dl := range locks {
		tr := m.newTracer()
		id := m.Intern(dl.Resource)
		s := m.shardFor(id)
		s.mu.Lock()
		e := s.entryFor(id)
		own := e.holderMode(dl.Txn)
		if !e.compatGranted(own, dl.Mode) {
			s.maybeDropEntry(id, e)
			s.mu.Unlock()
			tr.finish()
			return fmt.Errorf("lock: restore conflict on %q for txn %d (%v)", dl.Resource, dl.Txn, dl.Mode)
		}
		if h := e.holder(dl.Txn); h != nil {
			e.setMode(h, Sup(h.mode, dl.Mode))
			h.durable = true
			m.txnShardFor(dl.Txn).record(dl.Txn, id, h, false)
			s.mu.Unlock()
			tr.finish()
			continue
		}
		m.grantLocked(tr, s, e, dl.Txn, id, dl.Mode, true, false, nil)
		s.mu.Unlock()
		tr.finish()
	}
	return nil
}
