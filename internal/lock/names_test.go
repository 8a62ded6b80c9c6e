package lock

import (
	"reflect"
	"testing"
)

// The manager answers by id only. These are the name-taking reads and
// writes the tests use: Intern plus the id method.

func heldMode(m *Manager, txn TxnID, r Resource) Mode { return m.HeldModeID(txn, m.Intern(r)) }

func heldCovers(m *Manager, txn TxnID, r Resource, mode Mode, durable bool) bool {
	return m.HeldCoversID(txn, m.Intern(r), mode, durable)
}

func downgrade(m *Manager, txn TxnID, r Resource, mode Mode) error {
	return m.DowngradeID(txn, m.Intern(r), mode)
}

func release(m *Manager, txn TxnID, r Resource) { m.ReleaseID(txn, m.Intern(r)) }

// holders returns the transactions holding r and their modes, read from
// the queue snapshot.
func holders(m *Manager, r Resource) map[TxnID]Mode {
	out := make(map[TxnID]Mode)
	for _, q := range m.SnapshotQueues() {
		if q.Resource == r {
			for _, g := range q.Granted {
				out[g.Txn] = g.Mode
			}
		}
	}
	return out
}

// TestManagerNameSurface pins the exported Manager methods that take a
// resource by name: every other query and grant goes by id. A new
// name-taking method fails here until it is listed with its reason.
func TestManagerNameSurface(t *testing.T) {
	allowed := map[string]string{
		"Intern":       "the boundary between names and ids",
		"AcquireCtx":   "the benchmark's lock cut replays names through it",
		"AcquireBatch": "the benchmark's lock cut replays names through it",
		"ShardOf":      "the benchmark passes it to the span recorder",
	}
	named := map[reflect.Type]bool{
		reflect.TypeOf(Resource("")): true,
		reflect.TypeOf([]BatchReq{}): true,
	}
	typ := reflect.TypeOf(&Manager{})
	seen := map[string]bool{}
	for i := 0; i < typ.NumMethod(); i++ {
		meth := typ.Method(i)
		for j := 1; j < meth.Type.NumIn(); j++ {
			if !named[meth.Type.In(j)] {
				continue
			}
			seen[meth.Name] = true
			if _, ok := allowed[meth.Name]; !ok {
				t.Errorf("Manager.%s takes a %v: use Intern and an id method instead", meth.Name, meth.Type.In(j))
			}
		}
	}
	for name := range allowed {
		if !seen[name] {
			t.Errorf("Manager.%s is allowed to take a name but no longer does: drop it from the list", name)
		}
	}
}
