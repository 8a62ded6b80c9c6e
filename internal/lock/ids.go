package lock

import (
	"sync"
	"sync/atomic"
)

// ResID is a resource's dense id in one manager's id space: Intern hands
// ids out as 0, 1, 2, … in first-use order and never takes one back, so an
// id names the same resource for the manager's whole life. The lock path
// keys by id — the table shard is id & (shards-1), and the shard, the held
// lists and the waits-for registry index by it — and hashes no string.
// Ids of different managers are unrelated.
type ResID uint32

// idChunkBits sizes the chunks of the id → name array (1,024 names each).
const idChunkBits = 10

type nameChunk [1 << idChunkBits]Resource

// idTable is a manager's add-only id space. Intern serializes behind mu;
// Name reads a chunk directory published atomically and takes no latch. A
// name is written to its chunk before its id is published (through ids,
// under mu), so whoever holds an id can read its name.
type idTable struct {
	mu    sync.RWMutex
	ids   map[Resource]ResID
	names atomic.Pointer[[]*nameChunk]
}

// Intern returns r's id, assigning the next one on r's first use. Safe for
// concurrent use: every caller gets the same id for the same name.
func (m *Manager) Intern(r Resource) ResID {
	t := &m.ids
	t.mu.RLock()
	id, ok := t.ids[r]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[r]; ok {
		return id
	}
	n := len(t.ids)
	if uint64(n) >= 1<<32-1 {
		panic("lock: resource id space exhausted")
	}
	id = ResID(n)
	var dir []*nameChunk
	if p := t.names.Load(); p != nil {
		dir = *p
	}
	if c := int(id >> idChunkBits); c == len(dir) {
		// Copy on write: readers keep the directory they loaded.
		grown := append(dir[:len(dir):len(dir)], new(nameChunk))
		t.names.Store(&grown)
		dir = grown
	}
	dir[id>>idChunkBits][id&(1<<idChunkBits-1)] = r
	t.ids[r] = id
	return id
}

// lookup returns r's id without assigning one.
func (t *idTable) lookup(r Resource) (ResID, bool) {
	t.mu.RLock()
	id, ok := t.ids[r]
	t.mu.RUnlock()
	return id, ok
}

// Name returns the resource id stands for ("" for an id Intern has not
// handed out). It takes no latch: events, errors and introspection name
// their resources through it.
func (m *Manager) Name(id ResID) Resource {
	p := m.ids.names.Load()
	if p == nil || int(id>>idChunkBits) >= len(*p) {
		return ""
	}
	return (*p)[id>>idChunkBits][id&(1<<idChunkBits-1)]
}

// IDMap is a map keyed by ResID for small per-transaction and per-call sets:
// open addressing with linear probing over a power-of-two slot array, so a
// lookup hashes no string and a warm map allocates nothing. The zero value
// is empty. Not safe for concurrent use.
type IDMap[V any] struct {
	slots []idSlot[V]
	n     int
	shift uint8 // 32 - log2(len(slots))
}

type idSlot[V any] struct {
	key ResID // id + 1; 0 marks a free slot
	val V
}

// maxKeptSlots is the slot count past which Clear drops the array instead
// of zeroing it: clearing costs the high-water size, which one bulk
// transaction must not pass on to every later user of a pooled map.
const maxKeptSlots = 2048

// Len returns the number of ids in the map.
func (m *IDMap[V]) Len() int { return m.n }

// home is id's first probe slot (Fibonacci hashing).
func (m *IDMap[V]) home(id ResID) int { return int(uint32(id) * 0x9E3779B9 >> m.shift) }

// find returns the slot holding id, or -1.
func (m *IDMap[V]) find(id ResID) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(id); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case id + 1:
			return i
		case 0:
			return -1
		}
	}
}

// Get returns id's value and whether id is in the map.
func (m *IDMap[V]) Get(id ResID) (V, bool) {
	if i := m.find(id); i >= 0 {
		return m.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put sets id's value.
func (m *IDMap[V]) Put(id ResID, v V) {
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	i := m.home(id)
	for ; m.slots[i].key != 0; i = (i + 1) & mask {
		if m.slots[i].key == id+1 {
			m.slots[i].val = v
			return
		}
	}
	m.slots[i] = idSlot[V]{key: id + 1, val: v}
	m.n++
}

// grow doubles the slot array (16 slots at first) and reinserts.
func (m *IDMap[V]) grow() {
	old := m.slots
	size := 2 * len(old)
	if size == 0 {
		size = 16
	}
	m.slots, m.n = make([]idSlot[V], size), 0
	m.shift = 32
	for s := size; s > 1; s >>= 1 {
		m.shift--
	}
	for _, s := range old {
		if s.key != 0 {
			m.Put(s.key-1, s.val)
		}
	}
}

// delete removes id, reporting whether it was there. Later slots of the
// probe run shift back into the hole, so lookups need no tombstones.
func (m *IDMap[V]) delete(id ResID) bool {
	i := m.find(id)
	if i < 0 {
		return false
	}
	mask := len(m.slots) - 1
	for j := i; ; {
		m.slots[i] = idSlot[V]{}
		for {
			j = (j + 1) & mask
			if m.slots[j].key == 0 {
				m.n--
				return true
			}
			// The entry at j may fill the hole at i unless its home slot
			// lies cyclically in (i, j].
			h := m.home(m.slots[j].key - 1)
			if i <= j && (i < h && h <= j) || i > j && (i < h || h <= j) {
				continue
			}
			m.slots[i] = m.slots[j]
			i = j
			break
		}
	}
}

// Clear empties the map, keeping its slot array unless it has grown large.
func (m *IDMap[V]) Clear() {
	if m.n == 0 {
		return
	}
	if len(m.slots) > maxKeptSlots {
		m.slots = nil
	} else {
		clear(m.slots)
	}
	m.n = 0
}
