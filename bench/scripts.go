package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/workload"
)

// Database shape, shared by every workload (the *_disjoint workloads set
// DisjointOnly). 2,048 cells keep set-up above a second, so work moved
// into set-up shows in setup_s.
const (
	dbCells             = 2048
	dbCObjectsPerCell   = 10
	dbRobotsPerCell     = 8
	dbEffectorsPerRobot = 2
	dbEffectors         = 64

	// ringSize is the number of pre-generated scripts per client; the
	// driver cycles through them, so the engine sees only generated paths.
	ringSize = 8192
	// librarianPerMille is the share of librarian transactions in
	// embed_shared.
	librarianPerMille = 50
)

func dbConfig(seed int64, disjoint bool) workload.Config {
	return workload.Config{
		Seed:              seed,
		Cells:             dbCells,
		CObjectsPerCell:   dbCObjectsPerCell,
		RobotsPerCell:     dbRobotsPerCell,
		EffectorsPerRobot: dbEffectorsPerRobot,
		Effectors:         dbEffectors,
		DisjointOnly:      disjoint,
	}
}

// op is one LockPath call of a script. effs lists the effectors the
// locked robot references (embed_shared only): the lock propagates
// downward onto them, and the exclusion witness watches them.
type op struct {
	path store.Path
	mode lock.Mode
	effs []uint16
}

// script is one pre-generated transaction.
type script struct {
	id  uint32
	ops []op
	// librarian scripts X-lock one effector directly; eff is its index.
	librarian bool
	eff       uint16
}

// genScripts builds client c's ring. A cell edit picks a cell of the
// client's own partition (cell index mod clients == c) and locks six
// distinct c_objects (S×5 then X) and four distinct robots (S×3 then X).
// The fixed S…X order is what pins the per-transaction manager counts: on
// disjoint data 16 grants, 22 requests, 38 fast-path hits, 10 entry scans.
func genScripts(st *store.Store, seed int64, c, clients int, shared bool, n int) ([]script, error) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
	ring := make([]script, n)
	for i := range ring {
		s := &ring[i]
		s.id = uint32(c*n + i)
		if shared && rng.Intn(1000) < librarianPerMille {
			s.librarian = true
			s.eff = uint16(rng.Intn(dbEffectors))
			s.ops = []op{{path: store.P("effectors", "e"+strconv.Itoa(int(s.eff))), mode: lock.X}}
			continue
		}
		cell := "c" + strconv.Itoa(c+clients*rng.Intn(dbCells/clients))
		s.ops = make([]op, 0, 10)
		for k, o := range rng.Perm(dbCObjectsPerCell)[:6] {
			mode := lock.S
			if k == 5 {
				mode = lock.X
			}
			s.ops = append(s.ops, op{path: store.P("cells", cell, "c_objects", "o"+strconv.Itoa(o)), mode: mode})
		}
		for k, r := range rng.Perm(dbRobotsPerCell)[:4] {
			mode := lock.S
			if k == 3 {
				mode = lock.X
			}
			o := op{path: store.P("cells", cell, "robots", "r"+strconv.Itoa(r)), mode: mode}
			if shared {
				refs, err := st.Refs(o.path)
				if err != nil {
					return nil, fmt.Errorf("refs of %v: %w", o.path, err)
				}
				for _, ref := range refs {
					e, err := strconv.Atoi(strings.TrimPrefix(ref.Target.Key, "e"))
					if err != nil {
						return nil, fmt.Errorf("effector key %q: %w", ref.Target.Key, err)
					}
					o.effs = append(o.effs, uint16(e))
				}
			}
			s.ops = append(s.ops, o)
		}
	}
	return ring, nil
}
