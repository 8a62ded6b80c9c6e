// Package workload generates deterministic synthetic databases and
// transaction scripts in the shape of the paper's engineering scenarios:
// manufacturing cells with robots that share a library of effectors, and
// deeper assembly→part→bolt chains for the depth sweeps. All generators are
// seeded and reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"colock/internal/schema"
	"colock/internal/store"
)

// Config parameterizes the cells/effectors-shaped database. The relation
// and attribute names match the paper schema so that queries written for
// Figure 1 run against generated databases unchanged.
type Config struct {
	Seed int64
	// Cells is the number of complex objects in the "cells" relation.
	Cells int
	// CObjectsPerCell is the fan-out of the c_objects set.
	CObjectsPerCell int
	// RobotsPerCell is the fan-out of the robots list.
	RobotsPerCell int
	// EffectorsPerRobot is the number of effector references per robot.
	EffectorsPerRobot int
	// Effectors is the size of the shared effectors library. The expected
	// sharing degree (referencing robots per effector) is
	// Cells·RobotsPerCell·EffectorsPerRobot / Effectors.
	Effectors int
	// DisjointOnly omits all effector references: every complex object is
	// disjoint (the E8 overhead scenario). The effectors library is still
	// created but never referenced.
	DisjointOnly bool
}

func (c Config) withDefaults() Config {
	if c.Cells <= 0 {
		c.Cells = 10
	}
	if c.CObjectsPerCell <= 0 {
		c.CObjectsPerCell = 10
	}
	if c.RobotsPerCell <= 0 {
		c.RobotsPerCell = 4
	}
	if c.EffectorsPerRobot <= 0 {
		c.EffectorsPerRobot = 2
	}
	if c.Effectors <= 0 {
		c.Effectors = 8
	}
	return c
}

// Generate builds a database per the config. It panics only on internal
// inconsistencies; all generated data is schema-valid by construction.
func Generate(cfg Config) *store.Store {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := store.New(schema.PaperSchema())

	for e := 0; e < cfg.Effectors; e++ {
		id := fmt.Sprintf("e%d", e)
		obj := store.NewTuple().
			Set("eff_id", store.Str(id)).
			Set("tool", store.Str(fmt.Sprintf("t%d", e)))
		mustInsert(st, "effectors", id, obj)
	}

	for c := 0; c < cfg.Cells; c++ {
		cid := fmt.Sprintf("c%d", c)
		objs := store.NewSet()
		for o := 0; o < cfg.CObjectsPerCell; o++ {
			oid := fmt.Sprintf("o%d", o)
			objs.Add(oid, store.NewTuple().
				Set("obj_id", store.Int(int64(o))).
				Set("obj_name", store.Str(fmt.Sprintf("on%d_%d", c, o))))
		}
		robots := store.NewList()
		for r := 0; r < cfg.RobotsPerCell; r++ {
			rid := fmt.Sprintf("r%d", r)
			effs := store.NewSet()
			for !cfg.DisjointOnly && effs.Len() < cfg.EffectorsPerRobot && effs.Len() < cfg.Effectors {
				eid := fmt.Sprintf("e%d", rng.Intn(cfg.Effectors))
				effs.Add(eid, store.Ref{Relation: "effectors", Key: eid})
			}
			robots.Append(rid, store.NewTuple().
				Set("robot_id", store.Str(rid)).
				Set("trajectory", store.Str(fmt.Sprintf("tr%d_%d", c, r))).
				Set("effectors", effs))
		}
		cell := store.NewTuple().
			Set("cell_id", store.Str(cid)).
			Set("c_objects", objs).
			Set("robots", robots)
		mustInsert(st, "cells", cid, cell)
	}
	if err := st.CheckIntegrity(); err != nil {
		panic(fmt.Sprintf("workload: generated database inconsistent: %v", err))
	}
	return st
}

func mustInsert(st *store.Store, rel, key string, obj *store.Tuple) {
	if err := st.Insert(rel, key, obj); err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
}

// ChainConfig parameterizes a depth-sweep database: a chain of relations
// level0 → level1 → … → level(depth-1), each object of level i referencing
// Fanout objects of level i+1 ("common data may again contain common data").
type ChainConfig struct {
	Seed int64
	// Depth is the number of relations in the chain (≥ 1).
	Depth int
	// PerLevel is the number of complex objects per relation.
	PerLevel int
	// Fanout is the number of references per object to the next level.
	Fanout int
}

func (c ChainConfig) withDefaults() ChainConfig {
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.PerLevel <= 0 {
		c.PerLevel = 10
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	return c
}

// LevelRelation names the relation of chain level i.
func LevelRelation(i int) string { return fmt.Sprintf("level%d", i) }

// GenerateChain builds the chained-sharing database.
func GenerateChain(cfg ChainConfig) *store.Store {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	cat := schema.NewCatalog("db")
	// Register bottom-up so references validate naturally.
	for i := cfg.Depth - 1; i >= 0; i-- {
		fields := []schema.Field{
			schema.F("node_id", schema.Str()),
			schema.F("payload", schema.Str()),
		}
		if i < cfg.Depth-1 {
			fields = append(fields, schema.F("subs", schema.Set(schema.Ref(LevelRelation(i+1)))))
		}
		if err := cat.AddRelation(&schema.Relation{
			Name:    LevelRelation(i),
			Segment: fmt.Sprintf("seg%d", i),
			Key:     "node_id",
			Type:    schema.Tuple(fields...),
		}); err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
	}
	if err := cat.Validate(); err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}

	st := store.New(cat)
	for i := cfg.Depth - 1; i >= 0; i-- {
		rel := LevelRelation(i)
		for k := 0; k < cfg.PerLevel; k++ {
			id := fmt.Sprintf("n%d_%d", i, k)
			obj := store.NewTuple().
				Set("node_id", store.Str(id)).
				Set("payload", store.Str(fmt.Sprintf("p%d_%d", i, k)))
			if i < cfg.Depth-1 {
				subs := store.NewSet()
				for subs.Len() < cfg.Fanout && subs.Len() < cfg.PerLevel {
					sid := fmt.Sprintf("n%d_%d", i+1, rng.Intn(cfg.PerLevel))
					subs.Add(sid, store.Ref{Relation: LevelRelation(i + 1), Key: sid})
				}
				obj.Set("subs", subs)
			}
			mustInsert(st, rel, id, obj)
		}
	}
	if err := st.CheckIntegrity(); err != nil {
		panic(fmt.Sprintf("workload: chain database inconsistent: %v", err))
	}
	return st
}

// Op is one data access of a transaction script.
type Op struct {
	// Write selects X (update) vs S (read) access.
	Write bool
	// Path is the accessed node.
	Path store.Path
}

// MixConfig parameterizes a transaction-script mix over a generated
// cells/effectors database.
type MixConfig struct {
	Seed int64
	// Txns is the number of transaction scripts.
	Txns int
	// OpsPerTxn is the number of accesses per transaction.
	OpsPerTxn int
	// WriteFraction is the probability that an access is an update.
	WriteFraction float64
	// SharedFraction is the probability that an access targets the shared
	// effectors library directly instead of a part of a cell.
	SharedFraction float64
}

func (c MixConfig) withDefaults() MixConfig {
	if c.Txns <= 0 {
		c.Txns = 16
	}
	if c.OpsPerTxn <= 0 {
		c.OpsPerTxn = 4
	}
	return c
}

// Scripts derives deterministic transaction scripts for a database built
// with the given Config.
func Scripts(dbCfg Config, mix MixConfig) [][]Op {
	dbCfg = dbCfg.withDefaults()
	mix = mix.withDefaults()
	rng := rand.New(rand.NewSource(mix.Seed))
	scripts := make([][]Op, mix.Txns)
	for t := range scripts {
		ops := make([]Op, mix.OpsPerTxn)
		for o := range ops {
			write := rng.Float64() < mix.WriteFraction
			if rng.Float64() < mix.SharedFraction {
				ops[o] = Op{Write: write, Path: store.P("effectors", fmt.Sprintf("e%d", rng.Intn(dbCfg.Effectors)))}
				continue
			}
			cell := fmt.Sprintf("c%d", rng.Intn(dbCfg.Cells))
			if rng.Intn(2) == 0 {
				ops[o] = Op{Write: write, Path: store.P(
					"cells", cell, "c_objects", fmt.Sprintf("o%d", rng.Intn(dbCfg.CObjectsPerCell)))}
			} else {
				ops[o] = Op{Write: write, Path: store.P(
					"cells", cell, "robots", fmt.Sprintf("r%d", rng.Intn(dbCfg.RobotsPerCell)))}
			}
		}
		scripts[t] = ops
	}
	return scripts
}
