package main

// Pure analysis: a timestamp-ordered []journal.Record in, a Report out.
// Kept free of I/O and flag state so every analysis is unit-testable; main
// only loads journals and renders.
//
// The analyses reconstruct what the live observability layers could only
// sample or approximate:
//
//   - waits-for evolution: every "wait" event carries the blockers computed
//     under the shard latch at enqueue time, so replaying the stream rebuilds
//     the waits-for graph edge by edge. Cycles that appear and are broken by
//     anything OTHER than the deadlock detector's victim abort are
//     "near misses" — deadlocks that existed transiently but were dissolved
//     by timeout, wait-die death, cancellation or an unrelated release
//     before detection could prove them.
//   - convoys: per-resource queue-depth timelines; a run of ≥N simultaneous
//     waiters on one resource is a convoy, reported with its depth peak and
//     timeline — the post-hoc proof of what the live top-K sketch only ranks.
//   - blocking critical paths: per transaction, the ordered chain of blocked
//     acquisitions with durations and blocker attribution.
//   - historical SLO: the stream replayed through a fresh health.Monitor,
//     grading the past with the same burn-rate machine that grades the
//     present.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"colock/internal/health"
	"colock/internal/journal"
	"colock/internal/lock"
	"colock/internal/obs"
)

// Config holds the analysis knobs.
type Config struct {
	// ConvoyDepth is the minimum simultaneous-waiter count that counts as a
	// convoy (default 3).
	ConvoyDepth int
	// Window is the SLO replay bucket width (default 1s).
	Window time.Duration
	// SLO grades the replayed windows (zero value: health.DefaultSLO, what
	// the daemons grade against live).
	SLO health.SLO
	// Top bounds the hot-resource, convoy and critical-path lists.
	Top int
}

func (c Config) withDefaults() Config {
	if c.ConvoyDepth <= 0 {
		c.ConvoyDepth = 3
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if !c.sloSet() {
		c.SLO = health.DefaultSLO
	}
	if c.Top <= 0 {
		c.Top = 10
	}
	return c
}

func (c Config) sloSet() bool {
	return c.SLO.MaxAbortRate > 0 || c.SLO.MaxWaitP99 > 0 || c.SLO.MaxWaiterDepth > 0
}

// Report is the machine-readable analysis result (-json).
type Report struct {
	Journal   string         `json:"journal"`
	Records   int            `json:"records"`
	Torn      bool           `json:"torn"`
	From      time.Time      `json:"from"`
	To        time.Time      `json:"to"`
	SpanMs    float64        `json:"span_ms"`
	Kinds     map[string]int `json:"kinds"`
	Txns      int            `json:"txns"`
	AbortRate float64        `json:"abort_rate"`

	WaitCount uint64  `json:"wait_count"`
	WaitP50Ms float64 `json:"wait_p50_ms"`
	WaitP95Ms float64 `json:"wait_p95_ms"`
	WaitP99Ms float64 `json:"wait_p99_ms"`
	WaitMaxMs float64 `json:"wait_max_ms"`

	Hot           []HotResource `json:"hot"`
	Convoys       []Convoy      `json:"convoys"`
	Cycles        []Cycle       `json:"cycles"`
	NearMisses    int           `json:"near_misses"`
	CriticalPaths []TxnPath     `json:"critical_paths"`
	OpenWaits     []OpenWait    `json:"open_waits,omitempty"`
	SLO           SLOReplay     `json:"slo"`
}

// HotResource is one contended resource ranked by blocked events.
type HotResource struct {
	Resource  string  `json:"resource"`
	Mode      string  `json:"mode"`
	Blocks    int     `json:"blocks"`
	BlockedMs float64 `json:"blocked_ms"`
}

// DepthPoint is one step of a convoy's queue-depth timeline.
type DepthPoint struct {
	AtMs  float64 `json:"at_ms"` // offset from convoy start
	Depth int     `json:"depth"`
}

// Convoy is one run of ≥ConvoyDepth simultaneous waiters on a resource.
type Convoy struct {
	Resource  string       `json:"resource"`
	PeakDepth int          `json:"peak_depth"`
	Waiters   int          `json:"waiters"` // wait events inside the convoy
	Start     time.Time    `json:"start"`
	DurMs     float64      `json:"dur_ms"`
	Timeline  []DepthPoint `json:"timeline,omitempty"`
}

// Cycle is one waits-for cycle observed during replay.
type Cycle struct {
	Txns      []uint64  `json:"txns"` // cycle members, ascending
	FormedAt  time.Time `json:"formed_at"`
	BrokenAt  time.Time `json:"broken_at,omitempty"`
	LastedMs  float64   `json:"lasted_ms"`
	BrokenBy  string    `json:"broken_by"` // victim-detect, victim-waitdie, timeout, cancel, grant, unresolved
	BrokenTxn uint64    `json:"broken_txn,omitempty"`
	// NearMiss marks cycles dissolved by anything but the deadlock
	// detector: they existed, and only timeout/wait-die/cancel luck — not
	// detection — broke them.
	NearMiss bool `json:"near_miss"`
}

// PathStep is one blocked acquisition on a transaction's critical path.
type PathStep struct {
	Resource string   `json:"resource"`
	Mode     string   `json:"mode"`
	WaitMs   float64  `json:"wait_ms"`
	Outcome  string   `json:"outcome"` // grant, victim-detect, victim-waitdie, timeout, cancel, open
	Blockers []uint64 `json:"blockers,omitempty"`
}

// TxnPath is a transaction's blocking critical path.
type TxnPath struct {
	Txn       uint64     `json:"txn"`
	BlockedMs float64    `json:"blocked_ms"`
	Steps     []PathStep `json:"steps"`
}

// OpenWait is a wait still unresolved when the stream ends — the waits-for
// graph's final state (for -around: the graph right before the incident).
type OpenWait struct {
	Txn      uint64   `json:"txn"`
	Resource string   `json:"resource"`
	Mode     string   `json:"mode"`
	SinceMs  float64  `json:"since_ms"` // blocked for this long at stream end
	Blockers []uint64 `json:"blockers,omitempty"`
}

// SLOReplay is the historical SLO grading.
type SLOReplay struct {
	FinalState  string   `json:"final_state"`
	WorstState  string   `json:"worst_state"`
	Windows     int      `json:"windows"`
	Transitions []string `json:"transitions,omitempty"`
}

// waitInfo is one in-flight blocked request during replay.
type waitInfo struct {
	resource lock.Resource
	mode     lock.Mode
	blockers []lock.TxnID
	since    time.Time
}

// convoyTrack is the per-resource convoy state machine.
type convoyTrack struct {
	open     bool
	start    time.Time
	peak     int
	waiters  int
	timeline []DepthPoint
}

// analyzer carries the replay state.
type analyzer struct {
	cfg     Config
	report  *Report
	waiting map[lock.TxnID]*waitInfo // its blockers are the waits-for edges
	finder  lock.CycleFinder
	depth   map[lock.Resource]int
	convoys map[lock.Resource]*convoyTrack
	cycles  map[string]*Cycle // open cycles by member key
	hot     map[string]*HotResource
	paths   map[lock.TxnID]*TxnPath
	txns    map[lock.TxnID]bool
	wait    obs.Histogram
	grants  uint64
	aborts  uint64
	lastAt  time.Time
}

// analyze runs every analysis over the ordered record stream.
func analyze(name string, recs []journal.Record, torn bool, cfg Config) *Report {
	cfg = cfg.withDefaults()
	a := &analyzer{
		cfg: cfg,
		report: &Report{
			Journal: name,
			Records: len(recs),
			Torn:    torn,
			Kinds:   make(map[string]int),
		},
		waiting: make(map[lock.TxnID]*waitInfo),
		depth:   make(map[lock.Resource]int),
		convoys: make(map[lock.Resource]*convoyTrack),
		cycles:  make(map[string]*Cycle),
		hot:     make(map[string]*HotResource),
		paths:   make(map[lock.TxnID]*TxnPath),
		txns:    make(map[lock.TxnID]bool),
	}
	for i := range recs {
		a.step(recs[i])
	}
	a.finish(recs, cfg)
	return a.report
}

// step consumes one record.
func (a *analyzer) step(rec journal.Record) {
	r := a.report
	if rec.Kind == journal.KindFastPath {
		// One record stands for Hits fast-path hits (a journal with one
		// record per hit has Hits 0).
		r.Kinds[rec.Kind] += int(max(rec.Hits, 1))
	} else {
		r.Kinds[rec.Kind]++
	}
	if !rec.At.IsZero() {
		if r.From.IsZero() {
			r.From = rec.At
		}
		if rec.At.After(a.lastAt) {
			a.lastAt = rec.At
		}
	}
	if rec.Txn != 0 {
		a.txns[rec.Txn] = true
	}
	switch rec.KindCode() {
	case lock.KindGrant, lock.KindConvert:
		a.grants++
		if rec.Waited && rec.Dur > 0 {
			a.wait.Record(rec.Dur)
		}
		a.endWait(rec, "grant")
	case lock.KindWait:
		a.beginWait(rec)
	case lock.KindVictim:
		a.aborts++
		if rec.Dur > 0 {
			a.wait.Record(rec.Dur)
		}
		outcome := "victim-detect"
		if rec.WaitDie {
			outcome = "victim-waitdie"
		}
		a.touchHot(rec)
		a.endWait(rec, outcome)
	case lock.KindTimeout:
		a.aborts++
		if rec.Dur > 0 {
			a.wait.Record(rec.Dur)
		}
		a.touchHot(rec)
		a.endWait(rec, "timeout")
	case lock.KindCancel:
		a.endWait(rec, "cancel")
	case lock.KindShed:
		a.touchHot(rec)
	}
}

// hotKey joins resource and mode for the contention map.
func hotKey(res lock.Resource, mode lock.Mode) string {
	return string(res) + "\x00" + mode.String()
}

// touchHot counts one contention event against the resource.
func (a *analyzer) touchHot(rec journal.Record) {
	k := hotKey(rec.Resource, rec.Mode)
	h := a.hot[k]
	if h == nil {
		h = &HotResource{Resource: string(rec.Resource), Mode: rec.Mode.String()}
		a.hot[k] = h
	}
	h.Blocks++
}

// beginWait opens a blocked request: queue depth, convoy tracking, waits-for
// edges, cycle detection.
func (a *analyzer) beginWait(rec journal.Record) {
	a.touchHot(rec)
	a.waiting[rec.Txn] = &waitInfo{resource: rec.Resource, mode: rec.Mode, blockers: rec.Blockers, since: rec.At}
	d := a.depth[rec.Resource] + 1
	a.depth[rec.Resource] = d

	ct := a.convoys[rec.Resource]
	if ct == nil {
		ct = &convoyTrack{}
		a.convoys[rec.Resource] = ct
	}
	if d >= a.cfg.ConvoyDepth {
		if !ct.open {
			ct.open = true
			ct.start = rec.At
			ct.peak = d
			ct.waiters = d
			ct.timeline = append(ct.timeline[:0], DepthPoint{AtMs: 0, Depth: d})
		} else {
			if d > ct.peak {
				ct.peak = d
			}
			ct.waiters++
			ct.point(rec.At, d)
		}
	}

	if len(rec.Blockers) > 0 {
		a.detectCycle(rec.Txn, rec.At)
	}
}

// point appends a depth sample to an open convoy's timeline (capped).
func (ct *convoyTrack) point(at time.Time, depth int) {
	if len(ct.timeline) >= 64 || at.IsZero() || ct.start.IsZero() {
		return
	}
	ct.timeline = append(ct.timeline, DepthPoint{AtMs: ms(at.Sub(ct.start)), Depth: depth})
}

// endWait closes txn's blocked request with the given outcome, if one is
// open: releases the queue slot, extends the critical path, attributes
// blocked time, and dissolves cycles the transaction was part of.
func (a *analyzer) endWait(rec journal.Record, outcome string) {
	ws, ok := a.waiting[rec.Txn]
	if !ok {
		return
	}
	delete(a.waiting, rec.Txn)

	d := a.depth[ws.resource] - 1
	if d <= 0 {
		delete(a.depth, ws.resource)
		d = 0
	} else {
		a.depth[ws.resource] = d
	}
	if ct := a.convoys[ws.resource]; ct != nil && ct.open {
		ct.point(rec.At, d)
		if d < a.cfg.ConvoyDepth {
			a.closeConvoy(ws.resource, ct, rec.At)
		}
	}

	dur := rec.Dur
	if dur <= 0 && !rec.At.IsZero() && !ws.since.IsZero() {
		dur = rec.At.Sub(ws.since)
	}
	if dur < 0 {
		dur = 0
	}
	if h := a.hot[hotKey(ws.resource, ws.mode)]; h != nil {
		h.BlockedMs += ms(dur)
	}
	p := a.paths[rec.Txn]
	if p == nil {
		p = &TxnPath{Txn: uint64(rec.Txn)}
		a.paths[rec.Txn] = p
	}
	p.BlockedMs += ms(dur)
	p.Steps = append(p.Steps, PathStep{
		Resource: string(ws.resource),
		Mode:     ws.mode.String(),
		WaitMs:   ms(dur),
		Outcome:  outcome,
		Blockers: txnIDs(ws.blockers),
	})

	for key, c := range a.cycles {
		if c.BrokenBy != "" {
			continue
		}
		for _, m := range c.Txns {
			if m == uint64(rec.Txn) {
				c.BrokenBy = outcome
				c.BrokenTxn = uint64(rec.Txn)
				c.BrokenAt = rec.At
				if !c.FormedAt.IsZero() && !rec.At.IsZero() {
					c.LastedMs = ms(rec.At.Sub(c.FormedAt))
				}
				c.NearMiss = outcome != "victim-detect"
				a.report.Cycles = append(a.report.Cycles, *c)
				delete(a.cycles, key)
				break
			}
		}
	}
}

// closeConvoy finalizes an open convoy if it is worth reporting.
func (a *analyzer) closeConvoy(res lock.Resource, ct *convoyTrack, end time.Time) {
	cv := Convoy{
		Resource:  string(res),
		PeakDepth: ct.peak,
		Waiters:   ct.waiters,
		Start:     ct.start,
		Timeline:  append([]DepthPoint(nil), ct.timeline...),
	}
	if !ct.start.IsZero() && !end.IsZero() {
		cv.DurMs = ms(end.Sub(ct.start))
	}
	a.report.Convoys = append(a.report.Convoys, cv)
	*ct = convoyTrack{}
}

// detectCycle opens a Cycle record when txn's new edges closed a waits-for
// cycle through it. One walk from txn, linear in the edges it reaches, finds
// such a cycle whenever txn reaches itself, however long the cycle is.
func (a *analyzer) detectCycle(txn lock.TxnID, at time.Time) {
	var ids []uint64
	a.finder.Reset()
	a.finder.Walk(txn, func(t lock.TxnID, dst []lock.TxnID) []lock.TxnID {
		if ws := a.waiting[t]; ws != nil {
			dst = append(dst, ws.blockers...)
		}
		return dst
	}, func(cycle []lock.TxnID) bool {
		if cycle[len(cycle)-1] != txn {
			return true // a cycle txn only leads into
		}
		ids = txnIDs(cycle)
		return false
	})
	if ids == nil {
		return
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	key := fmt.Sprint(ids)
	if _, ok := a.cycles[key]; ok {
		return
	}
	a.cycles[key] = &Cycle{Txns: ids, FormedAt: at}
}

// finish assembles the report: totals, rankings, open state, SLO replay.
func (a *analyzer) finish(recs []journal.Record, cfg Config) {
	r := a.report
	r.To = a.lastAt
	if !r.From.IsZero() && !r.To.IsZero() {
		r.SpanMs = ms(r.To.Sub(r.From))
	}
	r.Txns = len(a.txns)
	if attempts := a.grants + a.aborts; attempts > 0 {
		r.AbortRate = float64(a.aborts) / float64(attempts)
	}
	snap := a.wait.Snapshot()
	r.WaitCount = snap.Count
	r.WaitP50Ms = ms(snap.Quantile(0.50))
	r.WaitP95Ms = ms(snap.Quantile(0.95))
	r.WaitP99Ms = ms(snap.Quantile(0.99))
	r.WaitMaxMs = ms(snap.Max)

	// Still-open convoys and cycles close at stream end.
	for res, ct := range a.convoys {
		if ct.open {
			a.closeConvoy(res, ct, a.lastAt)
		}
	}
	for _, c := range a.cycles {
		c.BrokenBy = "unresolved"
		c.NearMiss = true
		if !c.FormedAt.IsZero() && !a.lastAt.IsZero() {
			c.LastedMs = ms(a.lastAt.Sub(c.FormedAt))
		}
		r.Cycles = append(r.Cycles, *c)
	}
	sort.Slice(r.Cycles, func(i, j int) bool { return r.Cycles[i].FormedAt.Before(r.Cycles[j].FormedAt) })
	for _, c := range r.Cycles {
		if c.NearMiss {
			r.NearMisses++
		}
	}

	for _, h := range a.hot {
		r.Hot = append(r.Hot, *h)
	}
	sort.Slice(r.Hot, func(i, j int) bool {
		if r.Hot[i].Blocks != r.Hot[j].Blocks {
			return r.Hot[i].Blocks > r.Hot[j].Blocks
		}
		return r.Hot[i].Resource < r.Hot[j].Resource
	})
	if len(r.Hot) > cfg.Top {
		r.Hot = r.Hot[:cfg.Top]
	}

	sort.Slice(r.Convoys, func(i, j int) bool {
		if r.Convoys[i].PeakDepth != r.Convoys[j].PeakDepth {
			return r.Convoys[i].PeakDepth > r.Convoys[j].PeakDepth
		}
		return r.Convoys[i].DurMs > r.Convoys[j].DurMs
	})
	if len(r.Convoys) > cfg.Top {
		r.Convoys = r.Convoys[:cfg.Top]
	}

	for txn, ws := range a.waiting {
		ow := OpenWait{Txn: uint64(txn), Resource: string(ws.resource), Mode: ws.mode.String(), Blockers: txnIDs(ws.blockers)}
		if !ws.since.IsZero() && !a.lastAt.IsZero() {
			ow.SinceMs = ms(a.lastAt.Sub(ws.since))
		}
		r.OpenWaits = append(r.OpenWaits, ow)
	}
	sort.Slice(r.OpenWaits, func(i, j int) bool { return r.OpenWaits[i].Txn < r.OpenWaits[j].Txn })

	for _, p := range a.paths {
		r.CriticalPaths = append(r.CriticalPaths, *p)
	}
	sort.Slice(r.CriticalPaths, func(i, j int) bool {
		if r.CriticalPaths[i].BlockedMs != r.CriticalPaths[j].BlockedMs {
			return r.CriticalPaths[i].BlockedMs > r.CriticalPaths[j].BlockedMs
		}
		return r.CriticalPaths[i].Txn < r.CriticalPaths[j].Txn
	})
	if len(r.CriticalPaths) > cfg.Top {
		r.CriticalPaths = r.CriticalPaths[:cfg.Top]
	}

	r.SLO = replaySLO(recs, cfg)
}

// replaySLO grades history with the same hysteretic machine that grades the
// present (health.Replay).
func replaySLO(recs []journal.Record, cfg Config) SLOReplay {
	out := SLOReplay{FinalState: health.StateOK.String(), WorstState: health.StateOK.String()}
	mon, trs := health.Replay(recs, cfg.Window, cfg.SLO)
	if mon == nil {
		return out
	}
	worst := mon.State()
	for _, tr := range trs {
		worst = max(worst, tr.To)
		out.Transitions = append(out.Transitions, fmt.Sprintf("%s->%s %s", tr.From, tr.To, tr.Reason))
	}
	out.FinalState = mon.State().String()
	out.WorstState = worst.String()
	out.Windows = len(mon.Windows(0))
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// txnIDs converts a TxnID slice for JSON.
func txnIDs(ts []lock.TxnID) []uint64 {
	if len(ts) == 0 {
		return nil
	}
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = uint64(t)
	}
	return out
}

// diffLine renders one row of the -diff comparison.
type diffLine struct {
	Name string
	A, B string
}

// diffReport compares the headline numbers of two analyses.
func diffReport(a, b *Report) []diffLine {
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	lines := []diffLine{
		{"records", fmt.Sprint(a.Records), fmt.Sprint(b.Records)},
		{"transactions", fmt.Sprint(a.Txns), fmt.Sprint(b.Txns)},
		{"grants", fmt.Sprint(a.Kinds["grant"] + a.Kinds["convert"]), fmt.Sprint(b.Kinds["grant"] + b.Kinds["convert"])},
		{"blocks", fmt.Sprint(a.Kinds["wait"]), fmt.Sprint(b.Kinds["wait"])},
		{"victims", fmt.Sprint(a.Kinds["victim"]), fmt.Sprint(b.Kinds["victim"])},
		{"timeouts", fmt.Sprint(a.Kinds["timeout"]), fmt.Sprint(b.Kinds["timeout"])},
		{"sheds", fmt.Sprint(a.Kinds["shed"]), fmt.Sprint(b.Kinds["shed"])},
		{"fast-path hits", fmt.Sprint(a.Kinds[journal.KindFastPath]), fmt.Sprint(b.Kinds[journal.KindFastPath])},
		{"abort rate", f(a.AbortRate), f(b.AbortRate)},
		{"wait p50 (ms)", f(a.WaitP50Ms), f(b.WaitP50Ms)},
		{"wait p99 (ms)", f(a.WaitP99Ms), f(b.WaitP99Ms)},
		{"convoys", fmt.Sprint(len(a.Convoys)), fmt.Sprint(len(b.Convoys))},
		{"near-miss cycles", fmt.Sprint(a.NearMisses), fmt.Sprint(b.NearMisses)},
		{"SLO worst state", a.SLO.WorstState, b.SLO.WorstState},
	}
	hot := func(r *Report) string {
		if len(r.Hot) == 0 {
			return "-"
		}
		return fmt.Sprintf("%s (%d)", r.Hot[0].Resource, r.Hot[0].Blocks)
	}
	return append(lines, diffLine{"hottest resource", hot(a), hot(b)})
}

// shortTxns renders a cycle's member list.
func shortTxns(ids []uint64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, "→") + "→" + parts[0]
}
