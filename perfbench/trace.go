package main

// The traced run's span log and its in-process layer replays. Every span is
// recorded from the benchmark's own code: around an HTTP round trip (with
// the server's ?trace=1 stages as children) or around one call into a
// layer's public function. Nothing inside the program is instrumented.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dualspace/internal/batch"
	"dualspace/internal/cluster"
	"dualspace/internal/core"
	"dualspace/internal/engine"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/obs"
	"dualspace/internal/service"
	"dualspace/internal/verdictlog"
)

// span is one timed interval. Spans of one request share req; parent is
// the id of the enclosing span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

func (l *spanLog) add(s span) int64 {
	l.mu.Lock()
	s.ID = int64(len(l.spans) + 1)
	if s.Req == 0 {
		s.Req = s.ID
	}
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s.ID
}

// request records one HTTP request: a root span for the client round trip
// and, when the server returned a trace block, children that partition it
// into transport (round trip − server wall), the server's disjoint stages
// and the residue "service.other" (wall − Σ stages). Stage durations are
// the server's; their offsets inside the round trip are laid out in order.
func (l *spanLog) request(path string, start, rtt time.Duration, tb *traceBlock) {
	root := l.add(span{Name: "request " + path, Start: start.Nanoseconds(), Dur: rtt.Nanoseconds()})
	if tb == nil {
		return
	}
	at := start.Nanoseconds()
	child := func(name string, d int64) {
		l.add(span{Parent: root, Req: root, Name: name, Start: at, Dur: d})
		at += d
	}
	child("service.transport", rtt.Nanoseconds()-tb.WallNs)
	var staged int64
	for _, st := range tb.stages() {
		if st.ns > 0 {
			child(st.name, st.ns)
			staged += st.ns
		}
	}
	child("service.other", tb.WallNs-staged)
}

// finish sets the duration of span id, opened with a zero duration.
func (l *spanLog) finish(id int64, start time.Time) {
	l.mu.Lock()
	l.spans[id-1].Dur = time.Since(start).Nanoseconds()
	l.mu.Unlock()
}

// around times fn as a span named name under parent.
func (l *spanLog) around(parent int64, name string, fn func()) {
	t0 := time.Now()
	fn()
	l.add(span{Parent: parent, Req: parent, Name: name, Start: t0.Sub(l.epoch).Nanoseconds(), Dur: time.Since(t0).Nanoseconds()})
}

// layerTime is one span name's totals: count, summed duration, and self
// time (duration minus the part covered by child spans).
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (l *spanLog) selfTimes() []layerTime {
	covered := make(map[int64]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.Dur
		}
	}
	by := map[string]*layerTime{}
	for _, s := range l.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.TotalMs += float64(s.Dur) / 1e6
		lt.SelfMs += float64(max(0, s.Dur-covered[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores the spans (NDJSON) and the self-time summary (JSON).
func (l *spanLog) write(spanPath, summaryPath string, summary any) error {
	f, err := os.Create(spanPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(summaryPath, append(b, '\n'), 0o644)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayParse times hgio.ReadHypergraphsLimited (with the service's
// DefaultLimits) and then Canonical+Fingerprint on each text, as the
// service does per request. Timings and allocation counts come from an
// untraced loop; a second loop records one span per call.
func replayParse(texts []instance, l *spanLog, out map[string]float64) error {
	if len(texts) == 0 {
		return nil
	}
	parse := func(in instance) ([]*hypergraph.Hypergraph, error) {
		hs, _, err := hgio.ReadHypergraphsLimited(service.DefaultLimits,
			strings.NewReader(in.g), strings.NewReader(in.h))
		return hs, err
	}
	canon := func(hs []*hypergraph.Hypergraph) {
		g, h := hs[0].Canonical(), hs[1].Canonical()
		_ = batch.NewKey("portfolio", g.Fingerprint(), h.Fingerprint())
	}
	parsed := make([][]*hypergraph.Hypergraph, len(texts))
	runtime.GC()
	m0, t0 := mallocs(), time.Now()
	for i, in := range texts {
		hs, err := parse(in)
		if err != nil {
			return err
		}
		parsed[i] = hs
	}
	n := float64(len(texts))
	out["hgio.parse_us"] = float64(time.Since(t0).Microseconds()) / n
	out["hgio.parse_allocs"] = float64(mallocs()-m0) / n
	m0, t0 = mallocs(), time.Now()
	for _, hs := range parsed {
		canon(hs)
	}
	out["hypergraph.canon_fp_us"] = float64(time.Since(t0).Microseconds()) / n
	out["hypergraph.canon_fp_allocs"] = float64(mallocs()-m0) / n

	root := l.add(span{Name: "replay hgio+hypergraph", Start: time.Since(l.epoch).Nanoseconds()})
	rootStart := time.Now()
	for _, in := range texts {
		var hs []*hypergraph.Hypergraph
		l.around(root, "hgio.ReadHypergraphsLimited", func() { hs, _ = parse(in) })
		l.around(root, "hypergraph.Canonical+Fingerprint", func() { canon(hs) })
	}
	l.finish(root, rootStart)
	return nil
}

// replayDatasets times hgio.ReadDatasetLimited on the mine datasets
// texts, as /v1/mine parses them.
func replayDatasets(cases []*mineCase, l *spanLog, out map[string]float64) error {
	runtime.GC()
	m0, t0 := mallocs(), time.Now()
	for _, mc := range cases {
		if _, _, err := hgio.ReadDatasetLimited(strings.NewReader(mc.data), service.DefaultLimits); err != nil {
			return err
		}
	}
	n := float64(len(cases))
	out["hgio.parse_us"] = float64(time.Since(t0).Microseconds()) / n
	out["hgio.parse_allocs"] = float64(mallocs()-m0) / n
	root := l.add(span{Name: "replay hgio", Start: time.Since(l.epoch).Nanoseconds()})
	rootStart := time.Now()
	for _, mc := range cases {
		l.around(root, "hgio.ReadDatasetLimited", func() {
			_, _, _ = hgio.ReadDatasetLimited(strings.NewReader(mc.data), service.DefaultLimits) // parsed without error above
		})
	}
	l.finish(root, rootStart)
	return nil
}

// replayEngine runs the workload's distinct instances through
// engine.Default().Select (which engine the portfolio picks) and through a
// pinned engine.Session (one reusable decider with its memo, as a service
// worker holds), checking every verdict against the ground truth.
func replayEngine(insts []instance, l *spanLog, out map[string]float64) error {
	if len(insts) == 0 {
		return nil
	}
	p, ok := engine.Default().(*engine.Portfolio)
	if !ok {
		return fmt.Errorf("engine.Default is %T, not a portfolio", engine.Default())
	}
	sess := engine.NewSession(engine.Default())
	cache := batch.NewCache(1024, 0)
	root := l.add(span{Name: "replay engine", Start: time.Since(l.epoch).Nanoseconds()})
	rootStart := time.Now()
	var parallel int
	var decide, add time.Duration
	for _, in := range insts {
		key, g, h, err := keyOf(in)
		if err != nil {
			return err
		}
		if e, _ := p.Select(g, h); e.Name() == "core-parallel" {
			parallel++
		}
		var res *core.Result
		t0 := time.Now()
		l.around(root, "engine.Session.Decide", func() { res, err = sess.Decide(context.Background(), g, h) })
		decide += time.Since(t0)
		if err != nil {
			return err
		}
		if res.Dual != in.dual {
			return fmt.Errorf("in-process verdict dual=%v, want %v", res.Dual, in.dual)
		}
		bk := batch.NewKey("portfolio", key.fg, key.fh)
		t0 = time.Now()
		l.around(root, "batch.Cache.Add", func() { cache.Add(bk, res) })
		add += time.Since(t0)
	}
	l.finish(root, rootStart)
	n := float64(len(insts))
	out["engine.parallel_share"] = float64(parallel) / n
	out["engine.decide_us"] = float64(decide.Microseconds()) / n
	out["batch.cache_add_us"] = float64(add.Nanoseconds()) / 1e3 / n
	return nil
}

// timingEngine wraps the engine a mining loop calls, counting and timing
// each duality check and noting which engine the portfolio would pick.
type timingEngine struct {
	sess     *engine.Session
	p        *engine.Portfolio
	l        *spanLog
	parent   int64
	calls    int
	parallel int
	busy     time.Duration    // inside Session.Decide
	selected time.Duration    // inside Portfolio.Select, neither engine nor itemsets time
	stages   obs.StageTimings // the session recorder's engine stages, summed
}

func (e *timingEngine) Name() string      { return e.sess.Name() }
func (e *timingEngine) Caps() engine.Caps { return e.sess.Caps() }
func (e *timingEngine) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (res *core.Result, err error) {
	e.calls++
	t0 := time.Now()
	e.l.around(e.parent, "engine.Portfolio.Select", func() {
		if sel, _ := e.p.Select(g, h); sel.Name() == "core-parallel" {
			e.parallel++
		}
	})
	e.selected += time.Since(t0)
	rec := e.sess.Recorder()
	rec.Reset()
	t0 = time.Now()
	e.l.around(e.parent, "engine.Session.Decide", func() { res, err = e.sess.Decide(ctx, g, h) })
	e.busy += time.Since(t0)
	for i, ns := range rec.Timings() {
		e.stages[i] += ns
	}
	return res, err
}

// replayMine runs itemsets.ComputeBordersStreamWith on every dataset
// through a timingEngine over a pinned session, splitting each mine into
// engine time and the itemsets loop's own time. /v1/mine's checks feed no
// server stage histogram, so mine's core stage means come from the
// session's own recorder here.
func replayMine(cases []*mineCase, l *spanLog, out map[string]float64) error {
	p, ok := engine.Default().(*engine.Portfolio)
	if !ok {
		return fmt.Errorf("engine.Default is %T, not a portfolio", engine.Default())
	}
	te := &timingEngine{sess: engine.NewSession(engine.Default()), p: p, l: l}
	var wall time.Duration
	for _, mc := range cases {
		te.parent = l.add(span{Name: "itemsets.ComputeBordersStreamWith", Start: time.Since(l.epoch).Nanoseconds()})
		t0 := time.Now()
		b, err := itemsets.ComputeBordersStreamWith(context.Background(), mc.dataset, mc.z, te, nil)
		l.finish(te.parent, t0)
		wall += time.Since(t0)
		if err != nil {
			return err
		}
		if b.MaxFrequent.M() != len(mc.maxFrequent) || b.MinInfrequent.M() != len(mc.minInfreq) {
			return fmt.Errorf("in-process borders %d/%d, want %d/%d",
				b.MaxFrequent.M(), b.MinInfrequent.M(), len(mc.maxFrequent), len(mc.minInfreq))
		}
	}
	n := float64(len(cases))
	out["itemsets.dual_calls_per_op"] = float64(te.calls) / n
	out["itemsets.engine_us_per_op"] = float64(te.busy.Microseconds()) / n
	out["itemsets.self_us_per_op"] = float64((wall - te.busy - te.selected).Microseconds()) / n
	out["engine.parallel_share"] = float64(te.parallel) / float64(max(1, te.calls))
	out["engine.decide_us"] = float64(te.busy.Microseconds()) / float64(max(1, te.calls))
	for _, st := range []obs.Stage{obs.StagePrecheck, obs.StageIndexSync, obs.StageWalk, obs.StageMemo, obs.StageWalkSteals} {
		out["core."+st.String()+"_us"] = float64(te.stages[st]) / 1e3 / float64(max(1, te.calls))
	}
	return nil
}

// replayFill times cluster.Client.Fill against a live replica for the
// given instances (the replica answers from its cache or computes), and
// checks every filled verdict.
func replayFill(addr string, insts []instance, l *spanLog, out map[string]float64) error {
	cl, err := cluster.New(cluster.Config{Self: "127.0.0.1:1", Peers: []string{addr}})
	if err != nil {
		return err
	}
	peer := "http://" + addr
	root := l.add(span{Name: "replay cluster fill", Start: time.Since(l.epoch).Nanoseconds()})
	rootStart := time.Now()
	var busy time.Duration
	for _, in := range insts {
		var wv *cluster.WireVerdict
		t0 := time.Now()
		l.around(root, "cluster.Client.Fill", func() {
			wv, err = cl.Fill(context.Background(), peer, "portfolio", in.g, in.h)
		})
		busy += time.Since(t0)
		if err != nil {
			return err
		}
		if wv == nil || wv.Dual != in.dual {
			return fmt.Errorf("fill answered %+v, want dual=%v", wv, in.dual)
		}
	}
	l.finish(root, rootStart)
	out["cluster.fill_us"] = float64(busy.Microseconds()) / float64(len(insts))
	return nil
}

// replayLog times verdictlog.Open on a copy of the workload's pre-written
// log (replay) and verdictlog.Log.Append of its records into a fresh log.
func replayLog(seedDir, scratch string, l *spanLog, out map[string]float64) error {
	replayDir, appendDir := scratch+"/replay", scratch+"/append"
	for _, d := range []string{replayDir, appendDir} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	if err := copyDir(seedDir, replayDir); err != nil {
		return err
	}
	root := l.add(span{Name: "replay verdictlog", Start: time.Since(l.epoch).Nanoseconds()})
	rootStart := time.Now()
	var lg *verdictlog.Log
	var err error
	t0 := time.Now()
	l.around(root, "verdictlog.Open", func() { lg, err = verdictlog.Open(replayDir, verdictlog.Options{}) })
	out["verdictlog.replay_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	if err != nil {
		return err
	}
	recs := lg.ReplayedRecords()
	if err := lg.Close(); err != nil {
		return err
	}
	fresh, err := verdictlog.Open(appendDir, verdictlog.Options{})
	if err != nil {
		return err
	}
	var busy time.Duration
	for _, rec := range recs {
		t0 := time.Now()
		l.around(root, "verdictlog.Log.Append", func() { err = fresh.Append(rec) })
		busy += time.Since(t0)
		if err != nil {
			fresh.Close()
			return err
		}
	}
	l.finish(root, rootStart)
	out["verdictlog.append_us"] = float64(busy.Nanoseconds()) / 1e3 / float64(max(1, len(recs)))
	return fresh.Close()
}

// writeLog pre-writes the verdicts of insts (computed in process on the
// default portfolio, keyed as the service keys them) to a verdict log in
// dir, the state a replica restarts from.
func writeLog(dir string, insts []instance) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	lg, err := verdictlog.Open(dir, verdictlog.Options{})
	if err != nil {
		return err
	}
	sess := engine.NewSession(engine.Default())
	for _, in := range insts {
		key, g, h, err := keyOf(in)
		if err != nil {
			lg.Close()
			return err
		}
		res, err := sess.Decide(context.Background(), g, h)
		if err != nil {
			lg.Close()
			return err
		}
		rec := verdictlog.Record{Engine: "portfolio", FG: key.fg, FH: key.fh, N: g.N(), Res: res}
		if err := lg.Append(rec); err != nil {
			lg.Close()
			return err
		}
	}
	return lg.Close()
}
