// Command perfbench is dualspace's end-to-end service benchmark. It starts
// fresh dualserved processes, drives them from this one load-generator
// process over closed loops (each client waits for its answer before
// sending again), checks every answer against ground truth, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Usage (run.sh builds both binaries and passes -bin and -out):
//
//	perfbench -bin dualserved -out dir --workload decide-hit|decide-miss|batch-cluster|mine
//	          --seed n --seconds s --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// sequence with ?trace=1 on decides, records one span per request and per
// in-process layer call, writes them with a per-layer self-time summary to
// -out, and reports the per-layer metrics. README.md documents the
// workloads, the metrics and the noise findings behind their choice.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// Timed work is whole passes; at least minPasses of them, and more until
// --seconds have elapsed.
const (
	minPasses     = 2
	setupLaunches = 9 // server sets started per run; setup_s is their median
)

func main() {
	bin := flag.String("bin", "", "dualserved binary")
	outDir := flag.String("out", "", "directory for logs, span files and summaries")
	name := flag.String("workload", "", "decide-hit, decide-miss, batch-cluster or mine")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *bin == "" || *outDir == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin dualserved -out dir --workload w --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	b := &bench{bin: *bin, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	b.dir = filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-pid%d", *name, *seed, os.Getpid()))
	res, err := b.run(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one traffic shape, fully generated from the seed.
type workload struct {
	pass     []op
	clients  int
	replicas int
	tailPct  float64 // latency_tail_ms percentile, chosen by samples per run

	logged   []instance  // pre-written to every replica's verdict log
	distinct []instance  // engine replay inputs (distinct instances)
	texts    []instance  // parse replay inputs (request texts as sent)
	mine     []*mineCase // mine datasets
	perPass  int         // distinct canonical instances per pass
}

func build(name string, seed int64) (*workload, error) {
	switch name {
	case "decide-hit":
		pass := hitPass(seed)
		w := &workload{clients: 2, replicas: 1, tailPct: 0.99, distinct: hitClasses(), texts: pass}
		for _, in := range pass {
			w.pass = append(w.pass, decideOp(in, 0))
		}
		w.perPass = len(w.distinct)
		return w, nil
	case "decide-miss":
		pool, err := missPass(seed)
		if err != nil {
			return nil, err
		}
		w := &workload{clients: 2, replicas: 1, tailPct: 0.99, distinct: pool[:256], texts: pool, perPass: len(pool)}
		for _, in := range pool {
			w.pass = append(w.pass, decideOp(in, 0))
		}
		return w, nil
	case "batch-cluster":
		bw, err := batchPass(seed)
		if err != nil {
			return nil, err
		}
		w := &workload{clients: 1, replicas: batchReplicas, tailPct: 0.90,
			logged: bw.logged, distinct: bw.pool[:512], perPass: len(bw.pool)}
		for _, b := range bw.pass {
			w.pass = append(w.pass, batchRequest(b))
			w.texts = append(w.texts, b.rows...)
		}
		return w, nil
	case "mine":
		cases, err := mineSets(seed)
		if err != nil {
			return nil, err
		}
		w := &workload{clients: 1, replicas: 1, tailPct: 0.90, mine: cases}
		for rep := 0; rep < mineRepeatPass; rep++ {
			for _, mc := range cases {
				w.pass = append(w.pass, mineRequest(mc))
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type bench struct {
	bin, dir string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// passStats are one pass's figures.
type passStats struct {
	opsPerSec float64
	tail      float64 // client round trip at the tail percentile, ms
	cpuPerOp  float64 // server CPU, ms per op
}

// window is the measurement of consecutive timed passes. Host
// interference (CPU steal, noisy neighbours) only ever slows a pass, so a
// window reports throughput and CPU per op from its faster passes: the
// quartile of the per-pass values on the better side (upper for ops/s,
// lower for CPU), and latencies from each op's faster round trips (see
// opLatencies). A whole pass is the unit, so every figure still covers a
// complete, identical instance mix.
type window struct {
	passes  []passStats
	lats    [][]time.Duration // per pass, indexed like the pass's ops
	ops     int
	beyond  int // samples per pass beyond the tail percentile
	traced  []tracedCall
	loadCPU time.Duration
}

// measure replays whole passes until at least minPasses ran and dur has
// elapsed.
func measure(d *loadgen, pass []op, dur time.Duration, tailPct float64) (*window, error) {
	w := &window{}
	lg0 := selfCPU()
	start := time.Now()
	for len(w.passes) < minPasses || time.Since(start) < dur {
		cpu0, err := d.c.serverCPU()
		if err != nil {
			return nil, err
		}
		pr := d.runPass(pass)
		cpu1, err := d.c.serverCPU()
		if err != nil {
			return nil, err
		}
		w.lats = append(w.lats, pr.lat)
		sorted := slices.Clone(pr.lat)
		slices.Sort(sorted)
		w.passes = append(w.passes, passStats{
			opsPerSec: float64(pr.ops) / pr.wall.Seconds(),
			tail:      pctMs(sorted, tailPct),
			cpuPerOp:  float64((cpu1 - cpu0).Microseconds()) / 1e3 / float64(pr.ops),
		})
		w.ops += pr.ops
		w.beyond = len(pr.lat) - int(math.Ceil(tailPct*float64(len(pr.lat))))
		w.traced = append(w.traced, pr.traced...)
	}
	w.loadCPU = selfCPU() - lg0
	return w, nil
}

// faster is the better-side quartile of one per-pass figure.
func (w *window) faster(f func(passStats) float64, higherIsBetter bool) float64 {
	xs := make([]float64, len(w.passes))
	for i, p := range w.passes {
		xs[i] = f(p)
	}
	if higherIsBetter {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// opLatencies are the pass's ops' round trips, sorted: each op's is the
// lower quartile of its round trips over the window's passes. Every pass
// replays the same ops, so an op's round trips differ by interference,
// which only ever adds, and with two clients by which request runs beside
// it. A burst must hit three quarters of an op's passes to move it, so
// percentiles over these follow the slowest instances of the pass rather
// than whichever ops a burst happened to hit.
func (w *window) opLatencies() []time.Duration {
	out := make([]time.Duration, len(w.lats[0]))
	col := make([]float64, len(w.lats))
	for i := range out {
		for p, lat := range w.lats {
			col[p] = float64(lat[i])
		}
		out[i] = time.Duration(quantile(col, 0.25))
	}
	slices.Sort(out)
	return out
}

func (w *window) opsPerSec() float64 {
	return w.faster(func(p passStats) float64 { return p.opsPerSec }, true)
}

// pctMs is the nearest-rank percentile of sorted latencies, in ms.
func pctMs(sorted []time.Duration, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(0, i)].Nanoseconds()) / 1e6
}

// quantile linearly interpolates the q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) run(name string) (*result, error) {
	w, err := build(name, b.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir) // logs and verdict-log copies; summaries go to its parent
	spec := launchSpec{bin: b.bin, replicas: w.replicas, workDir: b.dir}
	if len(w.logged) > 0 {
		spec.logSeed = filepath.Join(b.dir, "vlog-seed")
		if err := writeLog(spec.logSeed, w.logged); err != nil {
			return nil, fmt.Errorf("pre-write verdict log: %w", err)
		}
	}
	// Control traffic (readiness, scrapes) never shares the load
	// connections: at most `clients` connections per replica carry load.
	ctl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	load := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients, DisableCompression: true,
	}}
	defer load.CloseIdleConnections()

	var setups []float64
	var c *serverSet
	for i := 0; i < setupLaunches; i++ {
		cl, took, err := launch(spec, ctl)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupLaunches-1 {
			cl.stop()
		} else {
			c = cl
		}
	}
	defer c.stop()

	d := &loadgen{hc: load, c: c, clients: w.clients, epoch: time.Now()}
	d.runPass(w.pass) // warm-up: fills caches, memos and connection pools
	info := map[string]any{
		"workload": name, "seed": b.seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"server_go_version": serverGoVersion(ctl, c), "clients": w.clients,
		"replicas": w.replicas, "pass_ops": len(w.pass),
	}
	if !b.traced {
		win, err := measure(d, w.pass, b.seconds, w.tailPct)
		if err != nil {
			return nil, err
		}
		rss, err := c.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rates := make([]float64, len(win.passes))
		tails := make([]float64, len(win.passes))
		for i, p := range win.passes {
			rates[i], tails[i] = p.opsPerSec, p.tail
		}
		info["passes"], info["timed_ops"] = len(win.passes), win.ops
		info["pass_ops_per_s"], info["pass_tail_ms"] = rates, tails
		info["tail_percentile"], info["samples_beyond_tail_per_pass"] = w.tailPct, win.beyond
		lat := win.opLatencies()
		info["p90_ms"], info["p99_ms"] = pctMs(lat, 0.90), pctMs(lat, 0.99)
		res := b.finish(d, c, ctl, info)
		res.Metrics = map[string]metric{
			"ops_per_s":            {win.opsPerSec(), "1/s"},
			"latency_p50_ms":       {pctMs(lat, 0.50), "ms"},
			"latency_tail_ms":      {pctMs(lat, w.tailPct), "ms"},
			"server_cpu_ms_per_op": {win.faster(func(p passStats) float64 { return p.cpuPerOp }, false), "ms"},
			"server_rss_peak_mb":   {rss, "MB"},
			"setup_s":              {quantile(setups, 0.5), "s"},
			"ok_frac":              {1 - float64(res.Failed)/float64(res.Attempted), "fraction"},
		}
		return res, nil
	}
	return b.traceRun(name, w, d, c, ctl, info)
}

// finish prints the run's context line and builds the result skeleton:
// every op counts as attempted (warm-up included), and the run is correct
// only if every answer checked out and no replica rejected a peer verdict.
func (b *bench) finish(d *loadgen, c *serverSet, ctl *http.Client, info map[string]any) *result {
	res := &result{Correct: true, Attempted: d.attempted.Load(), Failed: d.failed.Load()}
	for _, e := range d.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	st, err := c.stats(ctl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	var invalid int64
	for _, s := range st {
		if s.Cluster != nil {
			invalid += s.Cluster.InvalidVerdicts
		}
	}
	info["invalid_verdicts"] = invalid
	if res.Failed > 0 || invalid > 0 {
		res.Correct = false
	}
	line, err := json.Marshal(info)
	if err == nil {
		fmt.Println(string(line))
	}
	return res
}

func serverGoVersion(ctl *http.Client, c *serverSet) string {
	resp, err := ctl.Get("http://" + c.replicas[0].addr + "/healthz")
	if err != nil {
		return "unknown"
	}
	defer resp.Body.Close()
	var h struct {
		GoVersion string `json:"go_version"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return "unknown"
	}
	return h.GoVersion
}

// traceRun measures an untraced window and a traced one of the same
// length, then replays the workload's inputs through the layers' public
// functions, and reports the per-layer metrics.
func (b *bench) traceRun(name string, w *workload, d *loadgen, c *serverSet, ctl *http.Client, info map[string]any) (*result, error) {
	half := b.seconds / 2
	plain, err := measure(d, w.pass, half, w.tailPct)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog(d.epoch)
	d.spans = spans
	before, err := c.scrape(ctl)
	if err != nil {
		return nil, err
	}
	stBefore, err := c.stats(ctl)
	if err != nil {
		return nil, err
	}
	stopSampler := make(chan struct{})
	peak := make(chan int64)
	go sampleQueue(ctl, c, stopSampler, peak)
	traced, err := measure(d, w.pass, half, w.tailPct)
	close(stopSampler)
	queuePeak := <-peak
	if err != nil {
		return nil, err
	}
	after, err := c.scrape(ctl)
	if err != nil {
		return nil, err
	}
	stAfter, err := c.stats(ctl)
	if err != nil {
		return nil, err
	}
	d.spans = nil

	m := map[string]float64{}
	m["loadgen.cpu_ms_per_op"] = float64(plain.loadCPU.Microseconds()) / 1e3 / float64(plain.ops)
	m["trace.overhead_pct"] = 100 * (plain.opsPerSec() - traced.opsPerSec()) / plain.opsPerSec()
	serverLayers(m, before, after, stBefore, stAfter, traced, w)
	m["service.queue_waiters_peak"] = float64(queuePeak)
	reconcile := traceLayers(m, traced)

	if name == "batch-cluster" {
		if err := replayFill(c.replicas[0].addr, w.distinct[:128], spans, m); err != nil {
			return nil, fmt.Errorf("fill replay: %w", err)
		}
	}
	res := b.finish(d, c, ctl, info)
	c.stop() // in-process replays run on an idle machine
	if err := replayParse(w.texts, spans, m); err != nil {
		return nil, err
	}
	if len(w.mine) > 0 {
		if err := replayDatasets(w.mine, spans, m); err != nil {
			return nil, err
		}
		if err := replayMine(w.mine, spans, m); err != nil {
			return nil, err
		}
	} else if err := replayEngine(w.distinct, spans, m); err != nil {
		return nil, err
	}
	if len(w.logged) > 0 {
		if err := replayLog(filepath.Join(b.dir, "vlog-seed"), b.dir, spans, m); err != nil {
			return nil, err
		}
	}
	m["trace.spans"] = float64(len(spans.spans))

	res.Metrics = map[string]metric{}
	for _, pm := range perLayer {
		res.Metrics[pm.name] = metric{m[pm.name], pm.unit}
	}
	base := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-seed%d", name, b.seed))
	summary := map[string]any{
		"workload": name, "seed": b.seed, "info": info,
		"untraced_ops_per_s": plain.opsPerSec(), "traced_ops_per_s": traced.opsPerSec(),
		"trace_overhead_pct": m["trace.overhead_pct"],
		"reconcile":          reconcile,
		"self_times":         spans.selfTimes(),
		"per_layer":          res.Metrics,
	}
	if err := spans.write(base+".spans.ndjson", base+".summary.json", summary); err != nil {
		return nil, err
	}
	return res, nil
}

// sampleQueue polls every replica's admission-queue occupancy until stop
// closes, then sends the peak seen.
func sampleQueue(ctl *http.Client, c *serverSet, stop <-chan struct{}, peak chan<- int64) {
	var hi int64
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			peak <- hi
			return
		case <-t.C:
			if st, err := c.stats(ctl); err == nil {
				for _, s := range st {
					hi = max(hi, s.Resilience.QueueWaiters)
				}
			}
		}
	}
}

// reconciliation checks that, per traced decide, transport + server stages
// + other equals the client round trip and that neither residue is
// negative (stages are disjoint sub-intervals of the server wall).
type reconciliation struct {
	Calls            int     `json:"calls"`
	MaxAbsErrNs      int64   `json:"max_abs_err_ns"`
	NegativeOther    int     `json:"negative_other"`
	NegativeTransit  int     `json:"negative_transport"`
	MeanRTTUs        float64 `json:"mean_rtt_us"`
	MeanComponentsUs float64 `json:"mean_components_us"`
	Error            string  `json:"error,omitempty"`
}

// traceLayers derives the service-side per-layer means from the traced
// decides' ?trace=1 blocks.
func traceLayers(m map[string]float64, win *window) reconciliation {
	rc := reconciliation{Calls: len(win.traced)}
	if len(win.traced) == 0 {
		rc.Error = "no traced decides"
		return rc
	}
	var transport, other, parse, canon, lookup, rtt, parts float64
	for _, tc := range win.traced {
		t := tc.trace
		tr := tc.rtt.Nanoseconds() - t.WallNs
		var staged int64
		for _, st := range t.stages() {
			staged += st.ns
		}
		oth := t.WallNs - staged
		if oth < 0 {
			rc.NegativeOther++
		}
		if tr < 0 {
			rc.NegativeTransit++
		}
		sum := tr + staged + oth
		rc.MaxAbsErrNs = max(rc.MaxAbsErrNs, abs(sum-tc.rtt.Nanoseconds()))
		transport += float64(tr)
		other += float64(oth)
		parse += float64(t.ParseNs)
		canon += float64(t.CanonicalizeNs)
		lookup += float64(t.CacheLookupNs)
		rtt += float64(tc.rtt.Nanoseconds())
		parts += float64(sum)
	}
	n := float64(len(win.traced)) * 1e3
	m["service.transport_us"] = transport / n
	m["service.other_us"] = other / n
	m["service.parse_us"] = parse / n
	m["hypergraph.canonicalize_us"] = canon / n
	m["batch.cache_lookup_us"] = lookup / n
	rc.MeanRTTUs, rc.MeanComponentsUs = rtt/n, parts/n
	return rc
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// serverLayers derives the per-layer counters and stage means from the
// /metricsz and /statsz deltas over the traced window.
func serverLayers(m map[string]float64, before, after metrics, stBefore, stAfter []statsz, win *window, w *workload) {
	ops := float64(win.ops)
	decisions := delta(before, after, "dualspace_decisions_total")
	for _, st := range []string{"precheck", "index_sync", "walk", "memo", "walk_steals"} {
		if decisions > 0 {
			m["core."+st+"_us"] = 1e6 * delta(before, after, "dualspace_decide_stage_duration_seconds_sum", `stage="`+st+`"`) / decisions
		}
	}
	m["core.walk_spawns_per_op"] = delta(before, after, "dualspace_walk_spawns_total") / ops
	m["core.walk_steals_per_op"] = delta(before, after, "dualspace_walk_steals_total") / ops
	decomps := delta(before, after, "dualspace_decompositions_total")
	m["core.decompositions_per_op"] = decomps / ops
	if w.perPass > 0 {
		m["cluster.decompositions_per_distinct"] = decomps / float64(w.perPass*len(win.passes))
	}
	memoHits := delta(before, after, "dualspace_memo_hits_total")
	if lookups := memoHits + delta(before, after, "dualspace_memo_misses_total"); lookups > 0 {
		m["engine.memo_hit_ratio"] = memoHits / lookups
	}
	hits := delta(before, after, "dualspace_cache_hits_total")
	if lookups := hits + delta(before, after, "dualspace_cache_misses_total"); lookups > 0 {
		m["batch.cache_hit_ratio"] = hits / lookups
	}
	if items := delta(before, after, "dualspace_batch_items_total"); items > 0 {
		dedup := delta(before, after, "dualspace_batch_deduped_total")
		bhits := delta(before, after, "dualspace_batch_cache_hits_total")
		m["batch.dedup_ratio"] = dedup / items
		m["batch.cache_hit_ratio"] = bhits / (items - dedup)
		if need := items - dedup - bhits; need > 0 {
			m["cluster.peer_fill_ratio"] = delta(before, after, "dualspace_cluster_peer_filled_total") / need
		}
	}
	m["service.sheds"] = delta(before, after, "dualspace_sheds_total")
	for i, s := range stAfter {
		if s.Cluster != nil {
			m["cluster.invalid_verdicts"] += float64(s.Cluster.InvalidVerdicts)
		}
		if s.VerdictLog != nil {
			m["verdictlog.replayed_records"] = max(m["verdictlog.replayed_records"], float64(s.VerdictLog.Replayed))
			m["verdictlog.dropped"] += float64(s.VerdictLog.Dropped)
			if stBefore[i].VerdictLog != nil {
				m["verdictlog.dropped"] -= float64(stBefore[i].VerdictLog.Dropped)
			}
		}
	}
}

// perLayer is the traced run's metric list, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"service.transport_us", "us"},
	{"service.other_us", "us"},
	{"service.parse_us", "us"},
	{"hypergraph.canonicalize_us", "us"},
	{"batch.cache_lookup_us", "us"},
	{"hgio.parse_us", "us"},
	{"hgio.parse_allocs", "count"},
	{"hypergraph.canon_fp_us", "us"},
	{"hypergraph.canon_fp_allocs", "count"},
	{"batch.cache_hit_ratio", "ratio"},
	{"batch.cache_add_us", "us"},
	{"core.precheck_us", "us"},
	{"core.index_sync_us", "us"},
	{"core.walk_us", "us"},
	{"core.memo_us", "us"},
	{"core.walk_steals_us", "us"},
	{"core.walk_spawns_per_op", "count"},
	{"core.walk_steals_per_op", "count"},
	{"core.decompositions_per_op", "count"},
	{"engine.parallel_share", "ratio"},
	{"engine.decide_us", "us"},
	{"engine.memo_hit_ratio", "ratio"},
	{"itemsets.dual_calls_per_op", "count"},
	{"itemsets.engine_us_per_op", "us"},
	{"itemsets.self_us_per_op", "us"},
	{"batch.dedup_ratio", "ratio"},
	{"cluster.peer_fill_ratio", "ratio"},
	{"cluster.decompositions_per_distinct", "ratio"},
	{"cluster.fill_us", "us"},
	{"cluster.invalid_verdicts", "count"},
	{"verdictlog.replayed_records", "count"},
	{"verdictlog.replay_ms", "ms"},
	{"verdictlog.append_us", "us"},
	{"verdictlog.dropped", "count"},
	{"service.sheds", "count"},
	{"service.queue_waiters_peak", "count"},
	{"loadgen.cpu_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
